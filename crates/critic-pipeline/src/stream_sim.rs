//! Streaming front-end for the cycle loop: bounded memory, bit-identical
//! results.
//!
//! [`Simulator::run_streamed`] consumes a [`TraceStream`] window-at-a-time
//! instead of a materialized [`critic_workloads::Trace`] + `DecodedTrace`
//! pair. Decoded columns and per-instruction timestamp tables live in
//! power-of-two *rings* sized to the live span of the pipeline — the range
//! between the oldest un-committed instruction and the fetch frontier plus
//! one stream window — so peak memory is O(window + look-ahead + ROB),
//! independent of the trace length.
//!
//! # One loop, a three-part seam
//!
//! The streamed run executes the same cycle loop as
//! [`Simulator::run_decoded`] ([`crate::sim`]) and differs only in the
//! loop's private `Window` seam, filled here by type: (1) slot mapping,
//! `i & mask` instead of `i`; (2) the dependence completion read,
//! `done_of` instead of `done_at[d]`; (3) the feed — window decode ahead
//! of fetch, eviction-floor advance, doubling growth and the peak-bytes
//! sample — instead of a no-op. As a type parameter rather than a flag,
//! the seam is monomorphised away: neither run pays for the other, and a
//! model fix lands in both.
//!
//! # Why the results are bit-identical
//!
//! * **Columns**: every entry is decoded by the same `decode_entry` the
//!   materialized `DecodedTrace` uses, and the stream's entries and
//!   fanout values are themselves bit-identical to the materialized
//!   expansion (asserted by `critic-workloads`' own differential tests).
//! * **Ring reads**: the cycle loop only ever indexes instructions in the
//!   live span — ROB entries, fetch-queue entries, and the fetch frontier
//!   are all ≥ the eviction floor — except dependence lookups in the
//!   wakeup scan, which may point arbitrarily far back. For those,
//!   `done_of` substitutes `0` for any dependence older than the floor:
//!   an evicted dependence is *committed*, so its true completion time is
//!   ≤ `now` at every subsequent read, and substituting `0` changes
//!   neither the `UNSET` classification (evicted instructions always have
//!   a completion time) nor the `max` over the dependence set when that
//!   max is in the future (a future completion can only come from a live,
//!   in-ring dependence). The wakeup schedule is therefore cycle-exact.
//! * **Eviction floor**: advanced only at feed time, to the ROB head (or
//!   the dispatch frontier when the ROB is empty, i.e. everything older
//!   has committed). Slots are only overwritten during a feed, and the
//!   capacity check guarantees the overwritten index is below the floor
//!   just computed, so no live slot is ever clobbered.
//!
//! The format-switch CDP pseudo-instructions never enter the ROB, so the
//! distance between the ROB head and the fetch frontier is *not* bounded
//! by the ROB capacity alone; the rings grow by doubling (re-placing the
//! live span under the new mask) when a CDP-dense region stretches the
//! span past the initial capacity.

use critic_obs::CycleLedger;
use critic_workloads::TraceStream;

use crate::sim::{decode_entry, CoreScratch, DecodedInsn, DecodedTrace, Simulator, Window};
use crate::stats::SimResult;

/// Bytes per ring slot across every column and timestamp ring (used for
/// capacity-based accounting: `Vec` capacity × element size, summed).
const BYTES_PER_SLOT: usize = 1 + 4 + 1 + 1 + 12 + 8 + 8 + 8 + 1 // decoded columns
    + 4 // fanout
    + 8 + 4 + 8 + 8 + 8 + 8 + 8; // timestamp tables

/// Memory accounting for one streamed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamRunStats {
    /// Peak bytes resident across the run: ring capacities, pipeline
    /// queues, and the stream's own expansion state (sampled at every
    /// feed, which is the only point the footprint can grow).
    pub peak_resident_bytes: usize,
    /// Final ring capacity in slots.
    pub ring_capacity: usize,
    /// How many times the rings doubled mid-run (0 unless a CDP-dense
    /// region stretched the live span past the initial capacity).
    pub grows: u32,
}

/// Reusable working memory for [`Simulator::run_streamed`]: the cycle
/// loop's tables and queues (shared with [`crate::SimScratch`]), sized as
/// rings, plus the ring's decoded columns and fanout. Keep one per worker
/// and reuse it across runs; rings are recycled, never reallocated once
/// warm.
#[derive(Debug, Default)]
pub struct StreamScratch {
    core: CoreScratch,
    ring: RingColumns,
}

impl StreamScratch {
    /// Empty scratch; rings grow on first use and are then recycled.
    pub fn new() -> StreamScratch {
        StreamScratch::default()
    }
}

/// The ring's decoded columns and fanout, indexed by `i & mask`.
#[derive(Debug, Default)]
struct RingColumns {
    /// The decode's `len` is unused: the ring's capacity is its columns'
    /// length.
    cols: DecodedTrace,
    fanout: Vec<u32>,
}

impl RingColumns {
    fn capacity(&self) -> usize {
        self.cols.kind.len()
    }

    /// Ensures every ring — these columns and the loop's timestamp tables
    /// `t` — holds at least `cap` slots (power of two), preserving the
    /// live span `[lo, hi)` under the new mask.
    fn ensure_capacity(&mut self, t: &mut CoreScratch, cap: usize, lo: usize, hi: usize) {
        let cap = cap.next_power_of_two();
        if self.capacity() >= cap {
            return;
        }
        let old_mask = self.capacity().wrapping_sub(1);
        let c = &mut self.cols;
        regrow(&mut c.kind, old_mask, cap, lo, hi);
        regrow(&mut c.lat, old_mask, cap, lo, hi);
        regrow(&mut c.flags, old_mask, cap, lo, hi);
        regrow(&mut c.bytes, old_mask, cap, lo, hi);
        regrow(&mut c.deps, old_mask, cap, lo, hi);
        regrow(&mut c.pc, old_mask, cap, lo, hi);
        regrow(&mut c.mem_addr, old_mask, cap, lo, hi);
        regrow(&mut c.target, old_mask, cap, lo, hi);
        regrow(&mut c.br_class, old_mask, cap, lo, hi);
        regrow(&mut self.fanout, old_mask, cap, lo, hi);
        regrow(&mut t.fetched_at, old_mask, cap, lo, hi);
        regrow(&mut t.supply_stall, old_mask, cap, lo, hi);
        regrow(&mut t.blocked_at_fetch, old_mask, cap, lo, hi);
        regrow(&mut t.blocked_at_decode, old_mask, cap, lo, hi);
        regrow(&mut t.decoded_at, old_mask, cap, lo, hi);
        regrow(&mut t.issued_at, old_mask, cap, lo, hi);
        // Completion times are shifted by one: insn `i` sits at `i + 1`.
        regrow(&mut t.done_at, old_mask, cap, lo + 1, hi + 1);
    }

    /// Writes one decoded instruction and its fanout into slot `s`.
    fn set(&mut self, s: usize, d: DecodedInsn, fanout: u32) {
        let c = &mut self.cols;
        c.kind[s] = d.kind;
        c.lat[s] = d.lat;
        c.flags[s] = d.flags;
        c.bytes[s] = d.bytes;
        c.deps[s] = d.deps;
        c.pc[s] = d.pc;
        c.mem_addr[s] = d.mem_addr;
        c.target[s] = d.target;
        c.br_class[s] = d.br_class;
        self.fanout[s] = fanout;
    }
}

/// Copies the live ring span `[lo, hi)` into a freshly-sized ring.
fn regrow<T: Copy + Default>(
    v: &mut Vec<T>,
    old_mask: usize,
    new_cap: usize,
    lo: usize,
    hi: usize,
) {
    let mut next = vec![T::default(); new_cap];
    if !v.is_empty() {
        let new_mask = new_cap - 1;
        for i in lo..hi {
            next[i & new_mask] = v[i & old_mask];
        }
    }
    *v = next;
}

/// Completion-time lookup through the ring for a *shifted* dependence
/// index (`0` = always-done sentinel, insn `i` = `d = i + 1`, stored at
/// ring slot `d & mask`), with the eviction substitution documented in the
/// module header: `d <= evict_floor` covers both the sentinel and every
/// evicted instruction.
#[inline]
fn done_of(done_at: &[u64], mask: usize, evict_floor: usize, d: u32) -> u64 {
    let d = d as usize;
    if d <= evict_floor {
        0
    } else {
        done_at[d & mask]
    }
}

/// The streamed run's [`Window`]: ring slots, the evicting dependence
/// read, and the feed that decodes stream windows ahead of fetch.
struct Streamed<'a, 't> {
    stream: &'a mut TraceStream<'t>,
    ring: &'a mut RingColumns,
    n: usize,
    /// How far ahead of fetch the columns are kept decoded: one fetch
    /// group.
    feed_ahead: usize,
    mask: usize,
    /// Entries decoded into the rings so far (absolute).
    filled: usize,
    /// Ring indices below this are committed and may be overwritten.
    evict_floor: usize,
    stats: StreamRunStats,
}

impl Window for Streamed<'_, '_> {
    #[inline]
    fn columns(&self) -> (&DecodedTrace, &[u32]) {
        (&self.ring.cols, &self.ring.fanout)
    }

    #[inline]
    fn slot(&self, i: usize) -> usize {
        i & self.mask
    }

    #[inline]
    fn dep_done(&self, done_at: &[u64], d: u32) -> u64 {
        done_of(done_at, self.mask, self.evict_floor, d)
    }

    /// Keeps the decode frontier one fetch group ahead of fetch. Most
    /// cycles find it already there, so only that check is inlined into
    /// the loop.
    #[inline]
    fn feed(&mut self, t: &mut CoreScratch, fetch_idx: usize, fq_head: usize) {
        let feed_target = self.n.min(fetch_idx + self.feed_ahead);
        if self.filled < feed_target {
            self.refill(t, fq_head, feed_target);
        }
    }
}

impl Streamed<'_, '_> {
    /// Decodes stream windows until `feed_target` entries are filled. This
    /// is the only point slots are overwritten or the footprint can
    /// change, so the floor advance, the capacity check, and the peak
    /// sample all live here.
    fn refill(&mut self, t: &mut CoreScratch, fq_head: usize, feed_target: usize) {
        let oldest = t.rob.front().unwrap_or(fq_head as u32) as usize;
        self.evict_floor = self.evict_floor.max(oldest);
        while self.filled < feed_target {
            let w = self
                .stream
                .next_window()
                .expect("a stream yields total_len entries");
            let need = self.filled + w.entries.len() - self.evict_floor;
            if need > self.ring.capacity() {
                // Mid-window growth: re-place the live span. (`w` borrows
                // the stream, not the rings, so they are free to move.)
                self.ring
                    .ensure_capacity(t, need, self.evict_floor, self.filled);
                self.mask = self.ring.capacity() - 1;
                self.stats.grows += 1;
                self.stats.ring_capacity = self.ring.capacity();
            }
            for (e, &fanout) in w.entries.iter().zip(w.fanout) {
                self.ring
                    .set(self.filled & self.mask, decode_entry(e), fanout);
                self.filled += 1;
            }
        }
        let resident =
            self.ring.capacity() * BYTES_PER_SLOT + t.queue_bytes() + self.stream.resident_bytes();
        self.stats.peak_resident_bytes = self.stats.peak_resident_bytes.max(resident);
    }
}

impl Simulator {
    /// Runs a [`TraceStream`] to completion with bounded memory, returning
    /// the timing result, the per-cycle ledger, and the run's memory
    /// accounting. Results are bit-identical to decoding the materialized
    /// trace and calling [`Simulator::run_decoded`] (asserted by this
    /// module's differential tests and the repo-level battery).
    ///
    /// The stream supplies both entries and their exact direct fanout, so
    /// no caller-side `compute_fanout` pass (or trace materialization) is
    /// needed. Cone fanout is not consumed here — open sim-bound streams
    /// with [`critic_workloads::StreamConfig::cone_window`] `= None` to
    /// skip that work.
    ///
    /// # Panics
    ///
    /// Panics if the stream has already emitted entries (the run must see
    /// the whole trace).
    pub fn run_streamed(
        &self,
        stream: &mut TraceStream<'_>,
        scratch: &mut StreamScratch,
    ) -> (SimResult, CycleLedger, StreamRunStats) {
        assert_eq!(stream.emitted(), 0, "run_streamed requires a fresh stream");
        let cfg = self.cpu_config();
        let n = stream.total_len();
        let feed_ahead = cfg.fetch_width as usize * 2;
        // Initial ring capacity: the steady-state live span (one stream
        // window ahead of fetch, the fetch buffer, the ROB) plus headroom
        // for the ROB-invisible CDPs interleaved in it. A window larger
        // than the trace contributes at most the trace.
        let initial = stream.window().min(n) + cfg.fetch_buffer + cfg.rob_entries + feed_ahead + 64;
        let StreamScratch { core, ring } = scratch;
        ring.ensure_capacity(core, initial, 0, 0);
        let mut window = Streamed {
            stream,
            n,
            feed_ahead,
            mask: ring.capacity() - 1,
            stats: StreamRunStats {
                ring_capacity: ring.capacity(),
                ..StreamRunStats::default()
            },
            ring,
            filled: 0,
            evict_floor: 0,
        };
        let (result, ledger) = self.run_core(&mut window, core, n);
        (result, ledger, window.stats)
    }
}

#[cfg(test)]
mod tests {
    use critic_isa::{Insn, Opcode, Reg};
    use critic_mem::MemConfig;
    use critic_workloads::{
        ExecutionPath, GenParams, InsnUid, Program, ProgramGenerator, StreamConfig, TaggedInsn,
        Trace, TraceStream,
    };

    use super::*;
    use crate::config::CpuConfig;
    use crate::sim::{DecodedTrace, SimScratch};

    fn workload(seed: u64, len: usize) -> (Program, ExecutionPath) {
        let mut p = GenParams::mobile(seed);
        p.num_functions = 20;
        let program = ProgramGenerator::new(p).generate();
        let path = ExecutionPath::generate(&program, seed ^ 0xBEEF, len);
        (program, path)
    }

    fn materialized(
        sim: &Simulator,
        program: &Program,
        path: &ExecutionPath,
    ) -> (SimResult, CycleLedger) {
        let trace = Trace::expand(program, path);
        let fanout = trace.compute_fanout();
        let mut decoded = DecodedTrace::new();
        decoded.decode_into(&trace);
        let mut scratch = SimScratch::new();
        sim.run_decoded(&decoded, &fanout, &mut scratch)
    }

    fn stream_cfg(window: usize) -> StreamConfig {
        StreamConfig {
            window,
            lookahead: critic_workloads::DEFAULT_LOOKAHEAD,
            cone_window: None,
        }
    }

    #[test]
    fn streamed_run_is_bit_identical_across_window_sizes() {
        let (program, path) = workload(7, 12_000);
        let sim = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet());
        let want = materialized(&sim, &program, &path);
        let mut scratch = StreamScratch::new();
        for window in [1, 63, 4096, usize::MAX / 2] {
            let mut stream = TraceStream::new(&program, &path, stream_cfg(window));
            let (result, ledger, _) = sim.run_streamed(&mut stream, &mut scratch);
            assert_eq!((result, ledger), want, "window={window}");
        }
    }

    #[test]
    fn streamed_run_matches_under_contended_configs() {
        let (program, path) = workload(11, 9_000);
        // Small structures force back-pressure, ring wrap, and CDP stalls;
        // the prioritized + imperfect-branch config exercises the critical
        // table and the branch-blocked fetch path.
        let mut cpu = CpuConfig::google_tablet();
        cpu.rob_entries = 16;
        cpu.iq_entries = 8;
        cpu.fetch_buffer = 6;
        cpu.prioritize_critical = true;
        cpu.cdp_bubble = 2;
        let sim = Simulator::new(cpu, MemConfig::google_tablet());
        let want = materialized(&sim, &program, &path);
        let mut scratch = StreamScratch::new();
        let mut stream = TraceStream::new(&program, &path, stream_cfg(256));
        let (result, ledger, _) = sim.run_streamed(&mut stream, &mut scratch);
        assert_eq!((result, ledger), want);
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        let (program, path) = workload(3, 6_000);
        let sim = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet());
        let mut scratch = StreamScratch::new();
        let mut first = None;
        for _ in 0..3 {
            let mut stream = TraceStream::new(&program, &path, stream_cfg(512));
            let out = sim.run_streamed(&mut stream, &mut scratch);
            match &first {
                None => first = Some(out),
                Some(want) => assert_eq!(&out, want),
            }
        }
    }

    #[test]
    fn cdp_dense_region_grows_the_ring_and_stays_bit_identical() {
        // A chain of dependent divides holds the ROB head for ~200 cycles
        // while a run of format switches — which never enter the ROB —
        // streams through decode behind it, stretching the live span far
        // past the initial ring capacity. The region goes into the path's
        // hottest block, so after its first visit it fetches from a warm
        // i-cache at full bandwidth.
        let (mut program, path) = workload(13, 12_000);
        let mut visits = std::collections::BTreeMap::new();
        for block in &path.blocks {
            *visits.entry(block.index()).or_insert(0) += 1;
        }
        let (&hot, _) = visits.iter().max_by_key(|(_, &count)| count).unwrap();
        let div = Insn::alu(Opcode::Sdiv, Reg::R1, &[Reg::R1, Reg::R2]);
        let region: Vec<TaggedInsn> = std::iter::repeat_n(div, 16)
            .chain(std::iter::repeat_n(Insn::cdp(1), 512))
            .enumerate()
            .map(|(k, insn)| TaggedInsn::new(insn, InsnUid(1_000_000 + k as u32)))
            .collect();
        program.blocks[hot].insns.splice(0..0, region);
        let mut cpu = CpuConfig::google_tablet();
        cpu.rob_entries = 16;
        let sim = Simulator::new(cpu, MemConfig::google_tablet());
        let want = materialized(&sim, &program, &path);
        let mut scratch = StreamScratch::new();
        let mut stream = TraceStream::new(&program, &path, stream_cfg(1));
        let (result, ledger, stats) = sim.run_streamed(&mut stream, &mut scratch);
        assert!(
            stats.grows > 0,
            "the CDP run must outgrow the ring: {stats:?}"
        );
        assert!(stats.ring_capacity.is_power_of_two());
        assert_eq!((result, ledger), want);
    }

    #[test]
    fn peak_memory_is_bounded_by_window_not_trace() {
        let (program, path) = workload(5, 60_000);
        let sim = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet());
        let mut scratch = StreamScratch::new();
        let mut stream = TraceStream::new(&program, &path, stream_cfg(1024));
        let (result, _, stats) = sim.run_streamed(&mut stream, &mut scratch);
        assert!(result.cycles > 0);
        // The materialized path keeps the whole trace + decode + fanout +
        // timestamp tables resident: ≥ 100 bytes per dynamic instruction.
        let materialized_floor = 60_000 * 100;
        assert!(
            stats.peak_resident_bytes * 4 < materialized_floor,
            "peak {} not O(window) vs materialized floor {}",
            stats.peak_resident_bytes,
            materialized_floor
        );
    }
}
