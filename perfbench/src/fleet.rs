//! `fleet_mix`: the deployed path. `critic router` with 2 shards × 1
//! worker, `--validate`, a journal per shard and a disk-warm persistent
//! store, driven by the benchmark's own single-connection client.
//!
//! Phases, all on one connection from one process:
//! 1. *populate* (untimed): a first fleet serves every (app, scheme) of
//!    the mix once, so the store directories hold every profile and
//!    baseline; the fleet then drains.
//! 2. *set-up* (`setup_s`, three times): a fresh fleet boots over the
//!    same directories; set-up ends when every shard reports up in
//!    `router_stats` and every (app, scheme) has been served disk-warm.
//! 3. *light* (open loop): [`LIGHT_ROUNDS`] seeded permutations of every
//!    (app, scheme), sent at seeded exponential inter-arrivals at
//!    [`LIGHT_RATE`]; each request is timed from when it was due.
//! 4. *saturation* (closed loop): [`IN_FLIGHT`] requests outstanding for
//!    [`SATURATION_SHARE`] of `--seconds`.
//!
//! Admission (token bucket, client window, queue cap), the breaker and
//! the degradation watermarks are all switched off, so nothing is refused
//! or degraded at this load; anything refused or degraded counts as
//! failed.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use critic_bench::router::{fetch_router_stats, RouterStats};
use critic_bench::serve::{parse_reply, Reply, SubmitBody, SubmitRequest};
use critic_core::campaign::{default_schemes, CellMetrics, CellRecord, CellStatus};
use critic_core::design::DesignPoint;
use critic_core::journal::Journal;
use critic_core::runner::Workbench;
use critic_core::store::ArtifactStore;
use critic_obs::Telemetry;
use critic_workloads::{AppSpec, Suite};

use crate::batch::RunArgs;
use crate::common::{median, tail, vm_hwm_mb, Report, Rng};

/// Shards behind the router.
pub const SHARDS: u32 = 2;
/// Dynamic instructions per fleet cell.
pub const TRACE_LEN: usize = 20_000;
/// Light-phase arrival rate, cells per second: about a quarter of the
/// fleet's flat-out throughput (~40 cells/s) on a 2-core host.
pub const LIGHT_RATE: f64 = 10.0;
/// Light-phase rounds: each round sends every (app, scheme) once, so
/// every run's mix has the same composition and the seed varies only
/// the order and the arrival times.
pub const LIGHT_ROUNDS: usize = 4;
/// Share of `--seconds` given to the saturation phase.
pub const SATURATION_SHARE: f64 = 0.3;
/// Requests outstanding in the saturation phase: 2× the fleet's workers.
pub const IN_FLIGHT: usize = 4;
/// Light-phase latency limit; a slower ack counts as failed.
pub const LATENCY_LIMIT_MS: f64 = 1_000.0;
/// Largest tolerated generator lag: a light phase whose generator sent
/// any request later than this after its due time is invalid (its
/// latencies would describe the generator, not the fleet).
pub const MAX_LAG_MS: f64 = 50.0;
/// Fleet boots per run whose median is `setup_s`.
pub const SETUPS: usize = 3;

/// One (app, scheme) submission.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    pub app: String,
    pub scheme: String,
}

/// Every (app, scheme) of the mix: the 10 Mobile apps × the 7 named
/// software schemes.
pub fn all_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for app in Suite::Mobile.apps() {
        for scheme in default_schemes() {
            cells.push(Cell {
                app: app.name.clone(),
                scheme: scheme.name.clone(),
            });
        }
    }
    cells
}

/// The seeded light-phase mix: `rounds` seeded permutations of
/// [`all_cells`], each cell with its due time (seconds from phase start).
pub fn light_mix(seed: u64, rounds: usize) -> Vec<(f64, Cell)> {
    let mut rng = Rng::new(seed);
    let mut due = 0.0;
    let mut mix = Vec::new();
    for _ in 0..rounds {
        let mut cells = all_cells();
        rng.shuffle(&mut cells);
        for cell in cells {
            due += rng.exp_secs(LIGHT_RATE);
            mix.push((due, cell));
        }
    }
    mix
}

/// The seeded saturation-phase order (cycled as long as the phase runs).
pub fn saturation_mix(seed: u64) -> Vec<Cell> {
    let mut cells = all_cells();
    Rng::new(seed ^ 0x5A7).shuffle(&mut cells);
    cells
}

/// The light-phase mix of a run: [`LIGHT_ROUNDS`] rounds, or a few
/// requests for a smoke run.
pub fn run_mix(seed: u64, smoke: bool) -> Vec<(f64, Cell)> {
    let mut mix = light_mix(seed, if smoke { 1 } else { LIGHT_ROUNDS });
    if smoke {
        mix.truncate(12);
    }
    mix
}

/// A running `critic router` fleet.
pub struct Fleet {
    router: Child,
    /// Drains the router's stdout so it never blocks on a full pipe;
    /// ends when the router exits.
    drain: Option<thread::JoinHandle<()>>,
    pub addr: String,
    pub stats: RouterStats,
}

impl Fleet {
    /// Boots a fleet over `dirs` and waits until every shard reports up.
    pub fn spawn(critic: &Path, dirs: &Path, trace_len: usize) -> Result<Fleet, String> {
        let log = File::create(dirs.join("fleet.log"))
            .map_err(|e| format!("cannot create fleet log: {e}"))?;
        let mut router = Command::new(critic)
            .arg("router")
            .args([
                "--port",
                "0",
                "--shards",
                &SHARDS.to_string(),
                "--workers",
                "1",
            ])
            .args(["--trace-len", &trace_len.to_string(), "--validate"])
            .args([
                "--rate",
                "0",
                "--queue",
                "0",
                "--window",
                "0",
                "--breaker",
                "0",
            ])
            .args(["--watermarks", "0,0,0"])
            .arg("--journal-dir")
            .arg(dirs.join("journals"))
            .arg("--store-dir")
            .arg(dirs.join("store"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", critic.display()))?;
        let stdout = router.stdout.take().ok_or("router stdout not piped")?;
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.trim().strip_prefix("listening on ") {
                        break Some(addr.to_string());
                    }
                }
                _ => break None,
            }
        };
        let drain = thread::spawn(move || lines.for_each(drop));
        let mut fleet = Fleet {
            router,
            drain: Some(drain),
            addr: addr.unwrap_or_default(),
            stats: RouterStats::default(),
        };
        if fleet.addr.is_empty() {
            return Err("router exited before its banner; see fleet.log".to_string());
        }
        // The banner prints before the router has confirmed its shards:
        // set-up is over only when router_stats shows every shard up.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(stats) = fetch_router_stats(&fleet.addr) {
                if stats.shards.len() == SHARDS as usize && stats.shards.iter().all(|s| s.up) {
                    fleet.stats = stats;
                    return Ok(fleet);
                }
            }
            if Instant::now() > deadline {
                return Err("shards did not come up within 60 s".to_string());
            }
            thread::sleep(Duration::from_millis(5));
        }
    }

    /// Peak RSS over the router and every shard, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let mut pids = vec![self.router.id()];
        pids.extend(self.stats.shards.iter().filter_map(|s| s.pid));
        pids.iter()
            .filter_map(|pid| vm_hwm_mb(&pid.to_string()))
            .fold(0.0, f64::max)
    }

    /// Drains the fleet through the wire `shutdown` verb and reaps it.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut stream) = TcpStream::connect(&self.addr) {
            let _ = stream.write_all(b"{\"shutdown\":true}\n");
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.router.try_wait() {
                if let Some(drain) = self.drain.take() {
                    let _ = drain.join();
                }
                return Ok(());
            }
            thread::sleep(Duration::from_millis(10));
        }
        Err("router did not drain within 60 s".to_string())
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Ok(None) = self.router.try_wait() {
            for pid in self.stats.shards.iter().filter_map(|s| s.pid) {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
            let _ = self.router.kill();
            let _ = self.router.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One answered submission.
#[derive(Debug, Clone)]
pub struct Answer {
    pub cell: Cell,
    /// Seconds from phase start when the request was due, sent, answered.
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    /// The terminal record; `None` when refused or unanswered.
    pub record: Option<CellRecord>,
    pub refusal: Option<String>,
}

impl Answer {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// Ok, undegraded and answered.
    pub fn ok(&self) -> bool {
        matches!(&self.record, Some(r) if r.status == CellStatus::Ok && r.degraded.is_none() && r.metrics.is_some())
    }
}

pub fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    // The generator must not add Nagle delay of its own.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((stream, reader))
}

pub fn submit_line(id: u64, cell: &Cell) -> String {
    let request = SubmitRequest {
        submit: SubmitBody {
            id,
            app: cell.app.clone(),
            scheme: cell.scheme.clone(),
            deadline_ms: None,
        },
    };
    let mut line = serde_json::to_string(&request).expect("submit requests always encode");
    line.push('\n');
    line
}

/// Reads replies until `want` ids are terminal; returns
/// `id -> (seconds since start, record or refusal)`.
pub fn read_terminal(
    reader: &mut BufReader<TcpStream>,
    start: Instant,
    want: usize,
) -> BTreeMap<u64, (f64, Result<CellRecord, String>)> {
    let mut out = BTreeMap::new();
    let mut line = String::new();
    while out.len() < want {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let at = start.elapsed().as_secs_f64();
        match parse_reply(&line) {
            Some(Reply::Done(done)) => {
                out.insert(done.id, (at, Ok(done.record)));
            }
            Some(Reply::Rejected(r)) => {
                out.insert(r.id, (at, Err(r.reason)));
            }
            _ => {}
        }
    }
    out
}

/// The open-loop light phase: one connection, the main thread sends on
/// schedule, one reader thread collects replies.
pub fn light_phase(addr: &str, mix: &[(f64, Cell)]) -> Result<Vec<Answer>, String> {
    let (mut writer, mut reader) = connect(addr)?;
    let start = Instant::now();
    let n = mix.len();
    let collector = thread::spawn(move || read_terminal(&mut reader, start, n));
    let mut sent = Vec::with_capacity(n);
    for (id, (due, cell)) in mix.iter().enumerate() {
        let wait = *due - start.elapsed().as_secs_f64();
        if wait > 0.0 {
            thread::sleep(Duration::from_secs_f64(wait));
        }
        sent.push(start.elapsed().as_secs_f64());
        writer
            .write_all(submit_line(id as u64, cell).as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
    }
    let replies = collector.join().map_err(|_| "reply reader panicked")?;
    Ok(answers(mix, &sent, replies))
}

fn answers(
    mix: &[(f64, Cell)],
    sent: &[f64],
    mut replies: BTreeMap<u64, (f64, Result<CellRecord, String>)>,
) -> Vec<Answer> {
    mix.iter()
        .enumerate()
        .map(|(id, (due, cell))| {
            let (done, result) = replies
                .remove(&(id as u64))
                .unwrap_or((f64::INFINITY, Err("unanswered".to_string())));
            let (record, refusal) = match result {
                Ok(record) => (Some(record), None),
                Err(reason) => (None, Some(reason)),
            };
            Answer {
                cell: cell.clone(),
                due: *due,
                sent: sent.get(id).copied().unwrap_or(*due),
                done,
                record,
                refusal,
            }
        })
        .collect()
}

/// Closed loop on one connection with `in_flight` requests outstanding,
/// cycling through `order` until `seconds` pass (or, when `seconds` is
/// `None`, until `order` is used up once). One thread.
pub fn closed_loop(
    addr: &str,
    order: &[Cell],
    in_flight: usize,
    seconds: Option<f64>,
) -> Result<(Vec<Answer>, f64), String> {
    let (mut writer, mut reader) = connect(addr)?;
    let start = Instant::now();
    let mut cells: Vec<(f64, Cell)> = Vec::new();
    let mut sent: Vec<f64> = Vec::new();
    let mut replies = BTreeMap::new();
    let mut outstanding = 0usize;
    let mut last_done = 0.0f64;
    let more = |issued: usize, now: f64| match seconds {
        Some(limit) => now < limit,
        None => issued < order.len(),
    };
    loop {
        while outstanding < in_flight && more(cells.len(), start.elapsed().as_secs_f64()) {
            let id = cells.len();
            let now = start.elapsed().as_secs_f64();
            let cell = order[id % order.len()].clone();
            writer
                .write_all(submit_line(id as u64, &cell).as_bytes())
                .map_err(|e| format!("send failed: {e}"))?;
            cells.push((now, cell));
            sent.push(now);
            outstanding += 1;
        }
        if outstanding == 0 {
            break;
        }
        let got = read_terminal(&mut reader, start, 1);
        if got.is_empty() {
            break;
        }
        for (id, reply) in got {
            outstanding -= 1;
            last_done = last_done.max(reply.0);
            replies.insert(id, reply);
        }
    }
    Ok((answers(&cells, &sent, replies), last_done))
}

/// The in-process oracle: one `Workbench` run per distinct (app, scheme)
/// through the same store-backed, validated cell path a shard runs.
pub fn expected_metrics(
    cells: impl IntoIterator<Item = Cell>,
    trace_len: usize,
) -> Result<HashMap<Cell, CellMetrics>, String> {
    let store = std::sync::Arc::new(ArtifactStore::new());
    let apps: Vec<AppSpec> = Suite::Mobile.apps();
    let mut out = HashMap::new();
    for cell in cells {
        if out.contains_key(&cell) {
            continue;
        }
        let app = apps
            .iter()
            .find(|a| a.name == cell.app)
            .ok_or("unknown app")?;
        let point = DesignPoint::named(&cell.scheme).ok_or("unknown scheme")?;
        let world = store.world(app, trace_len).map_err(|e| e.to_string())?;
        let mut bench = Workbench::from_world(app, world, std::sync::Arc::clone(&store));
        let base = bench
            .try_run(&DesignPoint::baseline())
            .map_err(|e| e.to_string())?;
        let (outcome, _) = bench
            .try_run_validated(&point, app.path_seed())
            .map_err(|e| e.to_string())?;
        let metrics = CellMetrics {
            speedup: outcome.sim.speedup_over(&base.sim),
            cpu_energy_saving: outcome.energy.cpu_saving(&base.energy),
            thumb_dyn_frac: outcome.thumb_dyn_frac,
            dyn_insns: outcome.dyn_insns,
        };
        out.insert(cell, metrics);
    }
    Ok(out)
}

fn shard_journal(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard-{shard}.jsonl"))
}

/// Every shard journal's length in bytes: the mark past which the timed
/// phases append. Journals are single unrolled files, so appends only
/// ever grow them.
pub fn journal_marks(dir: &Path) -> Vec<u64> {
    (0..SHARDS)
        .map(|shard| std::fs::metadata(shard_journal(dir, shard)).map_or(0, |m| m.len()))
        .collect()
}

/// The Ok cell records appended to the shard journals past `marks`, per
/// cell, one entry per journal line. Each journal must first replay
/// cleanly through `Journal::replay` (no torn tail, no corrupt line), so
/// every line counted here passed its checksum.
pub fn journaled_since(
    dir: &Path,
    marks: &[u64],
) -> Result<HashMap<Cell, Vec<CellMetrics>>, String> {
    let mut out: HashMap<Cell, Vec<CellMetrics>> = HashMap::new();
    for (shard, &mark) in (0..SHARDS).zip(marks) {
        let path = shard_journal(dir, shard);
        let replayed = Journal::replay(&path, &Telemetry::off())
            .map_err(|e| format!("cannot replay {}: {e}", path.display()))?;
        if replayed.torn_tail || replayed.skipped_lines > 0 {
            return Err(format!(
                "{} does not replay cleanly (torn tail {}, {} bad lines)",
                path.display(),
                replayed.torn_tail,
                replayed.skipped_lines
            ));
        }
        let bytes =
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let tail = bytes
            .get(mark as usize..)
            .ok_or_else(|| format!("{} shrank below its mark", path.display()))?;
        // Checkpoint and trailer lines lack the cell-record keys, so they
        // do not parse as cell records.
        for line in String::from_utf8_lossy(tail).lines() {
            let Ok(record) = serde_json::from_str::<CellRecord>(line) else {
                continue;
            };
            if let (CellStatus::Ok, Some(metrics)) = (&record.status, record.metrics) {
                out.entry(Cell {
                    app: record.app,
                    scheme: record.scheme,
                })
                .or_default()
                .push(metrics);
            }
        }
    }
    Ok(out)
}

/// The acks with no journal line of their own: each journaled record
/// backs at most one ack of its cell with equal metrics.
pub fn unjournaled<'a>(
    acked: &[&'a Answer],
    mut journaled: HashMap<Cell, Vec<CellMetrics>>,
) -> Vec<&'a Answer> {
    let mut missing = Vec::new();
    for &answer in acked {
        let got = answer.record.as_ref().and_then(|r| r.metrics.as_ref());
        let logged = journaled.get_mut(&answer.cell).and_then(|lines| {
            let at = lines.iter().position(|m| Some(m) == got)?;
            Some(lines.swap_remove(at))
        });
        if logged.is_none() {
            missing.push(answer);
        }
    }
    missing
}

/// Checks every acked answer against the in-process oracle and against
/// the records the shard journals gained past `marks`. Returns the number
/// of failures.
pub fn check_answers(
    answers: &[&Answer],
    journal_dir: &Path,
    marks: &[u64],
    trace_len: usize,
    report: &mut Report,
) -> u64 {
    let acked: Vec<&Answer> = answers.iter().copied().filter(|a| a.ok()).collect();
    let expected = match expected_metrics(acked.iter().map(|a| a.cell.clone()), trace_len) {
        Ok(e) => e,
        Err(e) => {
            report.note(format!("in-process oracle failed: {e}"));
            return 1;
        }
    };
    let journaled = match journaled_since(journal_dir, marks) {
        Ok(j) => j,
        Err(e) => {
            report.note(e);
            return 1;
        }
    };
    let lines: usize = journaled.values().map(Vec::len).sum();
    let mut failed = 0;
    for answer in &acked {
        let got = answer.record.as_ref().and_then(|r| r.metrics.as_ref());
        if got != expected.get(&answer.cell) {
            report.note(format!(
                "{}:{} differs from the in-process run",
                answer.cell.app, answer.cell.scheme
            ));
            failed += 1;
        }
    }
    let missing = unjournaled(&acked, journaled);
    for answer in missing.iter().take(5) {
        report.note(format!(
            "{}:{} acked but not journaled",
            answer.cell.app, answer.cell.scheme
        ));
    }
    failed += missing.len() as u64;
    report.note(format!(
        "oracle: {} distinct cells checked in-process; {} acks against {lines} Ok journal lines appended since set-up, {} acks unjournaled",
        expected.len(),
        acked.len(),
        missing.len()
    ));
    failed
}

/// A booted, disk-warm fleet plus the set-up times it took.
pub struct Prepared {
    pub fleet: Fleet,
    pub dirs: PathBuf,
    pub setups: Vec<f64>,
    pub trace_len: usize,
    /// Shard journal lengths once set-up is over (see [`journal_marks`]).
    pub marks: Vec<u64>,
}

/// Populates the store with one fleet, then boots [`SETUPS`] fresh
/// fleets over the same directories, timing each until it has served
/// every cell disk-warm. The last fleet stays up.
pub fn prepare(args: &RunArgs) -> Result<Prepared, String> {
    let critic = args
        .critic
        .clone()
        .ok_or("fleet_mix needs --critic PATH (the `critic` binary)")?;
    let dirs = args.work.join("fleet");
    let _ = std::fs::remove_dir_all(&dirs);
    std::fs::create_dir_all(&dirs).map_err(|e| format!("cannot create {}: {e}", dirs.display()))?;
    let trace_len = if args.smoke { 4_000 } else { TRACE_LEN };
    let every = all_cells();
    let warm = |fleet: &Fleet| -> Result<(), String> {
        let (answers, _) = closed_loop(&fleet.addr, &every, IN_FLIGHT, None)?;
        match answers.iter().find(|a| !a.ok()) {
            Some(bad) => Err(format!(
                "warm-up cell {}:{} failed: {:?}",
                bad.cell.app, bad.cell.scheme, bad.refusal
            )),
            None => Ok(()),
        }
    };
    let populate = Fleet::spawn(&critic, &dirs, trace_len)?;
    warm(&populate)?;
    populate.shutdown()?;
    let mut setups = Vec::new();
    loop {
        let started = Instant::now();
        let fleet = Fleet::spawn(&critic, &dirs, trace_len)?;
        warm(&fleet)?;
        setups.push(started.elapsed().as_secs_f64());
        if setups.len() == SETUPS {
            let marks = journal_marks(&dirs.join("journals"));
            return Ok(Prepared {
                fleet,
                dirs,
                setups,
                trace_len,
                marks,
            });
        }
        fleet.shutdown()?;
    }
}

/// The untraced run: set-up, light phase, saturation phase, oracle.
pub fn run_untraced(args: &RunArgs) -> Result<Report, String> {
    let prepared = prepare(args)?;
    let light = light_phase(&prepared.fleet.addr, &run_mix(args.seed, args.smoke))?;
    let saturation_secs = if args.smoke {
        1.0
    } else {
        args.seconds * SATURATION_SHARE
    };
    let (saturated, last_done) = closed_loop(
        &prepared.fleet.addr,
        &saturation_mix(args.seed),
        IN_FLIGHT,
        Some(saturation_secs),
    )?;
    let peak_rss = prepared.fleet.peak_rss_mb();
    prepared.fleet.shutdown()?;

    let mut report = Report::default();
    let mut failed = 0u64;
    let mut acks = Vec::new();
    let mut lags = Vec::new();
    for a in &light {
        lags.push((a.sent - a.due) * 1e3);
        if !a.ok() || a.latency_ms() > LATENCY_LIMIT_MS {
            failed += 1;
        }
        if a.ok() {
            acks.push(a.latency_ms());
        }
    }
    let max_lag = lags.iter().copied().fold(0.0, f64::max);
    if max_lag > MAX_LAG_MS {
        report.note(format!(
            "generator lag {max_lag:.1} ms exceeds {MAX_LAG_MS} ms: run invalid"
        ));
        failed += 1;
    }
    failed += saturated.iter().filter(|a| !a.ok()).count() as u64;
    let light_cells: crate::common::CellResults = light
        .iter()
        .filter_map(|a| {
            Some((
                a.cell.app.clone(),
                a.cell.scheme.clone(),
                a.record.as_ref()?.metrics.clone()?,
            ))
        })
        .collect();
    report.note(format!(
        "light-phase result digest {:016x}",
        crate::common::digest(&light_cells)
    ));
    let all: Vec<&Answer> = light.iter().chain(&saturated).collect();
    failed += check_answers(
        &all,
        &prepared.dirs.join("journals"),
        &prepared.marks,
        prepared.trace_len,
        &mut report,
    );
    report.attempted = all.len() as u64;
    report.failed = failed;
    report.correct = failed == 0;

    let done = saturated.iter().filter(|a| a.ok()).count() as f64;
    let insns: f64 = saturated
        .iter()
        .filter_map(|a| a.record.as_ref()?.metrics.as_ref())
        .map(|m| m.dyn_insns as f64)
        .sum();
    let (pct, tail_ms) = tail(&acks);
    report.note(format!(
        "light phase: {} requests at {LIGHT_RATE}/s, ack_tail_ms is p{pct} of {} acks, generator lag p50 {:.3} ms max {:.3} ms",
        light.len(),
        acks.len(),
        median(&lags),
        max_lag
    ));
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.1}", crate::common::quantile(&acks, d as f64 / 10.0)))
        .collect();
    report.note(format!(
        "light-phase ack deciles (ms): {}",
        deciles.join(" ")
    ));
    report.note(format!(
        "saturation: {done} cells in {last_done:.3} s with {IN_FLIGHT} in flight; set-ups {:?} s",
        prepared.setups
    ));
    report.push("setup_s", median(&prepared.setups), "s");
    report.push("cells_per_s", done / last_done.max(1e-9), "cells/s");
    report.push(
        "sim_minsts_per_s",
        insns / last_done.max(1e-9) / 1e6,
        "Minsts/s",
    );
    report.push("ack_p50_ms", median(&acks), "ms");
    report.push("ack_tail_ms", tail_ms, "ms");
    report.push("peak_rss_mb", peak_rss, "MB");
    report.push(
        "ok_frac",
        1.0 - failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cell: &Cell, speedup: f64) -> CellRecord {
        CellRecord {
            app: cell.app.clone(),
            scheme: cell.scheme.clone(),
            status: CellStatus::Ok,
            attempts: 1,
            millis: 1,
            fault: None,
            metrics: Some(CellMetrics {
                speedup,
                cpu_energy_saving: 0.0,
                thumb_dyn_frac: 0.0,
                dyn_insns: 1,
            }),
            error: None,
            validation: None,
            spans: None,
            degraded: None,
            run: None,
        }
    }

    fn ack(record: &CellRecord) -> Answer {
        Answer {
            cell: Cell {
                app: record.app.clone(),
                scheme: record.scheme.clone(),
            },
            due: 0.0,
            sent: 0.0,
            done: 0.0,
            record: Some(record.clone()),
            refusal: None,
        }
    }

    /// A cell journaled during set-up does not cover a later ack of the
    /// same cell whose own append was skipped.
    #[test]
    fn only_appends_past_the_mark_back_acks() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_work/unit-journal-oracle");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir");
        let cell = all_cells().remove(0);
        let open = |shard| Journal::open(&shard_journal(&dir, shard), 0, Telemetry::off());
        let (journal, _) = open(0).expect("journal opens");
        let _idle_shard = open(1).expect("journal opens");
        journal.append_cell(&record(&cell, 1.5), None);
        let marks = journal_marks(&dir);
        journal.append_cell(&record(&cell, 1.5), None);
        journal.checkpoint();

        let one = ack(&record(&cell, 1.5));
        let two = ack(&record(&cell, 1.5));
        let journaled = || journaled_since(&dir, &marks).expect("journals replay");
        assert!(unjournaled(&[&one], journaled()).is_empty());
        // Two acks, one append past the mark: the second append was lost.
        assert_eq!(unjournaled(&[&one, &two], journaled()).len(), 1);
        // An ack whose metrics no journal line carries is not covered.
        let other = ack(&record(&cell, 2.0));
        assert_eq!(unjournaled(&[&other], journaled()).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
