//! The traced runs (`--trace 1`): each workload's seeded inputs replayed
//! through the layers' public functions under spans ([`crate::replay`]),
//! next to an untraced run of the same inputs in the same process. The
//! replay must reproduce the untraced result digest and store counts;
//! the per-layer metrics come from its spans and counters.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use critic_core::campaign::{run_campaign_with_store, CellMetrics, CellRecord};
use critic_core::design::DesignPoint;
use critic_core::disk::DiskStore;
use critic_core::journal::Journal;
use critic_core::ring::{placement_key, HashRing, DEFAULT_VNODES};
use critic_core::service::{CampaignService, ServiceConfig, SubmitOutcome};
use critic_obs::Telemetry;
use critic_workloads::{AppSpec, Suite};

use crate::batch::{
    grid_inputs, records_digest, split_records, stream_inputs, BatchInputs, RunArgs,
};
use crate::common::{digest, median, CellResults, Report};
use crate::fleet::{self, Cell};
use crate::replay::{journal_cell, metrics, Bench, ColdStore, LiveStore};
use crate::spans::Tracer;

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
/// Layers a workload does not exercise report 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("workloads.world_ms", "ms"),
    ("workloads.cone_ms", "ms"),
    ("workloads.expand_ms", "ms"),
    ("workloads.stream_ms", "ms"),
    ("workloads.insns", "count"),
    ("profiler.profile_ms", "ms"),
    ("profiler.profiles", "count"),
    ("compiler.passes_ms", "ms"),
    ("compiler.validate_ms", "ms"),
    ("compiler.chains_checked", "count"),
    ("compiler.chains_demoted", "count"),
    ("pipeline.decode_ms", "ms"),
    ("pipeline.sim_ms", "ms"),
    ("pipeline.stream_sim_ms", "ms"),
    ("pipeline.ns_per_sim_insn", "ns"),
    ("pipeline.prefix_share", "ratio"),
    ("pipeline.stream_peak_bytes", "bytes"),
    ("pipeline.sim_cycles", "count"),
    ("pipeline.committed", "count"),
    ("pipeline.fetch_stall_cycles", "count"),
    ("mem.icache_misses", "count"),
    ("mem.dcache_misses", "count"),
    ("mem.l2_misses", "count"),
    ("energy.eval_ms", "ms"),
    ("store.lookup_ms", "ms"),
    ("store.builds", "count"),
    ("store.hit_rate", "ratio"),
    ("disk.save_ms", "ms"),
    ("disk.saves", "count"),
    ("disk.load_ms", "ms"),
    ("disk.hits", "count"),
    ("journal.append_ms", "ms"),
    ("journal.appends", "count"),
    ("service.admit_us", "us"),
    ("service.request_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.rejected", "count"),
    ("service.degraded", "count"),
    ("wire.shard_ms", "ms"),
    ("router.hop_ms", "ms"),
    ("loadgen.lag_ms", "ms"),
    ("loadgen.acks", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// Span names whose self time becomes a `<name>_ms` metric.
const TIMED_LAYERS: &[&str] = &[
    "workloads.world",
    "workloads.cone",
    "workloads.expand",
    "workloads.stream",
    "profiler.profile",
    "compiler.passes",
    "compiler.validate",
    "pipeline.decode",
    "pipeline.sim",
    "pipeline.stream_sim",
    "energy.eval",
    "store.lookup",
    "disk.save",
    "disk.load",
    "journal.append",
];

/// Counters that are reported as they were counted.
const COUNTED: &[&str] = &[
    "workloads.insns",
    "profiler.profiles",
    "compiler.chains_checked",
    "compiler.chains_demoted",
    "pipeline.stream_peak_bytes",
    "pipeline.sim_cycles",
    "pipeline.committed",
    "pipeline.fetch_stall_cycles",
    "mem.icache_misses",
    "mem.dcache_misses",
    "mem.l2_misses",
    "disk.saves",
    "disk.hits",
    "journal.appends",
];

type Values = BTreeMap<&'static str, f64>;

/// Folds a tracer's spans and counters into per-layer values.
fn layer_values(t: &Tracer, values: &mut Values) {
    let selfs = t.self_nanos();
    for name in TIMED_LAYERS {
        let metric = LAYER_METRICS
            .iter()
            .find(|(m, _)| m.strip_suffix("_ms") == Some(name))
            .map(|(m, _)| *m)
            .expect("every timed layer has a metric");
        values.insert(metric, selfs.get(name).copied().unwrap_or(0) as f64 / 1e6);
    }
    for name in COUNTED {
        let metric = LAYER_METRICS
            .iter()
            .find(|(m, _)| m == name)
            .map(|(m, _)| *m)
            .expect("every counter has a metric");
        values.insert(metric, t.counter(name));
    }
    // The streamed loop drains its own `TraceStream`; its expansion cost
    // is estimated by the separate drain (`workloads.stream`) and taken
    // out, so the two metrics do not count it twice.
    let stream_sim = selfs
        .get("pipeline.stream_sim")
        .copied()
        .unwrap_or(0)
        .saturating_sub(selfs.get("workloads.stream").copied().unwrap_or(0));
    values.insert("pipeline.stream_sim_ms", stream_sim as f64 / 1e6);
    let sim_nanos = selfs.get("pipeline.sim").copied().unwrap_or(0) + stream_sim;
    let insns = t.counter("pipeline.sim_insns");
    if insns > 0.0 {
        values.insert("pipeline.ns_per_sim_insn", sim_nanos as f64 / insns);
    }
    let variant = t.counter("pipeline.variant_insns");
    if variant > 0.0 {
        values.insert(
            "pipeline.prefix_share",
            t.counter("pipeline.prefix_insns") / variant,
        );
    }
}

/// Exact counts a rerun of the same seed must reproduce.
fn exact_counts(values: &Values) -> Vec<(&'static str, f64)> {
    COUNTED
        .iter()
        .chain(&["store.builds", "store.hit_rate"])
        .filter(|n| **n != "pipeline.stream_peak_bytes" || values.contains_key(*n))
        .map(|n| (*n, values.get(n).copied().unwrap_or(0.0)))
        .collect()
}

fn finish(report: &mut Report, values: &Values) {
    report.note(format!(
        "exact counts: {}",
        exact_counts(values)
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    for (name, unit) in LAYER_METRICS {
        report.push(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    match args.workload.as_str() {
        "grid_cold" => batch(args, grid_inputs(args.seed, 0, args.smoke)),
        "stream_long" => batch(args, stream_inputs(args.seed, 0, args.smoke)),
        "fleet_mix" => fleet_traced(args),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// One traced replay of a batch campaign (single-threaded, as the
/// campaign runs with one worker), with its own disk store and journal
/// when the workload is durable.
fn replay_batch(
    inputs: &BatchInputs,
    dir: &Path,
) -> Result<(Tracer, ColdStore, CellResults, f64), String> {
    let (disk, journal) = if inputs.durable {
        let disk = DiskStore::open(&dir.join("store"), None).map_err(|e| e.to_string())?;
        let (journal, _) = Journal::open(&dir.join("journal.jsonl"), 0, Telemetry::off())
            .map_err(|e| e.to_string())?;
        (Some(disk), Some(journal))
    } else {
        (None, None)
    };
    let mut t = Tracer::new();
    let mut store = ColdStore::new(disk);
    let mut cells = Vec::new();
    let start = t.clock();
    for app in &inputs.apps {
        let mut bench = Bench::new(
            &mut t,
            &mut store,
            app,
            inputs.trace_len,
            inputs.stream_window,
        )?;
        for scheme in &inputs.schemes {
            t.request += 1;
            let base = bench.run(&mut t, &mut store, &DesignPoint::baseline())?;
            let outcome = bench.run(&mut t, &mut store, &scheme.point)?;
            let m = metrics(&outcome, &base);
            if let Some(journal) = &journal {
                journal_cell(&mut t, journal, &app.name, &scheme.name, &m, None);
            }
            cells.push((app.name.clone(), scheme.name.clone(), m));
        }
    }
    let end = t.clock();
    let unattributed = t.uncovered_nanos(start, end) as f64 / (end - start).max(1) as f64;
    Ok((t, store, cells, unattributed))
}

/// `grid_cold` and `stream_long`: pairs of (untraced one-worker
/// campaign, traced replay) until `seconds` have passed.
fn batch(args: &RunArgs, inputs: BatchInputs) -> Result<Report, String> {
    let base = args.work.join(format!("traced-{}", args.workload));
    let mut report = Report::default();
    let mut failed = 0u64;
    let mut overheads = Vec::new();
    let mut unattributed = Vec::new();
    let mut first: Option<Values> = None;
    let started = Instant::now();
    while first.is_none() || started.elapsed().as_secs_f64() < args.seconds {
        let pair = overheads.len();
        let ref_dir = base.join(format!("untraced-{pair}"));
        fresh_dir(&ref_dir)?;
        let spec = inputs.spec(1, Some(&ref_dir));
        let store = inputs.open_store(&spec)?;
        let t0 = Instant::now();
        let summary = run_campaign_with_store(&spec, &store).map_err(|e| e.to_string())?;
        let untraced_wall = t0.elapsed().as_secs_f64();
        let real = store.stats();
        let (_, bad) = split_records(&summary.records);
        failed += bad.len() as u64;
        let want = records_digest(&summary.records);
        drop(store);
        let _ = std::fs::remove_dir_all(&ref_dir);

        let rep_dir = base.join(format!("traced-{pair}"));
        fresh_dir(&rep_dir)?;
        let t0 = Instant::now();
        let (t, cold, cells, uncovered) = replay_batch(&inputs, &rep_dir)?;
        // The separate drain that prices `TraceStream` expansion is work
        // the campaign never does twice; it is not tracing overhead.
        let pricing = t.self_nanos().get("workloads.stream").copied().unwrap_or(0) as f64 / 1e9;
        let traced_wall = t0.elapsed().as_secs_f64() - pricing;
        let got = digest(&cells);
        if got != want {
            report.note(format!("traced digest {got:016x} != untraced {want:016x}"));
            failed += 1;
        }
        let real_saves = real.disk.map_or(0, |d| d.saves);
        if cold.built != real.built()
            || cold.hits != real.hits
            || t.counter("disk.saves") as u64 != real_saves
        {
            report.note(format!(
                "replayed store counts (built {}, hits {}, saves {}) differ from the campaign's (built {}, hits {}, saves {real_saves})",
                cold.built,
                cold.hits,
                t.counter("disk.saves"),
                real.built(),
                real.hits
            ));
            failed += 1;
        }
        let _ = std::fs::remove_dir_all(&rep_dir);
        overheads.push(traced_wall / untraced_wall - 1.0);
        unattributed.push(uncovered);

        let mut values = Values::new();
        layer_values(&t, &mut values);
        values.insert("store.builds", cold.built as f64);
        values.insert(
            "store.hit_rate",
            cold.hits as f64 / (cold.built + cold.hits).max(1) as f64,
        );
        match &first {
            None => {
                report.note(format!(
                    "iteration 0 result digest {got:016x} (the replay matches the campaign)"
                ));
                let spans = base.join("spans.tsv");
                t.write(&spans)
                    .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
                report.note(format!("spans written to {}", spans.display()));
                first = Some(values);
            }
            Some(prev) if exact_counts(prev) != exact_counts(&values) => {
                report.note("exact counts differ between two replays of the same inputs");
                failed += 1;
            }
            Some(_) => {}
        }
        report.attempted += inputs.cells() as u64;
    }
    let mut values = first.expect("at least one pair ran");
    values.insert("trace.overhead_frac", median(&overheads));
    values.insert("trace.unattributed_frac", median(&unattributed));
    report.note(format!("{} untraced/traced pairs", overheads.len()));
    report.failed = failed;
    report.correct = failed == 0;
    finish(&mut report, &values);
    Ok(report)
}

/// One light-mix request as the traced fleet run measures it.
struct Request {
    cell: Cell,
    shard: u32,
    /// Sequential via-router and direct-to-owner latencies, ms.
    router_ms: Option<f64>,
    direct_ms: Option<f64>,
    /// In-process submit→respond latency with nothing else queued, ms.
    service_ms: Option<f64>,
}

/// Sends `cells` one at a time to `addr`, returning each latency in ms.
fn sequential(addr: &str, cells: &[&Cell]) -> Result<Vec<f64>, String> {
    let (mut writer, mut reader) = fleet::connect(addr)?;
    let mut out = Vec::with_capacity(cells.len());
    for (id, cell) in cells.iter().enumerate() {
        let start = Instant::now();
        std::io::Write::write_all(&mut writer, fleet::submit_line(id as u64, cell).as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        let got = fleet::read_terminal(&mut reader, start, 1);
        match got.get(&(id as u64)) {
            Some((at, Ok(record))) if record.metrics.is_some() => out.push(at * 1e3),
            _ => return Err(format!("{}:{} was not answered", cell.app, cell.scheme)),
        }
    }
    Ok(out)
}

/// Requests per sequential wire probe (router, direct).
const WIRE_PROBES: usize = 60;

/// An in-process shard service configured as `critic router` configures
/// its shards, over that shard's disk-warm store.
fn shard_service(
    dirs: &Path,
    trace_len: usize,
    shard: u32,
    journal: &Path,
) -> Result<CampaignService, String> {
    let mut config = ServiceConfig::new(trace_len);
    config.workers = 1;
    config.validate = true;
    config.queue_capacity = 0;
    config.degrade_watermarks = [0; 3];
    config.admission_rate = 0;
    config.client_window = 0;
    config.breaker_threshold = 0;
    config.telemetry = Telemetry::off();
    config.journal = Some(journal.to_path_buf());
    config.store_dir = Some(dirs.join("store").join(format!("shard-{shard}")));
    CampaignService::open(config).map_err(|e| e.to_string())
}

/// Submits `cell` and waits for its record: `None` when refused, else
/// when `submit` returned, when the record arrived, and the record.
fn serve(
    service: &CampaignService,
    cell: &Cell,
) -> Result<Option<(Instant, Instant, CellRecord)>, String> {
    let (tx, rx) = mpsc::channel();
    let outcome = service.submit(1, &cell.app, &cell.scheme, None, move |record| {
        let _ = tx.send((Instant::now(), record));
    });
    let admitted = Instant::now();
    if outcome != SubmitOutcome::Accepted {
        return Ok(None);
    }
    let (done_at, record) = rx.recv().map_err(|_| "service dropped a request")?;
    Ok(Some((admitted, done_at, record)))
}

/// The light phase's arrivals replayed in-process on their due schedule,
/// each to its owner shard's `CampaignService` (warmed as fleet set-up
/// warms a shard). Returns each request's latency from its due time, ms,
/// in mix order; `None` for a refused, failed or unanswered request.
fn in_process_open_loop(
    dirs: &Path,
    trace_len: usize,
    work: &Path,
    mix: &[(f64, Cell)],
    requests: &[Request],
) -> Result<Vec<Option<f64>>, String> {
    let services = (0..fleet::SHARDS)
        .map(|shard| {
            let journal = work.join(format!("open-{shard}.jsonl"));
            shard_service(dirs, trace_len, shard, &journal)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut seen = std::collections::HashSet::new();
    for r in requests {
        if seen.insert(&r.cell) {
            serve(&services[r.shard as usize], &r.cell)?;
        }
    }
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    for (i, ((due, cell), r)) in mix.iter().zip(requests).enumerate() {
        let wait = *due - start.elapsed().as_secs_f64();
        if wait > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(wait));
        }
        let tx = tx.clone();
        services[r.shard as usize].submit(1, &cell.app, &cell.scheme, None, move |record| {
            let _ = tx.send((i, Instant::now(), record));
        });
    }
    drop(tx);
    let mut latency = vec![None; mix.len()];
    for (i, at, record) in rx.iter().take(mix.len()) {
        if record.metrics.is_some() && record.degraded.is_none() {
            latency[i] = Some((at.duration_since(start).as_secs_f64() - mix[i].0) * 1e3);
        }
    }
    for service in &services {
        service.drain();
    }
    Ok(latency)
}

/// `fleet_mix`: the light phase through the router (open loop, for the
/// generator's lag and the result digest), sequential via-router and
/// direct-to-owner probes (for the hop and wire costs), then each
/// shard's store served by an in-process `CampaignService` and by the
/// traced replay, request by request, and last the light phase's
/// arrivals served in-process on their due schedule (for queueing).
fn fleet_traced(args: &RunArgs) -> Result<Report, String> {
    let prepared = fleet::prepare(args)?;
    let mix = fleet::run_mix(args.seed, args.smoke);
    let light = fleet::light_phase(&prepared.fleet.addr, &mix)?;
    let ring = HashRing::new(0..fleet::SHARDS, DEFAULT_VNODES);
    let mut requests: Vec<Request> = mix
        .iter()
        .map(|(_, cell)| Request {
            cell: cell.clone(),
            shard: ring
                .place(placement_key(&cell.app, &cell.scheme))
                .unwrap_or(0),
            router_ms: None,
            direct_ms: None,
            service_ms: None,
        })
        .collect();
    let probes = requests.len().min(WIRE_PROBES);
    let probe_cells: Vec<&Cell> = requests[..probes].iter().map(|r| &r.cell).collect();
    let via_router = sequential(&prepared.fleet.addr, &probe_cells)?;
    for (r, ms) in requests.iter_mut().zip(via_router) {
        r.router_ms = Some(ms);
    }
    for shard in &prepared.fleet.stats.shards {
        let addr = shard.addr.clone().ok_or("a shard reported no address")?;
        let owned: Vec<usize> = (0..probes)
            .filter(|&i| requests[i].shard == shard.shard)
            .collect();
        let cells: Vec<&Cell> = owned.iter().map(|&i| &requests[i].cell).collect();
        for (i, ms) in owned.iter().zip(sequential(&addr, &cells)?) {
            requests[*i].direct_ms = Some(ms);
        }
    }
    prepared.fleet.shutdown()?;

    let mut report = Report::default();
    let mut failed = 0u64;
    let want: CellResults = light
        .iter()
        .filter_map(|a| {
            let m = a.record.as_ref()?.metrics.clone()?;
            Some((a.cell.app.clone(), a.cell.scheme.clone(), m))
        })
        .collect();
    if want.len() != light.len() || light.iter().any(|a| !a.ok()) {
        report.note("light phase had failed requests");
        failed += 1;
    }
    let lags: Vec<f64> = light.iter().map(|a| (a.sent - a.due) * 1e3).collect();

    let apps: Vec<AppSpec> = Suite::Mobile.apps();
    let work = args.work.join("traced-fleet");
    fresh_dir(&work)?;
    let mut warm = Tracer::new();
    let mut t = Tracer::new();
    let mut replayed = Vec::new();
    let (mut admit_us, mut request_ms) = (Vec::new(), Vec::new());
    let (mut wire_ms, mut hop_ms) = (Vec::new(), Vec::new());
    let (mut service_total, mut replay_total, mut uncovered) = (0.0, 0.0, 0u64);
    let (mut rejected, mut degraded) = (0.0, 0.0);
    let journal = Journal::open(&work.join("replay.jsonl"), 0, Telemetry::off())
        .map_err(|e| e.to_string())?
        .0;
    for shard in 0..fleet::SHARDS {
        let service_journal = work.join(format!("service-{shard}.jsonl"));
        let service = shard_service(&prepared.dirs, prepared.trace_len, shard, &service_journal)?;
        let mut live = LiveStore {
            store: Arc::clone(service.store()),
        };
        let owned: Vec<usize> = (0..requests.len())
            .filter(|&i| requests[i].shard == shard)
            .collect();
        let replay_cell =
            |t: &mut Tracer, live: &mut LiveStore, cell: &Cell| -> Result<CellMetrics, String> {
                let app = apps
                    .iter()
                    .find(|a| a.name == cell.app)
                    .ok_or("unknown app")?;
                let point = DesignPoint::named(&cell.scheme).ok_or("unknown scheme")?;
                let mut bench = Bench::new(t, live, app, prepared.trace_len, None)?;
                let base = bench.run(t, live, &DesignPoint::baseline())?;
                let (outcome, stats) = bench.run_validated(t, live, &point, app.path_seed())?;
                let m = metrics(&outcome, &base);
                journal_cell(t, &journal, &cell.app, &cell.scheme, &m, Some(stats));
                Ok(m)
            };
        // Serve every owned cell once from the disk-warm store: this is
        // the boot-time disk traffic (`disk.load_ms`, `disk.hits`).
        let mut seen = std::collections::HashSet::new();
        for &i in &owned {
            if seen.insert(requests[i].cell.clone()) {
                replay_cell(&mut warm, &mut live, &requests[i].cell)?;
            }
        }
        for &i in &owned {
            let cell = &requests[i].cell.clone();
            let start = Instant::now();
            let Some((admitted, done_at, record)) = serve(&service, cell)? else {
                rejected += 1.0;
                continue;
            };
            let in_process = done_at.duration_since(start).as_secs_f64() * 1e3;
            requests[i].service_ms = Some(in_process);
            if record.degraded.is_some() {
                degraded += 1.0;
            }
            t.request = i as u64;
            let from = t.clock();
            let m = replay_cell(&mut t, &mut live, cell)?;
            let to = t.clock();
            if record.metrics.as_ref() != Some(&m) {
                report.note(format!(
                    "{}:{} in-process service and replay disagree",
                    cell.app, cell.scheme
                ));
                failed += 1;
            }
            let replay_ms = (to - from) as f64 / 1e6;
            uncovered += t.uncovered_nanos(from, to);
            service_total += in_process;
            replay_total += replay_ms;
            admit_us.push(admitted.duration_since(start).as_secs_f64() * 1e6);
            request_ms.push(in_process);
            if let (Some(direct), Some(router)) = (requests[i].direct_ms, requests[i].router_ms) {
                wire_ms.push(direct - in_process);
                hop_ms.push(router - direct);
            }
            replayed.push((cell.app.clone(), cell.scheme.clone(), m));
        }
        service.drain();
    }
    let open_ms = in_process_open_loop(&prepared.dirs, prepared.trace_len, &work, &mix, &requests)?;
    let queue_ms: Vec<f64> = requests
        .iter()
        .zip(&open_ms)
        .filter_map(|(r, open)| Some((*open)? - r.service_ms?))
        .collect();
    if queue_ms.len() != requests.len() {
        report.note("the in-process open loop left requests unanswered or failed");
        failed += 1;
    }
    let got = digest(&replayed);
    let want_digest = digest(&want);
    if got != want_digest {
        report.note(format!(
            "replay digest {got:016x} != light-phase digest {want_digest:016x}"
        ));
        failed += 1;
    } else {
        report.note(format!(
            "light-phase result digest {got:016x} (the replay matches the fleet)"
        ));
    }

    for (tracer, name) in [(&warm, "warm-spans.tsv"), (&t, "spans.tsv")] {
        let path = work.join(name);
        tracer
            .write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    report.note(format!(
        "spans written to {}",
        work.join("spans.tsv").display()
    ));
    let mut values = Values::new();
    layer_values(&t, &mut values);
    let mut warm_values = Values::new();
    layer_values(&warm, &mut warm_values);
    for name in ["disk.load_ms", "disk.hits"] {
        values.insert(name, warm_values[name]);
    }
    let requests_seen = t.counter("store.requests");
    values.insert("store.builds", t.counter("store.builds"));
    values.insert(
        "store.hit_rate",
        (requests_seen - t.counter("store.builds")) / requests_seen.max(1.0),
    );
    values.insert("service.admit_us", median(&admit_us));
    values.insert("service.request_ms", median(&request_ms));
    values.insert("service.queue_wait_ms", median(&queue_ms));
    values.insert("service.rejected", rejected);
    values.insert("service.degraded", degraded);
    values.insert("wire.shard_ms", median(&wire_ms));
    values.insert("router.hop_ms", median(&hop_ms));
    values.insert("loadgen.lag_ms", median(&lags));
    values.insert(
        "loadgen.acks",
        light.iter().filter(|a| a.ok()).count() as f64,
    );
    values.insert(
        "trace.overhead_frac",
        replay_total / service_total.max(1e-9) - 1.0,
    );
    values.insert(
        "trace.unattributed_frac",
        uncovered as f64 / 1e6 / replay_total.max(1e-9),
    );
    report.note(format!(
        "{} requests replayed, {} wire probes; max generator lag {:.3} ms",
        replayed.len(),
        wire_ms.len(),
        lags.iter().copied().fold(0.0, f64::max)
    ));
    report.attempted = (light.len() + replayed.len()) as u64;
    if rejected > 0.0 || degraded > 0.0 {
        failed += (rejected + degraded) as u64;
    }
    report.failed = failed;
    report.correct = failed == 0;
    finish(&mut report, &values);
    Ok(report)
}
