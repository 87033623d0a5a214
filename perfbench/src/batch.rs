//! The two batch workloads, `grid_cold` and `stream_long`: a closed
//! campaign run in a fresh child process per iteration, exactly as
//! `critic campaign` runs it, timed from the outside.
//!
//! A child process per iteration gives each campaign its own peak-RSS
//! reading and makes process start part of set-up, as it is for a user.
//! The child prints `ready` once its directories, store and journal are
//! open, waits for `go` on stdin, runs the campaign and prints one JSON
//! [`ChildResult`] line.

use std::io::{BufRead, BufReader, Lines, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use critic_bench::perf::sensitivity_grid;
use critic_core::campaign::{
    run_campaign_with_store, CampaignSpec, CellRecord, CellStatus, Scheme,
};
use critic_core::design::DesignPoint;
use critic_core::store::ArtifactStore;
use critic_obs::Telemetry;
use critic_workloads::{AppSpec, Suite};
use serde::{Deserialize, Serialize};

use crate::common::{digest, nproc, vm_hwm_mb, CellResults, Rng};

/// Which batch workload, with its seeded inputs.
#[derive(Debug, Clone)]
pub struct BatchInputs {
    pub apps: Vec<AppSpec>,
    pub schemes: Vec<Scheme>,
    pub trace_len: usize,
    /// `Some` for the streamed workload.
    pub stream_window: Option<usize>,
    /// Whether the campaign journals and persists artifacts.
    pub durable: bool,
}

/// The generator for one iteration's inputs: each iteration of a run
/// draws afresh from the run's seed, so a run averages over several
/// draws and the same seed always names the same sequence.
fn iteration_rng(seed: u64, iteration: usize) -> Rng {
    let mut rng = Rng::new(seed);
    for _ in 0..iteration {
        rng = Rng::new(rng.next_u64());
    }
    rng
}

/// `grid_cold`: every Mobile app × the 18-scheme sensitivity grid at 100k
/// instructions per cell; the seed permutes app and scheme order.
pub fn grid_inputs(seed: u64, iteration: usize, smoke: bool) -> BatchInputs {
    let mut rng = iteration_rng(seed, iteration);
    let mut apps = Suite::Mobile.apps();
    let mut schemes = sensitivity_grid();
    let mut trace_len = 100_000;
    if smoke {
        apps.truncate(3);
        schemes = schemes.into_iter().step_by(3).collect();
        trace_len = 8_000;
    }
    rng.shuffle(&mut apps);
    rng.shuffle(&mut schemes);
    BatchInputs {
        apps,
        schemes,
        trace_len,
        stream_window: None,
        durable: true,
    }
}

/// `stream_long`: two seed-chosen Mobile apps × {critic, opp16} at 2M
/// instructions per cell through a 4096-instruction stream window.
pub fn stream_inputs(seed: u64, iteration: usize, smoke: bool) -> BatchInputs {
    let mut rng = iteration_rng(seed, iteration);
    let mut apps = Suite::Mobile.apps();
    rng.shuffle(&mut apps);
    apps.truncate(2);
    BatchInputs {
        apps,
        schemes: vec![
            Scheme::new("critic", DesignPoint::critic()),
            Scheme::new("opp16", DesignPoint::opp16()),
        ],
        trace_len: if smoke { 40_000 } else { 2_000_000 },
        stream_window: Some(if smoke { 1_024 } else { 4_096 }),
        durable: false,
    }
}

impl BatchInputs {
    pub fn for_workload(
        workload: &str,
        seed: u64,
        iteration: usize,
        smoke: bool,
    ) -> Option<BatchInputs> {
        match workload {
            "grid_cold" => Some(grid_inputs(seed, iteration, smoke)),
            "stream_long" => Some(stream_inputs(seed, iteration, smoke)),
            _ => None,
        }
    }

    pub fn cells(&self) -> usize {
        self.apps.len() * self.schemes.len()
    }

    /// The campaign spec `critic campaign` would build for these inputs.
    pub fn spec(&self, workers: usize, dir: Option<&Path>) -> CampaignSpec {
        let mut spec = CampaignSpec::new(self.apps.clone(), self.schemes.clone(), self.trace_len);
        spec.telemetry = Telemetry::off();
        spec.workers = workers;
        spec.stream_window = self.stream_window;
        if let (true, Some(dir)) = (self.durable, dir) {
            spec.journal = Some(dir.join("journal.jsonl"));
            spec.store_dir = Some(dir.join("store"));
        }
        spec
    }

    /// Opens the store the campaign runs over: persistent for the durable
    /// workload, in-memory otherwise.
    pub fn open_store(&self, spec: &CampaignSpec) -> Result<Arc<ArtifactStore>, String> {
        Ok(Arc::new(match &spec.store_dir {
            Some(dir) => ArtifactStore::persistent(dir, None, Telemetry::off())
                .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?,
            None => ArtifactStore::new(),
        }))
    }
}

/// What one child campaign reports back.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChildResult {
    /// Wall seconds from `go` to the campaign's return.
    pub wall_s: f64,
    /// Every cell record, in grid order.
    pub records: Vec<CellRecord>,
    /// Milliseconds from `go` until each cell's result was acknowledged.
    pub acks_ms: Vec<f64>,
    /// The child's peak RSS at exit, MB.
    pub hwm_mb: f64,
}

/// One measured iteration as the parent sees it.
#[derive(Debug, Clone)]
pub struct Iteration {
    pub inputs: BatchInputs,
    pub result: ChildResult,
}

/// A child that has finished set-up and waits for `go`.
struct Started {
    child: Child,
    stdin: ChildStdin,
    lines: Lines<BufReader<ChildStdout>>,
    setup_s: f64,
}

/// Spawns a child over a fresh directory and waits until it is ready.
fn start_child(
    workload: &str,
    seed: u64,
    iteration: usize,
    smoke: bool,
    dir: &Path,
) -> Result<Started, String> {
    let _ = std::fs::remove_dir_all(dir);
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let started = Instant::now();
    let mut command = Command::new(exe);
    command
        .args(["child", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--iteration", &iteration.to_string()])
        .arg("--work")
        .arg(dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        command.arg("--smoke");
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("cannot spawn child: {e}"))?;
    let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
        let _ = child.kill();
        let _ = child.wait();
        return Err("child stdio not piped".to_string());
    };
    let mut lines = BufReader::new(stdout).lines();
    let ready = lines.next().and_then(Result::ok).unwrap_or_default();
    if ready.trim() != "ready" {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("child failed during set-up (said `{ready}`)"));
    }
    Ok(Started {
        child,
        stdin,
        lines,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// Runs one iteration in a fresh child process over a fresh directory.
pub fn run_iteration(
    workload: &str,
    seed: u64,
    iteration: usize,
    smoke: bool,
    dir: &Path,
) -> Result<Iteration, String> {
    let Started {
        mut child,
        mut stdin,
        mut lines,
        ..
    } = start_child(workload, seed, iteration, smoke, dir)?;
    let outcome: Result<Iteration, String> = (|| {
        stdin
            .write_all(b"go\n")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("cannot start child: {e}"))?;
        let line = lines.next().and_then(Result::ok).unwrap_or_default();
        let result: ChildResult = serde_json::from_str(line.trim())
            .map_err(|e| format!("child printed no result ({e})"))?;
        let inputs = BatchInputs::for_workload(workload, seed, iteration, smoke)
            .ok_or_else(|| format!("`{workload}` is not a batch workload"))?;
        Ok(Iteration { inputs, result })
    })();
    if outcome.is_err() {
        let _ = child.kill();
    }
    let status = child
        .wait()
        .map_err(|e| format!("cannot reap child: {e}"))?;
    let iteration = outcome?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    Ok(iteration)
}

/// Times one set-up alone: the child is sent end-of-input instead of
/// `go`, and exits without running.
fn setup_only(workload: &str, seed: u64, smoke: bool, dir: &Path) -> Result<f64, String> {
    let Started {
        mut child,
        stdin,
        setup_s,
        ..
    } = start_child(workload, seed, 0, smoke, dir)?;
    drop(stdin);
    let status = child
        .wait()
        .map_err(|e| format!("cannot reap child: {e}"))?;
    if !status.success() {
        return Err(format!("set-up-only child exited with {status}"));
    }
    Ok(setup_s)
}

/// The child side: set up, wait for `go`, run, report.
pub fn child_main(
    workload: &str,
    seed: u64,
    iteration: usize,
    smoke: bool,
    dir: &Path,
) -> Result<(), String> {
    let inputs = BatchInputs::for_workload(workload, seed, iteration, smoke)
        .ok_or_else(|| format!("`{workload}` is not a batch workload"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let spec = inputs.spec(nproc(), Some(dir));
    let store = inputs.open_store(&spec)?;
    println!("ready");
    let _ = std::io::stdout().flush();
    let mut go = String::new();
    std::io::stdin()
        .read_line(&mut go)
        .map_err(|e| format!("no go signal: {e}"))?;
    if go.trim() != "go" {
        // A set-up-only child: told to stop instead of run.
        return Ok(());
    }

    let started = Instant::now();
    let watcher = spec
        .journal
        .clone()
        .map(|path| JournalWatcher::start(path, started));
    let summary =
        run_campaign_with_store(&spec, &store).map_err(|e| format!("campaign failed: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let acks_ms = match watcher {
        Some(watcher) => watcher.stop(summary.records.len()),
        // Without a journal a cell reaches its caller only when the
        // campaign returns its records.
        None => vec![wall_s * 1e3; summary.records.len()],
    };
    let result = ChildResult {
        wall_s,
        records: summary.records,
        acks_ms,
        hwm_mb: vm_hwm_mb("self").unwrap_or(0.0),
    };
    let line = serde_json::to_string(&result).map_err(|e| format!("cannot encode result: {e}"))?;
    println!("{line}");
    Ok(())
}

/// Timestamps journal lines as they land: the batch campaign's ack is its
/// journal append (fsynced before the next cell starts), and every cell
/// of a closed batch is due when the campaign starts.
struct JournalWatcher {
    stop: Arc<AtomicBool>,
    handle: thread::JoinHandle<Vec<f64>>,
}

impl JournalWatcher {
    fn start(path: PathBuf, started: Instant) -> JournalWatcher {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let mut seen = Vec::new();
            let mut offset = 0u64;
            let mut buf = Vec::new();
            loop {
                let last = flag.load(Ordering::SeqCst);
                if let Ok(mut file) = std::fs::File::open(&path) {
                    buf.clear();
                    if file.seek(SeekFrom::Start(offset)).is_ok()
                        && file.read_to_end(&mut buf).is_ok()
                    {
                        let at = started.elapsed().as_secs_f64() * 1e3;
                        offset += buf.len() as u64;
                        seen.extend(buf.iter().filter(|&&b| b == b'\n').map(|_| at));
                    }
                }
                if last {
                    return seen;
                }
                thread::sleep(Duration::from_millis(1));
            }
        });
        JournalWatcher { stop, handle }
    }

    /// Stops watching; returns the first `cells` line timestamps (trailer
    /// lines follow the cell records).
    fn stop(self, cells: usize) -> Vec<f64> {
        self.stop.store(true, Ordering::SeqCst);
        let mut seen = self.handle.join().unwrap_or_default();
        seen.truncate(cells);
        seen
    }
}

/// (app, scheme, metrics) of every Ok record; the failures as text.
pub fn split_records(records: &[CellRecord]) -> (CellResults, Vec<String>) {
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for r in records {
        match (&r.status, &r.metrics) {
            (CellStatus::Ok, Some(m)) if r.degraded.is_none() => {
                ok.push((r.app.clone(), r.scheme.clone(), m.clone()))
            }
            _ => bad.push(format!(
                "{}:{} {:?} {:?}",
                r.app, r.scheme, r.status, r.error
            )),
        }
    }
    (ok, bad)
}

/// Digest of a record set's Ok cells.
pub fn records_digest(records: &[CellRecord]) -> u64 {
    digest(&split_records(records).0)
}

/// Set-up-only children per run whose median is `setup_s`. One set-up
/// takes a millisecond or two and varies by more than the run-to-run
/// bound, so a run takes many, all alike (the measured iterations'
/// set-ups follow a campaign and are left out).
const SETUPS: usize = 100;

/// Options every workload run takes.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub work: PathBuf,
    pub critic: Option<PathBuf>,
}

/// The untraced run of a batch workload: fresh child campaigns until
/// `seconds` of campaign time have been measured, then the oracle.
pub fn run_untraced(
    args: &RunArgs,
    oracle: impl FnOnce(&[Iteration], &mut crate::common::Report) -> u64,
) -> Result<crate::common::Report, String> {
    use crate::common::{median, tail, Report};
    let mut iterations = Vec::new();
    let mut measured = 0.0;
    while iterations.is_empty() || measured < args.seconds {
        let n = iterations.len();
        let dir = args.work.join(format!("{}-{n}", args.workload));
        let iteration = run_iteration(&args.workload, args.seed, n, args.smoke, &dir)?;
        let _ = std::fs::remove_dir_all(&dir);
        measured += iteration.result.wall_s;
        iterations.push(iteration);
    }
    let dir = args.work.join(format!("{}-setup", args.workload));
    let setups = (0..SETUPS)
        .map(|_| setup_only(&args.workload, args.seed, args.smoke, &dir))
        .collect::<Result<Vec<f64>, String>>()?;
    let _ = std::fs::remove_dir_all(&dir);

    let mut report = Report::default();
    let mut failed = 0;
    for it in &iterations {
        let cells = it.inputs.cells() as u64;
        report.attempted += cells;
        let (_, bad) = split_records(&it.result.records);
        failed += bad.len() as u64 + cells.saturating_sub(it.result.records.len() as u64);
        for b in bad.iter().take(3) {
            report.note(format!("failed cell: {b}"));
        }
    }
    report.note(format!(
        "iteration 0 result digest {:016x}",
        records_digest(&iterations[0].result.records)
    ));
    failed += oracle(&iterations, &mut report);
    report.failed = failed;
    report.correct = failed == 0;

    let per_iter =
        |f: &dyn Fn(&Iteration) -> f64| -> Vec<f64> { iterations.iter().map(f).collect() };
    // Ack statistics are taken per iteration (a fixed sample count, so a
    // fixed tail percentile) and reported as their median.
    let (pct, _) = tail(&iterations[0].result.acks_ms);
    report.note(format!(
        "{} iterations (walls {:?} s); ack_tail_ms is the median over iterations of p{pct} of {} acks; setup_s is the median of {} set-ups",
        iterations.len(),
        per_iter(&|it| (it.result.wall_s * 1e3).round() / 1e3),
        iterations[0].result.acks_ms.len(),
        setups.len()
    ));
    let insns = |it: &Iteration| -> f64 {
        split_records(&it.result.records)
            .0
            .iter()
            .map(|(_, _, m)| m.dyn_insns as f64)
            .sum()
    };
    report.push("setup_s", median(&setups), "s");
    report.push(
        "cells_per_s",
        median(&per_iter(&|it| {
            it.result.records.len() as f64 / it.result.wall_s
        })),
        "cells/s",
    );
    report.push(
        "sim_minsts_per_s",
        median(&per_iter(&|it| insns(it) / it.result.wall_s / 1e6)),
        "Minsts/s",
    );
    report.push(
        "ack_p50_ms",
        median(&per_iter(&|it| median(&it.result.acks_ms))),
        "ms",
    );
    report.push(
        "ack_tail_ms",
        median(&per_iter(&|it| tail(&it.result.acks_ms).1)),
        "ms",
    );
    report.push(
        "peak_rss_mb",
        median(&per_iter(&|it| it.result.hwm_mb)),
        "MB",
    );
    report.push(
        "ok_frac",
        1.0 - failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    Ok(report)
}
