//! The service soak behind `critic soak`: a supervised `critic serve`
//! child under open-loop load and systemic-fault noise, killed with
//! `SIGKILL` mid-load, restarted, overloaded, and drained — with the
//! service-robustness invariants checked at every boundary.
//!
//! The invariants:
//!
//! * **no-lost-ack** — every `done` a client observed before the kill is
//!   present in the journal when the dead server's state is replayed
//!   (ack follows fsync, so a `SIGKILL` can never eat an acknowledged
//!   cell);
//! * **journal-resumable** — the journal replays cleanly after the kill
//!   (a torn tail is truncated, never fatal) and again after the drain;
//! * **bounded-queue** — under 2× overload the server's queue depth,
//!   sampled continuously, never exceeds the configured capacity: load is
//!   shed at admission instead of buffered without bound;
//! * **overload-sheds** — the overload phase produces explicit
//!   rejections carrying non-zero `retry_after_ms` hints (and the clean
//!   phases leave nothing unanswered);
//! * **graceful-drain** — a `shutdown` request drains the server and the
//!   child exits with code 9;
//! * **durable-warm** — the restarted server serves artifacts from disk
//!   (non-zero disk hits), not by re-simulating from scratch.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use critic_core::journal::Journal;
use critic_obs::Telemetry;
use serde::Serialize;

use crate::loadgen::{run_loadgen, AckedCell, LoadgenConfig, LoadgenReport};
use crate::perf::BenchError;
use crate::serve::{parse_reply, Reply, ServeStats, StatsRequest};
use crate::wire;

/// One soak invocation's parameters.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Approximate seconds of pre-kill load (the kill lands mid-way).
    pub seconds: u64,
    /// Concurrent loadgen clients.
    pub clients: usize,
    /// Open-loop submissions per second per client.
    pub rate: f64,
    /// `SIGKILL` the server mid-load and restart it (on by default; off
    /// turns the soak into a plain sustained-load run).
    pub kill: bool,
    /// `--sys NAME[:PARAM]@AT` specs forwarded to the server child as
    /// fault noise.
    pub sys: Vec<String>,
    /// Shrink everything for CI smoke and tests.
    pub smoke: bool,
    /// Seed for the loadgen mix.
    pub seed: u64,
    /// The `critic` binary to spawn the server from; defaults to the
    /// current executable (`critic soak` spawns `critic serve`).
    pub binary: Option<PathBuf>,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            seconds: 30,
            clients: 8,
            rate: 4.0,
            kill: true,
            sys: Vec::new(),
            smoke: false,
            seed: 0,
            binary: None,
        }
    }
}

/// One broken soak invariant.
#[derive(Debug, Clone, Serialize)]
pub struct SoakViolation {
    /// Which invariant (`no-lost-ack`, `bounded-queue`, ...).
    pub invariant: String,
    /// What happened.
    pub detail: String,
}

/// The full soak report, serialised as JSON on violation and uploaded as
/// the CI latency artifact.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SoakReport {
    /// Every broken invariant (empty = pass).
    pub violations: Vec<SoakViolation>,
    /// Whether the mid-load `SIGKILL` was delivered.
    pub killed: bool,
    /// `done` replies clients observed before the kill.
    pub acked_before_kill: u64,
    /// Of those, distinct (app, scheme) cells found in the journal after
    /// the kill.
    pub acked_preserved: u64,
    /// Persistent-store disk hits reported by the restarted server after
    /// the warm phase.
    pub disk_hits_after_restart: u64,
    /// Highest queue depth sampled during the overload burst.
    pub peak_queue_depth: u64,
    /// The configured queue capacity the bound is checked against.
    pub queue_capacity: u64,
    /// The restarted server's exit code after the graceful drain.
    pub server_exit_code: Option<i32>,
    /// Pre-kill load phase.
    pub phase_load: LoadgenReport,
    /// Post-restart warm phase.
    pub phase_warm: LoadgenReport,
    /// 2× overload burst against the restarted server.
    pub phase_overload: LoadgenReport,
}

impl SoakReport {
    /// Did every invariant hold?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Everything the soak derives from its config.
struct SoakPlan {
    trace_len: usize,
    workers: usize,
    queue_capacity: u64,
    admission_rate: u64,
    admission_burst: u64,
    requests_per_client: usize,
    kill_after: Duration,
    overload_clients: usize,
    overload_rate: f64,
    overload_requests: usize,
}

fn plan(config: &SoakConfig) -> SoakPlan {
    let seconds = config.seconds.max(2);
    let requests_per_client = ((seconds as f64 * config.rate).ceil() as usize).max(2);
    // Admission sized so the normal phases pass and the overload phase —
    // 2x the token rate — must be refused.
    let admission_rate = ((config.clients as f64 * config.rate) as u64).max(4) * 2;
    SoakPlan {
        trace_len: if config.smoke { 2_000 } else { 4_000 },
        workers: if config.smoke { 2 } else { 4 },
        queue_capacity: 64,
        admission_rate,
        admission_burst: admission_rate,
        requests_per_client,
        kill_after: Duration::from_secs(seconds / 2),
        overload_clients: config.clients.max(2),
        overload_rate: (admission_rate as f64 * 2.0) / config.clients.max(2) as f64,
        overload_requests: (admission_rate as usize * 3).clamp(16, 512),
    }
}

/// A spawned `critic serve` child plus the address it printed.
struct Server {
    child: Child,
    addr: String,
}

fn spawn_server(
    binary: &std::path::Path,
    config: &SoakConfig,
    plan: &SoakPlan,
    journal: &std::path::Path,
    store_dir: &std::path::Path,
    run_tag: u64,
    with_sys: bool,
) -> Result<Server, BenchError> {
    let mut cmd = Command::new(binary);
    cmd.args([
        "serve",
        "--port",
        "0",
        "--trace-len",
        &plan.trace_len.to_string(),
        "--workers",
        &plan.workers.to_string(),
        "--queue",
        &plan.queue_capacity.to_string(),
        "--rate",
        &plan.admission_rate.to_string(),
        "--burst",
        &plan.admission_burst.to_string(),
        "--run-tag",
        &run_tag.to_string(),
        "--stats",
    ]);
    cmd.arg("--journal").arg(journal);
    cmd.arg("--store-dir").arg(store_dir);
    if with_sys {
        for spec in &config.sys {
            cmd.arg("--sys").arg(spec);
        }
    }
    cmd.stdout(Stdio::piped());
    cmd.stderr(Stdio::null());
    let mut child = cmd
        .spawn()
        .map_err(|e| BenchError::Io(format!("cannot spawn serve child: {e}")))?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| BenchError::Io("serve child has no stdout".to_string()))?;
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| BenchError::Io(format!("cannot read serve child banner: {e}")))?;
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .map(str::to_string)
        .ok_or_else(|| {
            let _ = child.kill();
            BenchError::Io(format!("unexpected serve banner: `{}`", line.trim()))
        })?;
    // Keep draining the child's stdout so it can never block on a full
    // pipe; the banner was the only line the soak needs.
    thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    Ok(Server { child, addr })
}

/// Polls `{"stats":true}` on its own connection every few milliseconds
/// until `stop`, tracking the highest queue depth seen.
fn spawn_queue_monitor(
    addr: String,
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let Ok(mut client) = wire::Client::connect(&addr, None) else {
            return;
        };
        while !stop.load(Ordering::SeqCst) {
            let Ok(stats) = client.request_reply(&StatsRequest { stats: true }, pick_stats) else {
                return;
            };
            peak.fetch_max(stats.queue_depth, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(10));
        }
    })
}

/// Picks a `stats_reply` line.
fn pick_stats(line: &str) -> Option<ServeStats> {
    match parse_reply(line) {
        Some(Reply::Stats(stats)) => Some(stats),
        _ => None,
    }
}

/// One stats exchange on a fresh connection.
fn fetch_stats(addr: &str) -> Result<ServeStats, BenchError> {
    let mut client = wire::Client::connect(addr, None)
        .map_err(|e| BenchError::Io(format!("cannot connect for stats: {e}")))?;
    client
        .request_reply(&StatsRequest { stats: true }, pick_stats)
        .map_err(|_| BenchError::Io("stats exchange failed".to_string()))
}

/// Asks the server to drain via the wire protocol.
fn send_shutdown(addr: &str) {
    let Ok(mut client) = wire::Client::connect(addr, None) else {
        return;
    };
    let _ = client.request_reply(&crate::serve::ShutdownRequest { shutdown: true }, |line| {
        matches!(parse_reply(line), Some(Reply::Draining)).then_some(())
    });
}

/// Checks no-lost-ack: every distinct (app, scheme) among `acked` must
/// still be present when the journal replays.
fn check_acked_against_journal(
    journal: &std::path::Path,
    acked: &[AckedCell],
    violations: &mut Vec<SoakViolation>,
) -> u64 {
    let keys: BTreeSet<(String, String)> = acked
        .iter()
        .map(|a| (a.app.clone(), a.scheme.clone()))
        .collect();
    match Journal::replay(journal, &Telemetry::off()) {
        Ok(replayed) => {
            let present: BTreeSet<(String, String)> = replayed
                .records
                .iter()
                .map(|r| (r.app.clone(), r.scheme.clone()))
                .collect();
            let mut preserved = 0u64;
            for key in &keys {
                if present.contains(key) {
                    preserved += 1;
                } else {
                    violations.push(SoakViolation {
                        invariant: "no-lost-ack".to_string(),
                        detail: format!(
                            "cell {}:{} was acknowledged to a client but is \
                             missing from the journal",
                            key.0, key.1
                        ),
                    });
                }
            }
            preserved
        }
        Err(e) => {
            violations.push(SoakViolation {
                invariant: "journal-resumable".to_string(),
                detail: format!("journal replay failed: {e}"),
            });
            0
        }
    }
}

/// Runs the full soak: load → `SIGKILL` → no-lost-ack audit → restart →
/// warm load → 2× overload under a queue monitor → graceful drain.
///
/// # Errors
///
/// Harness failures (unspawnable child, unusable scratch dir) are
/// [`BenchError::Io`]; *invariant* violations are not errors — they are
/// collected in the report for the caller to turn into exit code 12.
pub fn run_soak(config: &SoakConfig) -> Result<SoakReport, BenchError> {
    let binary = match &config.binary {
        Some(path) => path.clone(),
        None => std::env::current_exe()
            .map_err(|e| BenchError::Io(format!("cannot locate own binary: {e}")))?,
    };
    let plan = plan(config);
    let scratch = std::env::temp_dir().join(format!("critic_soak_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)
        .map_err(|e| BenchError::Io(format!("cannot create {}: {e}", scratch.display())))?;
    let journal = scratch.join("serve.jsonl");
    let store_dir = scratch.join("store");

    let mut report = SoakReport {
        queue_capacity: plan.queue_capacity,
        ..SoakReport::default()
    };

    // Phase 1: load, killed mid-way.
    let server = spawn_server(&binary, config, &plan, &journal, &store_dir, 0, true)?;
    let mut child = server.child;
    let addr = server.addr;
    let mut load_config = LoadgenConfig::new(&addr);
    load_config.clients = config.clients;
    load_config.requests_per_client = plan.requests_per_client;
    load_config.rate = config.rate;
    load_config.seed = config.seed;
    load_config.drain_timeout = Duration::from_secs(config.seconds.max(10) * 2);
    let load_outcome = if config.kill {
        let kill_after = plan.kill_after;
        let (outcome, killed) = thread::scope(|scope| {
            let load_config = &load_config;
            let loadgen = scope.spawn(move || run_loadgen(load_config));
            thread::sleep(kill_after);
            let killed = child.kill().is_ok();
            let _ = child.wait();
            (loadgen.join(), killed)
        });
        report.killed = killed;
        outcome
            .map_err(|_| BenchError::Io("loadgen thread panicked".to_string()))?
            .unwrap_or_default()
    } else {
        let outcome = run_loadgen(&load_config)?;
        send_shutdown(&addr);
        report.server_exit_code = child.wait().ok().and_then(|s| s.code());
        outcome
    };
    report.acked_before_kill = load_outcome.acked.len() as u64;
    report.phase_load = load_outcome.report.clone();
    if config.kill && report.acked_before_kill == 0 {
        report.violations.push(SoakViolation {
            invariant: "kill-mid-load".to_string(),
            detail: "the SIGKILL landed before any cell was acknowledged; \
                     the no-lost-ack check would be vacuous"
                .to_string(),
        });
    }

    // Between kill and restart: the dead server's journal must replay and
    // contain every acknowledged cell.
    report.acked_preserved =
        check_acked_against_journal(&journal, &load_outcome.acked, &mut report.violations);

    if !config.kill {
        let _ = std::fs::remove_dir_all(&scratch);
        return Ok(report);
    }

    // Restart (run tag 1, no fault noise) and warm the store back up with
    // the same mix: the disk tier must serve it.
    let server = spawn_server(&binary, config, &plan, &journal, &store_dir, 1, false)?;
    let mut child = server.child;
    let addr = server.addr;
    let mut warm_config = load_config.clone();
    warm_config.addrs = vec![addr.clone()];
    warm_config.requests_per_client = (plan.requests_per_client / 2).max(2);
    let warm_outcome = run_loadgen(&warm_config)?;
    report.phase_warm = warm_outcome.report.clone();
    if report.phase_warm.unanswered > 0 {
        report.violations.push(SoakViolation {
            invariant: "accounting".to_string(),
            detail: format!(
                "{} warm-phase submissions got neither a rejection nor a result",
                report.phase_warm.unanswered
            ),
        });
    }
    match fetch_stats(&addr) {
        Ok(stats) => {
            report.disk_hits_after_restart = stats.disk_hits;
            if stats.disk_hits == 0 {
                report.violations.push(SoakViolation {
                    invariant: "durable-warm".to_string(),
                    detail: "the restarted server reported zero disk hits; the \
                             persistent store served nothing"
                        .to_string(),
                });
            }
        }
        Err(e) => report.violations.push(SoakViolation {
            invariant: "durable-warm".to_string(),
            detail: format!("cannot fetch stats from the restarted server: {e}"),
        }),
    }

    // 2x overload under a continuous queue monitor: the queue must stay
    // bounded and the excess must be rejected with retry hints.
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicU64::new(0));
    let monitor = spawn_queue_monitor(addr.clone(), Arc::clone(&stop), Arc::clone(&peak));
    let mut overload_config = load_config.clone();
    overload_config.addrs = vec![addr.clone()];
    overload_config.clients = plan.overload_clients;
    overload_config.rate = plan.overload_rate;
    overload_config.requests_per_client = plan.overload_requests / plan.overload_clients.max(1);
    overload_config.seed = config.seed.wrapping_add(1);
    let overload_outcome = run_loadgen(&overload_config)?;
    stop.store(true, Ordering::SeqCst);
    let _ = monitor.join();
    report.phase_overload = overload_outcome.report.clone();
    report.peak_queue_depth = peak.load(Ordering::SeqCst);
    if report.peak_queue_depth > plan.queue_capacity {
        report.violations.push(SoakViolation {
            invariant: "bounded-queue".to_string(),
            detail: format!(
                "queue depth reached {} against a capacity of {}",
                report.peak_queue_depth, plan.queue_capacity
            ),
        });
    }
    if report.phase_overload.rejected == 0 {
        report.violations.push(SoakViolation {
            invariant: "overload-sheds".to_string(),
            detail: "2x overload produced zero rejections; admission control \
                     is not engaging"
                .to_string(),
        });
    } else if report.phase_overload.mean_retry_after_ms <= 0.0 {
        report.violations.push(SoakViolation {
            invariant: "overload-sheds".to_string(),
            detail: "rejections carried no retry_after hint".to_string(),
        });
    }
    if report.phase_overload.unanswered > 0 {
        report.violations.push(SoakViolation {
            invariant: "accounting".to_string(),
            detail: format!(
                "{} overload submissions got neither a rejection nor a result",
                report.phase_overload.unanswered
            ),
        });
    }

    // Graceful drain: the wire shutdown must end in exit code 9.
    send_shutdown(&addr);
    let status = child
        .wait()
        .map_err(|e| BenchError::Io(format!("cannot wait for serve child: {e}")))?;
    report.server_exit_code = status.code();
    if status.code() != Some(9) {
        report.violations.push(SoakViolation {
            invariant: "graceful-drain".to_string(),
            detail: format!(
                "expected exit code 9 after a graceful drain, got {:?}",
                status.code()
            ),
        });
    }

    // And the journal written across both lives still replays.
    if let Err(e) = Journal::replay(&journal, &Telemetry::off()) {
        report.violations.push(SoakViolation {
            invariant: "journal-resumable".to_string(),
            detail: format!("journal replay after the drain failed: {e}"),
        });
    }

    let _ = std::fs::remove_dir_all(&scratch);
    Ok(report)
}

// ---------------------------------------------------------------------------
// Sharded soak: kill one of N shards behind `critic router` mid-load.
// ---------------------------------------------------------------------------

/// One sharded-soak invocation's parameters (`critic soak --shards N`).
#[derive(Debug, Clone)]
pub struct ShardedSoakConfig {
    /// Approximate seconds of pre-kill load (the kill lands mid-way).
    pub seconds: u64,
    /// Concurrent loadgen clients.
    pub clients: usize,
    /// Open-loop submissions per second per client.
    pub rate: f64,
    /// Shard fleet size behind the router.
    pub shards: u32,
    /// Shrink everything for CI smoke and tests.
    pub smoke: bool,
    /// Seed for the loadgen mix.
    pub seed: u64,
    /// The `critic` binary to spawn the router (and, transitively, the
    /// shards) from; defaults to the current executable.
    pub binary: Option<PathBuf>,
    /// Failover p99 ceiling, milliseconds: the pre-kill load phase spans
    /// the kill, so its p99 *is* the failover p99.
    pub max_p99_ms: Option<f64>,
}

impl Default for ShardedSoakConfig {
    fn default() -> ShardedSoakConfig {
        ShardedSoakConfig {
            seconds: 30,
            clients: 6,
            rate: 4.0,
            shards: 3,
            smoke: false,
            seed: 0,
            binary: None,
            max_p99_ms: None,
        }
    }
}

/// The sharded-soak report; violations turn into exit code 13.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ShardedSoakReport {
    /// Every broken invariant (empty = pass).
    pub violations: Vec<SoakViolation>,
    /// Which shard was `SIGKILL`ed.
    pub killed_shard: Option<u32>,
    /// `done` replies clients observed strictly before the kill.
    pub acked_before_kill: u64,
    /// Of those, distinct (app, scheme) cells found across the shard
    /// journals afterwards.
    pub acked_preserved: u64,
    /// Artifacts the killed shard pulled from peers on restart (the
    /// disk-warm gate: must be > 0).
    pub fetched_artifacts: u64,
    /// Profiles + baselines built from scratch during the warm phase,
    /// summed over the fleet (the zero-re-simulation gate: must be 0).
    pub resimulated: u64,
    /// Router-counted shard restarts (must be ≥ 1).
    pub restarts: u64,
    /// Router-counted in-flight redispatches after the kill.
    pub redispatched: u64,
    /// p99 of the phase spanning the kill, milliseconds.
    pub failover_p99_ms: f64,
    /// (app, scheme) cells whose warm-phase metrics differed from the
    /// single-process oracle run (must be 0).
    pub oracle_mismatches: u64,
    /// Cells compared against the oracle.
    pub oracle_compared: u64,
    /// The router's exit code after the graceful drain (must be 9).
    pub router_exit_code: Option<i32>,
    /// Load phase spanning the kill.
    pub phase_load: LoadgenReport,
    /// Post-restore warm phase (replays the pre-kill acked mix).
    pub phase_warm: LoadgenReport,
    /// The single-process oracle run of the same mix.
    pub phase_single: LoadgenReport,
}

impl ShardedSoakReport {
    /// Did every invariant hold?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Spawns a long-lived `critic` child (router or single oracle serve) and
/// returns it with the address from its banner.
fn spawn_banner_child(binary: &std::path::Path, args: &[String]) -> Result<Server, BenchError> {
    let mut cmd = Command::new(binary);
    cmd.args(args);
    cmd.stdin(Stdio::null());
    cmd.stdout(Stdio::piped());
    cmd.stderr(Stdio::null());
    let mut child = cmd
        .spawn()
        .map_err(|e| BenchError::Io(format!("cannot spawn child: {e}")))?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| BenchError::Io("child has no stdout".to_string()))?;
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| BenchError::Io(format!("cannot read child banner: {e}")))?;
        if n == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err(BenchError::Io("child exited before its banner".to_string()));
        }
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.to_string();
        }
    };
    thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    Ok(Server { child, addr })
}

/// No-lost-ack across a fleet: every distinct (app, scheme) among `acked`
/// must be present in the union of the shard journals.
fn check_acked_against_journals(
    journals: &[PathBuf],
    acked: &[AckedCell],
    violations: &mut Vec<SoakViolation>,
) -> u64 {
    let keys: BTreeSet<(String, String)> = acked
        .iter()
        .map(|a| (a.app.clone(), a.scheme.clone()))
        .collect();
    let mut present: BTreeSet<(String, String)> = BTreeSet::new();
    for journal in journals {
        if !journal.exists() {
            continue;
        }
        match Journal::replay(journal, &Telemetry::off()) {
            Ok(replayed) => {
                for record in &replayed.records {
                    present.insert((record.app.clone(), record.scheme.clone()));
                }
            }
            Err(e) => violations.push(SoakViolation {
                invariant: "journal-resumable".to_string(),
                detail: format!("{} replay failed: {e}", journal.display()),
            }),
        }
    }
    let mut preserved = 0u64;
    for key in &keys {
        if present.contains(key) {
            preserved += 1;
        } else {
            violations.push(SoakViolation {
                invariant: "no-lost-ack".to_string(),
                detail: format!(
                    "cell {}:{} was acknowledged to a client but is missing \
                     from every shard journal",
                    key.0, key.1
                ),
            });
        }
    }
    preserved
}

/// Sum of persistent-store saves over every live shard — the fleet's
/// from-scratch build counter. (`profiles_built` would over-count: the
/// in-memory memo counts disk-warm loads as closure runs, so a freshly
/// restarted shard serving from disk would look like it re-simulated.
/// A save only happens on a genuine from-scratch build.)
fn fleet_builds(stats: &crate::router::RouterStats) -> u64 {
    stats
        .shards
        .iter()
        .filter_map(|row| row.addr.as_deref())
        .filter_map(|addr| fetch_stats(addr).ok())
        .map(|s| s.disk_saves)
        .sum()
}

/// Runs the kill-one-of-N sharded soak: load through the router →
/// `SIGKILL` one shard mid-load → router reroutes and restarts it with
/// peer rebuild → audit no-lost-ack across shard journals, disk-warm via
/// `fetched_artifacts`, zero re-simulation on a warm replay, bit-identical
/// metrics against a single-process oracle, and a graceful fleet drain.
///
/// # Errors
///
/// Harness failures are [`BenchError::Io`]; invariant violations go into
/// the report for the caller to turn into exit code 13.
pub fn run_sharded_soak(config: &ShardedSoakConfig) -> Result<ShardedSoakReport, BenchError> {
    let binary = match &config.binary {
        Some(path) => path.clone(),
        None => std::env::current_exe()
            .map_err(|e| BenchError::Io(format!("cannot locate own binary: {e}")))?,
    };
    let seconds = config.seconds.max(4);
    let trace_len = if config.smoke { 2_000 } else { 4_000 };
    let workers = if config.smoke { 2 } else { 4 };
    let admission_rate = ((config.clients as f64 * config.rate) as u64).max(4) * 2;
    let scratch = std::env::temp_dir().join(format!("critic_shard_soak_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)
        .map_err(|e| BenchError::Io(format!("cannot create {}: {e}", scratch.display())))?;
    let journal_dir = scratch.join("journals");
    let store_dir = scratch.join("stores");

    let mut report = ShardedSoakReport::default();

    // Boot the fleet.
    let router_args: Vec<String> = [
        "router",
        "--port",
        "0",
        "--shards",
        &config.shards.to_string(),
        "--heartbeat-ms",
        "50",
        "--trace-len",
        &trace_len.to_string(),
        "--workers",
        &workers.to_string(),
        "--queue",
        "64",
        "--rate",
        &admission_rate.to_string(),
        "--burst",
        &admission_rate.to_string(),
        "--stats",
    ]
    .into_iter()
    .map(String::from)
    .chain([
        "--journal-dir".to_string(),
        journal_dir.to_string_lossy().into_owned(),
        "--store-dir".to_string(),
        store_dir.to_string_lossy().into_owned(),
    ])
    .collect();
    let router = spawn_banner_child(&binary, &router_args)?;
    let mut router_child = router.child;
    let router_addr = router.addr;

    // Phase 1: load through the router, one shard SIGKILLed mid-way.
    let mut load_config = LoadgenConfig::new(&router_addr);
    load_config.clients = config.clients;
    load_config.requests_per_client = ((seconds as f64 * config.rate).ceil() as usize).max(4);
    load_config.rate = config.rate;
    load_config.seed = config.seed;
    load_config.retries = 3;
    load_config.drain_timeout = Duration::from_secs(seconds.max(10) * 2);
    let kill_after = Duration::from_secs(seconds / 2);
    let phase_start = std::time::Instant::now();
    let killed: Arc<std::sync::Mutex<Option<(u32, u64)>>> = Arc::new(std::sync::Mutex::new(None));
    let load_outcome = {
        let killed = Arc::clone(&killed);
        let router_addr = router_addr.clone();
        thread::scope(|scope| {
            let load_config = &load_config;
            let loadgen = scope.spawn(move || run_loadgen(load_config));
            thread::sleep(kill_after);
            if let Ok(stats) = crate::router::fetch_router_stats(&router_addr) {
                if let Some(row) = stats.shards.iter().find(|r| r.up && r.pid.is_some()) {
                    let pid = row.pid.unwrap_or_default();
                    // std::process cannot signal an arbitrary pid; /bin/kill
                    // delivers the SIGKILL the soak is about.
                    let delivered = Command::new("/bin/kill")
                        .args(["-9", &pid.to_string()])
                        .status()
                        .map(|s| s.success())
                        .unwrap_or(false);
                    if delivered {
                        *killed
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner) =
                            Some((row.shard, phase_start.elapsed().as_millis() as u64));
                    }
                }
            }
            loadgen.join()
        })
        .map_err(|_| BenchError::Io("loadgen thread panicked".to_string()))?
        .unwrap_or_default()
    };
    let killed = killed
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take();
    report.phase_load = load_outcome.report.clone();
    report.failover_p99_ms = report.phase_load.p99_ms;
    let Some((killed_shard, kill_offset_ms)) = killed else {
        report.violations.push(SoakViolation {
            invariant: "kill-mid-load".to_string(),
            detail: "could not SIGKILL a shard mid-load".to_string(),
        });
        send_shutdown(&router_addr);
        let _ = router_child.wait();
        let _ = std::fs::remove_dir_all(&scratch);
        return Ok(report);
    };
    report.killed_shard = Some(killed_shard);

    // Only acks that landed comfortably before the kill are known to have
    // completed while every shard was up; the 250 ms margin absorbs the
    // clock skew between the soak's phase timer and loadgen's epoch.
    let acked_before_kill: Vec<AckedCell> = load_outcome
        .acked
        .iter()
        .filter(|a| a.acked_at_ms + 250 < kill_offset_ms)
        .cloned()
        .collect();
    report.acked_before_kill = acked_before_kill.len() as u64;
    if report.acked_before_kill == 0 {
        report.violations.push(SoakViolation {
            invariant: "kill-mid-load".to_string(),
            detail: "the SIGKILL landed before any cell was acknowledged; \
                     the no-lost-ack check would be vacuous"
                .to_string(),
        });
    }
    if report.phase_load.unanswered > 0 {
        report.violations.push(SoakViolation {
            invariant: "accounting".to_string(),
            detail: format!(
                "{} load-phase submissions got neither a rejection nor a result \
                 across the kill",
                report.phase_load.unanswered
            ),
        });
    }

    // No-lost-ack across the union of shard journals: the kill must not
    // have eaten anything a client saw acknowledged.
    let journals: Vec<PathBuf> = (0..config.shards)
        .map(|s| journal_dir.join(format!("shard-{s}.jsonl")))
        .collect();
    report.acked_preserved =
        check_acked_against_journals(&journals, &acked_before_kill, &mut report.violations);

    // Wait for the router to restore the killed shard (backoff restart +
    // peer rebuild both happen before its banner).
    let restore_deadline = std::time::Instant::now() + Duration::from_secs(60);
    let mut fleet = None;
    while std::time::Instant::now() < restore_deadline {
        if let Ok(stats) = crate::router::fetch_router_stats(&router_addr) {
            if stats.shards.iter().all(|r| r.up) && stats.restarts >= 1 {
                fleet = Some(stats);
                break;
            }
        }
        thread::sleep(Duration::from_millis(50));
    }
    let Some(fleet) = fleet else {
        report.violations.push(SoakViolation {
            invariant: "shard-restart".to_string(),
            detail: "the killed shard did not come back up within 60 s".to_string(),
        });
        send_shutdown(&router_addr);
        let _ = router_child.wait();
        let _ = std::fs::remove_dir_all(&scratch);
        return Ok(report);
    };
    report.restarts = fleet.restarts;
    report.redispatched = fleet.redispatched;

    // Disk-warm gate: the restarted shard must have pulled artifacts from
    // its peers, not come back cold.
    let killed_addr = fleet
        .shards
        .iter()
        .find(|r| r.shard == killed_shard)
        .and_then(|r| r.addr.clone());
    match killed_addr.as_deref().map(fetch_stats) {
        Some(Ok(stats)) => {
            report.fetched_artifacts = stats.fetched_artifacts;
            if stats.fetched_artifacts == 0 {
                report.violations.push(SoakViolation {
                    invariant: "peer-rebuild".to_string(),
                    detail: "the restarted shard fetched zero artifacts from \
                             its peers"
                        .to_string(),
                });
            }
        }
        _ => report.violations.push(SoakViolation {
            invariant: "peer-rebuild".to_string(),
            detail: "cannot fetch stats from the restarted shard".to_string(),
        }),
    }

    // Warm replay of exactly the pre-kill acked mix: the fleet must serve
    // it all from disk — zero profiles or baselines built from scratch.
    let mut pairs: Vec<(String, String)> = acked_before_kill
        .iter()
        .map(|a| (a.app.clone(), a.scheme.clone()))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    pairs.sort();
    let builds_before = fleet_builds(&fleet);
    let mut warm_config = load_config.clone();
    warm_config.pairs = pairs.clone();
    warm_config.requests_per_client = (pairs.len() * 2).clamp(4, 64);
    warm_config.seed = config.seed.wrapping_add(1);
    let warm_outcome = run_loadgen(&warm_config)?;
    report.phase_warm = warm_outcome.report.clone();
    if report.phase_warm.unanswered > 0 {
        report.violations.push(SoakViolation {
            invariant: "accounting".to_string(),
            detail: format!(
                "{} warm-phase submissions got neither a rejection nor a result",
                report.phase_warm.unanswered
            ),
        });
    }
    let builds_after = match crate::router::fetch_router_stats(&router_addr) {
        Ok(stats) => fleet_builds(&stats),
        Err(_) => builds_before,
    };
    report.resimulated = builds_after.saturating_sub(builds_before);
    if report.resimulated > 0 {
        report.violations.push(SoakViolation {
            invariant: "no-resimulation".to_string(),
            detail: format!(
                "{} profiles/baselines were rebuilt from scratch while \
                 replaying cells journaled Ok before the kill",
                report.resimulated
            ),
        });
    }

    // Bit-identical oracle: a fresh single-process server running the same
    // mix must produce exactly the same metrics per (app, scheme).
    let oracle_args: Vec<String> = [
        "serve",
        "--port",
        "0",
        "--trace-len",
        &trace_len.to_string(),
        "--workers",
        &workers.to_string(),
        "--queue",
        "64",
        "--rate",
        &admission_rate.to_string(),
        "--burst",
        &admission_rate.to_string(),
    ]
    .into_iter()
    .map(String::from)
    .chain([
        "--journal".to_string(),
        scratch.join("oracle.jsonl").to_string_lossy().into_owned(),
        "--store-dir".to_string(),
        scratch.join("oracle-store").to_string_lossy().into_owned(),
    ])
    .collect();
    let oracle = spawn_banner_child(&binary, &oracle_args)?;
    let mut oracle_child = oracle.child;
    let mut oracle_config = warm_config.clone();
    oracle_config.addrs = vec![oracle.addr.clone()];
    let oracle_outcome = run_loadgen(&oracle_config)?;
    report.phase_single = oracle_outcome.report.clone();
    let mut sharded_metrics = std::collections::HashMap::new();
    for cell in warm_outcome
        .acked
        .iter()
        .filter(|a| a.degraded == 0 && a.metrics.is_some())
    {
        sharded_metrics.insert(
            (cell.app.clone(), cell.scheme.clone()),
            cell.metrics.clone(),
        );
    }
    for cell in oracle_outcome
        .acked
        .iter()
        .filter(|a| a.degraded == 0 && a.metrics.is_some())
    {
        let key = (cell.app.clone(), cell.scheme.clone());
        if let Some(sharded) = sharded_metrics.get(&key) {
            report.oracle_compared += 1;
            if *sharded != cell.metrics {
                report.oracle_mismatches += 1;
                report.violations.push(SoakViolation {
                    invariant: "bit-identical".to_string(),
                    detail: format!(
                        "cell {}:{} differs between the sharded fleet and a \
                         single-process run of the same mix",
                        key.0, key.1
                    ),
                });
            }
        }
    }
    if report.oracle_compared == 0 {
        report.violations.push(SoakViolation {
            invariant: "bit-identical".to_string(),
            detail: "no cell could be compared against the single-process \
                     oracle"
                .to_string(),
        });
    }
    send_shutdown(&oracle.addr);
    let _ = oracle_child.wait();

    // Failover p99 gate, when asked for.
    if let Some(ceiling) = config.max_p99_ms {
        if report.failover_p99_ms > ceiling {
            report.violations.push(SoakViolation {
                invariant: "failover-p99".to_string(),
                detail: format!(
                    "p99 across the kill was {:.1} ms against a {ceiling:.1} ms \
                     ceiling",
                    report.failover_p99_ms
                ),
            });
        }
    }

    // Graceful fleet drain: shards checkpoint and exit 9, then the router
    // exits 9.
    send_shutdown(&router_addr);
    let status = router_child
        .wait()
        .map_err(|e| BenchError::Io(format!("cannot wait for router child: {e}")))?;
    report.router_exit_code = status.code();
    if status.code() != Some(9) {
        report.violations.push(SoakViolation {
            invariant: "graceful-drain".to_string(),
            detail: format!(
                "expected router exit code 9 after a graceful drain, got {:?}",
                status.code()
            ),
        });
    }

    let _ = std::fs::remove_dir_all(&scratch);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_scales_overload_to_double_the_admission_rate() {
        let config = SoakConfig {
            clients: 8,
            rate: 4.0,
            ..SoakConfig::default()
        };
        let plan = plan(&config);
        assert_eq!(plan.admission_rate, 64);
        let total_overload = plan.overload_rate * plan.overload_clients as f64;
        assert!(
            (total_overload - 2.0 * plan.admission_rate as f64).abs() < 1e-6,
            "overload must be 2x the token rate, got {total_overload}"
        );
        assert!(plan.requests_per_client >= 2);
    }

    #[test]
    fn acked_audit_flags_missing_cells() {
        let dir = std::env::temp_dir().join(format!("critic_soak_audit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch");
        let journal = dir.join("j.jsonl");
        std::fs::write(&journal, "").expect("touch");
        let acked = vec![AckedCell {
            id: 1,
            app: "Acrobat".into(),
            scheme: "critic".into(),
            status: critic_core::campaign::CellStatus::Ok,
            acked_at_ms: 0,
            degraded: 0,
            metrics: None,
        }];
        let mut violations = Vec::new();
        let preserved = check_acked_against_journal(&journal, &acked, &mut violations);
        assert_eq!(preserved, 0);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].invariant, "no-lost-ack");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
