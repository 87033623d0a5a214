//! The sharded front tier behind `critic router`: one process that owns
//! the client-facing listener, places every submission on a shard via the
//! consistent-hash ring ([`critic_core::ring`]), and supervises N
//! `critic serve` shard children.
//!
//! Responsibilities, in the order a request meets them:
//!
//! 1. **Placement.** Each `submit` hashes to
//!    [`placement_key`]`(app, scheme)` and goes to the first *live* shard
//!    in [`HashRing::successors`] order. A dead owner's keyspace spills
//!    onto its ring successors — no designated backup, no reshuffle.
//! 2. **Supervision.** A supervisor thread heartbeats every shard over
//!    the multiplexed shard connection, reaps exited children, and
//!    restarts dead shards with exponential backoff. A restarted shard is
//!    handed `--peers` (the live shards' addresses) so it rebuilds its
//!    disk from them *before* binding — the router marks it up only once
//!    its banner prints, by which point it is disk-warm.
//! 3. **Rerouting.** Submissions in flight on a shard when it dies are
//!    redispatched to the next live successor; when no shard is live the
//!    client gets an honest `rejected` whose `retry_after_ms` is the time
//!    until the earliest scheduled restart attempt, not a made-up number.
//! 4. **Identity.** Clients keep their own correlation ids; the router
//!    rewrites them to globally-unique ids shard-side and maps replies
//!    back, so two clients using id 1 never collide on one shard.
//!
//! The router speaks the same line-JSON protocol as `critic serve`
//! ([`crate::serve`]), so `critic loadgen` points at a router unchanged.
//! Two extra verbs exist for operators and the sharded soak:
//! `{"router_stats":true}` answers with per-shard status plus routing
//! counters, and `{"shutdown":true}` drains the whole fleet (each shard
//! checkpoints and exits 9, then the router exits 9).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use critic_core::ring::{placement_key, HashRing, DEFAULT_VNODES};
use serde::{Deserialize, Serialize};

use crate::serve::{
    parse_reply, AcceptedReply, DoneBody, DoneReply, IdBody, PingRequest, PongReply, RejectedBody,
    RejectedReply, Reply, ShutdownRequest, StatsRequest, SubmitBody, SubmitRequest,
};
use crate::wire;

/// `{"router_stats":true}` — ask the router for shard status and routing
/// counters. Distinct from `{"stats":true}` (which a router also answers,
/// with the same reply) so scripts can be explicit about which tier they
/// expect to be talking to.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterStatsRequest {
    /// Always `true`; the key is the request.
    pub router_stats: bool,
}

/// `{"router_stats_reply":{...}}` — answer to a [`RouterStatsRequest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterStatsReply {
    /// The stats body.
    pub router_stats_reply: RouterStats,
}

/// Router-side counters and per-shard status.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RouterStats {
    /// One row per shard.
    pub shards: Vec<ShardRow>,
    /// Submissions forwarded to a shard (including redispatches).
    pub forwarded: u64,
    /// Submissions placed on a non-owner because the owner was down.
    pub rerouted: u64,
    /// In-flight submissions moved to a successor after a shard died.
    pub redispatched: u64,
    /// Submissions rejected because no shard was live.
    pub rejected_no_shard: u64,
    /// Shard restarts performed.
    pub restarts: u64,
}

/// One shard's status as the router sees it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardRow {
    /// The shard id (its position on the ring).
    pub shard: u32,
    /// Where it is listening, when up.
    pub addr: Option<String>,
    /// Its OS pid, when up (what a chaos harness kills).
    pub pid: Option<u32>,
    /// Whether the router considers it live.
    pub up: bool,
    /// How many times this shard has been (re)started; the shard's
    /// journal run-tag is `shard * 1000 + generation`.
    pub generation: u64,
}

/// Everything `critic router` needs to run a fleet.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Client-facing port (0 = ephemeral; the banner names the real one).
    pub port: u16,
    /// Number of shard children.
    pub shards: u32,
    /// Virtual nodes per shard on the placement ring.
    pub vnodes: u32,
    /// The `critic` binary to spawn shards from.
    pub binary: PathBuf,
    /// Directory for per-shard journals (`shard-<i>.jsonl`).
    pub journal_dir: PathBuf,
    /// Directory for per-shard persistent stores (`shard-<i>/`).
    pub store_dir: PathBuf,
    /// Extra `critic serve` arguments passed to every shard verbatim
    /// (trace length, admission knobs, ...). The router appends its own
    /// `--port 0 --shard N --run-tag T --journal ... --store-dir ...
    /// --peers ...` after these.
    pub shard_args: Vec<String>,
    /// Heartbeat interval, milliseconds.
    pub heartbeat_ms: u64,
    /// First restart backoff, milliseconds; doubles per consecutive
    /// failure up to `backoff_cap_ms`, resets on a successful start.
    pub backoff_base_ms: u64,
    /// Restart backoff ceiling, milliseconds.
    pub backoff_cap_ms: u64,
}

impl RouterConfig {
    /// A 3-shard fleet with the default ring and supervision cadence.
    pub fn new(binary: PathBuf, journal_dir: PathBuf, store_dir: PathBuf) -> RouterConfig {
        RouterConfig {
            port: 0,
            shards: 3,
            vnodes: DEFAULT_VNODES,
            binary,
            journal_dir,
            store_dir,
            shard_args: Vec::new(),
            heartbeat_ms: 100,
            backoff_base_ms: 200,
            backoff_cap_ms: 3_200,
        }
    }
}

/// What one router session handled, returned by [`run_router`] after the
/// fleet drains.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RouterSummary {
    /// Client connections accepted.
    pub connections: u64,
    /// Failed `accept` calls the loop backed off from and survived.
    pub accept_errors: u64,
    /// Final routing counters.
    pub stats: RouterStats,
}

/// One submission the router has forwarded and not yet answered.
struct RouteEntry {
    /// The client connection to answer on.
    client: wire::SharedWriter,
    /// The client's own correlation id.
    orig_id: u64,
    /// The submission body (kept for redispatch after a shard death).
    body: SubmitBody,
    /// Which shard currently holds it.
    shard: u32,
}

/// Mutable per-shard supervision state.
struct ShardState {
    up: bool,
    addr: Option<String>,
    pid: Option<u32>,
    generation: u64,
    /// The router's multiplexed connection to the shard, when up.
    conn: Option<wire::SharedWriter>,
    child: Option<Child>,
    /// Earliest next restart attempt, when down.
    next_attempt: Instant,
    backoff_ms: u64,
    /// Last reply (any reply) seen on the shard connection.
    last_seen: Instant,
}

/// The shared router state: ring, shard slots, in-flight routes, counters.
struct Fabric {
    config: RouterConfig,
    ring: HashRing,
    slots: Vec<Mutex<ShardState>>,
    routes: Mutex<HashMap<u64, RouteEntry>>,
    next_gid: AtomicU64,
    draining: AtomicBool,
    forwarded: AtomicU64,
    rerouted: AtomicU64,
    redispatched: AtomicU64,
    rejected_no_shard: AtomicU64,
    restarts: AtomicU64,
}

impl Fabric {
    fn new(config: RouterConfig) -> Arc<Fabric> {
        let ring = HashRing::new(0..config.shards, config.vnodes);
        let now = Instant::now();
        let slots = (0..config.shards)
            .map(|_| {
                Mutex::new(ShardState {
                    up: false,
                    addr: None,
                    pid: None,
                    generation: 0,
                    conn: None,
                    child: None,
                    next_attempt: now,
                    backoff_ms: config.backoff_base_ms,
                    last_seen: now,
                })
            })
            .collect();
        Arc::new(Fabric {
            config,
            ring,
            slots,
            routes: Mutex::new(HashMap::new()),
            next_gid: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            forwarded: AtomicU64::new(0),
            rerouted: AtomicU64::new(0),
            redispatched: AtomicU64::new(0),
            rejected_no_shard: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
        })
    }

    fn slot(&self, shard: u32) -> std::sync::MutexGuard<'_, ShardState> {
        self.slots[shard as usize]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn routes(&self) -> std::sync::MutexGuard<'_, HashMap<u64, RouteEntry>> {
        self.routes
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The live connection to `shard`, or `None` while it is down.
    fn conn(&self, shard: u32) -> Option<wire::SharedWriter> {
        let state = self.slot(shard);
        if state.up {
            state.conn.clone()
        } else {
            None
        }
    }

    /// Addresses of every live shard except `not` (the peer list handed
    /// to a restarting shard).
    fn live_addrs_except(&self, not: u32) -> Vec<String> {
        (0..self.config.shards)
            .filter(|s| *s != not)
            .filter_map(|s| {
                let state = self.slot(s);
                if state.up {
                    state.addr.clone()
                } else {
                    None
                }
            })
            .collect()
    }

    /// Milliseconds until the earliest scheduled restart attempt — the
    /// honest `retry_after_ms` when no shard can take a submission.
    fn retry_hint_ms(&self) -> u64 {
        let now = Instant::now();
        let mut hint = self.config.heartbeat_ms.max(25);
        for shard in 0..self.config.shards {
            let state = self.slot(shard);
            if !state.up {
                let wait = state
                    .next_attempt
                    .saturating_duration_since(now)
                    .as_millis() as u64;
                hint = hint.max(25).min(wait.max(25));
            }
        }
        hint
    }

    fn stats(&self) -> RouterStats {
        let shards = (0..self.config.shards)
            .map(|shard| {
                let state = self.slot(shard);
                ShardRow {
                    shard,
                    addr: state.addr.clone(),
                    pid: state.pid,
                    up: state.up,
                    generation: state.generation,
                }
            })
            .collect();
        RouterStats {
            shards,
            forwarded: self.forwarded.load(Ordering::Relaxed),
            rerouted: self.rerouted.load(Ordering::Relaxed),
            redispatched: self.redispatched.load(Ordering::Relaxed),
            rejected_no_shard: self.rejected_no_shard.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
        }
    }
}

/// Spawns shard `shard` (generation `state.generation + 1`), waits for its
/// banner, connects, and starts its reply-reader thread. Called with the
/// slot *unlocked*; locks it only to commit the new state.
fn spawn_shard(fabric: &Arc<Fabric>, shard: u32) -> std::io::Result<()> {
    let generation = {
        let state = fabric.slot(shard);
        state.generation + 1
    };
    let run_tag = u64::from(shard) * 1_000 + generation;
    let journal = fabric
        .config
        .journal_dir
        .join(format!("shard-{shard}.jsonl"));
    let store = fabric.config.store_dir.join(format!("shard-{shard}"));
    let peers = fabric.live_addrs_except(shard);

    let mut command = Command::new(&fabric.config.binary);
    command.arg("serve");
    command.args(&fabric.config.shard_args);
    command.args(["--port", "0"]);
    command.args(["--shard", &shard.to_string()]);
    command.args(["--run-tag", &run_tag.to_string()]);
    command.args(["--journal", &journal.to_string_lossy()]);
    command.args(["--store-dir", &store.to_string_lossy()]);
    if !peers.is_empty() {
        command.args(["--peers", &peers.join(",")]);
    }
    command.stdin(Stdio::null());
    command.stdout(Stdio::piped());
    command.stderr(Stdio::inherit());
    let mut child = command.spawn()?;
    let pid = child.id();

    // The shard prints its banner only after peer rebuild and bind, so a
    // banner means "up and disk-warm". A child that dies first gives EOF.
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| std::io::Error::other("shard stdout not piped"))?;
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("shard {shard} exited before its banner"),
            ));
        }
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.to_string();
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    thread::spawn(move || {
        let mut sink = String::new();
        loop {
            sink.clear();
            match reader.read_line(&mut sink) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
        }
    });

    let stream = wire::connect(&addr)?;
    let read_half = stream.try_clone()?;
    let conn = Arc::new(Mutex::new(stream));
    {
        let mut state = fabric.slot(shard);
        state.up = true;
        state.addr = Some(addr);
        state.pid = Some(pid);
        state.generation = generation;
        state.conn = Some(Arc::clone(&conn));
        state.child = Some(child);
        state.backoff_ms = fabric.config.backoff_base_ms;
        state.last_seen = Instant::now();
    }
    if generation > 1 {
        fabric.restarts.fetch_add(1, Ordering::Relaxed);
    }

    let fabric = Arc::clone(fabric);
    thread::spawn(move || shard_reader(&fabric, shard, generation, read_half));
    Ok(())
}

/// The reply-reader for one shard connection: maps `accepted` /
/// `rejected` / `done` back to the owning client, records heartbeat
/// answers, and declares the shard dead on EOF.
fn shard_reader(fabric: &Arc<Fabric>, shard: u32, generation: u64, stream: TcpStream) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let Some(reply) = parse_reply(&line) else {
            continue;
        };
        {
            let mut state = fabric.slot(shard);
            if state.generation != generation {
                return; // a newer incarnation owns this slot
            }
            state.last_seen = Instant::now();
        }
        // Every branch copies what it needs out of the routes map before
        // writing to the client: a slow client must never block the map.
        match reply {
            Reply::Accepted(IdBody { id }) => {
                let target = {
                    let routes = fabric.routes();
                    routes
                        .get(&id)
                        .map(|entry| (Arc::clone(&entry.client), entry.orig_id))
                };
                if let Some((client, orig_id)) = target {
                    wire::send(
                        &client,
                        &AcceptedReply {
                            accepted: IdBody { id: orig_id },
                        },
                    );
                }
            }
            Reply::Rejected(body) => {
                let entry = fabric.routes().remove(&body.id);
                if let Some(entry) = entry {
                    wire::send(
                        &entry.client,
                        &RejectedReply {
                            rejected: RejectedBody {
                                id: entry.orig_id,
                                reason: body.reason,
                                retry_after_ms: body.retry_after_ms,
                            },
                        },
                    );
                }
            }
            Reply::Done(done) => {
                let entry = fabric.routes().remove(&done.id);
                if let Some(entry) = entry {
                    wire::send(
                        &entry.client,
                        &DoneReply {
                            done: DoneBody {
                                id: entry.orig_id,
                                record: done.record,
                            },
                        },
                    );
                }
            }
            // Heartbeat / stats / pong answers only refresh `last_seen`.
            _ => {}
        }
    }
    mark_down(fabric, shard, generation);
}

/// Declares shard `shard` (incarnation `generation`) dead: schedules the
/// backoff restart, reaps the child, and redispatches its in-flight
/// submissions to ring successors. Idempotent per incarnation.
fn mark_down(fabric: &Arc<Fabric>, shard: u32, generation: u64) {
    {
        let mut state = fabric.slot(shard);
        if state.generation != generation || !state.up {
            return;
        }
        state.up = false;
        state.addr = None;
        state.pid = None;
        state.conn = None;
        state.next_attempt = Instant::now() + Duration::from_millis(state.backoff_ms);
        state.backoff_ms = (state.backoff_ms * 2).min(fabric.config.backoff_cap_ms);
        if let Some(mut child) = state.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    if !fabric.draining.load(Ordering::SeqCst) {
        redispatch_orphans(fabric, shard);
    }
}

/// Moves every in-flight submission owned by dead `shard` to the next
/// live ring successor, or rejects it honestly when nobody is live.
fn redispatch_orphans(fabric: &Arc<Fabric>, shard: u32) {
    let orphans: Vec<u64> = fabric
        .routes()
        .iter()
        .filter(|(_, entry)| entry.shard == shard)
        .map(|(gid, _)| *gid)
        .collect();
    for gid in orphans {
        let Some(mut entry) = fabric.routes().remove(&gid) else {
            continue;
        };
        let key = placement_key(&entry.body.app, &entry.body.scheme);
        let target = fabric
            .ring
            .successors(key)
            .into_iter()
            .find_map(|s| fabric.conn(s).map(|conn| (s, conn)));
        match target {
            Some((next, conn)) => {
                entry.shard = next;
                let request = SubmitRequest {
                    submit: SubmitBody {
                        id: gid,
                        ..entry.body.clone()
                    },
                };
                fabric.routes().insert(gid, entry);
                if wire::send(&conn, &request) {
                    fabric.redispatched.fetch_add(1, Ordering::Relaxed);
                }
                // On a failed write the successor is dying too; the route
                // now points at it, so its own mark_down redispatches
                // again or rejects.
            }
            None => {
                fabric.rejected_no_shard.fetch_add(1, Ordering::Relaxed);
                wire::send(
                    &entry.client,
                    &RejectedReply {
                        rejected: RejectedBody {
                            id: entry.orig_id,
                            reason: "no live shard".to_string(),
                            retry_after_ms: fabric.retry_hint_ms(),
                        },
                    },
                );
            }
        }
    }
}

/// Places one client submission: first live shard in successor order.
fn forward_submit(fabric: &Arc<Fabric>, client: &wire::SharedWriter, body: SubmitBody) {
    if fabric.draining.load(Ordering::SeqCst) {
        wire::send(
            client,
            &RejectedReply {
                rejected: RejectedBody {
                    id: body.id,
                    reason: "draining".to_string(),
                    retry_after_ms: 1_000,
                },
            },
        );
        return;
    }
    let key = placement_key(&body.app, &body.scheme);
    let successors = fabric.ring.successors(key);
    let owner = successors.first().copied();
    for shard in successors {
        let Some(conn) = fabric.conn(shard) else {
            continue;
        };
        let gid = fabric.next_gid.fetch_add(1, Ordering::Relaxed);
        let entry = RouteEntry {
            client: Arc::clone(client),
            orig_id: body.id,
            body: body.clone(),
            shard,
        };
        fabric.routes().insert(gid, entry);
        let request = SubmitRequest {
            submit: SubmitBody {
                id: gid,
                ..body.clone()
            },
        };
        if wire::send(&conn, &request) {
            fabric.forwarded.fetch_add(1, Ordering::Relaxed);
            if owner != Some(shard) {
                fabric.rerouted.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        // Write failed: the shard is dying. Drop the route (no reply came
        // or will come for this gid) and try the next successor.
        fabric.routes().remove(&gid);
    }
    fabric.rejected_no_shard.fetch_add(1, Ordering::Relaxed);
    wire::send(
        client,
        &RejectedReply {
            rejected: RejectedBody {
                id: body.id,
                reason: "no live shard".to_string(),
                retry_after_ms: fabric.retry_hint_ms(),
            },
        },
    );
}

/// One client connection's request loop on the router.
fn handle_router_client(fabric: &Arc<Fabric>, stream: TcpStream, shutdown: &Arc<AtomicBool>) {
    wire::read_lines(stream, |writer, text| {
        if let Ok(request) = serde_json::from_str::<SubmitRequest>(text) {
            forward_submit(fabric, writer, request.submit);
        } else if serde_json::from_str::<RouterStatsRequest>(text).is_ok()
            || serde_json::from_str::<StatsRequest>(text).is_ok()
        {
            wire::send(
                writer,
                &RouterStatsReply {
                    router_stats_reply: fabric.stats(),
                },
            );
        } else if serde_json::from_str::<PingRequest>(text).is_ok() {
            wire::send(writer, &PongReply { pong: true });
        } else if serde_json::from_str::<ShutdownRequest>(text).is_ok() {
            shutdown.store(true, Ordering::SeqCst);
            wire::send(writer, &crate::serve::DrainingReply { draining: true });
        } else {
            wire::send(
                writer,
                &crate::serve::ErrorReply {
                    error: format!("unparseable request: {text}"),
                },
            );
        }
    });
}

/// The supervisor tick: heartbeat live shards, reap exited children,
/// restart dead shards whose backoff has elapsed.
fn supervise(fabric: &Arc<Fabric>) {
    let stale_after = Duration::from_millis(fabric.config.heartbeat_ms.max(1) * 20);
    loop {
        if fabric.draining.load(Ordering::SeqCst) {
            return;
        }
        for shard in 0..fabric.config.shards {
            let (up, generation, conn, stale, exited) = {
                let mut state = fabric.slot(shard);
                let exited = state
                    .child
                    .as_mut()
                    .and_then(|c| c.try_wait().ok().flatten())
                    .is_some();
                (
                    state.up,
                    state.generation,
                    state.conn.clone(),
                    state.last_seen.elapsed() > stale_after,
                    exited,
                )
            };
            if up {
                if exited || stale {
                    mark_down(fabric, shard, generation);
                } else if let Some(conn) = conn {
                    if !wire::send(&conn, &crate::serve::HeartbeatRequest { heartbeat: true }) {
                        mark_down(fabric, shard, generation);
                    }
                }
            } else {
                let due = {
                    let state = fabric.slot(shard);
                    Instant::now() >= state.next_attempt
                };
                if due && spawn_shard(fabric, shard).is_err() {
                    let mut state = fabric.slot(shard);
                    state.next_attempt = Instant::now() + Duration::from_millis(state.backoff_ms);
                    state.backoff_ms = (state.backoff_ms * 2).min(fabric.config.backoff_cap_ms);
                }
            }
        }
        thread::sleep(Duration::from_millis(fabric.config.heartbeat_ms.max(1)));
    }
}

/// Runs the router: spawns the fleet, binds the client listener, prints
/// `listening on ADDR`, serves until `SIGTERM` or a wire `shutdown`, then
/// drains the fleet (every shard checkpoints and exits 9) and returns.
///
/// # Errors
///
/// Returns the bind error or a fleet-boot error (no shard came up)
/// verbatim; individual shard deaths after boot are handled, not errors.
pub fn run_router(config: RouterConfig) -> std::io::Result<RouterSummary> {
    std::fs::create_dir_all(&config.journal_dir)?;
    std::fs::create_dir_all(&config.store_dir)?;
    let listener = TcpListener::bind(("127.0.0.1", config.port))?;
    let addr = listener.local_addr()?;
    let fabric = Fabric::new(config);

    let mut boot_errors = Vec::new();
    for shard in 0..fabric.config.shards {
        if let Err(e) = spawn_shard(&fabric, shard) {
            boot_errors.push(format!("shard {shard}: {e}"));
        }
    }
    if boot_errors.len() == fabric.config.shards as usize {
        return Err(std::io::Error::other(format!(
            "no shard came up: {}",
            boot_errors.join("; ")
        )));
    }

    println!("listening on {addr}");
    let _ = std::io::stdout().flush();

    let supervisor = {
        let fabric = Arc::clone(&fabric);
        thread::spawn(move || supervise(&fabric))
    };

    let shutdown = Arc::new(AtomicBool::new(false));
    let connections = wire::accept_loop(
        &listener,
        || crate::serve::TERM.load(Ordering::SeqCst) || shutdown.load(Ordering::SeqCst),
        {
            let (fabric, shutdown) = (Arc::clone(&fabric), Arc::clone(&shutdown));
            move |stream, _client| handle_router_client(&fabric, stream, &shutdown)
        },
    );

    // Drain: stop supervision, ask every live shard to drain, wait for
    // the in-flight routes to flush (shards finish queued cells before
    // cutting streams), then reap children and cut client connections.
    fabric.draining.store(true, Ordering::SeqCst);
    let _ = supervisor.join();
    for shard in 0..fabric.config.shards {
        if let Some(conn) = fabric.conn(shard) {
            wire::send(&conn, &ShutdownRequest { shutdown: true });
        }
    }
    let flush_deadline = Instant::now() + Duration::from_secs(60);
    while !fabric.routes().is_empty() && Instant::now() < flush_deadline {
        thread::sleep(Duration::from_millis(20));
    }
    for shard in 0..fabric.config.shards {
        let mut state = fabric.slot(shard);
        if let Some(mut child) = state.child.take() {
            let reap_deadline = Instant::now() + Duration::from_secs(30);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < reap_deadline => {
                        thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        state.up = false;
        state.conn = None;
    }
    let summary = RouterSummary {
        connections: connections.accepted,
        accept_errors: connections.accept_errors,
        stats: fabric.stats(),
    };
    connections.close();
    eprintln!(
        "critic router: drained after {} connection(s) ({} accept error(s)), {} forwarded, {} redispatched, {} restarts",
        summary.connections,
        summary.accept_errors,
        summary.stats.forwarded,
        summary.stats.redispatched,
        summary.stats.restarts
    );
    Ok(summary)
}

/// Blocking client-side helper: fetch [`RouterStats`] over `addr`.
///
/// # Errors
///
/// Propagates connect/IO errors; EOF before a stats reply is
/// `UnexpectedEof`.
pub fn fetch_router_stats(addr: &str) -> std::io::Result<RouterStats> {
    wire::Client::connect(addr, Some(Duration::from_secs(10)))?.request_reply(
        &RouterStatsRequest { router_stats: true },
        |line| {
            serde_json::from_str::<RouterStatsReply>(line)
                .ok()
                .map(|reply| reply.router_stats_reply)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_stats_round_trip_and_stay_disjoint() {
        let reply = RouterStatsReply {
            router_stats_reply: RouterStats {
                shards: vec![ShardRow {
                    shard: 0,
                    addr: Some("127.0.0.1:1".into()),
                    pid: Some(42),
                    up: true,
                    generation: 1,
                }],
                forwarded: 7,
                rerouted: 1,
                redispatched: 2,
                rejected_no_shard: 0,
                restarts: 3,
            },
        };
        let line = serde_json::to_string(&reply).expect("serialise");
        let back: RouterStatsReply = serde_json::from_str(&line).expect("deserialise");
        assert_eq!(back.router_stats_reply.forwarded, 7);
        assert_eq!(back.router_stats_reply.shards[0].pid, Some(42));
        // A router stats reply is not any serve-tier reply.
        assert!(crate::serve::parse_reply(&line).is_none());
    }

    #[test]
    fn retry_hint_tracks_the_earliest_restart() {
        let config = RouterConfig::new(
            PathBuf::from("/bin/false"),
            PathBuf::from("/tmp/x"),
            PathBuf::from("/tmp/y"),
        );
        let fabric = Fabric::new(config);
        // All shards down, next attempt ~base backoff away.
        for shard in 0..3 {
            let mut state = fabric.slot(shard);
            state.up = false;
            state.next_attempt = Instant::now() + Duration::from_millis(500);
        }
        let hint = fabric.retry_hint_ms();
        assert!((25..=600).contains(&hint), "hint {hint} out of range");
    }
}
