//! The traced cell path: the same work `Workbench` and `ArtifactStore`
//! do for a campaign or service cell, composed here from the layers'
//! public functions so that each call can be timed from the outside.
//!
//! Results must be bit-identical to the untraced program's: the traced
//! run compares result digests and store counts and refuses to report
//! on any difference.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use critic_compiler::{
    try_apply_compress, try_apply_critic_pass, try_apply_opp16, BaselineExecution,
    CriticPassOptions, PassReport,
};
use critic_core::campaign::{CellMetrics, CellRecord, CellStatus};
use critic_core::design::{DesignPoint, Software};
use critic_core::disk::{ArtifactClass, DiskStore};
use critic_core::journal::Journal;
use critic_core::keys::stable_key;
use critic_core::runner::{RunOutcome, ValidationStats};
use critic_core::store::{ArtifactStore, StoreStats, World, WorldKey};
use critic_energy::EnergyModel;
use critic_pipeline::{DecodedTrace, SimResult, SimScratch, Simulator, StreamScratch};
use critic_profiler::{ChainSpec, Profile, Profiler, ProfilerConfig};
use critic_workloads::{AppSpec, ExecutionPath, Program, StreamConfig, Trace, TraceStream};

use crate::spans::Tracer;

/// Where a replayed cell gets its shared artifacts from.
pub trait Artifacts {
    fn world(
        &mut self,
        t: &mut Tracer,
        app: &AppSpec,
        trace_len: usize,
    ) -> Result<Arc<World>, String>;
    fn profile(
        &mut self,
        t: &mut Tracer,
        world: &Arc<World>,
        config: &ProfilerConfig,
    ) -> Result<Arc<Profile>, String>;
    fn baseline(
        &mut self,
        t: &mut Tracer,
        world: &Arc<World>,
        point: &DesignPoint,
    ) -> Result<Arc<RunOutcome>, String>;
    fn baseline_exec(
        &mut self,
        t: &mut Tracer,
        world: &Arc<World>,
        seed: u64,
    ) -> Result<Arc<BaselineExecution>, String>;
}

/// Counts one simulation's modelled events.
fn record_sim(t: &mut Tracer, sim: &SimResult, insns: usize) {
    t.count("pipeline.sim_insns", insns as f64);
    t.count("pipeline.sim_cycles", sim.cycles as f64);
    t.count("pipeline.committed", sim.committed as f64);
    let stalls = &sim.fetch_stalls;
    t.count(
        "pipeline.fetch_stall_cycles",
        (stalls.icache + stalls.branch + stalls.backpressure) as f64,
    );
    t.count("mem.icache_misses", sim.mem.icache.misses as f64);
    t.count("mem.dcache_misses", sim.mem.dcache.misses as f64);
    t.count("mem.l2_misses", sim.mem.l2.misses as f64);
}

fn energy(t: &mut Tracer, sim: &SimResult) -> critic_energy::EnergyBreakdown {
    t.span("energy.eval", |_| EnergyModel::default().evaluate(sim))
}

/// The cold store of a fresh campaign, composed from its layers: an
/// in-memory memo keyed exactly as `ArtifactStore` keys it, builds
/// through the layers' public functions, and the persistent tier's
/// `DiskStore` for the same loads and saves under the same keys.
pub struct ColdStore {
    disk: Option<DiskStore>,
    worlds: HashMap<WorldKey, Arc<World>>,
    cones: HashMap<WorldKey, Arc<Vec<u32>>>,
    profiles: HashMap<(WorldKey, u64), Arc<Profile>>,
    baselines: HashMap<(WorldKey, u64), Arc<RunOutcome>>,
    execs: HashMap<(WorldKey, u64), Arc<BaselineExecution>>,
    /// The app and length behind each world key (the disk keys fold them
    /// in; `WorldKey` keeps its fields private).
    apps: HashMap<WorldKey, (AppSpec, usize)>,
    decoded: DecodedTrace,
    scratch: SimScratch,
    /// Artifacts built and requests served from memory, as
    /// `StoreStats::built()` and `StoreStats::hits` count them.
    pub built: u64,
    pub hits: u64,
}

impl ColdStore {
    pub fn new(disk: Option<DiskStore>) -> ColdStore {
        ColdStore {
            disk,
            worlds: HashMap::new(),
            cones: HashMap::new(),
            profiles: HashMap::new(),
            baselines: HashMap::new(),
            execs: HashMap::new(),
            apps: HashMap::new(),
            decoded: DecodedTrace::new(),
            scratch: SimScratch::new(),
            built: 0,
            hits: 0,
        }
    }

    /// The persistent tier's key for one artifact of `world`, derived as
    /// `ArtifactStore` derives it.
    fn disk_key(&self, world: &World, class: ArtifactClass, config_key: u64) -> u64 {
        let (app, trace_len) = &self.apps[&world.key];
        stable_key(&(class.name(), stable_key(app), *trace_len as u64, config_key))
    }

    fn disk_miss(&self, t: &mut Tracer, class: ArtifactClass, key: u64) -> Result<(), String> {
        let Some(disk) = &self.disk else {
            return Ok(());
        };
        match t.span("disk.load", |_| disk.load(class, key)) {
            Ok(None) => Ok(()),
            Ok(Some(_)) => Err("cold store found an entry on disk".to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    fn disk_save<T: serde::Serialize>(
        &self,
        t: &mut Tracer,
        class: ArtifactClass,
        key: u64,
        value: &T,
    ) {
        if let Some(disk) = &self.disk {
            t.span("disk.save", |_| {
                if let Ok(json) = serde_json::to_string(value) {
                    let _ = disk.save(class, key, json.as_bytes());
                }
            });
            t.count("disk.saves", 1.0);
        }
    }

    /// Looks `key` up in `map`, counting a hit, under a `store.lookup` span.
    fn lookup<K: std::hash::Hash + Eq, V>(
        t: &mut Tracer,
        map: &HashMap<K, Arc<V>>,
        key: &K,
        hits: &mut u64,
    ) -> Option<Arc<V>> {
        let found = t.span("store.lookup", |_| map.get(key).cloned());
        if found.is_some() {
            *hits += 1;
        }
        found
    }

    fn cone(&mut self, t: &mut Tracer, world: &World) -> Arc<Vec<u32>> {
        if let Some(cone) = Self::lookup(t, &self.cones, &world.key, &mut self.hits) {
            return cone;
        }
        let cone = Arc::new(t.span("workloads.cone", |_| world.trace.compute_cone_fanout(128)));
        self.built += 1;
        self.cones.insert(world.key, Arc::clone(&cone));
        cone
    }
}

impl Artifacts for ColdStore {
    fn world(
        &mut self,
        t: &mut Tracer,
        app: &AppSpec,
        trace_len: usize,
    ) -> Result<Arc<World>, String> {
        let key = WorldKey::new(app, trace_len);
        self.apps.insert(key, (app.clone(), trace_len));
        if let Some(world) = Self::lookup(t, &self.worlds, &key, &mut self.hits) {
            return Ok(world);
        }
        let world = t.span("workloads.world", |_| -> Result<World, String> {
            let program = app.generate_program();
            program.validate().map_err(|e| e.to_string())?;
            let path = ExecutionPath::generate(&program, app.path_seed(), trace_len);
            let trace = Trace::expand(&program, &path);
            program.validate_encoding().map_err(|e| e.to_string())?;
            trace.validate(&program).map_err(|e| e.to_string())?;
            let fanout = trace.compute_fanout();
            Ok(World {
                key,
                program: Arc::new(program),
                path: Arc::new(path),
                trace: Arc::new(trace),
                fanout: Arc::new(fanout),
            })
        })?;
        t.count("workloads.insns", world.trace.len() as f64);
        let world = Arc::new(world);
        self.built += 1;
        self.worlds.insert(key, Arc::clone(&world));
        Ok(world)
    }

    fn profile(
        &mut self,
        t: &mut Tracer,
        world: &Arc<World>,
        config: &ProfilerConfig,
    ) -> Result<Arc<Profile>, String> {
        let config_key = stable_key(config);
        if let Some(p) = Self::lookup(t, &self.profiles, &(world.key, config_key), &mut self.hits) {
            return Ok(p);
        }
        let disk_key = self.disk_key(world, ArtifactClass::Profile, config_key);
        self.disk_miss(t, ArtifactClass::Profile, disk_key)?;
        let cone = self.cone(t, world);
        let profile = t.span("profiler.profile", |_| {
            Profiler::new(config.clone()).build_profile_prevalidated(
                &world.program,
                &world.trace,
                &cone,
            )
        });
        t.count("profiler.profiles", 1.0);
        self.disk_save(t, ArtifactClass::Profile, disk_key, &profile);
        let profile = Arc::new(profile);
        self.built += 1;
        self.profiles
            .insert((world.key, config_key), Arc::clone(&profile));
        Ok(profile)
    }

    fn baseline(
        &mut self,
        t: &mut Tracer,
        world: &Arc<World>,
        point: &DesignPoint,
    ) -> Result<Arc<RunOutcome>, String> {
        let (cpu, mem) = (point.cpu_config(), point.mem_config());
        let config_key = stable_key(&(&cpu, &mem));
        if let Some(b) = Self::lookup(t, &self.baselines, &(world.key, config_key), &mut self.hits)
        {
            return Ok(b);
        }
        let disk_key = self.disk_key(world, ArtifactClass::Baseline, config_key);
        self.disk_miss(t, ArtifactClass::Baseline, disk_key)?;
        let simulator = Simulator::new(cpu, mem);
        let decoded = &mut self.decoded;
        t.span("pipeline.decode", |_| decoded.decode_into(&world.trace));
        let scratch = &mut self.scratch;
        let (sim, _) = t.span("pipeline.sim", |_| {
            simulator.run_decoded(decoded, &world.fanout, scratch)
        });
        record_sim(t, &sim, world.trace.len());
        let energy = energy(t, &sim);
        let outcome = RunOutcome {
            design: point.label(),
            thumb_dyn_frac: world.trace.thumb_fraction(),
            dyn_insns: world.trace.len(),
            sim,
            energy,
            pass: PassReport::default(),
        };
        self.disk_save(t, ArtifactClass::Baseline, disk_key, &outcome);
        let outcome = Arc::new(outcome);
        self.built += 1;
        self.baselines
            .insert((world.key, config_key), Arc::clone(&outcome));
        Ok(outcome)
    }

    fn baseline_exec(
        &mut self,
        t: &mut Tracer,
        world: &Arc<World>,
        seed: u64,
    ) -> Result<Arc<BaselineExecution>, String> {
        if let Some(e) = Self::lookup(t, &self.execs, &(world.key, seed), &mut self.hits) {
            return Ok(e);
        }
        let exec = t.span("compiler.validate", |_| {
            BaselineExecution::capture(&world.program, &world.path, seed).map_err(|e| e.to_string())
        })?;
        let exec = Arc::new(exec);
        self.built += 1;
        self.execs.insert((world.key, seed), Arc::clone(&exec));
        Ok(exec)
    }
}

/// A live `ArtifactStore` (the warm store of an in-process service). Each
/// call is one span, named after the call returns by what it did: a
/// memory hit (`store.lookup`), a disk load (`disk.load`), or a build
/// (the building layer's name). The replay is single-threaded, so the
/// store's counters attribute every delta to the call that caused it.
pub struct LiveStore {
    pub store: Arc<ArtifactStore>,
}

impl LiveStore {
    fn call<R>(
        &mut self,
        t: &mut Tracer,
        build: &'static str,
        f: impl FnOnce(&ArtifactStore) -> R,
    ) -> R {
        let store = Arc::clone(&self.store);
        let before = store.stats();
        let (out, after) = t.span_named(
            |(_, after): &(R, StoreStats)| {
                let disk_hits = |s: &StoreStats| s.disk.map_or(0, |d| d.disk_hits);
                if disk_hits(after) > disk_hits(&before) {
                    "disk.load"
                } else if after.built() > before.built() {
                    build
                } else {
                    "store.lookup"
                }
            },
            |_| {
                let out = f(&store);
                (out, store.stats())
            },
        );
        let disk_hits = |s: &StoreStats| s.disk.map_or(0, |d| d.disk_hits);
        t.count("store.builds", (after.built() - before.built()) as f64);
        t.count(
            "store.requests",
            (after.requests() - before.requests()) as f64,
        );
        t.count("disk.hits", (disk_hits(&after) - disk_hits(&before)) as f64);
        out
    }
}

impl Artifacts for LiveStore {
    fn world(
        &mut self,
        t: &mut Tracer,
        app: &AppSpec,
        trace_len: usize,
    ) -> Result<Arc<World>, String> {
        self.call(t, "workloads.world", |s| s.world(app, trace_len))
            .map_err(|e| e.to_string())
    }

    fn profile(
        &mut self,
        t: &mut Tracer,
        world: &Arc<World>,
        config: &ProfilerConfig,
    ) -> Result<Arc<Profile>, String> {
        self.call(t, "profiler.profile", |s| s.profile(world, config))
            .map_err(|e| e.to_string())
    }

    fn baseline(
        &mut self,
        t: &mut Tracer,
        world: &Arc<World>,
        point: &DesignPoint,
    ) -> Result<Arc<RunOutcome>, String> {
        self.call(t, "pipeline.sim", |s| s.baseline(world, point))
            .map_err(|e| e.to_string())
    }

    fn baseline_exec(
        &mut self,
        t: &mut Tracer,
        world: &Arc<World>,
        seed: u64,
    ) -> Result<Arc<BaselineExecution>, String> {
        self.call(t, "compiler.validate", |s| {
            s.baseline_execution(world, seed)
        })
        .map_err(|e| e.to_string())
    }
}

/// One app's workbench, as `Workbench` runs a campaign batch or a
/// service cell: cached profiles and variants, one base decode shared by
/// every variant, recycled simulation scratch.
pub struct Bench {
    world: Arc<World>,
    profiles: HashMap<String, Arc<Profile>>,
    variants: HashMap<String, (Program, PassReport)>,
    base_decoded: Option<DecodedTrace>,
    variant_decoded: DecodedTrace,
    variant_fanout: Vec<u32>,
    variant_trace: Trace,
    scratch: SimScratch,
    stream_window: Option<usize>,
    stream_scratch: StreamScratch,
}

impl Bench {
    pub fn new(
        t: &mut Tracer,
        arts: &mut dyn Artifacts,
        app: &AppSpec,
        trace_len: usize,
        stream_window: Option<usize>,
    ) -> Result<Bench, String> {
        let world = arts.world(t, app, trace_len)?;
        Ok(Bench {
            world,
            profiles: HashMap::new(),
            variants: HashMap::new(),
            base_decoded: None,
            variant_decoded: DecodedTrace::new(),
            variant_fanout: Vec::new(),
            variant_trace: Trace::default(),
            scratch: SimScratch::new(),
            stream_window,
            stream_scratch: StreamScratch::new(),
        })
    }

    fn profile(
        &mut self,
        t: &mut Tracer,
        arts: &mut dyn Artifacts,
        config: &ProfilerConfig,
    ) -> Result<Arc<Profile>, String> {
        let key = format!("{config:?}");
        if let Some(p) = self.profiles.get(&key) {
            return Ok(Arc::clone(p));
        }
        let profile = arts.profile(t, &self.world, config)?;
        self.profiles.insert(key, Arc::clone(&profile));
        Ok(profile)
    }

    fn software_profile(
        &mut self,
        t: &mut Tracer,
        arts: &mut dyn Artifacts,
        software: &Software,
    ) -> Result<Option<Profile>, String> {
        Ok(match *software {
            Software::Baseline | Software::Opp16 | Software::Compress => None,
            Software::Hoist | Software::CritIcBranchSwitch | Software::Opp16PlusCritIc => {
                Some((*self.profile(t, arts, &ProfilerConfig::default())?).clone())
            }
            Software::CritIc {
                profile_fraction,
                max_len,
                exact_len,
            } => {
                let config = ProfilerConfig {
                    profile_fraction,
                    max_chain_len: max_len,
                    ..ProfilerConfig::default()
                };
                let mut profile = (*self.profile(t, arts, &config)?).clone();
                if let (true, Some(n)) = (exact_len, max_len) {
                    profile.chains.retain(|c| c.len() == n);
                }
                Some(profile)
            }
            Software::CritIcIdeal => {
                Some((*self.profile(t, arts, &ProfilerConfig::ideal())?).clone())
            }
        })
    }

    fn apply(
        program: &mut Program,
        software: &Software,
        profile: Option<&Profile>,
    ) -> Result<PassReport, critic_compiler::PassError> {
        let empty = Profile::empty();
        let profile = profile.unwrap_or(&empty);
        let min_run = critic_compiler::opp16::OPP16_MIN_RUN;
        let report = match *software {
            Software::Baseline => PassReport::default(),
            Software::Hoist => {
                try_apply_critic_pass(program, profile, CriticPassOptions::hoist_only())?
            }
            Software::CritIc { .. } => {
                try_apply_critic_pass(program, profile, CriticPassOptions::default())?
            }
            Software::CritIcBranchSwitch => {
                try_apply_critic_pass(program, profile, CriticPassOptions::branch_switch())?
            }
            Software::CritIcIdeal => {
                try_apply_critic_pass(program, profile, CriticPassOptions::ideal())?
            }
            Software::Opp16 => try_apply_opp16(program, min_run)?,
            Software::Compress => try_apply_compress(program)?,
            Software::Opp16PlusCritIc => {
                let mut report =
                    try_apply_critic_pass(program, profile, CriticPassOptions::default())?;
                report.absorb(try_apply_opp16(program, min_run)?);
                report
            }
        };
        Ok(report)
    }

    fn build_variant(
        &mut self,
        t: &mut Tracer,
        arts: &mut dyn Artifacts,
        software: &Software,
    ) -> Result<(Program, PassReport), String> {
        let profile = self.software_profile(t, arts, software)?;
        let base = &self.world.program;
        t.span("compiler.passes", |_| {
            let mut program = (**base).clone();
            let report =
                Self::apply(&mut program, software, profile.as_ref()).map_err(|e| e.to_string())?;
            Ok((program, report))
        })
    }

    /// `Workbench::try_run`.
    pub fn run(
        &mut self,
        t: &mut Tracer,
        arts: &mut dyn Artifacts,
        point: &DesignPoint,
    ) -> Result<RunOutcome, String> {
        let key = point.software.label();
        let (program, pass) = match self.variants.remove(&key) {
            Some(built) => built,
            None => self.build_variant(t, arts, &point.software)?,
        };
        let outcome = self.simulate(t, arts, point, &program, pass);
        self.variants.insert(key, (program, pass));
        outcome
    }

    /// `Workbench::try_run_validated`.
    pub fn run_validated(
        &mut self,
        t: &mut Tracer,
        arts: &mut dyn Artifacts,
        point: &DesignPoint,
        seed: u64,
    ) -> Result<(RunOutcome, ValidationStats), String> {
        let software = &point.software;
        let full_profile = self.software_profile(t, arts, software)?;
        let chains: Vec<ChainSpec> = full_profile
            .as_ref()
            .map(|p| p.chains.clone())
            .unwrap_or_default();
        let key = software.label();
        let (mut program, mut pass) = match self.variants.get(&key) {
            Some(cached) => t.span("compiler.passes", |_| cached.clone()),
            None => {
                let built = self.build_variant(t, arts, software)?;
                t.span("compiler.passes", |_| {
                    self.variants.insert(key, built.clone())
                });
                built
            }
        };
        let mut stats = ValidationStats {
            chains_checked: chains.len() as u64,
            ..ValidationStats::default()
        };
        let exec = arts.baseline_exec(t, &self.world, seed)?;
        let world = Arc::clone(&self.world);
        let mut demoted: HashSet<usize> = HashSet::new();
        t.span("compiler.validate", |t| -> Result<(), String> {
            loop {
                match exec.validate_variant(&program, &world.path, &chains) {
                    Ok(_) => return Ok(()),
                    Err(e) => {
                        // Demote the blamed chain once; a divergence with no
                        // chain to blame, or one that survives demotion, fails.
                        if !e.chain.is_some_and(|rank| demoted.insert(rank)) {
                            return Err(format!("validation failed: {e}"));
                        }
                        stats.chains_demoted += 1;
                        let mut filtered = full_profile.clone().unwrap_or_else(Profile::empty);
                        filtered.chains = filtered
                            .chains
                            .iter()
                            .enumerate()
                            .filter(|(rank, _)| !demoted.contains(rank))
                            .map(|(_, c)| c.clone())
                            .collect();
                        let mut rebuilt = (*world.program).clone();
                        pass = t
                            .span("compiler.passes", |_| {
                                Self::apply(&mut rebuilt, software, Some(&filtered))
                            })
                            .map_err(|e| e.to_string())?;
                        pass.chains_demoted += demoted.len() as u64;
                        program = rebuilt;
                    }
                }
            }
        })?;
        t.count("compiler.chains_checked", stats.chains_checked as f64);
        t.count("compiler.chains_demoted", stats.chains_demoted as f64);
        let outcome = self.simulate(t, arts, point, &program, pass)?;
        Ok((outcome, stats))
    }

    fn simulate(
        &mut self,
        t: &mut Tracer,
        arts: &mut dyn Artifacts,
        point: &DesignPoint,
        program: &Program,
        pass: PassReport,
    ) -> Result<RunOutcome, String> {
        if matches!(point.software, Software::Baseline) {
            return Ok((*arts.baseline(t, &self.world, point)?).clone());
        }
        let simulator = Simulator::new(point.cpu_config(), point.mem_config());
        let path = &self.world.path;
        if let Some(window) = self.stream_window {
            // `TraceStream` expansion cannot be timed apart from the
            // streamed cycle loop that drains it, so an identical stream
            // is drained once on its own to price the expansion; the
            // metrics subtract that price from the loop's span.
            t.span("workloads.stream", |_| {
                let mut stream = TraceStream::new(program, path, StreamConfig::with_window(window));
                while stream.next_window().is_some() {}
            });
            let mut stream = TraceStream::new(program, path, StreamConfig::with_window(window));
            let scratch = &mut self.stream_scratch;
            let (sim, _, stats) = t.span("pipeline.stream_sim", |_| {
                simulator.run_streamed(&mut stream, scratch)
            });
            let (thumb_dyn_frac, dyn_insns) = (stream.thumb_fraction(), stream.total_len());
            t.count("workloads.insns", dyn_insns as f64);
            t.count("pipeline.stream_insns", dyn_insns as f64);
            t.count_max(
                "pipeline.stream_peak_bytes",
                stats.peak_resident_bytes as f64,
            );
            record_sim(t, &sim, dyn_insns);
            let energy = energy(t, &sim);
            return Ok(RunOutcome {
                design: point.label(),
                sim,
                energy,
                pass,
                thumb_dyn_frac,
                dyn_insns,
            });
        }
        let trace = &mut self.variant_trace;
        t.span("workloads.expand", |_| {
            Trace::expand_into(program, path, trace)
        });
        t.count("workloads.insns", trace.len() as f64);
        let base = &self.world.trace;
        let base_decoded = self.base_decoded.get_or_insert_with(DecodedTrace::new);
        if base_decoded.is_empty() {
            t.span("pipeline.decode", |_| base_decoded.decode_into(base));
        }
        let (decoded, fanout) = (&mut self.variant_decoded, &mut self.variant_fanout);
        let shared = t.span("pipeline.decode", |_| {
            let shared = decoded.decode_with_base(trace, base, base_decoded);
            decoded.compute_fanout_into(fanout);
            shared
        });
        t.count("pipeline.prefix_insns", shared as f64);
        t.count("pipeline.variant_insns", trace.len() as f64);
        let scratch = &mut self.scratch;
        let (sim, _) = t.span("pipeline.sim", |_| {
            simulator.run_decoded(decoded, fanout, scratch)
        });
        record_sim(t, &sim, trace.len());
        let energy = energy(t, &sim);
        Ok(RunOutcome {
            design: point.label(),
            thumb_dyn_frac: trace.thumb_fraction(),
            dyn_insns: trace.len(),
            sim,
            energy,
            pass,
        })
    }
}

/// A cell's campaign metrics from its scheme and baseline outcomes.
pub fn metrics(outcome: &RunOutcome, base: &RunOutcome) -> CellMetrics {
    CellMetrics {
        speedup: outcome.sim.speedup_over(&base.sim),
        cpu_energy_saving: outcome.energy.cpu_saving(&base.energy),
        thumb_dyn_frac: outcome.thumb_dyn_frac,
        dyn_insns: outcome.dyn_insns,
    }
}

/// Journals one Ok cell as the campaign and the service do (append plus
/// fsync), under a `journal.append` span.
pub fn journal_cell(
    t: &mut Tracer,
    journal: &Journal,
    app: &str,
    scheme: &str,
    metrics: &CellMetrics,
    validation: Option<ValidationStats>,
) {
    let record = CellRecord {
        app: app.to_string(),
        scheme: scheme.to_string(),
        status: CellStatus::Ok,
        attempts: 1,
        millis: 0,
        fault: None,
        metrics: Some(metrics.clone()),
        error: None,
        validation,
        spans: None,
        degraded: None,
        run: None,
    };
    t.span("journal.append", |_| journal.append_cell(&record, None));
    t.count("journal.appends", 1.0);
}
