//! `grid_cold` oracle: sampled cells recomputed through the preserved
//! scalar engine (`Simulator::run_reference`), as `critic bench` checks
//! its batched path.

use critic_core::campaign::CellMetrics;
use critic_core::design::{DesignPoint, Software};
use critic_core::runner::Workbench;
use critic_energy::EnergyModel;
use critic_pipeline::Simulator;
use critic_workloads::{AppSpec, Trace};

use crate::batch::{records_digest, split_records, Iteration};
use crate::common::{Report, Rng};

/// Cells recomputed through the reference engine per run.
const SAMPLED_CELLS: usize = 4;

/// One cell through the scalar reference pipeline, as `perf.rs` computes
/// it: its own workbench, a fresh expansion and two reference walks.
pub fn reference_cell(
    app: &AppSpec,
    point: &DesignPoint,
    trace_len: usize,
) -> Result<CellMetrics, String> {
    let energy = EnergyModel::default();
    let mut bench = Workbench::try_new(app, trace_len).map_err(|e| e.to_string())?;
    let base_point = DesignPoint::baseline();
    let base = Simulator::new(base_point.cpu_config(), base_point.mem_config())
        .run_reference(bench.baseline_trace(), bench.baseline_fanout())
        .0;
    let simulator = Simulator::new(point.cpu_config(), point.mem_config());
    let (sim, thumb_dyn_frac, dyn_insns) = if matches!(point.software, Software::Baseline) {
        let trace = bench.baseline_trace();
        let sim = simulator.run_reference(trace, bench.baseline_fanout()).0;
        (sim, trace.thumb_fraction(), trace.len())
    } else {
        let (program, _) = bench
            .try_variant(&point.software)
            .map_err(|e| e.to_string())?;
        let trace = Trace::expand(&program, &bench.path);
        let sim = simulator.run_reference(&trace, &trace.compute_fanout()).0;
        (sim, trace.thumb_fraction(), trace.len())
    };
    Ok(CellMetrics {
        speedup: sim.speedup_over(&base),
        cpu_energy_saving: energy.evaluate(&sim).cpu_saving(&energy.evaluate(&base)),
        thumb_dyn_frac,
        dyn_insns,
    })
}

/// Checks seeded sample cells of the first iteration against the
/// reference engine. Returns the number of divergent cells.
pub fn oracle(iterations: &[Iteration], report: &mut Report, seed: u64) -> u64 {
    let inputs = &iterations[0].inputs;
    let (cells, _) = split_records(&iterations[0].result.records);
    if cells.is_empty() {
        return 1;
    }
    let mut rng = Rng::new(seed ^ 0x0AC1E);
    let mut failed = 0;
    for _ in 0..SAMPLED_CELLS.min(cells.len()) {
        let (app, scheme, got) = &cells[rng.below(cells.len())];
        let spec = inputs.apps.iter().find(|a| &a.name == app);
        let point = inputs
            .schemes
            .iter()
            .find(|s| &s.name == scheme)
            .map(|s| &s.point);
        let (Some(spec), Some(point)) = (spec, point) else {
            failed += 1;
            continue;
        };
        match reference_cell(spec, point, inputs.trace_len) {
            Ok(want) if &want == got => {}
            Ok(want) => {
                report.note(format!(
                    "divergence {app}:{scheme}: campaign {got:?} vs reference {want:?}"
                ));
                failed += 1;
            }
            Err(e) => {
                report.note(format!("reference run of {app}:{scheme} failed: {e}"));
                failed += 1;
            }
        }
    }
    report.note(format!(
        "reference oracle: {SAMPLED_CELLS} sampled cells, {failed} divergent"
    ));
    // Every iteration runs the same cells in another order, so every
    // digest must agree.
    let digests: Vec<u64> = iterations
        .iter()
        .map(|it| records_digest(&it.result.records))
        .collect();
    if digests.windows(2).any(|w| w[0] != w[1]) {
        report.note(format!(
            "result digests differ across iterations: {digests:x?}"
        ));
        failed += 1;
    }
    failed
}
