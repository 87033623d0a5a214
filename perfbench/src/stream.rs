//! `stream_long` oracle: the streamed campaign's metrics must equal the
//! materialized path's on the same cells.

use critic_core::campaign::run_campaign_with_store;

use crate::batch::{records_digest, split_records, Iteration};
use crate::common::Report;

/// Runs the first iteration's cells materialized (one worker, to bound
/// memory) and compares that iteration's records to them. Returns the
/// number of disagreeing cells.
pub fn oracle(iterations: &[Iteration], report: &mut Report) -> u64 {
    let inputs = &iterations[0].inputs;
    let mut materialized = inputs.clone();
    materialized.stream_window = None;
    let spec = materialized.spec(1, None);
    let summary = match materialized
        .open_store(&spec)
        .and_then(|store| run_campaign_with_store(&spec, &store).map_err(|e| e.to_string()))
    {
        Ok(summary) => summary,
        Err(e) => {
            report.note(format!("materialized oracle failed to run: {e}"));
            return 1;
        }
    };
    let (want, bad) = split_records(&summary.records);
    if !bad.is_empty() || want.len() != inputs.cells() {
        report.note(format!("materialized oracle had failing cells: {bad:?}"));
        return 1;
    }
    let want_digest = records_digest(&summary.records);
    let mut failed = 0;
    let (got, _) = split_records(&iterations[0].result.records);
    for cell in &got {
        if !want.contains(cell) {
            report.note(format!(
                "streamed {}:{} differs from materialized",
                cell.0, cell.1
            ));
            failed += 1;
        }
    }
    report.note(format!(
        "materialized oracle digest {want_digest:016x}, {failed} divergent streamed cells"
    ));
    failed
}
