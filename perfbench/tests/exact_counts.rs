//! The benchmark's exact-count self-test: two traced runs of one seed at
//! smoke size give identical simulated, store, disk and journal counts
//! and identical result digests, and the traced digest equals the
//! untraced run's.

use std::path::PathBuf;
use std::process::Command;

/// Runs `perfbench` and returns its stdout; panics unless it succeeds.
fn perfbench(workload: &str, seed: u64, trace: bool, work: &str, extra: &[String]) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(work);
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .arg("--work")
        .arg(&dir)
        .args(extra)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "perfbench {workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with("{\"correct\": true"), "last line: {last}");
    stdout
}

/// The `# ... result digest <hex>` note.
fn result_digest(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.split("result digest ").nth(1))
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no result digest in:\n{stdout}"))
        .to_string()
}

/// The `# exact counts: ...` note.
fn exact_counts(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("# exact counts: "))
        .unwrap_or_else(|| panic!("no exact counts in:\n{stdout}"))
        .to_string()
}

fn check(workload: &str, extra: &[String]) {
    let untraced = perfbench(workload, 5, false, &format!("{workload}-u"), extra);
    let a = perfbench(workload, 5, true, &format!("{workload}-a"), extra);
    let b = perfbench(workload, 5, true, &format!("{workload}-b"), extra);
    assert_eq!(
        exact_counts(&a),
        exact_counts(&b),
        "{workload}: counts must repeat exactly"
    );
    assert_eq!(
        result_digest(&a),
        result_digest(&b),
        "{workload}: traced digests differ"
    );
    assert_eq!(
        result_digest(&a),
        result_digest(&untraced),
        "{workload}: the traced run must reproduce the untraced result"
    );
    assert!(exact_counts(&a).contains("pipeline.sim_cycles="));
}

#[test]
fn grid_cold_counts_repeat_exactly() {
    check("grid_cold", &[]);
}

#[test]
fn stream_long_counts_repeat_exactly() {
    check("stream_long", &[]);
}

#[test]
#[ignore = "needs the critic binary: set CRITIC_BIN and run with --ignored"]
fn fleet_mix_counts_repeat_exactly() {
    let critic = std::env::var("CRITIC_BIN").expect("CRITIC_BIN names the critic binary");
    check("fleet_mix", &["--critic".to_string(), critic]);
}
