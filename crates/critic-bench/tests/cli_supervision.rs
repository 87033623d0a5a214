//! End-to-end CLI drill for the acceptance path: a campaign run with
//! journal/store systemic faults and a tripped breaker completes with
//! every cell accounted, exits through the failed-cells code, and the
//! degrade/trip/shed events are visible in `critic stats --json`.

use std::process::Command;

use critic_workloads::Suite;

fn critic() -> Command {
    Command::new(env!("CARGO_BIN_EXE_critic"))
}

/// Pulls the integer after `"key":` out of the stats JSON. The
/// supervision counter names are unique within the report, so plain text
/// search is unambiguous.
fn field_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("`{key}` missing from stats JSON:\n{json}"));
    let rest = json[at + needle.len()..].trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("`{key}` is not a number in stats JSON:\n{json}"))
}

#[test]
fn supervised_campaign_under_faults_is_accounted_and_visible_in_stats() {
    let victim = Suite::Mobile.apps()[0].name.clone();
    let journal = std::env::temp_dir().join(format!(
        "critic_cli_supervision_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);

    // 2 apps x 4 schemes; every scheme of the first app is sabotaged with
    // a data fault, a journal-write fault eats the first journal line, and
    // a store-read fault fails one attempt mid-grid.
    let mut cmd = critic();
    cmd.args([
        "campaign",
        "--apps",
        "2",
        "--schemes",
        "critic,opp16,hoist,ideal",
        "--trace-len",
        "2500",
        "--workers",
        "1",
        "--retries",
        "1",
        "--stats",
        "--breaker",
        "2",
        "--degrade",
        "--sys",
        "journal-write@0",
        "--sys",
        "store-read@2",
    ]);
    cmd.args(["--journal", journal.to_str().expect("utf-8 temp path")]);
    for scheme in ["critic", "opp16", "hoist", "ideal"] {
        cmd.args([
            "--inject",
            &format!("{victim}:{scheme}:dangling-terminator"),
        ]);
    }
    let run = cmd.output().expect("campaign invocation runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert_eq!(
        run.status.code(),
        Some(6),
        "terminal cell failures exit through code 6\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(
        stdout.contains("circuit breaker open"),
        "shed reason is printed, not silently dropped:\n{stdout}"
    );

    let stats = critic()
        .args([
            "stats",
            "--journal",
            journal.to_str().expect("utf-8 temp path"),
            "--json",
        ])
        .output()
        .expect("stats invocation runs");
    let json = String::from_utf8_lossy(&stats.stdout);
    assert!(
        stats.status.success(),
        "stats must roll up a fault-scarred journal\nstdout:\n{json}\nstderr:\n{}",
        String::from_utf8_lossy(&stats.stderr)
    );

    // The journal-write fault ate exactly one cell line; the other seven
    // cells and the telemetry trailer survived. Of the victim's four
    // cells: two fail and trip the breaker, the third runs (and fails) as
    // the half-open probe, the fourth sheds.
    assert_eq!(field_u64(&json, "cells"), 7, "{json}");
    assert_eq!(field_u64(&json, "ok"), 4, "{json}");
    assert_eq!(field_u64(&json, "failed"), 3, "{json}");

    // Both systemic faults, the breaker trip, and its shed are visible.
    assert_eq!(field_u64(&json, "sys_faults"), 2, "{json}");
    assert_eq!(field_u64(&json, "trips"), 1, "{json}");
    assert_eq!(field_u64(&json, "sheds"), 1, "{json}");
    assert!(field_u64(&json, "degrades") >= 2, "{json}");

    let _ = std::fs::remove_file(&journal);
}

#[test]
fn help_prints_usage_without_binding_spawning_or_benching() {
    use std::io::Read;
    use std::time::{Duration, Instant};

    for command in ["serve", "router", "bench"] {
        // Doing the work instead would block (serve, router) or run for
        // many seconds (bench), so a child still alive after the deadline
        // is killed and fails the test rather than hanging it.
        let mut child = critic()
            .args([command, "--help"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("critic runs");
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll critic") {
                break Some(status);
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stdout = String::new();
        let _ = child
            .stdout
            .take()
            .expect("piped stdout")
            .read_to_string(&mut stdout);
        assert_eq!(
            status.and_then(|s| s.code()),
            Some(0),
            "`{command} --help` did not exit 0 promptly; printed {stdout:?}"
        );
        assert!(
            stdout.starts_with(&format!("usage: critic {command}")),
            "`{command} --help` printed {stdout:?}"
        );
        assert!(
            !stdout.contains("listening on"),
            "`{command} --help` bound a port"
        );
    }
}
