//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload grid_cold|fleet_mix|stream_long --seed N --seconds S --trace 0|1
//!           [--critic PATH] [--work DIR] [--smoke]
//! ```
//!
//! `--trace 0` measures the workload from the outside and prints the
//! end-to-end metrics; `--trace 1` replays the same seeded inputs through
//! the layers' public functions under spans and prints the per-layer
//! metrics. Either way the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod batch;
mod common;
mod fleet;
mod grid;
mod replay;
mod spans;
mod stream;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use batch::RunArgs;
use common::Report;

fn usage() -> String {
    "usage: perfbench --workload grid_cold|fleet_mix|stream_long --seed N --seconds S \
     --trace 0|1 [--critic PATH] [--work DIR] [--smoke]"
        .to_string()
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse(args: &[String]) -> Result<(RunArgs, bool), String> {
    let workload = value(args, "--workload").ok_or_else(usage)?.to_string();
    if !["grid_cold", "fleet_mix", "stream_long"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`\n{}", usage()));
    }
    let seed = value(args, "--seed")
        .unwrap_or("0")
        .parse::<u64>()
        .map_err(|_| "--seed expects a whole number".to_string())?;
    let seconds = value(args, "--seconds")
        .unwrap_or("10")
        .parse::<f64>()
        .ok()
        .filter(|s| *s > 0.0)
        .ok_or("--seconds expects a positive number")?;
    let trace = match value(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    let work = PathBuf::from(value(args, "--work").unwrap_or(".bench_work"));
    let critic = value(args, "--critic").map(PathBuf::from);
    let smoke = args.iter().any(|a| a == "--smoke");
    Ok((
        RunArgs {
            workload,
            seed,
            seconds,
            smoke,
            work,
            critic,
        },
        trace,
    ))
}

fn run(args: &RunArgs, trace: bool) -> Result<Report, String> {
    std::fs::create_dir_all(&args.work)
        .map_err(|e| format!("cannot create {}: {e}", args.work.display()))?;
    match (args.workload.as_str(), trace) {
        ("grid_cold", false) => {
            batch::run_untraced(args, |its, report| grid::oracle(its, report, args.seed))
        }
        ("stream_long", false) => batch::run_untraced(args, stream::oracle),
        ("fleet_mix", false) => fleet::run_untraced(args),
        (_, true) => traced::run(args),
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child") {
        let seed = value(&args, "--seed")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let work = PathBuf::from(value(&args, "--work").unwrap_or(".bench_work/child"));
        let workload = value(&args, "--workload").unwrap_or_default();
        let iteration = value(&args, "--iteration")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let smoke = args.iter().any(|a| a == "--smoke");
        return match batch::child_main(workload, seed, iteration, smoke, &work) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (run_args, trace) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&run_args, trace) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: correctness check failed; see the notes above");
        ExitCode::FAILURE
    }
}
