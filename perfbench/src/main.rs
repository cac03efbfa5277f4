//! `perfbench` — runs the benchmark workloads and prints their metrics.
//!
//! Usage: `perfbench [--workload <name>|all] [--seed <n>] [--seconds <s>]
//! [--trace 0|1]`. One measurement is one invocation per workload, seed
//! and trace setting, `--workload <name> --seed <n> --seconds
//! <run_seconds> --trace 0|1`: `--trace 0` prints the end-to-end metrics
//! of untraced runs, `--trace 1` the per-layer metrics of traced runs.
//! `run_seconds` is the one in `BENCHMARK.json` and is also the default of
//! `--seconds`. `--workload all` (the default) runs every workload one
//! after another in this process and thread.
//!
//! Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit status is nonzero when any
//! correctness check fails.

use arbitree_perfbench::measure::{measure, measure_traced, reset_peak_rss, Outcome, Plan};
use arbitree_perfbench::workload::Workload;
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads = vec![Workload::from_name(&value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?];
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let prefix = args.workloads.len() > 1;
    let mut correct = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut json_metrics: Vec<String> = Vec::new();
    for (i, &workload) in args.workloads.iter().enumerate() {
        // A fresh peak-RSS high-water mark for every workload after the
        // first (the first starts from the process's own).
        if i > 0 && !reset_peak_rss() {
            eprintln!("perfbench: cannot reset the peak-RSS mark");
        }
        let plan = Plan::new(workload, args.seed, args.seconds);
        let outcome: Outcome = if args.trace {
            measure_traced(&plan)
        } else {
            measure(&plan)
        };
        println!(
            "{} (seed {}, {} simulations of {} simulated s, {} per pass)",
            workload.name(),
            args.seed,
            outcome.runs,
            plan.duration.as_micros() as f64 / 1e6,
            plan.segments
        );
        for m in &outcome.metrics {
            println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
            let name = if prefix {
                format!("{}/{}", workload.name(), m.name)
            } else {
                m.name.to_string()
            };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            json_metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.unit
            ));
        }
        for f in &outcome.failures {
            println!("  FAIL: {f}");
        }
        attempted += outcome.runs;
        failed += outcome.failed_runs;
        correct &= outcome.failures.is_empty();
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json_metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
