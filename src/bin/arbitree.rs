//! `arbitree` — command-line companion for the library.
//!
//! ```text
//! arbitree analyze <spec> [p]        metrics of a tree (e.g. 1-3-5)
//! arbitree render <spec>             ASCII drawing of a tree
//! arbitree plan <n> <read-frac> [p]  best shape for a workload
//! arbitree frontier <n> [p]          the read/write Pareto frontier
//! arbitree compare <n> [p]           all protocols side by side
//! arbitree simulate <spec> [seed]    run the simulator with churn
//!   [--seeds <k>]                    parallel sweep over k derived seeds
//!   [--migrate-to <target>]          live-migrate mid-run (rowa | majority | spec)
//! ```

#![forbid(unsafe_code)]

use arbitree::analysis::Configuration;
use arbitree::core::planner::{pareto_frontier, plan, Workload};
use arbitree::core::{render_tree, ArbitraryProtocol, ArbitraryTree, TreeMetrics};
use arbitree::quorum::ReplicaControl;
use arbitree::{
    cell_seed, run_cells, ExperimentCell, FailureSchedule, SimConfig, SimDuration, SimTime,
    Simulation,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("render") => render(&args[1..]),
        Some("plan") => plan_cmd(&args[1..]),
        Some("frontier") => frontier_cmd(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("simulate") => simulate(&args[1..]),
        Some("faults") => faults(&args[1..]),
        Some("migrate") => migrate(&args[1..]),
        _ => {
            eprint!("{}", USAGE);
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  arbitree analyze <spec> [p]        metrics of a tree (e.g. 1-3-5)
  arbitree render <spec>             ASCII drawing of a tree
  arbitree plan <n> <read-frac> [p]  best shape for a workload
  arbitree frontier <n> [p]          the read/write Pareto frontier
  arbitree compare <n> [p]           the six paper configurations side by side
  arbitree simulate <spec> [seed]    run the simulator with churn
     [--seeds <k>]                   parallel sweep over k derived seeds
     [--migrate-to <target>]         live-migrate mid-run (rowa | majority | spec)
  arbitree faults <spec>             worst-case fault tolerance of reads/writes
  arbitree migrate <from> <to> [k]   gradual migration plan (k moves per step)
";

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn arg<T: std::str::FromStr>(args: &[String], i: usize, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    args.get(i)
        .ok_or_else(|| format!("missing argument: {what}"))?
        .parse()
        .map_err(|e| format!("invalid {what}: {e}"))
}

/// Argument `i` as a probability in `[0, 1]` (NaN is not one).
fn prob(args: &[String], i: usize, what: &str) -> Result<f64, String> {
    let x: f64 = arg(args, i, what)?;
    if (0.0..=1.0).contains(&x) {
        Ok(x)
    } else {
        Err(format!(
            "invalid {what}: {x} is not a probability in [0, 1]"
        ))
    }
}

/// The optional site availability `p` at argument `i`, 0.8 if absent.
fn opt_p(args: &[String], i: usize) -> Result<f64, String> {
    match args.get(i) {
        None => Ok(0.8),
        Some(_) => prob(args, i, "p"),
    }
}

fn analyze(args: &[String]) -> CliResult {
    let spec: String = arg(args, 0, "spec")?;
    let p = opt_p(args, 1)?;
    let tree = ArbitraryTree::parse(&spec)?;
    let m = TreeMetrics::new(&tree);
    println!("spec           : {}", tree.spec());
    println!("replicas       : {}", tree.replica_count());
    println!("height         : {}", tree.height());
    println!("physical levels: {:?}", tree.physical_levels());
    println!(
        "read  : cost {} load {:.4} avail({p}) {:.4} E[load] {:.4}",
        m.read_cost(),
        m.read_load(),
        m.read_availability(p),
        m.expected_read_load(p)
    );
    println!(
        "write : cost {} load {:.4} avail({p}) {:.4} E[load] {:.4}",
        m.write_cost(),
        m.write_load(),
        m.write_availability(p),
        m.expected_write_load(p)
    );
    if let Some(mr) = arbitree::core::read_quorum_count(&tree) {
        println!(
            "quorums: m(R) = {mr}, m(W) = {}",
            arbitree::core::write_quorum_count(&tree)
        );
    }
    Ok(())
}

fn render(args: &[String]) -> CliResult {
    let spec: String = arg(args, 0, "spec")?;
    let tree = ArbitraryTree::parse(&spec)?;
    print!("{}", render_tree(&tree));
    Ok(())
}

fn plan_cmd(args: &[String]) -> CliResult {
    let n: usize = arg(args, 0, "n")?;
    let read_fraction = prob(args, 1, "read fraction")?;
    let p = opt_p(args, 2)?;
    let best = plan(n, Workload::new(read_fraction, p))?;
    println!("best shape: {best}");
    Ok(())
}

fn frontier_cmd(args: &[String]) -> CliResult {
    let n: usize = arg(args, 0, "n")?;
    let p = opt_p(args, 1)?;
    println!("{:>7}  {:>9}  {:>9}  shape", "levels", "E[L_RD]", "E[L_WR]");
    for pt in pareto_frontier(n, p)? {
        println!(
            "{:>7}  {:>9.4}  {:>9.4}  {}",
            pt.physical_levels, pt.expected_read_load, pt.expected_write_load, pt.spec
        );
    }
    Ok(())
}

fn compare(args: &[String]) -> CliResult {
    let n: usize = arg(args, 0, "n")?;
    let p = opt_p(args, 1)?;
    println!(
        "{:<13} {:>4} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "config", "n", "RDcost", "WRcost", "RDload", "WRload", "RDavail", "WRavail"
    );
    for config in Configuration::ALL {
        let proto = config.build(n);
        println!(
            "{:<13} {:>4} {:>8.2} {:>8.2} {:>8.4} {:>8.4} {:>9.4} {:>9.4}",
            proto.name(),
            proto.universe().len(),
            proto.read_cost().avg,
            proto.write_cost().avg,
            proto.read_load(),
            proto.write_load(),
            proto.read_availability(p),
            proto.write_availability(p),
        );
    }
    Ok(())
}

fn faults(args: &[String]) -> CliResult {
    use arbitree::quorum::{blocking_number, SetSystem};
    let spec: String = arg(args, 0, "spec")?;
    let proto = ArbitraryProtocol::parse(&spec)?;
    let u = proto.universe();
    if u.len() > arbitree::quorum::RESILIENCE_MAX_SITES {
        return Err("tree too large for exhaustive resilience analysis".into());
    }
    let reads = SetSystem::new(u, proto.read_quorums().collect())?;
    let writes = SetSystem::new(u, proto.write_quorums().collect())?;
    let (rk, rw) = blocking_number(&reads);
    let (wk, ww) = blocking_number(&writes);
    println!("spec: {} (n = {})", proto.tree().spec(), u.len());
    println!(
        "reads  survive any {} failures; blocked by {} e.g. {}",
        rk - 1,
        rk,
        rw
    );
    println!(
        "writes survive any {} failures; blocked by {} e.g. {}",
        wk - 1,
        wk,
        ww
    );
    Ok(())
}

fn migrate(args: &[String]) -> CliResult {
    use arbitree::core::planner::gradual_migration;
    let from: arbitree::core::TreeSpec = arg::<String>(args, 0, "from spec")?.parse()?;
    let to: arbitree::core::TreeSpec = arg::<String>(args, 1, "to spec")?.parse()?;
    let k: usize = match args.get(2) {
        None => 2,
        Some(_) => arg(args, 2, "moves per step")?,
    };
    let steps = gradual_migration(&from, &to, k)?;
    println!(
        "{} -> {} in {} steps of <= {k} moves:",
        from,
        to,
        steps.len()
    );
    for (i, s) in steps.iter().enumerate() {
        println!("  step {:>2}: {s}", i + 1);
    }
    Ok(())
}

/// Builds the protocol named by a `--migrate-to` target: a baseline name
/// (`rowa`, `majority`) at size `n`, or another tree spec.
fn migration_target(
    name: &str,
    n: usize,
) -> Result<Box<dyn ReplicaControl + Send>, Box<dyn std::error::Error>> {
    match name.to_ascii_lowercase().as_str() {
        "rowa" => Ok(Box::new(arbitree::baselines::Rowa::new(n))),
        "majority" => Ok(Box::new(arbitree::baselines::Majority::new(n))),
        spec => Ok(Box::new(ArbitraryProtocol::parse(spec)?)),
    }
}

fn simulate(args: &[String]) -> CliResult {
    let spec: String = arg(args, 0, "spec")?;
    let (mut seed, mut seeds, mut migrate_to) = (0u64, 1u64, None::<String>);
    let mut i = 1;
    if args.get(1).is_some_and(|s| !s.starts_with("--")) {
        seed = arg(args, 1, "seed")?;
        i = 2;
    }
    // Every remaining argument is a flag with one value; anything else is
    // an error rather than silently ignored.
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => seeds = arg(args, i + 1, "seed count")?,
            "--migrate-to" => migrate_to = Some(arg(args, i + 1, "migration target")?),
            other => return Err(format!("unexpected argument to simulate: {other}").into()),
        }
        i += 2;
    }
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }

    let proto = ArbitraryProtocol::parse(&spec)?;
    let n = proto.tree().replica_count();
    let base = SimConfig {
        seed,
        duration: SimDuration::from_millis(300),
        ..SimConfig::default()
    };

    if let Some(target) = &migrate_to {
        // Single run with a live mid-run migration; the sweep path keeps
        // each cell a pure (config, schedule) function instead.
        let mut sim = Simulation::new(base.clone(), proto);
        FailureSchedule::random(
            n,
            base.duration,
            SimDuration::from_millis(60),
            SimDuration::from_millis(15),
            seed.wrapping_add(1),
        )
        .apply(&mut sim);
        let target = migration_target(target, n)?;
        let m = target.universe().len();
        if m != n {
            return Err(format!(
                "migration target has {m} replicas but the running system has {n} — \
                 reconfiguration must keep the replica set"
            )
            .into());
        }
        sim.schedule_reconfigure_boxed(SimTime::from_millis(150), target);
        let report = sim.run();
        if report.metrics.reconfigurations == 0 {
            // E.g. ROWA needs every site alive for its write quorum, so a
            // migration into it may never find a window under churn.
            println!(
                "migration did not complete before the horizon (still {})",
                sim.protocol().describe()
            );
        } else {
            println!("migrated to  : {}", sim.protocol().describe());
        }
        println!("migrations   : {}", report.metrics.reconfigurations);
        return print_report(&report);
    }

    // Parallel sweep: one cell per seed, reports in seed order.
    let cells: Vec<ExperimentCell> = (0..seeds)
        .map(|i| {
            let s = cell_seed(seed, i);
            let config = SimConfig {
                seed: s,
                ..base.clone()
            };
            let schedule = FailureSchedule::random(
                n,
                config.duration,
                SimDuration::from_millis(60),
                SimDuration::from_millis(15),
                s.wrapping_add(1),
            );
            ExperimentCell::new(
                format!("seed {s:#018x}"),
                config,
                ArbitraryProtocol::parse(&spec).expect("spec already parsed"),
            )
            .with_failures(schedule)
        })
        .collect();
    let results = run_cells(cells);
    if seeds == 1 {
        return print_report(&results[0].1);
    }
    let mut bad = 0usize;
    for (label, report) in &results {
        println!(
            "{label}: ops_ok {} incomplete {} consistent {}",
            report.metrics.ops_ok(),
            report.ops_incomplete,
            report.consistent
        );
        bad += usize::from(!report.consistent);
    }
    if bad > 0 {
        return Err(format!("{bad} of {seeds} runs had consistency violations").into());
    }
    Ok(())
}

fn print_report(report: &arbitree::SimReport) -> CliResult {
    let m = &report.metrics;
    println!("{m}");
    println!("mean latency : {:?}", m.mean_latency());
    let t = &m.phase_time;
    let share = |d: SimDuration| 100.0 * d.as_micros() as f64 / t.total().as_micros().max(1) as f64;
    println!(
        "phase time   : lock wait {:.1}%, read {:.1}%, prepare {:.1}%, commit {:.1}% of {}",
        share(t.lock_wait),
        share(t.read_gather),
        share(t.prepare_gather),
        share(t.commit_gather),
        m.total_latency
    );
    println!("incomplete   : {}", report.ops_incomplete);
    println!("consistent   : {}", report.consistent);
    if !report.consistent {
        return Err(format!("{} consistency violations", report.violations).into());
    }
    Ok(())
}
