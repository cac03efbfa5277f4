//! Cross-validates the paper's closed forms against the simulator: for each
//! §4 configuration at a moderate size, measures availability (static
//! alive-set sampling), load and cost (canonical-strategy sampling), and
//! runs a full dynamic simulation checking one-copy consistency.
//!
//! Usage: `sim_validate [--n <target_n>] [--p <availability>] [--trials <k>]`
//! (defaults 31, 0.75, 30000).

#![forbid(unsafe_code)]

use arbitree_analysis::report::{fmt_f, render_table};
use arbitree_analysis::Configuration;
use arbitree_bench::arg_value;
use arbitree_core::ArbitraryProtocol;
use arbitree_sim::{
    empirical_availability, empirical_cost, empirical_load, parallel_map, run_cells,
    ExperimentCell, FailureSchedule, SimConfig, SimDuration,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n = arg_value(&args, "--n").unwrap_or(31.0) as usize;
    let p = arg_value(&args, "--p").unwrap_or(0.75);
    let trials = arg_value(&args, "--trials").unwrap_or(30_000.0) as u32;

    println!("Static validation: closed forms vs sampled quorum assembly (target n = {n}, p = {p}, {trials} trials)\n");
    // Each §4 configuration is one independent cell; fan the sampling out
    // across worker threads and collect rows in input order.
    let rows = parallel_map(Configuration::ALL.to_vec(), |config| {
        let proto = config.build(n);
        let (er, ew) = empirical_availability(proto.as_ref(), p, trials, 1);
        let (lr, lw) = empirical_load(proto.as_ref(), trials, 2);
        let (cr, cw) = empirical_cost(proto.as_ref(), trials, 3);
        vec![
            config.name().to_string(),
            proto.universe().len().to_string(),
            format!("{}/{}", fmt_f(proto.read_availability(p)), fmt_f(er)),
            format!("{}/{}", fmt_f(proto.write_availability(p)), fmt_f(ew)),
            format!("{}/{}", fmt_f(proto.read_load()), fmt_f(lr)),
            format!("{}/{}", fmt_f(proto.write_load()), fmt_f(lw)),
            format!("{}/{}", fmt_f(proto.read_cost().avg), fmt_f(cr)),
            format!("{}/{}", fmt_f(proto.write_cost().avg), fmt_f(cw)),
        ]
    });
    print!(
        "{}",
        render_table(
            &[
                "config",
                "n",
                "RDavail c/e",
                "WRavail c/e",
                "RDload c/e",
                "WRload c/e",
                "RDcost c/e",
                "WRcost c/e",
            ],
            &rows
        )
    );
    println!("(c = closed form, e = empirical; loads sampled under the canonical strategy)\n");

    println!("Dynamic validation: full event simulation with random crash/recovery\n");
    let cells: Vec<ExperimentCell> = ["1-3-5", "1-4-4-4-4", "1-16"]
        .into_iter()
        .map(|spec| {
            let proto = ArbitraryProtocol::parse(spec).expect("valid spec");
            let n_sites = proto.tree().replica_count();
            let config = SimConfig {
                seed: 7,
                duration: SimDuration::from_millis(300),
                ..SimConfig::default()
            };
            let schedule = FailureSchedule::random(
                n_sites,
                config.duration,
                SimDuration::from_millis(60),
                SimDuration::from_millis(15),
                13,
            );
            ExperimentCell::new(spec, config, proto).with_failures(schedule)
        })
        .collect();
    let rows: Vec<Vec<String>> = run_cells(cells)
        .into_iter()
        .map(|(spec, report)| {
            vec![
                spec,
                report.metrics.reads_ok.to_string(),
                report.metrics.reads_failed.to_string(),
                report.metrics.writes_ok.to_string(),
                report.metrics.writes_failed.to_string(),
                report.metrics.messages_sent.to_string(),
                if report.consistent {
                    "yes".into()
                } else {
                    format!("NO ({})", report.violations)
                },
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "tree",
                "reads_ok",
                "reads_fail",
                "writes_ok",
                "writes_fail",
                "msgs",
                "consistent"
            ],
            &rows
        )
    );
}
