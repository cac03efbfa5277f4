//! Dynamic-simulation load sweep: runs the full event simulator (clients,
//! locks, 2PC, timeouts) for `ARBITRARY` trees across replica counts and
//! reports *measured* per-site loads, costs and success rates next to the
//! closed forms — the end-to-end counterpart of Figures 3 and 4.
//!
//! Usage: `sim_load_sweep [--seed <s>]`.

#![forbid(unsafe_code)]

use arbitree_analysis::report::{fmt_f, render_table};
use arbitree_bench::arg_value;
use arbitree_core::builder::balanced;
use arbitree_core::{ArbitraryProtocol, ArbitraryTree, TreeMetrics};
use arbitree_sim::{run_cells, ExperimentCell, SimConfig, SimDuration};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = arg_value(&args, "--seed").unwrap_or(1.0) as u64;

    println!("Dynamic-simulation sweep over Algorithm-1 trees (failure-free, seed {seed})\n");
    let sizes = [9usize, 16, 25, 36, 49, 66, 81, 100];
    let mut closed_forms = Vec::new();
    let cells: Vec<ExperimentCell> = sizes
        .iter()
        .map(|&n| {
            let spec = balanced(n).expect("valid n");
            let tree = ArbitraryTree::from_spec(&spec).expect("valid");
            let m = TreeMetrics::new(&tree);
            closed_forms.push((
                n,
                spec.to_string(),
                m.read_load(),
                m.write_load(),
                m.read_cost().avg,
                m.write_cost().avg,
            ));
            let config = SimConfig {
                seed,
                clients: 6,
                objects: 6,
                read_fraction: 0.5,
                duration: SimDuration::from_millis(400),
                ..SimConfig::default()
            };
            ExperimentCell::new(spec.to_string(), config, ArbitraryProtocol::new(tree))
        })
        .collect();
    let rows: Vec<Vec<String>> = run_cells(cells)
        .into_iter()
        .zip(closed_forms)
        .map(
            |((_, report), (n, spec, rd_load, wr_load, rd_cost, wr_cost))| {
                assert!(report.consistent, "n={n} violated consistency");
                vec![
                    n.to_string(),
                    spec,
                    format!(
                        "{}/{}",
                        fmt_f(rd_load),
                        report
                            .metrics
                            .empirical_read_load()
                            .map_or("-".into(), fmt_f)
                    ),
                    format!(
                        "{}/{}",
                        fmt_f(wr_load),
                        report
                            .metrics
                            .empirical_write_load()
                            .map_or("-".into(), fmt_f)
                    ),
                    format!(
                        "{}/{}",
                        fmt_f(rd_cost),
                        report
                            .metrics
                            .empirical_read_cost()
                            .map_or("-".into(), fmt_f)
                    ),
                    format!(
                        "{}/{}",
                        fmt_f(wr_cost),
                        report
                            .metrics
                            .empirical_write_cost()
                            .map_or("-".into(), fmt_f)
                    ),
                    report.metrics.ops_ok().to_string(),
                ]
            },
        )
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "n",
                "shape",
                "RDload c/e",
                "WRload c/e",
                "RDcost c/e",
                "WRcost c/e",
                "ops"
            ],
            &rows
        )
    );
    println!("\n(c = closed form, e = measured in the event simulation; e fluctuates with");
    println!(" the finite operation count but tracks c — see EXPERIMENTS.md)");
}
