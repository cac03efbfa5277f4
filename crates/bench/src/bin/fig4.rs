//! Regenerates **Figure 4**: the system loads and expected system loads of
//! write operations for the six §4 configurations, plus the §3.3
//! lower-bound comparison for the binary tree structure of \[2\].
//!
//! Usage: `fig4 [--n <max_n>] [--p <availability>]` (defaults 520, 0.7).

#![forbid(unsafe_code)]

use arbitree_analysis::figures::{emit_figure_charts, figure4, lower_bound_comparison};
use arbitree_analysis::report::{fmt_f, render_series, render_table};
use arbitree_bench::arg_value;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let max_n = arg_value(&args, "--n").unwrap_or(520.0) as usize;
    let p = arg_value(&args, "--p").unwrap_or(0.7);

    println!("Figure 4 — (expected) system loads of write operations (n up to {max_n}, p = {p})\n");
    let data = figure4(max_n, p);
    if args.iter().any(|a| a == "--csv") {
        print!(
            "{}",
            arbitree_analysis::report::render_csv(
                &data,
                &["write_load", "expected_write_load", "write_availability"],
                |p| {
                    vec![
                        fmt_f(p.write_load),
                        fmt_f(p.expected_write_load),
                        fmt_f(p.write_availability),
                    ]
                }
            )
        );
        return;
    }
    print!(
        "{}",
        render_series(
            &data,
            &["n", "write_load", "E[write_load]", "write_avail"],
            |pt| {
                vec![
                    pt.n.to_string(),
                    fmt_f(pt.write_load),
                    fmt_f(pt.expected_write_load),
                    fmt_f(pt.write_availability),
                ]
            }
        )
    );

    emit_figure_charts(
        &data,
        |p| p.expected_write_load,
        &args,
        "Figure 4: expected write load vs n (p as given)",
        "fig4_write_load.svg",
        "E[write load] vs n",
    );
    println!("§3.3 new lower bound for the binary structure of [2]:");
    println!("(UNMODIFIED write load 1/log2(n+1) vs Naor–Wool 2/(log2(n+1)+1))\n");
    let rows: Vec<Vec<String>> = lower_bound_comparison(max_n)
        .into_iter()
        .map(|(n, ours, nw)| vec![n.to_string(), fmt_f(ours), fmt_f(nw)])
        .collect();
    print!(
        "{}",
        render_table(&["n", "1/log2(n+1)", "2/(log2(n+1)+1)"], &rows)
    );

    println!();
    println!("Paper shape checks:");
    println!("  MOSTLY-READ: highest (1); MOSTLY-WRITE: least, 2/(n-1) for odd n");
    println!("  BINARY: highest of the first four; ARBITRARY: least (1/sqrt(n))");
    println!("  UNMODIFIED: second lowest, 1/log2(n+1); HQC: best expected load for large n");
}
