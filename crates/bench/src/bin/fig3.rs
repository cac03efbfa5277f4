//! Regenerates **Figure 3**: the system loads and expected system loads of
//! read operations for the six §4 configurations.
//!
//! Usage: `fig3 [--n <max_n>] [--p <availability>]` (defaults 520, 0.7).

#![forbid(unsafe_code)]

use arbitree_analysis::figures::{emit_figure_charts, figure3};
use arbitree_analysis::report::{fmt_f, render_series};
use arbitree_bench::arg_value;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let max_n = arg_value(&args, "--n").unwrap_or(520.0) as usize;
    let p = arg_value(&args, "--p").unwrap_or(0.7);

    println!("Figure 3 — (expected) system loads of read operations (n up to {max_n}, p = {p})\n");
    let data = figure3(max_n, p);
    if args.iter().any(|a| a == "--csv") {
        print!(
            "{}",
            arbitree_analysis::report::render_csv(
                &data,
                &["read_load", "expected_read_load", "read_availability"],
                |p| {
                    vec![
                        fmt_f(p.read_load),
                        fmt_f(p.expected_read_load),
                        fmt_f(p.read_availability),
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
            &["n", "read_load", "E[read_load]", "read_avail"],
            |pt| {
                vec![
                    pt.n.to_string(),
                    fmt_f(pt.read_load),
                    fmt_f(pt.expected_read_load),
                    fmt_f(pt.read_availability),
                ]
            }
        )
    );
    emit_figure_charts(
        &data,
        |p| p.expected_read_load,
        &args,
        "Figure 3: expected read load vs n (p as given)",
        "fig3_read_load.svg",
        "E[read load] vs n",
    );
    println!("Paper shape checks:");
    println!("  MOSTLY-READ: lowest (1/n, stable); MOSTLY-WRITE: 1/2, unstable");
    println!("  UNMODIFIED: highest, 1 (root in every read quorum)");
    println!("  HQC: least of the first four (n^-0.37); ARBITRARY: 1/4 for n > 32");
    println!("  BINARY: 2/(log2(n+1)+1)");
}
