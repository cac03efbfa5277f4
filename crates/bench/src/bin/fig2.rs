//! Regenerates **Figure 2**: the read and write communication costs of the
//! six §4 configurations as the replica count grows.
//!
//! Usage: `fig2 [--n <max_n>]` (default 520).

#![forbid(unsafe_code)]

use arbitree_analysis::figures::{emit_figure_charts, figure2};
use arbitree_analysis::report::{fmt_f, render_series};
use arbitree_bench::arg_value;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let max_n = arg_value(&args, "--n").unwrap_or(520.0) as usize;

    println!("Figure 2 — communication costs of read and write operations (n up to {max_n})\n");
    let data = figure2(max_n);
    if args.iter().any(|a| a == "--csv") {
        print!(
            "{}",
            arbitree_analysis::report::render_csv(&data, &["read_cost", "write_cost"], |p| {
                vec![fmt_f(p.read_cost), fmt_f(p.write_cost)]
            })
        );
        return;
    }
    print!(
        "{}",
        render_series(&data, &["n", "read_cost", "write_cost"], |p| {
            vec![p.n.to_string(), fmt_f(p.read_cost), fmt_f(p.write_cost)]
        })
    );
    emit_figure_charts(
        &data,
        |p| p.write_cost,
        &args,
        "Figure 2: write communication cost vs n",
        "fig2_write_cost.svg",
        "write cost vs n",
    );
    println!("Paper shape checks:");
    println!("  MOSTLY-READ: read cost 1, write cost n (ROWA extremes)");
    println!("  MOSTLY-WRITE: write cost ~2, read cost ~n/2");
    println!("  ARBITRARY: both costs ~sqrt(n); lowest write cost of the first four");
    println!("  BINARY: highest costs of the first four; UNMODIFIED: lowest read cost log2(n+1)");
}
