//! Regenerates the **§3.3 asymptotic availability** analysis: the limits
//! `lim RDavail = (1−(1−p)⁴)⁷` and `lim WRavail = 1−(1−p⁴)⁷` of
//! Algorithm-1 trees, together with finite-n values showing convergence.
//!
//! Usage: `availability [--n <finite_n>]` (default 400).

#![forbid(unsafe_code)]

use arbitree_analysis::report::{fmt_f, render_table};
use arbitree_bench::arg_value;
use arbitree_core::builder::balanced;
use arbitree_core::{
    algorithm1_read_availability_limit, algorithm1_write_availability_limit, ArbitraryTree,
    TreeMetrics,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let finite_n = arg_value(&args, "--n").unwrap_or(400.0) as usize;

    let spec = balanced(finite_n).expect("n > 64");
    let tree = ArbitraryTree::from_spec(&spec).expect("valid");
    let m = TreeMetrics::new(&tree);

    println!("§3.3 — availability of Algorithm-1 trees: finite n = {finite_n} vs the n→∞ limits\n");
    let ps = [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95];
    let rows: Vec<Vec<String>> = ps
        .iter()
        .map(|&p| {
            vec![
                fmt_f(p),
                fmt_f(m.read_availability(p)),
                fmt_f(algorithm1_read_availability_limit(p)),
                fmt_f(m.write_availability(p)),
                fmt_f(algorithm1_write_availability_limit(p)),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "p",
                "RDavail(n)",
                "lim RDavail",
                "WRavail(n)",
                "lim WRavail"
            ],
            &rows
        )
    );
    println!();
    println!("Paper claim: for p > 0.8 both operations have availability ~1.");
}
