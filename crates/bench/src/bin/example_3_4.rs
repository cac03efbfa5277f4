//! Regenerates the **§3.4 running example**: every metric the paper derives
//! for the 8-replica `1-3-5` tree at p = 0.7, side by side with the paper's
//! reported values.

#![forbid(unsafe_code)]

use arbitree_analysis::report::{fmt_f, render_table};
use arbitree_core::{ArbitraryTree, TreeMetrics};

fn main() {
    let tree = ArbitraryTree::parse("1-3-5").expect("paper example tree");
    let m = TreeMetrics::new(&tree);
    let p = 0.7;

    println!(
        "§3.4 example — spec {}, n = {}, p = {p}\n",
        tree.spec(),
        tree.replica_count()
    );
    let rows = vec![
        row("RD_cost", m.read_cost().avg, 2.0),
        row("RD_availability(0.7)", m.read_availability(p), 0.97),
        row("L_RD", m.read_load(), 1.0 / 3.0),
        row("WR_cost", m.write_cost().avg, 4.0),
        row("WR_availability(0.7)", m.write_availability(p), 0.45),
        row("L_WR", m.write_load(), 0.5),
        row("E[L_RD]", m.expected_read_load(p), 0.35),
        row("E[L_WR]", m.expected_write_load(p), 0.775),
    ];
    print!("{}", render_table(&["metric", "measured", "paper"], &rows));
}

fn row(name: &str, measured: f64, paper: f64) -> Vec<String> {
    vec![name.to_string(), fmt_f(measured), fmt_f(paper)]
}
