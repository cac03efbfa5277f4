//! Regenerates **Table 1** of the paper: the total, physical and logical
//! node counts of every level of the Figure 1 tree (spec `1-3-5` with four
//! logical filler nodes on level 2).

#![forbid(unsafe_code)]

use arbitree_analysis::report::render_table;
use arbitree_core::{ArbitraryTree, LevelSpec, TreeSpec};

fn main() {
    let spec = TreeSpec::new(vec![
        LevelSpec::logical(1),
        LevelSpec::physical(3),
        LevelSpec {
            physical: 5,
            logical: 4,
        },
    ]);
    let tree = ArbitraryTree::from_spec(&spec).expect("Figure 1 tree is valid");

    println!(
        "Table 1 — node bookkeeping of the Figure 1 tree ({})\n",
        tree.spec()
    );
    let rows: Vec<Vec<String>> = (0..=tree.height())
        .map(|k| {
            vec![
                format!("m_{k} = {}", tree.level_total(k)),
                format!("m_phy{k} = {}", tree.level_physical(k)),
                format!("m_log{k} = {}", tree.level_logical(k)),
            ]
        })
        .collect();
    print!("{}", render_table(&["m_k", "m_phy_k", "m_log_k"], &rows));

    println!();
    println!("n        = {}", tree.replica_count());
    println!(
        "K_phy    = {:?}  (|K_phy| = {})",
        tree.physical_levels(),
        tree.physical_level_count()
    );
    println!(
        "K_log    = {:?}  (|K_log| = {})",
        tree.logical_levels(),
        tree.logical_levels().len()
    );
    println!(
        "m(R)     = {}",
        arbitree_core::read_quorum_count(&tree).expect("small tree")
    );
    println!("m(W)     = {}", arbitree_core::write_quorum_count(&tree));
}
