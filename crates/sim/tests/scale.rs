//! Beyond 128 sites: Algorithm 1's balanced tree at the paper's `n = 520`
//! runs through the full simulator.

use arbitree_core::builder::balanced;
use arbitree_core::{ArbitraryProtocol, ArbitraryTree, TreeMetrics};
use arbitree_quorum::ReplicaControl;
use arbitree_sim::{empirical_load, run_simulation, FailureSchedule, SimConfig, SimDuration};

#[test]
fn balanced_520_simulates_consistently_at_the_closed_form_write_load() {
    let tree = ArbitraryTree::from_spec(&balanced(520).unwrap()).unwrap();
    let k_phy = tree.physical_level_count();
    assert!(tree.replica_count() > 128);
    assert!((TreeMetrics::new(&tree).write_load() - 1.0 / k_phy as f64).abs() < 1e-12);
    let proto = ArbitraryProtocol::new(tree);
    let n = proto.universe().len();

    let config = SimConfig {
        seed: 5,
        clients: 4,
        objects: 4,
        read_fraction: 0.5,
        duration: SimDuration::from_millis(150),
        ..SimConfig::default()
    };
    let failures = FailureSchedule::random(
        n,
        config.duration,
        SimDuration::from_millis(60),
        SimDuration::from_millis(15),
        6,
    );
    let report = run_simulation(config, proto.clone(), &failures);
    assert!(report.consistent, "{} violations", report.violations);
    assert_eq!(report.violations, 0);
    assert!(report.metrics.reads_ok > 0 && report.metrics.writes_ok > 0);

    // Sampled under the canonical strategy, within the 0.01 the paper
    // report's closed-form checks allow.
    let (_, write_load) = empirical_load(&proto, 20_000, 2);
    assert!(
        (write_load - 1.0 / k_phy as f64).abs() < 0.01,
        "measured {write_load}, closed form 1/{k_phy}"
    );
}
