//! Stress tests: many seeds, churn, message loss, and partitions — one-copy
//! consistency must hold in every execution.

use arbitree_baselines::{Grid, Hqc, Majority, Rowa, TreeQuorum};
use arbitree_core::ArbitraryProtocol;
use arbitree_quorum::{ReplicaControl, SiteId};
use arbitree_sim::{
    run_simulation, FailureSchedule, NetworkConfig, Partition, SimConfig, SimDuration, Simulation,
};

fn churn_config(seed: u64, drop: f64) -> SimConfig {
    SimConfig {
        seed,
        clients: 4,
        objects: 3,
        read_fraction: 0.6,
        network: NetworkConfig {
            drop_probability: drop,
            ..NetworkConfig::default()
        },
        duration: SimDuration::from_millis(120),
        ..SimConfig::default()
    }
}

fn churn_schedule(n: usize, seed: u64) -> FailureSchedule {
    FailureSchedule::random(
        n,
        SimDuration::from_millis(120),
        SimDuration::from_millis(30),
        SimDuration::from_millis(8),
        seed,
    )
}

#[test]
fn arbitrary_protocol_survives_churn_and_loss_many_seeds() {
    for seed in 0..12u64 {
        for spec in ["1-3-5", "1-2-2-2-3", "1-8"] {
            let proto = ArbitraryProtocol::parse(spec).unwrap();
            let n = proto.tree().replica_count();
            let report = run_simulation(
                churn_config(seed, 0.03),
                proto,
                &churn_schedule(n, seed.wrapping_mul(31)),
            );
            assert!(
                report.consistent,
                "spec {spec} seed {seed}: {} violations",
                report.violations
            );
        }
    }
}

#[test]
fn baselines_survive_churn_and_loss() {
    for seed in 0..6u64 {
        let protos: Vec<(&str, Box<dyn ReplicaControl>)> = vec![
            ("rowa", Box::new(Rowa::new(7))),
            ("majority", Box::new(Majority::new(7))),
            ("tree-quorum", Box::new(TreeQuorum::new(2))),
            ("hqc", Box::new(Hqc::new(2))),
            ("grid", Box::new(Grid::new(3, 3))),
        ];
        for (name, proto) in protos {
            let n = proto.universe().len();
            let report = run_simulation(
                churn_config(seed, 0.02),
                proto,
                &churn_schedule(n, seed.wrapping_mul(17).wrapping_add(3)),
            );
            assert!(
                report.consistent,
                "{name} seed {seed}: {} violations",
                report.violations
            );
            assert!(
                report.metrics.ops_ok() > 0,
                "{name} seed {seed} made no progress"
            );
        }
    }
}

#[test]
fn heavy_write_workload_under_churn() {
    for seed in 0..8u64 {
        let proto = ArbitraryProtocol::parse("1-2-2-3-3").unwrap();
        let n = proto.tree().replica_count();
        let mut config = churn_config(seed, 0.05);
        config.read_fraction = 0.1;
        let report = run_simulation(config, proto, &churn_schedule(n, seed + 100));
        assert!(
            report.consistent,
            "seed {seed}: {} violations",
            report.violations
        );
    }
}

#[test]
fn partition_heals_and_progress_resumes() {
    let proto = ArbitraryProtocol::parse("1-3-5").unwrap();
    let mut sim = Simulation::new(churn_config(3, 0.0), proto);
    // Partition level 2 away; since Partition is installed statically here,
    // model healing by crash/recover of the same sites instead.
    for s in 3..8u32 {
        sim.schedule_crash(arbitree_sim::SimTime::from_millis(5), SiteId::new(s));
        sim.schedule_recover(arbitree_sim::SimTime::from_millis(60), SiteId::new(s));
    }
    let report = sim.run();
    assert!(report.consistent);
    assert!(report.metrics.writes_ok > 0, "{}", report.metrics);
    assert!(report.metrics.reads_ok > 0);
}

#[test]
fn static_partition_of_whole_level_blocks_everything_safely() {
    let proto = ArbitraryProtocol::parse("1-3-5").unwrap();
    let mut sim = Simulation::new(churn_config(5, 0.0), proto);
    sim.set_partition(Partition::isolate_sites((0..3).map(SiteId::new)));
    let report = sim.run();
    assert!(report.consistent);
    // Level 1 unreachable: reads (need every level) and writes to level 1
    // fail; writes to level 2 still need the version-phase read quorum,
    // which spans level 1 → everything eventually fails or blocks.
    assert_eq!(report.metrics.reads_ok, 0);
    assert_eq!(report.metrics.writes_ok, 0);
}

#[test]
fn extreme_drop_rate_makes_no_progress_but_stays_safe() {
    let proto = ArbitraryProtocol::parse("1-3-5").unwrap();
    let mut config = churn_config(9, 0.9);
    config.duration = SimDuration::from_millis(60);
    let report = run_simulation(config, proto, &FailureSchedule::none());
    assert!(report.consistent);
}

#[test]
fn reports_deterministic_across_identical_runs() {
    let mk = || {
        let proto = ArbitraryProtocol::parse("1-2-3-4").unwrap();
        run_simulation(churn_config(11, 0.04), proto, &churn_schedule(9, 42))
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.ops_incomplete, b.ops_incomplete);
}

#[test]
fn offline_linearizability_check_agrees_with_online_checker() {
    // Record full histories under churn and verify them with the
    // independent offline checker.
    for seed in 0..8u64 {
        let proto = ArbitraryProtocol::parse("1-3-5").unwrap();
        let mut config = churn_config(seed, 0.03);
        config.record_history = true;
        let report = run_simulation(config, proto, &churn_schedule(8, seed + 50));
        assert!(report.consistent, "online checker failed at seed {seed}");
        let violations = report.history.check_linearizable();
        assert!(
            violations.is_empty(),
            "seed {seed}: offline violations: {violations:?}"
        );
        assert_eq!(
            report.history.events().len() as u64,
            report.metrics.ops_ok(),
            "history records every successful op"
        );
    }
}

#[test]
fn offline_check_covers_reconfiguration_histories() {
    let mut config = churn_config(3, 0.0);
    config.record_history = true;
    let mut sim = Simulation::new(config, ArbitraryProtocol::parse("1-9").unwrap());
    sim.schedule_reconfigure(
        arbitree_sim::SimTime::from_millis(60),
        ArbitraryProtocol::parse("1-4-5").unwrap(),
    );
    let report = sim.run();
    assert!(report.consistent);
    assert_eq!(report.metrics.reconfigurations, 1);
    let violations = report.history.check_linearizable();
    assert!(violations.is_empty(), "{violations:?}");
    // Migration writes are part of the recorded history.
    assert!(
        report.history.events().len() as u64
            >= report.metrics.ops_ok() + report.metrics.migration_writes
    );
}

#[test]
fn zipfian_workloads_stay_consistent() {
    use arbitree_sim::ObjectDistribution;
    for seed in 0..6u64 {
        let proto = ArbitraryProtocol::parse("1-3-5").unwrap();
        let mut config = churn_config(seed, 0.02);
        config.objects = 6;
        config.object_distribution = ObjectDistribution::Zipfian { exponent: 1.1 };
        config.record_history = true;
        let report = run_simulation(config, proto, &churn_schedule(8, seed + 200));
        assert!(
            report.consistent,
            "seed {seed}: {} violations",
            report.violations
        );
        assert!(report.history.check_linearizable().is_empty());
        assert!(report.metrics.ops_ok() > 0);
    }
}

/// Transactions of up to three objects, each read or written, over a few
/// Zipfian objects under loss and crash churn: a reader's shared lock goes
/// when its read round ends while its writes are still in 2PC, and both
/// checkers must still find nothing.
#[test]
fn multi_object_histories_under_churn_are_linearizable() {
    use arbitree_sim::ObjectDistribution;
    use std::collections::BTreeMap;
    let mut mixed = 0;
    for seed in 0..8u64 {
        let proto = ArbitraryProtocol::parse("1-3-5").unwrap();
        let mut config = churn_config(seed, 0.03);
        config.objects = 5;
        config.max_txn_ops = 3;
        config.read_fraction = 0.5;
        config.object_distribution = ObjectDistribution::Zipfian { exponent: 1.0 };
        config.record_history = true;
        let report = run_simulation(config, proto, &churn_schedule(8, seed + 300));
        assert!(
            report.consistent,
            "seed {seed}: {} violations",
            report.violations
        );
        let violations = report.history.check_linearizable();
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        // Count the committed transactions that both read and wrote.
        let mut kinds: BTreeMap<_, (bool, bool)> = BTreeMap::new();
        for e in report.history.events() {
            let k = kinds.entry(e.op).or_default();
            match e.kind {
                arbitree_sim::HistoryKind::Read => k.0 = true,
                arbitree_sim::HistoryKind::Write => k.1 = true,
            }
        }
        mixed += kinds.values().filter(|&&(r, w)| r && w).count();
    }
    assert!(mixed > 50, "{mixed} committed read-write transactions");
}

#[test]
fn hot_object_contention_serializes_correctly() {
    // One extremely hot object: all clients pile onto it, the lock manager
    // must serialize them, and versions must grow without gaps in commits.
    let proto = ArbitraryProtocol::parse("1-3-5").unwrap();
    let mut config = churn_config(1, 0.0);
    config.objects = 1;
    config.clients = 6;
    config.read_fraction = 0.3;
    config.record_history = true;
    config.duration = SimDuration::from_millis(150);
    let report = run_simulation(config, proto, &FailureSchedule::none());
    assert!(report.consistent);
    assert!(report.history.check_linearizable().is_empty());
    assert!(report.metrics.writes_ok > 10);
}

#[test]
fn large_system_120_replicas_under_churn() {
    use arbitree_core::builder::balanced;
    use arbitree_core::ArbitraryTree;
    let spec = balanced(120).unwrap();
    let tree = ArbitraryTree::from_spec(&spec).unwrap();
    let proto = ArbitraryProtocol::new(tree);
    let mut config = churn_config(2, 0.01);
    config.clients = 8;
    config.objects = 6;
    config.duration = SimDuration::from_millis(200);
    let schedule = FailureSchedule::random(
        120,
        config.duration,
        SimDuration::from_millis(80),
        SimDuration::from_millis(15),
        77,
    );
    let report = run_simulation(config, proto, &schedule);
    assert!(report.consistent, "{} violations", report.violations);
    assert!(report.metrics.ops_ok() > 50, "{}", report.metrics);
}
