//! A transaction's first attempt at a phase times out after its client's
//! measured round trip (RFC 6298's estimator), not after the configured
//! `op_timeout`; retries keep the configured schedule.
//!
//! Three consequences are gated here, each over fixed seeds, so every
//! figure is deterministic:
//! - fault-free runs under the default jittered latency fire no timeout
//!   at all: the measured timeout never drops below the worst fault-free
//!   round trip, so the faster timer changes no fault-free schedule;
//! - on a hot-churn-shaped run (Zipfian keys, 1% loss, crashes with
//!   amnesia) the mean op latency stays under a bound that the fixed
//!   3 ms first timeout exceeded, and the success shares stay at least
//!   where the fixed timeout left them;
//! - the per-phase split of the latency sums exactly to its total.

use arbitree_core::{builder, ArbitraryProtocol, ArbitraryTree};
use arbitree_quorum::ReplicaControl;
use arbitree_sim::{
    FailureSchedule, ObjectDistribution, RetryPolicy, SimConfig, SimDuration, SimReport, Simulation,
};

fn shards(tree: &ArbitraryTree, count: usize) -> Vec<Box<dyn ReplicaControl>> {
    (0..count)
        .map(|_| Box::new(ArbitraryProtocol::new(tree.clone())) as Box<dyn ReplicaControl>)
        .collect()
}

fn one_three_five() -> ArbitraryTree {
    ArbitraryTree::parse("1-3-5").expect("valid spec")
}

/// 16-shard `1-3-5` with batching, 2^20 uniform keys, 1–16 ops per
/// transaction, the default 100–500 µs link latency.
fn keyspace_batch(seed: u64) -> SimReport {
    let config = SimConfig {
        seed,
        clients: 16,
        objects: 1 << 20,
        read_fraction: 0.5,
        think_time: SimDuration::from_micros(300),
        max_txn_ops: 16,
        shards: 16,
        batching: true,
        duration: SimDuration::from_millis(200),
        ..SimConfig::default()
    };
    Simulation::from_shards(config, shards(&one_three_five(), 16)).run()
}

/// Algorithm 1's balanced tree for 100 replicas (10 physical levels),
/// single-op transactions, the default link latency.
fn balanced_100(seed: u64) -> SimReport {
    let tree = builder::balanced(100)
        .and_then(|spec| ArbitraryTree::from_spec(&spec))
        .expect("balanced(100) is a valid tree");
    let config = SimConfig {
        seed,
        clients: 8,
        objects: 4096,
        read_fraction: 0.5,
        duration: SimDuration::from_millis(500),
        ..SimConfig::default()
    };
    Simulation::from_shards(config, shards(&tree, 1)).run()
}

/// `1-3-5` under 2^16 Zipfian keys, FIFO 300 µs links with 1% loss, and
/// crashes (MTTF 400 ms, MTTR 40 ms) of which 3% lose their storage.
fn hot_churn(seed: u64) -> SimReport {
    let duration = SimDuration::from_millis(5_000);
    let mut config = SimConfig {
        seed,
        clients: 16,
        objects: 1 << 16,
        read_fraction: 0.5,
        max_txn_ops: 4,
        object_distribution: ObjectDistribution::Zipfian { exponent: 1.0 },
        retry: RetryPolicy::Exponential {
            cap: SimDuration::from_millis(24),
            jitter: 0.25,
        },
        duration,
        ..SimConfig::default()
    };
    config.network.min_latency = SimDuration::from_micros(300);
    config.network.max_latency = SimDuration::from_micros(300);
    config.network.drop_probability = 0.01;
    let mut sim = Simulation::new(config, ArbitraryProtocol::new(one_three_five()));
    FailureSchedule::random_with_amnesia(
        8,
        duration,
        SimDuration::from_millis(400),
        SimDuration::from_millis(40),
        0.03,
        seed ^ 0xFA17,
    )
    .apply(&mut sim);
    sim.run()
}

fn assert_phases_sum_to_latency(report: &SimReport, label: &str) {
    let m = &report.metrics;
    assert_eq!(m.phase_time.total(), m.total_latency, "{label}: {m:?}");
}

#[test]
fn fault_free_runs_under_jittered_latency_never_time_out() {
    for seed in 1..=4 {
        for (label, report) in [
            ("keyspace-batch", keyspace_batch(seed)),
            ("balanced-100", balanced_100(seed)),
        ] {
            let label = format!("{label} seed {seed}");
            let m = &report.metrics;
            assert!(report.consistent, "{label}");
            assert!(m.txns_ok > 100, "{label}: {} committed", m.txns_ok);
            assert_eq!(m.timeouts_fired, 0, "{label}");
            assert_eq!(m.txns_failed, 0, "{label}");
            assert_phases_sum_to_latency(&report, &label);
        }
    }
}

/// Hot-churn-shaped runs over eight fixed seeds, pooled. With every first
/// attempt timed out after `op_timeout` (3 ms, five times the 600 µs round
/// trip) they read a mean transaction latency of 14,325 µs, with 97.64% of
/// ops and 98.07% of transactions succeeding; the measured timeout reads
/// 10,829 µs, 98.00% and 98.33%. The bound sits between the two.
#[test]
fn hot_churn_mean_latency_falls_with_the_measured_timeout() {
    let (mut latency_us, mut samples) = (0u64, 0u64);
    let (mut ops_ok, mut ops) = (0u64, 0u64);
    let (mut txns_ok, mut txns) = (0u64, 0u64);
    for seed in 1..=8 {
        let report = hot_churn(seed);
        let label = format!("hot-churn seed {seed}");
        assert!(
            report.consistent,
            "{label}: {} violations",
            report.violations
        );
        assert_phases_sum_to_latency(&report, &label);
        let m = &report.metrics;
        latency_us += m.total_latency.as_micros();
        samples += m.latency_samples;
        ops_ok += m.ops_ok();
        ops += m.ops_ok() + m.ops_failed();
        txns_ok += m.txns_ok;
        txns += m.txns_ok + m.txns_failed;
    }
    let mean = latency_us as f64 / samples as f64;
    let op_share = ops_ok as f64 / ops as f64;
    let txn_share = txns_ok as f64 / txns as f64;
    println!("mean op latency {mean:.0} us, op success {op_share:.6}, txn commit {txn_share:.6}");
    assert!(mean < 12_000.0, "mean op latency {mean:.0} us");
    assert!(op_share >= 0.9764, "op success share {op_share:.6}");
    assert!(txn_share >= 0.9806, "txn commit share {txn_share:.6}");
}
