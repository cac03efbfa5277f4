//! Run shapes shared by the test files that gate hot-churn figures.

use arbitree_core::{ArbitraryProtocol, ArbitraryTree};
use arbitree_sim::{
    FailureSchedule, ObjectDistribution, RetryPolicy, SimConfig, SimDuration, SimReport, Simulation,
};

/// `1-3-5` under 2^16 Zipfian keys, FIFO 300 µs links with 1% loss, and
/// crashes (MTTF 400 ms, MTTR 40 ms) of which 3% lose their storage.
pub fn hot_churn(seed: u64) -> SimReport {
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
    let mut sim = Simulation::new(
        config,
        ArbitraryProtocol::new(ArbitraryTree::parse("1-3-5").expect("valid spec")),
    );
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
