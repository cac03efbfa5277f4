//! The first attempt at each phase of a transaction times out after its
//! client's measured round trip (RFC 6298's estimator), not after the
//! configured `op_timeout`, whatever earlier phases of the transaction
//! did; retries within a phase keep the configured schedule.
//!
//! Five consequences are gated here, each over fixed seeds, so every
//! figure is deterministic:
//! - fault-free runs under the default jittered latency fire no timeout
//!   at all: the measured timeout never drops below the worst fault-free
//!   round trip, so the faster timer changes no fault-free schedule;
//! - after a read retry, the prepare's first timer is the measured
//!   timeout, not a backed-off `op_timeout`;
//! - a clean phase after a retried one is sampled (Karn's rule per
//!   phase), while the retried one is not;
//! - on a hot-churn-shaped run (Zipfian keys, 1% loss, crashes with
//!   amnesia) the mean op latency stays under a bound that backed-off
//!   first timers exceeded, and the success shares stay at least where
//!   they left them;
//! - the per-phase split of the latency sums exactly to its total.

use arbitree_core::{builder, ArbitraryProtocol, ArbitraryTree};
use arbitree_quorum::{ReplicaControl, SiteId};
use arbitree_sim::{
    ClientId, Event, EventKey, NetworkConfig, ObjectId, OpId, Payload, RetryPolicy, Scheduler,
    SimConfig, SimDuration, SimReport, SimTime, Simulation, TxnRequest,
};
use bytes::Bytes;
use common::hot_churn;
use std::collections::BTreeMap;

mod common;

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

/// One link latency: every round trip takes exactly twice this.
const LINK_US: u64 = 300;

/// Fires the earliest event, like the seeded scheduler, and logs every
/// phase timer as it is armed, `(armed, due)` per `(op, attempt)`, and the
/// send time of each operation's first `Prepare` and first `Commit`.
#[derive(Default)]
struct TimerLog {
    timers: BTreeMap<(OpId, u64), (SimTime, SimTime)>,
    prepares: BTreeMap<OpId, SimTime>,
    commits: BTreeMap<OpId, SimTime>,
}

impl TimerLog {
    /// The delay, in µs, of the timer `op` armed when it sent `at`.
    fn delay_armed_at(&self, op: OpId, at: SimTime) -> Option<u64> {
        let mut armed = self
            .timers
            .iter()
            .filter(|((o, _), (t, _))| *o == op && *t == at);
        armed.next().map(|(_, (t, due))| (*due - *t).as_micros())
    }
}

impl Scheduler for TimerLog {
    fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
        let (now, queue) = (sim.engine().now(), sim.engine().queue());
        for (key, event) in queue.iter() {
            match event {
                Event::OpTimeout { op, attempt, .. } => {
                    self.timers.entry((*op, *attempt)).or_insert((now, key.at));
                }
                Event::Deliver(msg) => match msg.payload {
                    Payload::Prepare { op, .. } => {
                        self.prepares.entry(op).or_insert(msg.sent_at);
                    }
                    Payload::Commit { op, .. } => {
                        self.commits.entry(op).or_insert(msg.sent_at);
                    }
                    _ => {}
                },
                _ => {}
            }
        }
        queue.next_key()
    }
}

/// One client writing six objects at 0 ms, which seeds its estimator with
/// three clean 600 µs round trips, and again at 10 ms, after site 0 crashed
/// at 5 ms: some of the second write's read quorums hold the crashed site,
/// so its read round times out once. Fixed 300 µs links, no loss, and a
/// backoff without jitter, so every timer is exact.
fn write_after_a_read_retry() -> (SimReport, TimerLog, OpId) {
    let config = SimConfig {
        seed: 29,
        clients: 1,
        objects: 8,
        auto_workload: false,
        retry: RetryPolicy::Exponential {
            cap: SimDuration::from_millis(24),
            jitter: 0.0,
        },
        network: NetworkConfig {
            min_latency: SimDuration::from_micros(LINK_US),
            max_latency: SimDuration::from_micros(LINK_US),
            drop_probability: 0.0,
        },
        duration: SimDuration::from_millis(100),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(config, ArbitraryProtocol::parse("1-3-5").unwrap());
    let write = |tag: u8| TxnRequest {
        reads: Vec::new(),
        writes: (0..6)
            .map(|o| (ObjectId(o), Bytes::from(vec![tag])))
            .collect(),
    };
    sim.schedule_transaction(SimTime::ZERO, ClientId(0), write(1));
    sim.schedule_crash(SimTime::from_millis(5), SiteId::new(0));
    sim.schedule_transaction(SimTime::from_millis(10), ClientId(0), write(2));
    let mut log = TimerLog::default();
    let report = sim.run_with(&mut log);
    assert!(report.consistent);
    assert_eq!(report.metrics.txns_ok, 2);
    assert_eq!(
        report.metrics.retries_read, 1,
        "the crash forces one read retry"
    );
    assert_eq!(report.metrics.timeouts_fired, 1);
    let (&op, _) = log
        .prepares
        .last_key_value()
        .expect("the second write prepares");
    (report, log, op)
}

/// Three clean 600 µs samples leave the estimator at `SRTT = 600`,
/// `RTTVAR = 168`, a timeout of `600 + 4·168 = 1,272 µs`. The read retry
/// leaves the transaction one retry in, and while the prepare's first
/// timer followed the transaction's retry count it armed
/// `op_timeout·2 = 6,000 µs`; it now arms the measured 1,272 µs. Had the
/// retried read round (1,872 µs from its first send) been sampled, the
/// timer would read 2,535 µs.
#[test]
fn a_phase_after_a_retried_one_arms_the_measured_timeout() {
    let (_, log, op) = write_after_a_read_retry();
    let read_at = SimTime::from_millis(10);
    assert_eq!(log.delay_armed_at(op, read_at), Some(1_272), "read");
    let prepare_at = log.prepares[&op];
    assert_eq!(
        (prepare_at - read_at).as_micros(),
        1_272 + 2 * LINK_US,
        "the prepare follows the read retry's answers"
    );
    assert_eq!(log.delay_armed_at(op, prepare_at), Some(1_272), "prepare");
}

/// The prepare after the retried read ran clean, so its 600 µs round trip
/// is sampled: `RTTVAR` falls to `3·168/4 = 126`, and the commit's first
/// timer is `600 + max(4·126, 600) = 1,200 µs`. Under Karn's rule per
/// transaction the prepare went unsampled and the commit armed 1,272 µs.
#[test]
fn a_clean_phase_after_a_retried_one_is_sampled() {
    let (report, log, op) = write_after_a_read_retry();
    let commit_at = log.commits[&op];
    assert_eq!((commit_at - log.prepares[&op]).as_micros(), 2 * LINK_US);
    assert_eq!(log.delay_armed_at(op, commit_at), Some(1_200), "commit");
    assert_phases_sum_to_latency(&report, "write after a read retry");
}

/// Hot-churn-shaped runs over eight fixed seeds, pooled. With every first
/// attempt timed out after `op_timeout` (3 ms, five times the 600 µs round
/// trip) they read a mean transaction latency of 14,325 µs, with 97.64% of
/// ops and 98.07% of transactions succeeding; the measured timeout reads
/// 10,829 µs, 98.00% and 98.33%. The bound sits between the two. Since
/// shared locks go when the read round ends, less time is spent waiting
/// for locks and the runs read 8,580 µs, 97.93% and 98.27% (see
/// `read_locks.rs`). Timing each phase's first attempt from the measured
/// round trip, not only a transaction's first phase, brings them to
/// 7,092 µs, 98.03% and 98.33%; the bound sits between 8,580 and 7,092.
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
    assert!(mean < 8_000.0, "mean op latency {mean:.0} us");
    assert!(op_share >= 0.9793, "op success share {op_share:.6}");
    assert!(txn_share >= 0.9827, "txn commit share {txn_share:.6}");
}
