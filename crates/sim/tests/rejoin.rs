//! End-to-end tests of amnesia crashes and the staged anti-entropy rejoin.
//!
//! A site that crashes with amnesia loses its entire store. On recovery it
//! re-enters as `Syncing`: quorum traffic routes around it while the
//! rejoin manager reconciles it against one serving mate of each write
//! quorum that contains it, and only then does it serve again. These tests drive the full protocol through
//! the deterministic event queue and check the safety gates the chaos
//! campaign also enforces: zero consistency violations and zero replies
//! served by a non-`Serving` site.

use arbitree_core::ArbitraryProtocol;
use arbitree_quorum::{
    pick_uniform_alive, AliveSet, CostProfile, QuorumSet, ReplicaControl, SiteId, Universe,
};
use arbitree_sim::{
    ClientId, FailureSchedule, NetworkConfig, ObjectDistribution, ObjectId, RetryPolicy, SimConfig,
    SimDuration, SimMetrics, SimTime, Simulation, TxnRequest,
};
use bytes::Bytes;
use rand::RngCore;

fn config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        clients: 4,
        objects: 6,
        read_fraction: 0.5,
        duration: SimDuration::from_millis(400),
        ..SimConfig::default()
    }
}

fn proto() -> ArbitraryProtocol {
    ArbitraryProtocol::parse("1-3-5").unwrap()
}

#[test]
fn amnesia_rejoin_completes_and_site_serves_again() {
    let mut sim = Simulation::new(config(1), proto());
    sim.schedule_amnesia_crash(SimTime::from_millis(50), SiteId::new(3));
    sim.schedule_recover(SimTime::from_millis(120), SiteId::new(3));
    let report = sim.run();
    assert!(report.consistent, "violations: {}", report.violations);
    assert_eq!(report.metrics.sync_violations, 0);
    assert_eq!(report.metrics.rejoins_completed, 1, "{}", report.metrics);
    assert!(report.metrics.sync_sessions > 0);
    assert!(
        report.metrics.sync_ranges_compared > 0,
        "{}",
        report.metrics
    );
    // The site lost writes it had and got them back.
    assert!(
        report.metrics.sync_keys_transferred > 0,
        "{}",
        report.metrics
    );
    assert!(!sim.rejoin().is_rejoining(SiteId::new(3)));
    // Work continued after the rejoin.
    assert!(report.metrics.writes_ok > 5, "{}", report.metrics);
    assert!(
        report.metrics.mean_rejoin_latency().is_some(),
        "latency recorded"
    );
}

#[test]
fn rejoined_site_converges_to_the_checker_model() {
    let mut cfg = config(3);
    cfg.read_fraction = 0.0; // write-heavy: the amnesiac owes a lot
    let mut sim = Simulation::new(cfg, proto());
    sim.schedule_amnesia_crash(SimTime::from_millis(60), SiteId::new(4));
    sim.schedule_recover(SimTime::from_millis(140), SiteId::new(4));
    let report = sim.run();
    assert!(report.consistent);
    assert_eq!(report.metrics.rejoins_completed, 1, "{}", report.metrics);
    // Every object committed *before* the crash must be present on the
    // rejoined site at a timestamp at least as new as what the sync pulled
    // — an empty store would fail this for any pre-crash write the site's
    // write quorums covered. We check the weaker, always-true form: the
    // rejoined site's store is no longer empty.
    let site = &sim.sites()[4];
    assert!(
        (0..6u32).any(|o| site.storage().read(arbitree_sim::ObjectId(o)).ts.version() > 0),
        "rejoined site still empty"
    );
}

#[test]
fn amnesia_runs_are_deterministic_per_seed() {
    let run = |seed| {
        let mut sim = Simulation::new(config(seed), proto());
        sim.schedule_amnesia_crash(SimTime::from_millis(40), SiteId::new(2));
        sim.schedule_recover(SimTime::from_millis(110), SiteId::new(2));
        sim.run()
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.metrics, b.metrics);
    let c = run(8);
    assert_ne!(a.metrics, c.metrics);
}

#[test]
fn rejoin_survives_message_loss() {
    for seed in 0..4u64 {
        let mut cfg = config(seed);
        cfg.network = NetworkConfig {
            drop_probability: 0.15,
            ..NetworkConfig::default()
        };
        let mut sim = Simulation::new(cfg, proto());
        sim.schedule_amnesia_crash(SimTime::from_millis(40), SiteId::new(5));
        sim.schedule_recover(SimTime::from_millis(90), SiteId::new(5));
        let report = sim.run();
        assert!(report.consistent, "seed {seed}: {}", report.violations);
        assert_eq!(report.metrics.sync_violations, 0, "seed {seed}");
        assert_eq!(
            report.metrics.rejoins_completed, 1,
            "seed {seed}: {}",
            report.metrics
        );
        // Loss forced at least one backoff-paced retry on some seed; all
        // seeds must at least arm the timer machinery without violations.
        assert!(report.metrics.sync_sessions >= 1, "seed {seed}");
    }
}

#[test]
fn transient_crash_mid_sync_resumes_the_rejoin() {
    let mut sim = Simulation::new(config(11), proto());
    sim.schedule_amnesia_crash(SimTime::from_millis(40), SiteId::new(3));
    sim.schedule_recover(SimTime::from_millis(100), SiteId::new(3));
    // Knock it over again (storage intact this time) the instant the sync
    // starts, then bring it back: the rejoin must restart and still finish.
    sim.schedule_crash(SimTime::from_millis(101), SiteId::new(3));
    sim.schedule_recover(SimTime::from_millis(160), SiteId::new(3));
    let report = sim.run();
    assert!(report.consistent, "violations: {}", report.violations);
    assert_eq!(report.metrics.sync_violations, 0);
    assert_eq!(report.metrics.rejoins_completed, 1, "{}", report.metrics);
    assert!(!sim.rejoin().is_rejoining(SiteId::new(3)));
}

#[test]
fn concurrent_amnesia_crashes_both_rejoin() {
    // Two amnesiacs at once: each must sync from the remaining Serving
    // sites (neither may use the other as a source).
    let mut cfg = config(13);
    cfg.duration = SimDuration::from_millis(600);
    let mut sim = Simulation::new(cfg, proto());
    sim.schedule_amnesia_crash(SimTime::from_millis(40), SiteId::new(3));
    sim.schedule_amnesia_crash(SimTime::from_millis(45), SiteId::new(6));
    sim.schedule_recover(SimTime::from_millis(110), SiteId::new(3));
    sim.schedule_recover(SimTime::from_millis(115), SiteId::new(6));
    let report = sim.run();
    assert!(report.consistent, "violations: {}", report.violations);
    assert_eq!(report.metrics.sync_violations, 0);
    assert_eq!(report.metrics.rejoins_completed, 2, "{}", report.metrics);
}

#[test]
fn rejoin_waits_out_a_partition_then_completes() {
    // The amnesiac recovers inside a partition that cuts it off from every
    // source: probes die, the retry timer backs off, and once the
    // partition heals the rejoin completes.
    use arbitree_sim::Partition;
    let mut cfg = config(17);
    cfg.duration = SimDuration::from_millis(800);
    let mut sim = Simulation::new(cfg, proto());
    sim.schedule_amnesia_crash(SimTime::from_millis(40), SiteId::new(2));
    sim.schedule_partition(
        SimTime::from_millis(60),
        Partition::isolate_sites([SiteId::new(2)]),
    );
    sim.schedule_recover(SimTime::from_millis(80), SiteId::new(2));
    sim.schedule_partition(SimTime::from_millis(300), Partition::none());
    let report = sim.run();
    assert!(report.consistent, "violations: {}", report.violations);
    assert_eq!(report.metrics.sync_violations, 0);
    assert_eq!(report.metrics.rejoins_completed, 1, "{}", report.metrics);
    assert!(
        report.metrics.sync_retries > 0,
        "expected retries across the partition ({})",
        report.metrics
    );
}

#[test]
fn sharded_amnesia_rejoin_pulls_every_shard() {
    let mut cfg = config(19);
    cfg.objects = 32;
    cfg.shards = 4;
    let protocols: Vec<Box<dyn ReplicaControl>> = (0..4)
        .map(|_| Box::new(proto()) as Box<dyn ReplicaControl>)
        .collect();
    let mut sim = Simulation::from_shards(cfg, protocols);
    sim.schedule_amnesia_crash(SimTime::from_millis(50), SiteId::new(4));
    sim.schedule_recover(SimTime::from_millis(130), SiteId::new(4));
    let report = sim.run();
    assert!(report.consistent, "violations: {}", report.violations);
    assert_eq!(report.metrics.sync_violations, 0);
    assert_eq!(report.metrics.rejoins_completed, 1, "{}", report.metrics);
}

#[test]
fn commit_acked_before_a_wipe_is_delivered_again() {
    // A write prepares on level {0, 1, 2}. Site 1 crashes before its
    // commit arrives, so it holds only the stage; sites 0 and 2 commit and
    // ack. Site 0 then loses its storage and site 2 goes down, so the
    // rejoin's level-1 source is site 1, which has not committed the write
    // yet. Site 0 serves again without the write. If its pre-wipe ack still
    // counted, the write would complete once site 1 acks, and the read —
    // whose only live level-1 site is then site 0 — would miss it.
    let mut config = SimConfig {
        seed: 1,
        clients: 2,
        objects: 1,
        auto_workload: false,
        duration: SimDuration::from_millis(40),
        ..SimConfig::default()
    };
    config.network.min_latency = SimDuration::from_micros(300);
    config.network.max_latency = SimDuration::from_micros(300);
    let mut sim = Simulation::new(config, proto());
    let at = SimTime::from_micros;
    let obj = ObjectId(0);
    let write = TxnRequest::write(obj, Bytes::from_static(b"w"));
    sim.schedule_transaction(at(1_000), ClientId(0), write);
    sim.schedule_crash(at(2_300), SiteId::new(1));
    sim.schedule_amnesia_crash(at(3_000), SiteId::new(0));
    sim.schedule_crash(at(3_000), SiteId::new(2));
    sim.schedule_recover(at(3_500), SiteId::new(1));
    sim.schedule_recover(at(4_000), SiteId::new(0));
    sim.schedule_crash(at(9_000), SiteId::new(1));
    sim.schedule_transaction(at(12_000), ClientId(1), TxnRequest::read(obj));
    let report = sim.run();
    assert_eq!(report.metrics.rejoins_completed, 1, "{}", report.metrics);
    assert_eq!(report.metrics.txns_ok, 2, "{}", report.metrics);
    assert!(report.consistent, "violations: {}", report.violations);
    let value = sim.sites()[0].storage().read(obj).value;
    assert_eq!(
        value,
        Bytes::from_static(b"w"),
        "site 0 never got the write"
    );
}

/// Read-one/write-all over sites 0 and 1 of a 3-site universe: site 2 lies
/// in no quorum at all, so it never owes anything.
#[derive(Debug)]
struct PairOfThree;

impl ReplicaControl for PairOfThree {
    fn name(&self) -> &str {
        "pair-of-three"
    }
    fn universe(&self) -> Universe {
        Universe::new(3)
    }
    fn read_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        Box::new((0..2).map(|i| QuorumSet::from_indices([i])))
    }
    fn write_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        Box::new(std::iter::once(QuorumSet::from_indices([0, 1])))
    }
    fn pick_read_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        let reads: Vec<QuorumSet> = self.read_quorums().collect();
        pick_uniform_alive(&reads, &alive, rng)
    }
    fn pick_write_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        let writes: Vec<QuorumSet> = self.write_quorums().collect();
        pick_uniform_alive(&writes, &alive, rng)
    }
    fn read_cost(&self) -> CostProfile {
        CostProfile::flat(1.0)
    }
    fn write_cost(&self) -> CostProfile {
        CostProfile::flat(2.0)
    }
    fn read_availability(&self, p: f64) -> f64 {
        1.0 - (1.0 - p).powi(2)
    }
    fn write_availability(&self, p: f64) -> f64 {
        p * p
    }
    fn read_load(&self) -> f64 {
        0.5
    }
    fn write_load(&self) -> f64 {
        1.0
    }
}

#[test]
fn a_site_in_no_write_quorum_serves_at_once() {
    // Nothing to sync from and nothing owed: the rejoin completes inside
    // the recovery itself, with no session, probe or retry timer.
    let mut sim = Simulation::new(config(23), PairOfThree);
    sim.schedule_amnesia_crash(SimTime::from_millis(50), SiteId::new(2));
    sim.schedule_recover(SimTime::from_millis(120), SiteId::new(2));
    let report = sim.run();
    assert!(report.consistent, "violations: {}", report.violations);
    let m = &report.metrics;
    assert_eq!(m.rejoins_completed, 1, "{m}");
    assert_eq!(m.sync_sessions, 0, "{m}");
    assert_eq!(m.sync_ranges_compared, 0, "{m}");
    assert_eq!(m.sync_retries, 0, "{m}");
    assert_eq!(m.mean_rejoin_latency(), Some(SimDuration::ZERO), "{m}");
    assert!(!sim.rejoin().is_rejoining(SiteId::new(2)));
    assert!(sim.sites()[2].is_serving());
}

#[test]
fn a_wiped_single_site_level_waits_for_good() {
    // On `p:1-3` the physical root {0} is a write quorum of its own. Its
    // writes lived only on the wiped store, so no mate can restore them:
    // the rejoin is abandoned at once, with no retry timer, and the site
    // never serves again. Every read quorum needs the root too, so a
    // read-quorum source rule would wait the same way. A transient crash
    // during the wait restarts the rejoin, which is abandoned again but
    // counted once.
    let mut sim = Simulation::new(config(29), ArbitraryProtocol::parse("p:1-3").unwrap());
    sim.schedule_amnesia_crash(SimTime::from_millis(50), SiteId::new(0));
    sim.schedule_recover(SimTime::from_millis(120), SiteId::new(0));
    sim.schedule_crash(SimTime::from_millis(200), SiteId::new(0));
    sim.schedule_recover(SimTime::from_millis(230), SiteId::new(0));
    let report = sim.run();
    assert!(report.consistent, "violations: {}", report.violations);
    let m = &report.metrics;
    assert_eq!(m.sync_violations, 0);
    assert_eq!(m.rejoins_completed, 0, "{m}");
    assert_eq!(m.sync_sessions, 0, "{m}");
    assert_eq!(
        m.sync_retries, 0,
        "no re-probes of a structural wait ({m:?})"
    );
    assert_eq!(m.rejoins_abandoned, 1, "{m:?}");
    assert!(sim.rejoin().is_rejoining(SiteId::new(0)));
    assert!(!sim.sites()[0].is_serving());
}

/// Per-rejoin cost on the hot-churn shape: `1-3-5`, 16 clients, Zipfian
/// keys over 2^16 objects, 1% link loss on fixed 300 µs links, crashes
/// every ~400 ms per site (40 ms to recover), 3% of them with amnesia.
/// Sums the counters of 60 fixed-seed runs; one run's rejoins vary widely
/// (a source that crashes mid-session restarts the whole rejoin), so
/// fewer seeds leave the mean too noisy to gate. Deterministic, so the
/// bounds are exact. A responder that filled only 16-key leaves cost
/// 3,428 ranges compared and 667 ms of simulated time per rejoin here
/// (109 rejoins); filling empty and sparse ranges whole cut that to 295
/// ranges and 82 ms (157 rejoins: with the same crashes, more rejoins
/// finish inside the runs), still pulling from a whole read quorum per
/// shard. Syncing from one serving mate of each write quorum that holds
/// the site cost 2 ranges and 1.3 ms (163 rejoins). With the faster
/// transactions of later changes it read 10 ranges and 4.7 ms once shared
/// locks went when the read round ends, and reads 12 ranges and 5.2 ms
/// since every phase's first attempt is timed from the measured round
/// trip. The bounds sit 10× and 5× under the read-quorum figures.
#[test]
fn hot_churn_rejoins_fill_ranges_whole() {
    let duration = SimDuration::from_millis(5_000);
    let mut total = SimMetrics::default();
    for seed in 1..=60u64 {
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
        let mut sim = Simulation::new(config, proto());
        FailureSchedule::random_with_amnesia(
            8,
            duration,
            SimDuration::from_millis(400),
            SimDuration::from_millis(40),
            0.03,
            seed ^ 0xFA17,
        )
        .apply(&mut sim);
        let report = sim.run();
        assert!(report.consistent, "seed {seed}: {}", report.violations);
        assert_eq!(report.metrics.sync_violations, 0, "seed {seed}");
        total.rejoins_completed += report.metrics.rejoins_completed;
        total.sync_ranges_compared += report.metrics.sync_ranges_compared;
        total.rejoin_time_total = total.rejoin_time_total + report.metrics.rejoin_time_total;
    }
    let rejoins = total.rejoins_completed;
    assert!(rejoins >= 5, "only {rejoins} rejoins completed");
    let ranges_per = total.sync_ranges_compared / rejoins;
    let micros_per = total.rejoin_time_total.as_micros() / rejoins;
    println!("{rejoins} rejoins: {ranges_per} ranges and {micros_per} us each");
    assert!(ranges_per <= 29, "{ranges_per} ranges compared per rejoin");
    assert!(micros_per <= 16_400, "{micros_per} us per rejoin");
}
