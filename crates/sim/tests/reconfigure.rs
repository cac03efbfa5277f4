//! Tests of live reconfiguration (the paper's "shift configurations by
//! changing only the tree") and read-repair.

use arbitree_core::ArbitraryProtocol;
use arbitree_quorum::SiteId;
use arbitree_sim::{
    EventKey, FailureSchedule, NetworkConfig, Scheduler, SeededScheduler, SimConfig, SimDuration,
    SimTime, Simulation,
};

fn config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        clients: 4,
        objects: 3,
        read_fraction: 0.6,
        duration: SimDuration::from_millis(300),
        ..SimConfig::default()
    }
}

#[test]
fn reconfiguration_swaps_protocol_and_stays_consistent() {
    // Shift a 9-replica system from mostly-read (1-9) to a deeper shape.
    let mut sim = Simulation::new(config(1), ArbitraryProtocol::parse("1-9").unwrap());
    sim.schedule_reconfigure(
        SimTime::from_millis(100),
        ArbitraryProtocol::parse("1-2-3-4").unwrap(),
    );
    let report = sim.run();
    assert!(report.consistent, "{} violations", report.violations);
    assert_eq!(report.metrics.reconfigurations, 1);
    assert_eq!(report.metrics.migration_writes, 3); // one per object
    assert_eq!(sim.protocol().describe(), "1-2-3-4");
    // Work happened on both sides of the swap.
    assert!(report.metrics.reads_ok > 20);
    assert!(report.metrics.writes_ok > 5);
}

#[test]
fn reads_after_swap_see_pre_swap_writes() {
    // Force writes before the swap, then a read-only phase after: values
    // written under the old structure must be visible under the new one.
    let mut cfg = config(2);
    cfg.read_fraction = 0.0; // writes only before the swap
    cfg.duration = SimDuration::from_millis(400);
    let mut sim = Simulation::new(cfg, ArbitraryProtocol::parse("1-9").unwrap());
    sim.schedule_reconfigure(
        SimTime::from_millis(200),
        ArbitraryProtocol::parse("1-4-5").unwrap(),
    );
    let report = sim.run();
    assert!(report.consistent, "{} violations", report.violations);
    assert_eq!(report.metrics.reconfigurations, 1);
    assert!(report.writes_recorded > 3);
}

#[test]
fn reconfiguration_under_churn_is_safe_even_if_abandoned() {
    for seed in 0..10u64 {
        let mut sim = Simulation::new(config(seed), ArbitraryProtocol::parse("1-3-5").unwrap());
        let schedule = FailureSchedule::random(
            8,
            SimDuration::from_millis(300),
            SimDuration::from_millis(50),
            SimDuration::from_millis(12),
            seed.wrapping_mul(7),
        );
        schedule.apply(&mut sim);
        sim.schedule_reconfigure(
            SimTime::from_millis(120),
            ArbitraryProtocol::parse("1-2-2-4").unwrap(),
        );
        let report = sim.run();
        // Whether the migration succeeded or was abandoned, the execution
        // must be one-copy consistent.
        assert!(
            report.consistent,
            "seed {seed}: {} violations (reconfigs {})",
            report.violations, report.metrics.reconfigurations
        );
    }
}

/// Fires events in the seeded order and records whether `site` was ever
/// mid-rejoin while a migration was in flight.
struct WatchOverlap {
    site: SiteId,
    overlapped: bool,
}

impl Scheduler for WatchOverlap {
    fn select(&mut self, sim: &Simulation) -> Option<EventKey> {
        self.overlapped |=
            sim.rejoin().is_rejoining(self.site) && sim.coordinator().migration_target().is_some();
        SeededScheduler.select(sim)
    }
}

#[test]
fn amnesia_rejoin_during_a_migration_meets_the_target_quorums() {
    // `1-3-5` → `1-4-4` over the same 8 sites. Site 3 sits in the old
    // level {3..7} and the target level {0..3}, so its sources must come
    // from both: one old level-mate and one target level-mate (two
    // sessions). Migration writes go to old ∪ target write quorums, so a
    // rejoin that met only the old structure could miss them.
    let mut cfg = config(31);
    cfg.objects = 40;
    cfg.duration = SimDuration::from_millis(600);
    let mut sim = Simulation::new(cfg, ArbitraryProtocol::parse("1-3-5").unwrap());
    let site = SiteId::new(3);
    sim.schedule_reconfigure(
        SimTime::from_millis(100),
        ArbitraryProtocol::parse("1-4-4").unwrap(),
    );
    sim.schedule_amnesia_crash(SimTime::from_millis(105), site);
    sim.schedule_recover(SimTime::from_millis(115), site);
    let mut watch = WatchOverlap {
        site,
        overlapped: false,
    };
    let report = sim.run_with(&mut watch);
    let m = &report.metrics;
    assert!(
        watch.overlapped,
        "the rejoin never overlapped the migration"
    );
    assert!(report.consistent, "{} violations", report.violations);
    assert_eq!(m.sync_violations, 0);
    assert_eq!(m.reconfigurations, 1, "{m}");
    assert_eq!(m.rejoins_completed, 1, "{m}");
    assert!(m.sync_sessions >= 2, "one session per structure ({m})");
    assert_eq!(sim.protocol().describe(), "1-4-4");
}

#[test]
fn multiple_sequential_reconfigurations() {
    let mut sim = Simulation::new(config(5), ArbitraryProtocol::parse("1-9").unwrap());
    sim.schedule_reconfigure(
        SimTime::from_millis(80),
        ArbitraryProtocol::parse("1-4-5").unwrap(),
    );
    sim.schedule_reconfigure(
        SimTime::from_millis(180),
        ArbitraryProtocol::parse("1-2-3-4").unwrap(),
    );
    let report = sim.run();
    assert!(report.consistent);
    assert_eq!(report.metrics.reconfigurations, 2);
    assert_eq!(sim.protocol().describe(), "1-2-3-4");
}

#[test]
#[should_panic(expected = "keep the replica set")]
fn reconfiguration_rejects_different_replica_count() {
    let mut sim = Simulation::new(config(6), ArbitraryProtocol::parse("1-9").unwrap());
    sim.schedule_reconfigure(
        SimTime::from_millis(10),
        ArbitraryProtocol::parse("1-3-5").unwrap(), // 8 != 9
    );
    let _ = sim.run();
}

#[test]
fn read_repair_refreshes_stale_members() {
    // A site crashes, misses writes, recovers; with read-repair on, reads
    // that observe its stale answers refresh it.
    let mut cfg = config(7);
    cfg.read_repair = true;
    cfg.network = NetworkConfig::default();
    let mut sim = Simulation::new(cfg, ArbitraryProtocol::parse("1-3-5").unwrap());
    sim.schedule_crash(SimTime::from_millis(20), SiteId::new(3));
    sim.schedule_recover(SimTime::from_millis(150), SiteId::new(3));
    let report = sim.run();
    assert!(report.consistent);
    assert!(
        report.metrics.repairs_sent > 0,
        "expected repairs after recovery ({})",
        report.metrics
    );
    // The stale member actually installed repaired versions; any repair
    // that raced a newer commit was discarded by the timestamp guard, not
    // applied over it.
    assert!(
        report.metrics.repairs_applied > 0,
        "expected applied repairs ({})",
        report.metrics
    );
    assert!(
        report.metrics.repairs_applied + report.metrics.repairs_ignored_stale
            <= report.metrics.repairs_sent,
        "every applied/ignored repair was sent ({})",
        report.metrics
    );
}

#[test]
fn stale_read_repairs_are_counted_not_applied() {
    // With repair traffic racing live writes under loss, at least some
    // repairs arrive carrying a timestamp the site has already passed —
    // those must be counted as ignored, and never regress the store.
    let mut cfg = config(9);
    cfg.read_repair = true;
    cfg.network = NetworkConfig {
        drop_probability: 0.10,
        ..NetworkConfig::default()
    };
    cfg.read_fraction = 0.5;
    let mut sim = Simulation::new(cfg, ArbitraryProtocol::parse("1-3-5").unwrap());
    sim.schedule_crash(SimTime::from_millis(20), SiteId::new(3));
    sim.schedule_recover(SimTime::from_millis(80), SiteId::new(3));
    sim.schedule_crash(SimTime::from_millis(120), SiteId::new(4));
    sim.schedule_recover(SimTime::from_millis(180), SiteId::new(4));
    let report = sim.run();
    assert!(report.consistent, "violations: {}", report.violations);
    assert!(
        report.metrics.repairs_applied > 0,
        "expected applied repairs ({})",
        report.metrics
    );
}

#[test]
fn read_repair_off_by_default() {
    let mut sim = Simulation::new(config(8), ArbitraryProtocol::parse("1-3-5").unwrap());
    sim.schedule_crash(SimTime::from_millis(20), SiteId::new(3));
    sim.schedule_recover(SimTime::from_millis(150), SiteId::new(3));
    let report = sim.run();
    assert_eq!(report.metrics.repairs_sent, 0);
    assert!(report.consistent);
}

#[test]
fn reconfiguration_determinism() {
    let run = |seed| {
        let mut sim = Simulation::new(config(seed), ArbitraryProtocol::parse("1-9").unwrap());
        sim.schedule_reconfigure(
            SimTime::from_millis(90),
            ArbitraryProtocol::parse("1-2-3-4").unwrap(),
        );
        sim.run()
    };
    let a = run(11);
    let b = run(11);
    assert_eq!(a.metrics, b.metrics);
}
