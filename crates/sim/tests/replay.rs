//! Byte-level replay regression: a chaos run is a pure function of its
//! seed. Two runs with the same seed must produce **byte-identical**
//! serialized state — not just equal aggregate counters, but the full
//! metrics (including per-site quorum-hit maps, whose iteration order is
//! exactly what `DetMap` pins down) and the complete operation history,
//! event for event, timestamp for timestamp.
//!
//! This is the regression net for the determinism work: if anyone
//! reintroduces a raw `HashMap` into a send loop, an unseeded RNG, or a
//! wall-clock read, the serialized transcripts diverge and this test
//! fails even while every functional assertion still passes.

use arbitree_core::ArbitraryProtocol;
use arbitree_quorum::SiteId;
use arbitree_sim::{
    build_profile, NemesisKind, NetworkConfig, RetryPolicy, SeededScheduler, SimConfig,
    SimDuration, SimReport, Simulation,
};
use proptest::prelude::*;

/// A full-pressure chaos run: partitions cycling over a logical level,
/// exponential backoff with jitter (exercising the RNG on every retry),
/// and history recording on so the transcript captures every operation.
fn chaos_run(seed: u64) -> SimReport {
    let config = SimConfig {
        seed,
        retry: RetryPolicy::Exponential {
            cap: SimDuration::from_millis(24),
            jitter: 0.5,
        },
        duration: SimDuration::from_millis(250),
        record_history: true,
        ..SimConfig::default()
    };
    let proto = ArbitraryProtocol::parse("1-3-5").expect("valid spec");
    let mut sim = Simulation::new(config, proto);
    let nemesis = build_profile(
        NemesisKind::PartitionCycles,
        &[vec![SiteId::new(1), SiteId::new(2), SiteId::new(3)]],
        NetworkConfig::default(),
        SimDuration::from_millis(250),
        seed,
    );
    sim.schedule_nemesis(&nemesis);
    sim.run()
}

/// Serializes everything observable about a run into one byte string.
fn transcript(report: &SimReport) -> String {
    format!(
        "metrics={:#?}\nhistory={:#?}\nviolations={} consistent={} incomplete={} \
         reads_checked={} writes_recorded={}",
        report.metrics,
        report.history,
        report.violations,
        report.consistent,
        report.ops_incomplete,
        report.reads_checked,
        report.writes_recorded,
    )
}

#[test]
fn same_seed_replays_byte_identically() {
    let a = transcript(&chaos_run(77));
    let b = transcript(&chaos_run(77));
    assert!(
        !a.is_empty() && a.contains("history"),
        "transcript should capture history"
    );
    assert_eq!(
        a.as_bytes(),
        b.as_bytes(),
        "same-seed chaos runs must serialize byte-for-byte identically"
    );
}

/// The scheduler seam must be invisible on the default path:
/// `run_with(&mut SeededScheduler)` is the policy `run()` always had, so
/// over random small trees, seeds and network shapes the two must produce
/// byte-identical transcripts — not merely equivalent reports.
mod scheduler_seam {
    use super::*;

    const SPECS: [&str; 6] = ["1-3", "1-5", "1-2-3", "1-3-5", "p:1-3", "p:1-2-4"];

    fn run_pair(spec: &str, seed: u64, drop: f64, jitter: bool) -> (String, String) {
        let config = |s| SimConfig {
            seed: s,
            clients: 2,
            objects: 2,
            retry: if jitter {
                RetryPolicy::Exponential {
                    cap: SimDuration::from_millis(24),
                    jitter: 0.5,
                }
            } else {
                RetryPolicy::Fixed
            },
            network: NetworkConfig {
                drop_probability: drop,
                ..NetworkConfig::default()
            },
            duration: SimDuration::from_millis(60),
            record_history: true,
            ..SimConfig::default()
        };
        let proto = || ArbitraryProtocol::parse(spec).expect("valid spec");
        let baseline = Simulation::new(config(seed), proto()).run();
        let mut sim = Simulation::new(config(seed), proto());
        let seamed = sim.run_with(&mut SeededScheduler);
        (transcript(&baseline), transcript(&seamed))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn seeded_scheduler_is_byte_identical_to_run(
            spec_idx in 0usize..SPECS.len(),
            seed in 0u64..10_000,
            drop in 0.0f64..0.1,
            jitter in any::<bool>(),
        ) {
            let (baseline, seamed) = run_pair(SPECS[spec_idx], seed, drop, jitter);
            prop_assert!(
                baseline.contains("history"),
                "transcript should capture history"
            );
            prop_assert_eq!(
                baseline,
                seamed,
                "scheduler seam changed behavior on the default path: spec {} seed {}",
                SPECS[spec_idx],
                seed
            );
        }
    }
}

/// The calendar queue must be observationally identical to the reference
/// `BTreeQueue` it replaced — same `pop` order, same `keys` enumeration,
/// same `take`-by-arbitrary-key results — over randomized interleavings of
/// schedules (near, far, and colliding timestamps), pops, and takes. This
/// is the ordering oracle for the event-engine swap: the interleavings are
/// chosen to push events through every tier (bucket hit, spill, overflow
/// insert, window slide and re-base, slab recycling), and the bimodal
/// driver pushes them through re-sizes as well.
mod queue_equivalence {
    use super::*;
    use arbitree_sim::{BTreeQueue, ClientId, Event, EventQueue, SimTime};

    /// One step of the randomized driver.
    #[derive(Debug, Clone)]
    enum Op {
        /// Schedule a tagged event at a timestamp (µs).
        Schedule(u64, u32),
        /// Pop the earliest event from both queues.
        Pop,
        /// Take the pending key at index `i % len` of the enumeration.
        Take(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Weighted mix (the vendored proptest has no `prop_oneof!`):
        // 3/9 near schedules — inside (and just past) the initial window,
        // a tight range so same-µs collisions exercise the FIFO seq
        // tie-break; 2/9 far schedules — deep into the overflow tier, far
        // enough that draining crosses several window rotations; 2/9 pops;
        // 2/9 takes of an arbitrary pending key.
        (
            0u8..9,
            0u64..6_000,
            0u64..4_000_000,
            any::<u32>(),
            any::<usize>(),
        )
            .prop_map(|(sel, near, far, tag, idx)| match sel {
                0..=2 => Op::Schedule(near, tag),
                3..=4 => Op::Schedule(far, tag),
                5..=6 => Op::Pop,
                _ => Op::Take(idx),
            })
    }

    /// One step of the bimodal driver, which schedules relative to the
    /// clock (the time of the last pop) the way the simulator does.
    #[derive(Debug, Clone)]
    enum Bimodal {
        /// Schedule a tagged event a jittered delay (µs) from now.
        Near(u64, u32),
        /// Schedule a tagged event one fixed 300 µs hop from now.
        Hop(u32),
        /// Schedule a tagged event far out (µs), up to 5 s from now.
        Far(u64, u32),
        /// Schedule `n` events at one timestamp, a delay (µs) from now.
        Burst(u32, u64),
        /// Pop the earliest event from both queues and advance the clock.
        Pop,
        /// Take the pending key at index `i % len` of the enumeration.
        Take(usize),
    }

    fn bimodal_strategy() -> impl Strategy<Value = Bimodal> {
        // Weighted mix: 3/12 jittered near, 2/12 fixed hops, 1/12 far,
        // 1/12 bursts of up to 24 — together more than the 3/12 pops and
        // 2/12 takes drain, so the pending set grows through several
        // bucket-count bands and crowds buckets along the way.
        (
            0u8..12,
            1u64..4_096,
            1u64..5_000_000,
            2u32..24,
            any::<u32>(),
            any::<usize>(),
        )
            .prop_map(|(sel, near, far, n, tag, idx)| match sel {
                0..=2 => Bimodal::Near(near, tag),
                3..=4 => Bimodal::Hop(tag),
                5 => Bimodal::Far(far, tag),
                6 => Bimodal::Burst(n, near),
                7..=9 => Bimodal::Pop,
                _ => Bimodal::Take(idx),
            })
    }

    /// Schedules the same tagged event at `t` µs on both queues.
    fn schedule(cal: &mut EventQueue, btree: &mut BTreeQueue, t: u64, tag: u32) {
        let at = SimTime::from_micros(t);
        cal.schedule(at, Event::ClientTick(ClientId(tag)));
        btree.schedule(at, Event::ClientTick(ClientId(tag)));
    }

    /// Full observational equality of the two queues.
    fn assert_same(cal: &EventQueue, btree: &BTreeQueue) {
        assert_eq!(cal.len(), btree.len());
        assert_eq!(cal.next_key(), btree.next_key());
        let ck: Vec<_> = cal.iter().collect();
        let bk: Vec<_> = btree.iter().collect();
        assert_eq!(ck, bk, "iter() enumeration diverged");
        for (k, _) in &bk {
            assert_eq!(cal.get(*k), btree.get(*k));
        }
    }

    /// Drains both queues to the end, checking order at every step.
    fn drain_and_compare(cal: &mut EventQueue, btree: &mut BTreeQueue) {
        loop {
            let a = cal.pop();
            let b = btree.pop();
            assert_eq!(a, b, "drain order diverged");
            if a.is_none() {
                break;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn calendar_queue_matches_reference_btree(
            ops in proptest::collection::vec(op_strategy(), 1..250),
        ) {
            let mut cal = EventQueue::new();
            let mut btree = BTreeQueue::new();
            for op in &ops {
                match *op {
                    Op::Schedule(t, tag) => {
                        let at = SimTime::from_micros(t);
                        cal.schedule(at, Event::ClientTick(ClientId(tag)));
                        btree.schedule(at, Event::ClientTick(ClientId(tag)));
                    }
                    Op::Pop => {
                        prop_assert_eq!(cal.pop(), btree.pop());
                    }
                    Op::Take(i) => {
                        let keys: Vec<_> = btree.keys().collect();
                        if keys.is_empty() {
                            continue;
                        }
                        let key = keys[i % keys.len()];
                        prop_assert_eq!(cal.take(key), btree.take(key));
                        // A taken key is gone from both.
                        prop_assert!(cal.get(key).is_none());
                        prop_assert!(cal.take(key).is_none());
                    }
                }
                // Full observational equality after every step.
                prop_assert_eq!(cal.len(), btree.len());
                prop_assert_eq!(cal.is_empty(), btree.is_empty());
                prop_assert_eq!(cal.next_key(), btree.next_key());
                prop_assert_eq!(cal.peek_time(), btree.peek_time());
                let ck: Vec<_> = cal.keys().collect();
                let bk: Vec<_> = btree.keys().collect();
                prop_assert_eq!(&ck, &bk, "keys() enumeration diverged");
                for k in &ck {
                    prop_assert_eq!(cal.get(*k), btree.get(*k));
                }
                let ci: Vec<_> = cal.iter().collect();
                let bi: Vec<_> = btree.iter().collect();
                prop_assert_eq!(ci, bi, "iter() enumeration diverged");
            }
            drain_and_compare(&mut cal, &mut btree);
        }

        #[test]
        fn calendar_queue_matches_reference_under_bimodal_load(
            ops in proptest::collection::vec(bimodal_strategy(), 1..600),
        ) {
            let mut cal = EventQueue::new();
            let mut btree = BTreeQueue::new();
            let mut now = 0u64;
            for op in &ops {
                match *op {
                    Bimodal::Near(d, tag) => schedule(&mut cal, &mut btree, now + d, tag),
                    Bimodal::Hop(tag) => schedule(&mut cal, &mut btree, now + 300, tag),
                    Bimodal::Far(d, tag) => schedule(&mut cal, &mut btree, now + d, tag),
                    Bimodal::Burst(n, d) => {
                        for tag in 0..n {
                            schedule(&mut cal, &mut btree, now + d, tag);
                        }
                    }
                    Bimodal::Pop => {
                        let popped = btree.pop();
                        prop_assert_eq!(cal.pop(), popped.clone());
                        if let Some((at, _)) = popped {
                            now = at.as_micros();
                        }
                    }
                    Bimodal::Take(i) => {
                        let keys: Vec<_> = btree.keys().collect();
                        if keys.is_empty() {
                            continue;
                        }
                        let key = keys[i % keys.len()];
                        prop_assert_eq!(cal.take(key), btree.take(key));
                        prop_assert!(cal.get(key).is_none());
                    }
                }
                assert_same(&cal, &btree);
            }
            drain_and_compare(&mut cal, &mut btree);
        }
    }
}

#[test]
fn different_seeds_diverge() {
    let a = transcript(&chaos_run(77));
    let c = transcript(&chaos_run(78));
    assert_ne!(
        a.as_bytes(),
        c.as_bytes(),
        "different seeds should produce different executions"
    );
}
