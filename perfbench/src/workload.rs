//! The three benchmark workloads and how each builds its simulation.
//!
//! Every workload drives closed-loop simulated clients: a client issues
//! its next transaction only after the previous one finished and a think
//! time passed. Inputs are a pure function of the workload and the seed.

use crate::trace::{PickProbe, TimedProtocol};
use arbitree_core::{builder, ArbitraryProtocol, ArbitraryTree};
use arbitree_quorum::{ReplicaControl, SiteId};
use arbitree_sim::{
    cell_seed, FailureSchedule, ObjectDistribution, RetryPolicy, SimConfig, SimDuration, SimTime,
    Simulation,
};
use std::rc::Rc;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `1-3-5` × 16 shards, batching on, 2^20 uniform keys, 1–16 ops per
    /// transaction: the `site` and `coordinator` layers under batching.
    KeyspaceBatch,
    /// The paper's Algorithm 1 tree for 100 replicas, single-op
    /// transactions: the wide fan-out path through `protocol` and `site`.
    Balanced100,
    /// `1-3-5` under Zipfian keys, link loss, crashes and amnesia rejoins:
    /// lock waits, retries and `recovery`.
    HotChurn,
}

impl Workload {
    /// Every workload, in the order the all-workload run takes them: by
    /// rising peak heap (about 7, 15 and 49 MiB alone). The peak-RSS mark
    /// reset before each workload starts from the RSS the allocator kept
    /// from the ones before, so a workload that needs more than that
    /// reports close to its own peak.
    pub const ALL: [Workload; 3] = [
        Workload::HotChurn,
        Workload::Balanced100,
        Workload::KeyspaceBatch,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KeyspaceBatch => "keyspace-batch",
            Workload::Balanced100 => "balanced-100",
            Workload::HotChurn => "hot-churn",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated time of one segment at full size.
    pub fn default_duration(self) -> SimDuration {
        match self {
            Workload::KeyspaceBatch => SimDuration::from_millis(2_000),
            Workload::Balanced100 => SimDuration::from_millis(10_000),
            Workload::HotChurn => SimDuration::from_millis(5_000),
        }
    }

    /// Independent segments (fresh simulations, each with its own seed)
    /// one pass over the workload runs. `hot-churn` needs many: under its
    /// crash rate a rejoin takes seconds and is often restarted, so one
    /// long simulation drifts into ever lower availability, and a short one
    /// depends on a handful of crashes. Many short segments average over
    /// hundreds of crashes, each from a fresh start.
    pub fn default_segments(self) -> u64 {
        match self {
            Workload::KeyspaceBatch | Workload::Balanced100 => 1,
            Workload::HotChurn => 64,
        }
    }

    /// The workload's tree. The leading `1` of a spec is a logical root,
    /// so `1-3-5` has 8 replicas and `balanced(100)` has 100.
    fn tree(self) -> ArbitraryTree {
        let tree = match self {
            Workload::KeyspaceBatch | Workload::HotChurn => ArbitraryTree::parse("1-3-5"),
            Workload::Balanced100 => {
                builder::balanced(100).and_then(|s| ArbitraryTree::from_spec(&s))
            }
        };
        tree.expect("the workload trees are valid specs")
    }

    /// The simulator configuration for `seed` over `duration`.
    pub fn config(self, seed: u64, duration: SimDuration) -> SimConfig {
        let seed = cell_seed(seed, self as u64);
        match self {
            Workload::KeyspaceBatch => SimConfig {
                seed,
                clients: 16,
                objects: 1 << 20,
                read_fraction: 0.5,
                think_time: SimDuration::from_micros(300),
                max_txn_ops: 16,
                shards: 16,
                batching: true,
                duration,
                ..SimConfig::default()
            },
            Workload::Balanced100 => SimConfig {
                seed,
                clients: 8,
                objects: 4096,
                read_fraction: 0.5,
                max_txn_ops: 1,
                duration,
                ..SimConfig::default()
            },
            Workload::HotChurn => {
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
                // FIFO links: with one fixed latency, messages between two
                // endpoints arrive in the order they were sent. Under the
                // default jittered latency a re-sent `Prepare` can overtake
                // the version-bumped one of the same transaction, and the
                // site then commits the stale stage: a one-copy violation
                // about once per 200 simulated seconds of this workload.
                config.network.min_latency = SimDuration::from_micros(300);
                config.network.max_latency = SimDuration::from_micros(300);
                config.network.drop_probability = 0.01;
                config
            }
        }
    }

    /// The crash schedule for `seed`: MTTF 400 ms, MTTR 40 ms, 3% of
    /// crashes with amnesia on `hot-churn`; none elsewhere.
    pub fn faults(self, seed: u64, replicas: usize, duration: SimDuration) -> FailureSchedule {
        match self {
            Workload::HotChurn => FailureSchedule::random_with_amnesia(
                replicas,
                duration,
                SimDuration::from_millis(400),
                SimDuration::from_millis(40),
                0.03,
                cell_seed(seed ^ 0xFA17_5EED, self as u64),
            ),
            Workload::KeyspaceBatch | Workload::Balanced100 => FailureSchedule::none(),
        }
    }

    /// Builds a ready-to-run simulation: the protocols (wrapped in
    /// [`TimedProtocol`] when `probe` is given), the fault schedule and
    /// the `Simulation`. This is the work `setup_s` times.
    pub fn build(self, seed: u64, duration: SimDuration, probe: Option<&Rc<PickProbe>>) -> Built {
        let config = self.config(seed, duration);
        let tree = self.tree();
        let protocols: Vec<Box<dyn ReplicaControl>> = (0..config.shards)
            .map(|_| {
                let bare: Box<dyn ReplicaControl> = Box::new(ArbitraryProtocol::new(tree.clone()));
                match probe {
                    Some(probe) => Box::new(TimedProtocol::new(bare, Rc::clone(probe))),
                    None => bare,
                }
            })
            .collect();
        let replicas = protocols[0].universe().len();
        let faults = self.faults(seed, replicas, duration);
        let mut sim = Simulation::from_shards(config, protocols);
        faults.apply(&mut sim);
        Built {
            sim,
            tree,
            faults,
            replicas,
        }
    }
}

/// A simulation ready to run, with what was used to build it.
#[derive(Debug)]
pub struct Built {
    /// The simulation, before its first event.
    pub sim: Simulation,
    /// The replica tree every shard runs.
    pub tree: ArbitraryTree,
    /// The installed fault schedule.
    pub faults: FailureSchedule,
    /// Replicas in the universe.
    pub replicas: usize,
}

/// A moment when every replica of one physical level is down from an
/// amnesia crash, so the level's data is gone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelWipe {
    /// Tree level (0 is the root).
    pub level: usize,
    /// When the last of its replicas went down.
    pub at: SimTime,
}

/// Finds the first moment `faults` amnesia-crashes every replica of one
/// physical level at once. A site counts as wiped from its amnesia crash
/// until its next recovery (or the end of the run).
pub fn level_wipe(faults: &FailureSchedule, tree: &ArbitraryTree) -> Option<LevelWipe> {
    // Per-site amnesia outages [crash, recovery).
    let outage_of = |site: SiteId, at: SimTime| {
        let recovered = faults
            .events()
            .iter()
            .filter(|&&(t, s, crash)| s == site && !crash && t > at)
            .map(|&(t, _, _)| t)
            .min()
            .unwrap_or(SimTime::from_micros(u64::MAX));
        (at, recovered)
    };
    let mut first: Option<LevelWipe> = None;
    for &level in tree.physical_levels() {
        let sites = tree.level_sites(level);
        // Sweep the level's outage edges in time order, counting sites
        // down; one site's outages never overlap, so the count is of
        // distinct sites.
        let mut edges: Vec<(SimTime, i32)> = faults
            .amnesia_events()
            .iter()
            .filter(|(_, s)| sites.contains(s))
            .flat_map(|&(at, s)| {
                let (from, to) = outage_of(s, at);
                [(from, 1), (to, -1)]
            })
            .collect();
        // Ends sort before starts at the same instant: [from, to) spans.
        edges.sort_unstable();
        let mut down = 0i32;
        for (at, delta) in edges {
            down += delta;
            if down as usize == sites.len() && first.as_ref().is_none_or(|w| at < w.at) {
                first = Some(LevelWipe { level, at });
            }
        }
    }
    first
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn replica_counts_come_from_the_universe() {
        let d = SimDuration::from_millis(1);
        assert_eq!(Workload::KeyspaceBatch.build(1, d, None).replicas, 8);
        assert_eq!(Workload::Balanced100.build(1, d, None).replicas, 100);
        let tree = Workload::Balanced100.tree();
        assert_eq!(tree.spec().to_string(), "1-4-4-4-4-4-4-4-24-24-24");
        assert_eq!(tree.physical_level_count(), 10);
    }

    #[test]
    fn level_wipe_needs_the_whole_level_down_at_once() {
        let tree = ArbitraryTree::parse("1-2-3").expect("valid spec");
        let level = tree.physical_levels()[0];
        let (a, b) = (tree.level_sites(level)[0], tree.level_sites(level)[1]);
        let ms = SimTime::from_millis;
        let mut faults = FailureSchedule::none();
        faults
            .amnesia_crash(ms(10), a)
            .recover(ms(20), a)
            .amnesia_crash(ms(20), b)
            .recover(ms(30), b);
        assert_eq!(level_wipe(&faults, &tree), None, "back to back, never both");
        faults.amnesia_crash(ms(25), a).recover(ms(40), a);
        assert_eq!(
            level_wipe(&faults, &tree),
            Some(LevelWipe { level, at: ms(25) })
        );
    }
}
