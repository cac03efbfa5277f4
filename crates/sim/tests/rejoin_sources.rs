//! Structural oracle for the rejoin's sync-source rule, kept apart from the
//! mechanism: it reads only the protocols' enumerated write quorums.
//!
//! A rejoining site owes every completed write whose write quorum `W`
//! contains it, and a `Serving` member of `W` holds each of them. So the
//! sources must meet `W \ {site}` for every such `W`, and a source list can
//! exist exactly when each of those sets has a serving member.
//! [`write_mate_sources`] must satisfy that on random ARBITRARY trees and on
//! every baseline family at small `n`, alone and paired with a migration
//! target, under random serving sets. A deliberately wrong rule — one
//! serving site from any level — must fail it.

use arbitree_baselines::{
    unmodified, Grid, Hqc, Maekawa, Majority, Rowa, TreeQuorum, WeightedVoting,
};
use arbitree_core::{ArbitraryProtocol, ArbitraryTree, TreeSpec};
use arbitree_quorum::{AliveSet, QuorumSet, ReplicaControl, SiteId};
use arbitree_sim::write_mate_sources;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Checks `got` — a source list for rejoining `site`, or `None` for
/// "wait" — against the write quorums of `protocols` and the `serving`
/// set. Independent of how the sources were chosen.
fn check_sources(
    protocols: &[&dyn ReplicaControl],
    site: SiteId,
    serving: &AliveSet,
    got: Option<&QuorumSet>,
) -> Result<(), String> {
    let owed: Vec<QuorumSet> = protocols
        .iter()
        .flat_map(|p| p.write_quorums())
        .filter(|w| w.contains(site))
        .map(|w| QuorumSet::from_sites(w.iter().filter(|&s| s != site)))
        .collect();
    let starved = owed.iter().find(|m| !m.intersects(serving));
    match (got, starved) {
        (None, None) => Err("waited although every write quorum has a serving mate".into()),
        (None, Some(_)) => Ok(()),
        (Some(_), Some(m)) => Err(format!("picked sources although mates {m} are all down")),
        (Some(sources), None) => {
            if sources.contains(site) {
                return Err(format!("sources {sources} include the rejoiner"));
            }
            if !sources.is_subset_of(serving) {
                return Err(format!("sources {sources} are not all serving"));
            }
            if let Some(m) = owed.iter().find(|m| !m.intersects(sources)) {
                return Err(format!("sources {sources} miss the write-quorum mates {m}"));
            }
            match sources
                .iter()
                .find(|&s| !owed.iter().any(|m| m.contains(s)))
            {
                Some(s) => Err(format!(
                    "source {s} shares no write quorum with the rejoiner"
                )),
                None => Ok(()),
            }
        }
    }
}

/// The wrong rule: per protocol, one serving site drawn from the first
/// write quorum (level) that has one, whether or not it holds the
/// rejoiner.
fn any_level_sources(
    protocols: &[&dyn ReplicaControl],
    site: SiteId,
    serving: &AliveSet,
    rng: &mut dyn RngCore,
) -> Option<QuorumSet> {
    let mut sources = QuorumSet::new();
    for p in protocols {
        let live = p.write_quorums().find_map(|w| {
            let live: Vec<SiteId> = w
                .iter()
                .filter(|&s| s != site && serving.contains(s))
                .collect();
            (!live.is_empty()).then_some(live)
        })?;
        sources.insert(live[(rng.next_u64() % live.len() as u64) as usize]);
    }
    Some(sources)
}

/// One protocol from every family at small `n`, chosen by `kind`.
fn protocol(kind: usize, a: usize, b: usize) -> Box<dyn ReplicaControl> {
    match kind % 9 {
        root @ (0 | 1) => {
            let mut widths = vec![a % 4 + 1, b % 4 + 1, (a + b) % 3 + 1];
            widths.truncate(b % 3 + 1);
            widths.sort_unstable();
            let spec = if root == 0 {
                TreeSpec::logical_root(widths)
            } else {
                // Assumption 3.1: the levels under a physical root are wider.
                TreeSpec::physical_root(std::iter::once(1).chain(widths.into_iter().map(|w| w + 1)))
            };
            Box::new(ArbitraryProtocol::new(
                ArbitraryTree::from_spec(&spec).expect("sorted widths are valid"),
            ))
        }
        2 => Box::new(Rowa::new(a % 6 + 1)),
        3 => Box::new(Majority::new(a % 7 + 1)),
        4 => Box::new(Grid::new(a % 3 + 1, b % 3 + 1)),
        5 => Box::new(Maekawa::new(a % 3 + 1, b % 3 + 1)),
        6 => Box::new(Hqc::new(a % 2 + 1)),
        7 => Box::new(TreeQuorum::new(a % 3)),
        _ => match b % 2 {
            0 => Box::new(unmodified(a % 2 + 1).expect("small binary tree")),
            _ => {
                let votes: Vec<u32> = (0..a % 5 + 1)
                    .map(|i| (i as u32 + b as u32) % 3 + 1)
                    .collect();
                let total: u32 = votes.iter().sum();
                let w = total / 2 + 1;
                Box::new(WeightedVoting::new(votes, total + 1 - w, w).expect("Gifford thresholds"))
            }
        },
    }
}

/// A migration target over the same `n` sites.
fn target(kind: usize, n: usize) -> Box<dyn ReplicaControl> {
    match kind % 2 {
        0 => Box::new(Majority::new(n)),
        _ => Box::new(Rowa::new(n)),
    }
}

fn serving_set(n: usize, bits: u64, site: SiteId) -> AliveSet {
    let mut serving = AliveSet::from_indices((0..n as u32).filter(|&i| bits >> (i % 64) & 1 == 1));
    serving.remove(site);
    serving
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn write_mate_sources_meet_every_write_quorum_holding_the_site(
        kind in 0usize..9,
        a in 0usize..8,
        b in 0usize..8,
        migrating in 0usize..3,
        site in 0usize..64,
        bits in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let shard = protocol(kind, a, b);
        let n = shard.universe().len();
        let target = (migrating < 2).then(|| target(migrating, n));
        let protocols: Vec<&dyn ReplicaControl> =
            std::iter::once(&*shard).chain(target.as_deref()).collect();
        let site = SiteId::new((site % n) as u32);
        let serving = serving_set(n, bits, site);
        let mut rng = StdRng::seed_from_u64(seed);
        let got = write_mate_sources(protocols.iter().copied(), site, &serving, &mut rng);
        let verdict = check_sources(&protocols, site, &serving, got.as_ref());
        prop_assert!(verdict.is_ok(), "{} site {site} serving {serving}: {}", shard.describe(),
            verdict.unwrap_err());
    }
}

#[test]
fn the_oracle_rejects_one_serving_site_from_any_level() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut rejected = 0;
    for kind in 0..9 {
        for a in 0..8 {
            for b in 0..8 {
                let p = protocol(kind, a, b);
                let n = p.universe().len();
                for site in 0..n as u32 {
                    let site = SiteId::new(site);
                    let serving = serving_set(n, u64::MAX, site);
                    let protocols = [&*p];
                    let got = any_level_sources(&protocols, site, &serving, &mut rng);
                    rejected += usize::from(
                        check_sources(&protocols, site, &serving, got.as_ref()).is_err(),
                    );
                }
            }
        }
    }
    assert!(
        rejected > 0,
        "the oracle passed the any-level rule everywhere"
    );
    // The canonical case: on `1-3-5` a leaf owes its own level's writes,
    // and the any-level rule syncs it from the other level.
    let p = ArbitraryProtocol::parse("1-3-5").unwrap();
    let site = SiteId::new(5);
    let serving = serving_set(8, u64::MAX, site);
    let got = any_level_sources(&[&p], site, &serving, &mut rng);
    assert!(check_sources(&[&p], site, &serving, got.as_ref()).is_err());
}

#[test]
fn a_leaf_of_1_3_5_syncs_from_one_level_mate() {
    let p = ArbitraryProtocol::parse("1-3-5").unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    for site in 0..8u32 {
        let site = SiteId::new(site);
        let serving = serving_set(8, u64::MAX, site);
        let sources = write_mate_sources([&p as &dyn ReplicaControl], site, &serving, &mut rng)
            .expect("every level has a serving mate");
        assert_eq!(sources.len(), 1, "site {site}: {sources}");
        let level = |s: SiteId| usize::from(s.index() >= 3);
        assert!(sources.iter().all(|s| level(s) == level(site)));
    }
}

#[test]
fn a_single_site_level_has_no_mate_to_sync_from() {
    // `p:1-3`: the physical root {0} is a write quorum of its own; its
    // writes lived only on the wiped store, so the rejoin must wait.
    let p = ArbitraryProtocol::parse("p:1-3").unwrap();
    let site = SiteId::new(0);
    let serving = serving_set(4, u64::MAX, site);
    let mut rng = StdRng::seed_from_u64(5);
    assert_eq!(
        write_mate_sources([&p as &dyn ReplicaControl], site, &serving, &mut rng),
        None
    );
}
