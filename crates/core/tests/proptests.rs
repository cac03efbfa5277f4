//! Property-based tests for the arbitrary protocol: bicoterie intersection,
//! load/cost/availability invariants, Algorithm 1 validity, spec round-trips.

use arbitree_core::builder::{balanced, even_levels, mostly_read, mostly_write};
use arbitree_core::planner::{plan, reconfigure, Workload};
use arbitree_core::{
    read_quorum_count, read_quorums, write_quorums, ArbitraryProtocol, ArbitraryTree, TreeMetrics,
    TreeSpec,
};
use arbitree_quorum::{
    certifies_lower_bound, exact_availability, optimal_load, AliveSet, ReplicaControl, SetSystem,
};
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generates small valid arbitrary trees (non-decreasing level widths,
/// logical root) keeping the read-quorum count manageable.
fn small_tree() -> impl PropStrategy<Value = ArbitraryTree> {
    proptest::collection::vec(1usize..5, 1..5).prop_map(|mut widths| {
        widths.sort_unstable();
        let spec = TreeSpec::logical_root(widths);
        ArbitraryTree::from_spec(&spec).expect("sorted widths satisfy assumption 3.1")
    })
}

proptest! {
    #[test]
    fn bicoterie_intersection_for_arbitrary_valid_trees(t in small_tree()) {
        let reads: Vec<_> = read_quorums(&t).collect();
        let writes: Vec<_> = write_quorums(&t).collect();
        for r in &reads {
            for w in &writes {
                prop_assert!(r.intersects(w), "{r} misses {w} on {t}");
            }
        }
    }

    #[test]
    fn quorum_counts_match_facts(t in small_tree()) {
        // Fact 3.2.1 / 3.2.2.
        let m_r: u128 = t.physical_levels().iter()
            .map(|&k| t.level_physical(k) as u128).product();
        prop_assert_eq!(read_quorum_count(&t), Some(m_r));
        prop_assert_eq!(read_quorums(&t).count() as u128, m_r);
        prop_assert_eq!(write_quorums(&t).count(), t.physical_level_count());
    }

    #[test]
    fn closed_form_read_load_matches_lp(t in small_tree()) {
        // The paper's L_RD = 1/d must equal the LP-optimal load of the
        // enumerated read system.
        prop_assume!(read_quorum_count(&t).unwrap() <= 200);
        let system = SetSystem::new(
            t.universe(),
            read_quorums(&t).collect(),
        ).unwrap();
        let (lp_load, _) = optimal_load(&system);
        let closed = TreeMetrics::new(&t).read_load();
        prop_assert!((lp_load - closed).abs() < 1e-5,
            "LP {lp_load} vs closed form {closed} on {t}");
    }

    #[test]
    fn closed_form_write_load_matches_lp(t in small_tree()) {
        let system = SetSystem::new(
            t.universe(),
            write_quorums(&t).collect(),
        ).unwrap();
        let (lp_load, _) = optimal_load(&system);
        let closed = TreeMetrics::new(&t).write_load();
        prop_assert!((lp_load - closed).abs() < 1e-5,
            "LP {lp_load} vs closed form {closed} on {t}");
    }

    #[test]
    fn read_load_certificate(t in small_tree()) {
        // Appendix 6.1.2: y = 1/d on the first (narrowest by assumption 3.1)
        // physical level certifies L_RD >= 1/d.
        prop_assume!(read_quorum_count(&t).unwrap() <= 500);
        let system = SetSystem::new(t.universe(), read_quorums(&t).collect()).unwrap();
        let first = t.physical_levels()[0];
        let d = t.level_physical(first) as f64;
        let mut y = vec![0.0; t.replica_count()];
        for s in t.level_sites(first) {
            y[s.index()] = 1.0 / d;
        }
        prop_assert!(certifies_lower_bound(&system, &y, 1.0 / d));
    }

    #[test]
    fn write_load_certificate(t in small_tree()) {
        // Appendix 6.2.2: one replica per physical level, each valued
        // 1/|K_phy|, certifies L_WR >= 1/|K_phy|.
        let system = SetSystem::new(t.universe(), write_quorums(&t).collect()).unwrap();
        let k = t.physical_level_count() as f64;
        let mut y = vec![0.0; t.replica_count()];
        for &level in t.physical_levels() {
            y[t.level_sites(level)[0].index()] = 1.0 / k;
        }
        prop_assert!(certifies_lower_bound(&system, &y, 1.0 / k));
    }

    #[test]
    fn closed_form_availability_matches_exhaustive(t in small_tree(), p in 0.1f64..0.95) {
        prop_assume!(t.replica_count() <= 12);
        prop_assume!(read_quorum_count(&t).unwrap() <= 300);
        let m = TreeMetrics::new(&t);
        let reads = SetSystem::new(t.universe(), read_quorums(&t).collect()).unwrap();
        let writes = SetSystem::new(t.universe(), write_quorums(&t).collect()).unwrap();
        prop_assert!((exact_availability(&reads, p) - m.read_availability(p)).abs() < 1e-9);
        prop_assert!((exact_availability(&writes, p) - m.write_availability(p)).abs() < 1e-9);
    }

    #[test]
    fn picked_quorums_live_and_valid(t in small_tree(), seed in 0u64..500, dead in proptest::collection::vec(0u32..16, 0..4)) {
        prop_assume!(t.replica_count() <= 16);
        let proto = ArbitraryProtocol::new(t.clone());
        let mut alive = AliveSet::full(t.replica_count());
        for d in dead {
            if (d as usize) < t.replica_count() {
                alive.remove(arbitree_quorum::SiteId::new(d));
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(q) = proto.pick_read_quorum(alive.clone(), &mut rng) {
            prop_assert!(q.is_subset_of(&alive));
            prop_assert_eq!(q.len(), t.physical_level_count());
        }
        if let Some(q) = proto.pick_write_quorum(alive.clone(), &mut rng) {
            prop_assert!(q.is_subset_of(&alive));
            // A write quorum is exactly one full level.
            let lvl = t.site_level(q.iter().next().unwrap());
            prop_assert_eq!(q.len(), t.level_physical(lvl));
        }
        // When all sites are alive, picks always succeed.
        let full = AliveSet::full(t.replica_count());
        prop_assert!(proto.pick_read_quorum(full.clone(), &mut rng).is_some());
        prop_assert!(proto.pick_write_quorum(full, &mut rng).is_some());
    }

    #[test]
    fn spec_roundtrip(widths in proptest::collection::vec(1usize..30, 1..8)) {
        let mut w = widths;
        w.sort_unstable();
        let spec = TreeSpec::logical_root(w);
        let printed = spec.to_string();
        let parsed: TreeSpec = printed.parse().unwrap();
        prop_assert_eq!(parsed, spec);
    }

    #[test]
    fn algorithm1_output_valid_for_all_n(n in 65usize..2000) {
        let spec = balanced(n).unwrap();
        spec.validate().unwrap();
        prop_assert_eq!(spec.replica_count(), n);
        // |K_phy| = round(sqrt(n)).
        let k = (n as f64).sqrt().round() as usize;
        prop_assert_eq!(spec.physical_levels().len(), k);
        // Write load is 1/round(sqrt(n)).
        let t = ArbitraryTree::from_spec(&spec).unwrap();
        let m = TreeMetrics::new(&t);
        prop_assert!((m.write_load() - 1.0 / k as f64).abs() < 1e-12);
        prop_assert!((m.read_load() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn planner_endpoints(n in 4usize..40, p in 0.6f64..0.99) {
        // Pure reads → mostly-read; pure writes → many levels.
        let r = plan(n, Workload::new(1.0, p)).unwrap();
        prop_assert_eq!(r.physical_levels, 1);
        prop_assert_eq!(&r.spec, &mostly_read(n).unwrap());
        let w = plan(n, Workload::new(0.0, p)).unwrap();
        prop_assert!(w.physical_levels >= n / 4,
            "n={n}: write-only plan used {} levels", w.physical_levels);
    }

    #[test]
    fn reconfigure_is_consistent(n in 4usize..40, k1 in 1usize..8, k2 in 1usize..8) {
        prop_assume!(k1 <= n / 2 && k2 <= n / 2);
        let a = even_levels(n, k1).unwrap();
        let b = even_levels(n, k2).unwrap();
        let m = reconfigure(&a, &b).unwrap();
        prop_assert_eq!(m.total(), n);
        if k1 == k2 {
            prop_assert!(m.moves().is_empty());
        }
        // Reverse migration has the same number of moves.
        let back = reconfigure(&b, &a).unwrap();
        prop_assert_eq!(back.moves().len(), m.moves().len());
    }

    #[test]
    fn mostly_write_always_valid(n in 2usize..300) {
        let spec = mostly_write(n).unwrap();
        spec.validate().unwrap();
        prop_assert_eq!(spec.replica_count(), n);
        let t = ArbitraryTree::from_spec(&spec).unwrap();
        prop_assert!(t.min_level_width() >= 2);
        prop_assert!(t.max_level_width() <= 3);
    }

    #[test]
    fn expected_loads_bounded(t in small_tree(), p in 0.0f64..=1.0) {
        let m = TreeMetrics::new(&t);
        let er = m.expected_read_load(p);
        let ew = m.expected_write_load(p);
        prop_assert!(er >= m.read_load() - 1e-12 && er <= 1.0 + 1e-12);
        prop_assert!(ew >= m.write_load() - 1e-12 && ew <= 1.0 + 1e-12);
    }
}

proptest! {
    #[test]
    fn blocking_numbers_match_structure(t in small_tree()) {
        // Reads are blocked by killing the narrowest physical level (d
        // failures); writes by one failure per physical level (|K_phy|).
        use arbitree_quorum::{blocking_number, SetSystem};
        prop_assume!(t.replica_count() <= 16);
        prop_assume!(read_quorum_count(&t).unwrap() <= 400);
        let reads = SetSystem::new(t.universe(), read_quorums(&t).collect()).unwrap();
        let writes = SetSystem::new(t.universe(), write_quorums(&t).collect()).unwrap();
        prop_assert_eq!(blocking_number(&reads).0, t.min_level_width());
        prop_assert_eq!(blocking_number(&writes).0, t.physical_level_count());
    }
}

proptest! {
    #[test]
    fn gradual_migration_properties(
        widths_a in proptest::collection::vec(1usize..8, 1..6),
        widths_b_seed in proptest::collection::vec(1usize..8, 1..6),
        k in 1usize..5,
    ) {
        use arbitree_core::planner::gradual_migration;
        let mut a = widths_a;
        a.sort_unstable();
        let n: usize = a.iter().sum();
        // Derive a second partition of the same n from the seed widths.
        let mut b = Vec::new();
        let mut rem = n;
        for w in widths_b_seed {
            if rem == 0 { break; }
            let take = w.min(rem);
            b.push(take);
            rem -= take;
        }
        if rem > 0 {
            b.push(rem);
        }
        b.sort_unstable();
        let from = TreeSpec::logical_root(a);
        let to = TreeSpec::logical_root(b.clone());
        let steps = gradual_migration(&from, &to, k).unwrap();
        // Every intermediate validates and preserves n.
        for s in &steps {
            s.validate().unwrap();
            prop_assert_eq!(s.replica_count(), n);
        }
        // Terminates at the target width multiset.
        let last = steps.last().cloned().unwrap_or_else(|| from.clone());
        let mut got = last.physical_counts();
        got.sort_unstable();
        prop_assert_eq!(got, b);
    }
}
