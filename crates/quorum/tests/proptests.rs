//! Property-based tests for the quorum foundation crate.

use arbitree_quorum::{
    certifies_lower_bound, exact_availability, monte_carlo_availability, optimal_load,
    uniform_load, QuorumSet, SetSystem, SiteId, Strategy, Universe,
};
use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy producing a random set system over a small universe in which
/// every set contains site 0 — guaranteeing the intersection property.
fn star_system() -> impl PropStrategy<Value = SetSystem> {
    (2usize..8, 1usize..6).prop_flat_map(|(n, m)| {
        proptest::collection::vec(proptest::collection::vec(0u32..n as u32, 1..n), m).prop_map(
            move |sets| {
                let quorums = sets
                    .into_iter()
                    .map(|mut s| {
                        s.push(0); // common element
                        QuorumSet::from_indices(s)
                    })
                    .collect();
                SetSystem::new(Universe::new(n), quorums).unwrap()
            },
        )
    })
}

/// Arbitrary (possibly non-intersecting) set system.
fn any_system() -> impl PropStrategy<Value = SetSystem> {
    (2usize..8, 1usize..6).prop_flat_map(|(n, m)| {
        proptest::collection::vec(proptest::collection::vec(0u32..n as u32, 1..=n), m).prop_map(
            move |sets| {
                let quorums = sets.into_iter().map(QuorumSet::from_indices).collect();
                SetSystem::new(Universe::new(n), quorums).unwrap()
            },
        )
    })
}

proptest! {
    #[test]
    fn star_systems_are_quorum_systems(s in star_system()) {
        prop_assert!(s.is_quorum_system());
    }

    #[test]
    fn optimal_load_never_exceeds_uniform_load(s in any_system()) {
        let (opt, _) = optimal_load(&s);
        prop_assert!(opt <= uniform_load(&s) + 1e-6);
    }

    #[test]
    fn optimal_load_at_least_inverse_universe(s in any_system()) {
        // The busiest site carries at least 1/n of the total pick mass,
        // and every pick touches >= 1 site, so L >= min_set_size / n >= 1/n.
        let (opt, _) = optimal_load(&s);
        prop_assert!(opt >= 1.0 / s.universe().len() as f64 - 1e-6);
    }

    #[test]
    fn optimal_strategy_achieves_optimal_load(s in any_system()) {
        let (opt, w) = optimal_load(&s);
        prop_assert!((w.system_load(&s) - opt).abs() < 1e-5);
    }

    #[test]
    fn lp_load_lower_bounded_by_min_quorum_over_n(s in any_system()) {
        // Naor–Wool: L(S) >= c(S)/n where c(S) is the smallest quorum size.
        let (opt, _) = optimal_load(&s);
        let bound = s.min_quorum_size() as f64 / s.universe().len() as f64;
        prop_assert!(opt >= bound - 1e-6, "load {opt} < bound {bound}");
    }

    #[test]
    fn uniform_certificate_when_every_set_is_large(s in any_system()) {
        // y = uniform always certifies L >= min_size/n (proposition 2.1).
        let n = s.universe().len();
        let y = vec![1.0 / n as f64; n];
        let bound = s.min_quorum_size() as f64 / n as f64;
        prop_assert!(certifies_lower_bound(&s, &y, bound));
    }

    #[test]
    fn availability_bounds_and_monotonicity(s in any_system(), p in 0.0f64..=1.0) {
        let a = exact_availability(&s, p);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&a));
        let a_hi = exact_availability(&s, (p + 0.1).min(1.0));
        prop_assert!(a_hi >= a - 1e-9);
    }

    #[test]
    fn monte_carlo_close_to_exact(s in any_system(), p in 0.1f64..=0.9, seed in 0u64..1000) {
        let exact = exact_availability(&s, p);
        let mut rng = StdRng::seed_from_u64(seed);
        let mc = monte_carlo_availability(&s, p, 20_000, &mut rng);
        prop_assert!((mc - exact).abs() < 0.05, "mc {mc} exact {exact}");
    }

    #[test]
    fn site_loads_sum_to_expected_cost(s in any_system()) {
        // Σ_i l_w(i) = Σ_j w_j |S_j| for any strategy w.
        let w = Strategy::uniform(&s);
        let lhs: f64 = s.universe().sites().map(|i| w.site_load(&s, i)).sum();
        prop_assert!((lhs - w.expected_cost(&s)).abs() < 1e-9);
    }
}

/// Brute-force the optimal load by grid search over strategies (for systems
/// of at most 3 quorums), to cross-validate the simplex solver.
fn grid_search_load(s: &SetSystem, steps: usize) -> f64 {
    let m = s.len();
    assert!(m <= 3);
    let mut best = f64::INFINITY;
    let eval = |weights: &[f64]| -> f64 {
        s.universe()
            .sites()
            .map(|i| {
                s.sets()
                    .iter()
                    .zip(weights)
                    .filter(|(q, _)| q.contains(i))
                    .map(|(_, w)| w)
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    };
    match m {
        1 => best = eval(&[1.0]),
        2 => {
            for i in 0..=steps {
                let a = i as f64 / steps as f64;
                best = best.min(eval(&[a, 1.0 - a]));
            }
        }
        _ => {
            for i in 0..=steps {
                for j in 0..=(steps - i) {
                    let a = i as f64 / steps as f64;
                    let b = j as f64 / steps as f64;
                    best = best.min(eval(&[a, b, 1.0 - a - b]));
                }
            }
        }
    }
    best
}

proptest! {
    #[test]
    fn lp_matches_grid_search_on_tiny_systems(
        n in 2usize..6,
        raw in proptest::collection::vec(proptest::collection::vec(0u32..6, 1..6), 1..4)
    ) {
        let quorums: Vec<QuorumSet> = raw
            .into_iter()
            .map(|mut v| {
                for x in &mut v {
                    *x %= n as u32;
                }
                QuorumSet::from_indices(v)
            })
            .collect();
        let s = SetSystem::new(Universe::new(n), quorums).unwrap();
        let (lp, _) = optimal_load(&s);
        let grid = grid_search_load(&s, 60);
        // The grid is a feasible-strategy upper bound; LP must match it
        // to within the grid resolution.
        prop_assert!(lp <= grid + 1e-9, "lp {lp} > grid {grid}");
        prop_assert!(grid - lp < 0.02, "grid {grid} far above lp {lp}");
    }

    #[test]
    fn dominated_coteries_have_a_valid_witness(
        n in 2usize..6,
        raw in proptest::collection::vec(proptest::collection::vec(0u32..6, 1..4), 1..4)
    ) {
        use arbitree_quorum::find_dominating_witness;
        let quorums: Vec<QuorumSet> = raw
            .into_iter()
            .map(|mut v| {
                for x in &mut v {
                    *x %= n as u32;
                }
                QuorumSet::from_indices(v)
            })
            .collect();
        let s = SetSystem::new(Universe::new(n), quorums).unwrap();
        if let Some(h) = find_dominating_witness(&s) {
            // The witness intersects every quorum and contains none.
            for q in s.sets() {
                prop_assert!(h.intersects(q));
                prop_assert!(!q.is_subset_of(&h));
            }
        }
    }
}

#[test]
fn site_id_index_consistency() {
    for i in 0..200u32 {
        assert_eq!(SiteId::new(i).index(), i as usize);
    }
}
