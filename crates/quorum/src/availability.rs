//! Availability analysis: the probability that at least one quorum of a
//! system is fully alive when each site is independently up with
//! probability `p`.
//!
//! Two generic evaluators are provided:
//!
//! * [`exact_availability`] — exhaustive enumeration over alive-site subsets,
//!   exponential in `n`; used to cross-check closed forms on small systems.
//! * [`monte_carlo_availability`] — seeded sampling for larger systems.
//!
//! Protocol crates additionally implement their closed forms directly (e.g.
//! the paper's `∏_k (1 − (1−p)^{m_phy_k})`), which these evaluators validate.

use crate::quorum_set::{AliveSet, QuorumSet};
use crate::system::SetSystem;
use rand::Rng;

/// Largest universe accepted by [`exact_availability`] (2²⁰ subsets).
pub const EXACT_AVAILABILITY_MAX_SITES: usize = 20;

/// Returns `true` if some set of the system is entirely contained in `alive`.
///
/// This is the *feasibility* predicate: an operation using this quorum system
/// can terminate iff this holds.
pub fn has_live_quorum(system: &SetSystem, alive: &AliveSet) -> bool {
    system.sets().iter().any(|s| s.is_subset_of(alive))
}

/// `set`'s members as a `u128` mask, the form the exhaustive analyses
/// enumerate (their site caps keep every index below 128).
pub(crate) fn site_mask(set: &QuorumSet) -> u128 {
    set.iter().fold(0, |mask, s| mask | 1 << s.index())
}

/// The sites whose bits are set in `mask`.
pub(crate) fn mask_sites(mask: u128) -> QuorumSet {
    QuorumSet::from_indices((0..128).filter(|i| mask >> i & 1 == 1))
}

/// Exact availability by enumerating all `2^n` alive subsets.
///
/// # Panics
///
/// Panics if the universe exceeds [`EXACT_AVAILABILITY_MAX_SITES`] sites or
/// `p` is not a probability.
pub fn exact_availability(system: &SetSystem, p: f64) -> f64 {
    let n = system.universe().len();
    assert!(
        n <= EXACT_AVAILABILITY_MAX_SITES,
        "exact availability limited to {EXACT_AVAILABILITY_MAX_SITES} sites (got {n})"
    );
    assert!((0.0..=1.0).contains(&p), "p must be a probability");

    let masks: Vec<u128> = system.sets().iter().map(site_mask).collect();
    let mut total = 0.0;
    for subset in 0u64..(1u64 << n) {
        let alive = subset as u128;
        if masks.iter().any(|&m| m & !alive == 0) {
            let k = (subset.count_ones()) as i32;
            total += p.powi(k) * (1.0 - p).powi(n as i32 - k);
        }
    }
    total
}

/// Monte-Carlo availability estimate using `samples` independent trials.
///
/// Deterministic for a given RNG seed, so experiments are reproducible.
///
/// # Panics
///
/// Panics if `samples == 0` or `p` is not a probability.
pub fn monte_carlo_availability<R: Rng + ?Sized>(
    system: &SetSystem,
    p: f64,
    samples: u32,
    rng: &mut R,
) -> f64 {
    assert!(samples > 0, "need at least one sample");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut hits = 0u32;
    for _ in 0..samples {
        let alive: AliveSet = system
            .universe()
            .sites()
            .filter(|_| rng.gen::<f64>() < p)
            .collect();
        if has_live_quorum(system, &alive) {
            hits += 1;
        }
    }
    f64::from(hits) / f64::from(samples)
}

/// Steady-state per-site uptime probability for a site alternating
/// exponential up-times (mean `mttf`) and down-times (mean `mttr`):
/// `MTTF / (MTTF + MTTR)`. This is the `p` to feed the availability closed
/// forms when cross-validating against a dynamic simulation driven by an
/// MTTF/MTTR crash schedule.
///
/// # Panics
///
/// Panics unless both means are positive and finite.
pub fn steady_state_uptime(mttf: f64, mttr: f64) -> f64 {
    assert!(
        mttf > 0.0 && mttf.is_finite(),
        "mttf must be positive and finite"
    );
    assert!(
        mttr > 0.0 && mttr.is_finite(),
        "mttr must be positive and finite"
    );
    mttf / (mttf + mttr)
}

/// Relative error `|measured − predicted| / predicted` of a measured
/// availability against a closed-form prediction. Falls back to the
/// absolute error when the prediction is (numerically) zero, so a cell
/// predicting "never available" still reports how far reality strayed.
pub fn relative_error(measured: f64, predicted: f64) -> f64 {
    let abs = (measured - predicted).abs();
    if predicted.abs() < 1e-12 {
        abs
    } else {
        abs / predicted.abs()
    }
}

/// Probability that **at least `k` of `n`** independent sites are alive —
/// the availability of a `k`-of-`n` threshold (e.g. majority) system.
///
/// # Panics
///
/// Panics if `k > n` or `p` is not a probability.
pub fn binomial_tail(n: usize, k: usize, p: f64) -> f64 {
    assert!(k <= n, "threshold k={k} exceeds n={n}");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut total = 0.0;
    for i in k..=n {
        total += binomial_pmf(n, i, p);
    }
    total.min(1.0)
}

/// Probability of exactly `k` successes among `n` Bernoulli(`p`) trials.
pub fn binomial_pmf(n: usize, k: usize, p: f64) -> f64 {
    assert!(k <= n);
    // Work in log space via iterative multiplication to avoid overflow.
    let mut coeff = 1.0f64;
    for i in 0..k {
        coeff *= (n - i) as f64 / (i + 1) as f64;
    }
    coeff * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum_set::QuorumSet;
    use crate::site::{SiteId, Universe};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn majority3() -> SetSystem {
        SetSystem::new(
            Universe::new(3),
            vec![
                QuorumSet::from_indices([0, 1]),
                QuorumSet::from_indices([0, 2]),
                QuorumSet::from_indices([1, 2]),
            ],
        )
        .unwrap()
    }

    fn rowa_writes(n: usize) -> SetSystem {
        SetSystem::new(Universe::new(n), vec![QuorumSet::from_indices(0..n as u32)]).unwrap()
    }

    #[test]
    fn live_quorum_predicate() {
        let s = majority3();
        let mut alive = AliveSet::full(3);
        assert!(has_live_quorum(&s, &alive));
        alive.remove(SiteId::new(0));
        assert!(has_live_quorum(&s, &alive)); // {1,2} still alive
        alive.remove(SiteId::new(1));
        assert!(!has_live_quorum(&s, &alive));
    }

    #[test]
    fn majority_exact_matches_binomial_tail() {
        let s = majority3();
        for &p in &[0.5, 0.7, 0.9, 1.0, 0.0] {
            let a = exact_availability(&s, p);
            let b = binomial_tail(3, 2, p);
            assert!((a - b).abs() < 1e-12, "p={p}: {a} vs {b}");
        }
    }

    #[test]
    fn rowa_write_availability_is_p_to_n() {
        let s = rowa_writes(4);
        for &p in &[0.6, 0.8, 0.95] {
            let a = exact_availability(&s, p);
            assert!((a - p.powi(4)).abs() < 1e-12);
        }
    }

    #[test]
    fn rowa_read_availability_is_one_minus_q_to_n() {
        let n = 4;
        let s = SetSystem::new(
            Universe::new(n),
            (0..n as u32)
                .map(|i| QuorumSet::from_indices([i]))
                .collect(),
        )
        .unwrap();
        for &p in &[0.6, 0.8] {
            let a = exact_availability(&s, p);
            let expect = 1.0 - (1.0 - p).powi(n as i32);
            assert!((a - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn monte_carlo_tracks_exact() {
        let s = majority3();
        let mut rng = StdRng::seed_from_u64(1);
        let mc = monte_carlo_availability(&s, 0.7, 100_000, &mut rng);
        let exact = exact_availability(&s, 0.7);
        assert!((mc - exact).abs() < 0.01, "mc {mc} vs exact {exact}");
    }

    #[test]
    fn monte_carlo_is_deterministic_per_seed() {
        let s = majority3();
        let a = monte_carlo_availability(&s, 0.7, 1000, &mut StdRng::seed_from_u64(9));
        let b = monte_carlo_availability(&s, 0.7, 1000, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let total: f64 = (0..=10).map(|k| binomial_pmf(10, k, 0.37)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn binomial_tail_edges() {
        assert!((binomial_tail(5, 0, 0.3) - 1.0).abs() < 1e-12);
        assert!((binomial_tail(5, 5, 0.3) - 0.3f64.powi(5)).abs() < 1e-12);
    }

    #[test]
    fn availability_monotone_in_p() {
        let s = majority3();
        let mut last = 0.0;
        for i in 0..=10 {
            let p = f64::from(i) / 10.0;
            let a = exact_availability(&s, p);
            assert!(a >= last - 1e-12);
            last = a;
        }
    }

    #[test]
    fn steady_state_uptime_basics() {
        assert!((steady_state_uptime(60.0, 15.0) - 0.8).abs() < 1e-12);
        assert!((steady_state_uptime(1.0, 1.0) - 0.5).abs() < 1e-12);
        // More repair time → lower uptime.
        assert!(steady_state_uptime(10.0, 5.0) > steady_state_uptime(10.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "mttr")]
    fn steady_state_rejects_zero_mttr() {
        let _ = steady_state_uptime(10.0, 0.0);
    }

    #[test]
    fn relative_error_basics() {
        assert!((relative_error(0.9, 1.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_error(0.5, 0.5), 0.0);
        // Zero prediction falls back to absolute error.
        assert!((relative_error(0.25, 0.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn exact_rejects_large_universe() {
        let s = rowa_writes(25);
        let _ = exact_availability(&s, 0.5);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn exact_rejects_bad_p() {
        let s = majority3();
        let _ = exact_availability(&s, 1.5);
    }
}
