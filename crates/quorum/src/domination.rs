//! Coterie domination (Garcia-Molina & Barbara): a coterie `D` *dominates*
//! a coterie `C ≠ D` when every member of `C` contains some member of `D` —
//! `D` grants everything `C` grants, at least as cheaply and at least as
//! available. Non-dominated (ND) coteries are the sensible design points;
//! the majority coterie is ND, while e.g. a coterie that needlessly avoids
//! usable sets is dominated.

use crate::availability::{mask_sites, site_mask};
use crate::quorum_set::QuorumSet;
use crate::system::SetSystem;

/// Returns `true` if coterie `d` dominates coterie `c`: `d ≠ c` and every
/// quorum of `c` is a superset of some quorum of `d`.
///
/// Both arguments should be coteries over the same universe; no validation
/// is performed beyond the definition.
///
/// # Examples
///
/// ```
/// use arbitree_quorum::{dominates, QuorumSet, SetSystem, Universe};
///
/// let u = Universe::new(3);
/// // c grants only {0,1}; d = majority grants {0,1}, {0,2}, {1,2}.
/// let c = SetSystem::new(u, vec![QuorumSet::from_indices([0, 1])])?;
/// let d = SetSystem::new(u, vec![
///     QuorumSet::from_indices([0, 1]),
///     QuorumSet::from_indices([0, 2]),
///     QuorumSet::from_indices([1, 2]),
/// ])?;
/// assert!(dominates(&d, &c));
/// assert!(!dominates(&c, &d));
/// # Ok::<(), arbitree_quorum::QuorumError>(())
/// ```
pub fn dominates(d: &SetSystem, c: &SetSystem) -> bool {
    if same_sets(d, c) {
        return false;
    }
    c.sets()
        .iter()
        .all(|cq| d.sets().iter().any(|dq| dq.is_subset_of(cq)))
}

fn same_sets(a: &SetSystem, b: &SetSystem) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut av: Vec<&QuorumSet> = a.sets().iter().collect();
    let mut bv: Vec<&QuorumSet> = b.sets().iter().collect();
    av.sort();
    bv.sort();
    av == bv
}

/// Decides whether a coterie is **dominated** by *some* coterie, using the
/// classical characterization: `C` is dominated iff there exists a set
/// `H ⊆ U` that (1) intersects every quorum of `C` and (2) contains no
/// quorum of `C`. (Such an `H`, minimized, can be adjoined to form a
/// dominating coterie.) Non-dominated coteries are exactly those for which
/// every transversal contains a quorum.
///
/// Exhaustive over subsets, so restricted to universes of at most
/// [`crate::EXACT_AVAILABILITY_MAX_SITES`] sites.
///
/// # Examples
///
/// ```
/// use arbitree_quorum::{is_dominated, QuorumSet, SetSystem, Universe};
///
/// // Majority-of-3 is non-dominated.
/// let majority = SetSystem::new(Universe::new(3), vec![
///     QuorumSet::from_indices([0, 1]),
///     QuorumSet::from_indices([0, 2]),
///     QuorumSet::from_indices([1, 2]),
/// ])?;
/// assert!(!is_dominated(&majority));
/// # Ok::<(), arbitree_quorum::QuorumError>(())
/// ```
///
/// # Panics
///
/// Panics if the universe exceeds the exhaustive-search limit.
pub fn is_dominated(c: &SetSystem) -> bool {
    find_dominating_witness(c).is_some()
}

/// Like [`is_dominated`], but returns the witness set `H` (a transversal of
/// `C` containing no quorum of `C`), if one exists.
///
/// # Panics
///
/// Panics if the universe exceeds the exhaustive-search limit.
pub fn find_dominating_witness(c: &SetSystem) -> Option<QuorumSet> {
    let n = c.universe().len();
    assert!(
        n <= crate::availability::EXACT_AVAILABILITY_MAX_SITES,
        "domination check limited to {} sites",
        crate::availability::EXACT_AVAILABILITY_MAX_SITES
    );
    let masks: Vec<u128> = c.sets().iter().map(site_mask).collect();
    for h in 1u64..(1u64 << n) {
        let h = h as u128;
        let intersects_all = masks.iter().all(|&m| m & h != 0);
        if !intersects_all {
            continue;
        }
        let contains_some = masks.iter().any(|&m| m & !h == 0);
        if !contains_some {
            return Some(mask_sites(h));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Universe;

    fn sys(n: usize, sets: &[&[u32]]) -> SetSystem {
        SetSystem::new(
            Universe::new(n),
            sets.iter()
                .map(|s| QuorumSet::from_indices(s.iter().copied()))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn majority_three_is_nondominated() {
        let m = sys(3, &[&[0, 1], &[0, 2], &[1, 2]]);
        assert!(!is_dominated(&m));
        assert!(find_dominating_witness(&m).is_none());
    }

    #[test]
    fn singleton_king_is_nondominated() {
        let king = sys(3, &[&[0]]);
        assert!(!is_dominated(&king));
    }

    #[test]
    fn single_pair_coterie_is_dominated() {
        // {{0,1}} over U = {0,1,2}: H = {0,2} intersects it and contains no
        // quorum → dominated (e.g. by {{0}} or by majority).
        let c = sys(3, &[&[0, 1]]);
        assert!(is_dominated(&c));
        let h = find_dominating_witness(&c).unwrap();
        // Witness intersects the quorum but does not contain it.
        assert!(h.intersects(&QuorumSet::from_indices([0, 1])));
        assert!(!QuorumSet::from_indices([0, 1]).is_subset_of(&h));
    }

    #[test]
    fn explicit_domination_relation() {
        let c = sys(3, &[&[0, 1]]);
        let d = sys(3, &[&[0]]);
        assert!(dominates(&d, &c));
        assert!(!dominates(&c, &d));
        // Nothing dominates itself.
        assert!(!dominates(&c, &c));
        let c_reordered = sys(3, &[&[1, 0]]);
        assert!(!dominates(&c_reordered, &c));
    }

    #[test]
    fn majority_even_is_dominated() {
        // Majority of 4 (threshold 3) is the classic dominated example:
        // H = any 2-set misses every 3-quorum? No — check: quorums are all
        // 3-subsets; H = {0,1}: intersects every 3-subset of {0..3}
        // (a 3-subset omits only one element) and contains no 3-subset →
        // dominated.
        let m4 = sys(4, &[&[0, 1, 2], &[0, 1, 3], &[0, 2, 3], &[1, 2, 3]]);
        assert!(is_dominated(&m4));
    }

    #[test]
    fn wheel_coterie_nondominated() {
        // Wheel over 4 sites: {0,1},{0,2},{0,3},{1,2,3} — a classic ND
        // coterie.
        let wheel = sys(4, &[&[0, 1], &[0, 2], &[0, 3], &[1, 2, 3]]);
        assert!(wheel.is_coterie());
        assert!(!is_dominated(&wheel));
    }

    #[test]
    fn tree_quorum_h1_is_majority_hence_nd() {
        let tq = sys(3, &[&[0, 1], &[0, 2], &[1, 2]]);
        assert!(!is_dominated(&tq));
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn oversize_universe_rejected() {
        let big = sys(21, &[&[0]]);
        let _ = is_dominated(&big);
    }
}
