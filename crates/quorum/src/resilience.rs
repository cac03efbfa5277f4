//! Resilience metrics: how many site failures an operation can survive.
//!
//! The *blocking number* of a quorum system is the size of its smallest
//! hitting set — the fewest simultaneous site failures that leave no quorum
//! fully alive. Its complement (`blocking number − 1`) is the system's
//! worst-case fault tolerance. ROWA writes have blocking number 1 (any
//! crash blocks them); majority-of-`n` has `⌈n/2⌉`; the arbitrary
//! protocol's writes have `|K_phy|` (one per level) and its reads `d`
//! (the narrowest level).

use crate::availability::{mask_sites, site_mask};
use crate::quorum_set::QuorumSet;
use crate::system::SetSystem;

/// Maximum universe size for the exhaustive search. The search operates on
/// full-width `u128` site masks, so systems with sites beyond index 31 —
/// which a `u32` mask would silently truncate to an empty set — are
/// handled exactly; the cap only bounds runtime.
pub const RESILIENCE_MAX_SITES: usize = 64;

/// The smallest number of site failures that blocks every quorum of the
/// system (the minimum hitting set size), together with one witness set of
/// failed sites.
///
/// Exhaustive branch-and-bound over the quorum structure; intended for the
/// enumerable systems used in analysis and tests.
///
/// # Examples
///
/// ```
/// use arbitree_quorum::{blocking_number, QuorumSet, SetSystem, Universe};
///
/// let majority = SetSystem::new(Universe::new(5), vec![
///     QuorumSet::from_indices([0, 1, 2]),
///     QuorumSet::from_indices([0, 1, 3]),
///     QuorumSet::from_indices([0, 1, 4]),
///     QuorumSet::from_indices([0, 2, 3]),
///     QuorumSet::from_indices([0, 2, 4]),
///     QuorumSet::from_indices([0, 3, 4]),
///     QuorumSet::from_indices([1, 2, 3]),
///     QuorumSet::from_indices([1, 2, 4]),
///     QuorumSet::from_indices([1, 3, 4]),
///     QuorumSet::from_indices([2, 3, 4]),
/// ])?;
/// let (k, _witness) = blocking_number(&majority);
/// assert_eq!(k, 3); // killing any majority blocks the rest
/// # Ok::<(), arbitree_quorum::QuorumError>(())
/// ```
///
/// # Panics
///
/// Panics if the universe exceeds [`RESILIENCE_MAX_SITES`] sites.
pub fn blocking_number(system: &SetSystem) -> (usize, QuorumSet) {
    let n = system.universe().len();
    assert!(
        n <= RESILIENCE_MAX_SITES,
        "blocking number limited to {RESILIENCE_MAX_SITES} sites"
    );
    let masks: Vec<u128> = system.sets().iter().map(site_mask).collect();

    // Branch and bound: hit the first un-hit quorum by trying each of its
    // members (classic hitting-set search); quorums are small, so this is
    // fast in practice.
    let mut best: Option<u128> = None;
    fn search(
        masks: &[u128],
        hit: u128,
        chosen: u128,
        size: usize,
        best: &mut Option<u128>,
        best_size: &mut usize,
    ) {
        if size >= *best_size {
            return;
        }
        match masks.iter().find(|&&m| m & hit == 0) {
            None => {
                *best = Some(chosen);
                *best_size = size;
            }
            Some(&unhit) => {
                let mut bits = unhit;
                while bits != 0 {
                    let b = bits & bits.wrapping_neg();
                    bits ^= b;
                    search(masks, hit | b, chosen | b, size + 1, best, best_size);
                }
            }
        }
    }
    let mut best_size = n + 1;
    search(&masks, 0, 0, 0, &mut best, &mut best_size);
    let witness_bits = best.expect("non-empty quorums always admit a hitting set");
    let witness = mask_sites(witness_bits);
    (best_size, witness)
}

/// Worst-case fault tolerance: the largest `f` such that *any* `f` site
/// failures still leave some quorum alive — i.e. `blocking_number − 1`.
pub fn fault_tolerance(system: &SetSystem) -> usize {
    blocking_number(system).0 - 1
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
    fn rowa_write_blocks_with_one_failure() {
        let writes = sys(4, &[&[0, 1, 2, 3]]);
        let (k, w) = blocking_number(&writes);
        assert_eq!(k, 1);
        assert_eq!(w.len(), 1);
        assert_eq!(fault_tolerance(&writes), 0);
    }

    #[test]
    fn rowa_read_blocks_only_with_all_failures() {
        let reads = sys(4, &[&[0], &[1], &[2], &[3]]);
        let (k, _) = blocking_number(&reads);
        assert_eq!(k, 4);
        assert_eq!(fault_tolerance(&reads), 3);
    }

    #[test]
    fn majority_three() {
        let m = sys(3, &[&[0, 1], &[0, 2], &[1, 2]]);
        let (k, w) = blocking_number(&m);
        assert_eq!(k, 2);
        // Witness really blocks everything.
        for q in m.sets() {
            assert!(q.intersects(&w));
        }
    }

    #[test]
    fn arbitrary_tree_write_blocking_is_levels() {
        // Write quorums of 1-3-5: {0,1,2} and {3..8}; one failure per level
        // blocks writes → blocking number 2.
        let writes = sys(8, &[&[0, 1, 2], &[3, 4, 5, 6, 7]]);
        assert_eq!(blocking_number(&writes).0, 2);
    }

    #[test]
    fn arbitrary_tree_read_blocking_is_min_level() {
        // Read quorums of 1-3-5 (15 of them): blocking requires killing a
        // whole level; the cheapest is the 3-wide one.
        let mut sets: Vec<Vec<u32>> = Vec::new();
        for a in 0..3u32 {
            for b in 3..8u32 {
                sets.push(vec![a, b]);
            }
        }
        let refs: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
        let reads = sys(8, &refs);
        let (k, w) = blocking_number(&reads);
        assert_eq!(k, 3);
        // The witness is exactly the narrow level.
        assert_eq!(w, QuorumSet::from_indices(0..3));
    }

    #[test]
    fn witness_is_minimal_hitting_set() {
        let m = sys(5, &[&[0, 1], &[1, 2], &[2, 3], &[3, 4], &[4, 0]]);
        let (k, w) = blocking_number(&m);
        assert_eq!(w.len(), k);
        for q in m.sets() {
            assert!(q.intersects(&w), "{w} misses {q}");
        }
        // No smaller hitting set exists: a 5-cycle's vertex cover needs 3.
        assert_eq!(k, 3);
    }

    #[test]
    fn sites_past_u32_mask_width_are_counted() {
        // Pins the u128-mask fix: with 33 singleton read quorums the only
        // hitting set is all 33 sites. The former `bits() as u32` masks
        // mapped site 32's quorum to the empty mask, which can never be
        // hit, so the search found no hitting set at all.
        let sets: Vec<Vec<u32>> = (0..33u32).map(|i| vec![i]).collect();
        let refs: Vec<&[u32]> = sets.iter().map(Vec::as_slice).collect();
        let reads = sys(33, &refs);
        let (k, w) = blocking_number(&reads);
        assert_eq!(k, 33);
        assert_eq!(w.len(), 33);
    }

    #[test]
    fn wide_two_level_write_blocking() {
        // 40 sites split into two write levels; one failure per level
        // blocks writes, and the high half exercises mask bits 32..40.
        let low: Vec<u32> = (0..16).collect();
        let high: Vec<u32> = (16..40).collect();
        let writes = sys(40, &[&low, &high]);
        assert_eq!(blocking_number(&writes).0, 2);
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn oversize_rejected() {
        let big = sys(65, &[&[0]]);
        let _ = blocking_number(&big);
    }
}
