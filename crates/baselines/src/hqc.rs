//! Hierarchical Quorum Consensus (Kumar, IEEE ToC 1991) on a ternary
//! hierarchy — the paper's `HQC` comparison configuration.
//!
//! Replicas sit only at the **leaves** of a complete ternary tree of height
//! `h` (`n = 3^h`); internal nodes are logical. A quorum of a subtree is the
//! union of quorums of any **2 of its 3** children (the per-level quorum size
//! the paper quotes), giving quorums of size `2^h = n^{log₃2} ≈ n^0.63` and
//! an optimal load of `n^{−0.37}` (Naor–Wool §6.4).

use arbitree_quorum::{AliveSet, CostProfile, QuorumSet, ReplicaControl, SiteId, Universe};
use rand::RngCore;

/// The three ways to choose 2 children out of 3.
const PAIRS: [(u32, u32); 3] = [(0, 1), (0, 2), (1, 2)];

/// Hierarchical Quorum Consensus over `3^height` replicas.
///
/// Reads and writes use the same quorum structure (2-of-3 at every level),
/// matching the paper's §4 where both operations cost `n^0.63`.
///
/// # Examples
///
/// ```
/// use arbitree_baselines::Hqc;
/// use arbitree_quorum::ReplicaControl;
///
/// let hqc = Hqc::new(2); // n = 9
/// assert_eq!(hqc.universe().len(), 9);
/// assert_eq!(hqc.quorum_count(), Some(27));
/// assert_eq!(hqc.read_cost().avg, 4.0); // 2^h
/// ```
#[derive(Debug, Clone)]
pub struct Hqc {
    height: usize,
    n: usize,
    /// `counts[k]` = quorum count of a height-`k` subtree: `c(k) = 3·c(k−1)²`.
    counts: Vec<Option<u128>>,
}

impl Hqc {
    /// Creates the protocol for a ternary hierarchy of the given height.
    ///
    /// # Panics
    ///
    /// Panics if `height >= 20` (replica count overflow).
    pub fn new(height: usize) -> Self {
        assert!(height < 20, "height must be < 20");
        let n = 3usize.pow(height as u32);
        let mut counts: Vec<Option<u128>> = Vec::with_capacity(height + 1);
        counts.push(Some(1));
        for k in 1..=height {
            counts.push(counts[k - 1].and_then(|c| c.checked_mul(c)?.checked_mul(3)));
        }
        Hqc { height, n, counts }
    }

    /// The hierarchy height `h`.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total quorum count `3^(2^h − 1)`, or `None` on overflow.
    pub fn quorum_count(&self) -> Option<u128> {
        self.counts[self.height]
    }

    /// Quorum size `2^h = n^{log₃2}`.
    pub fn quorum_size(&self) -> usize {
        1 << self.height
    }

    /// Decodes quorum `idx` of the subtree of height `k` whose leaves span
    /// `leaf_base .. leaf_base + 3^k`.
    fn decode(&self, leaf_base: u32, k: usize, idx: u128, out: &mut Vec<SiteId>) {
        if k == 0 {
            out.push(SiteId::new(leaf_base));
            return;
        }
        let c = self.counts[k - 1].expect("enumeration requires exact counts");
        let span = 3u32.pow(k as u32 - 1);
        let pair = PAIRS[(idx / (c * c)) as usize];
        let rest = idx % (c * c);
        self.decode(leaf_base + pair.0 * span, k - 1, rest / c, out);
        self.decode(leaf_base + pair.1 * span, k - 1, rest % c, out);
    }

    /// Recursive live construction: succeed iff at least 2 of the 3 child
    /// subtrees yield live quorums (children tried in random order).
    fn collect_live(
        &self,
        leaf_base: u32,
        k: usize,
        alive: &AliveSet,
        rng: &mut dyn RngCore,
        out: &mut Vec<SiteId>,
    ) -> bool {
        if k == 0 {
            if alive.contains(SiteId::new(leaf_base)) {
                out.push(SiteId::new(leaf_base));
                true
            } else {
                false
            }
        } else {
            let span = 3u32.pow(k as u32 - 1);
            let mut order = [0u32, 1, 2];
            // Fisher–Yates on three elements.
            for i in (1..3usize).rev() {
                order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            let mark = out.len();
            let mut got = 0;
            for &child in &order {
                if got == 2 {
                    break;
                }
                if self.collect_live(leaf_base + child * span, k - 1, alive, rng, out) {
                    got += 1;
                }
            }
            if got == 2 {
                true
            } else {
                out.truncate(mark);
                false
            }
        }
    }

    /// Availability recursion: `A(0) = p`,
    /// `A(k) = 3·A(k−1)²·(1 − A(k−1)) + A(k−1)³` (at least 2-of-3).
    fn availability(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let mut a = p;
        for _ in 0..self.height {
            a = 3.0 * a * a * (1.0 - a) + a * a * a;
        }
        a
    }

    /// Naor–Wool's optimal load for HQC: `n^{−0.37}` (precisely
    /// `n^{log₃2 − 1}`).
    pub fn naor_wool_load(&self) -> f64 {
        let exponent = (2f64).log(3.0) - 1.0; // ≈ −0.369
        (self.n as f64).powf(exponent)
    }
}

impl ReplicaControl for Hqc {
    fn name(&self) -> &str {
        "HQC"
    }

    fn universe(&self) -> Universe {
        Universe::new(self.n)
    }

    fn read_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        let total = self
            .quorum_count()
            .expect("quorum count overflows u128; enumeration unsupported");
        Box::new((0..total).map(move |idx| {
            let mut members = Vec::new();
            self.decode(0, self.height, idx, &mut members);
            QuorumSet::from_sites(members)
        }))
    }

    fn write_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        self.read_quorums()
    }

    fn pick_read_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        let mut members = Vec::new();
        if self.collect_live(0, self.height, &alive, rng, &mut members) {
            Some(QuorumSet::from_sites(members))
        } else {
            None
        }
    }

    fn pick_write_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        self.pick_read_quorum(alive, rng)
    }

    fn read_cost(&self) -> CostProfile {
        CostProfile::flat(self.quorum_size() as f64)
    }

    fn write_cost(&self) -> CostProfile {
        self.read_cost()
    }

    fn read_availability(&self, p: f64) -> f64 {
        self.availability(p)
    }

    fn write_availability(&self, p: f64) -> f64 {
        self.availability(p)
    }

    fn read_load(&self) -> f64 {
        self.naor_wool_load()
    }

    fn write_load(&self) -> f64 {
        self.naor_wool_load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitree_quorum::{exact_availability, optimal_load, SetSystem};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn counts_and_sizes() {
        assert_eq!(Hqc::new(0).quorum_count(), Some(1));
        assert_eq!(Hqc::new(1).quorum_count(), Some(3));
        assert_eq!(Hqc::new(2).quorum_count(), Some(27));
        assert_eq!(Hqc::new(3).quorum_count(), Some(2187));
        assert_eq!(Hqc::new(2).quorum_size(), 4);
        assert_eq!(Hqc::new(3).universe().len(), 27);
    }

    #[test]
    fn height_one_is_majority_of_three() {
        let h = Hqc::new(1);
        let qs: Vec<_> = h.read_quorums().collect();
        assert_eq!(qs.len(), 3);
        assert!(qs.contains(&QuorumSet::from_indices([0, 1])));
        assert!(qs.contains(&QuorumSet::from_indices([0, 2])));
        assert!(qs.contains(&QuorumSet::from_indices([1, 2])));
    }

    #[test]
    fn forms_a_coterie() {
        for height in [1usize, 2] {
            let h = Hqc::new(height);
            let sys = SetSystem::new(h.universe(), h.read_quorums().collect()).unwrap();
            assert!(sys.is_coterie(), "height={height}");
        }
    }

    #[test]
    fn quorum_sizes_are_exactly_2_pow_h() {
        let h = Hqc::new(2);
        for q in h.read_quorums() {
            assert_eq!(q.len(), 4);
        }
    }

    #[test]
    fn enumeration_distinct() {
        let h = Hqc::new(2);
        let mut qs: Vec<_> = h.read_quorums().collect();
        let before = qs.len();
        qs.sort();
        qs.dedup();
        assert_eq!(qs.len(), before);
    }

    #[test]
    fn availability_matches_enumeration() {
        for height in [1usize, 2] {
            let h = Hqc::new(height);
            let sys = SetSystem::new(h.universe(), h.read_quorums().collect()).unwrap();
            for &p in &[0.6, 0.8, 0.9] {
                let exact = exact_availability(&sys, p);
                let rec = h.read_availability(p);
                assert!(
                    (exact - rec).abs() < 1e-9,
                    "height={height} p={p}: {exact} vs {rec}"
                );
            }
        }
    }

    #[test]
    fn load_matches_lp_for_small_heights() {
        let h = Hqc::new(2);
        let sys = SetSystem::new(h.universe(), h.read_quorums().collect()).unwrap();
        let (lp, _) = optimal_load(&sys);
        // n=9: n^(log3(2)-1) = 9^{-0.369} = 2^2/9 ≈ 0.4444.
        assert!((h.naor_wool_load() - 4.0 / 9.0).abs() < 1e-9);
        assert!((lp - h.naor_wool_load()).abs() < 1e-5, "lp {lp}");
    }

    #[test]
    fn pick_tolerates_one_failure_per_group() {
        let h = Hqc::new(2);
        let mut rng = StdRng::seed_from_u64(7);
        // Kill one leaf in each of the three groups: quorums still exist.
        let mut alive = AliveSet::full(9);
        for s in [0u32, 3, 6] {
            alive.remove(SiteId::new(s));
        }
        let q = h.pick_read_quorum(alive.clone(), &mut rng).unwrap();
        assert_eq!(q.len(), 4);
        assert!(q.is_subset_of(&alive));
    }

    #[test]
    fn pick_fails_when_two_groups_die() {
        let h = Hqc::new(2);
        let mut rng = StdRng::seed_from_u64(8);
        // Kill 2 of 3 leaves in two groups → those groups can't form 2-of-3
        // sub-quorums, and a single group is not enough.
        let mut alive = AliveSet::full(9);
        for s in [0u32, 1, 3, 4] {
            alive.remove(SiteId::new(s));
        }
        assert!(h.pick_read_quorum(alive, &mut rng).is_none());
    }

    #[test]
    fn picked_quorums_are_enumerated_quorums() {
        let h = Hqc::new(2);
        let all: Vec<_> = h.read_quorums().collect();
        let mut rng = StdRng::seed_from_u64(9);
        let alive = AliveSet::full(9);
        for _ in 0..50 {
            let q = h.pick_read_quorum(alive.clone(), &mut rng).unwrap();
            assert!(all.contains(&q), "{q}");
        }
    }

    #[test]
    fn cost_is_n_to_0_63() {
        for height in 1..6usize {
            let h = Hqc::new(height);
            let n = h.universe().len() as f64;
            let cost = h.read_cost().avg;
            assert!(
                (cost - n.powf(2f64.log(3.0))).abs() < 1e-6,
                "height={height}: {cost}"
            );
        }
    }
}
