//! The Agrawal–El Abbadi tree quorum protocol (ACM TOCS 1991) on a complete
//! binary tree — the paper's `BINARY` comparison configuration.
//!
//! A quorum for the subtree rooted at `v` is either `{v}` joined with a
//! quorum of one child's subtree (the root-to-leaf *path* case, possibly
//! detouring), or the union of quorums of *both* children (the case where
//! `v` is inaccessible). Quorum sizes range from `h+1 = log₂(n+1)` (a pure
//! path) to `(n+1)/2` (all leaves).

use arbitree_quorum::{AliveSet, CostProfile, QuorumSet, ReplicaControl, SiteId, Universe};
use rand::RngCore;

/// The tree quorum protocol over a complete binary tree of the given height.
///
/// Every node is a replica (`n = 2^(h+1) − 1`), identified by its heap index:
/// the root is site 0, the children of site `i` are `2i+1` and `2i+2`.
/// Reads and writes use the same quorum set (the original protocol targets
/// mutual exclusion), matching how the paper's §4 treats `BINARY`.
///
/// # Examples
///
/// ```
/// use arbitree_baselines::TreeQuorum;
/// use arbitree_quorum::ReplicaControl;
///
/// let tq = TreeQuorum::new(2); // n = 7
/// assert_eq!(tq.universe().len(), 7);
/// assert_eq!(tq.quorum_count(), Some(15));
/// assert_eq!(tq.read_cost().min, 3.0);  // log2(n+1)
/// assert_eq!(tq.read_cost().max, 4.0);  // (n+1)/2
/// ```
#[derive(Debug, Clone)]
pub struct TreeQuorum {
    height: usize,
    n: usize,
    /// `counts[k]` = number of quorums of a subtree of height `k`.
    counts: Vec<Option<u128>>,
}

impl TreeQuorum {
    /// Creates the protocol for a complete binary tree of `height`.
    ///
    /// # Panics
    ///
    /// Panics if `height >= 31` (site indices would overflow practical
    /// universes).
    pub fn new(height: usize) -> Self {
        assert!(height < 31, "height must be < 31");
        let n = (1usize << (height + 1)) - 1;
        let mut counts: Vec<Option<u128>> = Vec::with_capacity(height + 1);
        counts.push(Some(1));
        for k in 1..=height {
            let c = counts[k - 1];
            counts.push(c.and_then(|c| {
                // c(k) = 2c + c².
                c.checked_mul(c).and_then(|c2| c2.checked_add(2 * c))
            }));
        }
        TreeQuorum { height, n, counts }
    }

    /// The tree height `h`.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of (minimal) quorums, or `None` on overflow.
    pub fn quorum_count(&self) -> Option<u128> {
        self.counts[self.height]
    }

    /// The Naor–Wool optimal load of this structure: `2/(h+2)`, equivalently
    /// `2/(log₂(n+1)+1)` (their §6.3, quoted by the paper's §4).
    pub fn naor_wool_load(&self) -> f64 {
        2.0 / (self.height as f64 + 2.0)
    }

    /// The paper's §4 average communication cost for `BINARY`, evaluated with
    /// `f = 2/(2+h)` (the fraction of quorums that include the root):
    /// `2^h (1+h)^h / (h (2+h)^(h-1)) − 2/h`. Defined for `h ≥ 1`; for
    /// `h = 0` the cost is trivially 1.
    pub fn paper_avg_cost(&self) -> f64 {
        let h = self.height as f64;
        if self.height == 0 {
            return 1.0;
        }
        2f64.powf(h) * (1.0 + h).powf(h) / (h * (2.0 + h).powf(h - 1.0)) - 2.0 / h
    }

    /// Decodes quorum `idx` of the subtree rooted at heap index `node` with
    /// subtree height `k`, appending its members to `out`.
    fn decode(&self, node: u32, k: usize, idx: u128, out: &mut Vec<SiteId>) {
        if k == 0 {
            out.push(SiteId::new(node));
            return;
        }
        let c = self.counts[k - 1].expect("enumeration requires exact counts");
        let (left, right) = (2 * node + 1, 2 * node + 2);
        if idx < c {
            out.push(SiteId::new(node));
            self.decode(left, k - 1, idx, out);
        } else if idx < 2 * c {
            out.push(SiteId::new(node));
            self.decode(right, k - 1, idx - c, out);
        } else {
            let j = idx - 2 * c;
            self.decode(left, k - 1, j / c, out);
            self.decode(right, k - 1, j % c, out);
        }
    }

    /// Recursive live-quorum construction: prefer routing through `node`
    /// (the path case, choosing a random child first); if `node` is dead,
    /// require quorums from both children.
    fn collect_live(
        &self,
        node: u32,
        k: usize,
        alive: &AliveSet,
        rng: &mut dyn RngCore,
        out: &mut Vec<SiteId>,
    ) -> bool {
        let site = SiteId::new(node);
        if k == 0 {
            if alive.contains(site) {
                out.push(site);
                true
            } else {
                false
            }
        } else {
            let (left, right) = (2 * node + 1, 2 * node + 2);
            if alive.contains(site) {
                out.push(site);
                let (first, second) = if rng.next_u64().is_multiple_of(2) {
                    (left, right)
                } else {
                    (right, left)
                };
                if self.collect_live(first, k - 1, alive, rng, out)
                    || self.collect_live(second, k - 1, alive, rng, out)
                {
                    true
                } else {
                    out.pop(); // undo `site`
                    false
                }
            } else {
                let mark = out.len();
                if self.collect_live(left, k - 1, alive, rng, out)
                    && self.collect_live(right, k - 1, alive, rng, out)
                {
                    true
                } else {
                    out.truncate(mark);
                    false
                }
            }
        }
    }

    /// Availability recursion: `A(0) = p`,
    /// `A(k) = p·(1 − (1 − A(k−1))²) + (1 − p)·A(k−1)²`.
    fn availability(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let mut a = p;
        for _ in 0..self.height {
            a = p * (1.0 - (1.0 - a) * (1.0 - a)) + (1.0 - p) * a * a;
        }
        a
    }
}

impl ReplicaControl for TreeQuorum {
    fn name(&self) -> &str {
        "BINARY"
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
        CostProfile {
            min: (self.height + 1) as f64,
            max: self.n.div_ceil(2) as f64,
            avg: self.paper_avg_cost(),
        }
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
    use arbitree_quorum::{exact_availability, SetSystem};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quorum_counts() {
        assert_eq!(TreeQuorum::new(0).quorum_count(), Some(1));
        assert_eq!(TreeQuorum::new(1).quorum_count(), Some(3));
        assert_eq!(TreeQuorum::new(2).quorum_count(), Some(15));
        assert_eq!(TreeQuorum::new(3).quorum_count(), Some(255));
        assert_eq!(TreeQuorum::new(4).quorum_count(), Some(65535));
    }

    #[test]
    fn height_one_quorums() {
        let tq = TreeQuorum::new(1);
        let qs: Vec<_> = tq.read_quorums().collect();
        assert_eq!(qs.len(), 3);
        assert!(qs.contains(&QuorumSet::from_indices([0, 1])));
        assert!(qs.contains(&QuorumSet::from_indices([0, 2])));
        assert!(qs.contains(&QuorumSet::from_indices([1, 2])));
    }

    #[test]
    fn forms_a_coterie() {
        for h in [1usize, 2, 3] {
            let tq = TreeQuorum::new(h);
            let sys = SetSystem::new(tq.universe(), tq.read_quorums().collect()).unwrap();
            assert!(sys.is_coterie(), "h={h} is not a coterie");
        }
    }

    #[test]
    fn quorum_sizes_within_bounds() {
        let tq = TreeQuorum::new(3);
        for q in tq.read_quorums() {
            assert!(q.len() >= 4, "{q} smaller than a path");
            assert!(q.len() <= 8, "{q} larger than all leaves");
        }
    }

    #[test]
    fn min_size_is_path_max_is_leaves() {
        let tq = TreeQuorum::new(2);
        let sizes: Vec<usize> = tq.read_quorums().map(|q| q.len()).collect();
        assert_eq!(*sizes.iter().min().unwrap(), 3);
        assert_eq!(*sizes.iter().max().unwrap(), 4);
    }

    #[test]
    fn enumeration_has_no_duplicates() {
        let tq = TreeQuorum::new(3);
        let mut qs: Vec<_> = tq.read_quorums().collect();
        let before = qs.len();
        qs.sort();
        qs.dedup();
        assert_eq!(qs.len(), before);
    }

    #[test]
    fn availability_matches_enumeration() {
        for h in [1usize, 2] {
            let tq = TreeQuorum::new(h);
            let sys = SetSystem::new(tq.universe(), tq.read_quorums().collect()).unwrap();
            for &p in &[0.6, 0.8, 0.9] {
                let exact = exact_availability(&sys, p);
                let rec = tq.read_availability(p);
                assert!((exact - rec).abs() < 1e-9, "h={h} p={p}: {exact} vs {rec}");
            }
        }
    }

    #[test]
    fn pick_prefers_paths_when_all_alive() {
        let tq = TreeQuorum::new(3);
        let mut rng = StdRng::seed_from_u64(1);
        let alive = AliveSet::full(15);
        for _ in 0..20 {
            let q = tq.pick_read_quorum(alive.clone(), &mut rng).unwrap();
            // All-alive: the greedy construction always finds a pure path.
            assert_eq!(q.len(), 4);
            assert!(q.contains(SiteId::new(0)));
        }
    }

    #[test]
    fn pick_survives_root_failure() {
        let tq = TreeQuorum::new(2);
        let mut rng = StdRng::seed_from_u64(2);
        let mut alive = AliveSet::full(7);
        alive.remove(SiteId::new(0));
        let q = tq.pick_read_quorum(alive, &mut rng).unwrap();
        // Root dead → quorums from both children: a path in each subtree.
        assert_eq!(q.len(), 4);
        assert!(!q.contains(SiteId::new(0)));
    }

    #[test]
    fn picked_quorum_is_always_a_real_quorum() {
        let tq = TreeQuorum::new(2);
        let all: Vec<_> = tq.read_quorums().collect();
        let mut rng = StdRng::seed_from_u64(3);
        for killmask in 0u32..128 {
            let mut alive = AliveSet::full(7);
            for b in 0..7 {
                if killmask & (1 << b) != 0 {
                    alive.remove(SiteId::new(b));
                }
            }
            if let Some(q) = tq.pick_read_quorum(alive.clone(), &mut rng) {
                assert!(q.is_subset_of(&alive));
                assert!(all.contains(&q), "{q} is not an enumerated quorum");
            }
        }
    }

    #[test]
    fn pick_fails_when_no_quorum_alive() {
        let tq = TreeQuorum::new(1);
        let mut rng = StdRng::seed_from_u64(4);
        // Kill both leaves: no quorum survives ({0,1},{0,2},{1,2} all broken).
        let mut alive = AliveSet::full(3);
        alive.remove(SiteId::new(1));
        alive.remove(SiteId::new(2));
        assert!(tq.pick_read_quorum(alive, &mut rng).is_none());
    }

    #[test]
    fn paper_cost_formula_values() {
        // h=2: 4·9/8 − 1 = 3.5.
        assert!((TreeQuorum::new(2).paper_avg_cost() - 3.5).abs() < 1e-12);
        assert_eq!(TreeQuorum::new(0).paper_avg_cost(), 1.0);
        // Cost grows with height and stays within [min, max].
        for h in 1..8 {
            let tq = TreeQuorum::new(h);
            let c = tq.read_cost();
            assert!(
                c.avg >= c.min - 1e-9,
                "h={h}: avg {} < min {}",
                c.avg,
                c.min
            );
            assert!(
                c.avg <= c.max + 1e-9,
                "h={h}: avg {} > max {}",
                c.avg,
                c.max
            );
        }
    }

    #[test]
    fn naor_wool_load_values() {
        assert!((TreeQuorum::new(2).naor_wool_load() - 0.5).abs() < 1e-12);
        // 2/(log2(n+1)+1) with n = 2^(h+1) − 1.
        let tq = TreeQuorum::new(4);
        let n = tq.universe().len() as f64;
        assert!((tq.naor_wool_load() - 2.0 / ((n + 1.0).log2() + 1.0)).abs() < 1e-12);
    }
}
