//! Maekawa-style `√n` quorums (Maekawa 1985). True finite-projective-plane
//! quorums exist only when `√n − 1` is a prime power, so — as in Maekawa's
//! own paper — we implement the practical **grid variant**: the quorum of
//! site `(r, c)` is its whole row plus its whole column (`R + C − 1`
//! replicas, ≈ `2√n` for a square). Every pair of quorums intersects (two
//! row/column crosses always share a cell), giving a symmetric coterie with
//! load `≈ 2/√n`.

use arbitree_quorum::{
    exact_availability, monte_carlo_availability, AliveSet, CostProfile, QuorumSet, ReplicaControl,
    SetSystem, SiteId, Universe,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Universe size up to which availability is computed exactly; beyond it a
/// fixed-seed Monte-Carlo estimate (documented, deterministic) is used.
const EXACT_LIMIT: usize = 18;

/// Samples used by the Monte-Carlo availability fallback.
const MC_SAMPLES: u32 = 200_000;

/// Maekawa's grid-based `√n` mutual-exclusion quorums over `rows × cols`
/// replicas: one (identical read/write) quorum per site.
///
/// # Examples
///
/// ```
/// use arbitree_baselines::Maekawa;
/// use arbitree_quorum::ReplicaControl;
///
/// let m = Maekawa::new(3, 3);
/// assert_eq!(m.read_quorums().count(), 9);   // one per site
/// assert_eq!(m.read_cost().avg, 5.0);        // R + C − 1
/// ```
#[derive(Debug, Clone)]
pub struct Maekawa {
    rows: usize,
    cols: usize,
}

impl Maekawa {
    /// Creates the protocol over an `rows × cols` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        Maekawa { rows, cols }
    }

    /// The most-square grid holding exactly `n` replicas (see
    /// [`crate::Grid::square_like`]).
    pub fn square_like(n: usize) -> Self {
        let g = crate::Grid::square_like(n);
        Maekawa::new(g.rows(), g.cols())
    }

    fn site(&self, r: usize, c: usize) -> SiteId {
        SiteId::new((r * self.cols + c) as u32)
    }

    /// The cross quorum of site `(r, c)`: its row and column.
    fn cross(&self, r: usize, c: usize) -> QuorumSet {
        let row = (0..self.cols).map(|cc| self.site(r, cc));
        let col = (0..self.rows).map(|rr| self.site(rr, c));
        QuorumSet::from_sites(row.chain(col))
    }

    fn availability(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let system = SetSystem::new(self.universe(), self.read_quorums().collect())
            .expect("cross quorums are valid");
        if self.universe().len() <= EXACT_LIMIT {
            exact_availability(&system, p)
        } else {
            // Deterministic estimate: fixed seed, documented in the crate docs.
            let mut rng = StdRng::seed_from_u64(0x4d41_454b_4157_4121);
            monte_carlo_availability(&system, p, MC_SAMPLES, &mut rng)
        }
    }
}

impl ReplicaControl for Maekawa {
    fn name(&self) -> &str {
        "MAEKAWA"
    }

    fn universe(&self) -> Universe {
        Universe::new(self.rows * self.cols)
    }

    fn read_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        Box::new((0..self.rows).flat_map(move |r| (0..self.cols).map(move |c| self.cross(r, c))))
    }

    fn write_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        self.read_quorums()
    }

    fn pick_read_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        // Uniform among the fully-alive crosses.
        let live: Vec<QuorumSet> = self
            .read_quorums()
            .filter(|q| q.is_subset_of(&alive))
            .collect();
        if live.is_empty() {
            return None;
        }
        Some(live[(rng.next_u64() % live.len() as u64) as usize].clone())
    }

    fn pick_write_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        self.pick_read_quorum(alive, rng)
    }

    fn read_cost(&self) -> CostProfile {
        CostProfile::flat((self.rows + self.cols - 1) as f64)
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
        // Site (r,c) belongs to the crosses of its row mates, column mates
        // and itself: R + C − 1 of the n quorums; uniform strategy is optimal
        // by symmetry.
        (self.rows + self.cols - 1) as f64 / (self.rows * self.cols) as f64
    }

    fn write_load(&self) -> f64 {
        self.read_load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitree_quorum::{optimal_load, uniform_load};
    use rand::rngs::StdRng;

    #[test]
    fn crosses_pairwise_intersect() {
        let m = Maekawa::new(3, 4);
        let qs: Vec<_> = m.read_quorums().collect();
        assert_eq!(qs.len(), 12);
        for a in &qs {
            for b in &qs {
                assert!(a.intersects(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn quorum_sizes() {
        let m = Maekawa::new(3, 3);
        assert!(m.read_quorums().all(|q| q.len() == 5));
    }

    #[test]
    fn load_matches_uniform_and_lp() {
        let m = Maekawa::new(3, 3);
        let sys = SetSystem::new(m.universe(), m.read_quorums().collect()).unwrap();
        assert!((uniform_load(&sys) - m.read_load()).abs() < 1e-9);
        let (lp, _) = optimal_load(&sys);
        assert!((lp - m.read_load()).abs() < 1e-6, "lp {lp}");
    }

    #[test]
    fn availability_exact_small() {
        let m = Maekawa::new(2, 2);
        // 2×2: quorums are all 3-subsets... actually crosses of (r,c) have
        // size 3; availability must match enumeration by construction.
        let sys = SetSystem::new(m.universe(), m.read_quorums().collect()).unwrap();
        for &p in &[0.6, 0.9] {
            assert!((m.read_availability(p) - exact_availability(&sys, p)).abs() < 1e-12);
        }
    }

    #[test]
    fn availability_monotone_and_deterministic_large() {
        let m = Maekawa::new(5, 5); // n = 25 > EXACT_LIMIT → Monte-Carlo
        let a1 = m.read_availability(0.7);
        let a2 = m.read_availability(0.7);
        assert_eq!(a1, a2, "MC fallback must be deterministic");
        assert!(m.read_availability(0.9) >= a1);
    }

    #[test]
    fn pick_respects_liveness() {
        let m = Maekawa::new(2, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut alive = AliveSet::full(4);
        alive.remove(SiteId::new(0));
        // Crosses not containing site 0: only (1,1)'s cross {1,2,3}... wait
        // (1,1) cross = row 1 {2,3} ∪ col 1 {1,3} = {1,2,3}.
        let q = m.pick_read_quorum(alive.clone(), &mut rng).unwrap();
        assert_eq!(q, QuorumSet::from_indices([1, 2, 3]));
        alive.remove(SiteId::new(3));
        assert!(m.pick_read_quorum(alive, &mut rng).is_none());
    }

    #[test]
    fn square_like_dimensions() {
        let m = Maekawa::square_like(12);
        assert_eq!(m.universe().len(), 12);
    }
}
