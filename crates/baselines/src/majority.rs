//! The Majority Quorum protocol (Thomas 1979): every operation contacts a
//! majority of the replicas.

use crate::util::{binomial, Combinations};
use arbitree_quorum::{
    binomial_tail, AliveSet, CostProfile, QuorumSet, ReplicaControl, SiteId, Universe,
};
use rand::RngCore;

/// Majority quorum consensus over `n` replicas: read and write quorums are
/// all `⌊n/2⌋ + 1`-subsets.
///
/// Cost `(n+1)/2` (odd `n`), load `⌈(n+1)/2⌉ / n ≥ 0.5`, availability equal
/// for reads and writes (`P[at least a majority alive]`).
///
/// # Examples
///
/// ```
/// use arbitree_baselines::Majority;
/// use arbitree_quorum::ReplicaControl;
///
/// let m = Majority::new(5);
/// assert_eq!(m.quorum_size(), 3);
/// assert_eq!(m.read_cost().avg, 3.0);
/// assert!((m.read_load() - 0.6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Majority {
    universe: Universe,
    quorum_size: usize,
}

impl Majority {
    /// Creates the protocol over `n` replicas.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Majority {
            universe: Universe::new(n),
            quorum_size: n / 2 + 1,
        }
    }

    /// The majority threshold `⌊n/2⌋ + 1`.
    pub fn quorum_size(&self) -> usize {
        self.quorum_size
    }

    /// Number of quorums `C(n, ⌊n/2⌋+1)`, or `None` on overflow.
    pub fn quorum_count(&self) -> Option<u128> {
        binomial(self.universe.len() as u64, self.quorum_size as u64)
    }

    fn pick(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        let mut live: Vec<SiteId> = self
            .universe
            .sites()
            .filter(|&s| alive.contains(s))
            .collect();
        if live.len() < self.quorum_size {
            return None;
        }
        // Fisher–Yates prefix shuffle: uniform random quorum among live sites.
        for i in 0..self.quorum_size {
            let j = i + (rng.next_u64() % (live.len() - i) as u64) as usize;
            live.swap(i, j);
        }
        Some(QuorumSet::from_sites(
            live[..self.quorum_size].iter().copied(),
        ))
    }
}

impl ReplicaControl for Majority {
    fn name(&self) -> &str {
        "MAJORITY"
    }

    fn universe(&self) -> Universe {
        self.universe
    }

    fn read_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        Box::new(Combinations::new(
            self.universe.len() as u32,
            self.quorum_size,
        ))
    }

    fn write_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        self.read_quorums()
    }

    fn pick_read_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        self.pick(alive, rng)
    }

    fn pick_write_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        self.pick(alive, rng)
    }

    fn read_cost(&self) -> CostProfile {
        CostProfile::flat(self.quorum_size as f64)
    }

    fn write_cost(&self) -> CostProfile {
        self.read_cost()
    }

    fn read_availability(&self, p: f64) -> f64 {
        binomial_tail(self.universe.len(), self.quorum_size, p)
    }

    fn write_availability(&self, p: f64) -> f64 {
        self.read_availability(p)
    }

    fn read_load(&self) -> f64 {
        self.quorum_size as f64 / self.universe.len() as f64
    }

    fn write_load(&self) -> f64 {
        self.read_load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitree_quorum::{exact_availability, optimal_load, SetSystem};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn thresholds() {
        assert_eq!(Majority::new(5).quorum_size(), 3);
        assert_eq!(Majority::new(6).quorum_size(), 4);
        assert_eq!(Majority::new(1).quorum_size(), 1);
    }

    #[test]
    fn is_a_coterie() {
        let m = Majority::new(5);
        let b = m.to_bicoterie().unwrap();
        assert!(b.read_quorums().is_coterie());
        assert_eq!(b.read_quorums().len() as u128, m.quorum_count().unwrap());
    }

    #[test]
    fn load_matches_lp() {
        let m = Majority::new(5);
        let sys = SetSystem::new(m.universe(), m.read_quorums().collect()).unwrap();
        let (lp, _) = optimal_load(&sys);
        assert!((lp - m.read_load()).abs() < 1e-6);
    }

    #[test]
    fn availability_matches_enumeration() {
        let m = Majority::new(7);
        let sys = SetSystem::new(m.universe(), m.read_quorums().collect()).unwrap();
        for &p in &[0.6, 0.75, 0.9] {
            assert!((exact_availability(&sys, p) - m.read_availability(p)).abs() < 1e-9);
        }
    }

    #[test]
    fn pick_respects_liveness_and_threshold() {
        let m = Majority::new(7);
        let mut rng = StdRng::seed_from_u64(5);
        let mut alive = AliveSet::full(7);
        alive.remove(SiteId::new(0));
        alive.remove(SiteId::new(1));
        alive.remove(SiteId::new(2));
        // 4 alive >= 4 threshold.
        let q = m.pick_read_quorum(alive.clone(), &mut rng).unwrap();
        assert_eq!(q.len(), 4);
        assert!(q.is_subset_of(&alive));
        alive.remove(SiteId::new(3));
        assert!(m.pick_read_quorum(alive, &mut rng).is_none());
    }

    #[test]
    fn pick_is_uniformish() {
        // Every live site should appear in some picked quorum over many picks.
        let m = Majority::new(5);
        let mut rng = StdRng::seed_from_u64(2);
        let alive = AliveSet::full(5);
        let mut seen = [false; 5];
        for _ in 0..100 {
            for s in m.pick_write_quorum(alive.clone(), &mut rng).unwrap().iter() {
                seen[s.index()] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn majority_availability_above_half_improves_with_n() {
        // Classic result: for p > 1/2 availability grows with replica count.
        let p = 0.8;
        let a3 = Majority::new(3).read_availability(p);
        let a5 = Majority::new(5).read_availability(p);
        let a9 = Majority::new(9).read_availability(p);
        assert!(a5 > a3);
        assert!(a9 > a5);
    }
}
