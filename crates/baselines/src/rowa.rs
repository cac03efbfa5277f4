//! Read-One-Write-All (Bernstein & Goodman): read any single replica, write
//! all of them.

use arbitree_quorum::{AliveSet, CostProfile, QuorumSet, ReplicaControl, SiteId, Universe};
use rand::RngCore;

/// The ROWA protocol over `n` replicas.
///
/// Read cost 1, write cost `n`; read load `1/n`, write load 1; read
/// availability `1 − (1−p)^n`, write availability `p^n` (a single crash
/// blocks writes).
///
/// # Examples
///
/// ```
/// use arbitree_baselines::Rowa;
/// use arbitree_quorum::ReplicaControl;
///
/// let rowa = Rowa::new(5);
/// assert_eq!(rowa.read_cost().avg, 1.0);
/// assert_eq!(rowa.write_cost().avg, 5.0);
/// assert_eq!(rowa.write_load(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Rowa {
    universe: Universe,
}

impl Rowa {
    /// Creates ROWA over `n` replicas.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Rowa {
            universe: Universe::new(n),
        }
    }
}

impl ReplicaControl for Rowa {
    fn name(&self) -> &str {
        "ROWA"
    }

    fn universe(&self) -> Universe {
        self.universe
    }

    fn read_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        Box::new(self.universe.sites().map(|s| QuorumSet::from_sites([s])))
    }

    fn write_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        Box::new(std::iter::once(QuorumSet::from_sites(
            self.universe.sites(),
        )))
    }

    fn pick_read_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        let live: Vec<SiteId> = self
            .universe
            .sites()
            .filter(|&s| alive.contains(s))
            .collect();
        if live.is_empty() {
            return None;
        }
        let idx = (rng.next_u64() % live.len() as u64) as usize;
        Some(QuorumSet::from_sites([live[idx]]))
    }

    fn pick_write_quorum(&self, alive: AliveSet, _rng: &mut dyn RngCore) -> Option<QuorumSet> {
        if self.universe.sites().all(|s| alive.contains(s)) {
            Some(QuorumSet::from_sites(self.universe.sites()))
        } else {
            None
        }
    }

    fn read_cost(&self) -> CostProfile {
        CostProfile::flat(1.0)
    }

    fn write_cost(&self) -> CostProfile {
        CostProfile::flat(self.universe.len() as f64)
    }

    fn read_availability(&self, p: f64) -> f64 {
        1.0 - (1.0 - p).powi(self.universe.len() as i32)
    }

    fn write_availability(&self, p: f64) -> f64 {
        p.powi(self.universe.len() as i32)
    }

    fn read_load(&self) -> f64 {
        1.0 / self.universe.len() as f64
    }

    fn write_load(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitree_quorum::exact_availability;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quorum_structure() {
        let r = Rowa::new(4);
        let b = r.to_bicoterie().unwrap();
        assert_eq!(b.read_quorums().len(), 4);
        assert_eq!(b.write_quorums().len(), 1);
        assert_eq!(b.write_quorums().sets()[0].len(), 4);
    }

    #[test]
    fn closed_forms_match_enumeration() {
        let r = Rowa::new(5);
        let b = r.to_bicoterie().unwrap();
        for &p in &[0.6, 0.8, 0.95] {
            assert!(
                (exact_availability(b.read_quorums(), p) - r.read_availability(p)).abs() < 1e-12
            );
            assert!(
                (exact_availability(b.write_quorums(), p) - r.write_availability(p)).abs() < 1e-12
            );
        }
    }

    #[test]
    fn pick_behaviour_under_failures() {
        let r = Rowa::new(3);
        let mut rng = StdRng::seed_from_u64(1);
        let mut alive = AliveSet::full(3);
        assert!(r.pick_write_quorum(alive.clone(), &mut rng).is_some());
        alive.remove(SiteId::new(1));
        // One crash blocks writes but not reads.
        assert!(r.pick_write_quorum(alive.clone(), &mut rng).is_none());
        let q = r.pick_read_quorum(alive, &mut rng).unwrap();
        assert!(!q.contains(SiteId::new(1)));
        assert!(r.pick_read_quorum(AliveSet::new(), &mut rng).is_none());
    }

    #[test]
    fn loads() {
        let r = Rowa::new(8);
        assert!((r.read_load() - 0.125).abs() < 1e-12);
        assert_eq!(r.write_load(), 1.0);
        assert_eq!(r.expected_write_load(1.0), 1.0);
    }
}
