//! The [`ReplicaControl`] abstraction implemented by every protocol in the
//! workspace (the arbitrary protocol and all baselines), plus the paper's
//! expected-load equations (equation 3.2).

use crate::quorum_set::{AliveSet, QuorumSet};
use crate::site::Universe;
use crate::system::{Bicoterie, QuorumError, SetSystem};
use rand::RngCore;
use std::fmt;

/// Communication-cost profile of an operation: the number of replicas a
/// client must contact, in the best case, worst case, and on average under
/// the protocol's canonical strategy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostProfile {
    /// Fewest replicas any quorum of the operation contains.
    pub min: f64,
    /// Most replicas any quorum of the operation contains.
    pub max: f64,
    /// Strategy-weighted mean quorum size.
    pub avg: f64,
}

impl CostProfile {
    /// A profile where min, max and avg all equal `c` (regular systems).
    pub const fn flat(c: f64) -> Self {
        CostProfile {
            min: c,
            max: c,
            avg: c,
        }
    }
}

impl fmt::Display for CostProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[min {:.2}, avg {:.2}, max {:.2}]",
            self.min, self.avg, self.max
        )
    }
}

/// Expected system load of **read** operations (equation 3.2):
/// `E[L_RD] = RDavail(p)·(L_RD − 1) + 1`.
///
/// When a read cannot assemble any quorum the paper charges it the maximal
/// load of 1 (the operation keeps retrying and saturates a replica), which is
/// why the expectation interpolates towards 1 as availability drops.
pub fn expected_read_load(read_availability: f64, read_load: f64) -> f64 {
    read_availability * (read_load - 1.0) + 1.0
}

/// Expected system load of **write** operations (equation 3.2):
/// `E[L_WR] = WRavail(p)·L_WR + WRfail(p)·1`.
pub fn expected_write_load(write_availability: f64, write_load: f64) -> f64 {
    write_availability * write_load + (1.0 - write_availability)
}

/// A replica control protocol: a recipe for building read and write quorums
/// over a universe of replicas, with analytic cost/availability/load metrics.
///
/// Implementations must uphold **one-copy equivalence**: every read quorum
/// intersects every write quorum ([`Self::to_bicoterie`] validates this by
/// construction on the enumerated systems).
///
/// Quorum *enumeration* may be combinatorially large; callers that only need
/// analytics should use the metric methods, which every implementation
/// provides in closed form.
pub trait ReplicaControl {
    /// Human-readable protocol name (e.g. `"ARBITRARY"`, `"ROWA"`).
    fn name(&self) -> &str;

    /// Human-readable description of the concrete configuration —
    /// protocols with structure (e.g. a tree spec like `1-3-5`) override
    /// this so the shape stays inspectable through `dyn ReplicaControl`.
    fn describe(&self) -> String {
        self.name().to_string()
    }

    /// The universe of replicas the protocol manages.
    fn universe(&self) -> Universe;

    /// Enumerates every read quorum. May be exponential in size; callers
    /// should cap consumption on large configurations.
    fn read_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_>;

    /// Enumerates every write quorum.
    fn write_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_>;

    /// Picks a read quorum consisting only of sites in `alive`, following the
    /// protocol's canonical strategy, or `None` if no read quorum is fully
    /// alive (the operation cannot terminate).
    fn pick_read_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet>;

    /// Picks a write quorum consisting only of sites in `alive`, or `None`.
    fn pick_write_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet>;

    /// Communication cost profile of read operations.
    fn read_cost(&self) -> CostProfile;

    /// Communication cost profile of write operations.
    fn write_cost(&self) -> CostProfile;

    /// Probability a read can terminate when each site is independently
    /// alive with probability `p`.
    fn read_availability(&self, p: f64) -> f64;

    /// Probability a write can terminate.
    fn write_availability(&self, p: f64) -> f64;

    /// Optimal system load induced by read operations (all sites up).
    fn read_load(&self) -> f64;

    /// Optimal system load induced by write operations (all sites up).
    fn write_load(&self) -> f64;

    /// Expected read load at availability `p` (equation 3.2).
    fn expected_read_load(&self, p: f64) -> f64 {
        expected_read_load(self.read_availability(p), self.read_load())
    }

    /// Expected write load at availability `p` (equation 3.2).
    fn expected_write_load(&self, p: f64) -> f64 {
        expected_write_load(self.write_availability(p), self.write_load())
    }

    /// Materializes the full bicoterie by enumerating both quorum systems and
    /// validating the cross-intersection property.
    ///
    /// Only call on configurations small enough to enumerate.
    ///
    /// # Errors
    ///
    /// Returns a [`QuorumError`] if enumeration yields an invalid system —
    /// which would indicate a protocol implementation bug.
    fn to_bicoterie(&self) -> Result<Bicoterie, QuorumError> {
        let u = self.universe();
        let reads = SetSystem::new(u, self.read_quorums().collect())?;
        let writes = SetSystem::new(u, self.write_quorums().collect())?;
        Bicoterie::new(reads, writes)
    }
}

impl<P: ReplicaControl + ?Sized> ReplicaControl for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn describe(&self) -> String {
        (**self).describe()
    }
    fn universe(&self) -> Universe {
        (**self).universe()
    }
    fn read_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        (**self).read_quorums()
    }
    fn write_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        (**self).write_quorums()
    }
    fn pick_read_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        (**self).pick_read_quorum(alive, rng)
    }
    fn pick_write_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        (**self).pick_write_quorum(alive, rng)
    }
    fn read_cost(&self) -> CostProfile {
        (**self).read_cost()
    }
    fn write_cost(&self) -> CostProfile {
        (**self).write_cost()
    }
    fn read_availability(&self, p: f64) -> f64 {
        (**self).read_availability(p)
    }
    fn write_availability(&self, p: f64) -> f64 {
        (**self).write_availability(p)
    }
    fn read_load(&self) -> f64 {
        (**self).read_load()
    }
    fn write_load(&self) -> f64 {
        (**self).write_load()
    }
}

/// Helper for implementations: uniformly picks one fully-alive quorum among
/// `candidates`. Linear scan; intended for protocols whose quorum count is
/// modest (write quorums, baselines on small `n`).
pub fn pick_uniform_alive(
    candidates: &[QuorumSet],
    alive: &AliveSet,
    rng: &mut dyn RngCore,
) -> Option<QuorumSet> {
    let live: Vec<&QuorumSet> = candidates
        .iter()
        .filter(|q| q.is_subset_of(alive))
        .collect();
    if live.is_empty() {
        return None;
    }
    // arbitree-lint: allow(D004) — idx < live.len() by the modulo; len fits u64
    let idx = (rng.next_u64() % live.len() as u64) as usize;
    Some(live[idx].clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn expected_loads_match_paper_example() {
        // §3.4: RDavail(0.7)=0.97, L_RD=1/3 → E[L_RD]≈0.35;
        //       WRavail(0.7)=0.45, L_WR=1/2 → E[L_WR]=0.775.
        let el_rd = expected_read_load(0.97, 1.0 / 3.0);
        assert!((el_rd - 0.3533).abs() < 1e-3, "got {el_rd}");
        let el_wr = expected_write_load(0.45, 0.5);
        assert!((el_wr - 0.775).abs() < 1e-12, "got {el_wr}");
    }

    #[test]
    fn expected_load_limits() {
        // Perfect availability → expectation equals the computed load.
        assert_eq!(expected_read_load(1.0, 0.25), 0.25);
        assert_eq!(expected_write_load(1.0, 0.1), 0.1);
        // Zero availability → load degenerates to 1.
        assert_eq!(expected_read_load(0.0, 0.25), 1.0);
        assert_eq!(expected_write_load(0.0, 0.1), 1.0);
    }

    #[test]
    fn cost_profile_flat_and_display() {
        let c = CostProfile::flat(3.0);
        assert_eq!(c.min, 3.0);
        assert_eq!(c.max, 3.0);
        assert_eq!(c.avg, 3.0);
        assert!(c.to_string().contains("3.00"));
    }

    #[test]
    fn pick_uniform_alive_respects_liveness() {
        let candidates = vec![
            QuorumSet::from_indices([0, 1]),
            QuorumSet::from_indices([2, 3]),
        ];
        let mut rng = StdRng::seed_from_u64(3);
        let alive = AliveSet::from_indices([2, 3]);
        let picked = pick_uniform_alive(&candidates, &alive, &mut rng).unwrap();
        assert_eq!(picked, QuorumSet::from_indices([2, 3]));
        // Nothing alive → None.
        assert!(pick_uniform_alive(&candidates, &AliveSet::new(), &mut rng).is_none());
    }

    #[test]
    fn pick_uniform_alive_eventually_picks_all_live_candidates() {
        let candidates = vec![QuorumSet::from_indices([0]), QuorumSet::from_indices([1])];
        let mut rng = StdRng::seed_from_u64(11);
        let alive = AliveSet::full(2);
        let mut seen = [false; 2];
        for _ in 0..64 {
            let q = pick_uniform_alive(&candidates, &alive, &mut rng).unwrap();
            seen[q.iter().next().unwrap().index()] = true;
        }
        assert_eq!(seen, [true, true]);
    }
}
