//! [`ArbitraryProtocol`]: the paper's protocol as a [`ReplicaControl`]
//! implementation usable by the simulator and the analysis crates.

use crate::metrics::TreeMetrics;
use crate::quorums::{read_quorums, write_quorums};
use crate::tree::ArbitraryTree;
use arbitree_quorum::{AliveSet, CostProfile, QuorumSet, ReplicaControl, Universe};
use rand::RngCore;

/// The arbitrary tree-structured replica control protocol.
///
/// Wraps an [`ArbitraryTree`] and exposes quorum picking, enumeration and
/// the closed-form metrics through the [`ReplicaControl`] trait.
///
/// The canonical strategies are the paper's uniform ones: a read picks one
/// physical node uniformly at every physical level (equivalent to the uniform
/// distribution over all `m(R)` read quorums); a write picks one physical
/// level uniformly among the `|K_phy|` levels.
///
/// # Examples
///
/// ```
/// use arbitree_core::ArbitraryProtocol;
/// use arbitree_quorum::ReplicaControl;
///
/// let proto = ArbitraryProtocol::parse("1-3-5")?;
/// assert_eq!(proto.name(), "ARBITRARY");
/// assert_eq!(proto.read_cost().avg, 2.0);
/// assert_eq!(proto.write_quorums().count(), 2);
/// # Ok::<(), arbitree_core::TreeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ArbitraryProtocol {
    tree: ArbitraryTree,
    name: String,
}

impl ArbitraryProtocol {
    /// Wraps an already-built tree.
    pub fn new(tree: ArbitraryTree) -> Self {
        ArbitraryProtocol {
            tree,
            name: "ARBITRARY".to_owned(),
        }
    }

    /// Parses a spec string (e.g. `"1-3-5"`) and wraps the resulting tree.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::TreeError`] on parse or validation failure.
    pub fn parse(spec: &str) -> Result<Self, crate::TreeError> {
        Ok(Self::new(ArbitraryTree::parse(spec)?))
    }

    /// Overrides the display name (used by the §4 configurations, e.g.
    /// `"MOSTLY-READ"`).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The underlying tree.
    pub fn tree(&self) -> &ArbitraryTree {
        &self.tree
    }

    /// The closed-form metric view of the tree.
    pub fn metrics(&self) -> TreeMetrics<'_> {
        TreeMetrics::new(&self.tree)
    }
}

impl ReplicaControl for ArbitraryProtocol {
    fn name(&self) -> &str {
        &self.name
    }

    fn describe(&self) -> String {
        self.tree.spec().to_string()
    }

    fn universe(&self) -> Universe {
        self.tree.universe()
    }

    fn read_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        Box::new(read_quorums(&self.tree))
    }

    fn write_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        Box::new(write_quorums(&self.tree))
    }

    fn pick_read_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        // One uniformly-random live physical node per physical level; if any
        // level is fully dead the read cannot terminate. Each level is
        // scanned twice — count the live sites, then take the drawn one — so
        // on universes of up to 128 sites the pick allocates nothing.
        let mut members = QuorumSet::new();
        for &k in self.tree.physical_levels() {
            let live = || {
                self.tree
                    .level_sites(k)
                    .iter()
                    .filter(|&&s| alive.contains(s))
            };
            let count = live().count();
            if count == 0 {
                return None;
            }
            let idx = (rng.next_u64() % count as u64) as usize;
            members.extend(live().nth(idx).copied());
        }
        Some(members)
    }

    fn pick_write_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        // Uniformly among the physical levels whose replicas are all alive:
        // count them, draw, then take the drawn one.
        let live_levels = || {
            self.tree
                .physical_levels()
                .iter()
                .filter(|&&k| self.tree.level_sites(k).iter().all(|&s| alive.contains(s)))
        };
        let count = live_levels().count();
        if count == 0 {
            return None;
        }
        let idx = (rng.next_u64() % count as u64) as usize;
        let &level = live_levels().nth(idx)?;
        Some(QuorumSet::from_sites(
            self.tree.level_sites(level).iter().copied(),
        ))
    }

    fn read_cost(&self) -> CostProfile {
        self.metrics().read_cost()
    }

    fn write_cost(&self) -> CostProfile {
        self.metrics().write_cost()
    }

    fn read_availability(&self, p: f64) -> f64 {
        self.metrics().read_availability(p)
    }

    fn write_availability(&self, p: f64) -> f64 {
        self.metrics().write_availability(p)
    }

    fn read_load(&self) -> f64 {
        self.metrics().read_load()
    }

    fn write_load(&self) -> f64 {
        self.metrics().write_load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitree_quorum::SiteId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn proto_135() -> ArbitraryProtocol {
        ArbitraryProtocol::parse("1-3-5").unwrap()
    }

    #[test]
    fn bicoterie_property_holds() {
        let p = proto_135();
        let b = p.to_bicoterie().unwrap();
        assert_eq!(b.read_quorums().len(), 15);
        assert_eq!(b.write_quorums().len(), 2);
    }

    #[test]
    fn pick_read_quorum_all_alive() {
        let p = proto_135();
        let mut rng = StdRng::seed_from_u64(1);
        let q = p.pick_read_quorum(AliveSet::full(8), &mut rng).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pick_read_quorum_avoids_dead_sites() {
        let p = proto_135();
        let mut rng = StdRng::seed_from_u64(2);
        // Kill sites 0 and 1 on level 1; only site 2 remains there.
        let mut alive = AliveSet::full(8);
        alive.remove(SiteId::new(0));
        alive.remove(SiteId::new(1));
        for _ in 0..50 {
            let q = p.pick_read_quorum(alive.clone(), &mut rng).unwrap();
            assert!(q.contains(SiteId::new(2)));
            assert!(!q.contains(SiteId::new(0)));
        }
    }

    #[test]
    fn pick_read_quorum_fails_when_level_dead() {
        let p = proto_135();
        let mut rng = StdRng::seed_from_u64(3);
        // Kill the whole level 1 (sites 0,1,2).
        let mut alive = AliveSet::full(8);
        for s in 0..3 {
            alive.remove(SiteId::new(s));
        }
        assert!(p.pick_read_quorum(alive, &mut rng).is_none());
    }

    #[test]
    fn pick_write_quorum_prefers_live_level() {
        let p = proto_135();
        let mut rng = StdRng::seed_from_u64(4);
        // Kill one site of level 2 → only level 1 fully alive.
        let mut alive = AliveSet::full(8);
        alive.remove(SiteId::new(7));
        for _ in 0..20 {
            let q = p.pick_write_quorum(alive.clone(), &mut rng).unwrap();
            assert_eq!(q, QuorumSet::from_indices(0..3));
        }
    }

    #[test]
    fn pick_write_quorum_fails_when_all_levels_hit() {
        let p = proto_135();
        let mut rng = StdRng::seed_from_u64(5);
        let mut alive = AliveSet::full(8);
        alive.remove(SiteId::new(0)); // level 1 broken
        alive.remove(SiteId::new(7)); // level 2 broken
        assert!(p.pick_write_quorum(alive, &mut rng).is_none());
    }

    #[test]
    fn picked_quorums_are_valid_quorums() {
        let p = proto_135();
        let mut rng = StdRng::seed_from_u64(6);
        let alive = AliveSet::full(8);
        let reads: Vec<QuorumSet> = p.read_quorums().collect();
        let writes: Vec<QuorumSet> = p.write_quorums().collect();
        for _ in 0..100 {
            let r = p.pick_read_quorum(alive.clone(), &mut rng).unwrap();
            assert!(reads.contains(&r), "{r} not an enumerated read quorum");
            let w = p.pick_write_quorum(alive.clone(), &mut rng).unwrap();
            assert!(writes.contains(&w));
        }
    }

    #[test]
    fn name_override() {
        let p = proto_135().with_name("MOSTLY-READ");
        assert_eq!(p.name(), "MOSTLY-READ");
    }

    #[test]
    fn metrics_delegate() {
        let p = proto_135();
        assert_eq!(p.read_load(), 1.0 / 3.0);
        assert_eq!(p.write_load(), 0.5);
        assert_eq!(p.write_cost().avg, 4.0);
        assert!((p.expected_write_load(0.7) - 0.7733).abs() < 2e-3);
    }

    /// The collect-then-index picks the allocation-free ones replaced.
    fn reference_read(
        p: &ArbitraryProtocol,
        alive: &AliveSet,
        rng: &mut dyn RngCore,
    ) -> Option<QuorumSet> {
        let mut members = Vec::new();
        for &k in p.tree.physical_levels() {
            let live: Vec<SiteId> = p
                .tree
                .level_sites(k)
                .iter()
                .copied()
                .filter(|&s| alive.contains(s))
                .collect();
            if live.is_empty() {
                return None;
            }
            members.push(live[(rng.next_u64() % live.len() as u64) as usize]);
        }
        Some(QuorumSet::from_sites(members))
    }

    fn reference_write(
        p: &ArbitraryProtocol,
        alive: &AliveSet,
        rng: &mut dyn RngCore,
    ) -> Option<QuorumSet> {
        let live_levels: Vec<usize> = p
            .tree
            .physical_levels()
            .iter()
            .copied()
            .filter(|&k| p.tree.level_sites(k).iter().all(|&s| alive.contains(s)))
            .collect();
        if live_levels.is_empty() {
            return None;
        }
        let idx = (rng.next_u64() % live_levels.len() as u64) as usize;
        Some(QuorumSet::from_sites(
            p.tree.level_sites(live_levels[idx]).iter().copied(),
        ))
    }

    #[test]
    fn picks_match_the_collecting_reference_draw_for_draw() {
        for spec in [
            "1-3-5",
            "1-4-4-4-4-4-4-4-24-24-24",
            "1-2-2-3-3-6",
            "p:1-3-4",
        ] {
            let p = ArbitraryProtocol::parse(spec).unwrap();
            let n = p.universe().len();
            let mut masks = StdRng::seed_from_u64(7);
            let mut fast = StdRng::seed_from_u64(11);
            let mut slow = StdRng::seed_from_u64(11);
            for round in 0..2000 {
                // Mostly-alive sets, so both the success and the failure
                // paths (and the RNG they leave behind) are compared.
                let mut alive = AliveSet::full(n);
                for s in 0..n as u32 {
                    if masks.next_u64() % 8 == 0 {
                        alive.remove(SiteId::new(s));
                    }
                }
                assert_eq!(
                    p.pick_read_quorum(alive.clone(), &mut fast),
                    reference_read(&p, &alive, &mut slow),
                    "{spec} read, round {round}"
                );
                assert_eq!(
                    p.pick_write_quorum(alive.clone(), &mut fast),
                    reference_write(&p, &alive, &mut slow),
                    "{spec} write, round {round}"
                );
            }
            assert_eq!(
                fast.next_u64(),
                slow.next_u64(),
                "{spec}: RNG streams diverged"
            );
        }
    }
}
