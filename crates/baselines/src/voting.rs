//! Weighted voting (Gifford 1979; vote assignment per Garcia-Molina &
//! Barbara, cited as [6] by the paper): each replica holds a number of
//! votes; a read quorum is any set reaching `r` votes, a write quorum any
//! set reaching `w` votes, with `r + w > V` (read/write intersection) and
//! `2w > V` (write/write intersection), `V` the total.
//!
//! Majority quorum consensus is the special case of one vote each with
//! `r = w = ⌊V/2⌋ + 1`.

use arbitree_quorum::{AliveSet, CostProfile, QuorumSet, ReplicaControl, SiteId, Universe};
use rand::RngCore;
use std::fmt;

/// Errors constructing a [`WeightedVoting`] protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VotingError {
    /// No replicas were given.
    NoReplicas,
    /// A replica was assigned zero votes (it could never matter).
    ZeroVote {
        /// Index of the replica.
        site: usize,
    },
    /// `r + w` must exceed the total vote count.
    ReadWriteIntersection {
        /// The offending `r + w`.
        sum: u32,
        /// Total votes `V`.
        total: u32,
    },
    /// `2w` must exceed the total vote count.
    WriteWriteIntersection {
        /// The offending `w`.
        write: u32,
        /// Total votes `V`.
        total: u32,
    },
    /// A threshold exceeds the total (no quorum could ever form).
    UnreachableThreshold {
        /// The offending threshold.
        threshold: u32,
        /// Total votes `V`.
        total: u32,
    },
    /// Quorum enumeration is capped to keep the structure analysable.
    TooLarge {
        /// Number of replicas given.
        n: usize,
        /// The supported maximum.
        max: usize,
    },
}

impl fmt::Display for VotingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VotingError::NoReplicas => write!(f, "no replicas"),
            VotingError::ZeroVote { site } => write!(f, "replica {site} has zero votes"),
            VotingError::ReadWriteIntersection { sum, total } => {
                write!(f, "r + w = {sum} must exceed total votes {total}")
            }
            VotingError::WriteWriteIntersection { write, total } => {
                write!(f, "2w = {} must exceed total votes {total}", 2 * write)
            }
            VotingError::UnreachableThreshold { threshold, total } => {
                write!(f, "threshold {threshold} exceeds total votes {total}")
            }
            VotingError::TooLarge { n, max } => {
                write!(f, "{n} replicas exceed the supported maximum of {max}")
            }
        }
    }
}

impl std::error::Error for VotingError {}

/// Largest replica count supported (quorum enumeration stays tractable).
pub const MAX_VOTING_SITES: usize = 20;

/// The weighted-voting replica control protocol.
///
/// # Examples
///
/// ```
/// use arbitree_baselines::WeightedVoting;
/// use arbitree_quorum::ReplicaControl;
///
/// // A strong site with 3 votes and four singletons; V = 7, r = w = 4.
/// let wv = WeightedVoting::new(vec![3, 1, 1, 1, 1], 4, 4)?;
/// // The strong site plus any single other replica already reaches 4.
/// assert_eq!(wv.read_cost().min, 2.0);
/// # Ok::<(), arbitree_baselines::VotingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WeightedVoting {
    votes: Vec<u32>,
    total: u32,
    read_threshold: u32,
    write_threshold: u32,
    read_minimal: Vec<QuorumSet>,
    write_minimal: Vec<QuorumSet>,
    read_load: f64,
    write_load: f64,
}

impl WeightedVoting {
    /// Creates the protocol from a vote assignment and thresholds.
    ///
    /// # Errors
    ///
    /// Returns a [`VotingError`] when Gifford's conditions (`r + w > V`,
    /// `2w > V`), reachability, positivity, or the size cap are violated.
    pub fn new(
        votes: Vec<u32>,
        read_threshold: u32,
        write_threshold: u32,
    ) -> Result<Self, VotingError> {
        if votes.is_empty() {
            return Err(VotingError::NoReplicas);
        }
        if votes.len() > MAX_VOTING_SITES {
            return Err(VotingError::TooLarge {
                n: votes.len(),
                max: MAX_VOTING_SITES,
            });
        }
        if let Some(site) = votes.iter().position(|&v| v == 0) {
            return Err(VotingError::ZeroVote { site });
        }
        let total: u32 = votes.iter().sum();
        for threshold in [read_threshold, write_threshold] {
            if threshold > total {
                return Err(VotingError::UnreachableThreshold { threshold, total });
            }
        }
        if read_threshold + write_threshold <= total {
            return Err(VotingError::ReadWriteIntersection {
                sum: read_threshold + write_threshold,
                total,
            });
        }
        if 2 * write_threshold <= total {
            return Err(VotingError::WriteWriteIntersection {
                write: write_threshold,
                total,
            });
        }
        let read_minimal = minimal_quorums(&votes, read_threshold);
        let write_minimal = minimal_quorums(&votes, write_threshold);
        let read_load = uniform_load_of(&read_minimal, votes.len());
        let write_load = uniform_load_of(&write_minimal, votes.len());
        Ok(WeightedVoting {
            votes,
            total,
            read_threshold,
            write_threshold,
            read_minimal,
            write_minimal,
            read_load,
            write_load,
        })
    }

    /// Equal votes with majority thresholds — equivalent to the Majority
    /// protocol on `n` replicas.
    ///
    /// # Errors
    ///
    /// Returns [`VotingError::TooLarge`] beyond [`MAX_VOTING_SITES`].
    pub fn equal(n: usize) -> Result<Self, VotingError> {
        let majority = n as u32 / 2 + 1;
        Self::new(vec![1; n], majority, majority)
    }

    /// The vote assignment.
    pub fn votes(&self) -> &[u32] {
        &self.votes
    }

    /// Total votes `V`.
    pub fn total_votes(&self) -> u32 {
        self.total
    }

    /// `(r, w)` thresholds.
    pub fn thresholds(&self) -> (u32, u32) {
        (self.read_threshold, self.write_threshold)
    }

    fn alive_votes(&self, alive: &AliveSet) -> u32 {
        self.votes
            .iter()
            .enumerate()
            .filter(|(i, _)| alive.contains(SiteId::new(*i as u32)))
            .map(|(_, &v)| v)
            .sum()
    }

    /// Picks a minimal-ish quorum reaching `threshold` among alive sites:
    /// random order, greedy accumulation, then prune members that became
    /// redundant.
    fn pick(&self, threshold: u32, alive: &AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        if self.alive_votes(alive) < threshold {
            return None;
        }
        let mut order: Vec<usize> = (0..self.votes.len())
            .filter(|&i| alive.contains(SiteId::new(i as u32)))
            .collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let mut chosen = Vec::new();
        let mut sum = 0u32;
        for &i in &order {
            if sum >= threshold {
                break;
            }
            chosen.push(i);
            sum += self.votes[i];
        }
        // Prune redundant members (those whose removal keeps the threshold),
        // scanning the largest contributions last so small fillers drop out.
        let mut k = 0;
        while k < chosen.len() {
            let v = self.votes[chosen[k]];
            if sum - v >= threshold {
                sum -= v;
                chosen.swap_remove(k);
            } else {
                k += 1;
            }
        }
        Some(QuorumSet::from_indices(
            chosen.into_iter().map(|i| i as u32),
        ))
    }

    /// Exact probability that the alive vote total reaches `threshold`, via
    /// dynamic programming over the vote distribution — polynomial in `V`,
    /// so it works at any scale (unlike quorum enumeration).
    fn vote_availability(&self, threshold: u32, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let total = self.total as usize;
        let mut dp = vec![0.0f64; total + 1];
        dp[0] = 1.0;
        for &v in &self.votes {
            let v = v as usize;
            for acc in (0..=total - v).rev() {
                let gain = dp[acc] * p;
                dp[acc + v] += gain;
                dp[acc] -= gain;
            }
        }
        dp.iter().skip(threshold as usize).sum()
    }
}

/// Enumerates the *minimal* subsets whose votes reach `threshold`.
fn minimal_quorums(votes: &[u32], threshold: u32) -> Vec<QuorumSet> {
    let n = votes.len();
    let mut result = Vec::new();
    // Enumerate subsets by bitmask (n ≤ 20), keep those reaching the
    // threshold minimally (every member necessary).
    for mask in 1u32..(1 << n) {
        let mut sum = 0u32;
        for (i, &v) in votes.iter().enumerate() {
            if mask & (1 << i) != 0 {
                sum += v;
            }
        }
        if sum < threshold {
            continue;
        }
        let minimal = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .all(|i| sum - votes[i] < threshold);
        if minimal {
            result.push(QuorumSet::from_indices(
                (0..n as u32).filter(|&i| mask & (1 << i) != 0),
            ));
        }
    }
    result
}

/// System load of the uniform strategy over the given quorums.
fn uniform_load_of(quorums: &[QuorumSet], n: usize) -> f64 {
    let m = quorums.len() as f64;
    (0..n as u32)
        .map(|i| {
            quorums
                .iter()
                .filter(|q| q.contains(SiteId::new(i)))
                .count() as f64
                / m
        })
        .fold(0.0, f64::max)
}

impl ReplicaControl for WeightedVoting {
    fn name(&self) -> &str {
        "WEIGHTED-VOTING"
    }

    fn universe(&self) -> Universe {
        Universe::new(self.votes.len())
    }

    fn read_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        Box::new(self.read_minimal.iter().cloned())
    }

    fn write_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        Box::new(self.write_minimal.iter().cloned())
    }

    fn pick_read_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        self.pick(self.read_threshold, &alive, rng)
    }

    fn pick_write_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        self.pick(self.write_threshold, &alive, rng)
    }

    fn read_cost(&self) -> CostProfile {
        cost_of(&self.read_minimal)
    }

    fn write_cost(&self) -> CostProfile {
        cost_of(&self.write_minimal)
    }

    fn read_availability(&self, p: f64) -> f64 {
        self.vote_availability(self.read_threshold, p)
    }

    fn write_availability(&self, p: f64) -> f64 {
        self.vote_availability(self.write_threshold, p)
    }

    fn read_load(&self) -> f64 {
        self.read_load
    }

    fn write_load(&self) -> f64 {
        self.write_load
    }
}

fn cost_of(quorums: &[QuorumSet]) -> CostProfile {
    let min = quorums.iter().map(QuorumSet::len).min().unwrap_or(0) as f64;
    let max = quorums.iter().map(QuorumSet::len).max().unwrap_or(0) as f64;
    let avg = quorums.iter().map(QuorumSet::len).sum::<usize>() as f64 / quorums.len() as f64;
    CostProfile { min, max, avg }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitree_quorum::exact_availability;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn equal_votes_match_majority() {
        let wv = WeightedVoting::equal(5).unwrap();
        let maj = crate::Majority::new(5);
        let b = wv.to_bicoterie().unwrap();
        assert_eq!(b.read_quorums().len() as u128, maj.quorum_count().unwrap());
        assert!((wv.read_load() - maj.read_load()).abs() < 1e-12);
        for &p in &[0.6, 0.8] {
            assert!((wv.read_availability(p) - maj.read_availability(p)).abs() < 1e-12);
        }
    }

    #[test]
    fn gifford_conditions_enforced() {
        assert!(matches!(
            WeightedVoting::new(vec![1, 1, 1], 1, 2),
            Err(VotingError::ReadWriteIntersection { .. })
        ));
        assert!(matches!(
            WeightedVoting::new(vec![1, 1, 1, 1], 4, 2),
            Err(VotingError::WriteWriteIntersection { .. })
        ));
        assert!(matches!(
            WeightedVoting::new(vec![1, 1], 3, 3),
            Err(VotingError::UnreachableThreshold { .. })
        ));
        assert!(matches!(
            WeightedVoting::new(vec![], 1, 1),
            Err(VotingError::NoReplicas)
        ));
        assert!(matches!(
            WeightedVoting::new(vec![1, 0, 1], 2, 2),
            Err(VotingError::ZeroVote { site: 1 })
        ));
        assert!(matches!(
            WeightedVoting::new(vec![1; 21], 11, 11),
            Err(VotingError::TooLarge { .. })
        ));
    }

    #[test]
    fn weighted_assignment_shrinks_quorums() {
        // 3-vote site + 4 singles, thresholds 4/4: min quorum = {strong, any}.
        let wv = WeightedVoting::new(vec![3, 1, 1, 1, 1], 4, 4).unwrap();
        assert_eq!(wv.read_cost().min, 2.0);
        // Without the strong site: all four singles (4 votes).
        assert_eq!(wv.read_cost().max, 4.0);
        wv.to_bicoterie().unwrap();
    }

    #[test]
    fn minimal_quorums_are_minimal_and_sufficient() {
        let wv = WeightedVoting::new(vec![2, 2, 1, 1, 1], 4, 4).unwrap();
        for q in wv.read_quorums() {
            let sum: u32 = q.iter().map(|s| wv.votes()[s.index()]).sum();
            assert!(sum >= 4, "{q} reaches only {sum}");
            for member in q.iter() {
                assert!(
                    sum - wv.votes()[member.index()] < 4,
                    "{q} remains a quorum without {member}"
                );
            }
        }
    }

    #[test]
    fn dp_availability_matches_enumeration() {
        let wv = WeightedVoting::new(vec![3, 1, 1, 1, 1], 4, 5).unwrap();
        let b = wv.to_bicoterie().unwrap();
        for &p in &[0.5, 0.7, 0.9] {
            let exact_r = exact_availability(b.read_quorums(), p);
            assert!(
                (wv.read_availability(p) - exact_r).abs() < 1e-12,
                "read p={p}"
            );
            let exact_w = exact_availability(b.write_quorums(), p);
            assert!(
                (wv.write_availability(p) - exact_w).abs() < 1e-12,
                "write p={p}"
            );
        }
    }

    #[test]
    fn pick_respects_threshold_and_liveness() {
        let wv = WeightedVoting::new(vec![3, 1, 1, 1, 1], 4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut alive = AliveSet::full(5);
        alive.remove(SiteId::new(0)); // lose the strong site: 4 votes remain
        let q = wv.pick_read_quorum(alive.clone(), &mut rng).unwrap();
        assert_eq!(q.len(), 4);
        alive.remove(SiteId::new(1)); // 3 votes < 4
        assert!(wv.pick_read_quorum(alive, &mut rng).is_none());
    }

    #[test]
    fn picked_quorums_reach_threshold_minimally() {
        let wv = WeightedVoting::new(vec![2, 2, 1, 1, 1], 4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let alive = AliveSet::full(5);
        for _ in 0..50 {
            let q = wv.pick_write_quorum(alive.clone(), &mut rng).unwrap();
            let sum: u32 = q.iter().map(|s| wv.votes()[s.index()]).sum();
            assert!(sum >= 4);
            for member in q.iter() {
                assert!(sum - wv.votes()[member.index()] < 4, "{q} not minimal");
            }
        }
    }

    #[test]
    fn asymmetric_thresholds_trade_read_for_write() {
        // r = 2, w = 6 on five singles (V = 5)? 2+6 > 5 but w > V — invalid.
        // Use V = 7: votes 3,1,1,1,1 with r = 2, w = 6.
        let wv = WeightedVoting::new(vec![3, 1, 1, 1, 1], 2, 6).unwrap();
        assert!(wv.read_cost().min <= 2.0);
        assert!(wv.write_cost().min >= 3.0);
        assert!(wv.read_availability(0.7) > wv.write_availability(0.7));
    }

    #[test]
    fn error_display() {
        for e in [
            VotingError::NoReplicas,
            VotingError::ZeroVote { site: 1 },
            VotingError::ReadWriteIntersection { sum: 3, total: 5 },
            VotingError::WriteWriteIntersection { write: 2, total: 5 },
            VotingError::UnreachableThreshold {
                threshold: 9,
                total: 5,
            },
            VotingError::TooLarge { n: 30, max: 20 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
