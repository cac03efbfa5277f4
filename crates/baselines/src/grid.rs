//! The Grid protocol (Cheung, Ammar, Ahamad 1990): replicas arranged in an
//! `R × C` rectangle. A read quorum takes one replica from every column; a
//! write quorum takes one full column plus one replica from every other
//! column. Costs are `O(√n)` for a square grid.

use arbitree_quorum::{AliveSet, CostProfile, QuorumSet, ReplicaControl, SiteId, Universe};
use rand::RngCore;

/// The grid protocol over `rows × cols` replicas.
///
/// Site `(r, c)` has identifier `r·cols + c`.
///
/// # Examples
///
/// ```
/// use arbitree_baselines::Grid;
/// use arbitree_quorum::ReplicaControl;
///
/// let g = Grid::new(3, 3); // n = 9
/// assert_eq!(g.read_cost().avg, 3.0);      // one per column
/// assert_eq!(g.write_cost().avg, 5.0);     // R + C − 1
/// ```
#[derive(Debug, Clone)]
pub struct Grid {
    rows: usize,
    cols: usize,
}

impl Grid {
    /// Creates an `rows × cols` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        Grid { rows, cols }
    }

    /// The most-square grid holding exactly `n` replicas: `⌈√n⌉` columns and
    /// as many full rows as fit; if `n` is not a product of the chosen
    /// dimensions, the nearest factorization `r·c = n` with `r ≤ c` closest
    /// to square is used.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn square_like(n: usize) -> Self {
        assert!(n > 0, "need at least one replica");
        let mut best = (1usize, n);
        for r in 1..=((n as f64).sqrt() as usize) {
            if n.is_multiple_of(r) {
                best = (r, n / r);
            }
        }
        Grid::new(best.0, best.1)
    }

    /// Number of rows `R`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns `C`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    fn site(&self, r: usize, c: usize) -> SiteId {
        SiteId::new((r * self.cols + c) as u32)
    }

    /// Sites of column `c`, top to bottom.
    fn column(&self, c: usize) -> impl Iterator<Item = SiteId> + '_ {
        (0..self.rows).map(move |r| self.site(r, c))
    }
}

impl ReplicaControl for Grid {
    fn name(&self) -> &str {
        "GRID"
    }

    fn universe(&self) -> Universe {
        Universe::new(self.rows * self.cols)
    }

    fn read_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        // Mixed-radix over R^C choices: one row index per column.
        let total = (self.rows as u128).checked_pow(self.cols as u32);
        let total = total.expect("read quorum count overflows u128");
        let cols = self.cols;
        let rows = self.rows;
        Box::new((0..total).map(move |mut idx| {
            let mut members = Vec::with_capacity(cols);
            for c in 0..cols {
                let r = (idx % rows as u128) as usize;
                idx /= rows as u128;
                members.push(self.site(r, c));
            }
            QuorumSet::from_sites(members)
        }))
    }

    fn write_quorums(&self) -> Box<dyn Iterator<Item = QuorumSet> + '_> {
        // Choose the full column, then one row per remaining column.
        let rows = self.rows as u128;
        let per_col = rows.checked_pow(self.cols as u32 - 1);
        let per_col = per_col.expect("write quorum count overflows u128");
        let cols = self.cols;
        Box::new((0..cols as u128 * per_col).map(move |idx| {
            let full_col = (idx / per_col) as usize;
            let mut rest = idx % per_col;
            let mut members: Vec<SiteId> = self.column(full_col).collect();
            for c in (0..cols).filter(|&c| c != full_col) {
                let r = (rest % rows) as usize;
                rest /= rows;
                members.push(self.site(r, c));
            }
            QuorumSet::from_sites(members)
        }))
    }

    fn pick_read_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        let mut members = Vec::with_capacity(self.cols);
        for c in 0..self.cols {
            let live: Vec<SiteId> = self.column(c).filter(|&s| alive.contains(s)).collect();
            if live.is_empty() {
                return None;
            }
            members.push(live[(rng.next_u64() % live.len() as u64) as usize]);
        }
        Some(QuorumSet::from_sites(members))
    }

    fn pick_write_quorum(&self, alive: AliveSet, rng: &mut dyn RngCore) -> Option<QuorumSet> {
        let full_cols: Vec<usize> = (0..self.cols)
            .filter(|&c| self.column(c).all(|s| alive.contains(s)))
            .collect();
        if full_cols.is_empty() {
            return None;
        }
        let full = full_cols[(rng.next_u64() % full_cols.len() as u64) as usize];
        let mut members: Vec<SiteId> = self.column(full).collect();
        for c in (0..self.cols).filter(|&c| c != full) {
            let live: Vec<SiteId> = self.column(c).filter(|&s| alive.contains(s)).collect();
            if live.is_empty() {
                return None;
            }
            members.push(live[(rng.next_u64() % live.len() as u64) as usize]);
        }
        Some(QuorumSet::from_sites(members))
    }

    fn read_cost(&self) -> CostProfile {
        CostProfile::flat(self.cols as f64)
    }

    fn write_cost(&self) -> CostProfile {
        CostProfile::flat((self.rows + self.cols - 1) as f64)
    }

    fn read_availability(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        // Every column must have at least one live replica.
        (1.0 - (1.0 - p).powi(self.rows as i32)).powi(self.cols as i32)
    }

    fn write_availability(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        // B = P(column has a live replica), A = P(column fully alive).
        // Write possible iff all columns have a live replica AND at least
        // one column is fully alive: B^C − (B − A)^C by column independence.
        let a = p.powi(self.rows as i32);
        let b = 1.0 - (1.0 - p).powi(self.rows as i32);
        b.powi(self.cols as i32) - (b - a).powi(self.cols as i32)
    }

    fn read_load(&self) -> f64 {
        // One replica per column, chosen uniformly within its column.
        1.0 / self.rows as f64
    }

    fn write_load(&self) -> f64 {
        // A site is in the quorum if its column is the full one (1/C) or as
        // its column's representative ((1 − 1/C)·1/R).
        let r = self.rows as f64;
        let c = self.cols as f64;
        1.0 / c + (1.0 - 1.0 / c) / r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitree_quorum::{exact_availability, uniform_load};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quorum_counts() {
        let g = Grid::new(3, 3);
        assert_eq!(g.read_quorums().count(), 27); // 3^3
        assert_eq!(g.write_quorums().count(), 27); // 3 · 3^2
    }

    #[test]
    fn bicoterie_property() {
        let g = Grid::new(3, 3);
        g.to_bicoterie().unwrap();
        let g = Grid::new(2, 4);
        g.to_bicoterie().unwrap();
    }

    #[test]
    fn quorum_sizes() {
        let g = Grid::new(3, 4);
        assert!(g.read_quorums().all(|q| q.len() == 4));
        assert!(g.write_quorums().all(|q| q.len() == 6)); // 3 + 4 − 1
    }

    #[test]
    fn availability_matches_enumeration() {
        let g = Grid::new(3, 3);
        let b = g.to_bicoterie().unwrap();
        for &p in &[0.6, 0.8, 0.9] {
            let read_exact = exact_availability(b.read_quorums(), p);
            assert!(
                (read_exact - g.read_availability(p)).abs() < 1e-9,
                "read p={p}"
            );
            let write_exact = exact_availability(b.write_quorums(), p);
            assert!(
                (write_exact - g.write_availability(p)).abs() < 1e-9,
                "write p={p}: {write_exact} vs {}",
                g.write_availability(p)
            );
        }
    }

    #[test]
    fn loads_match_uniform_strategy() {
        let g = Grid::new(3, 3);
        let b = g.to_bicoterie().unwrap();
        assert!((uniform_load(b.read_quorums()) - g.read_load()).abs() < 1e-9);
        assert!((uniform_load(b.write_quorums()) - g.write_load()).abs() < 1e-9);
    }

    #[test]
    fn square_like_factorizations() {
        let g = Grid::square_like(12);
        assert_eq!((g.rows(), g.cols()), (3, 4));
        let g = Grid::square_like(9);
        assert_eq!((g.rows(), g.cols()), (3, 3));
        let g = Grid::square_like(7); // prime → degenerate 1×7
        assert_eq!((g.rows(), g.cols()), (1, 7));
    }

    #[test]
    fn pick_read_avoids_dead_and_fails_on_dead_column() {
        let g = Grid::new(2, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let mut alive = AliveSet::full(6);
        alive.remove(SiteId::new(0)); // (0,0)
        let q = g.pick_read_quorum(alive.clone(), &mut rng).unwrap();
        assert!(q.contains(SiteId::new(3))); // (1,0) forced
        alive.remove(SiteId::new(3)); // kill whole column 0
        assert!(g.pick_read_quorum(alive, &mut rng).is_none());
    }

    #[test]
    fn pick_write_needs_full_column() {
        let g = Grid::new(2, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let mut alive = AliveSet::full(4);
        // Kill (0,0) and (1,1): no column fully alive.
        alive.remove(SiteId::new(0));
        alive.remove(SiteId::new(3));
        assert!(g.pick_write_quorum(alive.clone(), &mut rng).is_none());
        // Restore (0,0): column 0 = {0,2} alive again.
        alive.insert(SiteId::new(0));
        let q = g.pick_write_quorum(alive, &mut rng).unwrap();
        assert!(q.contains(SiteId::new(0)) && q.contains(SiteId::new(2)));
        assert!(!q.contains(SiteId::new(3)));
    }

    #[test]
    fn picked_quorums_belong_to_enumeration() {
        let g = Grid::new(2, 2);
        let reads: Vec<_> = g.read_quorums().collect();
        let writes: Vec<_> = g.write_quorums().collect();
        let mut rng = StdRng::seed_from_u64(5);
        let alive = AliveSet::full(4);
        for _ in 0..30 {
            assert!(reads.contains(&g.pick_read_quorum(alive.clone(), &mut rng).unwrap()));
            assert!(writes.contains(&g.pick_write_quorum(alive.clone(), &mut rng).unwrap()));
        }
    }

    #[test]
    fn square_grid_loads_scale_as_inverse_sqrt_n() {
        let g = Grid::new(10, 10);
        assert!((g.read_load() - 0.1).abs() < 1e-12);
        assert!((g.write_load() - (0.1 + 0.9 * 0.1)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_rejected() {
        let _ = Grid::new(0, 3);
    }
}
