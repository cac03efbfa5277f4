//! The concrete arbitrary tree: nodes, parent/child structure, and the
//! level bookkeeping of §3.1 (`m_k`, `m_phy_k`, `m_log_k`, `K_phy`, `K_log`).

use crate::error::TreeError;
use crate::spec::TreeSpec;
use arbitree_quorum::{SiteId, Universe};
use std::fmt;
use std::sync::Arc;

/// Identifier of a node within an [`ArbitraryTree`] (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// The dense index of this node.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Whether a node is a replica or a placeholder (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A physical node: corresponds to a replica of the system.
    Physical,
    /// A logical node: structural placeholder, holds no data.
    Logical,
}

/// One node of the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    id: NodeId,
    level: usize,
    kind: NodeKind,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// The replica this node hosts, if physical.
    site: Option<SiteId>,
}

impl Node {
    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The level (depth) of the node; the root is at level 0.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Physical or logical.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// The parent node, or `None` for the root.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Child nodes, left to right.
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// The replica hosted at this node (`Some` iff the node is physical).
    pub fn site(&self) -> Option<SiteId> {
        self.site
    }
}

/// An arbitrary tree: the logical organization of `n` replicas described in
/// §3.1 of the paper.
///
/// Construction happens via [`ArbitraryTree::from_spec`]; the per-level shape
/// comes from a validated [`TreeSpec`]. Within each level physical nodes come
/// first (left to right), then logical filler nodes; children are distributed
/// over the previous level's nodes as evenly as possible, left-heavy. Site
/// identifiers are assigned to physical nodes top-down, left-to-right, so the
/// mapping between tree positions and [`SiteId`]s is deterministic.
///
/// A built tree is immutable, so clones share it: a clone costs one
/// reference count, whatever the tree's size.
///
/// # Examples
///
/// ```
/// use arbitree_core::ArbitraryTree;
///
/// let tree = ArbitraryTree::from_spec(&"1-3-5".parse()?)?;
/// assert_eq!(tree.replica_count(), 8);
/// assert_eq!(tree.height(), 2);
/// assert_eq!(tree.physical_levels(), &[1, 2]);
/// assert_eq!(tree.min_level_width(), 3); // d
/// assert_eq!(tree.max_level_width(), 5); // e
/// # Ok::<(), arbitree_core::TreeError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct ArbitraryTree {
    shape: Arc<Shape>,
}

/// The tree's structure, shared by every clone of an [`ArbitraryTree`].
#[derive(PartialEq)]
struct Shape {
    spec: TreeSpec,
    nodes: Vec<Node>,
    /// Node ids per level, physical nodes first.
    levels: Vec<Vec<NodeId>>,
    /// Sites per level (empty for logical levels), ascending SiteId.
    sites_by_level: Vec<Vec<SiteId>>,
    /// Level of each site, indexed by `SiteId::index`.
    site_levels: Vec<usize>,
    /// Ascending indices of physical levels (`K_phy`).
    physical_levels: Vec<usize>,
    /// Ascending indices of logical levels (`K_log`).
    logical_levels: Vec<usize>,
}

impl ArbitraryTree {
    /// Builds the tree for a validated spec.
    ///
    /// # Errors
    ///
    /// Returns any [`TreeError`] the spec's [`TreeSpec::validate`] reports.
    pub fn from_spec(spec: &TreeSpec) -> Result<Self, TreeError> {
        spec.validate()?;
        let mut nodes: Vec<Node> = Vec::new();
        let mut levels: Vec<Vec<NodeId>> = Vec::with_capacity(spec.levels().len());
        let mut sites_by_level: Vec<Vec<SiteId>> = Vec::with_capacity(spec.levels().len());
        let mut site_levels: Vec<usize> = Vec::new();
        let mut next_site = 0u32;

        for (k, level_spec) in spec.levels().iter().enumerate() {
            let mut ids = Vec::with_capacity(level_spec.total());
            let mut sites = Vec::with_capacity(level_spec.physical);
            for i in 0..level_spec.total() {
                let kind = if i < level_spec.physical {
                    NodeKind::Physical
                } else {
                    NodeKind::Logical
                };
                let site = match kind {
                    NodeKind::Physical => {
                        let s = SiteId::new(next_site);
                        next_site += 1;
                        site_levels.push(k);
                        sites.push(s);
                        Some(s)
                    }
                    NodeKind::Logical => None,
                };
                let id = NodeId(nodes.len());
                nodes.push(Node {
                    id,
                    level: k,
                    kind,
                    parent: None,
                    children: Vec::new(),
                    site,
                });
                ids.push(id);
            }
            // Attach to parents: distribute evenly, left-heavy.
            if k > 0 {
                let parents: &[NodeId] = &levels[k - 1];
                for (i, &child) in ids.iter().enumerate() {
                    let parent = parents[i % parents.len()];
                    nodes[child.index()].parent = Some(parent);
                    nodes[parent.index()].children.push(child);
                }
            }
            levels.push(ids);
            sites_by_level.push(sites);
        }

        Ok(ArbitraryTree {
            shape: Arc::new(Shape {
                physical_levels: spec.physical_levels(),
                logical_levels: spec.logical_levels(),
                spec: spec.clone(),
                nodes,
                levels,
                sites_by_level,
                site_levels,
            }),
        })
    }

    /// Convenience: parse a spec string and build the tree.
    ///
    /// # Errors
    ///
    /// Returns a [`TreeError`] on parse failure or invalid shape.
    pub fn parse(spec: &str) -> Result<Self, TreeError> {
        Self::from_spec(&spec.parse()?)
    }

    /// The spec this tree was built from.
    pub fn spec(&self) -> &TreeSpec {
        &self.shape.spec
    }

    /// Tree height `h`.
    pub fn height(&self) -> usize {
        self.shape.spec.height()
    }

    /// Number of replicas `n`.
    pub fn replica_count(&self) -> usize {
        self.shape.site_levels.len()
    }

    /// The replica universe `U` (sites `0..n`).
    pub fn universe(&self) -> Universe {
        Universe::new(self.replica_count())
    }

    /// All nodes, dense by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.shape.nodes
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tree.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.shape.nodes[id.index()]
    }

    /// The root node.
    pub fn root(&self) -> &Node {
        &self.shape.nodes[0]
    }

    /// Node ids at `level` (physical first, then logical filler).
    pub fn level_nodes(&self, level: usize) -> &[NodeId] {
        &self.shape.levels[level]
    }

    /// `m_k`: total node count at `level`.
    pub fn level_total(&self, level: usize) -> usize {
        self.shape.levels[level].len()
    }

    /// `m_phy_k`: physical node count at `level`.
    pub fn level_physical(&self, level: usize) -> usize {
        self.shape.sites_by_level[level].len()
    }

    /// `m_log_k`: logical node count at `level`.
    pub fn level_logical(&self, level: usize) -> usize {
        self.level_total(level) - self.level_physical(level)
    }

    /// The sites (replicas) hosted at `level`, ascending.
    pub fn level_sites(&self, level: usize) -> &[SiteId] {
        &self.shape.sites_by_level[level]
    }

    /// `K_phy`: the physical levels, ascending.
    pub fn physical_levels(&self) -> &[usize] {
        &self.shape.physical_levels
    }

    /// `K_log`: the logical levels, ascending.
    pub fn logical_levels(&self) -> &[usize] {
        &self.shape.logical_levels
    }

    /// `|K_phy|` — also `m(W)`, the number of write quorums (fact 3.2.2).
    pub fn physical_level_count(&self) -> usize {
        self.shape.physical_levels.len()
    }

    /// `d = min_k m_phy_k` over physical levels: the smallest physical-level
    /// width. Drives the read load `1/d` and the minimum write cost.
    pub fn min_level_width(&self) -> usize {
        self.shape
            .physical_levels
            .iter()
            .map(|&k| self.level_physical(k))
            .min()
            .expect("validated tree has a physical level")
    }

    /// `e = max_k m_phy_k`: the largest physical-level width (maximum write
    /// cost).
    pub fn max_level_width(&self) -> usize {
        self.shape
            .physical_levels
            .iter()
            .map(|&k| self.level_physical(k))
            .max()
            .expect("validated tree has a physical level")
    }

    /// The level hosting `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is not a replica of this tree.
    pub fn site_level(&self, site: SiteId) -> usize {
        self.shape.site_levels[site.index()]
    }
}

// Prints the shared structure's fields under the tree's own name, so the
// `Arc` does not show.
impl fmt::Debug for ArbitraryTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &*self.shape;
        f.debug_struct("ArbitraryTree")
            .field("spec", &s.spec)
            .field("nodes", &s.nodes)
            .field("levels", &s.levels)
            .field("sites_by_level", &s.sites_by_level)
            .field("site_levels", &s.site_levels)
            .field("physical_levels", &s.physical_levels)
            .field("logical_levels", &s.logical_levels)
            .finish()
    }
}

impl fmt::Display for ArbitraryTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ArbitraryTree({})", self.shape.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::LevelSpec;

    fn figure_one() -> ArbitraryTree {
        // The paper's Figure 1 tree including the logical filler at level 2.
        ArbitraryTree::from_spec(&TreeSpec::new(vec![
            LevelSpec::logical(1),
            LevelSpec::physical(3),
            LevelSpec {
                physical: 5,
                logical: 4,
            },
        ]))
        .unwrap()
    }

    #[test]
    fn table_one_bookkeeping() {
        // Table 1 of the paper: m_k, m_phy_k, m_log_k for Figure 1.
        let t = figure_one();
        assert_eq!(t.level_total(0), 1);
        assert_eq!(t.level_physical(0), 0);
        assert_eq!(t.level_logical(0), 1);
        assert_eq!(t.level_total(1), 3);
        assert_eq!(t.level_physical(1), 3);
        assert_eq!(t.level_logical(1), 0);
        assert_eq!(t.level_total(2), 9);
        assert_eq!(t.level_physical(2), 5);
        assert_eq!(t.level_logical(2), 4);
        assert_eq!(t.replica_count(), 8);
        assert_eq!(t.physical_levels(), &[1, 2]);
        assert_eq!(t.logical_levels(), &[0]);
        assert_eq!(t.physical_level_count(), 2);
    }

    #[test]
    fn d_and_e_match_example() {
        let t = figure_one();
        assert_eq!(t.min_level_width(), 3);
        assert_eq!(t.max_level_width(), 5);
    }

    #[test]
    fn sites_assigned_top_down_left_right() {
        let t = figure_one();
        let l1: Vec<usize> = t.level_sites(1).iter().map(|s| s.index()).collect();
        let l2: Vec<usize> = t.level_sites(2).iter().map(|s| s.index()).collect();
        assert_eq!(l1, vec![0, 1, 2]);
        assert_eq!(l2, vec![3, 4, 5, 6, 7]);
        for s in 0..3 {
            assert_eq!(t.site_level(SiteId::new(s)), 1);
        }
        for s in 3..8 {
            assert_eq!(t.site_level(SiteId::new(s)), 2);
        }
    }

    #[test]
    fn parent_child_links_consistent() {
        let t = figure_one();
        assert!(t.root().parent().is_none());
        assert_eq!(t.root().children().len(), 3);
        let mut total_children = 0;
        for node in t.nodes() {
            for &c in node.children() {
                assert_eq!(t.node(c).parent(), Some(node.id()));
                assert_eq!(t.node(c).level(), node.level() + 1);
                total_children += 1;
            }
        }
        // Every non-root node has a parent.
        assert_eq!(total_children, t.nodes().len() - 1);
    }

    #[test]
    fn children_distributed_evenly() {
        let t = figure_one();
        // 9 level-2 nodes over 3 level-1 parents → 3 each.
        for &id in t.level_nodes(1) {
            assert_eq!(t.node(id).children().len(), 3);
        }
    }

    #[test]
    fn physical_nodes_have_sites_logical_do_not() {
        let t = figure_one();
        for node in t.nodes() {
            match node.kind() {
                NodeKind::Physical => assert!(node.site().is_some()),
                NodeKind::Logical => assert!(node.site().is_none()),
            }
        }
    }

    #[test]
    fn invalid_spec_propagates_error() {
        let err = ArbitraryTree::from_spec(&TreeSpec::logical_root([5, 3]));
        assert!(matches!(err, Err(TreeError::AssumptionViolated { .. })));
        assert!(matches!(
            ArbitraryTree::parse("nonsense"),
            Err(TreeError::ParseError { .. })
        ));
    }

    #[test]
    fn single_replica_tree() {
        let t = ArbitraryTree::parse("p:1").unwrap();
        assert_eq!(t.replica_count(), 1);
        assert_eq!(t.height(), 0);
        assert_eq!(t.min_level_width(), 1);
        assert_eq!(t.physical_levels(), &[0]);
        assert_eq!(t.site_level(SiteId::new(0)), 0);
    }

    #[test]
    fn display_shows_spec() {
        assert_eq!(figure_one().to_string(), "ArbitraryTree(1-3-5)");
    }

    #[test]
    fn universe_matches_replicas() {
        let t = figure_one();
        assert_eq!(t.universe().len(), 8);
    }
}
