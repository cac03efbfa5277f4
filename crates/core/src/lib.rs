//! # arbitree-core
//!
//! The arbitrary tree-structured replica control protocol of Bahsoun,
//! Basmadjian and Guerraoui (ICDCS 2008) — the primary contribution of the
//! paper this workspace reproduces.
//!
//! ## The protocol in one paragraph
//!
//! Replicas are organized into a tree whose nodes are either **physical**
//! (a replica) or **logical** (a placeholder). A level containing at least
//! one physical node is a *physical level*. A **read quorum** takes any one
//! physical node from *every* physical level; a **write quorum** takes *all*
//! physical nodes of any *one* physical level. Every read quorum therefore
//! intersects every write quorum (a bicoterie), giving one-copy equivalence,
//! while the tree *shape* becomes a tuning knob: one physical level behaves
//! like ROWA (`MOSTLY-READ`); `n/2` levels of two give write cost 2
//! (`MOSTLY-WRITE`); Algorithm 1's `√n` levels give write load `1/√n`,
//! read cost `√n`, and read load `1/4` (`ARBITRARY`).
//!
//! ## Crate layout
//!
//! * [`TreeSpec`] / [`LevelSpec`] — declarative tree shapes, the paper's
//!   `1-3-5` notation, and assumption 3.1 validation;
//! * [`ArbitraryTree`] — the concrete node structure with the §3.1
//!   level bookkeeping (`m_k`, `m_phy_k`, `K_phy`, …);
//! * [`quorums`] — read/write quorum enumeration (facts 3.2.1, 3.2.2);
//! * [`TreeMetrics`] — closed-form cost/availability/load (§3.2, appendix);
//! * [`ArbitraryProtocol`] — the [`arbitree_quorum::ReplicaControl`]
//!   implementation used by the simulator;
//! * [`builder`] — `MOSTLY-READ`, `MOSTLY-WRITE`, Algorithm 1, complete
//!   binary shapes;
//! * [`planner`] — frequency-driven shape selection and reconfiguration;
//! * [`Timestamp`] — `(version, SID)` ordering for replica values.
//!
//! ## Example
//!
//! ```
//! use arbitree_core::{ArbitraryProtocol, ArbitraryTree, TreeMetrics};
//! use arbitree_quorum::ReplicaControl;
//!
//! // The paper's running example: 8 replicas shaped 1-3-5.
//! let tree = ArbitraryTree::parse("1-3-5")?;
//! let metrics = TreeMetrics::new(&tree);
//! assert_eq!(metrics.read_cost().avg, 2.0);       // RD_cost = |K_phy|
//! assert_eq!(metrics.write_cost().avg, 4.0);      // n / |K_phy|
//! assert_eq!(metrics.read_load(), 1.0 / 3.0);     // 1/d
//! assert_eq!(metrics.write_load(), 0.5);          // 1/|K_phy|
//!
//! let protocol = ArbitraryProtocol::new(tree);
//! assert_eq!(protocol.read_quorums().count(), 15); // m(R) = 3·5
//! # Ok::<(), arbitree_core::TreeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod collections;
mod error;
mod metrics;
pub mod planner;
mod protocol;
pub mod quorums;
mod render;
mod spec;
mod timestamp;
mod tree;

pub use collections::{DetMap, DetSet};
pub use error::TreeError;
pub use metrics::{
    algorithm1_read_availability_limit, algorithm1_write_availability_limit, TreeMetrics,
};
pub use protocol::ArbitraryProtocol;
pub use quorums::{read_quorum_count, read_quorums, write_quorum_count, write_quorums};
pub use render::{render_outline, render_tree};
pub use spec::{LevelSpec, TreeSpec};
pub use timestamp::Timestamp;
pub use tree::{ArbitraryTree, Node, NodeId, NodeKind};
