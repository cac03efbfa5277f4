//! # arbitree-baselines
//!
//! Baseline replica control protocols the paper compares against (or cites
//! as motivation), each implemented from scratch as an
//! [`arbitree_quorum::ReplicaControl`]:
//!
//! | protocol | structure | read/write cost | load |
//! |---|---|---|---|
//! | [`Rowa`] | none | 1 / `n` | `1/n` / 1 |
//! | [`Majority`] (Thomas) | none | `(n+1)/2` | `≈ 1/2` |
//! | [`TreeQuorum`] (Agrawal–El Abbadi, the paper's `BINARY`) | binary tree | `log₂(n+1) … (n+1)/2` | `2/(h+2)` |
//! | [`Hqc`] (Kumar) | ternary hierarchy | `n^0.63` | `n^−0.37` |
//! | [`Grid`] (Cheung–Ammar–Ahamad) | `R×C` grid | `C` / `R+C−1` | `≈ 1/√n` / `≈ 2/√n` |
//! | [`Maekawa`] | `R×C` grid crosses | `R+C−1` | `≈ 2/√n` |
//! | [`unmodified`] (§4 `UNMODIFIED`) | fully physical binary tree | `log₂(n+1)` / `n/log₂(n+1)` | 1 / `1/log₂(n+1)` |
//! | [`WeightedVoting`] (Gifford; vote assignment per the paper's \[6\]) | none | varies with votes | varies |
//!
//! Maekawa's protocol substitutes the grid construction for true finite
//! projective planes (which exist only for prime-power orders); this is the
//! variant Maekawa's own paper recommends in practice, and the substitution
//! is recorded in DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod grid;
mod hqc;
mod maekawa;
mod majority;
mod rowa;
mod tree_quorum;
mod unmodified;
pub mod util;
mod voting;

pub use grid::Grid;
pub use hqc::Hqc;
pub use maekawa::Maekawa;
pub use majority::Majority;
pub use rowa::Rowa;
pub use tree_quorum::TreeQuorum;
pub use unmodified::unmodified;
pub use voting::{VotingError, WeightedVoting, MAX_VOTING_SITES};
