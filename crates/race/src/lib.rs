//! arbitree-race: a happens-before + lockset concurrency auditor for the
//! workspace's real (threaded) code.
//!
//! The registry is unreachable, so this is a self-contained dynamic
//! detector rather than a loom/tsan integration. It has three parts:
//!
//! 1. **Traced primitives** — [`TracedMutex`], traced channels
//!    ([`traced_channel`]) and traced scoped threads ([`scope`]). With the
//!    `race-audit` feature off (the default) they are zero-cost
//!    passthroughs to `std`/crossbeam; with it on, every acquire, release,
//!    send, receive, fork, join, and guarded access is recorded into a
//!    lock-free event log.
//! 2. **The analyzer** — [`analyze`] replays a recorded [`SessionLog`]
//!    computing per-thread vector clocks (fork/join and channel edges),
//!    Eraser-style candidate locksets per shadow cell, and a dynamic
//!    lock-order graph with cycle detection (the dynamic generalization of
//!    lint's static D010). Findings carry replayable traces and render as
//!    text or JSON ([`RaceReport`]).
//! 3. **The kill harness** — [`mutants`] seeds five concurrency bugs the
//!    detector must flag while the unmutated scenarios run clean.
//!
//! Recording discipline: wrap the run in a [`Session`]
//! (`race-audit` only), join every thread you spawn before finishing it,
//! and analyze the drained log. Traced primitives used with no live
//! session, or from a thread outside it, record nothing.
//!
//! Known blind spot (by design, documented in DESIGN.md §13): raw atomics
//! are invisible (spin-flag protocols must still be joined or channeled).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analyze;
pub mod chan;
pub mod event;
#[cfg(feature = "race-audit")]
mod log;
#[cfg(feature = "race-audit")]
pub mod mutants;
pub mod report;
pub mod scope;
#[cfg(feature = "race-audit")]
pub mod shadow;
pub mod sync;

pub use analyze::analyze;
pub use chan::{traced_channel, TracedReceiver, TracedSender};
pub use event::{CellId, ChanId, EventKind, LockId, RaceEvent, SessionLog, ThreadId};
#[cfg(feature = "race-audit")]
pub use log::Session;
#[cfg(feature = "race-audit")]
pub use mutants::RaceMutation;
pub use report::{Finding, FindingKind, RaceReport};
pub use scope::{scope, Scope, ScopeResult, ScopedJoinHandle};
#[cfg(feature = "race-audit")]
pub use shadow::ShadowCell;
pub use sync::{TracedMutex, TracedMutexGuard};
