//! The raw shadow seam (only compiled with `race-audit`): mint shadow
//! words and lock ids directly, without wrapping a real primitive.
//!
//! This is how code whose synchronization the wrappers cannot see (atomics,
//! protocol-level exclusion) tells the detector about its shared state, and
//! how the mutation harness seeds misuse bugs like a double release. A
//! [`ShadowCell`] carries *no data* — the real value lives wherever the
//! caller keeps it (typically atomics); the cell only names it for the
//! lockset and happens-before passes.

use crate::event::{CellId, EventKind, LockId};
use crate::log::{fresh_id, record};

/// A free-standing shadow word naming one unit of shared state.
#[derive(Debug, Clone, Copy)]
pub struct ShadowCell {
    cell: CellId,
}

impl ShadowCell {
    /// Mint a fresh shadow word.
    #[allow(clippy::new_without_default)]
    pub fn new() -> ShadowCell {
        ShadowCell {
            cell: CellId(fresh_id()),
        }
    }

    /// The cell's id (for matching findings in tests).
    pub fn id(&self) -> CellId {
        self.cell
    }

    /// Record a read of the named state.
    pub fn read(&self) {
        record(EventKind::Read { cell: self.cell });
    }

    /// Record a write of the named state.
    pub fn write(&self) {
        record(EventKind::Write { cell: self.cell });
    }
}

/// Mint a fresh lock id for use with [`raw_acquire`]/[`raw_release`].
pub fn fresh_lock() -> LockId {
    LockId(fresh_id())
}

/// Record an exclusive acquisition of `lock` without any real locking.
pub fn raw_acquire(lock: LockId) {
    record(EventKind::Acquire { lock });
}

/// Record a release of `lock` without any real unlocking.
pub fn raw_release(lock: LockId) {
    record(EventKind::Release { lock });
}
