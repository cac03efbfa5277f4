//! The centralized concurrency control of §2.2: a strict two-phase-locking
//! lock manager shared by all clients, with FIFO queueing (no starvation)
//! and shared read locks.
//!
//! The manager is one table from object to holders and FIFO wait queue,
//! owned by the single-threaded coordinator. Deadlock freedom comes from
//! the coordinator acquiring a transaction's object locks in ascending
//! object order (a total order), so no wait-for cycle can form.
//!
//! The coordinator takes all of a transaction's locks before its read
//! round starts, releases the shared ones when the read round ends and
//! the exclusive ones after the last commit ack (or on abort). No lock is
//! taken after one is released, so this is two-phase and serializable;
//! strict, because every exclusive lock is held until the transaction
//! ends.

use crate::fingerprint::hash_in_order;
use crate::message::{ObjectId, OpId};
use arbitree_core::DetMap;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// Lock mode requested by an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared: concurrent readers allowed.
    Read,
    /// Exclusive.
    Write,
}

#[derive(Debug, Default, Hash)]
struct LockState {
    holders: Vec<(OpId, LockMode)>,
    queue: VecDeque<(OpId, LockMode)>,
}

impl LockState {
    fn compatible(&self, mode: LockMode) -> bool {
        match mode {
            LockMode::Write => self.holders.is_empty(),
            LockMode::Read => self.holders.iter().all(|(_, m)| *m == LockMode::Read),
        }
    }
}

/// The lock manager: each object with live lock state maps to its holders
/// and its FIFO wait queue.
#[derive(Debug, Default)]
pub struct LockManager {
    objects: DetMap<ObjectId, LockState>,
    /// Emptied lock states, kept with their buffers' capacity for the next
    /// object to be locked.
    spare: Vec<LockState>,
}

/// Hashes the live lock table alone, in its insertion order (see
/// `fingerprint::hash_in_order`): the spare pool is an allocation cache.
impl Hash for LockManager {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_in_order(self.objects.len(), self.objects.iter(), state);
    }
}

impl LockManager {
    /// Creates an empty lock manager.
    pub fn new() -> Self {
        LockManager::default()
    }

    /// Requests a lock. Returns `true` if granted immediately; otherwise the
    /// request is queued FIFO and will be granted by a later
    /// [`release`](Self::release).
    ///
    /// A read request is only granted immediately when nothing is queued
    /// ahead of it, so writers are never starved by a stream of readers.
    pub fn acquire(&mut self, op: OpId, obj: ObjectId, mode: LockMode) -> bool {
        let spare = &mut self.spare;
        let state = self
            .objects
            .entry(obj)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        debug_assert!(
            !state.holders.iter().any(|(o, _)| *o == op),
            "operation already holds this lock"
        );
        if state.queue.is_empty() && state.compatible(mode) {
            state.holders.push((op, mode));
            true
        } else {
            state.queue.push_back((op, mode));
            false
        }
    }

    /// Releases `op`'s lock (or queued request) on `obj`, returning the
    /// operations whose queued requests are granted as a result, in FIFO
    /// order.
    pub fn release(&mut self, op: OpId, obj: ObjectId) -> Vec<OpId> {
        let mut granted = Vec::new();
        self.release_into(op, obj, &mut granted);
        granted
    }

    /// [`LockManager::release`], appending the granted operations to
    /// `granted` instead of returning a new `Vec`.
    pub fn release_into(&mut self, op: OpId, obj: ObjectId, granted: &mut Vec<OpId>) {
        let Some(state) = self.objects.get_mut(&obj) else {
            return;
        };
        state.holders.retain(|(o, _)| *o != op);
        state.queue.retain(|(o, _)| *o != op);

        while let Some(&(next_op, next_mode)) = state.queue.front() {
            if state.compatible(next_mode) {
                state.queue.pop_front();
                state.holders.push((next_op, next_mode));
                granted.push(next_op);
                if next_mode == LockMode::Write {
                    break;
                }
            } else {
                break;
            }
        }
        if state.holders.is_empty() && state.queue.is_empty() {
            if let Some(emptied) = self.objects.remove(&obj) {
                self.spare.push(emptied);
            }
        }
    }

    /// Whether `op` currently holds a lock on `obj`.
    pub fn holds(&self, op: OpId, obj: ObjectId) -> bool {
        self.objects
            .get(&obj)
            .is_some_and(|s| s.holders.iter().any(|(o, _)| *o == op))
    }

    /// Number of operations waiting on `obj`.
    pub fn queue_len(&self, obj: ObjectId) -> usize {
        self.objects.get(&obj).map_or(0, |s| s.queue.len())
    }

    /// Number of objects with live lock state (tests, invariants).
    pub fn locked_objects(&self) -> usize {
        self.objects.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fnv;

    const OBJ: ObjectId = ObjectId(0);

    #[test]
    fn readers_share_writers_exclude() {
        let mut lm = LockManager::new();
        assert!(lm.acquire(OpId(1), OBJ, LockMode::Read));
        assert!(lm.acquire(OpId(2), OBJ, LockMode::Read));
        assert!(!lm.acquire(OpId(3), OBJ, LockMode::Write));
        assert_eq!(lm.queue_len(OBJ), 1);
        assert!(lm.release(OpId(1), OBJ).is_empty());
        // Writer granted once the last reader leaves.
        assert_eq!(lm.release(OpId(2), OBJ), vec![OpId(3)]);
        assert!(lm.holds(OpId(3), OBJ));
    }

    #[test]
    fn fifo_prevents_reader_starvation() {
        let mut lm = LockManager::new();
        assert!(lm.acquire(OpId(1), OBJ, LockMode::Read));
        assert!(!lm.acquire(OpId(2), OBJ, LockMode::Write));
        // A new reader must queue behind the waiting writer.
        assert!(!lm.acquire(OpId(3), OBJ, LockMode::Read));
        let granted = lm.release(OpId(1), OBJ);
        assert_eq!(granted, vec![OpId(2)]);
        let granted = lm.release(OpId(2), OBJ);
        assert_eq!(granted, vec![OpId(3)]);
    }

    #[test]
    fn consecutive_readers_granted_together() {
        let mut lm = LockManager::new();
        assert!(lm.acquire(OpId(1), OBJ, LockMode::Write));
        assert!(!lm.acquire(OpId(2), OBJ, LockMode::Read));
        assert!(!lm.acquire(OpId(3), OBJ, LockMode::Read));
        assert!(!lm.acquire(OpId(4), OBJ, LockMode::Write));
        let granted = lm.release(OpId(1), OBJ);
        assert_eq!(granted, vec![OpId(2), OpId(3)]);
        // The writer waits for both readers.
        assert!(lm.release(OpId(2), OBJ).is_empty());
        assert_eq!(lm.release(OpId(3), OBJ), vec![OpId(4)]);
    }

    #[test]
    fn release_of_queued_request_cancels_it() {
        let mut lm = LockManager::new();
        assert!(lm.acquire(OpId(1), OBJ, LockMode::Write));
        assert!(!lm.acquire(OpId(2), OBJ, LockMode::Write));
        // Op 2 gives up while queued.
        lm.release(OpId(2), OBJ);
        assert_eq!(lm.queue_len(OBJ), 0);
        assert!(lm.release(OpId(1), OBJ).is_empty());
    }

    #[test]
    fn objects_are_independent() {
        let mut lm = LockManager::new();
        assert!(lm.acquire(OpId(1), ObjectId(0), LockMode::Write));
        assert!(lm.acquire(OpId(2), ObjectId(1), LockMode::Write));
    }

    #[test]
    fn recycled_lock_states_do_not_show_in_the_fingerprint() {
        let mut lm = LockManager::new();
        let empty = Fnv::lanes(&lm);
        assert!(lm.acquire(OpId(1), OBJ, LockMode::Write));
        assert!(!lm.acquire(OpId(2), OBJ, LockMode::Read));
        let held = Fnv::lanes(&lm);
        assert_ne!(held, empty);
        assert_eq!(lm.release(OpId(1), OBJ), vec![OpId(2)]);
        assert!(lm.release(OpId(2), OBJ).is_empty());
        assert_eq!(lm.spare.len(), 1, "the emptied state went to the pool");
        assert_eq!(Fnv::lanes(&lm), empty);
        // The recycled state (its buffers keep their capacity) hashes as a
        // fresh one did.
        assert!(lm.acquire(OpId(1), OBJ, LockMode::Write));
        assert!(!lm.acquire(OpId(2), OBJ, LockMode::Read));
        assert!(lm.spare.is_empty());
        assert_eq!(Fnv::lanes(&lm), held);
    }

    #[test]
    fn table_shrinks_when_idle() {
        let mut lm = LockManager::new();
        lm.acquire(OpId(1), OBJ, LockMode::Write);
        lm.release(OpId(1), OBJ);
        assert_eq!(lm.locked_objects(), 0);
    }
}
