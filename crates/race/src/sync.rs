//! The traced lock wrapper: a drop-in replacement for `std::sync::Mutex`
//! that records acquire/release events and shadows the protected value
//! with one [`CellId`](crate::event::CellId) whose accesses (guard deref /
//! deref-mut) are recorded too.
//!
//! With the `race-audit` feature off every method is a plain passthrough —
//! the wrapper holds nothing but the std primitive and the recording calls
//! do not exist in the compiled code.
//!
//! Poisoning: a traced lock never surfaces `PoisonError` — a poisoned lock
//! yields its inner guard (parking_lot semantics). Panic propagation is the
//! join layer's job ([`scope`](crate::scope)), not the lock's.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[cfg(feature = "race-audit")]
use crate::event::{CellId, EventKind, LockId};
#[cfg(feature = "race-audit")]
use crate::log::{fresh_id, record};

/// A mutex whose lock/unlock and guarded accesses are recorded when the
/// `race-audit` feature is on; a zero-cost `std::sync::Mutex` otherwise.
pub struct TracedMutex<T> {
    inner: Mutex<T>,
    #[cfg(feature = "race-audit")]
    lock: LockId,
    #[cfg(feature = "race-audit")]
    cell: CellId,
}

impl<T> TracedMutex<T> {
    /// Create a traced mutex protecting `value`.
    pub fn new(value: T) -> Self {
        TracedMutex {
            inner: Mutex::new(value),
            #[cfg(feature = "race-audit")]
            lock: LockId(fresh_id()),
            #[cfg(feature = "race-audit")]
            cell: CellId(fresh_id()),
        }
    }

    /// Acquire the lock, blocking. Never returns a poison error: a
    /// poisoned mutex yields its guard.
    pub fn lock(&self) -> TracedMutexGuard<'_, T> {
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        #[cfg(feature = "race-audit")]
        record(EventKind::Acquire { lock: self.lock });
        TracedMutexGuard {
            guard,
            #[cfg(feature = "race-audit")]
            lock: self.lock,
            #[cfg(feature = "race-audit")]
            cell: self.cell,
        }
    }

    /// Mutable access without locking (requires exclusive ownership, so no
    /// event is recorded).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consume the mutex and return the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for TracedMutex<T> {
    fn default() -> Self {
        TracedMutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for TracedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TracedMutex")
            .field("inner", &self.inner)
            .finish()
    }
}

/// RAII guard for a [`TracedMutex`]. Dereferencing records a shadow read,
/// mutably dereferencing a shadow write; dropping records the release.
pub struct TracedMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    #[cfg(feature = "race-audit")]
    lock: LockId,
    #[cfg(feature = "race-audit")]
    cell: CellId,
}

impl<T> Deref for TracedMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        #[cfg(feature = "race-audit")]
        record(EventKind::Read { cell: self.cell });
        &self.guard
    }
}

impl<T> DerefMut for TracedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        #[cfg(feature = "race-audit")]
        record(EventKind::Write { cell: self.cell });
        &mut self.guard
    }
}

impl<T> Drop for TracedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(feature = "race-audit")]
        record(EventKind::Release { lock: self.lock });
    }
}

impl<T: fmt::Debug> fmt::Debug for TracedMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.guard, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = TracedMutex::new(10);
        *m.lock() += 5;
        assert_eq!(*m.lock(), 15);
        assert_eq!(m.into_inner(), 15);
    }

    #[cfg(feature = "race-audit")]
    #[test]
    fn mutex_records_acquire_access_release() {
        use crate::event::EventKind;
        use crate::log::Session;

        let m = TracedMutex::new(0u32);
        let session = Session::start();
        *m.lock() = 1;
        let log = session.finish();
        let kinds: Vec<_> = log.events.iter().map(|e| e.kind).collect();
        assert!(matches!(kinds[0], EventKind::Acquire { .. }));
        assert!(matches!(kinds[1], EventKind::Write { .. }));
        assert!(matches!(kinds[2], EventKind::Release { .. }));
    }
}
