//! Traced scoped threads: a wrapper over the workspace's crossbeam
//! stand-in that records fork/join happens-before edges.
//!
//! [`Scope::spawn`] allocates the child's thread id *in the parent* and
//! records the `Fork` event before the child can run, so the edge is always
//! well-ordered in the log; the child joins the parent's recording session.
//! [`ScopedJoinHandle::join`] records the `Join` edge after the child has
//! fully stopped.
//!
//! Caveat (documented discipline, enforced by the clean-run smoke suite):
//! a spawned thread that is never explicitly joined is still joined
//! implicitly when the scope ends, but *no `Join` event is recorded* — its
//! writes will look unordered to the analyzer. Join every handle you spawn,
//! or synchronize through a traced channel.

use std::any::Any;
use std::fmt;

#[cfg(feature = "race-audit")]
use crate::event::{EventKind, ThreadId};
#[cfg(feature = "race-audit")]
use crate::log::{adopt, fresh_child, record};

/// Result of a scoped thread or scope: `Err` carries the panic payload.
pub type ScopeResult<T> = std::result::Result<T, Box<dyn Any + Send + 'static>>;

/// A traced scope handle; see [`scope`].
#[derive(Debug, Clone, Copy)]
pub struct Scope<'scope, 'env: 'scope> {
    inner: crossbeam::thread::Scope<'scope, 'env>,
}

/// Handle to a traced scoped thread.
pub struct ScopedJoinHandle<'scope, T> {
    inner: crossbeam::thread::ScopedJoinHandle<'scope, T>,
    #[cfg(feature = "race-audit")]
    child: ThreadId,
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Wait for the thread to finish, recording the join edge. Returns
    /// `Err` with the panic payload if the thread panicked.
    pub fn join(self) -> ScopeResult<T> {
        let result = self.inner.join();
        #[cfg(feature = "race-audit")]
        record(EventKind::Join { child: self.child });
        result
    }
}

impl<T> fmt::Debug for ScopedJoinHandle<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScopedJoinHandle").finish_non_exhaustive()
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a traced scoped thread. The `Fork` edge is recorded before the
    /// child can run; the closure receives the scope again so it can spawn
    /// siblings.
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        #[cfg(feature = "race-audit")]
        let child = {
            let child = fresh_child();
            record(EventKind::Fork { child: child.id });
            child
        };
        let inner = self.inner.spawn(move |cs| {
            #[cfg(feature = "race-audit")]
            adopt(child);
            f(&Scope { inner: *cs })
        });
        ScopedJoinHandle {
            inner,
            #[cfg(feature = "race-audit")]
            child: child.id,
        }
    }
}

/// Create a traced scope for spawning borrowing threads. All spawned
/// threads are joined when the closure returns; a panic in the closure (or
/// an unjoined spawned thread) is reported as `Err`.
pub fn scope<'env, F, R>(f: F) -> ScopeResult<R>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    crossbeam::thread::scope(|s| f(&Scope { inner: *s }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_scope_spawns_and_joins() {
        let data = [1u64, 2, 3, 4];
        let total = scope(|s| {
            let handles: Vec<_> = data
                .chunks(2)
                .map(|chunk| s.spawn(move |_| chunk.iter().sum::<u64>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        })
        .unwrap();
        assert_eq!(total, 10);
    }

    #[test]
    fn panic_payload_surfaces_through_join() {
        let r = scope(|s| {
            let h = s.spawn(|_| panic!("boom"));
            h.join().is_err()
        });
        assert!(r.unwrap());
    }

    #[cfg(feature = "race-audit")]
    #[test]
    fn fork_and_join_edges_bracket_child_events() {
        use crate::event::{CellId, EventKind};
        use crate::log::{record, Session};

        let session = Session::start();
        scope(|s| {
            let h = s.spawn(|_| record(EventKind::Write { cell: CellId(99) }));
            h.join().unwrap();
        })
        .unwrap();
        let log = session.finish();
        let kinds: Vec<_> = log.events.iter().map(|e| e.kind).collect();
        assert!(matches!(kinds[0], EventKind::Fork { .. }));
        assert!(matches!(kinds[1], EventKind::Write { .. }));
        assert!(matches!(kinds[2], EventKind::Join { .. }));
        assert_eq!(log.events[0].thread, log.events[2].thread);
        match (kinds[0], kinds[2]) {
            (EventKind::Fork { child: f }, EventKind::Join { child: j }) => {
                assert_eq!(f, j);
                assert_eq!(log.events[1].thread, f);
            }
            _ => unreachable!(),
        }
    }
}
