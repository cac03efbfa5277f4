//! The event model: everything the detector knows about a run is a totally
//! ordered sequence of [`RaceEvent`]s, one per synchronization action or
//! shadowed memory access. The order is the order in which threads claimed
//! slots in the lock-free log — an actual interleaving of the run, so it is
//! consistent with every thread's program order.

use std::fmt;

/// Dense-ish identifier of an OS thread that recorded events. Assigned from
/// a global counter the first time a thread records (or when a traced
/// scope spawns it), never reused within a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

/// Identifier of a traced lock (a [`TracedMutex`](crate::TracedMutex) or a
/// raw lock id from the shadow seam).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u64);

/// Identifier of a traced channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChanId(pub u64);

/// Identifier of a shadow word: one unit of shared state whose accesses are
/// recorded. Every traced lock shadows its protected value with one cell;
/// [`ShadowCell`](crate::shadow::ShadowCell) mints free-standing ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub u64);

/// One recorded action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The recording thread spawned `child` (a traced-scope spawn). Orders
    /// everything the parent did so far before everything the child does.
    Fork {
        /// The spawned thread.
        child: ThreadId,
    },
    /// The recording thread joined `child`. Orders everything the child did
    /// before everything the joiner does next.
    Join {
        /// The joined thread.
        child: ThreadId,
    },
    /// The recording thread acquired `lock`.
    Acquire {
        /// The lock acquired.
        lock: LockId,
    },
    /// The recording thread released `lock`.
    Release {
        /// The lock released.
        lock: LockId,
    },
    /// The recording thread sent message `msg` on `chan`.
    Send {
        /// The channel.
        chan: ChanId,
        /// Process-unique message id, matched by the receive.
        msg: u64,
    },
    /// The recording thread received message `msg` from `chan`. Orders
    /// everything the sender did before the send before everything the
    /// receiver does next.
    Recv {
        /// The channel.
        chan: ChanId,
        /// The received message's id.
        msg: u64,
    },
    /// The recording thread read shadow word `cell`.
    Read {
        /// The cell read.
        cell: CellId,
    },
    /// The recording thread wrote shadow word `cell`.
    Write {
        /// The cell written.
        cell: CellId,
    },
}

/// One log entry: who did what. The event's position in the drained log is
/// its sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceEvent {
    /// The recording thread.
    pub thread: ThreadId,
    /// The action.
    pub kind: EventKind,
}

impl fmt::Display for RaceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{} ", self.thread.0)?;
        match self.kind {
            EventKind::Fork { child } => write!(f, "fork t{}", child.0),
            EventKind::Join { child } => write!(f, "join t{}", child.0),
            EventKind::Acquire { lock } => write!(f, "acquire L{}", lock.0),
            EventKind::Release { lock } => write!(f, "release L{}", lock.0),
            EventKind::Send { chan, msg } => write!(f, "send m{} on ch{}", msg, chan.0),
            EventKind::Recv { chan, msg } => write!(f, "recv m{} from ch{}", msg, chan.0),
            EventKind::Read { cell } => write!(f, "read C{}", cell.0),
            EventKind::Write { cell } => write!(f, "write C{}", cell.0),
        }
    }
}

/// The drained outcome of one recording session: every event in claim
/// order, plus how many were dropped because the log filled up. A log with
/// drops is analyzable but its verdicts are incomplete — callers asserting
/// "no findings" should also assert `dropped == 0`.
#[derive(Debug, Clone, Default)]
pub struct SessionLog {
    /// Recorded events, in the total order the log assigned.
    pub events: Vec<RaceEvent>,
    /// Events discarded after the log reached capacity.
    pub dropped: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_compactly() {
        let ev = RaceEvent {
            thread: ThreadId(3),
            kind: EventKind::Acquire { lock: LockId(7) },
        };
        assert_eq!(ev.to_string(), "t3 acquire L7");
        let ev = RaceEvent {
            thread: ThreadId(0),
            kind: EventKind::Send {
                chan: ChanId(1),
                msg: 42,
            },
        };
        assert_eq!(ev.to_string(), "t0 send m42 on ch1");
    }
}
