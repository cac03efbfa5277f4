//! The lock-free event log and the session that owns it.
//!
//! Recording must not perturb the concurrency it observes, so the log is a
//! preallocated slot array with a single atomic cursor: a recording thread
//! claims a slot with one `fetch_add`, writes the event, and flips the
//! slot's ready flag. No locks, no allocation, no syscalls on the hot path.
//!
//! Recording is scoped by a [`Session`]: events land in the log only while
//! a session is live, and [`Session::finish`] drains them into a
//! [`SessionLog`] for [`analyze`](crate::analyze::analyze). Sessions are
//! serialized process-wide by a static gate, and only threads that belong
//! to the live session record: the thread that started it, and every
//! thread a member forks through a traced [`scope`](fn@crate::scope). A
//! concurrently running test that uses traced primitives without a session
//! therefore cannot interleave its events with the session's.

use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::event::{EventKind, RaceEvent, SessionLog, ThreadId};

/// Log capacity in events. A full log drops further events (counted, not
/// silently) rather than blocking or reallocating.
const CAPACITY: usize = 1 << 20;

struct Slot {
    ready: AtomicBool,
    ev: UnsafeCell<MaybeUninit<RaceEvent>>,
}

// Safety: a slot's `ev` is written exactly once by the thread that claimed
// it via the cursor, and read only by the drain after `ready` is observed
// true with Acquire ordering (paired with the writer's Release store).
unsafe impl Sync for Slot {}

/// The process-wide event log.
struct EventLog {
    slots: Box<[Slot]>,
    cursor: AtomicUsize,
    dropped: AtomicUsize,
}

impl EventLog {
    fn new() -> Self {
        let mut slots = Vec::with_capacity(CAPACITY);
        for _ in 0..CAPACITY {
            slots.push(Slot {
                ready: AtomicBool::new(false),
                ev: UnsafeCell::new(MaybeUninit::uninit()),
            });
        }
        EventLog {
            slots: slots.into_boxed_slice(),
            cursor: AtomicUsize::new(0),
            dropped: AtomicUsize::new(0),
        }
    }

    fn push(&self, ev: RaceEvent) {
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        if idx >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot = &self.slots[idx];
        // Safety: `idx` was claimed exclusively by this fetch_add, so no
        // other thread writes this slot; the drain reads it only after the
        // Release store below.
        unsafe { (*slot.ev.get()).write(ev) };
        slot.ready.store(true, Ordering::Release);
    }

    /// Drain all recorded events and reset the log for the next session.
    /// Caller must guarantee all recording threads have quiesced (the
    /// session discipline: every spawned thread joined before `finish`).
    fn drain(&self) -> SessionLog {
        let claimed = self.cursor.load(Ordering::Relaxed);
        let filled = claimed.min(self.slots.len());
        let mut events = Vec::with_capacity(filled);
        for slot in &self.slots[..filled] {
            // Under the quiescence contract every claimed slot is ready;
            // tolerate a straggler (drop it) rather than spin.
            if slot.ready.swap(false, Ordering::Acquire) {
                // Safety: ready was true, so the claiming thread's write
                // (Release) happens-before this read.
                events.push(unsafe { (*slot.ev.get()).assume_init() });
            }
        }
        let dropped = self.dropped.swap(0, Ordering::Relaxed) + (filled - events.len());
        self.cursor.store(0, Ordering::Relaxed);
        SessionLog { events, dropped }
    }
}

static LOG: OnceLock<EventLog> = OnceLock::new();
/// Epoch of the live session, `0` when none is live.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// Epochs handed out so far; each session gets a fresh nonzero one.
static EPOCHS: AtomicU64 = AtomicU64::new(0);
static GATE: Mutex<()> = Mutex::new(());
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<Option<u32>> = const { Cell::new(None) };
    /// Epoch of the session this thread belongs to (`0`: none yet).
    static MEMBER: Cell<u64> = const { Cell::new(0) };
}

/// The thread id of the current thread, assigning a fresh one on first use.
pub fn current_thread() -> ThreadId {
    TID.with(|t| {
        if let Some(id) = t.get() {
            ThreadId(id)
        } else {
            let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            ThreadId(id)
        }
    })
}

/// The identity of a thread about to be spawned: its pre-allocated id, so
/// the parent can record the `Fork` edge before the child runs, and the
/// session the parent belongs to, which the child joins.
#[derive(Debug, Clone, Copy)]
pub struct Child {
    /// The child's thread id.
    pub id: ThreadId,
    epoch: u64,
}

/// Pre-allocate the identity of a thread the current thread is about to
/// spawn.
pub fn fresh_child() -> Child {
    Child {
        id: ThreadId(NEXT_THREAD.fetch_add(1, Ordering::Relaxed)),
        epoch: MEMBER.with(Cell::get),
    }
}

/// Adopt a pre-allocated identity as the current thread's. Called first
/// thing inside a traced spawn's closure.
pub fn adopt(child: Child) {
    TID.with(|t| t.set(Some(child.id.0)));
    MEMBER.with(|m| m.set(child.epoch));
}

/// Mint a process-unique id for a lock, cell, channel, or message.
pub fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Record one event on behalf of the current thread. A no-op when no
/// session is live or the current thread does not belong to it, so traced
/// primitives are always safe to use.
pub fn record(kind: EventKind) {
    let live = LIVE.load(Ordering::Relaxed);
    if live == 0 || MEMBER.with(Cell::get) != live {
        return;
    }
    let log = match LOG.get() {
        Some(log) => log,
        None => return,
    };
    log.push(RaceEvent {
        thread: current_thread(),
        kind,
    });
}

/// A live recording session. While a session exists, traced primitives
/// append to the event log; [`finish`](Session::finish) stops recording and
/// hands back the drained [`SessionLog`].
///
/// Discipline: the thread that starts the session must join every thread it
/// (transitively) spawned before calling `finish` — the drain assumes all
/// recorders have quiesced. Traced scopes enforce this structurally.
///
/// Sessions are serialized process-wide: starting one blocks until any
/// other session (e.g. in a concurrently running test) finishes. Only the
/// starting thread and the threads it transitively forks through traced
/// scopes record into it.
#[derive(Debug)]
pub struct Session {
    _gate: MutexGuard<'static, ()>,
    done: bool,
}

impl Session {
    /// Start recording on the current thread. Blocks until any other live
    /// session finishes.
    pub fn start() -> Session {
        let gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
        LOG.get_or_init(EventLog::new);
        let epoch = EPOCHS.fetch_add(1, Ordering::Relaxed) + 1;
        MEMBER.with(|m| m.set(epoch));
        LIVE.store(epoch, Ordering::SeqCst);
        Session {
            _gate: gate,
            done: false,
        }
    }

    /// Stop recording and drain the log.
    pub fn finish(mut self) -> SessionLog {
        self.done = true;
        LIVE.store(0, Ordering::SeqCst);
        LOG.get().map(EventLog::drain).unwrap_or_default()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if !self.done {
            // Abandoned (e.g. a test panicked): disable and clear the log
            // so the next session starts clean.
            LIVE.store(0, Ordering::SeqCst);
            if let Some(log) = LOG.get() {
                let _ = log.drain();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CellId, LockId};

    #[test]
    fn recording_outside_a_session_is_a_noop() {
        record(EventKind::Read { cell: CellId(1) });
        let session = Session::start();
        let log = session.finish();
        assert!(log.events.is_empty());
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn session_drains_in_claim_order() {
        let session = Session::start();
        record(EventKind::Acquire { lock: LockId(9) });
        record(EventKind::Write { cell: CellId(4) });
        record(EventKind::Release { lock: LockId(9) });
        let log = session.finish();
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.dropped, 0);
        let tid = log.events[0].thread;
        assert!(log.events.iter().all(|e| e.thread == tid));
        assert_eq!(log.events[1].kind, EventKind::Write { cell: CellId(4) });
    }

    #[test]
    fn threads_get_distinct_ids_and_fork_preallocation_works() {
        let session = Session::start();
        let parent = current_thread();
        let child = fresh_child();
        assert_ne!(parent, child.id);
        record(EventKind::Fork { child: child.id });
        let handle = std::thread::spawn(move || {
            adopt(child);
            record(EventKind::Write { cell: CellId(7) });
        });
        handle.join().unwrap();
        record(EventKind::Join { child: child.id });
        let log = session.finish();
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.events[0].thread, parent);
        assert_eq!(log.events[1].thread, child.id);
        assert_eq!(log.events[2].thread, parent);
    }

    #[test]
    fn threads_outside_the_session_do_not_record_into_it() {
        let session = Session::start();
        record(EventKind::Write { cell: CellId(1) });
        // Not forked by a member: like a concurrently running test's thread.
        std::thread::spawn(|| record(EventKind::Write { cell: CellId(2) }))
            .join()
            .unwrap();
        let log = session.finish();
        let kinds: Vec<_> = log.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EventKind::Write { cell: CellId(1) }]);
    }
}
