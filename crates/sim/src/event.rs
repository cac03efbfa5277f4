//! The discrete-event core: a deterministic time-ordered event queue.
//!
//! Events at equal timestamps are ordered by insertion sequence number, so a
//! simulation is a pure function of its configuration and RNG seed.
//!
//! The queue is the simulator's *nondeterminism point*: the default
//! [`crate::SeededScheduler`] always takes the earliest [`EventKey`]
//! (reproducing the classic seeded run), while a model checker may select
//! **any** pending key — every pending event is considered enabled under the
//! explorer's time abstraction — which is what
//! [`EventQueue::keys`]/[`EventQueue::take`] exist for.
//!
//! # Implementation: a calendar queue over a slab
//!
//! The hot path (`schedule` → `next_key` → `take`-the-min, millions of
//! times per run) is served by a *calendar queue*: simulated time is cut
//! into fixed-width days (`2^day_shift` µs each), one bucket per day across
//! a window of `buckets.len()` days that slides forward each time the
//! global minimum is taken. An event lands in the bucket of its day when
//! its day falls inside the window, and in a sorted overflow tier when it
//! is further out; as the window slides, the overflow entries it reaches
//! move into buckets from the tier's front. Each bucket keeps its minimum
//! inline and the rest in an ordered spill deque, so taking a day's
//! minimum and promoting the next one are both O(1), whatever the day
//! holds. The `Event` values themselves live in a free-list slab, so
//! scheduling is an O(1) push with no per-event allocation once the slab
//! is warm.
//!
//! **Sizing.** The day width follows the spacing of the *earliest* pending
//! events (Brown's estimate, outliers discarded), not the span of the whole
//! set, and the bucket count follows the pending count. Near traffic then
//! spreads about one event per day while a far tail — a fault schedule
//! seconds out — waits in the overflow tier. The queue re-sizes when an
//! insert finds a bucket crowded (narrower days) or when most schedules
//! land past the window (wider days), each under hysteresis: at most once
//! per pending set's worth of schedules, so a re-size amortizes to O(1)
//! per event.
//!
//! None of this is visible through the API: keys are handed out and honored
//! in exact `(at, seq)` order, `keys`/`iter` enumerate in that global
//! order, and a taken key stays gone. `crates/sim/tests/replay.rs` pins the
//! equivalence against the reference [`BTreeQueue`] over randomized
//! schedule/take interleavings.

use crate::config::NetworkConfig;
use crate::message::{ClientId, Message, OpId};
use crate::network::Partition;
use crate::time::SimTime;
use arbitree_quorum::SiteId;
use std::cell::Cell;
#[cfg(any(test, feature = "reference-queue"))]
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Events driving the simulation. Their `Hash` is their content: it
/// leaves a delivery's send time out, and an event's own time is not part
/// of it.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Event {
    /// A message arrives at its destination.
    Deliver(Message),
    /// A site fail-stops, storage intact ([`crate::CrashMode::Transient`]).
    Crash(SiteId),
    /// A site fail-stops *and loses its storage*
    /// ([`crate::CrashMode::Amnesia`]): on recovery it returns empty and
    /// must resynchronize before serving quorum traffic again.
    AmnesiaCrash(SiteId),
    /// A crashed site comes back. How it comes back depends on how it went
    /// down: a transient crash resumes serving with its durable state
    /// intact, while an amnesia crash re-enters as
    /// [`crate::SiteHealth::Syncing`] and runs anti-entropy before serving.
    Recover(SiteId),
    /// The rejoin manager's retry timer for a syncing site fires: resend
    /// outstanding range probes (or restart the rejoin if the sync source
    /// went away). Tagged with the rejoin `epoch` so timers armed before
    /// the last progress are ignored as stale.
    SyncRetry {
        /// The syncing site.
        site: SiteId,
        /// Retry attempt counter (drives the backoff policy).
        attempt: u32,
        /// Rejoin epoch the timer was armed in (globally monotonic; a
        /// mismatch means progress happened since and the timer is stale).
        epoch: u64,
    },
    /// A partition is installed (or cleared, with [`Partition::none`])
    /// mid-run — the schedulable form of
    /// [`crate::Simulation::set_partition`].
    SetPartition(Partition),
    /// A temporary network-behaviour override is installed (`Some`) or
    /// cleared (`None`): drop bursts and latency spikes are time windows
    /// bounded by a pair of these events.
    NetOverride(Option<NetworkConfig>),
    /// A client wakes up to issue its next operation.
    ClientTick(ClientId),
    /// A scheduled live reconfiguration begins (the simulation holds the
    /// queue of target protocols; this event just pops the next one).
    Reconfigure,
    /// An operation-phase timeout fires at its coordinator.
    OpTimeout {
        /// The client coordinating the operation.
        client: ClientId,
        /// The operation.
        op: OpId,
        /// Phase-attempt counter the timeout was armed for (stale timeouts
        /// with an old counter are ignored).
        attempt: u64,
    },
}

/// Identity of a pending event: its scheduled firing time plus the insertion
/// sequence number that breaks ties FIFO.
///
/// Keys are totally ordered (`at` first, then `seq`) and stable: a pending
/// event keeps its key until it is taken, and re-executing the same prefix
/// of choices reproduces the same keys — which is what lets a stateless
/// model checker name "the same event" across re-executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Scheduled firing time.
    pub at: SimTime,
    /// Insertion sequence number (unique per queue).
    pub seq: u64,
}

/// Initial width of one calendar day in log2 microseconds: 64 µs per
/// bucket, a shade under the simulator's default one-way network latency,
/// so a delivery wave spreads over a handful of buckets instead of piling
/// into one. Each re-size re-derives the width from the spacing of the
/// earliest pending events (see [`EventQueue::near_shift`]).
const INITIAL_DAY_SHIFT: u32 = 6;
/// Bucket-count floor, and the initial count (window span = `64 × 64 µs
/// ≈ 4 ms`, which covers a default phase timeout).
const MIN_BUCKETS: usize = 64;
/// Bucket-count ceiling. A re-size sizes the array from the pending count
/// ([`BUCKETS_PER_EVENT`]), so this only binds past 4096 pending; a bucket
/// is one 24-byte slot, so even the ceiling costs under half a megabyte.
const MAX_BUCKETS: usize = 16_384;
/// Buckets per pending event at a re-size. The day width puts the near
/// traffic about one event per day, so four days per event make the
/// window reach well past it, and a schedule almost never lands beyond
/// the window's end unless it belongs to the far tail.
const BUCKETS_PER_EVENT: usize = 4;
/// Spill length at which a bucket counts as crowded: an insert that
/// brings a spill to this many entries spanning more than one timestamp
/// asks for a re-size (identical timestamps share a day under any width,
/// so a pure same-instant burst never does).
const CROWDED: usize = 4;
/// How many of the earliest pending events the width estimate samples
/// (Brown's calendar queue samples 25).
const WIDTH_SAMPLE: usize = 32;
/// [`Bucket::spill`] of a bucket with no spill.
const NO_SPILL: u32 = u32::MAX;

/// Which way a due re-size may move the day width: each trigger carries
/// evidence for one direction only.
#[derive(Debug, Clone, Copy)]
enum Resize {
    /// A bucket crowded: the days are too wide.
    Narrow,
    /// Most schedules landed past the window: the days are too narrow.
    Widen,
}

/// A pending entry as the calendar stores it: the key plus the slab slot
/// holding the event value. 24 bytes — what bucket scans and migrations
/// actually move, instead of the full `Event` (a `Message` is an order of
/// magnitude larger).
type Entry = (EventKey, u32);

/// One day of the calendar: its smallest entry, stored inline, and the
/// pool index of the deque holding the rest. 24 bytes, like an [`Entry`]
/// — the spill index sits in what would be the entry's padding. The
/// fields mean something only while the bucket's `occupied` bit is set;
/// an insert into an empty bucket overwrites all three.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// The day's smallest key.
    key: EventKey,
    /// Slab slot of the smallest key's event.
    slot: u32,
    /// Index into [`EventQueue::spills`] of a non-empty deque, or
    /// [`NO_SPILL`].
    spill: u32,
}

impl Bucket {
    /// Filler for unoccupied buckets.
    const EMPTY: Bucket = Bucket {
        key: EventKey {
            at: SimTime::from_micros(0),
            seq: 0,
        },
        slot: 0,
        spill: NO_SPILL,
    };

    fn entry(&self) -> Entry {
        (self.key, self.slot)
    }
}

/// Deterministic future-event queue.
///
/// Calendar-bucketed by firing day over a sliding window, with a sorted
/// overflow tier past it; event values live in a free-list slab (see the
/// module docs). The observable contract is exactly the reference
/// `BTreeQueue`'s (built with the `reference-queue` feature): earliest-first
/// order for the seeded path and arbitrary-key removal for the model
/// checker.
#[derive(Debug)]
pub struct EventQueue {
    /// Event storage; `None` slots are free and their indices sit in
    /// `free`. Entries in the buckets and `overflow` index into this.
    slab: Vec<Option<Event>>,
    /// Free-list of reusable slab slots.
    free: Vec<u32>,
    /// One bucket per day of the window. At the sizing policy's target
    /// occupancy most buckets hold zero or one entry, so the hot path —
    /// insert into an empty bucket, take a day's minimum — reads and
    /// writes exactly this one flat slot and never chases a pointer.
    buckets: Vec<Bucket>,
    /// Collision storage: every bucket entry *other* than the bucket's
    /// minimum, one deque per bucket with a collision, in ascending key
    /// order.
    /// Taking a day's minimum promotes the deque's head in O(1), and an
    /// insert is usually a push at the back (events arrive in roughly
    /// increasing time, and equal times in increasing `seq`). Deques are
    /// pooled: a bucket borrows one on its first collision and returns it
    /// when it empties, so the pool — and the memory collisions touch —
    /// tracks how many buckets collide, not how many buckets exist.
    spills: Vec<VecDeque<Entry>>,
    /// Pool indices of the empty deques in `spills`.
    free_spills: Vec<u32>,
    /// Occupancy bitmap: bit `i` set iff bucket `i` is non-empty. Lets the
    /// min-scan find the first occupied day with a find-first-set sweep
    /// instead of touching one slot per empty day.
    occupied: Vec<u64>,
    /// Entries whose day lies past the window's end, in ascending key
    /// order. The minimum is the front, sliding the window migrates a
    /// prefix with O(1) pops, and an insert is a push at the back unless
    /// it lands among the far tail already waiting here.
    overflow: VecDeque<Entry>,
    /// Day of the overflow tier's front (`u64::MAX` when empty), so
    /// sliding the window learns "nothing to migrate" without touching
    /// the tier.
    overflow_day: u64,
    /// `buckets.len() - 1`; the bucket count is a power of two.
    mask: u64,
    /// Current width of one day in log2 microseconds. Re-derived at each
    /// re-size from the spacing of the earliest pending events, so the
    /// near traffic holds about one event per bucket however far out the
    /// rest of the pending set reaches.
    day_shift: u32,
    /// First day covered by the window, which spans `buckets.len()` days.
    /// Every bucket day before it is empty, so it doubles as the min-scan
    /// cursor; taking the global minimum slides it forward to that day.
    window_start: u64,
    /// Number of pending events (slab occupancy).
    len: usize,
    /// Next insertion sequence number.
    next_seq: u64,
    /// `next_seq` at the last re-size.
    resized_at: u64,
    /// Hysteresis: no re-size until `next_seq` reaches this. Each re-size
    /// costs O(pending) and sets the mark a pending set's worth of
    /// schedules out, so re-sizing amortizes to O(1) per event.
    resize_after: u64,
    /// Schedules routed to the overflow tier since the last re-size.
    overflowed: u64,
    /// Set past the hysteresis mark when a bucket crowds or most
    /// schedules land past the window: the next take of the global
    /// minimum re-sizes, moving the day width only the way the trigger
    /// points.
    resize_due: Option<Resize>,
    /// Calendar re-layouts so far (the in-module tests bound them per
    /// event).
    #[cfg(test)]
    rebuilds: u64,
    /// Memoized earliest pending key. `Some` is always correct; `None`
    /// means "recompute". Interior-mutable so `next_key(&self)` can cache
    /// its scan — the scheduler seam reads the min through `&Simulation`.
    cached_min: Cell<Option<EventKey>>,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: Vec::new(),
            buckets: vec![Bucket::EMPTY; MIN_BUCKETS],
            spills: Vec::new(),
            free_spills: Vec::new(),
            occupied: vec![0; MIN_BUCKETS / 64],
            overflow: VecDeque::new(),
            overflow_day: u64::MAX,
            mask: (MIN_BUCKETS - 1) as u64,
            day_shift: INITIAL_DAY_SHIFT,
            window_start: 0,
            len: 0,
            next_seq: 0,
            resized_at: 0,
            resize_after: 0,
            overflowed: 0,
            resize_due: None,
            #[cfg(test)]
            rebuilds: 0,
            cached_min: Cell::new(None),
        }
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// The calendar day of a timestamp under the current day width.
    #[inline]
    fn day(&self, at: SimTime) -> u64 {
        at.as_micros() >> self.day_shift
    }

    /// First day *not* covered by the current window.
    #[inline]
    fn window_end(&self) -> u64 {
        self.window_start + self.buckets.len() as u64
    }

    /// Whether bucket `idx` holds any entry.
    #[inline]
    fn is_occupied(&self, idx: usize) -> bool {
        self.occupied[idx >> 6] >> (idx & 63) & 1 != 0
    }

    /// Adds `entry` to bucket `idx`, keeping the bucket's minimum inline
    /// and its spill in key order. The common case (empty bucket) is one
    /// flat write plus a bitmap bit; a same-day collision is usually a
    /// push at either end of the spill, and marks a re-size due once the
    /// spill reaches [`CROWDED`] entries spanning more than one timestamp.
    #[inline]
    fn bucket_insert(&mut self, idx: usize, entry: Entry) {
        let (w, b) = (idx >> 6, 1u64 << (idx & 63));
        let bucket = &mut self.buckets[idx];
        if self.occupied[w] & b == 0 {
            *bucket = Bucket {
                key: entry.0,
                slot: entry.1,
                spill: NO_SPILL,
            };
            self.occupied[w] |= b;
            return;
        }
        if bucket.spill == NO_SPILL {
            bucket.spill = self.free_spills.pop().unwrap_or_else(|| {
                self.spills.push(VecDeque::new());
                (self.spills.len() - 1) as u32
            });
        }
        let spill = &mut self.spills[bucket.spill as usize];
        if entry.0 < bucket.key {
            spill.push_front(bucket.entry());
            (bucket.key, bucket.slot) = entry;
        } else if spill.back().is_none_or(|&(k, _)| k < entry.0) {
            spill.push_back(entry);
        } else {
            spill.insert(spill.partition_point(|&(k, _)| k < entry.0), entry);
        }
        if spill.len() >= CROWDED
            && self.next_seq >= self.resize_after
            && spill.back().is_some_and(|&(k, _)| k.at != bucket.key.at)
        {
            self.resize_due = Some(Resize::Narrow);
        }
    }

    /// Parks `event` in the slab and returns its slot.
    #[inline]
    fn alloc(&mut self, event: Event) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = self.slab.len() as u32;
                self.slab.push(Some(event));
                slot
            }
        }
    }

    /// Releases `slot` back to the free list, returning its event.
    #[inline]
    fn release(&mut self, slot: u32) -> Event {
        // arbitree-lint: allow(D005) — slots are released only by the entry that allocated them
        let event = self.slab[slot as usize].take().expect("occupied slot");
        self.free.push(slot);
        event
    }

    /// Schedules `event` to fire at `at`.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = EventKey { at, seq };
        let slot = self.alloc(event);
        let day = self.day(at);
        // A day behind the window cannot happen under the simulator's
        // contract (every schedule targets `now` or later, and the window
        // starts at the day of a consumed minimum), but the structure
        // stays total rather than leaning on the caller: the window
        // re-bases onto the newcomer's day.
        if day < self.window_start {
            self.rebuild(self.day_shift, self.buckets.len(), at);
        }
        if day < self.window_end() {
            self.bucket_insert((day & self.mask) as usize, (key, slot));
        } else {
            if self.overflow.back().is_none_or(|&(k, _)| k < key) {
                self.overflow.push_back((key, slot));
            } else {
                let pos = self.overflow.partition_point(|&(k, _)| k < key);
                self.overflow.insert(pos, (key, slot));
            }
            self.overflow_day = self.overflow_day.min(day);
            // Most schedules landing past the window means the days are
            // too narrow for the traffic.
            self.overflowed += 1;
            if self.next_seq >= self.resize_after
                && 2 * self.overflowed > self.next_seq - self.resized_at
            {
                self.resize_due = Some(Resize::Widen);
            }
        }
        self.len += 1;
        // The memoized min stays correct unless the newcomer undercuts it.
        if let Some(m) = self.cached_min.get() {
            if key < m {
                self.cached_min.set(Some(key));
            }
        }
    }

    /// First occupied bucket index at or circularly after `start`, if any.
    ///
    /// Circular order from the window start's index visits each bucket
    /// exactly once, in increasing-day order of the days the window maps
    /// onto them — so the first set bit is the first non-empty day. (Wrap
    /// happens at the array boundary, which is also a word boundary, so
    /// within any one word higher bits are always later days.)
    #[inline]
    fn next_occupied(&self, start: usize) -> Option<usize> {
        let nwords = self.occupied.len();
        let mut w = start >> 6;
        let mut cur = self.occupied[w] & (!0u64 << (start & 63));
        for _ in 0..=nwords {
            if cur != 0 {
                return Some((w << 6) + cur.trailing_zeros() as usize);
            }
            w += 1;
            if w == nwords {
                w = 0;
            }
            cur = self.occupied[w];
        }
        None
    }

    /// The window's occupied bucket indices in day order.
    fn occupied_in_order(&self) -> impl Iterator<Item = usize> + '_ {
        (self.window_start..self.window_end())
            .map(|day| (day & self.mask) as usize)
            .filter(|&idx| self.is_occupied(idx))
    }

    /// The entries of bucket `idx` in key order.
    fn bucket_entries(&self, idx: usize) -> impl Iterator<Item = Entry> + '_ {
        let bucket = &self.buckets[idx];
        let spill = self.spills.get(bucket.spill as usize);
        std::iter::once(bucket.entry()).chain(spill.into_iter().flatten().copied())
    }

    /// Every pending entry in `(at, seq)` order: the buckets day by day,
    /// then the overflow tier.
    fn entries(&self) -> impl Iterator<Item = Entry> + '_ {
        self.occupied_in_order()
            .flat_map(|idx| self.bucket_entries(idx))
            .chain(self.overflow.iter().copied())
    }

    /// Moves the overflow entries the window now covers — a prefix of
    /// the tier, since the window starts at or before every pending day —
    /// into buckets.
    fn migrate(&mut self) {
        let end = self.window_end();
        self.overflow_day = u64::MAX;
        while let Some(&(key, slot)) = self.overflow.front() {
            let day = self.day(key.at);
            if day >= end {
                self.overflow_day = day;
                break;
            }
            self.overflow.pop_front();
            self.bucket_insert((day & self.mask) as usize, (key, slot));
        }
    }

    /// The day width for the current pending set, from the spacing of its
    /// earliest events.
    ///
    /// Brown's estimate ("Calendar Queues", CACM 1988): average the gaps
    /// between the earliest [`WIDTH_SAMPLE`] events, drop the gaps above
    /// twice that average, and average again — one far outlier cannot
    /// stretch the result. Gaps of zero are left out first, since an
    /// identical-timestamp burst shares a day under any width. The width
    /// is the largest power of two not above the estimate, so the near
    /// traffic lands about one event per day, and it may at most double
    /// per re-size: in a lull the earliest events can themselves be the
    /// far tail, and the estimate must not jump to its scale.
    fn near_shift(&self) -> u32 {
        let mut gaps = [0u64; WIDTH_SAMPLE];
        let mut n = 0;
        let mut prev = None;
        for (key, _) in self.entries().take(WIDTH_SAMPLE + 1) {
            let at = key.at.as_micros();
            if let Some(p) = prev.filter(|&p| at > p) {
                gaps[n] = at - p;
                n += 1;
            }
            prev = Some(at);
        }
        let mean = |limit: u64| {
            let kept = gaps[..n].iter().filter(|&&g| g <= limit);
            let (sum, count) = kept.fold((0, 0), |(s, c), &g| (s + g, c + 1));
            (count > 0).then(|| sum / count)
        };
        let Some(first) = mean(u64::MAX) else {
            return self.day_shift;
        };
        let gap = mean(2 * first).unwrap_or(first).max(1);
        (63 - gap.leading_zeros()).min(self.day_shift + 1)
    }

    /// Re-sizes the calendar onto the day of the just-consumed global
    /// minimum at `at`. Sound for the same reason sliding is — nothing
    /// pending lies behind the consumed minimum.
    ///
    /// The day width comes from [`EventQueue::near_shift`], but moves only
    /// the way `dir` points: a burst of identical timestamps crowds a
    /// bucket under any width, and must not talk the estimate into wider
    /// days. The bucket count follows the pending count
    /// ([`BUCKETS_PER_EVENT`] per event) once it leaves a factor-of-two
    /// band around the current count. If neither changes, the window just
    /// slides; either way the hysteresis mark moves a pending set's worth
    /// of schedules out.
    fn resize(&mut self, at: SimTime, dir: Resize) {
        let estimate = self.near_shift();
        let shift = match dir {
            Resize::Narrow => estimate.min(self.day_shift),
            Resize::Widen => estimate.max(self.day_shift),
        };
        let (current, target) = (self.buckets.len(), BUCKETS_PER_EVENT * self.len);
        let buckets = if (current / 2..=current * 2).contains(&target) {
            current
        } else {
            target.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS)
        };
        self.resize_due = None;
        self.overflowed = 0;
        self.resized_at = self.next_seq;
        self.resize_after = self.next_seq + self.len.max(MIN_BUCKETS) as u64;
        if shift == self.day_shift && buckets == current {
            self.window_start = self.day(at);
            self.migrate();
        } else {
            self.rebuild(shift, buckets, at);
        }
    }

    /// Lays the calendar out afresh — `2^shift` µs days, `buckets`
    /// buckets, the window starting at the day of `at`, which must not be
    /// later than any pending event. Every bucket entry moves to the
    /// overflow tier in key order (the buckets day by day, in front of the
    /// overflow, which already sits past them), and the new window pulls
    /// back what it covers.
    fn rebuild(&mut self, shift: u32, buckets: usize, at: SimTime) {
        let mut all = Vec::with_capacity(self.len);
        for day in self.window_start..self.window_end() {
            let idx = (day & self.mask) as usize;
            if self.is_occupied(idx) {
                let bucket = self.buckets[idx];
                all.push(bucket.entry());
                if bucket.spill != NO_SPILL {
                    all.extend(self.spills[bucket.spill as usize].drain(..));
                    self.free_spills.push(bucket.spill);
                }
            }
        }
        all.extend(self.overflow.drain(..));
        self.overflow = VecDeque::from(all);
        self.occupied.clear();
        self.occupied.resize(buckets / 64, 0);
        self.buckets.resize(buckets, Bucket::EMPTY);
        self.mask = (buckets - 1) as u64;
        self.day_shift = shift;
        self.window_start = self.day(at);
        #[cfg(test)]
        {
            self.rebuilds += 1;
        }
        self.migrate();
    }

    /// Pops the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let key = self.next_key()?;
        self.take(key)
    }

    /// Removes and returns the pending event with `key`, if present.
    #[inline]
    pub fn take(&mut self, key: EventKey) -> Option<(SimTime, Event)> {
        let day = self.day(key.at);
        let in_window = day >= self.window_start && day < self.window_end();
        let is_cached_min = self.cached_min.get() == Some(key);
        let slot = if in_window {
            let idx = (day & self.mask) as usize;
            if !self.is_occupied(idx) {
                return None;
            }
            let bucket = self.buckets[idx];
            if bucket.key == key {
                // Taking the bucket's minimum — the overwhelmingly common
                // case (the seeded scheduler always takes the global min,
                // which is always a bucket minimum). The ordered spill's
                // head, if any, is the bucket's next minimum.
                if bucket.spill == NO_SPILL {
                    self.occupied[idx >> 6] &= !(1u64 << (idx & 63));
                } else {
                    let spill = &mut self.spills[bucket.spill as usize];
                    let b = &mut self.buckets[idx];
                    if let Some((key, slot)) = spill.pop_front() {
                        (b.key, b.slot) = (key, slot);
                    }
                    if spill.is_empty() {
                        self.free_spills.push(b.spill);
                        b.spill = NO_SPILL;
                    }
                }
                bucket.slot
            } else {
                // Arbitrary-key removal (the model checker's path).
                let spill = self.spills.get_mut(bucket.spill as usize)?;
                let pos = spill.binary_search_by_key(&key, |&(k, _)| k).ok()?;
                let (_, slot) = spill.remove(pos)?;
                if spill.is_empty() {
                    self.free_spills.push(bucket.spill);
                    self.buckets[idx].spill = NO_SPILL;
                }
                slot
            }
        } else {
            let pos = self.overflow.binary_search_by_key(&key, |&(k, _)| k).ok()?;
            let (_, slot) = self.overflow.remove(pos)?;
            if pos == 0 {
                self.overflow_day = self
                    .overflow
                    .front()
                    .map_or(u64::MAX, |&(k, _)| self.day(k.at));
            }
            slot
        };
        self.len -= 1;
        // The taken key was the global min: every earlier day is empty and
        // simulated time is at least `key.at` from here on, so the window
        // can slide forward to its day — or re-size there, when one is due
        // — and pull the overflow entries it now covers into buckets.
        if is_cached_min {
            self.cached_min.set(None);
            if let Some(dir) = self.resize_due {
                self.resize(key.at, dir);
            } else {
                if day > self.window_start {
                    self.window_start = day;
                    if self.overflow_day < self.window_end() {
                        self.migrate();
                    }
                }
                // If the min's bucket is still occupied (a spill entry was
                // promoted), its minimum is the new global minimum — the
                // next `next_key` needs no scan at all.
                let idx = (day & self.mask) as usize;
                if in_window && self.is_occupied(idx) {
                    self.cached_min.set(Some(self.buckets[idx].key));
                }
            }
        }
        Some((key.at, self.release(slot)))
    }

    /// The earliest pending key (what the seeded scheduler selects): the
    /// first occupied day's minimum — one find-first-set plus one flat
    /// load — or, with every bucket empty, the overflow tier's front.
    #[inline]
    pub fn next_key(&self) -> Option<EventKey> {
        if let Some(k) = self.cached_min.get() {
            return Some(k);
        }
        let min = match self.next_occupied((self.window_start & self.mask) as usize) {
            Some(idx) => Some(self.buckets[idx].key),
            None => self.overflow.front().map(|&(k, _)| k),
        };
        self.cached_min.set(min);
        min
    }

    /// All pending keys in `(at, seq)` order.
    pub fn keys(&self) -> impl Iterator<Item = EventKey> + '_ {
        self.entries().map(|(k, _)| k)
    }

    /// All pending events in `(at, seq)` order.
    pub fn iter(&self) -> impl Iterator<Item = (EventKey, &Event)> + '_ {
        self.entries().map(|(k, slot)| {
            (
                k,
                // arbitree-lint: allow(D005) — every queued entry points at a live slab slot
                self.slab[slot as usize].as_ref().expect("occupied slot"),
            )
        })
    }

    /// The pending event with `key`, if present.
    pub fn get(&self, key: EventKey) -> Option<&Event> {
        let day = self.day(key.at);
        let slot = if day >= self.window_start && day < self.window_end() {
            let idx = (day & self.mask) as usize;
            if !self.is_occupied(idx) {
                return None;
            }
            let bucket = &self.buckets[idx];
            if bucket.key == key {
                bucket.slot
            } else {
                let spill = self.spills.get(bucket.spill as usize)?;
                spill[spill.binary_search_by_key(&key, |&(k, _)| k).ok()?].1
            }
        } else {
            let pos = self.overflow.binary_search_by_key(&key, |&(k, _)| k).ok()?;
            self.overflow[pos].1
        };
        self.slab[slot as usize].as_ref()
    }

    /// Time of the next event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next_key().map(|k| k.at)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The reference queue: the original `BTreeMap`-backed implementation the
/// calendar queue replaced. Kept as the ordering oracle for the
/// equivalence proptest in `crates/sim/tests/replay.rs` and for the
/// `events` bench's pre-swap baseline (via the `reference-queue` feature).
#[cfg(any(test, feature = "reference-queue"))]
#[derive(Debug, Default)]
pub struct BTreeQueue {
    pending: BTreeMap<EventKey, Event>,
    next_seq: u64,
}

#[cfg(any(test, feature = "reference-queue"))]
impl BTreeQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BTreeQueue::default()
    }

    /// Schedules `event` to fire at `at`.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(EventKey { at, seq }, event);
    }

    /// Pops the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pending.pop_first().map(|(k, e)| (k.at, e))
    }

    /// Removes and returns the pending event with `key`, if present.
    #[inline]
    pub fn take(&mut self, key: EventKey) -> Option<(SimTime, Event)> {
        self.pending.remove(&key).map(|e| (key.at, e))
    }

    /// The earliest pending key.
    #[inline]
    pub fn next_key(&self) -> Option<EventKey> {
        self.pending.keys().next().copied()
    }

    /// All pending keys in `(at, seq)` order.
    pub fn keys(&self) -> impl Iterator<Item = EventKey> + '_ {
        self.pending.keys().copied()
    }

    /// All pending events in `(at, seq)` order.
    pub fn iter(&self) -> impl Iterator<Item = (EventKey, &Event)> + '_ {
        self.pending.iter().map(|(k, e)| (*k, e))
    }

    /// The pending event with `key`, if present.
    pub fn get(&self, key: EventKey) -> Option<&Event> {
        self.pending.get(&key)
    }

    /// Time of the next event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.pending.keys().next().map(|k| k.at)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), Event::Crash(SiteId::new(0)));
        q.schedule(SimTime::from_micros(10), Event::Crash(SiteId::new(1)));
        q.schedule(SimTime::from_micros(20), Event::Crash(SiteId::new(2)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_micros())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..10u32 {
            q.schedule(t, Event::Crash(SiteId::new(i)));
        }
        let ids: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Crash(s) => s.as_u32(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.schedule(SimTime::from_micros(9), Event::ClientTick(ClientId(0)));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn take_removes_by_key_without_disturbing_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), Event::Crash(SiteId::new(0)));
        q.schedule(SimTime::from_micros(20), Event::Crash(SiteId::new(1)));
        q.schedule(SimTime::from_micros(20), Event::Crash(SiteId::new(2)));
        let keys: Vec<EventKey> = q.keys().collect();
        assert_eq!(keys.len(), 3);
        // Take the middle event (first of the two at t=20).
        let (t, e) = q.take(keys[1]).unwrap();
        assert_eq!(t.as_micros(), 20);
        assert_eq!(e, Event::Crash(SiteId::new(1)));
        // Its key is gone; the others still pop in order.
        assert!(q.take(keys[1]).is_none());
        assert!(q.get(keys[0]).is_some());
        let rest: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Crash(s) => s.as_u32(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(rest, vec![0, 2]);
    }

    #[test]
    fn next_key_is_earliest_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(7), Event::Reconfigure);
        q.schedule(SimTime::from_micros(3), Event::Reconfigure);
        q.schedule(SimTime::from_micros(3), Event::Reconfigure);
        let k = q.next_key().unwrap();
        assert_eq!(k.at.as_micros(), 3);
        assert_eq!(k.seq, 1);
        // Keys are stable: peeking does not change anything.
        assert_eq!(q.next_key(), Some(k));
        assert_eq!(q.len(), 3);
    }

    /// Events far past the window land in the overflow tier and come back
    /// out through rotation, in order, interleaved with near events
    /// scheduled mid-drain.
    #[test]
    fn overflow_rotation_preserves_order() {
        let mut q = EventQueue::new();
        let window_micros = (MIN_BUCKETS as u64) << INITIAL_DAY_SHIFT;
        // One near event, a spray far beyond the first window, and one in
        // a later window still.
        q.schedule(SimTime::from_micros(1), Event::Reconfigure);
        for i in 0..20u64 {
            q.schedule(
                SimTime::from_micros(window_micros * 3 + i * 97),
                Event::Crash(SiteId::new(i as u32)),
            );
        }
        q.schedule(SimTime::from_micros(window_micros * 40), Event::Reconfigure);
        let mut times = Vec::new();
        while let Some((t, _)) = q.pop() {
            times.push(t.as_micros());
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert_eq!(times.len(), 22);
        assert!(q.is_empty());
    }

    /// Slab slots are recycled: a schedule/pop churn does not grow storage
    /// beyond the high-water mark of concurrently pending events.
    #[test]
    fn slab_reuses_slots() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            q.schedule(SimTime::from_micros(round * 10), Event::Reconfigure);
            q.schedule(SimTime::from_micros(round * 10 + 1), Event::Reconfigure);
            q.pop();
            q.pop();
        }
        assert!(q.is_empty());
        assert!(
            q.slab.len() <= 2,
            "slab grew to {} slots for 2 concurrent events",
            q.slab.len()
        );
    }

    /// A `hot-churn`-shaped hold model: half the pending set is near
    /// traffic, each replaced at alternately a fixed 300 µs hop or a delay
    /// up to 4 ms, and half a far tail spread over 5 s. The near traffic
    /// must spread over many days — sizing days from the span of the whole
    /// set would pile it into one — and re-layouts must stay rare.
    #[test]
    fn bimodal_schedule_keeps_buckets_small() {
        const FAR: u64 = 5_000_000;
        const STEPS: u64 = 200_000;
        const WARM_UP: u64 = 10_000;
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = move |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        let mut q = EventQueue::new();
        for i in 0..64u32 {
            q.schedule(
                SimTime::from_micros(draw(FAR)),
                Event::Crash(SiteId::new(i)),
            );
            q.schedule(SimTime::from_micros(draw(4_096)), Event::Reconfigure);
        }
        let (mut worst, mut sum) = (0, 0);
        for step in 0..STEPS {
            let key = q.next_key().unwrap();
            // Distinct timestamps sharing the minimum's day.
            let idx = (q.day(key.at) & q.mask) as usize;
            let mut times: Vec<SimTime> = q.bucket_entries(idx).map(|(k, _)| k.at).collect();
            times.dedup();
            if step >= WARM_UP {
                worst = worst.max(times.len());
                sum += times.len();
            }
            let (at, event) = q.take(key).unwrap();
            let delay = match event {
                Event::Crash(_) => 1 + draw(FAR),
                _ if step % 2 == 0 => 300,
                _ => 1 + draw(4_096),
            };
            q.schedule(at + SimDuration::from_micros(delay), event);
        }
        let mean = sum as f64 / (STEPS - WARM_UP) as f64;
        assert!(
            worst <= 8 && mean < 1.5,
            "near traffic crowds its days: up to {worst} distinct timestamps a day, {mean:.2} on average"
        );
        assert!(
            q.rebuilds <= STEPS / 10_000,
            "{} re-layouts in {STEPS} events",
            q.rebuilds
        );
    }

    /// Taking a key out of the overflow tier directly (the model checker
    /// fires far-future events first) leaves near events intact.
    #[test]
    fn take_from_overflow_before_rotation() {
        let mut q = EventQueue::new();
        let far = SimTime::from_micros(10_000_000);
        q.schedule(SimTime::from_micros(5), Event::Reconfigure);
        q.schedule(far, Event::Crash(SiteId::new(7)));
        let far_key = q.keys().find(|k| k.at == far).unwrap();
        let (t, e) = q.take(far_key).unwrap();
        assert_eq!(t, far);
        assert_eq!(e, Event::Crash(SiteId::new(7)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_key().unwrap().at.as_micros(), 5);
    }
}
