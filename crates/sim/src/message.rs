//! Messages exchanged between clients (transaction coordinators) and sites.

use crate::time::SimTime;
use arbitree_core::Timestamp;
use arbitree_quorum::SiteId;
use arbitree_sync::{NodeAgg, Range};
use bytes::Bytes;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifier of a client (transaction coordinator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A replicated data object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// Identifier of an operation (globally unique per simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u64);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// A message endpoint: a replica site or a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Endpoint {
    /// A replica site.
    Site(SiteId),
    /// A client / transaction coordinator.
    Client(ClientId),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Site(s) => write!(f, "{s}"),
            Endpoint::Client(c) => write!(f, "{c}"),
        }
    }
}

/// Message payloads of the replica control protocol: versioned reads plus a
/// two-phase commit for writes (§2.2's transaction model).
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Payload {
    /// Client → site: return your stored value and timestamp for `obj`.
    ReadReq {
        /// Operation this request belongs to.
        op: OpId,
        /// Target object.
        obj: ObjectId,
    },
    /// Site → client: the stored value and timestamp.
    ReadResp {
        /// Operation this response answers.
        op: OpId,
        /// Target object.
        obj: ObjectId,
        /// Stored value.
        value: Bytes,
        /// Stored timestamp.
        ts: Timestamp,
    },
    /// Client → site (2PC phase 1): durably stage `value` at `ts`.
    Prepare {
        /// Operation.
        op: OpId,
        /// Target object.
        obj: ObjectId,
        /// New value.
        value: Bytes,
        /// New timestamp.
        ts: Timestamp,
    },
    /// Site → client: phase-1 vote, echoing the request's timestamp so the
    /// coordinator can match the vote to its current prepare attempt.
    PrepareAck {
        /// Operation.
        op: OpId,
        /// Object the vote concerns (transactions prepare several).
        obj: ObjectId,
        /// `true` = vote-commit, `false` = vote-abort.
        ok: bool,
        /// The timestamp of the `Prepare` this vote answers.
        ts: Timestamp,
    },
    /// Client → site (2PC phase 2): apply the staged write. Carries the
    /// decided value and timestamp so a participant that lost its stage to
    /// an amnesia crash (and has since resynced from a quorum that may not
    /// include this write) can still apply the retried commit — without
    /// them, a valueless commit retry would be acknowledged with nothing
    /// installed, leaving a write quorum that never converges.
    Commit {
        /// Operation.
        op: OpId,
        /// Target object.
        obj: ObjectId,
        /// The decided value (identical to the prepared one).
        value: Bytes,
        /// The decided timestamp.
        ts: Timestamp,
    },
    /// Client → site: discard the staged write.
    Abort {
        /// Operation.
        op: OpId,
        /// Target object.
        obj: ObjectId,
    },
    /// Site → client: the staged write was applied (idempotent).
    CommitAck {
        /// Operation.
        op: OpId,
        /// Object whose stage was applied.
        obj: ObjectId,
    },
    /// Client → site (read-repair): apply `value` at `ts` directly if newer
    /// than the stored version. Fire-and-forget; `value` is already durable
    /// on a full write quorum, this only refreshes a stale member.
    Repair {
        /// The reading operation that noticed the staleness.
        op: OpId,
        /// Target object.
        obj: ObjectId,
        /// The freshest value observed.
        value: Bytes,
        /// Its timestamp.
        ts: Timestamp,
    },
    /// A coalesced envelope: several same-destination payloads sharing one
    /// network round-trip (see [`crate::SimConfig::batching`]). Never
    /// nested and never empty by construction — the engine builds batches
    /// only from two or more buffered payloads.
    Batch(Vec<Payload>),
    /// Syncing site → source site (anti-entropy): compare your digest for
    /// `range` against mine.
    RangeHashReq {
        /// The keyspace range being compared.
        range: Range,
        /// The requester's digest for that range.
        peer: NodeAgg,
    },
    /// Source site → syncing site: the digests matched, or here are my
    /// child digests so you can descend into the mismatching subtrees.
    RangeHashResp {
        /// The range the request named.
        range: Range,
        /// Match, or one digest per child range.
        verdict: RangeVerdict,
    },
    /// Source site → syncing site: full contents of a mismatching range
    /// sparse enough to ship whole — the receiver installs whatever is
    /// newer than its own copy.
    RangeFill {
        /// The range the request named.
        range: Range,
        /// Every committed `(object, value, timestamp)` in the range.
        items: Vec<(ObjectId, Bytes, Timestamp)>,
    },
}

/// The source side's answer to a [`Payload::RangeHashReq`] it does not
/// fill: either the digests agree or the requester should descend.
/// Mismatching ranges sparse enough to ship whole (every mismatching leaf
/// among them) are answered with [`Payload::RangeFill`] instead.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum RangeVerdict {
    /// Digests agree — the whole range is already in sync.
    Match,
    /// Digests disagree — one digest per child range, in child order.
    Children(Vec<NodeAgg>),
}

impl Payload {
    /// The operation this payload belongs to. For a [`Payload::Batch`] the
    /// first inner payload's operation (batches are non-empty by
    /// construction; inner payloads may span several operations, so
    /// batch-aware handlers should iterate the envelope instead).
    /// Anti-entropy payloads belong to no client operation and report the
    /// same `OpId(u64::MAX)` sentinel as an empty batch.
    pub fn op(&self) -> OpId {
        match self {
            Payload::ReadReq { op, .. }
            | Payload::ReadResp { op, .. }
            | Payload::Prepare { op, .. }
            | Payload::PrepareAck { op, .. }
            | Payload::Commit { op, .. }
            | Payload::Abort { op, .. }
            | Payload::CommitAck { op, .. }
            | Payload::Repair { op, .. } => *op,
            Payload::Batch(inner) => inner.first().map_or(OpId(u64::MAX), Payload::op),
            Payload::RangeHashReq { .. }
            | Payload::RangeHashResp { .. }
            | Payload::RangeFill { .. } => OpId(u64::MAX),
        }
    }

    /// The single object this payload touches, or `None` when no such
    /// object exists. The model checker's independence relation keys on
    /// this: same-site deliveries for *different* objects touch disjoint
    /// per-object storage and commute.
    ///
    /// **Invariant the independence relation assumes:** `None` is the
    /// *conservative* answer, meaning "may touch any object". A
    /// [`Payload::Batch`] always returns `None` — even when every inner
    /// payload names the same object, and even for (never constructed, but
    /// representable) nested envelopes — because an envelope spans
    /// whatever its contents span. `arbitree-check` maps a `None` tag to
    /// "conflicts with every same-site delivery"; returning any single
    /// object here would wrongly let a multi-object batch commute past a
    /// same-site delivery for an object it also carries (the exact
    /// unsoundness the `batch-first-object` relation mutation seeds and
    /// the audit oracle kills). Anti-entropy payloads span whole key
    /// ranges and are `None` for the same reason.
    pub fn object(&self) -> Option<ObjectId> {
        match self {
            Payload::ReadReq { obj, .. }
            | Payload::ReadResp { obj, .. }
            | Payload::Prepare { obj, .. }
            | Payload::PrepareAck { obj, .. }
            | Payload::Commit { obj, .. }
            | Payload::Abort { obj, .. }
            | Payload::CommitAck { obj, .. }
            | Payload::Repair { obj, .. } => Some(*obj),
            Payload::Batch(_) => None,
            // Anti-entropy payloads span whole key ranges, never one object.
            Payload::RangeHashReq { .. } => None,
            Payload::RangeHashResp { .. } => None,
            Payload::RangeFill { .. } => None,
        }
    }
}

/// A message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Sender endpoint.
    pub from: Endpoint,
    /// Destination endpoint.
    pub to: Endpoint,
    /// Protocol payload.
    pub payload: Payload,
    /// Send time (for latency accounting).
    pub sent_at: SimTime,
}

/// Leaves `sent_at` out: a send time is a clock label under a controlled
/// scheduler, so the state fingerprint takes two sends of one message as
/// the same pending content.
impl Hash for Message {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.from, self.to, &self.payload).hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_op_extraction() {
        let op = OpId(7);
        let obj = ObjectId(1);
        let msgs = [
            Payload::ReadReq { op, obj },
            Payload::ReadResp {
                op,
                obj,
                value: Bytes::new(),
                ts: Timestamp::ZERO,
            },
            Payload::Prepare {
                op,
                obj,
                value: Bytes::new(),
                ts: Timestamp::ZERO,
            },
            Payload::PrepareAck {
                op,
                obj,
                ok: true,
                ts: Timestamp::ZERO,
            },
            Payload::Commit {
                op,
                obj,
                value: Bytes::new(),
                ts: Timestamp::ZERO,
            },
            Payload::Abort { op, obj },
            Payload::CommitAck { op, obj },
            Payload::Repair {
                op,
                obj,
                value: Bytes::new(),
                ts: Timestamp::ZERO,
            },
        ];
        for m in msgs {
            assert_eq!(m.op(), op);
        }
    }

    #[test]
    fn batch_op_is_first_inner() {
        let batch = Payload::Batch(vec![
            Payload::ReadReq {
                op: OpId(3),
                obj: ObjectId(0),
            },
            Payload::ReadReq {
                op: OpId(9),
                obj: ObjectId(1),
            },
        ]);
        assert_eq!(batch.op(), OpId(3));
        assert_eq!(Payload::Batch(Vec::new()).op(), OpId(u64::MAX));
    }

    #[test]
    fn batch_object_is_conservatively_none() {
        // A mixed-object envelope has no single object...
        let mixed = Payload::Batch(vec![
            Payload::ReadReq {
                op: OpId(3),
                obj: ObjectId(0),
            },
            Payload::Repair {
                op: OpId(4),
                obj: ObjectId(1),
                value: Bytes::new(),
                ts: Timestamp::ZERO,
            },
        ]);
        assert_eq!(mixed.object(), None);
        // ...and even a single-object envelope must answer `None`: the
        // independence relation reads `None` as "may touch any object",
        // and picking the (here unique) inner object would make the answer
        // depend on inspecting arbitrarily deep contents.
        let single = Payload::Batch(vec![Payload::ReadReq {
            op: OpId(3),
            obj: ObjectId(2),
        }]);
        assert_eq!(single.object(), None);
        // Nesting (never built by the engine, but representable) changes
        // nothing: the conservative answer holds at every depth.
        let nested = Payload::Batch(vec![mixed, single]);
        assert_eq!(nested.object(), None);
        assert_eq!(Payload::Batch(Vec::new()).object(), None);
    }

    #[test]
    fn sync_payloads_have_no_op_or_object() {
        let probes = [
            Payload::RangeHashReq {
                range: Range::ROOT,
                peer: NodeAgg::EMPTY,
            },
            Payload::RangeHashResp {
                range: Range::ROOT,
                verdict: RangeVerdict::Match,
            },
            Payload::RangeFill {
                range: Range::of(0, arbitree_sync::LEAF_DEPTH),
                items: vec![(ObjectId(0), Bytes::new(), Timestamp::ZERO)],
            },
        ];
        for p in probes {
            assert_eq!(p.op(), OpId(u64::MAX));
            assert_eq!(p.object(), None);
        }
    }

    #[test]
    fn endpoint_display() {
        assert_eq!(Endpoint::Site(SiteId::new(2)).to_string(), "s2");
        assert_eq!(Endpoint::Client(ClientId(1)).to_string(), "c1");
        assert_eq!(ObjectId(4).to_string(), "obj4");
        assert_eq!(OpId(3).to_string(), "op3");
    }
}
