//! One-copy-equivalence checker.
//!
//! Because the lock manager serializes conflicting operations per object,
//! committed operations on one object form a total order. The checker keeps
//! the last *committed* version per object and verifies that every read,
//! checked while its shared lock is held, returns it exactly.

use crate::fingerprint::hash_in_order;
use crate::message::{ObjectId, OpId};
use arbitree_core::{DetMap, Timestamp};
use bytes::Bytes;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A consistency violation detected by the checker.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Violation {
    /// The offending read operation.
    pub op: OpId,
    /// The object it read.
    pub obj: ObjectId,
    /// What the read returned.
    pub got: Timestamp,
    /// The latest committed timestamp the read was required to see.
    pub expected_at_least: Timestamp,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} read {} from {} but the committed version was {}",
            self.op, self.got, self.obj, self.expected_at_least
        )
    }
}

#[derive(Debug, Clone, Default, Hash)]
struct ObjectModel {
    committed_ts: Timestamp,
    committed_value: Bytes,
}

/// The checker: feed it every committed write and completed read.
#[derive(Debug, Default)]
pub struct ConsistencyChecker {
    objects: DetMap<ObjectId, ObjectModel>,
    violations: Vec<Violation>,
    reads_checked: u64,
    writes_recorded: u64,
}

/// Hashes the object models in their insertion order (see
/// `fingerprint::hash_in_order`).
impl Hash for ConsistencyChecker {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_in_order(self.objects.len(), self.objects.iter(), state);
        self.violations.hash(state);
        self.reads_checked.hash(state);
        self.writes_recorded.hash(state);
    }
}

impl ConsistencyChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        ConsistencyChecker::default()
    }

    /// Records a committed write (the coordinator received every commit
    /// acknowledgement, so the value sits on a full write quorum).
    ///
    /// Under strict 2PL timestamps must be strictly increasing per object; a
    /// regression is itself a violation.
    pub fn record_write(&mut self, op: OpId, obj: ObjectId, value: Bytes, ts: Timestamp) {
        self.writes_recorded += 1;
        let model = self.objects.entry(obj).or_default();
        if ts <= model.committed_ts {
            self.violations.push(Violation {
                op,
                obj,
                got: ts,
                expected_at_least: model.committed_ts,
            });
            return;
        }
        model.committed_ts = ts;
        model.committed_value = value;
    }

    /// Checks a read: it must return the committed version exactly — both
    /// timestamp and value. The coordinator calls it when a transaction's
    /// read round ends, while the read's shared lock is still held, so no
    /// write to the object commits in between, and the quorum-intersection
    /// argument guarantees visibility of the last committed write. So the
    /// reads of a transaction that aborts later are checked too; after the
    /// round the shared lock goes, and a later check could meet a newer
    /// write.
    pub fn check_read(&mut self, op: OpId, obj: ObjectId, value: &Bytes, ts: Timestamp) {
        self.reads_checked += 1;
        // A never-written object is at `Timestamp::ZERO` with an empty
        // value; looking it up leaves the model free of read-only objects.
        let model = self.objects.get(&obj);
        let committed_ts = model.map_or(Timestamp::ZERO, |m| m.committed_ts);
        let value_matches = model.map_or(value.is_empty(), |m| *value == m.committed_value);
        if ts != committed_ts || !value_matches {
            self.violations.push(Violation {
                op,
                obj,
                got: ts,
                expected_at_least: committed_ts,
            });
        }
    }

    /// All violations found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Whether the execution has been consistent so far.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of reads checked.
    pub fn reads_checked(&self) -> u64 {
        self.reads_checked
    }

    /// Number of writes recorded.
    pub fn writes_recorded(&self) -> u64 {
        self.writes_recorded
    }

    /// The committed version the checker currently expects for `obj`, or
    /// `None` before its first committed write.
    pub fn committed(&self, obj: ObjectId) -> Option<(Timestamp, Bytes)> {
        self.objects
            .get(&obj)
            .map(|m| (m.committed_ts, m.committed_value.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitree_quorum::SiteId;

    fn ts(v: u64) -> Timestamp {
        Timestamp::new(v, SiteId::new(0))
    }

    #[test]
    fn consistent_history_passes() {
        let mut c = ConsistencyChecker::new();
        let obj = ObjectId(0);
        c.check_read(OpId(1), obj, &Bytes::new(), Timestamp::ZERO);
        c.record_write(OpId(2), obj, Bytes::from_static(b"a"), ts(1));
        c.check_read(OpId(3), obj, &Bytes::from_static(b"a"), ts(1));
        c.record_write(OpId(4), obj, Bytes::from_static(b"b"), ts(2));
        c.check_read(OpId(5), obj, &Bytes::from_static(b"b"), ts(2));
        assert!(c.is_consistent());
        assert_eq!(c.reads_checked(), 3);
        assert_eq!(c.writes_recorded(), 2);
    }

    #[test]
    fn stale_read_flagged() {
        let mut c = ConsistencyChecker::new();
        let obj = ObjectId(0);
        c.record_write(OpId(1), obj, Bytes::from_static(b"a"), ts(1));
        c.check_read(OpId(2), obj, &Bytes::new(), Timestamp::ZERO);
        assert!(!c.is_consistent());
        let v = &c.violations()[0];
        assert_eq!(v.op, OpId(2));
        assert_eq!(v.expected_at_least, ts(1));
        assert!(v.to_string().contains("op2"));
    }

    #[test]
    fn wrong_value_with_right_timestamp_flagged() {
        let mut c = ConsistencyChecker::new();
        let obj = ObjectId(0);
        c.record_write(OpId(1), obj, Bytes::from_static(b"a"), ts(1));
        c.check_read(OpId(2), obj, &Bytes::from_static(b"z"), ts(1));
        assert!(!c.is_consistent());
    }

    #[test]
    fn timestamp_regression_on_write_flagged() {
        let mut c = ConsistencyChecker::new();
        let obj = ObjectId(0);
        c.record_write(OpId(1), obj, Bytes::from_static(b"a"), ts(5));
        c.record_write(OpId(2), obj, Bytes::from_static(b"b"), ts(3));
        assert!(!c.is_consistent());
        // Committed state unchanged by the bad write.
        assert_eq!(c.committed(obj).unwrap().0, ts(5));
    }

    #[test]
    fn reads_of_unwritten_objects_leave_the_model_empty() {
        let mut c = ConsistencyChecker::new();
        c.check_read(OpId(1), ObjectId(7), &Bytes::new(), Timestamp::ZERO);
        assert!(c.is_consistent());
        assert_eq!(c.committed(ObjectId(7)), None);
        c.check_read(
            OpId(2),
            ObjectId(7),
            &Bytes::from_static(b"x"),
            Timestamp::ZERO,
        );
        c.check_read(OpId(3), ObjectId(7), &Bytes::new(), ts(1));
        assert_eq!(c.violations().len(), 2);
        assert!(c.objects.is_empty());
    }

    #[test]
    fn objects_independent() {
        let mut c = ConsistencyChecker::new();
        c.record_write(OpId(1), ObjectId(0), Bytes::from_static(b"a"), ts(1));
        c.check_read(OpId(2), ObjectId(1), &Bytes::new(), Timestamp::ZERO);
        assert!(c.is_consistent());
    }
}
