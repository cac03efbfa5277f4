//! The determinism & quorum-math rules.
//!
//! Each rule matches tokens on the *sanitized* code channel produced by
//! [`crate::scanner`], so occurrences inside comments, strings or test
//! modules never fire. Rules are scoped by logical path (workspace-relative,
//! forward slashes) — see [`Rule::in_scope`].

/// A lint rule: identifier, what it catches, and how to fix it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Stable rule identifier (`D001`…).
    pub id: &'static str,
    /// One-line description of the defect class.
    pub summary: &'static str,
    /// Suggested fix, shown with every diagnostic.
    pub hint: &'static str,
}

/// Every rule the linter knows, in report order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "D001",
        summary: "nondeterministic collection in replay-critical code",
        hint: "use arbitree_core::DetMap / DetSet (insertion-ordered, seed-stable iteration)",
    },
    Rule {
        id: "D002",
        summary: "wall-clock time in simulated code",
        hint: "use crate::time::SimTime / SimDuration; only crates/sim/src/time.rs may touch the host clock",
    },
    Rule {
        id: "D003",
        summary: "unseeded RNG in library code",
        hint: "thread the run's StdRng::seed_from_u64 RNG through instead of ambient entropy",
    },
    Rule {
        id: "D004",
        summary: "narrowing `as` cast in quorum arithmetic",
        hint: "use u128 intermediates, checked division, or TryFrom with an explicit bound",
    },
    Rule {
        id: "D005",
        summary: "unwrap/expect in simulator hot path",
        hint: "surface the failure (SimError / saturating default) or suppress with the invariant that makes the panic unreachable",
    },
    Rule {
        id: "D006",
        summary: "exact float comparison in availability/load math",
        hint: "compare against an epsilon (`(a - b).abs() <= EPS`) or use total_cmp; exact `==`/`!=` on floats is order-of-operations-fragile",
    },
    Rule {
        id: "D007",
        summary: "direct event scheduling from protocol-layer code",
        hint: "route through the Coordinator (or the Scheduler seam); only the engine/coordinator layers may enqueue events",
    },
    Rule {
        id: "D008",
        summary: "Payload variant not named in Payload::object()",
        hint: "add an explicit arm (Some(obj) or None) — the model checker's independence relation keys on object(), so a variant swallowed by a wildcard silently gets the wrong class",
    },
    Rule {
        id: "D009",
        summary: "Payload variant not named in the checker's Class mapping",
        hint: "add an explicit arm in `fn payload_class` — a variant swallowed by a wildcard silently inherits whatever class the fallback picks, and an over-coarse class unsounds the DPOR reduction (see the audit module)",
    },
    Rule {
        id: "D010",
        summary: "lock acquisition with no prior ascending-object-order sort",
        hint: "sort the lock plan by object id before acquiring (`lock_plan.sort_by_key(...)`) — two transactions walking the same objects in different orders can deadlock under 2PL",
    },
    Rule {
        id: "D011",
        summary: "raw thread/sync primitive outside the traced concurrency seam",
        hint: "use arbitree_race's TracedMutex / traced_channel / scope so the race detector observes the synchronization; only crates/race/src may touch the raw primitives",
    },
    Rule {
        id: "D012",
        summary: "ad-hoc time-keyed priority structure outside the event engine",
        hint: "schedule through arbitree_sim::EventQueue — a BinaryHeap/BTreeMap keyed by SimTime or EventKey re-implements the engine's time order without its FIFO tie-break, slab reuse, or replay pinning; crates/sim/src/event.rs is the one sanctioned home",
    },
];

/// The rule id used for malformed suppression directives (reported by the
/// suppression layer in `lib.rs`, not matched against code).
pub const MALFORMED_SUPPRESSION: Rule = Rule {
    id: "D000",
    summary: "malformed arbitree-lint suppression",
    hint: "write `// arbitree-lint: allow(DXXX) — reason` with a non-empty reason",
};

/// Looks up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

impl Rule {
    /// Whether this rule applies to the file at `path` (logical,
    /// workspace-relative, forward slashes).
    pub fn in_scope(&self, path: &str) -> bool {
        match self.id {
            // Replay-critical crates: the simulator, the quorum layer it
            // drives, and the anti-entropy tree (digests and probe order
            // must be seed-stable). Iteration order there leaks into event
            // order/metrics.
            "D001" => {
                path.starts_with("crates/sim/src/")
                    || path.starts_with("crates/quorum/src/")
                    || path.starts_with("crates/sync/src/")
            }
            // The simulated clock is the only legitimate time source; the
            // one exemption is the module that defines it.
            "D002" => path != "crates/sim/src/time.rs",
            // All library code: an entropy-seeded RNG anywhere breaks the
            // "run = f(seed)" contract.
            "D003" => true,
            // Quorum arithmetic: availability/load math where a silent
            // truncation skews results instead of crashing.
            "D004" => {
                path.starts_with("crates/quorum/src/") || path == "crates/core/src/quorums.rs"
            }
            // Simulator hot paths should degrade into SimReport anomalies,
            // not panics that kill a 10^6-event run.
            "D005" => path.starts_with("crates/sim/src/"),
            // Availability/load math: probabilities accumulate rounding, so
            // exact float equality silently flips branches between runs of
            // the same analysis on different optimization levels.
            "D006" => {
                path.starts_with("crates/quorum/src/") || path.starts_with("crates/analysis/src/")
            }
            // Only the engine itself, the coordinator (transaction layer)
            // and the Simulation facade may enqueue events; anything else
            // scheduling directly bypasses the Scheduler seam the model
            // checker controls, so explored branches would go unobserved.
            "D007" => {
                const ENQUEUE_LAYERS: &[&str] = &[
                    "crates/sim/src/engine.rs",
                    "crates/sim/src/event.rs",
                    "crates/sim/src/network.rs",
                    "crates/sim/src/coordinator.rs",
                    "crates/sim/src/sim.rs",
                ];
                (path.starts_with("crates/sim/src/")
                    || path.starts_with("crates/quorum/src/")
                    || path.starts_with("crates/core/src/"))
                    && !ENQUEUE_LAYERS.contains(&path)
            }
            // The message-type module: every Payload variant must appear
            // explicitly in `Payload::object()`. File-level rule — matched
            // by the coverage pass in `lib.rs`, not line by line.
            "D008" => path.ends_with("/message.rs") && path.starts_with("crates/sim/src/"),
            // The checker's independence relation: every Payload variant
            // must appear explicitly in `fn payload_class`. Cross-file rule
            // (the enum lives in the sim crate, the mapping in the checker)
            // — matched by the cross-file pass in `lib.rs`; diagnostics
            // anchor at the mapping, which is where the fix goes.
            "D009" => path == "crates/check/src/explore.rs",
            // Lock-order discipline: any non-test `.acquire(` in the
            // simulator must be preceded by a sort of the lock plan.
            // File-level rule — matched by the ordering pass in `lib.rs`.
            "D010" => path.starts_with("crates/sim/src/"),
            // The traced concurrency seam: everything threaded must go
            // through arbitree-race's wrappers so the race detector sees
            // it. The seam itself is the one place raw primitives may
            // live. (Test code is exempt via the workspace walk, which
            // skips tests/ and benches/ directories.)
            "D011" => !path.starts_with("crates/race/src/"),
            // The event queue is the single sanctioned time-ordered
            // structure; everywhere else, a container keyed by simulated
            // time is a shadow queue the replay guarantees don't cover.
            "D012" => path != "crates/sim/src/event.rs",
            _ => false,
        }
    }

    /// Whether this rule matches the (sanitized) code line.
    pub fn matches(&self, code: &str) -> bool {
        match self.id {
            "D001" => has_ident(code, "HashMap") || has_ident(code, "HashSet"),
            "D002" => has_path(code, "Instant", "now") || has_ident(code, "SystemTime"),
            "D003" => has_ident(code, "thread_rng") || has_ident(code, "from_entropy"),
            "D004" => has_narrowing_cast(code),
            "D005" => has_method_call(code, "unwrap") || has_method_call(code, "expect"),
            "D006" => has_float_equality(code),
            "D007" => has_method_call(code, "schedule") || has_path(code, "Engine", "schedule"),
            // Bare identifiers, not `std::sync::` paths: grouped imports
            // (`use std::sync::{Mutex, mpsc};`) and type positions
            // (`stripes: Vec<Mutex<Table>>`) must fire too. Word
            // boundaries keep `TracedMutex`/`TracedRwLock` clean, and the
            // scanner has already stripped comments, strings and test
            // modules.
            "D011" => {
                has_path(code, "thread", "spawn")
                    || has_ident(code, "Mutex")
                    || has_ident(code, "RwLock")
                    || has_ident(code, "Condvar")
                    || has_ident(code, "mpsc")
                    || has_ident(code, "crossbeam")
            }
            "D012" => has_time_keyed_container(code),
            _ => false,
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Word-boundary occurrence of `word` in `code`.
fn has_ident(code: &str, word: &str) -> bool {
    find_ident(code, word, 0).is_some()
}

/// Byte offset of the next word-boundary occurrence of `word` at or after
/// `from`.
fn find_ident(code: &str, word: &str, from: usize) -> Option<usize> {
    let mut start = from;
    while let Some(rel) = code.get(start..)?.find(word) {
        let pos = start + rel;
        let before_ok = pos == 0 || !code[..pos].chars().next_back().is_some_and(is_ident_char);
        let after_ok = !code[pos + word.len()..]
            .chars()
            .next()
            .is_some_and(is_ident_char);
        if before_ok && after_ok {
            return Some(pos);
        }
        start = pos + word.len();
    }
    None
}

/// Matches `first :: second` with optional whitespace around the `::`.
fn has_path(code: &str, first: &str, second: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = find_ident(code, first, from) {
        let rest = code[pos + first.len()..].trim_start();
        if let Some(r) = rest.strip_prefix("::") {
            let r = r.trim_start();
            if r.starts_with(second) && !r[second.len()..].chars().next().is_some_and(is_ident_char)
            {
                return true;
            }
        }
        from = pos + first.len();
    }
    false
}

/// Matches `. name (` — a method call, tolerating whitespace.
fn has_method_call(code: &str, name: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = find_ident(code, name, from) {
        let before = code[..pos].trim_end();
        let after = code[pos + name.len()..].trim_start();
        if before.ends_with('.') && after.starts_with('(') {
            return true;
        }
        from = pos + name.len();
    }
    false
}

/// Matches any slice-sorting method call (`.sort()`, `.sort_by_key(...)`,
/// `.sort_unstable_by(...)` …) — used by the D010 ordering pass in
/// `lib.rs` to recognise a lock plan being put into ascending object
/// order before acquisition.
pub(crate) fn has_sort_method_call(code: &str) -> bool {
    const SORTS: &[&str] = &[
        "sort",
        "sort_by",
        "sort_by_key",
        "sort_unstable",
        "sort_unstable_by",
        "sort_unstable_by_key",
    ];
    SORTS.iter().any(|name| has_method_call(code, name))
}

/// Matches a `.acquire(` method call — the `LockManager` entry point the
/// D010 ordering pass keys on.
pub(crate) fn has_acquire_call(code: &str) -> bool {
    has_method_call(code, "acquire")
}

/// Matches a `BinaryHeap`/`BTreeMap` whose key mentions simulated time
/// (`SimTime` or `EventKey`) later on the same line — the signature of a
/// shadow event queue (`BTreeMap<SimTime, _>`, `BinaryHeap<Reverse<(SimTime,
/// _)>>`). Declarations split across lines escape the heuristic; in practice
/// rustfmt keeps the key type on the line that names the container.
fn has_time_keyed_container(code: &str) -> bool {
    for container in ["BinaryHeap", "BTreeMap"] {
        let mut from = 0;
        while let Some(pos) = find_ident(code, container, from) {
            let rest = &code[pos + container.len()..];
            if has_ident(rest, "SimTime") || has_ident(rest, "EventKey") {
                return true;
            }
            from = pos + container.len();
        }
    }
    false
}

/// Matches `as usize`, `as u32` or `as u64` (token-level).
fn has_narrowing_cast(code: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = find_ident(code, "as", from) {
        let after = code[pos + 2..].trim_start();
        for ty in ["usize", "u32", "u64"] {
            if after.starts_with(ty) && !after[ty.len()..].chars().next().is_some_and(is_ident_char)
            {
                return true;
            }
        }
        from = pos + 2;
    }
    false
}

/// Matches `==` / `!=` with a float literal on either side (`x != 0.0`,
/// `0.5 == y`). Token-level, so typed-but-literal-free float comparisons
/// escape; in practice the fragile comparisons are against literals.
fn has_float_equality(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if (bytes[i] == b'=' || bytes[i] == b'!') && bytes[i + 1] == b'=' {
            // Skip `<=` / `>=` (their `=` never sits first here) and avoid
            // treating `x == =` oddities: both operands are inspected as
            // trimmed neighbor tokens.
            let before = code[..i].trim_end();
            let after = code[i + 2..].trim_start();
            if ends_with_float_literal(before) || starts_with_float_literal(after) {
                return true;
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    false
}

/// Whether `s` begins with a float literal like `0.0`, `-1.5` or `3.`.
fn starts_with_float_literal(s: &str) -> bool {
    let s = s.strip_prefix('-').map(str::trim_start).unwrap_or(s);
    let digits = s.chars().take_while(char::is_ascii_digit).count();
    digits > 0 && s[digits..].starts_with('.') && !s[digits..].starts_with("..")
}

/// Whether `s` ends with a float literal (`factor != 0.0` — the `0.0` side
/// may also appear on the left: `0.0 != factor`). A digit run reached
/// through a `.` that hangs off an identifier (`tuple.0`) does not count.
fn ends_with_float_literal(s: &str) -> bool {
    let tail: String = s
        .chars()
        .rev()
        .take_while(|&c| c.is_ascii_digit() || c == '.')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    let head = &s[..s.len() - tail.len()];
    if head.chars().next_back().is_some_and(is_ident_char) || head.trim_end().ends_with('.') {
        return false;
    }
    let digits = tail.chars().take_while(char::is_ascii_digit).count();
    digits > 0 && tail[digits..].starts_with('.') && !tail[digits..].starts_with("..")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(id: &str) -> &'static Rule {
        rule_by_id(id).expect("known rule")
    }

    #[test]
    fn d001_matches_collections() {
        assert!(rule("D001").matches("use std::collections::HashMap;"));
        assert!(rule("D001").matches("let s: HashSet<u32> = HashSet::new();"));
        assert!(!rule("D001").matches("let m = DetMap::new();"));
        // Word boundaries: no firing on supersets of the name.
        assert!(!rule("D001").matches("struct MyHashMapLike;"));
    }

    #[test]
    fn d002_matches_wall_clock() {
        assert!(rule("D002").matches("let t = Instant::now();"));
        assert!(rule("D002").matches("let t = std::time::SystemTime::now();"));
        assert!(rule("D002").matches("Instant :: now()"));
        assert!(!rule("D002").matches("let now = engine.now;"));
        assert!(!rule("D002").matches("instant_replay(now)"));
    }

    #[test]
    fn d003_matches_unseeded_rng() {
        assert!(rule("D003").matches("let mut rng = rand::thread_rng();"));
        assert!(rule("D003").matches("let rng = StdRng::from_entropy();"));
        assert!(!rule("D003").matches("let rng = StdRng::seed_from_u64(7);"));
    }

    #[test]
    fn d004_matches_casts() {
        assert!(rule("D004").matches("let x = bits() as u32;"));
        assert!(rule("D004").matches("(total - consumed) as usize"));
        assert!(rule("D004").matches("n as  u64"));
        assert!(!rule("D004").matches("let x = y as u128;"));
        assert!(!rule("D004").matches("let assume = 3;"));
    }

    #[test]
    fn d005_matches_panicky_calls() {
        assert!(rule("D005").matches("let v = m.get(&k).unwrap();"));
        assert!(rule("D005").matches("state.expect(\"txn exists\")"));
        assert!(rule("D005").matches("  .expect (\"msg\")"));
        assert!(!rule("D005").matches("fn unwrap_all() {}"));
        assert!(!rule("D005").matches("self.expect_more = true;"));
    }

    #[test]
    fn d006_matches_float_equality() {
        assert!(rule("D006").matches("if factor != 0.0 {"));
        assert!(rule("D006").matches("if avail == 1.0 {"));
        assert!(rule("D006").matches("assert!(0.5 == load);"));
        assert!(rule("D006").matches("while x != -1.0 {"));
        assert!(!rule("D006").matches("if count == 10 {"));
        assert!(!rule("D006").matches("if (a - b).abs() <= EPS {"));
        assert!(!rule("D006").matches("if pair.0 == pair.1 {"));
        assert!(!rule("D006").matches("let in_range = i == 1..2;"));
        assert!(!rule("D006").matches("a.total_cmp(&b)"));
    }

    #[test]
    fn d007_matches_direct_scheduling() {
        assert!(rule("D007").matches("engine.schedule(at, Event::ClientTick(c));"));
        assert!(rule("D007").matches("self.queue .schedule (at, ev)"));
        assert!(rule("D007").matches("Engine::schedule(&mut engine, at, ev)"));
        assert!(!rule("D007").matches("self.schedule_crash(at, site);"));
        assert!(!rule("D007").matches("let schedule = plan();"));
        assert!(!rule("D007").matches("reschedule(op)"));
    }

    #[test]
    fn d011_matches_raw_primitives() {
        assert!(rule("D011").matches("std::thread::spawn(move || work());"));
        assert!(rule("D011").matches("let m = Mutex::new(0);"));
        assert!(rule("D011").matches("use std::sync::Mutex;"));
        assert!(rule("D011").matches("use std::sync::{Mutex, RwLock};"));
        assert!(rule("D011").matches("let l = RwLock::new(data);"));
        assert!(rule("D011").matches("let c = Condvar::new();"));
        assert!(rule("D011").matches("let (tx, rx) = mpsc::channel();"));
        assert!(rule("D011").matches("let (tx, rx) = mpsc::sync_channel(4);"));
        assert!(rule("D011").matches("crossbeam::thread::scope(|s| ())"));
        // The traced wrappers are exactly what the rule pushes towards.
        assert!(!rule("D011").matches("let m = TracedMutex::new(0);"));
        assert!(!rule("D011").matches("let l = TracedRwLock::new(0);"));
        assert!(!rule("D011").matches("let (tx, rx) = traced_channel();"));
        // Atomics are the sanctioned lock-free escape hatch.
        assert!(!rule("D011").matches("use std::sync::atomic::AtomicUsize;"));
        // Unrelated uses of the bare words.
        assert!(!rule("D011").matches("std::thread::available_parallelism()"));
        assert!(!rule("D011").matches("use arbitree_sync::RangeHash;"));
    }

    #[test]
    fn d012_matches_time_keyed_containers() {
        assert!(rule("D012").matches("pending: BTreeMap<SimTime, Vec<Event>>,"));
        assert!(rule("D012").matches("let q: BTreeMap<EventKey, u32> = BTreeMap::new();"));
        assert!(rule("D012").matches("heap: BinaryHeap<Reverse<(SimTime, u64)>>,"));
        assert!(rule("D012").matches("BinaryHeap < ( EventKey , SiteId ) >"));
        // A container keyed by something other than time is fine.
        assert!(!rule("D012").matches("by_site: BTreeMap<SiteId, Vec<u64>>,"));
        assert!(!rule("D012").matches("let order = BinaryHeap::from(depths);"));
        // Time without a container, or a bare import, is fine.
        assert!(!rule("D012").matches("let at: SimTime = now + delay;"));
        assert!(!rule("D012").matches("use std::collections::{BTreeMap, BinaryHeap};"));
        // The time ident must ride the container, not merely precede it.
        assert!(!rule("D012").matches("fn drain(at: SimTime, seen: &BTreeMap<u64, u32>) {}"));
    }

    #[test]
    fn scoping() {
        assert!(rule("D001").in_scope("crates/sim/src/coordinator.rs"));
        assert!(rule("D001").in_scope("crates/quorum/src/traits.rs"));
        assert!(!rule("D001").in_scope("crates/analysis/src/stats.rs"));
        assert!(rule("D002").in_scope("crates/analysis/src/stats.rs"));
        assert!(!rule("D002").in_scope("crates/sim/src/time.rs"));
        assert!(rule("D004").in_scope("crates/core/src/quorums.rs"));
        assert!(!rule("D004").in_scope("crates/core/src/tree.rs"));
        assert!(rule("D005").in_scope("crates/sim/src/engine.rs"));
        assert!(!rule("D005").in_scope("crates/core/src/tree.rs"));
        assert!(rule("D006").in_scope("crates/quorum/src/lp.rs"));
        assert!(rule("D006").in_scope("crates/analysis/src/stats.rs"));
        assert!(!rule("D006").in_scope("crates/sim/src/metrics.rs"));
        assert!(rule("D001").in_scope("crates/sync/src/lib.rs"));
        assert!(rule("D007").in_scope("crates/sim/src/site.rs"));
        assert!(rule("D007").in_scope("crates/quorum/src/strategy.rs"));
        assert!(rule("D007").in_scope("crates/core/src/tree.rs"));
        assert!(!rule("D007").in_scope("crates/sim/src/engine.rs"));
        assert!(!rule("D007").in_scope("crates/sim/src/coordinator.rs"));
        assert!(!rule("D007").in_scope("crates/check/src/explore.rs"));
        assert!(rule("D008").in_scope("crates/sim/src/message.rs"));
        assert!(!rule("D008").in_scope("crates/sim/src/engine.rs"));
        assert!(!rule("D008").in_scope("crates/check/src/message.rs"));
        assert!(rule("D009").in_scope("crates/check/src/explore.rs"));
        assert!(!rule("D009").in_scope("crates/check/src/audit.rs"));
        assert!(!rule("D009").in_scope("crates/sim/src/message.rs"));
        assert!(rule("D010").in_scope("crates/sim/src/coordinator.rs"));
        assert!(rule("D010").in_scope("crates/sim/src/locks.rs"));
        assert!(!rule("D010").in_scope("crates/quorum/src/traits.rs"));
        assert!(rule("D011").in_scope("crates/sim/src/harness.rs"));
        assert!(rule("D011").in_scope("crates/sim/src/locks.rs"));
        assert!(rule("D011").in_scope("crates/bench/src/lib.rs"));
        assert!(rule("D011").in_scope("crates/check/src/explore.rs"));
        assert!(!rule("D011").in_scope("crates/race/src/sync.rs"));
        assert!(!rule("D011").in_scope("crates/race/src/log.rs"));
        assert!(rule("D012").in_scope("crates/sim/src/engine.rs"));
        assert!(rule("D012").in_scope("crates/check/src/explore.rs"));
        assert!(rule("D012").in_scope("crates/bench/src/lib.rs"));
        assert!(!rule("D012").in_scope("crates/sim/src/event.rs"));
    }

    #[test]
    fn d008_never_fires_line_level() {
        // D008 is matched by the file-level coverage pass in `lib.rs`.
        assert!(!rule("D008").matches("Payload::ReadReq { obj, .. } => None,"));
    }

    #[test]
    fn d009_and_d010_never_fire_line_level() {
        // D009 is matched by the cross-file pass, D010 by the ordering
        // pass — both in `lib.rs`.
        assert!(!rule("D009").matches("Payload::Batch(_) => Class::Site(site, None),"));
        assert!(!rule("D010").matches("self.locks.acquire(op, obj, mode)"));
    }

    #[test]
    fn sort_and_acquire_detection() {
        assert!(has_sort_method_call("lock_plan.sort_by_key(|&(o, _)| o);"));
        assert!(has_sort_method_call("plan.sort();"));
        assert!(has_sort_method_call("v.sort_unstable_by(|a, b| a.cmp(b));"));
        // A sort in name only — no call, or a non-method ident — is not
        // an ordering pass.
        assert!(!has_sort_method_call("let sort = plan();"));
        assert!(!has_sort_method_call("self.sorted = true;"));
        assert!(has_acquire_call("if self.locks.acquire(op, obj, mode) {"));
        assert!(!has_acquire_call("fn acquire(&mut self, op: OpId) {}"));
        assert!(!has_acquire_call("self.acquired += 1;"));
    }
}
