//! # arbitree-bench
//!
//! The benchmark harness regenerating every table and figure of the paper's
//! evaluation. Each artifact has a dedicated binary:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 — node bookkeeping of the Figure 1 tree |
//! | `example_3_4` | §3.4 — the running example's metrics |
//! | `fig2` | Figure 2 — communication costs of the six configurations |
//! | `fig3` | Figure 3 — (expected) read loads |
//! | `fig4` | Figure 4 — (expected) write loads + the §3.3 lower-bound table |
//! | `availability` | §3.3 — asymptotic availability limits |
//! | `sim_validate` | simulator-measured availability/load/cost vs closed forms |
//!
//! Run any of them with `cargo run -p arbitree-bench --bin <name> --release`.
//!
//! The `race_audit` binary (behind `--features race-audit`) is the CI
//! entry point for the concurrency auditor: it runs the threaded-harness
//! smoke suite under recording sessions plus the seeded-mutation kill
//! matrix, and writes `RACE_report.json`.
//!
//! Other binaries measure the implementation: `events` (event-queue and
//! whole-simulator rates, fingerprint and replay cost), `throughput`,
//! `repair`, and `race_audit`'s recording-tax rows. `ablations` runs the
//! design ablations DESIGN.md calls out.

#![forbid(unsafe_code)]

/// Shared command-line helper: parse `--n <max_n>` and `--p <prob>` style
/// arguments with defaults, ignoring anything else.
pub fn arg_value(args: &[String], key: &str) -> Option<f64> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// The shared machine-readable report format every `BENCH_*.json` /
/// `RACE_report.json` artifact uses.
///
/// Envelope (`arbitree-bench-report/v1`):
///
/// ```json
/// {
///   "schema": "arbitree-bench-report/v1",
///   "bench": "<name>",
///   "git_rev": "<hex or \"unknown\">",
///   "config": { ...bench parameters... },
///   "rows": [ {"name": "...", "ops_per_sec": 1234.5, ...}, ... ],
///   ...bench-specific summary keys...
/// }
/// ```
///
/// Every row carries a `name`; rows that measure a rate also carry
/// `ops_per_sec` as the headline figure, so cross-bench tooling can plot
/// any artifact's trajectory without knowing its cell layout. All other
/// fields are bench-specific and pass through as raw JSON values.
///
/// The workspace vendors no serde, so values are raw pre-formatted JSON
/// fragments (use [`json_str`] for string values) and the builder emits
/// the document by hand with stable key order.
pub mod report {
    /// Quotes and escapes a string as a JSON string literal.
    pub fn json_str(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// The commit under measurement: `git rev-parse HEAD`, or `"unknown"`
    /// when git is unavailable (tarball builds, stripped CI runners).
    pub fn git_rev() -> String {
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    }

    /// One report row: a label, an optional headline rate, and bench-
    /// specific extra fields (raw JSON values, emitted in insertion order).
    pub struct BenchRow {
        name: String,
        ops_per_sec: Option<f64>,
        fields: Vec<(String, String)>,
    }

    impl BenchRow {
        /// A row with a headline ops/sec figure.
        pub fn rate(name: impl Into<String>, ops_per_sec: f64) -> Self {
            BenchRow {
                name: name.into(),
                ops_per_sec: Some(ops_per_sec),
                fields: Vec::new(),
            }
        }

        /// A row without a rate (cost sweeps, pass/fail matrices).
        pub fn plain(name: impl Into<String>) -> Self {
            BenchRow {
                name: name.into(),
                ops_per_sec: None,
                fields: Vec::new(),
            }
        }

        /// Appends a bench-specific field; `value` is a raw JSON fragment.
        pub fn field(mut self, key: &str, value: impl std::fmt::Display) -> Self {
            self.fields.push((key.to_string(), value.to_string()));
            self
        }
    }

    /// Builder for one report document.
    pub struct BenchReport {
        name: String,
        git_rev: String,
        config: Vec<(String, String)>,
        rows: Vec<BenchRow>,
        summary: Vec<(String, String)>,
    }

    impl BenchReport {
        /// Starts a report for the named bench, capturing the git revision.
        pub fn new(name: &str) -> Self {
            BenchReport {
                name: name.to_string(),
                git_rev: git_rev(),
                config: Vec::new(),
                rows: Vec::new(),
                summary: Vec::new(),
            }
        }

        /// Adds a config entry; `value` is a raw JSON fragment.
        pub fn config(mut self, key: &str, value: impl std::fmt::Display) -> Self {
            self.config.push((key.to_string(), value.to_string()));
            self
        }

        /// Adds a row.
        pub fn row(mut self, row: BenchRow) -> Self {
            self.rows.push(row);
            self
        }

        /// Adds a bench-specific top-level summary key; `value` is a raw
        /// JSON fragment (scalars, or whole arrays/objects for payloads
        /// like a kill matrix).
        pub fn summary(mut self, key: &str, value: impl std::fmt::Display) -> Self {
            self.summary.push((key.to_string(), value.to_string()));
            self
        }

        /// Renders the document. Stable key order: envelope, config, rows,
        /// then summary keys in insertion order.
        pub fn to_json(&self) -> String {
            let mut s = String::new();
            s.push_str("{\n");
            s.push_str("  \"schema\": \"arbitree-bench-report/v1\",\n");
            s.push_str(&format!("  \"bench\": {},\n", json_str(&self.name)));
            s.push_str(&format!("  \"git_rev\": {},\n", json_str(&self.git_rev)));
            s.push_str("  \"config\": {");
            for (i, (k, v)) in self.config.iter().enumerate() {
                s.push_str(&format!(
                    "{}{}: {}",
                    if i == 0 { "" } else { ", " },
                    json_str(k),
                    v
                ));
            }
            s.push_str("},\n");
            s.push_str("  \"rows\": [\n");
            for (i, row) in self.rows.iter().enumerate() {
                s.push_str(&format!("    {{\"name\": {}", json_str(&row.name)));
                if let Some(rate) = row.ops_per_sec {
                    s.push_str(&format!(", \"ops_per_sec\": {rate:.1}"));
                }
                for (k, v) in &row.fields {
                    s.push_str(&format!(", {}: {}", json_str(k), v));
                }
                s.push_str(&format!(
                    "}}{}\n",
                    if i + 1 < self.rows.len() { "," } else { "" }
                ));
            }
            s.push_str("  ]");
            for (k, v) in &self.summary {
                s.push_str(&format!(",\n  {}: {}", json_str(k), v));
            }
            s.push_str("\n}\n");
            s
        }
    }
}

/// Shared driver for the event-queue microbench tier: the same synthetic
/// hold-model workload runs against the production calendar queue and
/// (behind `--features reference-queue`) the pre-calendar `BTreeQueue`
/// oracle, so the `events` bin measures identical work on both sides of
/// the swap.
pub mod events_driver {
    use arbitree_sim::{
        ClientId, Endpoint, Event, EventQueue, Message, ObjectId, OpId, Payload, SimTime,
    };

    /// The queue API surface the driver needs — identical on
    /// [`EventQueue`] and the reference `BTreeQueue`, so the driver is
    /// generic over which engine it exercises.
    pub trait DriveQueue: Default {
        /// Schedules `event` at `at`.
        fn schedule(&mut self, at: SimTime, event: Event);
        /// The earliest pending key (what the seeded scheduler selects).
        fn next_key(&self) -> Option<arbitree_sim::EventKey>;
        /// Removes the pending event with `key`.
        fn take(&mut self, key: arbitree_sim::EventKey) -> Option<(SimTime, Event)>;
        /// Pending-event count.
        fn len(&self) -> usize;
        /// Whether the queue is empty.
        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl DriveQueue for EventQueue {
        fn schedule(&mut self, at: SimTime, event: Event) {
            EventQueue::schedule(self, at, event);
        }
        fn next_key(&self) -> Option<arbitree_sim::EventKey> {
            EventQueue::next_key(self)
        }
        fn take(&mut self, key: arbitree_sim::EventKey) -> Option<(SimTime, Event)> {
            EventQueue::take(self, key)
        }
        fn len(&self) -> usize {
            EventQueue::len(self)
        }
    }

    #[cfg(feature = "reference-queue")]
    impl DriveQueue for arbitree_sim::BTreeQueue {
        fn schedule(&mut self, at: SimTime, event: Event) {
            arbitree_sim::BTreeQueue::schedule(self, at, event);
        }
        fn next_key(&self) -> Option<arbitree_sim::EventKey> {
            arbitree_sim::BTreeQueue::next_key(self)
        }
        fn take(&mut self, key: arbitree_sim::EventKey) -> Option<(SimTime, Event)> {
            arbitree_sim::BTreeQueue::take(self, key)
        }
        fn len(&self) -> usize {
            arbitree_sim::BTreeQueue::len(self)
        }
    }

    /// Deterministic splitmix64 stream — the driver's only randomness, so
    /// both queues see the exact same schedule sequence.
    pub struct Rng(u64);

    impl Rng {
        /// A stream seeded for one cell.
        pub fn new(seed: u64) -> Self {
            Rng(seed)
        }

        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// A value in `0..bound` (multiply-shift reduction: the driver sits
        /// inside the timed loop, and a hardware divide per call would be a
        /// bigger cost than the queue operation being measured).
        pub fn below(&mut self, bound: u64) -> u64 {
            ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
        }
    }

    /// The event mix scheduled by the driver: light timer ticks
    /// (read-dominated schedules are mostly client wakeups and quorum
    /// probes) vs. delivered write-path messages carrying full payloads.
    /// `tag` varies the field contents; whether this event is a write is
    /// the caller's Bresenham accumulator's call, not a coin flip, so the
    /// mix fraction is exact and the branch is a learnable pattern — the
    /// cell measures the queue, not the branch predictor.
    fn make_event(tag: u64, is_write: bool) -> Event {
        if is_write {
            Event::Deliver(Message {
                from: Endpoint::Client(ClientId(tag as u32)),
                to: Endpoint::Site(arbitree_quorum::SiteId::new((tag % 7) as u32)),
                payload: Payload::ReadReq {
                    op: OpId(tag),
                    obj: ObjectId(tag as u32),
                },
                sent_at: SimTime::ZERO,
            })
        } else {
            Event::ClientTick(ClientId(tag as u32))
        }
    }

    /// One step of the Bresenham write-mix interleave: exactly
    /// `write_permille` writes per 1000 calls, evenly spread.
    fn next_is_write(acc: &mut u64, write_permille: u64) -> bool {
        *acc += write_permille;
        let w = *acc >= 1_000;
        if w {
            *acc -= 1_000;
        }
        w
    }

    /// Runs the hold model: prefill `pending` events, then `steps` times
    /// fire the earliest event and schedule a replacement at `now + delay`
    /// with delays drawn from `0..horizon_micros`. The pending-set size
    /// stays constant — the classic priority-queue benchmark — and each
    /// step counts as one event processed. Firing mirrors the engine's
    /// seeded loop exactly: `next_key()` (the scheduler's select) followed
    /// by `take(key)` (the step), not a fused pop. The write mix is a
    /// Bresenham interleave (exactly `write_permille` writes per 1000
    /// events, evenly spread), and each step draws one RNG word that
    /// seeds both the delay and the event's field tag. Returns the events
    /// processed (== `steps`) and a checksum of fire order so the compiler
    /// cannot elide the work (and so both queues can be asserted to
    /// agree).
    pub fn hold_model<Q: DriveQueue>(
        seed: u64,
        pending: usize,
        steps: u64,
        horizon_micros: u64,
        write_permille: u64,
    ) -> (u64, u64) {
        let mut rng = Rng::new(seed);
        let mut q = Q::default();
        let mut acc = 0u64;
        for _ in 0..pending {
            let r = rng.next_u64();
            let at = SimTime::from_micros(mul_shift(r, horizon_micros));
            q.schedule(
                at,
                make_event(r & 0x3FF, next_is_write(&mut acc, write_permille)),
            );
        }
        let mut checksum = 0u64;
        for _ in 0..steps {
            let key = q.next_key().expect("hold model never drains");
            let (at, ev) = q.take(key).expect("selected key is pending");
            checksum = checksum
                .rotate_left(7)
                .wrapping_add(at.as_micros())
                .wrapping_add(match ev {
                    Event::ClientTick(c) => u64::from(c.0),
                    _ => 1_000_000,
                });
            let r = rng.next_u64();
            let next =
                at + arbitree_sim::SimDuration::from_micros(mul_shift(r, horizon_micros).max(1));
            q.schedule(
                next,
                make_event(r & 0x3FF, next_is_write(&mut acc, write_permille)),
            );
        }
        (steps, checksum)
    }

    /// Far-tail horizon of [`bimodal_hold_model`]: a fault schedule spread
    /// over a 5 s segment, as `hot-churn` lays one out.
    pub const FAR_HORIZON_MICROS: u64 = 5_000_000;
    /// The fixed near delay of [`bimodal_hold_model`]: one hop on
    /// `hot-churn`'s 300 µs FIFO links.
    pub const LINK_MICROS: u64 = 300;

    /// The hold model with `hot-churn`'s two time scales. Half the pending
    /// set is a far tail — crash events spread over
    /// [`FAR_HORIZON_MICROS`], each replaced by another one up to 5 s
    /// further out when it fires — and the other half is near traffic,
    /// each replaced at alternately the fixed [`LINK_MICROS`] delay and a
    /// delay drawn from `1..horizon_micros`, with the same Bresenham write
    /// mix as [`hold_model`]. A queue that sizes its days from the span of
    /// the whole pending set piles the near half into a few days here.
    /// Returns the events processed and a checksum of fire order.
    pub fn bimodal_hold_model<Q: DriveQueue>(
        seed: u64,
        pending: usize,
        steps: u64,
        horizon_micros: u64,
        write_permille: u64,
    ) -> (u64, u64) {
        let mut rng = Rng::new(seed);
        let mut q = Q::default();
        let mut acc = 0u64;
        let mut fixed = false;
        let mut near_delay = |r: u64| {
            fixed = !fixed;
            if fixed {
                LINK_MICROS
            } else {
                mul_shift(r, horizon_micros).max(1)
            }
        };
        for i in 0..pending {
            let r = rng.next_u64();
            if i % 2 == 0 {
                let at = SimTime::from_micros(mul_shift(r, FAR_HORIZON_MICROS));
                q.schedule(at, Event::Crash(arbitree_quorum::SiteId::new(r as u32 & 7)));
            } else {
                let at = SimTime::from_micros(near_delay(r));
                q.schedule(
                    at,
                    make_event(r & 0x3FF, next_is_write(&mut acc, write_permille)),
                );
            }
        }
        let mut checksum = 0u64;
        for _ in 0..steps {
            let key = q.next_key().expect("hold model never drains");
            let (at, ev) = q.take(key).expect("selected key is pending");
            let r = rng.next_u64();
            let (tag, delay, next) = match ev {
                Event::Crash(site) => (
                    2_000_000 + u64::from(site.as_u32()),
                    mul_shift(r, FAR_HORIZON_MICROS).max(1),
                    Event::Crash(site),
                ),
                near => (
                    match near {
                        Event::ClientTick(c) => u64::from(c.0),
                        _ => 1_000_000,
                    },
                    near_delay(r),
                    make_event(r & 0x3FF, next_is_write(&mut acc, write_permille)),
                ),
            };
            checksum = checksum
                .rotate_left(7)
                .wrapping_add(at.as_micros())
                .wrapping_add(tag);
            q.schedule(at + arbitree_sim::SimDuration::from_micros(delay), next);
        }
        (steps, checksum)
    }

    /// `(x * bound) >> 64`: maps a full-range word into `0..bound` without
    /// a divide.
    fn mul_shift(x: u64, bound: u64) -> u64 {
        ((u128::from(x) * u128::from(bound)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["prog", "--n", "200", "--p", "0.8"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--n"), Some(200.0));
        assert_eq!(arg_value(&args, "--p"), Some(0.8));
        assert_eq!(arg_value(&args, "--x"), None);
        // Malformed value → None.
        let bad: Vec<String> = ["prog", "--n"].iter().map(|s| s.to_string()).collect();
        assert_eq!(arg_value(&bad, "--n"), None);
    }

    #[test]
    fn bench_report_envelope_and_rows() {
        let json = report::BenchReport::new("demo")
            .config("keys", 1024)
            .config("mode", report::json_str("smoke"))
            .row(report::BenchRow::rate("cell-a", 1234.56).field("msgs", 42))
            .row(report::BenchRow::plain("cell-b").field("ok", true))
            .summary("gate_passed", true)
            .to_json();
        assert!(json.starts_with("{\n  \"schema\": \"arbitree-bench-report/v1\",\n"));
        assert!(json.contains("\"bench\": \"demo\""));
        assert!(json.contains("\"git_rev\": \""));
        assert!(json.contains("\"config\": {\"keys\": 1024, \"mode\": \"smoke\"}"));
        assert!(json.contains("{\"name\": \"cell-a\", \"ops_per_sec\": 1234.6, \"msgs\": 42},"));
        assert!(json.contains("{\"name\": \"cell-b\", \"ok\": true}"));
        assert!(json.ends_with("  ],\n  \"gate_passed\": true\n}\n"));
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(report::json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(report::json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn git_rev_is_hex_or_unknown() {
        let rev = report::git_rev();
        assert!(
            rev == "unknown" || (rev.len() == 40 && rev.chars().all(|c| c.is_ascii_hexdigit())),
            "unexpected git_rev: {rev}"
        );
    }
}
