//! Counters collected during a simulation run.

use crate::time::SimDuration;
use std::fmt;

/// Per-site counters, indexed by site id: a count is one array access, with
/// no hashing and no allocation once the busiest-numbered site was seen.
///
/// Sites never counted hold no entry. Iteration and `Debug` go in the order
/// of each site's first count, exactly as the insertion-ordered map these
/// counters once were printed; equality is by content, like that map's.
#[derive(Clone, Default)]
pub struct SiteCounts {
    /// `counts[site]`; zero for a site never counted.
    counts: Vec<u64>,
    /// Every counted site, in the order of its first count.
    order: Vec<u32>,
}

impl SiteCounts {
    /// Adds one to `site`'s count.
    pub fn increment(&mut self, site: u32) {
        let i = site as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        if self.counts[i] == 0 {
            self.order.push(site);
        }
        self.counts[i] += 1;
    }

    /// `site`'s count (zero if never counted).
    pub fn get(&self, site: u32) -> u64 {
        self.counts.get(site as usize).copied().unwrap_or(0)
    }

    /// Number of sites counted at least once.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no site was counted.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// `(site, count)` pairs in first-count order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.order.iter().map(|&s| (s, self.counts[s as usize]))
    }

    /// The counts, in first-count order.
    pub fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(_, n)| n)
    }
}

impl PartialEq for SiteCounts {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|(s, n)| other.get(s) == n)
    }
}

impl Eq for SiteCounts {}

impl fmt::Debug for SiteCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A log-scale latency histogram: buckets are whole powers of two from
/// 1 µs, at tiny, fixed memory cost. [`LatencyHistogram::quantile`]
/// returns the upper bound of the bucket the quantile falls in, so it
/// never underestimates and overestimates by up to 2× (a 1600 µs median
/// reads as 2048 µs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// `buckets[i]` counts samples with `2^i ≤ latency_µs < 2^(i+1)`
    /// (bucket 0 additionally holds sub-microsecond samples).
    buckets: [u64; 40],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 40],
            count: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        let us = latency.as_micros().max(1);
        let bucket = (63 - us.leading_zeros() as usize).min(39);
        self.buckets[bucket] += 1;
        self.count += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The latency at quantile `q ∈ [0, 1]` (upper bucket bound), or `None`
    /// if the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(SimDuration::from_micros(1u64 << (i + 1)));
            }
        }
        None
    }

    /// The median latency.
    pub fn p50(&self) -> Option<SimDuration> {
        self.quantile(0.5)
    }

    /// The 99th-percentile latency.
    pub fn p99(&self) -> Option<SimDuration> {
        self.quantile(0.99)
    }
}

/// Aggregated simulation metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimMetrics {
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages lost because sender and receiver were in different
    /// partition groups.
    pub dropped_partition: u64,
    /// Messages lost to random link loss (`drop_probability`).
    pub dropped_loss: u64,
    /// Messages delivered to live endpoints.
    pub messages_delivered: u64,
    /// Messages that arrived at a crashed site (discarded).
    pub messages_to_dead: u64,
    /// Read operations completed successfully.
    pub reads_ok: u64,
    /// Read operations that gave up (no quorum assembled).
    pub reads_failed: u64,
    /// Write operations committed.
    pub writes_ok: u64,
    /// Write operations aborted (no quorum assembled).
    pub writes_failed: u64,
    /// Transactions committed (equals `ops_ok` totals when transactions
    /// contain a single operation).
    pub txns_ok: u64,
    /// Transactions aborted.
    pub txns_failed: u64,
    /// Per-site count of protocol requests served (empirical load proxy).
    pub site_requests: SiteCounts,
    /// Per-site membership count in *successful read* quorums.
    pub read_quorum_hits: SiteCounts,
    /// Per-site membership count in *successful write* quorums (the write
    /// quorum proper, excluding the version-phase read quorum).
    pub write_quorum_hits: SiteCounts,
    /// Per-site membership count in version-phase read quorums of writes.
    pub version_quorum_hits: SiteCounts,
    /// Batch envelopes sent — network messages that carried two or more
    /// coalesced payloads ([`crate::SimConfig::batching`]).
    pub batches_sent: u64,
    /// Protocol payloads that travelled inside batch envelopes (each
    /// envelope contributes its inner count).
    pub batched_payloads: u64,
    /// Read-repair messages sent (stale members refreshed after a read).
    pub repairs_sent: u64,
    /// Repair installs that actually applied (the carried value was newer
    /// than the receiver's committed copy).
    pub repairs_applied: u64,
    /// Repair installs ignored because the receiver already held an
    /// equal-or-newer version (a racing repair or a delayed duplicate).
    pub repairs_ignored_stale: u64,
    /// Quorum-protocol messages refused by a `Syncing` site: a rejoining
    /// replica's storage is not trustworthy until anti-entropy completes,
    /// so it answers nothing (the coordinator routes around it).
    pub messages_refused_syncing: u64,
    /// Quorum-protocol replies produced by a non-`Serving` site. The
    /// health gate inside `Site::handle` makes this impossible; the engine
    /// still checks every reply against the site's health at serve time so
    /// chaos gates can assert the invariant end-to-end (must stay 0).
    pub sync_violations: u64,
    /// Per-source anti-entropy sessions started (a rejoin runs one session
    /// per sync source).
    pub sync_sessions: u64,
    /// Rejoins restarted from scratch because a sync source stopped
    /// serving mid-session.
    pub sync_restarts: u64,
    /// Range-hash probes sent (each compares one range digest pair).
    pub sync_ranges_compared: u64,
    /// Keys shipped in `RangeFill` payloads during anti-entropy.
    pub sync_keys_transferred: u64,
    /// Sync retry timers that fired and re-sent outstanding probes.
    pub sync_retries: u64,
    /// Rejoins that completed: the site returned to `Serving`.
    pub rejoins_completed: u64,
    /// Total wall-clock (simulated) time spent between recovery and
    /// re-entering service, summed over completed rejoins.
    pub rejoin_time_total: SimDuration,
    /// Completed live reconfigurations (protocol swaps).
    pub reconfigurations: u64,
    /// Migration writes performed during reconfigurations.
    pub migration_writes: u64,
    /// Phase timeouts that actually fired (stale timeouts excluded).
    pub timeouts_fired: u64,
    /// Read-round restarts forced by a timeout.
    pub retries_read: u64,
    /// 2PC prepare-phase restarts (timeouts and vote-abort re-picks).
    pub retries_prepare: u64,
    /// 2PC commit re-send rounds (phase 2 never gives up).
    pub retries_commit: u64,
    /// Site suspicions raised by silent quorum members at a timeout.
    pub suspicions_raised: u64,
    /// Suspicions cleared — by a later response from the site or by a
    /// full-membership re-probe.
    pub suspicions_cleared: u64,
    /// Transactions aborted after exhausting `max_attempts` on timeouts.
    pub aborts_exhausted: u64,
    /// Transactions aborted after exhausting attempts on prepare
    /// vote-aborts (write-write conflict with a leaked stage).
    pub aborts_conflict: u64,
    /// Transactions aborted because no quorum was assemblable even against
    /// full membership.
    pub aborts_no_quorum: u64,
    /// Reconfiguration migrations abandoned mid-flight.
    pub aborts_reconfig: u64,
    /// Distribution of completed-operation latencies.
    pub latency_histogram: LatencyHistogram,
    /// Sum of completed-operation latencies.
    pub total_latency: SimDuration,
    /// Number of latency samples in `total_latency`.
    pub latency_samples: u64,
}

impl SimMetrics {
    /// Records that `site` served a protocol request.
    pub fn record_site_request(&mut self, site: u32) {
        self.site_requests.increment(site);
    }

    /// Records a completed-operation latency.
    pub fn record_latency(&mut self, latency: SimDuration) {
        self.total_latency = self.total_latency + latency;
        self.latency_samples += 1;
        self.latency_histogram.record(latency);
    }

    /// Mean operation latency, if any sample exists.
    pub fn mean_latency(&self) -> Option<SimDuration> {
        self.total_latency
            .as_micros()
            .checked_div(self.latency_samples)
            .map(SimDuration::from_micros)
    }

    /// Total messages lost, to either partitions or random link loss.
    pub fn messages_dropped(&self) -> u64 {
        self.dropped_partition + self.dropped_loss
    }

    /// Mean recovery-to-serving latency over completed rejoins.
    pub fn mean_rejoin_latency(&self) -> Option<SimDuration> {
        self.rejoin_time_total
            .as_micros()
            .checked_div(self.rejoins_completed)
            .map(SimDuration::from_micros)
    }

    /// Total completed operations.
    pub fn ops_ok(&self) -> u64 {
        self.reads_ok + self.writes_ok
    }

    /// Total failed operations.
    pub fn ops_failed(&self) -> u64 {
        self.reads_failed + self.writes_failed
    }

    /// Empirical per-site load: the busiest site's share of all site
    /// requests, `max_i requests(i) / Σ_i requests(i)`. `None` if no
    /// requests were served.
    ///
    /// This mirrors definition 2.5 with "request served" as the unit of
    /// work: under strategy `w`, the busiest site serves a `L_w(S)`-fraction
    /// of quorum accesses per operation.
    pub fn empirical_max_load(&self, ops: u64) -> Option<f64> {
        let max = self.site_requests.values().max()?;
        if ops == 0 {
            return None;
        }
        Some(max as f64 / ops as f64)
    }

    /// Mean number of site requests per operation (empirical communication
    /// cost).
    pub fn empirical_cost(&self, ops: u64) -> Option<f64> {
        if ops == 0 {
            return None;
        }
        let total: u64 = self.site_requests.values().sum();
        Some(total as f64 / ops as f64)
    }

    /// Empirical read load: the busiest site's share of successful read
    /// quorums (compare with the closed form `1/d`).
    pub fn empirical_read_load(&self) -> Option<f64> {
        let max = self.read_quorum_hits.values().max()?;
        if self.reads_ok == 0 {
            return None;
        }
        Some(max as f64 / self.reads_ok as f64)
    }

    /// Empirical write load: the busiest site's share of successful write
    /// quorums (compare with the closed form `1/|K_phy|`).
    pub fn empirical_write_load(&self) -> Option<f64> {
        let max = self.write_quorum_hits.values().max()?;
        if self.writes_ok == 0 {
            return None;
        }
        Some(max as f64 / self.writes_ok as f64)
    }

    /// Empirical mean read-quorum size (compare with `RD_cost`).
    pub fn empirical_read_cost(&self) -> Option<f64> {
        if self.reads_ok == 0 {
            return None;
        }
        let total: u64 = self.read_quorum_hits.values().sum();
        Some(total as f64 / self.reads_ok as f64)
    }

    /// Empirical mean write-quorum size (compare with `WR_cost`).
    pub fn empirical_write_cost(&self) -> Option<f64> {
        if self.writes_ok == 0 {
            return None;
        }
        let total: u64 = self.write_quorum_hits.values().sum();
        Some(total as f64 / self.writes_ok as f64)
    }
}

impl fmt::Display for SimMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads {}/{} writes {}/{} msgs {} (dropped {})",
            self.reads_ok,
            self.reads_ok + self.reads_failed,
            self.writes_ok,
            self.writes_ok + self.writes_failed,
            self.messages_sent,
            self.messages_dropped()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitree_core::DetMap;
    use proptest::prelude::*;

    fn counted(hits: &[u32]) -> (SiteCounts, DetMap<u32, u64>) {
        let mut counts = SiteCounts::default();
        let mut map = DetMap::new();
        for &site in hits {
            counts.increment(site);
            *map.entry(site).or_insert(0) += 1;
        }
        (counts, map)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `SiteCounts` against the `DetMap<u32, u64>` it replaced: same
        /// `Debug` text (plain and pretty — pinned transcripts hash the
        /// pretty one), same counts, and content-based equality, also
        /// between counters filled in different orders.
        #[test]
        fn site_counts_print_and_compare_like_the_det_map_they_replaced(
            hits in proptest::collection::vec(0u32..40, 0..120),
            others in proptest::collection::vec(0u32..40, 0..120),
        ) {
            let (counts, map) = counted(&hits);
            prop_assert_eq!(format!("{counts:?}"), format!("{map:?}"));
            prop_assert_eq!(format!("{counts:#?}"), format!("{map:#?}"));
            prop_assert_eq!(counts.len(), map.len());
            prop_assert_eq!(counts.values().max(), map.values().copied().max());
            prop_assert_eq!(counts.values().sum::<u64>(), map.values().sum::<u64>());
            for site in 0..41 {
                prop_assert_eq!(counts.get(site), map.get(&site).copied().unwrap_or(0));
            }
            let reversed: Vec<u32> = hits.iter().rev().copied().collect();
            prop_assert_eq!(&counted(&reversed).0, &counts);
            let (other_counts, other_map) = counted(&others);
            prop_assert_eq!(other_counts == counts, other_map == map);
        }
    }

    #[test]
    fn latency_accounting() {
        let mut m = SimMetrics::default();
        assert!(m.mean_latency().is_none());
        m.record_latency(SimDuration::from_micros(100));
        m.record_latency(SimDuration::from_micros(300));
        assert_eq!(m.mean_latency().unwrap().as_micros(), 200);
    }

    #[test]
    fn load_and_cost() {
        let mut m = SimMetrics::default();
        for _ in 0..8 {
            m.record_site_request(0);
        }
        for _ in 0..2 {
            m.record_site_request(1);
        }
        assert_eq!(m.empirical_max_load(10), Some(0.8));
        assert_eq!(m.empirical_cost(10), Some(1.0));
        assert_eq!(m.empirical_max_load(0), None);
        assert_eq!(SimMetrics::default().empirical_max_load(5), None);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = LatencyHistogram::new();
        assert!(h.quantile(0.5).is_none());
        for us in [100u64, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200] {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.count(), 10);
        let p50 = h.p50().unwrap().as_micros();
        // The 5th sample (1600us) lands in bucket [1024,2048) → bound 2048.
        assert_eq!(p50, 2048);
        let p99 = h.p99().unwrap().as_micros();
        assert!(p99 >= 51200, "p99 {p99}");
        // Quantiles are monotone.
        assert!(h.quantile(0.1).unwrap() <= h.quantile(0.9).unwrap());
    }

    #[test]
    fn histogram_edge_cases() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::ZERO); // clamps to 1us bucket
        assert_eq!(h.quantile(0.0).unwrap().as_micros(), 2);
        assert_eq!(h.quantile(1.0).unwrap().as_micros(), 2);
        // Giant sample lands in the last bucket without panicking.
        h.record(SimDuration::from_micros(u64::MAX));
        assert!(h.quantile(1.0).is_some());
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn histogram_rejects_bad_quantile() {
        let _ = LatencyHistogram::new().quantile(1.5);
    }

    #[test]
    fn display_and_totals() {
        let m = SimMetrics {
            reads_ok: 3,
            writes_ok: 2,
            writes_failed: 1,
            ..SimMetrics::default()
        };
        assert_eq!(m.ops_ok(), 5);
        assert_eq!(m.ops_failed(), 1);
        assert!(m.to_string().contains("writes 2/3"));
    }

    #[test]
    fn rejoin_latency_mean() {
        let mut m = SimMetrics::default();
        assert!(m.mean_rejoin_latency().is_none());
        m.rejoins_completed = 2;
        m.rejoin_time_total = SimDuration::from_micros(600);
        assert_eq!(m.mean_rejoin_latency().unwrap().as_micros(), 300);
    }

    #[test]
    fn dropped_causes_sum() {
        let m = SimMetrics {
            dropped_partition: 3,
            dropped_loss: 4,
            ..SimMetrics::default()
        };
        assert_eq!(m.messages_dropped(), 7);
        assert!(m.to_string().contains("dropped 7"));
    }
}
