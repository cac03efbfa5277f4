//! Nemesis and retry-policy integration tests: scheduled partitions,
//! correlated level crashes, flapping, drop bursts — operations fail while
//! the fault holds, recover after it heals, and every execution stays
//! one-copy consistent. Also pins the retry machinery: exponential backoff
//! is deterministic per seed and strictly cheaper than fixed-interval
//! retry under sustained faults.

use arbitree_core::ArbitraryProtocol;
use arbitree_quorum::{steady_state_uptime, ReplicaControl, SiteId};
use arbitree_sim::{
    build_profile, cell_seed, run_chaos_campaign, ChaosCell, ExperimentCell, FailureSchedule,
    Nemesis, NemesisKind, NetworkConfig, ObjectDistribution, Partition, RetryPolicy, SimConfig,
    SimDuration, SimReport, SimTime, Simulation, TxnRequest,
};
use bytes::Bytes;

fn proto() -> ArbitraryProtocol {
    ArbitraryProtocol::parse("1-3-5").unwrap()
}

fn all_sites() -> Vec<SiteId> {
    (0..proto().tree().replica_count() as u32)
        .map(SiteId::new)
        .collect()
}

// ---------------------------------------------------------------------------
// Mid-run partitions

/// A partition formed mid-run makes operations fail while it holds; once it
/// heals, service resumes. The never-healed control shows the heal matters.
#[test]
fn partition_forms_and_heals_mid_run() {
    let run = |heal: bool| -> SimReport {
        let config = SimConfig {
            seed: 11,
            duration: SimDuration::from_millis(300),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config, proto());
        // Cut every site off from the clients (sites move to group 1,
        // clients stay in group 0): nothing can assemble a quorum.
        sim.schedule_partition(
            SimTime::from_millis(20),
            Partition::isolate_sites(all_sites()),
        );
        if heal {
            sim.schedule_partition(SimTime::from_millis(120), Partition::none());
        }
        sim.run()
    };

    let healed = run(true);
    let stuck = run(false);

    assert!(healed.consistent && stuck.consistent);
    // Ops failed while the partition held...
    assert!(healed.metrics.ops_failed() > 0, "{}", healed.metrics);
    assert!(healed.metrics.dropped_partition > 0);
    // ...and succeeded again after the heal: the healed run completes far
    // more work than the one that stays partitioned for 280 of 300 ms.
    assert!(
        healed.metrics.ops_ok() > 2 * stuck.metrics.ops_ok(),
        "healed {} vs stuck {}",
        healed.metrics.ops_ok(),
        stuck.metrics.ops_ok()
    );
}

/// Crashing one entire physical level annihilates the read quorums (a read
/// needs one member of *every* physical level), while a fault-free control
/// run never fails an operation.
#[test]
fn level_crash_blocks_operations_until_recovery() {
    let run = |nemesis: Nemesis| -> SimReport {
        let config = SimConfig {
            seed: 23,
            duration: SimDuration::from_millis(300),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config, proto());
        sim.schedule_nemesis(&nemesis);
        sim.run()
    };

    let p = proto();
    let level = p.tree().physical_levels()[0];
    let victims = p.tree().level_sites(level).to_vec();
    let hit = run(Nemesis::level_crash(
        &victims,
        SimTime::from_millis(50),
        SimDuration::from_millis(100),
    ));
    let control = run(Nemesis::none());

    assert!(hit.consistent && control.consistent);
    assert_eq!(control.metrics.ops_failed(), 0, "{}", control.metrics);
    assert!(hit.metrics.ops_failed() > 0, "{}", hit.metrics);
    // Recovery restored service: plenty of operations still succeeded.
    assert!(hit.metrics.ops_ok() > control.metrics.ops_ok() / 2);
}

/// A flapping site keeps the coordinators' suspicion sets churning: entries
/// are raised on timeouts and cleared again by the reprobe path. The tree
/// is a single physical level, so the write quorum *must* include the
/// flapper — suspecting it forces the quorum-assembly failure that
/// triggers the clear.
#[test]
fn flapping_churns_suspicions() {
    let config = SimConfig {
        seed: 31,
        duration: SimDuration::from_millis(300),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(config, ArbitraryProtocol::parse("1-3").unwrap());
    sim.schedule_nemesis(&Nemesis::flapping(
        SiteId::new(0),
        SimTime::from_millis(20),
        SimDuration::from_millis(10),
        SimDuration::from_millis(10),
        SimTime::from_millis(280),
    ));
    let report = sim.run();
    assert!(report.consistent);
    assert!(report.metrics.suspicions_raised > 0, "{}", report.metrics);
    assert!(report.metrics.suspicions_cleared > 0, "{}", report.metrics);
}

// ---------------------------------------------------------------------------
// Retry policies

/// Crash every site after the prepare acks land but before the commit
/// messages deliver: phase 2 must not give up, and once the participants
/// recover the transaction converges to commit.
fn commit_gather_run(retry: RetryPolicy) -> SimReport {
    let config = SimConfig {
        seed: 5,
        clients: 1,
        auto_workload: false,
        retry,
        // Zero-jitter network: every hop is exactly 500 µs, so the 2PC
        // timeline below is exact.
        network: NetworkConfig {
            min_latency: SimDuration::from_micros(500),
            max_latency: SimDuration::from_micros(500),
            drop_probability: 0.0,
        },
        duration: SimDuration::from_millis(60),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(config, proto());
    sim.schedule_transaction(
        SimTime::ZERO,
        arbitree_sim::ClientId(0),
        TxnRequest::write(arbitree_sim::ObjectId(0), Bytes::from_static(b"v")),
    );
    // Timeline: read round 0→1000, prepare 1000→2000 (acks back at 2000),
    // commit sent at 2000, delivered at 2500. Crash inside (2000, 2500):
    // every prepared participant is down when the commit arrives.
    for s in all_sites() {
        sim.schedule_crash(SimTime::from_micros(2300), s);
    }
    for s in all_sites() {
        sim.schedule_recover(SimTime::from_millis(19), s);
    }
    sim.run()
}

#[test]
fn commit_gather_converges_after_crash_recovery() {
    let report = commit_gather_run(RetryPolicy::Fixed);
    assert!(report.consistent);
    assert_eq!(report.metrics.txns_ok, 1, "{}", report.metrics);
    assert_eq!(report.ops_incomplete, 0);
    // Phase 2 kept re-sending across the 17 ms outage (3 ms timeout).
    assert!(
        report.metrics.retries_commit >= 4,
        "retries_commit = {}",
        report.metrics.retries_commit
    );
}

#[test]
fn backoff_reduces_commit_resends() {
    let fixed = commit_gather_run(RetryPolicy::Fixed);
    let exp = commit_gather_run(RetryPolicy::Exponential {
        cap: SimDuration::from_millis(24),
        jitter: 0.0,
    });
    // Both converge to the same committed outcome...
    for r in [&fixed, &exp] {
        assert!(r.consistent);
        assert_eq!(r.metrics.txns_ok, 1);
        assert_eq!(r.ops_incomplete, 0);
    }
    // ...but backoff spaces the doomed re-sends out (3, 6, 12 ms instead
    // of a 3 ms drumbeat), so it spends strictly fewer retries.
    assert!(
        exp.metrics.retries_commit < fixed.metrics.retries_commit,
        "exponential {} vs fixed {}",
        exp.metrics.retries_commit,
        fixed.metrics.retries_commit
    );
    assert!(exp.metrics.retries_commit >= 1);
}

/// Under a sustained 50 % message-drop window, exponential backoff fires
/// fewer timeouts (and sends fewer messages) than fixed-interval retry.
#[test]
fn backoff_is_cheaper_under_drop_burst() {
    let run = |retry: RetryPolicy| -> SimReport {
        let config = SimConfig {
            seed: 41,
            retry,
            max_attempts: 8,
            duration: SimDuration::from_millis(300),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config, proto());
        let burst = Nemesis::drop_burst(
            NetworkConfig::default(),
            0.5,
            SimTime::from_millis(20),
            SimDuration::from_millis(200),
        );
        sim.schedule_nemesis(&burst);
        sim.run()
    };

    let fixed = run(RetryPolicy::Fixed);
    let exp = run(RetryPolicy::Exponential {
        cap: SimDuration::from_millis(24),
        jitter: 0.25,
    });
    assert!(fixed.consistent && exp.consistent);
    assert!(
        exp.metrics.timeouts_fired < fixed.metrics.timeouts_fired,
        "exponential {} vs fixed {} timeouts",
        exp.metrics.timeouts_fired,
        fixed.metrics.timeouts_fired
    );
}

/// A chaos run — churn, nemesis, exponential backoff with jitter — is a
/// pure function of its seed: same seed, byte-identical report; different
/// seed, different execution.
#[test]
fn chaos_runs_are_deterministic_per_seed() {
    let run = |seed: u64| -> SimReport {
        let config = SimConfig {
            seed,
            retry: RetryPolicy::Exponential {
                cap: SimDuration::from_millis(24),
                jitter: 0.5,
            },
            duration: SimDuration::from_millis(200),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(config, proto());
        let nemesis = build_profile(
            NemesisKind::PartitionCycles,
            &[vec![SiteId::new(1), SiteId::new(2), SiteId::new(3)]],
            NetworkConfig::default(),
            SimDuration::from_millis(200),
            seed,
        );
        sim.schedule_nemesis(&nemesis);
        sim.run()
    };

    let a = run(77);
    let b = run(77);
    assert_eq!(a, b, "same seed must replay identically");
    let c = run(78);
    assert_ne!(
        a.metrics.messages_sent, c.metrics.messages_sent,
        "different seeds should diverge"
    );
}

// ---------------------------------------------------------------------------
// Anti-entropy chaos cells: long partition + heal, amnesia cold start

/// The long-partition profile: one level is cut off for half the run and
/// healed late. Operations fail while it holds, service resumes after the
/// heal, and the whole execution stays one-copy consistent with no reply
/// ever served by a non-`Serving` site.
#[test]
fn long_partition_heals_and_recovers_service() {
    for seed in 0..3u64 {
        let config = SimConfig {
            seed: 900 + seed,
            duration: SimDuration::from_millis(400),
            ..SimConfig::default()
        };
        let p = proto();
        let levels: Vec<Vec<_>> = p
            .tree()
            .physical_levels()
            .iter()
            .map(|&k| p.tree().level_sites(k).to_vec())
            .collect();
        let nemesis = build_profile(
            NemesisKind::LongPartition,
            &levels,
            NetworkConfig::default(),
            SimDuration::from_millis(400),
            seed,
        );
        let mut sim = Simulation::new(config, proto());
        sim.schedule_nemesis(&nemesis);
        let report = sim.run();
        assert!(
            report.consistent,
            "seed {seed}: {} violations",
            report.violations
        );
        assert_eq!(report.metrics.sync_violations, 0, "seed {seed}");
        assert!(
            report.metrics.dropped_partition > 0,
            "seed {seed}: partition never bit ({})",
            report.metrics
        );
        assert!(report.metrics.ops_ok() > 0, "seed {seed}");
    }
}

/// The amnesia-cold-start profile under live Zipfian traffic: a site loses
/// its storage mid-run, rejoins through staged anti-entropy while hot-key
/// writes keep flowing, completes the rejoin, and serves again — zero 1SR
/// violations, zero replies from a non-`Serving` site, and the `Syncing`
/// health gate visibly exercised across the cells.
#[test]
fn amnesia_cold_start_under_zipfian_traffic() {
    let mut total_rejoins = 0;
    let mut total_refused = 0;
    for seed in 0..4u64 {
        let config = SimConfig {
            seed: 1300 + seed,
            objects: 8,
            object_distribution: ObjectDistribution::Zipfian { exponent: 1.0 },
            read_fraction: 0.4,
            duration: SimDuration::from_millis(500),
            ..SimConfig::default()
        };
        let p = proto();
        let levels: Vec<Vec<_>> = p
            .tree()
            .physical_levels()
            .iter()
            .map(|&k| p.tree().level_sites(k).to_vec())
            .collect();
        let nemesis = build_profile(
            NemesisKind::AmnesiaColdStart,
            &levels,
            NetworkConfig::default(),
            SimDuration::from_millis(500),
            seed,
        );
        let mut sim = Simulation::new(config, proto());
        sim.schedule_nemesis(&nemesis);
        let report = sim.run();
        assert!(
            report.consistent,
            "seed {seed}: {} violations",
            report.violations
        );
        assert_eq!(report.metrics.sync_violations, 0, "seed {seed}");
        assert_eq!(
            report.metrics.rejoins_completed, 1,
            "seed {seed}: {}",
            report.metrics
        );
        assert!(report.metrics.sync_keys_transferred > 0, "seed {seed}");
        total_rejoins += report.metrics.rejoins_completed;
        total_refused += report.metrics.messages_refused_syncing;
    }
    assert!(total_rejoins >= 4);
    // At least one cell caught in-flight quorum traffic against the
    // Syncing health gate (routed around, not served).
    assert!(
        total_refused > 0,
        "no cell ever exercised the Syncing refusal gate"
    );
}

// ---------------------------------------------------------------------------
// Replay stability across the event-engine swap
//
// The calendar-queue/slab engine must be *semantically invisible*: the same
// seeds must produce byte-identical executions before and after the swap.
// These tests pin FNV-1a hashes of full deterministic transcripts — a
// 24-cell chaos campaign, the throughput sweep's smoke shape, and the
// repair sweep's smoke shape — captured on the pre-swap `BTreeMap` queue.
// Any divergence in event order, payload contents, or metric accounting
// moves the hash.

/// FNV-1a 64 over a transcript string (the workspace vendors no external
/// hash crates; `DefaultHasher` is not stable across toolchains).
fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The deterministic columns of one chaos/throughput cell: every integer
/// metric plus the consistency verdict (wall-clock excluded by
/// construction — `SimMetrics` carries only simulated quantities).
fn report_transcript(label: &str, report: &SimReport) -> String {
    format!(
        "{label}|{}|violations={}|consistent={}|incomplete={}\n",
        report.metrics, report.violations, report.consistent, report.ops_incomplete
    )
}

/// A 24-cell chaos campaign — 3 seeds × (churn baseline + 7 nemesis
/// profiles) — mirroring the `chaos` bin's cell construction at a reduced
/// per-cell duration, hashed into one pinned fingerprint.
#[test]
fn chaos_campaign_is_pinned_across_engine_swaps() {
    const SPEC: &str = "1-3-5";
    let duration = SimDuration::from_millis(400);
    let mttf = SimDuration::from_millis(240);
    let mttr = SimDuration::from_millis(60);
    let p = steady_state_uptime(mttf.as_micros() as f64, mttr.as_micros() as f64);
    let probe = ArbitraryProtocol::parse(SPEC).unwrap();
    let predicted_read = probe.read_availability(p);
    let predicted_write = probe.write_availability(p);
    let levels: Vec<Vec<_>> = probe
        .tree()
        .physical_levels()
        .iter()
        .map(|&k| probe.tree().level_sites(k).to_vec())
        .collect();
    let n_sites = probe.tree().replica_count();

    let mut cells = Vec::new();
    for seed_idx in 0..3u64 {
        for (profile_idx, profile) in [None]
            .into_iter()
            .chain(NemesisKind::ALL.map(Some))
            .enumerate()
        {
            let seed = cell_seed(0xC4A0_5EED, seed_idx * 64 + profile_idx as u64);
            let config = SimConfig {
                seed,
                duration,
                max_attempts: 3,
                think_time: SimDuration::from_millis(40),
                retry: RetryPolicy::Exponential {
                    cap: SimDuration::from_millis(24),
                    jitter: 0.25,
                },
                ..SimConfig::default()
            };
            let churn = FailureSchedule::random(n_sites, duration, mttf, mttr, seed ^ 0xF417);
            let name = profile.map_or("churn", NemesisKind::name);
            let mut cell = ExperimentCell::new(
                format!("{name} s{seed_idx}"),
                config,
                ArbitraryProtocol::parse(SPEC).unwrap(),
            )
            .with_failures(churn);
            if let Some(kind) = profile {
                let nemesis =
                    build_profile(kind, &levels, cell.config.network, duration, seed ^ 0xBAD);
                cell = cell.with_nemesis(nemesis);
            }
            cells.push(ChaosCell {
                cell,
                predicted_read,
                predicted_write,
            });
        }
    }
    assert_eq!(cells.len(), 24);

    let outcomes = run_chaos_campaign(cells);
    let mut transcript = String::new();
    for o in &outcomes {
        transcript.push_str(&report_transcript(&o.label, &o.report));
        assert!(o.report.consistent, "{}: violations", o.label);
        assert_eq!(o.report.metrics.sync_violations, 0, "{}", o.label);
    }
    assert_eq!(
        fnv1a64(&transcript),
        PINNED_CHAOS_CAMPAIGN,
        "24-cell chaos campaign diverged from the pre-swap queue:\n{transcript}"
    );
}

/// The throughput sweep's smoke shape — shards × distribution × batching
/// over a sharded keyspace — run through `Simulation::from_shards` and
/// hashed. Pins the batching/outbox path (coalesced envelopes, per-
/// destination buffers) across the engine swap.
#[test]
fn throughput_smoke_table_is_pinned_across_engine_swaps() {
    const SPEC: &str = "1-3-5";
    let dists: [(&str, ObjectDistribution); 2] = [
        ("uniform", ObjectDistribution::Uniform),
        ("zipfian", ObjectDistribution::Zipfian { exponent: 1.0 }),
    ];
    let mut cells = Vec::new();
    let mut idx = 0u64;
    for shards in [1usize, 4, 16] {
        for (dist_name, dist) in dists {
            for batching in [false, true] {
                let seed = cell_seed(0x7B40_0B47, idx);
                idx += 1;
                cells.push((shards, dist_name, batching, seed, dist));
            }
        }
    }
    let outcomes =
        arbitree_sim::parallel_map(cells, |(shards, dist_name, batching, seed, dist)| {
            let config = SimConfig {
                seed,
                clients: 8,
                objects: 65_536,
                duration: SimDuration::from_millis(30),
                think_time: SimDuration::from_micros(300),
                read_fraction: 0.5,
                max_txn_ops: 16,
                shards,
                batching,
                object_distribution: dist,
                ..SimConfig::default()
            };
            let protocols: Vec<Box<dyn ReplicaControl>> = (0..shards)
                .map(|_| {
                    Box::new(ArbitraryProtocol::parse(SPEC).unwrap()) as Box<dyn ReplicaControl>
                })
                .collect();
            let mut sim = Simulation::from_shards(config, protocols);
            let report = sim.run();
            (format!("s={shards} {dist_name} batch={batching}"), report)
        });
    let mut transcript = String::new();
    for (label, report) in &outcomes {
        assert!(report.consistent, "{label}");
        transcript.push_str(&report_transcript(label, report));
    }
    assert_eq!(
        fnv1a64(&transcript),
        PINNED_THROUGHPUT_SMOKE,
        "throughput smoke table diverged from the pre-swap queue:\n{transcript}"
    );
}

/// The repair sweep's smoke shape — anti-entropy reconciliation message
/// counts at divergence d ∈ {2^4 … 2^8} over a 2^14-key strided store.
/// No simulator events run here; pinning it guards the `RangeFill`
/// payload path's data (`arbitree-sync` digests) against accidental
/// coupling to the engine rework.
#[test]
fn repair_smoke_table_is_pinned_across_engine_swaps() {
    use arbitree_sync::{item_hash, respond, HTree, Response, Session};
    let n: u64 = 1 << 14;
    let stride = (1u64 << 32) / n;
    let mut src = HTree::new();
    for i in 0..n {
        // arbitree-lint: allow(D004) — i * stride < 2^32 for i < n
        let key = (i * stride) as u32;
        src.insert(key, item_hash(key, 1, 0, &key.to_le_bytes()));
    }
    let mut transcript = String::new();
    for e in 4..=8u32 {
        let d = 1u64 << e;
        let mut dst = src.clone();
        let gap = n / d;
        for j in 0..d {
            // arbitree-lint: allow(D004) — store keys fit u32 by construction
            let key = ((j * gap + gap / 2) * stride) as u32;
            assert!(dst.remove(key));
        }
        let mut session = Session::new();
        let (mut messages, mut rounds, mut filled) = (0u64, 0u64, 0u64);
        let mut reqs = Vec::new();
        while !session.is_done() {
            session.take_requests(&dst, usize::MAX, &mut reqs);
            assert!(!reqs.is_empty());
            rounds += 1;
            for &(range, digest) in &reqs {
                messages += 2;
                let resp = respond(&src, range, digest);
                if resp == Response::Fill {
                    for k in src.range_keys(range) {
                        if dst.item(k) != src.item(k) {
                            filled += 1;
                            dst.insert(k, src.item(k).unwrap());
                        }
                    }
                }
                assert!(session.on_response(&dst, range, &resp));
            }
        }
        assert!(dst == src);
        transcript.push_str(&format!(
            "d={d}|msgs={messages}|rounds={rounds}|keys={filled}\n"
        ));
    }
    assert_eq!(
        fnv1a64(&transcript),
        PINNED_REPAIR_SMOKE,
        "repair smoke table diverged:\n{transcript}"
    );
}

/// Pre-swap fingerprints, captured on the `BTreeMap`-backed queue before
/// the calendar-queue engine landed. The engine swap must not move them.
/// The chaos and repair pins were re-taken once when the anti-entropy
/// responder began filling empty and sparse ranges whole instead of only
/// 16-key leaves: both run range-hash reconciliation, so its message
/// counts (repair: 226 → 98 messages and 8 → 4 rounds at d = 16) and the
/// chaos cells' rejoin timing move by design. The chaos pin was re-taken
/// once more when a rejoin began syncing from one serving mate of each
/// write quorum holding the site instead of from a whole read quorum per
/// shard: the cells' amnesia rejoins draw other sources and send fewer
/// probes. The throughput pin was re-taken once when the read phase began
/// reading all of a transaction's objects in one round whatever
/// `batching` says, and a read retry began re-sending only the objects
/// still owed a response: its unbatched cells' multi-object reads finish
/// in one round trip instead of one per object, so every later event
/// moves. The chaos pin was re-taken once when a transaction's first
/// attempt at a phase began timing out after its client's measured round
/// trip instead of `op_timeout`, and a read retry stopped asking members
/// that already answered: the cells' lost messages and crashed members
/// are detected sooner, so every later event moves. The throughput pin was
/// re-taken once more when a transaction began releasing its shared locks
/// when its read round ends instead of after its last commit ack: in its
/// multi-object cells a writer queued behind a reader is granted its lock
/// a prepare and a commit round earlier, so every later event moves. The
/// chaos cells run single-object transactions, which never hold a shared
/// lock beside an exclusive one, so their pin stays. The chaos pin was
/// re-taken once more when the first attempt of every phase, not only of
/// a transaction's first phase, began timing out after the measured round
/// trip, and a clean phase after a retried one began feeding the
/// estimator: in the cells where a read or prepare retried, the later
/// phases' lost messages and crashed members are detected sooner, so every
/// later event moves. Building each site's range tree on its first read
/// moved no pin.
const PINNED_CHAOS_CAMPAIGN: u64 = 13320528451219615982;
const PINNED_THROUGHPUT_SMOKE: u64 = 6783014923214119916;
const PINNED_REPAIR_SMOKE: u64 = 8898867257685442620;

/// Every coordinator branch under one hash: batching {off, on} ×
/// read-repair {off, on}, each on a plain run and on a faulty one (lossy
/// links, random crashes, and a live reconfiguration to `majority`). Each
/// cell's transcript is the full `{:#?}` metrics and history dump that
/// `replay.rs` compares, so any change to the order of RNG draws, sends,
/// checker calls, history records or metric insertions moves the hash.
/// The summed counters prove the grid reaches read-repair, read, prepare
/// and commit retries, migration writes and batch coalescing.
#[test]
fn coordinator_branches_are_pinned() {
    let duration = SimDuration::from_millis(300);
    let mut transcript = String::new();
    let mut totals = [0u64; 6];
    for batching in [false, true] {
        for read_repair in [false, true] {
            for faulty in [false, true] {
                let config = SimConfig {
                    seed: 0xC0_0D1A,
                    objects: 12,
                    max_txn_ops: 4,
                    read_fraction: 0.5,
                    batching,
                    read_repair,
                    record_history: true,
                    duration,
                    retry: RetryPolicy::Exponential {
                        cap: SimDuration::from_millis(24),
                        jitter: 0.5,
                    },
                    network: NetworkConfig {
                        drop_probability: if faulty { 0.02 } else { 0.0 },
                        ..NetworkConfig::default()
                    },
                    ..SimConfig::default()
                };
                let mut sim = Simulation::new(config, proto());
                if faulty {
                    let n = proto().tree().replica_count();
                    FailureSchedule::random(
                        n,
                        duration,
                        SimDuration::from_millis(400),
                        SimDuration::from_millis(20),
                        0x5EED,
                    )
                    .apply(&mut sim);
                    sim.schedule_reconfigure(
                        SimTime::from_millis(100),
                        arbitree_baselines::Majority::new(n),
                    );
                }
                let report = sim.run();
                let label =
                    format!("batching={batching} read_repair={read_repair} faulty={faulty}");
                assert!(
                    report.consistent,
                    "{label}: {} violations",
                    report.violations
                );
                let m = &report.metrics;
                for (total, v) in totals.iter_mut().zip([
                    m.repairs_sent,
                    m.retries_read,
                    m.retries_prepare,
                    m.retries_commit,
                    m.migration_writes,
                    m.batched_payloads,
                ]) {
                    *total += v;
                }
                transcript.push_str(&format!(
                    "{label}\nmetrics={:#?}\nhistory={:#?}\nviolations={} consistent={} \
                     incomplete={} reads_checked={} writes_recorded={}\n",
                    report.metrics,
                    report.history,
                    report.violations,
                    report.consistent,
                    report.ops_incomplete,
                    report.reads_checked,
                    report.writes_recorded,
                ));
            }
        }
    }
    let names = [
        "repairs_sent",
        "retries_read",
        "retries_prepare",
        "retries_commit",
        "migration_writes",
        "batched_payloads",
    ];
    for (name, total) in names.iter().zip(totals) {
        assert!(total > 0, "the grid never reached {name}");
    }
    assert_eq!(
        fnv1a64(&transcript),
        PINNED_COORDINATOR_BRANCHES,
        "coordinator branch grid diverged (totals {totals:?})"
    );
}

/// Captured before the coordinator's per-object entries replaced its
/// per-phase containers; that refactor must not move it. Re-taken once
/// when the read phase became one round over every object whatever
/// `batching` says, with a read retry re-sending only the objects still
/// owed a response: the unbatched cells read their multi-object
/// transactions in parallel, and the batched cells' read retries pick
/// fewer quorums. Re-taken once more when first attempts began timing out
/// after the client's measured round trip (the faulty cells detect losses
/// sooner), a read retry stopped asking members that already answered,
/// and the metrics began splitting latency by phase (`phase_time` is part
/// of the dump). Re-taken once more when a transaction began releasing its
/// shared locks when its read round ends, and checking its reads then:
/// in the four-object cells writers queued behind readers are granted
/// their locks earlier, so every later event moves. Re-taken once more
/// when every phase's first attempt, whatever earlier phases did, began
/// timing out after the measured round trip instead of a backed-off
/// `op_timeout`: the faulty cells' phases that follow a retry detect a
/// loss or a crash sooner, so every later event moves.
const PINNED_COORDINATOR_BRANCHES: u64 = 15840660978249377250;

/// Amnesia cold start layered over uncorrelated churn (the chaos-campaign
/// composition): still consistent, still no service from Syncing sites.
#[test]
fn amnesia_cold_start_with_background_churn() {
    use arbitree_sim::FailureSchedule;
    for seed in 0..3u64 {
        let duration = SimDuration::from_millis(500);
        let config = SimConfig {
            seed: 1700 + seed,
            duration,
            ..SimConfig::default()
        };
        let churn = FailureSchedule::random(
            8,
            duration,
            SimDuration::from_millis(240),
            SimDuration::from_millis(60),
            seed ^ 0xF417,
        );
        let mut sim = Simulation::new(config, proto());
        churn.apply(&mut sim);
        sim.schedule_nemesis(&Nemesis::amnesia_cold_start(
            SiteId::new(4),
            SimTime::from_millis(100),
            SimDuration::from_millis(80),
        ));
        let report = sim.run();
        assert!(
            report.consistent,
            "seed {seed}: {} violations",
            report.violations
        );
        assert_eq!(report.metrics.sync_violations, 0, "seed {seed}");
    }
}
