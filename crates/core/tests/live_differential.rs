//! Differential test: the live pipeline over an interleaved multi-flow
//! capture must reproduce the offline analyzer exactly — with the whole
//! front end (flow maps, timers, LRU, light tier, lifecycle) partitioned
//! across shard-owned engines.
//!
//! The pipeline is configured for offline-equivalence (no idle eviction,
//! no FIN linger, no cap — every flow sees all of its packets), the mode
//! offline `tapo <capture>` runs in, so the ordered list of collected
//! `(key, packets, analysis)` must be *equal* to the batch reader's
//! flows in `FlowTable` order, each run through [`analyze_flow`], at 1
//! shard and at 4 shards alike — on an interleaved capture, on one that
//! reuses a 4-tuple, and on one cut off mid-record. Further scenarios turn the knobs back
//! on (cap + shedding + promotion) and check the rendered report lines
//! byte-for-byte across the full shards {1,2,4} × batch {1,256} matrix,
//! and that the aggregated per-shard summary counters match the inline
//! single-shard path exactly.

use simnet::time::{SimDuration, SimTime};
use tapo::live::{self, LiveConfig, TierConfig};
use tapo::{analyze_flow, AnalyzerConfig, FlowAnalysis};
use tcp_trace::flow::FlowKey;
use tcp_trace::pcap::{PcapReader, PcapStats, PcapWriter};
use tcp_trace::record::{Direction, SackList, SegFlags, TraceRecord};
use workloads::{generate_interleaved, LiveGenSpec};

fn interleaved_capture() -> Vec<u8> {
    let spec = LiveGenSpec {
        flows_per_service: 5, // 15 flows total
        seed: 0xd1ff,
        mean_gap: SimDuration::from_millis(10),
        threads: 1,
        ..Default::default()
    };
    let mut buf = Vec::new();
    generate_interleaved(&mut buf, &spec).expect("in-memory generation cannot fail");
    buf
}

/// A handshake-to-FIN exchange on `key` starting at `t0_ms`, as
/// `(key, record)` pairs.
fn short_flow(key: FlowKey, t0_ms: u64) -> Vec<(FlowKey, TraceRecord)> {
    let rec = |t_ms: u64, dir, seq, len, ack, flags| TraceRecord {
        t: SimTime::from_millis(t0_ms + t_ms),
        dir,
        seq,
        len,
        flags,
        ack,
        rwnd: 1 << 20,
        sack: SackList::new(),
        dsack: false,
    };
    let fin = SegFlags {
        fin: true,
        ack: true,
        ..Default::default()
    };
    [
        rec(0, Direction::In, 0, 0, 0, SegFlags::SYN),
        rec(1, Direction::Out, 0, 0, 0, SegFlags::SYN_ACK),
        rec(2, Direction::In, 0, 300, 0, SegFlags::ACK),
        rec(10, Direction::Out, 0, 1448, 300, SegFlags::ACK),
        // A 600 ms gap before the client's ACK: a stall to classify.
        rec(610, Direction::In, 0, 0, 1448, SegFlags::ACK),
        rec(611, Direction::Out, 1448, 0, 300, fin),
        rec(612, Direction::In, 300, 0, 1449, fin),
    ]
    .into_iter()
    .map(|r| (key, r))
    .collect()
}

/// One 4-tuple used twice — FIN, a post-close straggler ACK, then a bare
/// SYN that must open a second flow — interleaved with two other flows.
fn reuse_capture() -> Vec<u8> {
    let k = FlowKey::synthetic(7);
    let mut pkts = short_flow(k, 0);
    let straggler = TraceRecord {
        t: SimTime::from_millis(650),
        ..pkts[4].1
    };
    pkts.push((k, straggler));
    pkts.extend(short_flow(FlowKey::synthetic(8), 5));
    pkts.extend(short_flow(k, 700));
    pkts.extend(short_flow(FlowKey::synthetic(9), 705));
    pkts.sort_by_key(|(_, r)| r.t);
    let mut buf = Vec::new();
    let mut w = PcapWriter::new(&mut buf).expect("in-memory writer");
    for (key, r) in &pkts {
        w.write_record(key, r).expect("in-memory writer");
    }
    w.finish().expect("in-memory writer");
    buf
}

/// The interleaved capture with its last record cut short.
fn truncated_capture() -> Vec<u8> {
    let mut c = interleaved_capture();
    c.truncate(c.len() - 7);
    c
}

/// Offline ground truth: demultiplex with the batch reader and analyze
/// each flow independently, in `FlowTable` (first-seen) order.
fn offline_flows(
    capture: &[u8],
    cfg: AnalyzerConfig,
) -> (Vec<(FlowKey, u64, FlowAnalysis)>, PcapStats) {
    let (flows, stats) = PcapReader::read_all_stats(capture).expect("valid capture");
    let flows = flows
        .iter()
        .map(|t| {
            (
                t.key.expect("pcap flows are keyed"),
                t.records.len() as u64,
                analyze_flow(t, cfg),
            )
        })
        .collect();
    (flows, stats)
}

fn equivalence_config(shards: usize) -> LiveConfig {
    LiveConfig {
        shards,
        // Offline reads the whole capture before analyzing, so nothing is
        // ever evicted early: disable every live-only lifecycle policy.
        idle_timeout: None,
        fin_linger: None,
        max_flows: 0,
        collect_flows: true,
        sketch: false,
        ..Default::default()
    }
}

#[test]
fn live_matches_offline_per_flow_at_1_and_4_shards() {
    let cfg = AnalyzerConfig::default();
    let inputs = [
        ("interleaved", interleaved_capture(), 15, 0),
        ("4-tuple reuse", reuse_capture(), 4, 0),
        ("truncated tail", truncated_capture(), 15, 1),
    ];
    for (name, capture, n_flows, truncated) in inputs {
        let (offline, stats) = offline_flows(&capture, cfg);
        assert_eq!(offline.len(), n_flows, "{name}: offline flow count");
        assert_eq!(stats.packets_skipped, 0, "{name}");
        assert_eq!(stats.records_truncated, truncated, "{name}");
        if name == "4-tuple reuse" {
            assert_eq!(offline[0].0, offline[2].0, "the reused key opens flow #2");
            assert_eq!(offline[0].1, 8, "the straggler stays with the closed flow");
        }

        for shards in [1usize, 4] {
            let summary = live::run(&capture[..], &equivalence_config(shards), |_| {})
                .expect("live run succeeds");
            assert_eq!(
                summary.flows.len(),
                offline.len(),
                "{name}, {shards} shards: live tracked a different flow set"
            );
            for (i, (live_flow, expected)) in summary.flows.iter().zip(&offline).enumerate() {
                assert_eq!(
                    live_flow, expected,
                    "{name}, {shards} shards: flow #{i} diverged from the offline reference"
                );
            }
            assert_eq!(summary.packets, stats.packets, "{name}, {shards} shards");
            assert_eq!(summary.packets_skipped, stats.packets_skipped);
            assert_eq!(summary.records_truncated, stats.records_truncated);
            // The aggregate mirrors the per-flow equality.
            let mut offline_breakdown = tapo::StallBreakdown::default();
            for (_, _, a) in &offline {
                offline_breakdown.add_flow(a);
            }
            assert_eq!(summary.breakdown, offline_breakdown, "{name}");
            assert_eq!(summary.flows_eof + summary.flows_closed, n_flows as u64);
        }
    }
}

#[test]
fn reports_are_byte_identical_across_shards_even_when_shedding() {
    let capture = interleaved_capture();
    let mut rendered: Vec<String> = Vec::new();
    for shards in [1usize, 2, 4] {
        let cfg = LiveConfig {
            shards,
            interval: SimDuration::from_millis(500),
            idle_timeout: Some(SimDuration::from_secs(5)),
            fin_linger: Some(SimDuration::from_millis(200)),
            max_flows: 6, // force LRU shedding under ~15 concurrent flows
            ..Default::default()
        };
        let mut lines = String::new();
        let summary = live::run(&capture[..], &cfg, |r| {
            lines.push_str(&r.to_json().compact());
            lines.push('\n');
        })
        .expect("live run succeeds");
        assert!(summary.flows_shed > 0, "cap of 6 must shed some flows");
        lines.push_str(&summary.to_json().compact());
        rendered.push(lines);
    }
    assert_eq!(rendered[0], rendered[1], "1 vs 2 shards");
    assert_eq!(rendered[0], rendered[2], "1 vs 4 shards");
}

/// Batched ingestion must keep the byte-identity invariant along *both*
/// axes: any batch size × any shard count produces the same JSON and CSV
/// report stream, with promotion enabled and under `--max-flows`
/// shedding — the exact configuration where a timing-dependent handoff
/// would first diverge (interval cuts land mid-batch, sheds race the
/// in-flight work batches, promotions seed analyzers partway through
/// flows).
#[test]
fn reports_are_byte_identical_across_batch_sizes_and_shards() {
    let capture = interleaved_capture();
    let mut rendered: Vec<(usize, usize, String)> = Vec::new();
    for batch in [1usize, 256] {
        for shards in [1usize, 2, 4] {
            let cfg = LiveConfig {
                shards,
                batch,
                interval: SimDuration::from_millis(500),
                idle_timeout: Some(SimDuration::from_secs(5)),
                fin_linger: Some(SimDuration::from_millis(200)),
                max_flows: 6, // force LRU shedding under ~15 concurrent flows
                tier: Some(TierConfig {
                    demote_streak: 32,
                    ..TierConfig::default()
                }),
                ..Default::default()
            };
            let mut lines = String::new();
            let summary = live::run(&capture[..], &cfg, |r| {
                lines.push_str(&r.to_json().compact());
                lines.push('\n');
                lines.push_str(&r.to_csv_row());
                lines.push('\n');
            })
            .expect("live run succeeds");
            assert!(summary.flows_shed > 0, "cap of 6 must shed some flows");
            assert!(summary.promotions > 0, "capture must exercise promotion");
            lines.push_str(&summary.to_json().compact());
            rendered.push((batch, shards, lines));
        }
    }
    let (b0, s0, baseline) = &rendered[0];
    for (b, s, lines) in &rendered[1..] {
        assert_eq!(
            lines, baseline,
            "batch {b} × {s} shards diverged from batch {b0} × {s0} shards"
        );
    }
}

/// The steady-state handoff must not allocate: after warmup every batch
/// buffer the driver sends comes back on the spare ring and is reused.
/// The summary's recycling counters prove it — fresh allocations are
/// bounded by warmup (at most spare-ring capacity + in-flight slots per
/// shard, independent of capture length), while recycles scale with the
/// number of batches.
#[test]
fn steady_state_handoff_recycles_buffers_instead_of_allocating() {
    let spec = LiveGenSpec {
        flows_per_service: 20, // 60 flows: enough batches to reach steady state
        seed: 0xa110c,
        mean_gap: SimDuration::from_millis(2),
        threads: 1,
        ..Default::default()
    };
    let mut capture = Vec::new();
    generate_interleaved(&mut capture, &spec).expect("in-memory generation cannot fail");

    let cfg = LiveConfig {
        shards: 2,
        batch: 64, // small batches → many flushes → many recycle round-trips
        ..Default::default()
    };
    let summary = live::run(&capture[..], &cfg, |_| {}).expect("live run succeeds");
    let flushes = summary.ring_fresh_buffers + summary.ring_recycled_buffers;
    assert!(flushes > 100, "capture too short to exercise steady state");
    // Warmup bound: each shard's spare ring holds ring_depth + 2 buffers
    // and ring_depth more can be in flight on the forward ring.
    let warmup_cap = (cfg.shards * (2 * cfg.ring_depth + 2)) as u64;
    assert!(
        summary.ring_fresh_buffers <= warmup_cap,
        "fresh allocations ({}) exceed the warmup bound ({warmup_cap}): \
         the hot path is allocating",
        summary.ring_fresh_buffers
    );
    assert!(
        summary.ring_recycled_buffers > summary.ring_fresh_buffers * 4,
        "recycling ({}) should dominate allocation ({}) in steady state",
        summary.ring_recycled_buffers,
        summary.ring_fresh_buffers
    );
}

/// Two-tier mode must keep the byte-identity invariant: promotion and
/// demotion decisions are cell-local (each cell's heavy quota is a fixed
/// slice of the global cap, owned by exactly one shard at any count), so
/// the report stream — including the
/// `flows_light`/`flows_heavy`/`promotions`/`demotions` fields — cannot
/// depend on the shard count.
#[test]
fn two_tier_reports_are_byte_identical_across_shards() {
    let capture = interleaved_capture();
    let mut rendered: Vec<String> = Vec::new();
    let mut promotions = 0;
    for shards in [1usize, 2, 4] {
        let cfg = LiveConfig {
            shards,
            interval: SimDuration::from_millis(500),
            tier: Some(TierConfig {
                demote_streak: 32, // short capture: make demotion reachable
                ..TierConfig::default()
            }),
            ..Default::default()
        };
        let mut lines = String::new();
        let summary = live::run(&capture[..], &cfg, |r| {
            lines.push_str(&r.to_json().compact());
            lines.push('\n');
            lines.push_str(&r.to_csv_row());
            lines.push('\n');
        })
        .expect("live run succeeds");
        promotions = summary.promotions;
        lines.push_str(&summary.to_json().compact());
        rendered.push(lines);
    }
    assert!(
        promotions > 0,
        "capture must exercise promotion for the invariant to mean anything"
    );
    assert_eq!(rendered[0], rendered[1], "two-tier 1 vs 2 shards");
    assert_eq!(rendered[0], rendered[2], "two-tier 1 vs 4 shards");
}

/// The per-shard summary counters — promotions, sheds, late packets,
/// high-water marks, buffer provenance — are accumulated per engine and
/// folded in canonical shard order at shutdown. The folded totals of a
/// parallel run must match the inline `--shards 1` path *exactly*, field
/// by field and in both rendered forms (JSON summary and the CSV report
/// stream). The ring counters themselves are threading artifacts (the
/// inline path has no rings), so for those the invariant is internal
/// consistency, not cross-count equality — and they are deliberately
/// kept out of the rendered summary.
#[test]
fn aggregated_summary_counters_match_the_inline_path_exactly() {
    let capture = interleaved_capture();
    let run_with = |shards: usize| {
        let cfg = LiveConfig {
            shards,
            interval: SimDuration::from_millis(500),
            idle_timeout: Some(SimDuration::from_secs(2)),
            fin_linger: Some(SimDuration::from_millis(200)),
            max_flows: 6, // shedding on
            tier: Some(TierConfig {
                demote_streak: 32,
                heavy_max: 3, // small cap: exercise promotion denials
                ..TierConfig::default()
            }),
            ..Default::default()
        };
        let mut csv = String::new();
        let summary = live::run(&capture[..], &cfg, |r| {
            csv.push_str(&r.to_csv_row());
            csv.push('\n');
        })
        .expect("live run succeeds");
        (summary, csv)
    };
    let (inline, inline_csv) = run_with(1);
    assert!(inline.flows_shed > 0, "cap of 6 must shed");
    // With heavy_max 3 split over 6 cells, half the cells have heavy
    // quota 0 — suspicious flows there are denied, not promoted. Either
    // way the escalation machinery must have fired for the totals below
    // to mean anything.
    assert!(inline.promotions + inline.promotions_denied > 0);
    for shards in [2usize, 4] {
        let (par, par_csv) = run_with(shards);
        assert_eq!(par.flows_seen, inline.flows_seen, "{shards} shards");
        assert_eq!(par.flows_finalized, inline.flows_finalized);
        assert_eq!(par.flows_closed, inline.flows_closed);
        assert_eq!(par.flows_evicted_idle, inline.flows_evicted_idle);
        assert_eq!(par.flows_shed, inline.flows_shed);
        assert_eq!(par.flows_eof, inline.flows_eof);
        assert_eq!(par.packets, inline.packets);
        assert_eq!(par.packets_late, inline.packets_late);
        assert_eq!(par.promotions, inline.promotions);
        assert_eq!(par.demotions, inline.demotions);
        assert_eq!(par.promotions_denied, inline.promotions_denied);
        assert_eq!(par.live_stalls, inline.live_stalls);
        assert_eq!(par.max_active_flows, inline.max_active_flows);
        assert_eq!(par.max_heavy_flows, inline.max_heavy_flows);
        assert_eq!(par.breakdown, inline.breakdown);
        assert_eq!(
            par.to_json().compact(),
            inline.to_json().compact(),
            "{shards} shards: rendered summary diverged"
        );
        assert_eq!(par_csv, inline_csv, "{shards} shards: CSV stream diverged");
        // Inline has no rings at all; parallel runs recycle through them.
        assert_eq!(inline.ring_fresh_buffers + inline.ring_recycled_buffers, 0);
        assert!(par.ring_fresh_buffers > 0, "parallel path must use rings");
    }
}
