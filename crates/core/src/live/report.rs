//! Fixed-shape periodic reports and the end-of-run summary.
//!
//! Every interval the driver emits one [`IntervalReport`] — a snapshot a
//! monitoring pipeline can ingest as JSON-lines or CSV without schema
//! discovery: every field and every cause-class column is always present,
//! zero when idle. Under the partitioned front end each report is the fold
//! of per-shard [`IntervalDelta`](super::IntervalDelta) sub-reports merged
//! in canonical shard order at a cut barrier, and every value is derived
//! from integer counters (durations in integer microseconds, rates from
//! integer division inputs), so the rendered bytes are identical at any
//! shard count.

use simnet::time::SimDuration;
use tcp_trace::flow::FlowKey;

use super::config::DaemonId;
use super::shard::PortDelta;
use crate::causes::{RetransClass, StallClass};
use crate::fleet::sketch::QSketch;
use crate::json::Json;
use crate::report::StallBreakdown;
use crate::FlowAnalysis;

/// Machine-friendly column/key slug for a stall class (labels carry dots
/// and spaces; slugs are stable identifiers).
pub fn class_slug(class: StallClass) -> &'static str {
    match class {
        StallClass::DataUnavailable => "data_unavailable",
        StallClass::ResourceConstraint => "resource_constraint",
        StallClass::ClientIdle => "client_idle",
        StallClass::ZeroWindow => "zero_window",
        StallClass::PacketDelay => "packet_delay",
        StallClass::Retransmission => "retransmission",
        StallClass::Undetermined => "undetermined",
    }
}

/// Machine-friendly slug for a retransmission subclass.
pub fn retrans_slug(class: RetransClass) -> &'static str {
    match class {
        RetransClass::DoubleRetrans => "double_retrans",
        RetransClass::TailRetrans => "tail_retrans",
        RetransClass::SmallCwnd => "small_cwnd",
        RetransClass::SmallRwnd => "small_rwnd",
        RetransClass::ContinuousLoss => "continuous_loss",
        RetransClass::AckDelayLoss => "ack_delay_loss",
        RetransClass::Undetermined => "undetermined",
    }
}

fn breakdown_json(b: &StallBreakdown) -> Json {
    let by_cause = Json::Obj(
        StallClass::ALL
            .into_iter()
            .map(|c| {
                let (n, t) = b.cause_stats(c);
                (
                    class_slug(c).to_string(),
                    Json::obj([("n", Json::from(n)), ("us", Json::from(t.as_micros()))]),
                )
            })
            .collect(),
    );
    let by_retrans = Json::Obj(
        RetransClass::ALL
            .into_iter()
            .map(|c| {
                let (n, t) = b.retrans_stats(c);
                (
                    retrans_slug(c).to_string(),
                    Json::obj([("n", Json::from(n)), ("us", Json::from(t.as_micros()))]),
                )
            })
            .collect(),
    );
    Json::obj([
        ("stalls", Json::from(b.total_stalls)),
        ("stalled_us", Json::from(b.total_stalled.as_micros())),
        ("by_cause", by_cause),
        ("by_retrans", by_retrans),
    ])
}

/// Per-server-port slice as a JSON object keyed by port number, in
/// ascending port order (the list is kept sorted by construction).
fn by_port_json(by_port: &[(u16, PortDelta)]) -> Json {
    Json::Obj(
        by_port
            .iter()
            .map(|(port, d)| {
                (
                    port.to_string(),
                    Json::obj([
                        ("flows", Json::from(d.flows)),
                        ("stalls", Json::from(d.stalls)),
                        ("stalled_us", Json::from(d.stalled_us)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The `"sketches"` section shared by interval and summary records:
/// canonical [`QSketch`] wire forms keyed by what they measure.
fn sketches_json(rtt: &QSketch, stall: &QSketch) -> Json {
    Json::obj([("rtt_us", rtt.to_json()), ("stall_us", stall.to_json())])
}

/// One interval's snapshot of the live pipeline.
#[derive(Debug, Clone)]
pub struct IntervalReport {
    /// Which daemon produced this report (fleet-ingestion attribution).
    pub daemon: DaemonId,
    /// Interval index: `start_us / interval_us` (gaps mean idle intervals,
    /// which are skipped rather than emitted empty).
    pub interval: u64,
    /// Interval start (inclusive), capture time in microseconds.
    pub start_us: u64,
    /// Interval end (exclusive), capture time in microseconds.
    pub end_us: u64,
    /// Packets processed in this interval.
    pub packets: u64,
    /// Malformed / non-IPv4-TCP packets skipped by the reader.
    pub packets_skipped: u64,
    /// Packets dropped because their flow was already evicted or shed.
    pub packets_late: u64,
    /// Flows opened.
    pub flows_opened: u64,
    /// Flows finalized for any reason (FIN/RST linger, idle, shed, reopen).
    pub flows_finalized: u64,
    /// Finalized after FIN/RST (teardown or a reopening SYN).
    pub flows_closed: u64,
    /// Finalized by idle timeout.
    pub flows_evicted_idle: u64,
    /// Finalized by LRU shedding at the flow-table cap.
    pub flows_shed: u64,
    /// Flows tracked at the end of the interval.
    pub active_flows: u64,
    /// Of the active flows, those in the compact light tier (equals
    /// `active_flows` minus `flows_heavy`; under always-heavy mode, 0).
    pub flows_light: u64,
    /// Of the active flows, those holding a full analyzer.
    pub flows_heavy: u64,
    /// Light→heavy escalations this interval.
    pub promotions: u64,
    /// Heavy→light hysteresis demotions this interval.
    pub demotions: u64,
    /// Provisional stalls surfaced live by `StreamAnalyzer::push`.
    pub live_stalls: u64,
    /// Stall breakdown over the flows finalized in this interval.
    pub breakdown: StallBreakdown,
    /// Per-server-port slice of the interval (flows finalized and stalls
    /// diagnosed per port), sorted by port. Shard-count-independent;
    /// JSON-only (CSV keeps a fixed width).
    pub by_port: Vec<(u16, PortDelta)>,
    /// RTT-sample sketch over the flows finalized/demoted this interval
    /// (`Some` when sketches are enabled; JSON-only). Partition-invariant,
    /// so present sketches do not perturb cross-shard byte identity.
    pub rtt_sketch: Option<QSketch>,
    /// Stall-duration sketch, same gating and invariance.
    pub stall_sketch: Option<QSketch>,
    /// Per-shard tracked-flow counts — only with `per_shard_occupancy`
    /// (shard-count-dependent, so off by default to keep reports
    /// byte-identical across `--shards`).
    pub shard_occupancy: Option<Vec<usize>>,
}

impl IntervalReport {
    /// Packets per second over the interval (from integer inputs, so the
    /// rendering is deterministic).
    pub fn pkts_per_sec(&self) -> f64 {
        let span_us = self.end_us.saturating_sub(self.start_us);
        if span_us == 0 {
            0.0
        } else {
            self.packets as f64 * 1e6 / span_us as f64
        }
    }

    /// The report as a JSON object (render with [`Json::compact`] for
    /// JSON-lines output).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("kind", Json::from("interval")),
            ("daemon", Json::from(self.daemon.as_str())),
            ("interval", Json::from(self.interval)),
            ("start_us", Json::from(self.start_us)),
            ("end_us", Json::from(self.end_us)),
            ("packets", Json::from(self.packets)),
            ("pkts_per_sec", Json::from(self.pkts_per_sec())),
            ("packets_skipped", Json::from(self.packets_skipped)),
            ("packets_late", Json::from(self.packets_late)),
            ("flows_opened", Json::from(self.flows_opened)),
            ("flows_finalized", Json::from(self.flows_finalized)),
            ("flows_closed", Json::from(self.flows_closed)),
            ("flows_evicted_idle", Json::from(self.flows_evicted_idle)),
            ("flows_shed", Json::from(self.flows_shed)),
            ("active_flows", Json::from(self.active_flows)),
            ("flows_light", Json::from(self.flows_light)),
            ("flows_heavy", Json::from(self.flows_heavy)),
            ("promotions", Json::from(self.promotions)),
            ("demotions", Json::from(self.demotions)),
            ("live_stalls", Json::from(self.live_stalls)),
            ("breakdown", breakdown_json(&self.breakdown)),
            ("by_port", by_port_json(&self.by_port)),
        ];
        if let (Some(rtt), Some(stall)) = (&self.rtt_sketch, &self.stall_sketch) {
            pairs.push(("sketches", sketches_json(rtt, stall)));
        }
        if let Some(occ) = &self.shard_occupancy {
            pairs.push(("shard_occupancy", Json::from(occ.clone())));
        }
        Json::obj(pairs)
    }

    /// The fixed CSV header matching [`IntervalReport::to_csv_row`].
    pub fn csv_header() -> String {
        let mut h = String::from(
            "daemon,interval,start_us,end_us,packets,pkts_per_sec,packets_skipped,\
             packets_late,flows_opened,flows_finalized,flows_closed,\
             flows_evicted_idle,flows_shed,active_flows,flows_light,\
             flows_heavy,promotions,demotions,live_stalls,\
             stalls,stalled_us",
        );
        for c in StallClass::ALL {
            h.push_str(&format!(",{0}_n,{0}_us", class_slug(c)));
        }
        h
    }

    /// One CSV row (shard occupancy and sketches are JSON-only; CSV keeps
    /// a fixed width). The daemon id's restricted alphabet never needs
    /// quoting, but it goes through [`crate::sink::csv_escape`] anyway so
    /// the row stays correct by construction.
    pub fn to_csv_row(&self) -> String {
        let mut row = format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            crate::sink::csv_escape(self.daemon.as_str()),
            self.interval,
            self.start_us,
            self.end_us,
            self.packets,
            self.pkts_per_sec(),
            self.packets_skipped,
            self.packets_late,
            self.flows_opened,
            self.flows_finalized,
            self.flows_closed,
            self.flows_evicted_idle,
            self.flows_shed,
            self.active_flows,
            self.flows_light,
            self.flows_heavy,
            self.promotions,
            self.demotions,
            self.live_stalls,
            self.breakdown.total_stalls,
            self.breakdown.total_stalled.as_micros(),
        );
        for c in StallClass::ALL {
            let (n, t) = self.breakdown.cause_stats(c);
            row.push_str(&format!(",{},{}", n, t.as_micros()));
        }
        row
    }
}

/// Whole-run totals, produced when the capture ends.
#[derive(Debug, Clone, Default)]
pub struct LiveSummary {
    /// Which daemon produced this summary.
    pub daemon: DaemonId,
    /// Distinct flows opened (key reuse counts each generation).
    pub flows_seen: u64,
    /// Flows finalized (always equals `flows_seen` at EOF).
    pub flows_finalized: u64,
    /// Finalized after FIN/RST.
    pub flows_closed: u64,
    /// Finalized by idle timeout.
    pub flows_evicted_idle: u64,
    /// Finalized by LRU shedding.
    pub flows_shed: u64,
    /// Still open at EOF (finalized with partial data).
    pub flows_eof: u64,
    /// Packets processed.
    pub packets: u64,
    /// Malformed / non-IPv4-TCP packets skipped.
    pub packets_skipped: u64,
    /// Packets dropped on evicted/shed flows.
    pub packets_late: u64,
    /// Truncated trailing pcap records.
    pub records_truncated: u64,
    /// Interval reports emitted.
    pub intervals: u64,
    /// Provisional stalls surfaced live.
    pub live_stalls: u64,
    /// Sum of per-cell concurrent high-water marks — a deterministic,
    /// shard-invariant upper bound on peak concurrency. With `max_flows`
    /// capped it never exceeds the cap (the per-cell quotas sum to it
    /// exactly); with one cell it is the exact global high-water mark.
    pub max_active_flows: u64,
    /// Light→heavy escalations over the whole run.
    pub promotions: u64,
    /// Heavy→light hysteresis demotions over the whole run.
    pub demotions: u64,
    /// Suspicious flows left light because the heavy pool was at its cap
    /// (they retry on their next suspicious packet).
    pub promotions_denied: u64,
    /// Sum of per-cell heavy high-water marks (bounds analyzer-pool
    /// memory; equals `max_active_flows` under always-heavy mode). Like
    /// `max_active_flows`, shard-invariant and never above `heavy_max`
    /// when capped.
    pub max_heavy_flows: u64,
    /// Work batch buffers allocated fresh because the spare ring had
    /// none to recycle, summed over shards in shard order. Telemetry for
    /// the zero-allocation claim: bounded by warmup (ring depth × shards),
    /// never growing in steady state. Deliberately *not* serialized — it
    /// depends on the batch size and shard count, which must not perturb
    /// report bytes.
    pub ring_fresh_buffers: u64,
    /// Work batch buffers reused from the spare ring (the steady state).
    /// Not serialized, same reason as `ring_fresh_buffers`.
    pub ring_recycled_buffers: u64,
    /// Aggregate stall breakdown over every finalized flow.
    pub breakdown: StallBreakdown,
    /// Whole-run per-server-port totals, sorted by port (fold of every
    /// interval's `by_port` slice). JSON-only, like the interval section.
    pub by_port: Vec<(u16, PortDelta)>,
    /// Whole-run RTT-sample sketch (fold of every interval's sketch;
    /// `Some` when sketches are enabled). JSON-only.
    pub rtt_sketch: Option<QSketch>,
    /// Whole-run stall-duration sketch, same gating.
    pub stall_sketch: Option<QSketch>,
    /// Per-flow `(key, packets, analysis)` in open order — populated only
    /// under `collect_flows` (the offline CLI's mode; memory grows with
    /// the flow count).
    pub flows: Vec<(FlowKey, u64, FlowAnalysis)>,
    /// Total stalled time convenience mirror of the breakdown.
    pub stalled: SimDuration,
}

impl LiveSummary {
    /// The summary as a JSON object. Collected per-flow analyses are *not*
    /// serialized; the summary stays shard-count-independent and small.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("kind", Json::from("summary")),
            ("daemon", Json::from(self.daemon.as_str())),
            ("flows_seen", Json::from(self.flows_seen)),
            ("flows_finalized", Json::from(self.flows_finalized)),
            ("flows_closed", Json::from(self.flows_closed)),
            ("flows_evicted_idle", Json::from(self.flows_evicted_idle)),
            ("flows_shed", Json::from(self.flows_shed)),
            ("flows_eof", Json::from(self.flows_eof)),
            ("packets", Json::from(self.packets)),
            ("packets_skipped", Json::from(self.packets_skipped)),
            ("packets_late", Json::from(self.packets_late)),
            ("records_truncated", Json::from(self.records_truncated)),
            ("intervals", Json::from(self.intervals)),
            ("live_stalls", Json::from(self.live_stalls)),
            ("max_active_flows", Json::from(self.max_active_flows)),
            ("promotions", Json::from(self.promotions)),
            ("demotions", Json::from(self.demotions)),
            ("promotions_denied", Json::from(self.promotions_denied)),
            ("max_heavy_flows", Json::from(self.max_heavy_flows)),
            ("breakdown", breakdown_json(&self.breakdown)),
            ("by_port", by_port_json(&self.by_port)),
        ];
        if let (Some(rtt), Some(stall)) = (&self.rtt_sketch, &self.stall_sketch) {
            pairs.push(("sketches", sketches_json(rtt, stall)));
        }
        Json::obj(pairs)
    }

    /// The fixed CSV header matching [`LiveSummary::to_csv_row`].
    pub fn csv_header() -> String {
        let mut h = String::from(
            "daemon,flows_seen,flows_finalized,flows_closed,flows_evicted_idle,\
             flows_shed,flows_eof,packets,packets_skipped,packets_late,\
             records_truncated,intervals,live_stalls,max_active_flows,\
             promotions,demotions,promotions_denied,max_heavy_flows,\
             stalls,stalled_us",
        );
        for c in StallClass::ALL {
            h.push_str(&format!(",{0}_n,{0}_us", class_slug(c)));
        }
        h
    }

    /// One CSV row (collected per-flow analyses are not serialized, as in
    /// [`LiveSummary::to_json`]).
    pub fn to_csv_row(&self) -> String {
        let mut row = format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            crate::sink::csv_escape(self.daemon.as_str()),
            self.flows_seen,
            self.flows_finalized,
            self.flows_closed,
            self.flows_evicted_idle,
            self.flows_shed,
            self.flows_eof,
            self.packets,
            self.packets_skipped,
            self.packets_late,
            self.records_truncated,
            self.intervals,
            self.live_stalls,
            self.max_active_flows,
            self.promotions,
            self.demotions,
            self.promotions_denied,
            self.max_heavy_flows,
            self.breakdown.total_stalls,
            self.breakdown.total_stalled.as_micros(),
        );
        for c in StallClass::ALL {
            let (n, t) = self.breakdown.cause_stats(c);
            row.push_str(&format!(",{},{}", n, t.as_micros()));
        }
        row
    }
}

impl crate::sink::Record for IntervalReport {
    fn header(&self) -> String {
        IntervalReport::csv_header()
    }
    fn csv(&self) -> String {
        self.to_csv_row()
    }
    fn json(&self) -> Json {
        self.to_json()
    }
}

impl crate::sink::Record for LiveSummary {
    fn header(&self) -> String {
        LiveSummary::csv_header()
    }
    fn csv(&self) -> String {
        self.to_csv_row()
    }
    fn json(&self) -> Json {
        self.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> IntervalReport {
        IntervalReport {
            daemon: DaemonId::default(),
            interval: 3,
            start_us: 3_000_000,
            end_us: 4_000_000,
            packets: 500,
            packets_skipped: 0,
            packets_late: 0,
            flows_opened: 2,
            flows_finalized: 1,
            flows_closed: 1,
            flows_evicted_idle: 0,
            flows_shed: 0,
            active_flows: 7,
            flows_light: 5,
            flows_heavy: 2,
            promotions: 1,
            demotions: 0,
            live_stalls: 4,
            breakdown: StallBreakdown::default(),
            by_port: vec![(
                80,
                PortDelta {
                    flows: 1,
                    stalls: 2,
                    stalled_us: 1500,
                },
            )],
            rtt_sketch: None,
            stall_sketch: None,
            shard_occupancy: None,
        }
    }

    #[test]
    fn csv_row_matches_header_width() {
        let header = IntervalReport::csv_header();
        let row = empty_report().to_csv_row();
        assert_eq!(
            header.split(',').count(),
            row.split(',').count(),
            "row and header column counts must match"
        );
        assert!(header.starts_with("daemon,interval,start_us"));
        assert!(row.starts_with("local,3,"));
    }

    #[test]
    fn json_shape_is_fixed_and_single_line() {
        let line = empty_report().to_json().compact();
        assert!(!line.contains('\n'));
        assert!(line.contains("\"kind\":\"interval\",\"daemon\":\"local\""));
        assert!(line.contains("\"pkts_per_sec\":500"));
        for c in StallClass::ALL {
            assert!(line.contains(class_slug(c)), "missing {c:?}");
        }
        assert!(
            line.contains("\"by_port\":{\"80\":{\"flows\":1,\"stalls\":2,\"stalled_us\":1500}}")
        );
        // Occupancy is absent unless explicitly requested, and sketches
        // are absent when disabled.
        assert!(!line.contains("shard_occupancy"));
        assert!(!line.contains("sketches"));
    }

    #[test]
    fn sketches_serialize_when_enabled() {
        let mut r = empty_report();
        let mut rtt = QSketch::new();
        rtt.insert(30_000);
        rtt.insert(31_000);
        let mut stall = QSketch::new();
        stall.insert(2_000_000);
        r.rtt_sketch = Some(rtt.clone());
        r.stall_sketch = Some(stall.clone());
        let line = r.to_json().compact();
        let expected = format!(
            "\"sketches\":{{\"rtt_us\":{},\"stall_us\":{}}}",
            rtt.to_json().compact(),
            stall.to_json().compact()
        );
        assert!(line.contains(&expected), "missing {expected} in {line}");
        // The sketch section is JSON-only: CSV width does not change.
        assert_eq!(
            r.to_csv_row().split(',').count(),
            IntervalReport::csv_header().split(',').count()
        );
        // Round-trip: the wire form parses back to the same sketches.
        let doc = Json::parse(&line).unwrap();
        let s = doc.get("sketches").unwrap();
        assert_eq!(QSketch::from_json(s.get("rtt_us").unwrap()).unwrap(), rtt);
        assert_eq!(
            QSketch::from_json(s.get("stall_us").unwrap()).unwrap(),
            stall
        );
    }

    #[test]
    fn summary_json_omits_collected_flows() {
        let s = LiveSummary {
            flows: vec![],
            ..Default::default()
        };
        let line = s.to_json().compact();
        assert!(line.contains("\"kind\":\"summary\",\"daemon\":\"local\""));
        assert!(line.contains("\"max_heavy_flows\":0"));
        assert!(!line.contains("\"flows\":["));
    }

    #[test]
    fn summary_csv_row_matches_header_width() {
        let header = LiveSummary::csv_header();
        let row = LiveSummary::default().to_csv_row();
        assert_eq!(header.split(',').count(), row.split(',').count());
        assert!(header.starts_with("daemon,flows_seen,flows_finalized"));
        assert!(row.starts_with("local,0,"));
    }
}
