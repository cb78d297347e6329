//! The `tapo live` summary counters the benchmark reads.
//!
//! The daemon ends its JSON-lines stream with one `"kind":"summary"`
//! object rendered from [`LiveSummary`]. The benchmark checks packet
//! accounting and reports lifecycle counters from it, so it reads exactly
//! these fields — and the tests pin them to the library struct.

use tapo::json::Json;
use tapo::live::LiveSummary;

/// Counters taken from a live summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveCounts {
    /// Packets decoded and processed.
    pub packets: u64,
    /// Frames the reader could not decode.
    pub packets_skipped: u64,
    /// Trailing records cut short.
    pub records_truncated: u64,
    /// Packets for flows already finalized (shed or closed).
    pub packets_late: u64,
    /// Interval reports emitted.
    pub intervals: u64,
    /// Flows admitted.
    pub flows_seen: u64,
    /// Flows finalized early by the flow cap.
    pub flows_shed: u64,
    /// High-water mark of tracked flows.
    pub max_active_flows: u64,
    /// Light → heavy promotions.
    pub promotions: u64,
    /// Heavy → light demotions.
    pub demotions: u64,
    /// Promotions refused by the heavy cap.
    pub promotions_denied: u64,
    /// High-water mark of heavy flows.
    pub max_heavy_flows: u64,
}

impl LiveCounts {
    /// Read the counters from the library summary.
    pub fn from_summary(s: &LiveSummary) -> LiveCounts {
        LiveCounts {
            packets: s.packets,
            packets_skipped: s.packets_skipped,
            records_truncated: s.records_truncated,
            packets_late: s.packets_late,
            intervals: s.intervals,
            flows_seen: s.flows_seen,
            flows_shed: s.flows_shed,
            max_active_flows: s.max_active_flows,
            promotions: s.promotions,
            demotions: s.demotions,
            promotions_denied: s.promotions_denied,
            max_heavy_flows: s.max_heavy_flows,
        }
    }

    /// Read the counters from a report stream's summary line; `None` when
    /// the stream has no summary or a field is missing.
    pub fn from_stream(stream: &[u8]) -> Option<LiveCounts> {
        let text = std::str::from_utf8(stream).ok()?;
        let line = text
            .lines()
            .rev()
            .find(|l| l.starts_with("{\"kind\":\"summary\""))?;
        let doc = Json::parse(line).ok()?;
        let f = |k: &str| doc.get(k).and_then(Json::as_u64);
        Some(LiveCounts {
            packets: f("packets")?,
            packets_skipped: f("packets_skipped")?,
            records_truncated: f("records_truncated")?,
            packets_late: f("packets_late")?,
            intervals: f("intervals")?,
            flows_seen: f("flows_seen")?,
            flows_shed: f("flows_shed")?,
            max_active_flows: f("max_active_flows")?,
            promotions: f("promotions")?,
            demotions: f("demotions")?,
            promotions_denied: f("promotions_denied")?,
            max_heavy_flows: f("max_heavy_flows")?,
        })
    }

    /// Fold another daemon's counters in (sums; high-water marks too, as
    /// the fleet's total).
    pub fn add(&mut self, o: &LiveCounts) {
        self.packets += o.packets;
        self.packets_skipped += o.packets_skipped;
        self.records_truncated += o.records_truncated;
        self.packets_late += o.packets_late;
        self.intervals += o.intervals;
        self.flows_seen += o.flows_seen;
        self.flows_shed += o.flows_shed;
        self.max_active_flows += o.max_active_flows;
        self.promotions += o.promotions;
        self.demotions += o.demotions;
        self.promotions_denied += o.promotions_denied;
        self.max_heavy_flows += o.max_heavy_flows;
    }
}
