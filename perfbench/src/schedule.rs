//! The open-loop schedule: when each packet of a capture is due, and which
//! packet closed each reporting interval.
//!
//! The capture is offered at a fixed packet rate: packet `i` is due
//! `i / rate` seconds after the schedule starts. (Replaying at a multiple
//! of capture time instead makes report lag a property of how sparse each
//! capture's tail is — the p99 ranged from 6 ms to 618 ms over six seeds
//! of the same workload — so no bound could hold it.) `tapo live` emits
//! an interval's report when it processes the first packet with
//! `t >= end_us`, so that packet's due time is when the report could
//! first have been written; report lag is measured from it.

use std::time::Duration;

/// Classic-pcap magic for little-endian, microsecond timestamps — the only
/// shape the workload generator writes.
const MAGIC_LE_US: u32 = 0xa1b2_c3d4;
const GLOBAL_HEADER: usize = 24;
const RECORD_HEADER: usize = 16;

/// Record boundaries and timestamps of one capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Capture timestamp of each record, microseconds.
    t_us: Vec<u64>,
    /// Byte offset just past each record.
    end: Vec<usize>,
}

impl Schedule {
    /// Index a classic pcap held in memory. Errors on another magic or a
    /// record running past the end of the bytes.
    pub fn parse(pcap: &[u8]) -> Result<Schedule, String> {
        let rd = |at: usize| u32::from_le_bytes(pcap[at..at + 4].try_into().expect("4 bytes"));
        if pcap.len() < GLOBAL_HEADER || rd(0) != MAGIC_LE_US {
            return Err("not a little-endian microsecond pcap".into());
        }
        let mut t_us = Vec::new();
        let mut end = Vec::new();
        let mut at = GLOBAL_HEADER;
        while at < pcap.len() {
            if at + RECORD_HEADER > pcap.len() {
                return Err(format!("truncated record header at byte {at}"));
            }
            let t = u64::from(rd(at)) * 1_000_000 + u64::from(rd(at + 4));
            let next = at + RECORD_HEADER + rd(at + 8) as usize;
            if next > pcap.len() {
                return Err(format!("truncated record at byte {at}"));
            }
            t_us.push(t);
            end.push(next);
            at = next;
        }
        Ok(Schedule { t_us, end })
    }

    /// Records in the capture.
    pub fn len(&self) -> usize {
        self.t_us.len()
    }

    /// True for a capture without records.
    pub fn is_empty(&self) -> bool {
        self.t_us.is_empty()
    }

    /// Capture timestamp of record `i`, microseconds.
    pub fn t_us(&self, i: usize) -> u64 {
        self.t_us[i]
    }

    /// Byte range of records `from..to` within the capture.
    pub fn bytes(&self, from: usize, to: usize) -> std::ops::Range<usize> {
        let start = if from == 0 {
            GLOBAL_HEADER
        } else {
            self.end[from - 1]
        };
        start..self.end[to - 1]
    }

    /// When record `i` is due at `rate` packets per second, measured from
    /// the start of the schedule.
    pub fn due(&self, i: usize, rate: f64) -> Duration {
        Duration::from_secs_f64(i as f64 / rate)
    }

    /// One past the last record due within `elapsed` of the schedule start
    /// at `rate` packets per second (at least `from`).
    pub fn due_until(&self, from: usize, elapsed: Duration, rate: f64) -> usize {
        let due = (elapsed.as_secs_f64() * rate).floor() as usize + 1;
        due.clamp(from, self.len())
    }

    /// The record that closes an interval ending at `end_us`: the first
    /// with `t >= end_us`. `None` for the last interval, which end of
    /// input closes.
    pub fn closing_record(&self, end_us: u64) -> Option<usize> {
        let i = self.t_us.partition_point(|&t| t < end_us);
        (i < self.t_us.len()).then_some(i)
    }
}
