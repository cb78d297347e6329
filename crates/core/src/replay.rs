//! Sender-state reconstruction from a server-side packet trace.
//!
//! TAPO never sees kernel state: everything in Table 2 of the paper —
//! `ca_state`, `in_flight`, `sacked_out`, `lost_out`, `retran_out`,
//! `snd_una`/`snd_nxt`, retransmission counts, spurious retransmissions,
//! `rwnd`/`init_rwnd`, file position — is re-derived here by *mimicking the
//! TCP stack* against the observed packets, exactly as the paper's tool
//! does. The estimator deliberately lives in this crate (not `tcp-sim`) so
//! the analyzer stays an independent observer that also works on real pcap
//! captures.

use simnet::time::{SimDuration, SimTime};
use tcp_trace::record::{Direction, TraceRecord};

/// Estimated congestion state (mirrors the kernel's four states).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstCaState {
    /// No dubious events outstanding.
    Open,
    /// Dupacks below the threshold.
    Disorder,
    /// Fast retransmit observed.
    Recovery,
    /// Timeout retransmission observed.
    Loss,
}

/// Replay configuration (the analyzer's own, independent of the sender's).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Assumed MSS (for packet-count arithmetic on byte offsets).
    pub mss: u32,
    /// Assumed duplicate-ACK threshold.
    pub dupthres: u32,
    /// RTO floor (Linux: 200ms).
    pub min_rto: SimDuration,
    /// RTO ceiling.
    pub max_rto: SimDuration,
    /// RTO before the first RTT sample (RFC 6298: 1s).
    pub initial_rto: SimDuration,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            mss: 1448,
            dupthres: 3,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(120),
            initial_rto: SimDuration::from_secs(1),
        }
    }
}

/// The integer RFC 6298 estimator both TAPO tiers share: the heavy
/// [`Replay`] and every light-tier row of [`crate::live::LightTable`].
/// Promotion hands it over by value in [`crate::live::MonitorSeed`], so a
/// seeded analyzer continues from exactly the light tier's estimate.
///
/// SRTT and RTTVAR are stored as `u32` microseconds, keeping a light row
/// small; updates use `u64` intermediates, so a sample above `u32::MAX`
/// µs (about 71.6 minutes) saturates there. Gains and rounding order
/// match the simulator's `tcp_sim::rtt::RttEstimator` (multiply, then
/// divide), which stays a separate implementation so the analyzer remains
/// an independent observer. The RTO clamps come from the caller's
/// [`ReplayConfig`]; the estimator itself carries no configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RttCore {
    srtt_us: u32,
    rttvar_us: u32,
    sampled: bool,
}

impl RttCore {
    /// Fold in one RTT sample (µs).
    pub fn observe(&mut self, rtt_us: u64) {
        let sat = |v: u64| v.min(u64::from(u32::MAX)) as u32;
        let rtt = sat(rtt_us);
        if !self.sampled {
            self.sampled = true;
            self.srtt_us = rtt;
            self.rttvar_us = rtt / 2;
        } else {
            let err = u64::from(self.srtt_us.abs_diff(rtt));
            self.rttvar_us = sat(u64::from(self.rttvar_us) * 3 / 4 + err / 4);
            self.srtt_us = sat(u64::from(self.srtt_us) * 7 / 8 + u64::from(rtt) / 8);
        }
    }

    /// Smoothed RTT (µs), once a sample has been observed.
    pub fn srtt_us(&self) -> Option<u64> {
        self.sampled.then_some(u64::from(self.srtt_us))
    }

    /// RTT variance (µs); 0 before the first sample.
    pub fn rttvar_us(&self) -> u64 {
        u64::from(self.rttvar_us)
    }

    /// Retransmission timeout (µs) with Linux `__tcp_set_rto` semantics:
    /// the floor applies to the 4·RTTVAR term, not the sum; the initial
    /// RTO before any sample.
    pub fn rto_us(&self, cfg: &ReplayConfig) -> u64 {
        match self.srtt_us() {
            None => cfg.initial_rto.as_micros(),
            Some(s) => {
                let var4 = (self.rttvar_us() * 4).max(cfg.min_rto.as_micros());
                (s + var4).min(cfg.max_rto.as_micros())
            }
        }
    }

    /// The stall threshold `min(2·SRTT, RTO)` (µs); the RTO alone before
    /// the first sample.
    pub fn stall_threshold_us(&self, cfg: &ReplayConfig) -> u64 {
        let rto = self.rto_us(cfg);
        self.srtt_us().map_or(rto, |s| (2 * s).min(rto))
    }
}

/// How a retransmission was (estimated to be) triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetransKind {
    /// Enough dupacks were outstanding: fast retransmit.
    Fast,
    /// Not enough dupacks: retransmission timer.
    Timeout,
}

/// Lifetime history of one transmitted segment.
#[derive(Debug, Clone)]
pub struct SegHist {
    /// Payload length.
    pub len: u32,
    /// Time of original transmission.
    pub first_tx: SimTime,
    /// Time of the most recent (re)transmission.
    pub last_tx: SimTime,
    /// Total transmissions (1 = never retransmitted).
    pub tx_count: u32,
    /// How the first retransmission was triggered, if any.
    pub first_retrans: Option<RetransKind>,
    /// A DSACK later reported this segment as received in duplicate.
    pub dsacked: bool,
}

/// One observed retransmission event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransEvent {
    /// Record index in the trace.
    pub idx: usize,
    /// Segment start offset.
    pub seq: u64,
    /// Which retransmission of the segment this is (1 = first).
    pub nth: u32,
    /// Estimated trigger.
    pub kind: RetransKind,
}

/// Outstanding-segment marks (the analyzer's scoreboard). Carries its own
/// first-transmission time and retransmission flag so the cumulative-ACK
/// retire path can take RTT samples from the scoreboard itself — the
/// per-segment history map is only consulted on the rare paths
/// (retransmissions, DSACKs, finalization), never per ACK.
#[derive(Debug, Clone, Copy, Default)]
struct OutSeg {
    len: u32,
    sacked: bool,
    lost: bool,
    retrans_out: bool,
    /// Set once the segment is seen retransmitted (Karn: no RTT sample).
    retx: bool,
    /// Time of the original transmission.
    first_tx: SimTime,
}

/// Sorted flat map of per-segment histories, keyed by start offset.
///
/// New data arrives in sequence order, so inserts are almost always a
/// `push`; lookups are binary searches. This replaces a `BTreeMap` on the
/// replay hot path — same ordering semantics, a fraction of the cost.
#[derive(Debug, Default)]
pub struct SegHistMap {
    v: Vec<(u64, SegHist)>,
}

impl SegHistMap {
    fn idx(&self, seq: u64) -> Result<usize, usize> {
        self.v.binary_search_by_key(&seq, |(s, _)| *s)
    }

    /// The history of the segment starting exactly at `seq`.
    pub fn get(&self, seq: u64) -> Option<&SegHist> {
        self.idx(seq).ok().map(|i| &self.v[i].1)
    }

    /// Mutable access to the history at `seq`.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut SegHist> {
        match self.idx(seq) {
            Ok(i) => Some(&mut self.v[i].1),
            Err(_) => None,
        }
    }

    /// Insert or replace the history at `seq`.
    pub fn insert(&mut self, seq: u64, h: SegHist) {
        match self.v.last() {
            Some((last, _)) if *last >= seq => match self.idx(seq) {
                Ok(i) => self.v[i].1 = h,
                Err(i) => self.v.insert(i, (seq, h)),
            },
            _ => self.v.push((seq, h)),
        }
    }

    /// The entry with the greatest key ≤ `seq` (a `BTreeMap`'s
    /// `range_mut(..=seq).next_back()`).
    pub fn last_at_or_below_mut(&mut self, seq: u64) -> Option<&mut SegHist> {
        let i = self.v.partition_point(|(s, _)| *s <= seq);
        i.checked_sub(1).map(|i| &mut self.v[i].1)
    }

    /// Number of distinct segments seen.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Whether no segment has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Iterate `(start_offset, history)` in offset order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &SegHist)> {
        self.v.iter().map(|(s, h)| (*s, h))
    }

    /// Drop all histories, keeping the backing storage for reuse.
    pub fn clear(&mut self) {
        self.v.clear();
    }
}

/// The analyzer's scoreboard: outstanding segments in ascending offset
/// order. New data always enters at the tail and cumulative ACKs retire a
/// prefix, so a flat Vec with a head index gives O(1) amortized
/// insert/retire where a `BTreeMap` paid a tree rebalance per packet.
#[derive(Debug, Default)]
struct Outstanding {
    v: Vec<(u64, OutSeg)>,
    head: usize,
}

impl Outstanding {
    /// Drop all segments (live and retired prefix), keeping the storage.
    fn clear(&mut self) {
        self.v.clear();
        self.head = 0;
    }

    fn len(&self) -> usize {
        self.v.len() - self.head
    }

    fn is_empty(&self) -> bool {
        self.v.len() == self.head
    }

    fn live(&self) -> &[(u64, OutSeg)] {
        &self.v[self.head..]
    }

    fn live_mut(&mut self) -> &mut [(u64, OutSeg)] {
        &mut self.v[self.head..]
    }

    /// Lowest outstanding start offset.
    fn first_key(&self) -> Option<u64> {
        self.v.get(self.head).map(|(s, _)| *s)
    }

    /// Append a segment; offsets only ever grow.
    fn push(&mut self, seq: u64, seg: OutSeg) {
        debug_assert!(self.v.last().is_none_or(|(s, _)| *s < seq));
        self.v.push((seq, seg));
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut OutSeg> {
        let live = &mut self.v[self.head..];
        match live.binary_search_by_key(&seq, |(s, _)| *s) {
            Ok(i) => Some(&mut live[i].1),
            Err(_) => None,
        }
    }

    /// Mutable tail view: live entries with start offset ≥ `start`.
    fn tail_mut(&mut self, start: u64) -> &mut [(u64, OutSeg)] {
        let i = self.head + self.v[self.head..].partition_point(|(s, _)| *s < start);
        &mut self.v[i..]
    }

    /// Retire every live segment wholly below `ack`, calling `f` on each in
    /// ascending offset order. A partially-acked straggler (start below
    /// `ack`, end above) is kept in place, exactly like the old
    /// `range(..ack)` + filter on the `BTreeMap`.
    fn retire_below(&mut self, ack: u64, mut f: impl FnMut(u64, OutSeg)) {
        // Cumulative ACKs retire a short prefix, so a forward scan only
        // touches cache lines the retire loop reads anyway — where a binary
        // search probed O(log n) random lines per ACK.
        let mut end = self.head;
        while end < self.v.len() && self.v[end].0 < ack {
            end += 1;
        }
        let mut kept = 0usize;
        for i in self.head..end {
            let (seq, seg) = self.v[i];
            if seq + seg.len as u64 <= ack {
                f(seq, seg);
            } else {
                self.v[self.head + kept] = (seq, seg);
                kept += 1;
            }
        }
        // Slide the (rare) keepers up against the surviving suffix.
        for j in (0..kept).rev() {
            self.v[end - kept + j] = self.v[self.head + j];
        }
        self.head = end - kept;
        // Amortized compaction of the retired prefix.
        if self.head > 64 && self.head * 2 > self.v.len() {
            self.v.drain(..self.head);
            self.head = 0;
        }
    }
}

/// A point-in-time view of the reconstructed sender state, captured just
/// before a stall-ending packet is processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Estimated congestion state.
    pub ca_state: EstCaState,
    /// Outstanding original transmissions (packets).
    pub packets_out: u32,
    /// SACKed segments.
    pub sacked_out: u32,
    /// Outstanding retransmissions.
    pub retrans_out: u32,
    /// Estimated lost segments.
    pub lost_est: u32,
    /// Unacked segments below the highest SACK (the paper's `holes`).
    pub holes: u32,
    /// Equation 1 of the paper.
    pub in_flight: u32,
    /// Last advertised peer window (bytes).
    pub rwnd: u64,
    /// Duplicate-ACK count since the last forward ACK.
    pub dupacks: u32,
}

/// A response interval within the flow (one request/response exchange).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseBound {
    /// When the request (inbound data) arrived at the server.
    pub request_at: SimTime,
    /// First stream offset of the response.
    pub start_seq: u64,
    /// One past the last stream offset (filled after the trace ends).
    pub end_seq: u64,
}

/// The full reconstruction of one flow.
#[derive(Debug)]
pub struct Replay {
    cfg: ReplayConfig,
    /// Per-segment lifetime history, by start offset.
    pub hist: SegHistMap,
    outstanding: Outstanding,
    snd_una: u64,
    snd_nxt: u64,
    sacked_out: u32,
    lost_est: u32,
    retrans_out: u32,
    high_sacked: u64,
    dupacks: u32,
    ca_state: EstCaState,
    high_seq: u64,
    rtt: RttCore,
    last_rwnd: u64,
    /// Initial receive window from the client's SYN, if captured.
    pub init_rwnd: Option<u64>,
    /// True once a non-SYN packet has been seen.
    pub established: bool,
    /// RTT samples (never-retransmitted segments only).
    pub rtt_samples: Vec<SimDuration>,
    /// The RTO estimate recorded at each timeout retransmission.
    pub rto_samples: Vec<SimDuration>,
    /// `in_flight` recorded on each inbound ACK (Fig. 11).
    pub in_flight_on_ack: Vec<u32>,
    /// All observed retransmissions.
    pub retrans_events: Vec<RetransEvent>,
    /// DSACK count (spurious retransmissions).
    pub spurious: u32,
    /// Response intervals, in order.
    pub responses: Vec<ResponseBound>,
    /// Whether any inbound ACK advertised a zero window.
    pub zero_rwnd_seen: bool,
    /// When the server's SYN-ACK was sent (to seed SRTT from the handshake,
    /// as the kernel does).
    synack_at: Option<SimTime>,
}

impl Replay {
    /// A fresh reconstruction.
    pub fn new(cfg: ReplayConfig) -> Self {
        Replay {
            cfg,
            hist: SegHistMap::default(),
            outstanding: Outstanding::default(),
            snd_una: 0,
            snd_nxt: 0,
            sacked_out: 0,
            lost_est: 0,
            retrans_out: 0,
            high_sacked: 0,
            dupacks: 0,
            ca_state: EstCaState::Open,
            high_seq: 0,
            rtt: RttCore::default(),
            last_rwnd: 0,
            init_rwnd: None,
            established: false,
            rtt_samples: Vec::new(),
            rto_samples: Vec::new(),
            in_flight_on_ack: Vec::new(),
            retrans_events: Vec::new(),
            spurious: 0,
            responses: Vec::new(),
            zero_rwnd_seen: false,
            synack_at: None,
        }
    }

    /// Rewind to a fresh reconstruction under `cfg`, keeping the backing
    /// storage of every per-flow collection (segment histories, scoreboard,
    /// sample and event vectors) for reuse. A replay that is `reset` and
    /// then fed a trace produces bit-identical state to a new replay fed
    /// the same trace.
    pub fn reset(&mut self, cfg: ReplayConfig) {
        self.cfg = cfg;
        self.hist.clear();
        self.outstanding.clear();
        self.snd_una = 0;
        self.snd_nxt = 0;
        self.sacked_out = 0;
        self.lost_est = 0;
        self.retrans_out = 0;
        self.high_sacked = 0;
        self.dupacks = 0;
        self.ca_state = EstCaState::Open;
        self.high_seq = 0;
        self.rtt = RttCore::default();
        self.last_rwnd = 0;
        self.init_rwnd = None;
        self.established = false;
        self.rtt_samples.clear();
        self.rto_samples.clear();
        self.in_flight_on_ack.clear();
        self.retrans_events.clear();
        self.spurious = 0;
        self.responses.clear();
        self.zero_rwnd_seen = false;
        self.synack_at = None;
    }

    /// Adopt light-tier estimates as the starting point of a freshly reset
    /// reconstruction — the mid-flow promotion path of two-tier monitoring.
    ///
    /// The stream offsets, RTT estimate and window state carry over, so the
    /// stall threshold is meaningful from the first post-promotion gap and
    /// a re-sent pre-promotion segment (below the seeded `snd_nxt`) counts
    /// as a retransmission through the existing history-miss path.
    /// Per-segment history and the scoreboard start empty: segments that
    /// were in flight at promotion retire silently as their ACKs arrive.
    pub fn seed(&mut self, seed: &crate::live::MonitorSeed) {
        self.snd_una = seed.snd_una;
        self.snd_nxt = seed.snd_nxt;
        self.high_seq = seed.snd_nxt;
        self.last_rwnd = seed.last_rwnd;
        self.init_rwnd = seed.init_rwnd;
        self.established = seed.established;
        self.zero_rwnd_seen = seed.zero_rwnd_seen;
        self.rtt = seed.rtt;
    }

    // ------------------------------------------------------- observation

    /// Estimated congestion state.
    pub fn ca_state(&self) -> EstCaState {
        self.ca_state
    }

    /// Highest offset sent.
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    /// Highest cumulative ACK seen.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Smoothed RTT estimate, if any sample exists.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.rtt.srtt_us().map(SimDuration::from_micros)
    }

    /// Current RTO estimate.
    pub fn rto(&self) -> SimDuration {
        SimDuration::from_micros(self.rtt.rto_us(&self.cfg))
    }

    /// The stall threshold `min(τ·SRTT, RTO)` with τ = 2 (the paper's
    /// definition); just the RTO before the first sample.
    pub fn stall_threshold(&self) -> SimDuration {
        SimDuration::from_micros(self.rtt.stall_threshold_us(&self.cfg))
    }

    /// Equation 1.
    pub fn in_flight(&self) -> u32 {
        (self.outstanding.len() as u32 + self.retrans_out)
            .saturating_sub(self.sacked_out + self.lost_est)
    }

    /// Unacked segments wholly below the highest SACKed offset — the
    /// paper's `holes` parameter (reordered or dropped packets).
    pub fn holes(&self) -> u32 {
        self.outstanding
            .live()
            .iter()
            .filter(|(seq, seg)| !seg.sacked && *seq + seg.len as u64 <= self.high_sacked)
            .count() as u32
    }

    /// Snapshot the current state (taken just before a stall-ending packet).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            ca_state: self.ca_state,
            packets_out: self.outstanding.len() as u32,
            sacked_out: self.sacked_out,
            retrans_out: self.retrans_out,
            lost_est: self.lost_est,
            holes: self.holes(),
            in_flight: self.in_flight(),
            rwnd: self.last_rwnd,
            dupacks: self.dupacks,
        }
    }

    // --------------------------------------------------------- processing

    /// Feed the next trace record (must be offered in time order).
    pub fn process(&mut self, idx: usize, rec: &TraceRecord) {
        if rec.flags.syn {
            if rec.dir == Direction::In {
                self.init_rwnd = Some(rec.rwnd);
                self.last_rwnd = rec.rwnd;
            } else {
                self.synack_at = Some(rec.t);
            }
            return;
        }
        if !self.established {
            // Seed SRTT from the handshake round trip (SYN-ACK → first ACK),
            // as the kernel does.
            if let (Direction::In, Some(sa)) = (rec.dir, self.synack_at.take()) {
                let sample = rec.t.saturating_since(sa);
                if !sample.is_zero() {
                    self.rtt.observe(sample.as_micros());
                }
            }
            // The SYN's 16-bit window field is unscaled and clamps at 64KB;
            // the true initial receive window is the (scaled) one on the
            // handshake-completing ACK.
            if rec.dir == Direction::In && rec.flags.ack {
                self.init_rwnd = Some(rec.rwnd);
            }
        }
        self.established = true;
        match rec.dir {
            Direction::Out => self.process_out(idx, rec),
            Direction::In => self.process_in(idx, rec),
        }
    }

    fn process_out(&mut self, idx: usize, rec: &TraceRecord) {
        if !rec.has_data() {
            return;
        }
        if rec.seq < self.snd_nxt {
            self.observe_retransmission(idx, rec);
            return;
        }
        // New data (tolerate a gap if the capture missed packets).
        let hist = SegHist {
            len: rec.len,
            first_tx: rec.t,
            last_tx: rec.t,
            tx_count: 1,
            first_retrans: None,
            dsacked: false,
        };
        self.hist.insert(rec.seq, hist);
        self.outstanding.push(
            rec.seq,
            OutSeg {
                len: rec.len,
                sacked: false,
                lost: false,
                retrans_out: false,
                retx: false,
                first_tx: rec.t,
            },
        );
        self.snd_nxt = rec.seq_end();
    }

    fn observe_retransmission(&mut self, idx: usize, rec: &TraceRecord) {
        let threshold = self.stall_threshold();
        let waited = self
            .hist
            .get(rec.seq)
            .map(|h| rec.t.saturating_since(h.last_tx));
        let silent_gap = waited.is_none_or(|w| w > threshold);

        // Classify the trigger, mirroring the sender's decision logic:
        //
        // * enough dupacks, or an ongoing Recovery (partial-ACK
        //   retransmissions) ⇒ fast retransmit;
        // * an ongoing Loss state ⇒ timeout-driven (follow-up
        //   retransmissions of the marked-lost queue do not constitute new
        //   timeout *events* unless a fresh silent gap precedes them);
        // * otherwise a retransmission after a silent gap is a timeout; a
        //   quick one without dupacks is a probe (TLP / S-RTO), which
        //   behaves like a fast retransmit (no window collapse).
        let dup = self.dupacks.max(self.sacked_out);
        // Only a retransmission of the *head* segment constitutes a new
        // timeout event; Loss-state follow-up retransmissions of the
        // marked-lost queue ride the same episode.
        let is_head =
            rec.seq <= self.snd_una || self.outstanding.first_key().is_some_and(|lo| rec.seq <= lo);
        let (kind, fresh_timeout) = if self.ca_state == EstCaState::Loss {
            (RetransKind::Timeout, silent_gap && is_head)
        } else if dup >= self.cfg.dupthres || self.ca_state == EstCaState::Recovery {
            (RetransKind::Fast, false)
        } else if silent_gap && is_head {
            (RetransKind::Timeout, true)
        } else {
            (RetransKind::Fast, false)
        };

        let nth;
        if let Some(h) = self.hist.get_mut(rec.seq) {
            h.tx_count += 1;
            nth = h.tx_count - 1;
            if h.first_retrans.is_none() {
                h.first_retrans = Some(kind);
            }
            h.last_tx = rec.t;
        } else {
            // Retransmission of a segment the capture never saw originally.
            self.hist.insert(
                rec.seq,
                SegHist {
                    len: rec.len,
                    first_tx: rec.t,
                    last_tx: rec.t,
                    tx_count: 2,
                    first_retrans: Some(kind),
                    dsacked: false,
                },
            );
            nth = 1;
        }
        self.retrans_events.push(RetransEvent {
            idx,
            seq: rec.seq,
            nth,
            kind,
        });

        match kind {
            RetransKind::Timeout => {
                if fresh_timeout {
                    // The *observed* RTO: how long the sender actually
                    // waited since this segment's previous transmission
                    // (includes exponential backoff, as in Fig. 1).
                    self.rto_samples.push(waited.unwrap_or_else(|| self.rto()));
                    self.ca_state = EstCaState::Loss;
                    self.high_seq = self.snd_nxt;
                    self.dupacks = 0;
                    // The sender marked everything outstanding lost.
                    for (_, seg) in self.outstanding.live_mut() {
                        if seg.retrans_out {
                            seg.retrans_out = false;
                            self.retrans_out -= 1;
                        }
                        if !seg.sacked && !seg.lost {
                            seg.lost = true;
                            self.lost_est += 1;
                        }
                    }
                }
            }
            RetransKind::Fast => {
                if self.ca_state != EstCaState::Recovery {
                    self.ca_state = EstCaState::Recovery;
                    self.high_seq = self.snd_nxt;
                }
            }
        }
        if let Some(seg) = self.outstanding.get_mut(rec.seq) {
            seg.retx = true; // Karn's rule: never RTT-sample this segment
            if !seg.lost && !seg.sacked {
                seg.lost = true;
                self.lost_est += 1;
            }
            if !seg.retrans_out {
                seg.retrans_out = true;
                self.retrans_out += 1;
            }
        }
    }

    fn process_in(&mut self, idx: usize, rec: &TraceRecord) {
        let _ = idx;
        let old_rwnd = self.last_rwnd;
        self.last_rwnd = rec.rwnd;
        if rec.rwnd == 0 {
            self.zero_rwnd_seen = true;
        }

        if rec.has_data() {
            // A request: open a new response interval at the current
            // outbound high-water mark.
            self.responses.push(ResponseBound {
                request_at: rec.t,
                start_seq: self.snd_nxt,
                end_seq: u64::MAX,
            });
        }

        if !rec.flags.ack {
            return;
        }

        // DSACK: spurious-retransmission evidence.
        if rec.dsack {
            self.spurious += 1;
            if let Some(b) = rec.sack.first() {
                if let Some(h) = self.hist.last_at_or_below_mut(b.start) {
                    h.dsacked = true;
                }
            }
        }

        // SACK marks.
        let blocks = if rec.dsack && !rec.sack.is_empty() {
            &rec.sack[1..]
        } else {
            &rec.sack[..]
        };
        let mut newly_sacked = 0u32;
        for b in blocks {
            self.high_sacked = self.high_sacked.max(b.end);
            for (seq, seg) in self.outstanding.tail_mut(b.start).iter_mut() {
                if *seq + seg.len as u64 > b.end {
                    break;
                }
                if seg.sacked {
                    continue;
                }
                seg.sacked = true;
                self.sacked_out += 1;
                newly_sacked += 1;
                if seg.lost {
                    seg.lost = false;
                    self.lost_est -= 1;
                }
                if seg.retrans_out {
                    seg.retrans_out = false;
                    self.retrans_out -= 1;
                }
            }
        }

        let advanced = rec.ack > self.snd_una;
        if advanced {
            // Retire fully acknowledged segments; sample RTT from the
            // highest never-retransmitted one.
            let mut rtt_sample = None;
            let sacked_out = &mut self.sacked_out;
            let lost_est = &mut self.lost_est;
            let retrans_out = &mut self.retrans_out;
            self.outstanding.retire_below(rec.ack, |_seq, seg| {
                if seg.sacked {
                    *sacked_out -= 1;
                }
                if seg.lost {
                    *lost_est -= 1;
                }
                if seg.retrans_out {
                    *retrans_out -= 1;
                }
                if !seg.retx {
                    rtt_sample = Some(rec.t.saturating_since(seg.first_tx));
                }
            });
            if let Some(s) = rtt_sample {
                self.rtt.observe(s.as_micros());
                self.rtt_samples.push(s);
            }
            self.snd_una = rec.ack;
            self.dupacks = 0;
            // State exits.
            if matches!(self.ca_state, EstCaState::Recovery | EstCaState::Loss)
                && self.snd_una >= self.high_seq
            {
                self.ca_state = if self.sacked_out > 0 {
                    EstCaState::Disorder
                } else {
                    EstCaState::Open
                };
            } else if self.ca_state == EstCaState::Disorder && self.sacked_out == 0 {
                self.ca_state = EstCaState::Open;
            }
        } else {
            let is_dup = !rec.has_data()
                && rec.ack == self.snd_una
                && !self.outstanding.is_empty()
                && (newly_sacked > 0 || (rec.sack.is_empty() && rec.rwnd == old_rwnd));
            if is_dup {
                self.dupacks += 1;
                if self.ca_state == EstCaState::Open {
                    self.ca_state = EstCaState::Disorder;
                }
                // In Recovery, keep estimating losses FACK-style.
                if self.ca_state == EstCaState::Recovery {
                    self.mark_lost_fack();
                }
            }
        }

        if !self.outstanding.is_empty() {
            self.in_flight_on_ack.push(self.in_flight());
        }
    }

    fn mark_lost_fack(&mut self) {
        let threshold = (self.cfg.dupthres.saturating_sub(1)) as u64 * self.cfg.mss as u64;
        let high = self.high_sacked;
        for (seq, seg) in self.outstanding.live_mut() {
            if *seq + seg.len as u64 + threshold > high {
                break;
            }
            if seg.sacked || seg.lost || seg.retrans_out {
                continue;
            }
            seg.lost = true;
            self.lost_est += 1;
        }
    }

    /// Close the reconstruction: fill in response end offsets.
    pub fn finish(&mut self) {
        let n = self.responses.len();
        for i in 0..n {
            let end = if i + 1 < n {
                self.responses[i + 1].start_seq
            } else {
                self.snd_nxt
            };
            self.responses[i].end_seq = end;
        }
    }

    /// The response interval containing offset `seq`, if any.
    pub fn response_of(&self, seq: u64) -> Option<&ResponseBound> {
        self.responses
            .iter()
            .find(|r| seq >= r.start_seq && seq < r.end_seq.max(r.start_seq + 1))
    }

    /// Whether `seq` sits in the tail of its response: fewer than
    /// `dupthres` full segments follow it.
    pub fn is_tail(&self, seq: u64, len: u32) -> bool {
        match self.response_of(seq) {
            Some(r) => {
                let end = seq + len as u64;
                r.end_seq.saturating_sub(end) < self.cfg.dupthres as u64 * self.cfg.mss as u64
            }
            None => true,
        }
    }

    /// Whether `seq` is the first segment of a response.
    pub fn is_head(&self, seq: u64) -> bool {
        self.responses.iter().any(|r| r.start_seq == seq)
    }

    /// The analyzer's config.
    pub fn config(&self) -> ReplayConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_trace::record::{SackBlock, SegFlags};

    const MSS: u32 = 1448;

    fn out_data(t_ms: u64, seq: u64, len: u32) -> TraceRecord {
        TraceRecord::data(
            SimTime::from_millis(t_ms),
            Direction::Out,
            seq,
            len,
            0,
            1 << 20,
        )
    }

    fn in_ack(t_ms: u64, ack: u64) -> TraceRecord {
        TraceRecord::pure_ack(SimTime::from_millis(t_ms), Direction::In, ack, 1 << 20)
    }

    fn in_sack(t_ms: u64, ack: u64, blocks: &[(u64, u64)]) -> TraceRecord {
        let mut r = in_ack(t_ms, ack);
        r.sack = blocks.iter().map(|&(a, b)| SackBlock::new(a, b)).collect();
        r
    }

    fn replay(recs: &[TraceRecord]) -> Replay {
        let mut rp = Replay::new(ReplayConfig::default());
        for (i, r) in recs.iter().enumerate() {
            rp.process(i, r);
        }
        rp.finish();
        rp
    }

    #[test]
    fn tracks_snd_nxt_una_and_rtt() {
        let m = MSS as u64;
        let rp = replay(&[out_data(0, 0, MSS), out_data(1, m, MSS), in_ack(100, 2 * m)]);
        assert_eq!(rp.snd_nxt(), 2 * m);
        assert_eq!(rp.snd_una(), 2 * m);
        assert_eq!(rp.rtt_samples.len(), 1);
        // Sample from the highest acked segment: 100 − 1 = 99ms.
        assert_eq!(rp.rtt_samples[0], SimDuration::from_millis(99));
        assert_eq!(rp.in_flight(), 0);
    }

    #[test]
    fn dupacks_drive_disorder_then_fast_retransmission() {
        let m = MSS as u64;
        let mut recs = vec![];
        for i in 0..5 {
            recs.push(out_data(i, i * m, MSS));
        }
        // Three SACK dupacks for a hole at 0.
        recs.push(in_sack(100, 0, &[(m, 2 * m)]));
        recs.push(in_sack(101, 0, &[(m, 3 * m)]));
        recs.push(in_sack(102, 0, &[(m, 4 * m)]));
        // The fast retransmission of 0.
        recs.push(out_data(103, 0, MSS));
        let rp = replay(&recs);
        assert_eq!(rp.ca_state(), EstCaState::Recovery);
        assert_eq!(rp.retrans_events.len(), 1);
        assert_eq!(rp.retrans_events[0].kind, RetransKind::Fast);
        assert_eq!(
            rp.hist.get(0).unwrap().first_retrans,
            Some(RetransKind::Fast)
        );
    }

    #[test]
    fn silent_retransmission_is_classified_timeout() {
        let m = MSS as u64;
        let rp = replay(&[
            out_data(0, 0, MSS),
            out_data(1, m, MSS),
            // No ACKs at all; the sender retransmits after its RTO.
            out_data(1200, 0, MSS),
        ]);
        assert_eq!(rp.retrans_events[0].kind, RetransKind::Timeout);
        assert_eq!(rp.ca_state(), EstCaState::Loss);
        assert_eq!(rp.rto_samples.len(), 1);
        // All outstanding marked lost ⇒ in_flight counts only the retrans.
        assert_eq!(rp.snapshot().lost_est, 2);
        assert_eq!(rp.in_flight(), 1);
    }

    #[test]
    fn recovery_exit_on_full_ack() {
        let m = MSS as u64;
        let mut recs = vec![];
        for i in 0..5 {
            recs.push(out_data(i, i * m, MSS));
        }
        recs.push(in_sack(100, 0, &[(m, 2 * m)]));
        recs.push(in_sack(101, 0, &[(m, 3 * m)]));
        recs.push(in_sack(102, 0, &[(m, 4 * m)]));
        recs.push(out_data(103, 0, MSS));
        recs.push(in_ack(200, 5 * m));
        let rp = replay(&recs);
        assert_eq!(rp.ca_state(), EstCaState::Open);
        assert_eq!(rp.in_flight(), 0);
    }

    #[test]
    fn dsack_marks_segment_spurious() {
        let m = MSS as u64;
        let mut recs = vec![
            out_data(0, 0, MSS),
            out_data(1, m, MSS),
            out_data(400, 0, MSS), // timeout retransmission
        ];
        let mut d = in_ack(450, 2 * m);
        d.sack = [SackBlock::new(0, m)].into();
        d.dsack = true;
        recs.push(d);
        let rp = replay(&recs);
        assert_eq!(rp.spurious, 1);
        assert!(rp.hist.get(0).unwrap().dsacked);
    }

    #[test]
    fn responses_bound_head_and_tail() {
        let m = MSS as u64;
        let mut req1 =
            TraceRecord::data(SimTime::from_millis(0), Direction::In, 0, 300, 0, 1 << 20);
        req1.flags = SegFlags::ACK;
        let mut req2 = TraceRecord::data(
            SimTime::from_millis(500),
            Direction::In,
            300,
            300,
            4 * m,
            1 << 20,
        );
        req2.flags = SegFlags::ACK;
        let recs = vec![
            req1,
            out_data(10, 0, MSS),
            out_data(11, m, MSS),
            out_data(12, 2 * m, MSS),
            out_data(13, 3 * m, MSS),
            in_ack(110, 4 * m),
            req2,
            out_data(510, 4 * m, MSS),
            out_data(511, 5 * m, MSS),
        ];
        let rp = replay(&recs);
        assert_eq!(rp.responses.len(), 2);
        assert_eq!(rp.responses[0].start_seq, 0);
        assert_eq!(rp.responses[0].end_seq, 4 * m);
        assert_eq!(rp.responses[1].start_seq, 4 * m);
        assert!(rp.is_head(0));
        assert!(rp.is_head(4 * m));
        assert!(!rp.is_head(m));
        // Tail: fewer than 3 MSS after the segment within its response.
        assert!(rp.is_tail(3 * m, MSS));
        assert!(rp.is_tail(2 * m, MSS)); // 1 seg after < 3
        assert!(!rp.is_tail(0, MSS)); // 3 segs after
    }

    #[test]
    fn init_rwnd_from_syn_and_zero_window_tracking() {
        let mut syn = TraceRecord::pure_ack(SimTime::ZERO, Direction::In, 0, 4096);
        syn.flags = SegFlags::SYN;
        let mut zero = in_ack(100, 0);
        zero.rwnd = 0;
        let rp = replay(&[syn, out_data(10, 0, MSS), zero]);
        assert_eq!(rp.init_rwnd, Some(4096));
        assert!(rp.zero_rwnd_seen);
    }

    #[test]
    fn stall_threshold_uses_min_of_2srtt_and_rto() {
        let m = MSS as u64;
        let mut rp = Replay::new(ReplayConfig::default());
        assert_eq!(rp.stall_threshold(), SimDuration::from_secs(1));
        rp.process(0, &out_data(0, 0, MSS));
        rp.process(1, &in_ack(100, m));
        // srtt = 100ms ⇒ 2·SRTT = 200ms < RTO = 300ms.
        assert_eq!(rp.stall_threshold(), SimDuration::from_millis(200));
    }

    #[test]
    fn in_flight_samples_collected_per_ack() {
        let m = MSS as u64;
        let rp = replay(&[
            out_data(0, 0, MSS),
            out_data(1, m, MSS),
            out_data(2, 2 * m, MSS),
            in_ack(100, m),
            in_ack(101, 2 * m),
        ]);
        assert_eq!(rp.in_flight_on_ack, vec![2, 1]);
    }
}
