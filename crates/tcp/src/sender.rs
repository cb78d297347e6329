//! The TCP sender: congestion-state machine, window management, loss
//! recovery and timers, modelled on the Linux 2.6.32 stack the paper's
//! servers ran.
//!
//! The four congestion states and their transitions follow Fig. 4 of the
//! paper:
//!
//! ```text
//!            dupacks                 dupacks ≥ dupthres
//!   Open ───────────► Disorder ─────────────────────► Recovery
//!    ▲  ▲──RTO──┐        │ RTO                            │ RTO
//!    │          ▼        ▼                                ▼
//!    └─────── Loss ◄──────────────────────────────────────┘
//! ```
//!
//! Faithfulness notes (each is load-bearing for a stall class the paper
//! measures):
//!
//! * **Rate-halving Recovery** — cwnd drops by one for every second ACK
//!   until it reaches ssthresh, plus Linux's cwnd moderation
//!   (`cwnd ≤ in_flight + 1`), which is the origin of many *small-cwnd*
//!   stalls.
//! * **No re-fast-retransmit** — a segment whose retransmission is lost can
//!   only be repaired by the RTO (see [`crate::scoreboard`]), producing
//!   *f-double* stalls under native recovery.
//! * **RTO behaviour** — `cwnd := 1`, all outstanding marked lost,
//!   exponential backoff; this is the "expensive timeout" of the paper.
//! * **DSACK undo** — spurious-retransmission evidence restores cwnd
//!   (`tcp_try_undo_*`), which matters for ACK-delay stalls.

use simnet::time::SimTime;

#[cfg(test)]
use simnet::time::SimDuration;

use crate::cc::{Cc, CcKind};
use crate::recovery::RecoveryMechanism;
use crate::rtt::{RttConfig, RttEstimator, MAX_RTO_BACKOFF};
use crate::scoreboard::Scoreboard;
use crate::seg::{SackBlock, Segment, DEFAULT_MSS};

/// The Linux congestion-avoidance state machine states (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaState {
    /// Default state: no outstanding dubious events.
    Open,
    /// Dupacks/SACKs seen, below `dupthres`; window frozen, limited
    /// transmit may send new data.
    Disorder,
    /// Fast retransmit in progress; rate-halving window reduction.
    Recovery,
    /// Retransmission timer expired; slow-start from 1 MSS.
    Loss,
}

/// Sender configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SenderConfig {
    /// Maximum segment size in bytes.
    pub mss: u32,
    /// Initial congestion window in packets (3 on the paper's kernel).
    pub init_cwnd: u32,
    /// Hard upper bound on cwnd in packets.
    pub cwnd_clamp: u32,
    /// Congestion-avoidance algorithm (CUBIC is the 2.6.32 default).
    pub cc: CcKind,
    /// RTT estimator bounds.
    pub rtt: RttConfig,
    /// Initial duplicate-ACK threshold for fast retransmit.
    pub dupthres: u32,
    /// Adapt `dupthres` upward when reordering is detected.
    pub reordering_adapt: bool,
    /// RFC 3042 limited transmit.
    pub limited_transmit: bool,
    /// RFC 5827 early retransmit (absent from 2.6.32; off by default).
    pub early_retransmit: bool,
    /// HyStart-style delay-based slow-start exit (part of CUBIC since
    /// 2.6.29): leave slow start when RTT samples rise well above the
    /// flow's minimum, instead of overshooting the bottleneck queue by a
    /// full window.
    pub hystart: bool,
    /// TCP pacing (Wei et al., the paper's suggested continuous-loss
    /// mitigation): spread a window's transmissions across the RTT at rate
    /// `cwnd/SRTT` instead of sending back-to-back bursts. Off by default,
    /// matching the paper's kernel.
    pub pacing: bool,
    /// DSACK-based congestion-window undo.
    pub undo: bool,
    /// Retransmission-timer firing granularity: the kernel's timer wheel
    /// fires the RTO up to a jiffy late, so the observed silent gap always
    /// slightly exceeds the computed RTO. Probe timers (TLP/S-RTO) use
    /// high-resolution timers and are exact.
    pub timer_granularity: simnet::time::SimDuration,
    /// Loss-recovery mechanism (Native / TLP / S-RTO).
    pub recovery: RecoveryMechanism,
}

impl Default for SenderConfig {
    fn default() -> Self {
        SenderConfig {
            mss: DEFAULT_MSS,
            init_cwnd: 3,
            cwnd_clamp: 10_000,
            cc: CcKind::Cubic,
            rtt: RttConfig::default(),
            dupthres: 3,
            reordering_adapt: true,
            limited_transmit: true,
            early_retransmit: false,
            hystart: true,
            pacing: false,
            undo: true,
            timer_granularity: simnet::time::SimDuration::from_millis(4),
            recovery: RecoveryMechanism::Native,
        }
    }
}

/// A transmission the sender wants performed. The owning connection wraps
/// these into [`Segment`]s, filling in the reverse-path ACK fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOp {
    /// Transmit payload bytes `[seq, seq+len)`.
    Data {
        /// Stream offset.
        seq: u64,
        /// Length in bytes.
        len: u32,
        /// This is a retransmission.
        retrans: bool,
        /// Set the FIN flag (final segment of the stream).
        fin: bool,
    },
    /// Transmit a zero-window probe.
    WindowProbe,
}

/// Counters describing the sender's lifetime behaviour; the raw material for
/// Table 9 (retransmission ratios) and mechanism comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Original data segments transmitted.
    pub data_segs_sent: u64,
    /// Payload bytes transmitted (originals only).
    pub bytes_sent: u64,
    /// Retransmitted segments (all causes).
    pub retrans_segs: u64,
    /// Retransmission timer expirations.
    pub rto_count: u64,
    /// Fast-retransmit (Recovery) entries.
    pub fast_recovery_count: u64,
    /// S-RTO probe firings.
    pub srto_probes: u64,
    /// TLP probe firings.
    pub tlp_probes: u64,
    /// T-RACKs virtual-timer firings that forced fast-retransmit entry.
    pub tracks_forced: u64,
    /// DSACK-reported spurious retransmissions.
    pub spurious_retrans: u64,
    /// Congestion-window undo events.
    pub undo_count: u64,
    /// Zero-window probes sent.
    pub window_probes: u64,
}

/// Which probe timer is armed (the RTO timer is tracked separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeKind {
    Tlp,
    Srto,
    Tracks,
}

/// The TCP sender for one direction of a connection.
#[derive(Debug, Clone)]
pub struct Sender {
    cfg: SenderConfig,
    cc: Cc,
    sb: Scoreboard,
    rtt: RttEstimator,

    ca_state: CaState,
    cwnd: u32,
    ssthresh: u32,
    dupthres: u32,
    dupacks: u32,
    high_seq: u64,

    peer_rwnd: u64,

    app_avail: u64,
    app_fin: bool,
    stream_len: u64, // total bytes ever written (for FIN placement)

    rto_deadline: Option<SimTime>,
    rto_backoff: u32,
    probe_deadline: Option<(SimTime, ProbeKind)>,
    tlp_probe_out: bool,
    persist_deadline: Option<SimTime>,
    persist_backoff: u32,

    rh_ack_cnt: u32,
    lt_budget: u32,

    min_rtt: Option<simnet::time::SimDuration>,

    /// Pacing: earliest time the next packet may be released, and the
    /// armed wake-up for deferred transmissions.
    next_pace_at: SimTime,
    pace_deadline: Option<SimTime>,

    /// An outstanding S-RTO probe: `(probe seq, cwnd and ssthresh to
    /// restore if the probe proves spurious via DSACK)`.
    srto_probe_undo: Option<(u64, u32, u32)>,

    undo_marker: Option<u64>,
    undo_retrans: i64,
    marker_retrans_total: u32,
    prior_cwnd: u32,
    prior_ssthresh: u32,

    stats: SenderStats,
}

impl Sender {
    /// A fresh sender.
    pub fn new(cfg: SenderConfig) -> Self {
        let cwnd = cfg.init_cwnd;
        let rtt = RttEstimator::new(cfg.rtt);
        let cc = Cc::new(cfg.cc);
        let dupthres = cfg.dupthres;
        Sender {
            cfg,
            cc,
            sb: Scoreboard::new(),
            rtt,
            ca_state: CaState::Open,
            cwnd,
            ssthresh: u32::MAX / 2,
            dupthres,
            dupacks: 0,
            high_seq: 0,
            peer_rwnd: 0,
            app_avail: 0,
            app_fin: false,
            stream_len: 0,
            rto_deadline: None,
            rto_backoff: 0,
            probe_deadline: None,
            tlp_probe_out: false,
            persist_deadline: None,
            persist_backoff: 0,
            rh_ack_cnt: 0,
            lt_budget: 0,
            min_rtt: None,
            next_pace_at: SimTime::ZERO,
            pace_deadline: None,
            srto_probe_undo: None,
            undo_marker: None,
            undo_retrans: 0,
            marker_retrans_total: 0,
            prior_cwnd: cwnd,
            prior_ssthresh: u32::MAX / 2,
            stats: SenderStats::default(),
        }
    }

    // ------------------------------------------------------- accessors

    /// Current congestion state.
    pub fn ca_state(&self) -> CaState {
        self.ca_state
    }

    /// Congestion window in packets.
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// Slow-start threshold in packets.
    pub fn ssthresh(&self) -> u32 {
        self.ssthresh
    }

    /// The scoreboard (read-only).
    pub fn scoreboard(&self) -> &Scoreboard {
        &self.sb
    }

    /// The RTT estimator (read-only).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// Current duplicate-ACK threshold (after reordering adaptation).
    pub fn dupthres(&self) -> u32 {
        self.dupthres
    }

    /// Peer's advertised window in bytes.
    pub fn peer_rwnd(&self) -> u64 {
        self.peer_rwnd
    }

    /// True once every written byte has been cumulatively acknowledged.
    pub fn all_acked(&self) -> bool {
        self.app_avail == 0 && self.sb.is_empty()
    }

    // ----------------------------------------------------- app interface

    /// Learn the peer's initial window (from its SYN).
    pub fn set_peer_rwnd(&mut self, bytes: u64) {
        self.peer_rwnd = bytes;
    }

    /// Seed the RTT estimator from the handshake round trip (Linux seeds
    /// SRTT from the SYN-ACK → ACK sample), giving the first data packet a
    /// realistic RTO instead of the 1s default.
    pub fn seed_rtt(&mut self, sample: simnet::time::SimDuration) {
        self.rtt.observe(sample);
    }

    /// Make `bytes` more application data available for transmission.
    /// Call [`Sender::poll`] afterwards to transmit.
    pub fn app_write(&mut self, bytes: u64) {
        self.app_avail += bytes;
        self.stream_len += bytes;
    }

    /// Mark the stream finished: the final data segment will carry FIN.
    pub fn app_close(&mut self) {
        self.app_fin = true;
    }

    // ------------------------------------------------------ ACK handling

    /// Process the acknowledgment fields of an incoming segment and
    /// transmit whatever becomes allowed.
    pub fn on_ack(&mut self, now: SimTime, seg: &Segment, out: &mut Vec<SendOp>) {
        let old_rwnd = self.peer_rwnd;
        self.peer_rwnd = seg.rwnd;
        if self.peer_rwnd > 0 {
            self.persist_deadline = None;
            self.persist_backoff = 0;
        }

        // DSACK: evidence that a (re)transmission was unnecessary. This
        // feeds the undo machinery only — a DSACK alone is not reordering
        // evidence (probes are *expected* to be occasionally spurious), so
        // it must not inflate `dupthres`.
        if seg.dsack {
            self.stats.spurious_retrans += 1;
            if self.undo_marker.is_some() {
                self.undo_retrans -= 1;
            }
            // A DSACK covering an S-RTO probe proves it spurious: restore
            // the window the probe reduced, even if the short Recovery
            // episode it opened has already completed.
            if let (Some((pseq, pcwnd, pssthresh)), Some(b)) =
                (self.srto_probe_undo, seg.sack.first())
            {
                if b.start <= pseq && pseq < b.end {
                    self.cwnd = self.cwnd.max(pcwnd);
                    self.ssthresh = self.ssthresh.max(pssthresh);
                    if self.ca_state == CaState::Recovery {
                        self.sb.unmark_all_lost();
                        self.ca_state = if self.sb.sacked_out() > 0 {
                            CaState::Disorder
                        } else {
                            CaState::Open
                        };
                        self.undo_marker = None;
                    }
                    self.stats.undo_count += 1;
                    self.srto_probe_undo = None;
                }
            }
        }

        let blocks: &[SackBlock] = if seg.dsack && !seg.sack.is_empty() {
            &seg.sack[1..]
        } else {
            &seg.sack[..]
        };
        let sres = self.sb.apply_sack(blocks);
        if sres.sacked_was_lost && self.cfg.reordering_adapt {
            self.dupthres = (self.dupthres + 1).min(8);
        }

        let prior_una = self.sb.snd_una();
        let ares = self.sb.ack_to(now, seg.ack);
        if ares.acked_lost && self.cfg.reordering_adapt {
            self.dupthres = (self.dupthres + 1).min(8);
        }
        if let Some(sample) = ares.rtt_sample {
            self.rtt.observe(sample);
            let base = self.min_rtt.map_or(sample, |m| m.min(sample));
            self.min_rtt = Some(base);
            // HyStart delay-based slow-start exit: queue is building.
            if self.cfg.hystart
                && self.cwnd < self.ssthresh
                && self.cwnd >= 16
                && sample > base.saturating_mul(3) / 2
            {
                self.ssthresh = self.cwnd;
            }
        }

        let advanced = seg.ack > prior_una;
        if advanced {
            self.rto_backoff = 0;
            self.tlp_probe_out = false;
        }

        // A duplicate ACK: no forward progress, and either SACK information
        // or a pure same-window duplicate.
        let is_dup = !advanced
            && !self.sb.is_empty()
            && (sres.newly_sacked > 0
                || (seg.len == 0 && seg.rwnd == old_rwnd && seg.ack == prior_una));
        if is_dup {
            self.dupacks += 1;
        }

        let prior_state = self.ca_state;
        match self.ca_state {
            CaState::Open | CaState::Disorder => {
                if is_dup || self.sb.sacked_out() > 0 {
                    if self.ca_state == CaState::Open {
                        self.ca_state = CaState::Disorder;
                        self.lt_budget = 0;
                    }
                    // RFC 3042 limited transmit matters for SACK-less
                    // dupacks; with SACK the pipe shrink already frees a
                    // transmission slot.
                    if is_dup && sres.newly_sacked == 0 && self.cfg.limited_transmit {
                        self.lt_budget = (self.lt_budget + 1).min(2);
                    }
                    if self.dup_count() >= self.effective_dupthres() {
                        self.enter_recovery(now);
                    }
                }
                if advanced {
                    self.dupacks = 0;
                    if self.ca_state == CaState::Open {
                        self.grow_cwnd(now, ares.newly_acked);
                    } else if self.sb.sacked_out() == 0 {
                        // Holes all filled: back to Open (and grow —
                        // Disorder withheld growth only transiently).
                        self.ca_state = CaState::Open;
                        self.grow_cwnd(now, ares.newly_acked);
                    }
                }
            }
            CaState::Recovery => {
                if self.try_undo(now) {
                    // Spurious recovery; window restored.
                } else if advanced && self.sb.snd_una() >= self.high_seq {
                    self.exit_recovery();
                    self.grow_cwnd(now, 0);
                } else {
                    // Partial ACK or dupack inside Recovery: keep marking
                    // losses and halving the rate.
                    self.sb.mark_lost_fack(self.dupthres, self.cfg.mss);
                    if advanced {
                        // NewReno partial ACK: the next hole is lost too.
                        self.sb.mark_lost_head();
                    }
                    self.rate_halve();
                }
            }
            CaState::Loss => {
                if self.try_undo(now) {
                    // Spurious RTO; window restored.
                } else if advanced {
                    self.grow_cwnd(now, ares.newly_acked);
                    if self.sb.snd_una() >= self.high_seq {
                        self.ca_state = CaState::Open;
                        self.dupacks = 0;
                        self.undo_marker = None;
                    }
                }
            }
        }

        self.poll(now, out);

        // Timer management: restart on forward progress or a congestion-state
        // change (entering Recovery must cancel a pending TLP probe, leaving
        // Loss must drop the backed-off deadline); otherwise only arm if
        // nothing is pending. T-RACKs additionally re-arms when a dup-ACK
        // first pushes the evidence over its arming threshold — the state
        // may not change (Disorder → Disorder) yet the pending native RTO
        // must be replaced by the short virtual timer.
        if advanced
            || self.ca_state != prior_state
            || (self.rto_deadline.is_none() && self.probe_deadline.is_none())
            || (is_dup && self.tracks_wants_arm())
        {
            self.arm_timers(now);
        }
    }

    /// True when the T-RACKs virtual timer should be armed but is not yet
    /// (dup-ACK evidence crossed the threshold while the native RTO was
    /// pending).
    fn tracks_wants_arm(&self) -> bool {
        let RecoveryMechanism::Tracks(tr) = self.cfg.recovery else {
            return false;
        };
        (self.ca_state == CaState::Open || self.ca_state == CaState::Disorder)
            && self.dup_count() >= tr.dupack_arm
            && self.sb.packets_out() <= tr.max_packets_out
            && self.probe_deadline.is_none()
    }

    fn dup_count(&self) -> u32 {
        self.dupacks.max(self.sb.sacked_out())
    }

    fn effective_dupthres(&self) -> u32 {
        if self.cfg.early_retransmit && self.sb.packets_out() < 4 && self.app_avail == 0 {
            self.sb.packets_out().saturating_sub(1).max(1)
        } else {
            self.dupthres
        }
    }

    fn grow_cwnd(&mut self, now: SimTime, acked: u32) {
        if self.cwnd < self.ssthresh {
            self.cwnd = (self.cwnd + acked).min(self.cfg.cwnd_clamp);
        } else {
            self.cwnd = self
                .cc
                .cong_avoid(now, self.cwnd, acked, self.cfg.cwnd_clamp);
        }
    }

    fn enter_recovery(&mut self, _now: SimTime) {
        self.prior_cwnd = self.cwnd;
        self.prior_ssthresh = self.ssthresh;
        self.undo_marker = Some(self.sb.snd_una());
        self.undo_retrans = 0;
        self.marker_retrans_total = 0;
        self.ssthresh = self.cc.ssthresh(self.cwnd);
        self.cc.on_congestion_event(self.cwnd);
        self.high_seq = self.sb.snd_nxt();
        self.ca_state = CaState::Recovery;
        self.rh_ack_cnt = 0;
        self.stats.fast_recovery_count += 1;
        self.sb.mark_lost_fack(self.dupthres, self.cfg.mss);
        self.sb.mark_lost_head();
    }

    fn exit_recovery(&mut self) {
        // tcp_complete_cwr: finish the halving.
        self.cwnd = self.cwnd.min(self.ssthresh).max(1);
        self.ca_state = CaState::Open;
        self.dupacks = 0;
        self.undo_marker = None;
    }

    fn rate_halve(&mut self) {
        self.rh_ack_cnt += 1;
        if self.rh_ack_cnt >= 2 {
            self.rh_ack_cnt = 0;
            if self.cwnd > self.ssthresh {
                self.cwnd -= 1;
            }
        }
        // Linux cwnd moderation: never keep cwnd far above what is actually
        // in flight during recovery.
        self.cwnd = self.cwnd.min(self.sb.in_flight() + 1).max(1);
    }

    fn try_undo(&mut self, _now: SimTime) -> bool {
        if !self.cfg.undo {
            return false;
        }
        let Some(_marker) = self.undo_marker else {
            return false;
        };
        if self.marker_retrans_total == 0 || self.undo_retrans > 0 {
            return false;
        }
        // Every retransmission since the marker was reported spurious:
        // the congestion event was false. Restore the window.
        self.cwnd = self.cwnd.max(self.prior_cwnd);
        self.ssthresh = self.ssthresh.max(self.prior_ssthresh);
        self.sb.unmark_all_lost();
        self.ca_state = if self.sb.sacked_out() > 0 {
            CaState::Disorder
        } else {
            CaState::Open
        };
        self.undo_marker = None;
        self.dupacks = 0;
        self.stats.undo_count += 1;
        true
    }

    // ------------------------------------------------------ transmission

    /// Pacing gate: may a packet be released at `now`? On release the pace
    /// clock advances by one inter-packet interval (`SRTT / cwnd`), with at
    /// most one interval of burst credit accumulated while idle.
    fn pace_allows(&mut self, now: SimTime) -> bool {
        if !self.cfg.pacing {
            return true;
        }
        if now < self.next_pace_at {
            let d = self.next_pace_at;
            self.pace_deadline = Some(self.pace_deadline.map_or(d, |p| p.min(d)));
            return false;
        }
        let srtt = self
            .rtt
            .srtt()
            .unwrap_or(simnet::time::SimDuration::from_millis(100));
        let interval = srtt / self.cwnd.max(1) as u64;
        self.next_pace_at = self.next_pace_at.max(now - interval) + interval;
        true
    }

    /// Transmit everything the windows currently allow.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<SendOp>) {
        let had_outstanding = !self.sb.is_empty();

        // 1. Retransmissions of lost segments.
        while self.sb.in_flight() < self.cwnd {
            let Some(seq) = self.sb.next_lost_seq() else {
                break;
            };
            if !self.pace_allows(now) {
                break;
            }
            let by_rto = self.ca_state == CaState::Loss;
            let fast = self.ca_state == CaState::Recovery;
            let len = self
                .sb
                .on_retransmit(now, seq, by_rto, fast)
                .expect("seq outstanding");
            self.note_retransmission();
            out.push(SendOp::Data {
                seq,
                len,
                retrans: true,
                fin: self.fin_at(seq + len as u64),
            });
        }

        // 2. New data.
        while self.app_avail > 0 {
            if !self.may_send_new() {
                break;
            }
            let len = (self.app_avail.min(self.cfg.mss as u64)) as u32;
            // Receiver-window check in bytes.
            if self.sb.snd_nxt() + len as u64 - self.sb.snd_una() > self.peer_rwnd {
                break;
            }
            if !self.pace_allows(now) {
                break;
            }
            if self.ca_state == CaState::Disorder && self.sb.in_flight() >= self.cwnd {
                // This transmission rides on limited-transmit budget.
                self.lt_budget -= 1;
            }
            let seq = self.sb.transmit_new(now, len);
            self.app_avail -= len as u64;
            self.stats.data_segs_sent += 1;
            self.stats.bytes_sent += len as u64;
            out.push(SendOp::Data {
                seq,
                len,
                retrans: false,
                fin: self.fin_at(seq + len as u64),
            });
        }

        // 3. Zero-window persist timer.
        if self.app_avail > 0
            && self.sb.is_empty()
            && self.peer_rwnd < self.cfg.mss as u64
            && self.persist_deadline.is_none()
        {
            self.persist_deadline = Some(now + self.rtt.rto_backed_off(self.persist_backoff));
        }

        if !had_outstanding && !self.sb.is_empty() {
            self.arm_timers(now);
        }
        if self.sb.is_empty() {
            self.rto_deadline = None;
            self.probe_deadline = None;
        }
    }

    fn fin_at(&self, seq_end: u64) -> bool {
        self.app_fin && self.app_avail == 0 && seq_end == self.stream_len
    }

    fn may_send_new(&self) -> bool {
        if self.sb.in_flight() < self.cwnd {
            return true;
        }
        self.ca_state == CaState::Disorder && self.cfg.limited_transmit && self.lt_budget > 0
    }

    fn note_retransmission(&mut self) {
        self.stats.retrans_segs += 1;
        if self.undo_marker.is_some() {
            self.undo_retrans += 1;
            self.marker_retrans_total += 1;
        }
    }

    // ----------------------------------------------------------- timers

    /// The RTO deadline from `now`, including the timer-wheel granularity.
    fn rto_deadline_from(&self, now: SimTime) -> SimTime {
        now + self.rtt.rto_backed_off(self.rto_backoff) + self.cfg.timer_granularity
    }

    /// The RTO deadline anchored at the head segment's last transmission
    /// (Linux's `tcp_rearm_rto` offsets the elapsed time, so a probe does
    /// not push the timeout a full extra RTO into the future).
    fn rto_deadline_from_head(&self, now: SimTime) -> SimTime {
        let anchor = self.sb.head().map(|h| h.last_tx).unwrap_or(now);
        let deadline =
            anchor + self.rtt.rto_backed_off(self.rto_backoff) + self.cfg.timer_granularity;
        deadline.max(now + simnet::time::SimDuration::from_millis(1))
    }

    /// Arm the retransmission or probe timer per the configured recovery
    /// mechanism (S-RTO Algorithm 1's `SET_SRTO`).
    fn arm_timers(&mut self, now: SimTime) {
        if self.sb.is_empty() {
            self.rto_deadline = None;
            self.probe_deadline = None;
            return;
        }
        let rto = self.rtt.rto_backed_off(self.rto_backoff);
        match self.cfg.recovery {
            RecoveryMechanism::Native => {
                self.rto_deadline = Some(self.rto_deadline_from(now));
                self.probe_deadline = None;
            }
            RecoveryMechanism::Tlp(tlp) => {
                if self.ca_state == CaState::Open && !self.tlp_probe_out {
                    let srtt = self.rtt.srtt().unwrap_or(rto / 2);
                    let mut pto = srtt.saturating_mul(2).max(tlp.min_pto);
                    if self.sb.packets_out() == 1 {
                        pto += tlp.delack_allowance;
                    }
                    pto = pto.min(rto);
                    self.probe_deadline = Some((now + pto, ProbeKind::Tlp));
                    self.rto_deadline = None;
                } else {
                    self.rto_deadline = Some(self.rto_deadline_from(now));
                    self.probe_deadline = None;
                }
            }
            RecoveryMechanism::Srto(srto) => {
                let head_rto_retransmitted = self.sb.head().is_some_and(|h| h.ever_rto_retrans);
                if !head_rto_retransmitted && self.sb.packets_out() < srto.t1_packets {
                    let srtt = self.rtt.srtt().unwrap_or(rto / 2);
                    let probe = srtt.mul_f64(srto.probe_rtt_mult).min(rto);
                    self.probe_deadline = Some((now + probe, ProbeKind::Srto));
                    self.rto_deadline = None;
                } else {
                    self.rto_deadline = Some(self.rto_deadline_from(now));
                    self.probe_deadline = None;
                }
            }
            RecoveryMechanism::Tracks(tr) => {
                // ACK-state-driven: the virtual timer needs positive
                // dup-ACK evidence and a flow still short of fast
                // retransmit (Open/Disorder). Everything else is native.
                let pre_recovery =
                    self.ca_state == CaState::Open || self.ca_state == CaState::Disorder;
                if pre_recovery
                    && self.dup_count() >= tr.dupack_arm
                    && self.sb.packets_out() <= tr.max_packets_out
                {
                    let srtt = self.rtt.srtt().unwrap_or(rto / 2);
                    let delay = srtt.mul_f64(tr.timer_rtt_mult).max(tr.min_timeout).min(rto);
                    self.probe_deadline = Some((now + delay, ProbeKind::Tracks));
                    self.rto_deadline = None;
                } else {
                    self.rto_deadline = Some(self.rto_deadline_from(now));
                    self.probe_deadline = None;
                }
            }
        }
    }

    /// The earliest pending timer deadline, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let mut d = self.rto_deadline;
        if let Some((p, _)) = self.probe_deadline {
            d = Some(d.map_or(p, |x| x.min(p)));
        }
        if let Some(p) = self.persist_deadline {
            d = Some(d.map_or(p, |x| x.min(p)));
        }
        if let Some(p) = self.pace_deadline {
            d = Some(d.map_or(p, |x| x.min(p)));
        }
        d
    }

    /// Fire any expired timers.
    pub fn on_tick(&mut self, now: SimTime, out: &mut Vec<SendOp>) {
        if let Some(deadline) = self.pace_deadline {
            if now >= deadline {
                self.pace_deadline = None;
                self.poll(now, out);
            }
        }
        if let Some((deadline, kind)) = self.probe_deadline {
            if now >= deadline {
                self.probe_deadline = None;
                match kind {
                    ProbeKind::Srto => self.trigger_srto(now, out),
                    ProbeKind::Tlp => self.trigger_tlp(now, out),
                    ProbeKind::Tracks => self.trigger_tracks(now, out),
                }
            }
        }
        if let Some(deadline) = self.rto_deadline {
            if now >= deadline {
                self.rto_deadline = None;
                self.on_rto(now, out);
            }
        }
        if let Some(deadline) = self.persist_deadline {
            if now >= deadline {
                self.persist_deadline = None;
                if self.peer_rwnd < self.cfg.mss as u64 && self.app_avail > 0 && self.sb.is_empty()
                {
                    out.push(SendOp::WindowProbe);
                    self.stats.window_probes += 1;
                    self.persist_backoff = (self.persist_backoff + 1).min(MAX_RTO_BACKOFF);
                    self.persist_deadline =
                        Some(now + self.rtt.rto_backed_off(self.persist_backoff));
                }
            }
        }
    }

    /// S-RTO Algorithm 1, `TRIGGER_SRTO`: retransmit the first
    /// unacknowledged packet, conditionally halve cwnd, enter Recovery, and
    /// fall back to the native RTO.
    fn trigger_srto(&mut self, now: SimTime, out: &mut Vec<SendOp>) {
        let Some(head) = self.sb.head() else {
            self.arm_timers(now);
            return;
        };
        let seq = head.seq;
        let srto = match self.cfg.recovery {
            RecoveryMechanism::Srto(c) => c,
            _ => unreachable!("srto probe armed without srto mechanism"),
        };
        // Save undo state *before* any window reduction, so that a
        // DSACK-proven spurious probe restores the full window. The probe
        // keeps its own undo record because the Recovery episode it starts
        // may complete (clearing the generic marker) before the DSACK for
        // the probe arrives.
        if self.ca_state != CaState::Recovery {
            self.srto_probe_undo = Some((seq, self.cwnd, self.ssthresh));
            if self.undo_marker.is_none() {
                self.prior_cwnd = self.cwnd;
                self.prior_ssthresh = self.ssthresh;
                self.undo_marker = Some(self.sb.snd_una());
                self.undo_retrans = 0;
                self.marker_retrans_total = 0;
            }
        }

        // Assume the head is lost.
        self.sb.mark_lost_head();
        let len = self
            .sb
            .on_retransmit(now, seq, false, false)
            .expect("head outstanding");
        self.note_retransmission();
        self.stats.srto_probes += 1;
        out.push(SendOp::Data {
            seq,
            len,
            retrans: true,
            fin: self.fin_at(seq + len as u64),
        });

        if self.cwnd > srto.t2_cwnd && self.ca_state != CaState::Recovery {
            self.cwnd = (self.cwnd / 2).max(1);
            self.ssthresh = self.cwnd.max(2);
            self.cc.on_congestion_event(self.cwnd);
        }
        if self.ca_state != CaState::Recovery {
            self.high_seq = self.sb.snd_nxt();
        }
        self.ca_state = CaState::Recovery;
        // timer ← native_rto (anchored at the head's retransmission time).
        self.rto_deadline = Some(self.rto_deadline_from_head(now));
        self.probe_deadline = None;
    }

    /// TLP probe: transmit new data if available, else retransmit the
    /// highest outstanding segment. Open state only.
    fn trigger_tlp(&mut self, now: SimTime, out: &mut Vec<SendOp>) {
        if self.ca_state != CaState::Open || self.sb.is_empty() {
            self.arm_timers(now);
            return;
        }
        self.tlp_probe_out = true;
        self.stats.tlp_probes += 1;
        if self.app_avail > 0
            && self.sb.snd_nxt() + self.cfg.mss as u64 - self.sb.snd_una() <= self.peer_rwnd
        {
            let len = (self.app_avail.min(self.cfg.mss as u64)) as u32;
            let seq = self.sb.transmit_new(now, len);
            self.app_avail -= len as u64;
            self.stats.data_segs_sent += 1;
            self.stats.bytes_sent += len as u64;
            out.push(SendOp::Data {
                seq,
                len,
                retrans: false,
                fin: self.fin_at(seq + len as u64),
            });
        } else {
            let last = self.sb.iter().last().expect("non-empty");
            let (seq, len) = (last.seq, last.len);
            self.sb.on_retransmit(now, seq, false, false);
            self.note_retransmission();
            out.push(SendOp::Data {
                seq,
                len,
                retrans: true,
                fin: self.fin_at(seq + len as u64),
            });
        }
        // Fall back to the RTO, anchored at the head's transmission time so
        // the probe does not delay an eventual timeout by a full RTO.
        self.rto_deadline = Some(self.rto_deadline_from_head(now));
        self.probe_deadline = None;
    }

    /// T-RACKs virtual timer: the dup-ACK evidence that armed it never
    /// reached `dupthres`, so force the fast-retransmit entry those missing
    /// duplicates would have triggered — full `enter_recovery` semantics
    /// (ssthresh reduction, loss marking, head retransmission via `poll`) —
    /// then fall back to the head-anchored native RTO.
    fn trigger_tracks(&mut self, now: SimTime, out: &mut Vec<SendOp>) {
        let still_armed = match self.cfg.recovery {
            RecoveryMechanism::Tracks(tr) => {
                self.dup_count() >= tr.dupack_arm && self.sb.packets_out() <= tr.max_packets_out
            }
            _ => unreachable!("tracks timer armed without tracks mechanism"),
        };
        let pre_recovery = self.ca_state == CaState::Open || self.ca_state == CaState::Disorder;
        if self.sb.is_empty() || !pre_recovery || !still_armed {
            self.arm_timers(now);
            return;
        }
        self.stats.tracks_forced += 1;
        // Forced fast-retransmit entry, but with head-only loss marking:
        // the dup-ACK evidence is below `dupthres`, so a full FACK sweep
        // would turn one suspected hole into a burst of speculative
        // retransmissions (and on a bursty path, into real drops that only
        // the RTO can repair — the f-double trap). If more holes are real,
        // the dupacks that keep arriving in Recovery mark them normally.
        self.prior_cwnd = self.cwnd;
        self.prior_ssthresh = self.ssthresh;
        self.undo_marker = Some(self.sb.snd_una());
        self.undo_retrans = 0;
        self.marker_retrans_total = 0;
        self.ssthresh = self.cc.ssthresh(self.cwnd);
        self.cc.on_congestion_event(self.cwnd);
        self.high_seq = self.sb.snd_nxt();
        self.ca_state = CaState::Recovery;
        self.rh_ack_cnt = 0;
        self.stats.fast_recovery_count += 1;
        self.sb.mark_lost_head();
        self.poll(now, out);
        self.rto_deadline = Some(self.rto_deadline_from_head(now));
        self.probe_deadline = None;
    }

    /// Retransmission timeout (`tcp_retransmit_timer` + `tcp_enter_loss`).
    fn on_rto(&mut self, now: SimTime, out: &mut Vec<SendOp>) {
        if self.sb.is_empty() {
            return;
        }
        self.stats.rto_count += 1;
        self.srto_probe_undo = None;
        if self.ca_state != CaState::Loss {
            self.prior_cwnd = self.cwnd;
            self.prior_ssthresh = self.ssthresh;
            self.undo_marker = Some(self.sb.snd_una());
            self.undo_retrans = 0;
            self.marker_retrans_total = 0;
            self.ssthresh = self.cc.ssthresh(self.cwnd);
            self.cc.on_congestion_event(self.cwnd);
        }
        self.ca_state = CaState::Loss;
        self.high_seq = self.sb.snd_nxt();
        self.cwnd = 1;
        self.dupacks = 0;
        self.tlp_probe_out = false;
        self.sb.mark_all_lost();
        self.rto_backoff = (self.rto_backoff + 1).min(MAX_RTO_BACKOFF);
        self.poll(now, out);
        self.rto_deadline = Some(self.rto_deadline_from(now));
        self.probe_deadline = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn reno_sender() -> Sender {
        let mut s = Sender::new(SenderConfig {
            cc: CcKind::Reno,
            init_cwnd: 10,
            ..SenderConfig::default()
        });
        s.set_peer_rwnd(1 << 20);
        s
    }

    fn ack(ackno: u64, rwnd: u64) -> Segment {
        Segment::pure_ack(ackno, rwnd)
    }

    fn sack_ack(ackno: u64, rwnd: u64, blocks: &[(u64, u64)]) -> Segment {
        let mut s = Segment::pure_ack(ackno, rwnd);
        s.sack = blocks.iter().map(|&(a, b)| SackBlock::new(a, b)).collect();
        s
    }

    /// Transmit `n` MSS of data at time `t`, returning the emitted ops.
    fn send_data(s: &mut Sender, t: SimTime, n: u32) -> Vec<SendOp> {
        s.app_write(n as u64 * DEFAULT_MSS as u64);
        let mut out = Vec::new();
        s.poll(t, &mut out);
        out
    }

    #[test]
    fn initial_send_respects_init_cwnd() {
        let mut s = Sender::new(SenderConfig::default());
        s.set_peer_rwnd(1 << 20);
        let ops = send_data(&mut s, ms(0), 10);
        assert_eq!(ops.len(), 3); // init_cwnd = 3
        assert_eq!(s.scoreboard().packets_out(), 3);
        assert!(s.next_deadline().is_some(), "RTO armed");
    }

    #[test]
    fn rwnd_limits_bytes_in_flight() {
        let mut s = Sender::new(SenderConfig {
            init_cwnd: 100,
            ..SenderConfig::default()
        });
        s.set_peer_rwnd(3 * DEFAULT_MSS as u64);
        let ops = send_data(&mut s, ms(0), 10);
        assert_eq!(ops.len(), 3, "limited by peer rwnd");
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = reno_sender();
        let ops = send_data(&mut s, ms(0), 100);
        assert_eq!(ops.len(), 10);
        // ACK all 10: cwnd 10 → 20 in slow start.
        let mut out = Vec::new();
        s.on_ack(ms(100), &ack(10 * DEFAULT_MSS as u64, 1 << 20), &mut out);
        assert_eq!(s.cwnd(), 20);
        assert_eq!(out.len(), 20, "sends a full new window");
    }

    #[test]
    fn dupacks_move_open_to_disorder_then_recovery() {
        let mut s = reno_sender();
        send_data(&mut s, ms(0), 10);
        let mss = DEFAULT_MSS as u64;
        let mut out = Vec::new();
        // SACK of segment 1 (segment 0 missing).
        s.on_ack(ms(100), &sack_ack(0, 1 << 20, &[(mss, 2 * mss)]), &mut out);
        assert_eq!(s.ca_state(), CaState::Disorder);
        s.on_ack(ms(101), &sack_ack(0, 1 << 20, &[(mss, 3 * mss)]), &mut out);
        assert_eq!(s.ca_state(), CaState::Disorder);
        out.clear();
        s.on_ack(ms(102), &sack_ack(0, 1 << 20, &[(mss, 4 * mss)]), &mut out);
        assert_eq!(s.ca_state(), CaState::Recovery);
        // Head must have been fast-retransmitted.
        assert!(out.iter().any(|op| matches!(
            op,
            SendOp::Data {
                seq: 0,
                retrans: true,
                ..
            }
        )));
        assert_eq!(s.stats().fast_recovery_count, 1);
        assert_eq!(s.ssthresh(), 5); // reno halves cwnd 10 → 5
    }

    #[test]
    fn recovery_completes_and_sets_cwnd_to_ssthresh() {
        let mut s = reno_sender();
        send_data(&mut s, ms(0), 10);
        let mss = DEFAULT_MSS as u64;
        let mut out = Vec::new();
        for i in 1..=3 {
            s.on_ack(
                ms(100 + i),
                &sack_ack(0, 1 << 20, &[(mss, (1 + i) * mss)]),
                &mut out,
            );
        }
        assert_eq!(s.ca_state(), CaState::Recovery);
        // Cumulative ACK of everything ends recovery.
        s.on_ack(ms(200), &ack(10 * mss, 1 << 20), &mut out);
        assert_eq!(s.ca_state(), CaState::Open);
        assert_eq!(s.cwnd(), s.ssthresh());
    }

    #[test]
    fn limited_transmit_sends_new_data_on_first_two_dupacks() {
        let mut s = reno_sender();
        // 10 outstanding, more data waiting.
        s.app_write(20 * DEFAULT_MSS as u64);
        let mut out = Vec::new();
        s.poll(ms(0), &mut out);
        assert_eq!(out.len(), 10);
        let mss = DEFAULT_MSS as u64;
        out.clear();
        s.on_ack(ms(100), &sack_ack(0, 1 << 20, &[(mss, 2 * mss)]), &mut out);
        // cwnd full (in_flight only dropped by the sack), limited transmit
        // allows one new segment.
        assert_eq!(
            out.iter()
                .filter(|op| matches!(op, SendOp::Data { retrans: false, .. }))
                .count(),
            1
        );
    }

    #[test]
    fn rto_enters_loss_collapses_cwnd_and_retransmits_head() {
        let mut s = reno_sender();
        send_data(&mut s, ms(0), 10);
        let deadline = s.next_deadline().expect("rto armed");
        let mut out = Vec::new();
        s.on_tick(deadline, &mut out);
        assert_eq!(s.ca_state(), CaState::Loss);
        assert_eq!(s.cwnd(), 1);
        assert_eq!(s.stats().rto_count, 1);
        assert_eq!(
            out.iter()
                .filter(|op| matches!(
                    op,
                    SendOp::Data {
                        seq: 0,
                        retrans: true,
                        ..
                    }
                ))
                .count(),
            1
        );
        // Backoff doubles the next deadline.
        let d2 = s.next_deadline().unwrap();
        assert!(d2 > deadline);
    }

    #[test]
    fn rto_backoff_is_exponential() {
        let mut s = reno_sender();
        send_data(&mut s, ms(0), 1);
        let d1 = s.next_deadline().unwrap();
        let mut out = Vec::new();
        s.on_tick(d1, &mut out);
        let d2 = s.next_deadline().unwrap();
        s.on_tick(d2, &mut out);
        let d3 = s.next_deadline().unwrap();
        // Gaps are RTO + one timer-granularity tick; the RTO part doubles.
        let g = SenderConfig::default().timer_granularity;
        let gap1 = (d2 - d1) - g;
        let gap2 = (d3 - d2) - g;
        assert_eq!(gap2.as_micros(), gap1.as_micros() * 2);
    }

    #[test]
    fn loss_recovery_slow_starts_back() {
        let mut s = reno_sender();
        send_data(&mut s, ms(0), 4);
        let mss = DEFAULT_MSS as u64;
        let mut out = Vec::new();
        let d = s.next_deadline().unwrap();
        s.on_tick(d, &mut out);
        assert_eq!(s.ca_state(), CaState::Loss);
        // ACK the retransmitted head: slow start growth, more retransmits.
        out.clear();
        s.on_ack(
            d + SimDuration::from_millis(100),
            &ack(mss, 1 << 20),
            &mut out,
        );
        assert_eq!(s.cwnd(), 2);
        assert_eq!(s.ca_state(), CaState::Loss);
        // ACK everything: back to Open.
        s.on_ack(
            d + SimDuration::from_millis(200),
            &ack(4 * mss, 1 << 20),
            &mut out,
        );
        assert_eq!(s.ca_state(), CaState::Open);
    }

    #[test]
    fn dropped_retransmission_waits_for_rto_natively() {
        // The f-double scenario: head lost, fast-retransmitted, the
        // retransmission is lost too. Further dupacks must NOT trigger
        // another retransmission; only the RTO repairs it.
        let mut s = reno_sender();
        send_data(&mut s, ms(0), 10);
        let mss = DEFAULT_MSS as u64;
        let mut out = Vec::new();
        for i in 1..=3u64 {
            s.on_ack(
                ms(100 + i),
                &sack_ack(0, 1 << 20, &[(mss, (1 + i) * mss)]),
                &mut out,
            );
        }
        assert_eq!(s.ca_state(), CaState::Recovery);
        let retrans_before = s.stats().retrans_segs;
        out.clear();
        // More dupacks (the retransmission was dropped).
        for i in 4..=9u64 {
            s.on_ack(
                ms(100 + i),
                &sack_ack(0, 1 << 20, &[(mss, (1 + i) * mss)]),
                &mut out,
            );
        }
        assert_eq!(
            s.stats().retrans_segs,
            retrans_before,
            "native sender must not re-retransmit seq 0 on dupacks"
        );
        assert!(out
            .iter()
            .all(|op| !matches!(op, SendOp::Data { seq: 0, .. })));
        // Only the RTO repairs it.
        let d = s.next_deadline().unwrap();
        out.clear();
        s.on_tick(d, &mut out);
        assert!(out.iter().any(|op| matches!(
            op,
            SendOp::Data {
                seq: 0,
                retrans: true,
                ..
            }
        )));
        let head = s.scoreboard().seg_at(0).unwrap();
        assert_eq!(head.retrans_count, 2);
        assert!(head.ever_rto_retrans);
        assert_eq!(head.first_retrans_fast, Some(true));
    }

    #[test]
    fn srto_probe_repairs_f_double_without_full_rto() {
        let mut s = Sender::new(SenderConfig {
            cc: CcKind::Reno,
            init_cwnd: 10,
            recovery: RecoveryMechanism::srto(),
            ..SenderConfig::default()
        });
        s.set_peer_rwnd(1 << 20);
        // Establish an RTT estimate first.
        send_data(&mut s, ms(0), 1);
        let mut out = Vec::new();
        s.on_ack(ms(100), &ack(DEFAULT_MSS as u64, 1 << 20), &mut out);
        // Now a window with a loss.
        s.app_write(9 * DEFAULT_MSS as u64);
        out.clear();
        s.poll(ms(100), &mut out);
        let mss = DEFAULT_MSS as u64;
        let base = mss;
        for i in 1..=3u64 {
            s.on_ack(
                ms(200 + i),
                &sack_ack(base, 1 << 20, &[(base + mss, base + (1 + i) * mss)]),
                &mut out,
            );
        }
        assert_eq!(s.ca_state(), CaState::Recovery);
        // The fast retransmission of `base` is dropped. S-RTO probe must
        // fire ~2·SRTT later, well before the RTO, and retransmit it again.
        let d = s.next_deadline().unwrap();
        let rto = s.rtt().rto();
        assert!(
            d - ms(203) < rto,
            "probe deadline {d} must precede RTO-based deadline"
        );
        out.clear();
        s.on_tick(d, &mut out);
        assert_eq!(s.stats().srto_probes, 1);
        assert!(out
            .iter()
            .any(|op| matches!(op, SendOp::Data { seq, retrans: true, .. } if *seq == base)));
        let head = s.scoreboard().seg_at(base).unwrap();
        assert_eq!(head.retrans_count, 2);
        assert!(!head.ever_rto_retrans, "probe is not a native RTO");
    }

    #[test]
    fn srto_respects_t1_threshold() {
        let mut s = Sender::new(SenderConfig {
            cc: CcKind::Reno,
            init_cwnd: 20,
            recovery: RecoveryMechanism::Srto(crate::recovery::SrtoConfig {
                t1_packets: 5,
                ..Default::default()
            }),
            ..SenderConfig::default()
        });
        s.set_peer_rwnd(1 << 20);
        send_data(&mut s, ms(0), 10);
        // 10 ≥ T1=5 outstanding: native RTO must be armed, not the probe.
        let d = s.next_deadline().unwrap();
        assert_eq!(
            d,
            ms(0) + s.rtt().rto() + SenderConfig::default().timer_granularity
        );
    }

    #[test]
    fn srto_halves_cwnd_only_above_t2() {
        let mut s = Sender::new(SenderConfig {
            cc: CcKind::Reno,
            init_cwnd: 4,
            recovery: RecoveryMechanism::srto(),
            ..SenderConfig::default()
        });
        s.set_peer_rwnd(1 << 20);
        send_data(&mut s, ms(0), 1);
        let mut out = Vec::new();
        s.on_ack(ms(100), &ack(DEFAULT_MSS as u64, 1 << 20), &mut out);
        s.app_write(2 * DEFAULT_MSS as u64);
        s.poll(ms(100), &mut out);
        let d = s.next_deadline().unwrap();
        out.clear();
        s.on_tick(d, &mut out);
        // cwnd was 4+ (grew to 5 after the ack) ≤ T2=5 ⇒ no halving.
        assert_eq!(s.stats().srto_probes, 1);
        assert!(
            s.cwnd() >= 4,
            "cwnd {} must not be halved at/below T2",
            s.cwnd()
        );
        assert_eq!(s.ca_state(), CaState::Recovery);
    }

    #[test]
    fn srto_deactivates_after_native_rto_on_head() {
        let mut s = Sender::new(SenderConfig {
            cc: CcKind::Reno,
            init_cwnd: 10,
            recovery: RecoveryMechanism::srto(),
            ..SenderConfig::default()
        });
        s.set_peer_rwnd(1 << 20);
        send_data(&mut s, ms(0), 2);
        // Probe fires, retransmits head, falls back to RTO.
        let d1 = s.next_deadline().unwrap();
        let mut out = Vec::new();
        s.on_tick(d1, &mut out);
        assert_eq!(s.stats().srto_probes, 1);
        // RTO fires: head now RTO-retransmitted.
        let d2 = s.next_deadline().unwrap();
        s.on_tick(d2, &mut out);
        assert_eq!(s.stats().rto_count, 1);
        // Next arming must be a native RTO (head.ever_rto_retrans).
        let d3 = s.next_deadline().unwrap();
        let gap = d3 - d2;
        assert!(
            gap >= s.rtt().rto(),
            "S-RTO must not re-arm after a native RTO, got {gap}"
        );
    }

    fn tracks_sender(cfg: crate::recovery::TracksConfig) -> Sender {
        let mut s = Sender::new(SenderConfig {
            cc: CcKind::Reno,
            init_cwnd: 10,
            recovery: RecoveryMechanism::Tracks(cfg),
            ..SenderConfig::default()
        });
        s.set_peer_rwnd(1 << 20);
        s
    }

    #[test]
    fn tracks_forces_fast_retransmit_before_rto() {
        let mut s = tracks_sender(Default::default());
        // Establish an RTT estimate first.
        send_data(&mut s, ms(0), 1);
        let mut out = Vec::new();
        s.on_ack(ms(100), &ack(DEFAULT_MSS as u64, 1 << 20), &mut out);
        // A window with the head lost: only TWO dupacks ever arrive (tail
        // loss starves the dupack supply below dupthres = 3), so native
        // fast retransmit never triggers and the flow would wait out the
        // full RTO.
        s.app_write(5 * DEFAULT_MSS as u64);
        out.clear();
        s.poll(ms(100), &mut out);
        let mss = DEFAULT_MSS as u64;
        let base = mss;
        for i in 1..=2u64 {
            s.on_ack(
                ms(200 + i),
                &sack_ack(base, 1 << 20, &[(base + mss, base + (1 + i) * mss)]),
                &mut out,
            );
        }
        assert_eq!(s.ca_state(), CaState::Disorder);
        // The virtual timer must be armed well before the RTO.
        let d = s.next_deadline().unwrap();
        let rto_deadline = ms(202) + s.rtt().rto();
        assert!(d < rto_deadline, "T-RACKs timer {d} must precede the RTO");
        out.clear();
        s.on_tick(d, &mut out);
        assert_eq!(s.stats().tracks_forced, 1);
        assert_eq!(s.ca_state(), CaState::Recovery, "forced fast-retransmit");
        assert_eq!(s.stats().fast_recovery_count, 1);
        assert!(out
            .iter()
            .any(|op| matches!(op, SendOp::Data { seq, retrans: true, .. } if *seq == base)));
        let head = s.scoreboard().seg_at(base).unwrap();
        assert!(!head.ever_rto_retrans, "forced entry is not a native RTO");
    }

    #[test]
    fn tracks_does_not_arm_without_dupack_evidence() {
        let mut s = tracks_sender(Default::default());
        send_data(&mut s, ms(0), 5);
        // No ACKs at all: a quiet tail arms the native RTO, never the
        // virtual timer (unlike TLP/S-RTO, T-RACKs needs dup-ACK state).
        let d = s.next_deadline().unwrap();
        assert_eq!(
            d,
            ms(0) + s.rtt().rto() + SenderConfig::default().timer_granularity
        );
        let mut out = Vec::new();
        s.on_tick(d, &mut out);
        assert_eq!(s.stats().tracks_forced, 0);
        assert_eq!(s.stats().rto_count, 1);
    }

    #[test]
    fn tracks_arm_threshold_rearm_on_later_dupack() {
        let mut s = tracks_sender(crate::recovery::TracksConfig {
            dupack_arm: 2,
            ..Default::default()
        });
        send_data(&mut s, ms(0), 1);
        let mut out = Vec::new();
        s.on_ack(ms(100), &ack(DEFAULT_MSS as u64, 1 << 20), &mut out);
        s.app_write(6 * DEFAULT_MSS as u64);
        s.poll(ms(100), &mut out);
        let mss = DEFAULT_MSS as u64;
        let base = mss;
        // First dupack: below the arm threshold, native RTO stays armed.
        s.on_ack(
            ms(201),
            &sack_ack(base, 1 << 20, &[(base + mss, base + 2 * mss)]),
            &mut out,
        );
        let rto = s.rtt().rto();
        assert!(s.next_deadline().unwrap() >= ms(201) + rto);
        // Second dupack crosses the threshold: the pending RTO must be
        // replaced by the short virtual timer even though the congestion
        // state did not change (Disorder → Disorder).
        s.on_ack(
            ms(202),
            &sack_ack(base, 1 << 20, &[(base + mss, base + 3 * mss)]),
            &mut out,
        );
        let d = s.next_deadline().unwrap();
        assert!(d < ms(202) + rto, "virtual timer {d} must precede the RTO");
        out.clear();
        s.on_tick(d, &mut out);
        assert_eq!(s.stats().tracks_forced, 1);
    }

    #[test]
    fn tracks_falls_back_to_native_rto_after_forcing() {
        let mut s = tracks_sender(Default::default());
        send_data(&mut s, ms(0), 1);
        let mut out = Vec::new();
        s.on_ack(ms(100), &ack(DEFAULT_MSS as u64, 1 << 20), &mut out);
        s.app_write(5 * DEFAULT_MSS as u64);
        s.poll(ms(100), &mut out);
        let mss = DEFAULT_MSS as u64;
        let base = mss;
        for i in 1..=2u64 {
            s.on_ack(
                ms(200 + i),
                &sack_ack(base, 1 << 20, &[(base + mss, base + (1 + i) * mss)]),
                &mut out,
            );
        }
        let d = s.next_deadline().unwrap();
        out.clear();
        s.on_tick(d, &mut out);
        assert_eq!(s.stats().tracks_forced, 1);
        // The forced retransmission is lost too: in Recovery the virtual
        // timer must NOT re-arm; only the native RTO repairs it.
        let d2 = s.next_deadline().unwrap();
        out.clear();
        s.on_tick(d2, &mut out);
        assert_eq!(s.stats().tracks_forced, 1, "no re-fire in Recovery");
        assert_eq!(s.stats().rto_count, 1);
        assert!(out.iter().any(|op| matches!(
            op,
            SendOp::Data {
                seq,
                retrans: true,
                ..
            } if *seq == base
        )));
    }

    #[test]
    fn tlp_probes_tail_loss_in_open_state() {
        let mut s = Sender::new(SenderConfig {
            cc: CcKind::Reno,
            init_cwnd: 10,
            recovery: RecoveryMechanism::tlp(),
            ..SenderConfig::default()
        });
        s.set_peer_rwnd(1 << 20);
        send_data(&mut s, ms(0), 1);
        let mut out = Vec::new();
        s.on_ack(ms(100), &ack(DEFAULT_MSS as u64, 1 << 20), &mut out);
        // Send the tail segment; its loss leaves us in Open with no dupacks.
        s.app_write(DEFAULT_MSS as u64);
        out.clear();
        s.poll(ms(100), &mut out);
        let d = s.next_deadline().unwrap();
        let rto_deadline = ms(100) + s.rtt().rto();
        // With one packet out the PTO includes the delayed-ACK allowance and
        // is capped at the RTO; it must never be later.
        assert!(
            d <= rto_deadline,
            "PTO {d} must not exceed RTO {rto_deadline}"
        );
        out.clear();
        s.on_tick(d, &mut out);
        assert_eq!(s.stats().tlp_probes, 1);
        // No new data ⇒ the probe retransmits the last segment.
        assert!(out
            .iter()
            .any(|op| matches!(op, SendOp::Data { retrans: true, .. })));
        // Only one probe per episode: next deadline is the RTO.
        assert!(s.next_deadline().unwrap() >= d);
    }

    #[test]
    fn tlp_does_not_probe_in_recovery() {
        let mut s = Sender::new(SenderConfig {
            cc: CcKind::Reno,
            init_cwnd: 10,
            recovery: RecoveryMechanism::tlp(),
            ..SenderConfig::default()
        });
        s.set_peer_rwnd(1 << 20);
        send_data(&mut s, ms(0), 10);
        let mss = DEFAULT_MSS as u64;
        let mut out = Vec::new();
        for i in 1..=3u64 {
            s.on_ack(
                ms(100 + i),
                &sack_ack(0, 1 << 20, &[(mss, (1 + i) * mss)]),
                &mut out,
            );
        }
        assert_eq!(s.ca_state(), CaState::Recovery);
        // In Recovery the full RTO is armed — TLP cannot help f-double.
        let d = s.next_deadline().unwrap();
        assert!(d >= ms(103) + s.rtt().rto() - SimDuration::from_millis(1));
        out.clear();
        s.on_tick(d, &mut out);
        assert_eq!(s.stats().tlp_probes, 0);
        assert_eq!(s.stats().rto_count, 1);
    }

    #[test]
    fn dsack_undo_restores_window_after_spurious_rto() {
        let mut s = reno_sender();
        send_data(&mut s, ms(0), 4);
        let mss = DEFAULT_MSS as u64;
        let mut out = Vec::new();
        // Establish srtt.
        s.on_ack(ms(100), &ack(mss, 1 << 20), &mut out);
        let cwnd_before = s.cwnd();
        // Spurious RTO (ACKs were just delayed).
        let d = s.next_deadline().unwrap();
        out.clear();
        s.on_tick(d, &mut out);
        assert_eq!(s.ca_state(), CaState::Loss);
        // The delayed cumulative ACK arrives with a DSACK for the
        // retransmitted head.
        let mut seg = ack(4 * mss, 1 << 20);
        seg.sack = [SackBlock::new(mss, 2 * mss)].into();
        seg.dsack = true;
        s.on_ack(d + SimDuration::from_millis(10), &seg, &mut out);
        assert_eq!(s.stats().undo_count, 1);
        assert!(
            s.cwnd() >= cwnd_before,
            "cwnd {} restored to ≥ {cwnd_before}",
            s.cwnd()
        );
        assert_eq!(s.ca_state(), CaState::Open);
    }

    #[test]
    fn zero_window_arms_persist_timer_and_probes() {
        let mut s = reno_sender();
        // Peer advertises zero window before anything is sent.
        s.set_peer_rwnd(0);
        s.app_write(5000);
        let mut out = Vec::new();
        s.poll(ms(0), &mut out);
        assert!(out.is_empty(), "no data into a zero window");
        let d = s.next_deadline().expect("persist timer armed");
        s.on_tick(d, &mut out);
        assert_eq!(out, vec![SendOp::WindowProbe]);
        assert_eq!(s.stats().window_probes, 1);
        // Window opens: transmission resumes.
        out.clear();
        s.on_ack(d + SimDuration::from_millis(1), &ack(0, 1 << 20), &mut out);
        assert!(!out.is_empty());
    }

    #[test]
    fn fin_rides_on_final_data_segment() {
        let mut s = reno_sender();
        s.app_write(2000);
        s.app_close();
        let mut out = Vec::new();
        s.poll(ms(0), &mut out);
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], SendOp::Data { fin: false, .. }));
        assert!(matches!(out[1], SendOp::Data { fin: true, .. }));
    }

    #[test]
    fn dsack_alone_does_not_inflate_dupthres() {
        let mut s = reno_sender();
        send_data(&mut s, ms(0), 6);
        let mss = DEFAULT_MSS as u64;
        let mut out = Vec::new();
        let before = s.dupthres();
        let mut seg = ack(mss, 1 << 20);
        seg.sack = [SackBlock::new(0, mss)].into();
        seg.dsack = true;
        s.on_ack(ms(100), &seg, &mut out);
        assert_eq!(
            s.dupthres(),
            before,
            "DSACK is undo evidence, not reordering evidence"
        );
    }

    #[test]
    fn early_retransmit_lowers_threshold_for_tiny_windows() {
        let mut s = Sender::new(SenderConfig {
            cc: CcKind::Reno,
            init_cwnd: 10,
            early_retransmit: true,
            ..SenderConfig::default()
        });
        s.set_peer_rwnd(1 << 20);
        send_data(&mut s, ms(0), 2);
        let mss = DEFAULT_MSS as u64;
        let mut out = Vec::new();
        // A single dupack (SACK of seg 1) with only 2 outstanding triggers
        // early retransmit (threshold = packets_out − 1 = 1).
        s.on_ack(ms(100), &sack_ack(0, 1 << 20, &[(mss, 2 * mss)]), &mut out);
        assert_eq!(s.ca_state(), CaState::Recovery);
        assert!(out.iter().any(|op| matches!(
            op,
            SendOp::Data {
                seq: 0,
                retrans: true,
                ..
            }
        )));
    }

    #[test]
    fn pacing_spreads_a_window_across_the_rtt() {
        let mut s = Sender::new(SenderConfig {
            cc: CcKind::Reno,
            init_cwnd: 10,
            pacing: true,
            ..SenderConfig::default()
        });
        s.set_peer_rwnd(1 << 20);
        s.seed_rtt(SimDuration::from_millis(100));
        s.app_write(10 * DEFAULT_MSS as u64);
        let mut out = Vec::new();
        s.poll(ms(0), &mut out);
        // Only the burst credit (~2 packets) goes out immediately; the rest
        // wait on the pace clock (interval = 100ms / 10 = 10ms).
        assert!(out.len() <= 2, "paced burst too large: {}", out.len());
        let d = s.next_deadline().expect("pace timer armed");
        assert!(d <= ms(20), "first pace release at {d}");
        // Walking the pace clock releases everything, spread over ~100ms.
        let mut released = out.len();
        let mut now = ms(0);
        for _ in 0..200 {
            let Some(d) = s.next_deadline() else { break };
            now = d;
            let mut more = Vec::new();
            s.on_tick(now, &mut more);
            released += more.len();
            if released == 10 {
                break;
            }
        }
        assert_eq!(released, 10, "all packets eventually released");
        assert!(
            now >= ms(70) && now <= ms(130),
            "window spread over ~1 RTT, ended {now}"
        );
    }

    #[test]
    fn pacing_off_sends_full_burst() {
        let mut s = reno_sender();
        s.app_write(10 * DEFAULT_MSS as u64);
        let mut out = Vec::new();
        s.poll(ms(0), &mut out);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn all_acked_reflects_stream_state() {
        let mut s = reno_sender();
        assert!(s.all_acked());
        s.app_write(1000);
        assert!(!s.all_acked());
        let mut out = Vec::new();
        s.poll(ms(0), &mut out);
        s.on_ack(ms(50), &ack(1000, 1 << 20), &mut out);
        assert!(s.all_acked());
    }
}
