//! Classic libpcap 2.4 file I/O with from-scratch Ethernet/IPv4/TCP
//! encode/decode.
//!
//! The writer emits header-only captures (snaplen-truncated, like the
//! production `tcpdump -s96` captures analyzed in the paper): the IPv4
//! `total_length` field carries the true payload size while the capture
//! record stores only link/IP/TCP headers. TCP options encode what the
//! classifier needs: MSS + SACK-permitted + window-scale on SYNs, and
//! SACK/DSACK blocks on ACKs. TCP checksums are written as zero (checksum
//! offload — ubiquitous in real server captures); IPv4 header checksums are
//! valid.
//!
//! Sequence numbers are 32-bit on the wire; the reader unwraps them back to
//! 64-bit stream offsets relative to each direction's ISN.

use std::io::{self, Read, Write};

use crate::flow::{reopens, FlowKey, FlowTable, FlowTrace};
use crate::record::{Direction, SackBlock, SackList, SegFlags, TraceRecord, SACK_CAP};
use simnet::time::SimTime;

const MAGIC_LE: u32 = 0xa1b2_c3d4;
const MAGIC_BE: u32 = 0xd4c3_b2a1;
/// Fixed window-scale shift used by the writer (both directions).
pub const WSCALE_SHIFT: u8 = 7;
/// Outbound (server) initial sequence number used by the writer.
pub const ISN_OUT: u32 = 0x1000_0000;
/// Inbound (client) initial sequence number used by the writer.
pub const ISN_IN: u32 = 0x2000_0000;

/// Errors produced by the pcap reader.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a classic pcap file (bad magic).
    BadMagic(u32),
    /// Structurally invalid packet or header.
    Malformed(&'static str),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap I/O error: {e}"),
            PcapError::BadMagic(m) => write!(f, "not a classic pcap file (magic {m:#010x})"),
            PcapError::Malformed(what) => write!(f, "malformed pcap: {what}"),
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

// ---------------------------------------------------------------- writing

/// Streams one or more [`FlowTrace`]s into a classic pcap file.
pub struct PcapWriter<W: Write> {
    out: W,
}

impl<W: Write> PcapWriter<W> {
    /// Create a writer and emit the global header.
    pub fn new(mut out: W) -> io::Result<Self> {
        let mut hdr = Vec::with_capacity(24);
        hdr.extend_from_slice(&MAGIC_LE.to_le_bytes());
        hdr.extend_from_slice(&2u16.to_le_bytes()); // version major
        hdr.extend_from_slice(&4u16.to_le_bytes()); // version minor
        hdr.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        hdr.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        hdr.extend_from_slice(&65535u32.to_le_bytes()); // snaplen
        hdr.extend_from_slice(&1u32.to_le_bytes()); // LINKTYPE_ETHERNET
        out.write_all(&hdr)?;
        Ok(PcapWriter { out })
    }

    /// Write every record of `trace` (records must already be time-ordered).
    /// The trace must carry a [`FlowKey`]; synthesize one if needed.
    pub fn write_flow(&mut self, trace: &FlowTrace) -> io::Result<()> {
        let key = trace.key.unwrap_or_else(|| FlowKey::synthetic(0));
        for rec in &trace.records {
            self.write_record(&key, rec)?;
        }
        Ok(())
    }

    /// Write a single record.
    pub fn write_record(&mut self, key: &FlowKey, rec: &TraceRecord) -> io::Result<()> {
        let frame = encode_frame(key, rec);
        let us = rec.t.as_micros();
        let mut pkt = Vec::with_capacity(16 + frame.captured.len());
        pkt.extend_from_slice(&((us / 1_000_000) as u32).to_le_bytes());
        pkt.extend_from_slice(&((us % 1_000_000) as u32).to_le_bytes());
        pkt.extend_from_slice(&(frame.captured.len() as u32).to_le_bytes());
        pkt.extend_from_slice(&frame.orig_len.to_le_bytes());
        pkt.extend_from_slice(&frame.captured);
        self.out.write_all(&pkt)
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

struct Frame {
    captured: Vec<u8>,
    orig_len: u32,
}

fn wire_seq(dir: Direction, offset: u64, syn: bool) -> u32 {
    let isn = match dir {
        Direction::Out => ISN_OUT,
        Direction::In => ISN_IN,
    };
    if syn {
        isn
    } else {
        isn.wrapping_add(1).wrapping_add(offset as u32)
    }
}

fn encode_frame(key: &FlowKey, rec: &TraceRecord) -> Frame {
    // TCP options.
    let mut opts: Vec<u8> = Vec::new();
    if rec.flags.syn {
        // MSS
        opts.extend_from_slice(&[2, 4]);
        opts.extend_from_slice(&1448u16.to_be_bytes());
        // SACK permitted
        opts.extend_from_slice(&[4, 2]);
        // Window scale (3 bytes) + NOP for alignment
        opts.extend_from_slice(&[3, 3, WSCALE_SHIFT, 1]);
    }
    if !rec.sack.is_empty() {
        let n = rec.sack.len().min(4);
        opts.extend_from_slice(&[1, 1]); // 2 NOPs
        opts.push(5); // SACK
        opts.push(2 + 8 * n as u8);
        for b in rec.sack.iter().take(n) {
            // SACK blocks describe the *peer's received* ranges, i.e. ranges
            // in the opposite direction's stream.
            let data_dir = rec.dir.flip();
            opts.extend_from_slice(&wire_seq(data_dir, b.start, false).to_be_bytes());
            opts.extend_from_slice(&wire_seq(data_dir, b.end, false).to_be_bytes());
        }
    }
    while !opts.len().is_multiple_of(4) {
        opts.push(1); // NOP pad
    }
    let tcp_hdr_len = 20 + opts.len();

    // Scaled window. SYN windows are never scaled on the wire.
    let wnd16: u16 = if rec.flags.syn {
        rec.rwnd.min(65_535) as u16
    } else {
        (rec.rwnd >> WSCALE_SHIFT).min(65_535) as u16
    };

    let (src_ip, dst_ip, src_port, dst_port) = match rec.dir {
        Direction::Out => (
            key.server_ip,
            key.client_ip,
            key.server_port,
            key.client_port,
        ),
        Direction::In => (
            key.client_ip,
            key.server_ip,
            key.client_port,
            key.server_port,
        ),
    };

    let seq32 = wire_seq(rec.dir, rec.seq, rec.flags.syn);
    let ack32 = if rec.flags.ack {
        wire_seq(rec.dir.flip(), rec.ack, false)
    } else {
        0
    };

    let mut tcp = Vec::with_capacity(tcp_hdr_len);
    tcp.extend_from_slice(&src_port.to_be_bytes());
    tcp.extend_from_slice(&dst_port.to_be_bytes());
    tcp.extend_from_slice(&seq32.to_be_bytes());
    tcp.extend_from_slice(&ack32.to_be_bytes());
    let offset_flags: u16 = ((tcp_hdr_len as u16 / 4) << 12)
        | (u16::from(rec.flags.ack) << 4)
        | (u16::from(rec.flags.rst) << 2)
        | (u16::from(rec.flags.syn) << 1)
        | u16::from(rec.flags.fin);
    tcp.extend_from_slice(&offset_flags.to_be_bytes());
    tcp.extend_from_slice(&wnd16.to_be_bytes());
    tcp.extend_from_slice(&0u16.to_be_bytes()); // checksum: offloaded
    tcp.extend_from_slice(&0u16.to_be_bytes()); // urgent
    tcp.extend_from_slice(&opts);

    let ip_total_len = 20 + tcp.len() + rec.len as usize;
    let mut ip = Vec::with_capacity(20);
    ip.push(0x45);
    ip.push(0);
    ip.extend_from_slice(&(ip_total_len as u16).to_be_bytes());
    ip.extend_from_slice(&0u16.to_be_bytes()); // id
    ip.extend_from_slice(&0x4000u16.to_be_bytes()); // DF
    ip.push(64); // ttl
    ip.push(6); // TCP
    ip.extend_from_slice(&0u16.to_be_bytes()); // checksum placeholder
    ip.extend_from_slice(&src_ip);
    ip.extend_from_slice(&dst_ip);
    let csum = ipv4_checksum(&ip);
    ip[10..12].copy_from_slice(&csum.to_be_bytes());

    let mut eth = Vec::with_capacity(14 + ip.len() + tcp.len());
    eth.extend_from_slice(&[0x02, 0, 0, 0, 0, 1]); // dst MAC
    eth.extend_from_slice(&[0x02, 0, 0, 0, 0, 2]); // src MAC
    eth.extend_from_slice(&0x0800u16.to_be_bytes());
    eth.extend_from_slice(&ip);
    eth.extend_from_slice(&tcp);

    Frame {
        orig_len: (eth.len() + rec.len as usize) as u32,
        captured: eth,
    }
}

fn ipv4_checksum(hdr: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    for chunk in hdr.chunks(2) {
        let word = if chunk.len() == 2 {
            u16::from_be_bytes([chunk[0], chunk[1]])
        } else {
            u16::from_be_bytes([chunk[0], 0])
        };
        sum += word as u32;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

// ---------------------------------------------------------------- reading

/// Counters accumulated while reading a capture.
///
/// A live capture is messy: non-IPv4/TCP frames share the wire, and a
/// capture cut mid-write (SIGKILLed tcpdump, rotated file) ends in a
/// partial record. Neither aborts the read — both are counted here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcapStats {
    /// IPv4/TCP packets successfully decoded and yielded.
    pub packets: u64,
    /// Frames skipped because they were not decodable IPv4/TCP (ARP, UDP,
    /// IPv6, runt frames, bad header offsets).
    pub packets_skipped: u64,
    /// Trailing records cut short by the end of the capture (at most one
    /// for a file; a FIFO producer crashing mid-record also lands here).
    pub records_truncated: u64,
}

/// One decoded packet from the capture, before ISN-relative sequence
/// translation (feed it to a per-flow [`SeqTracker`] for that).
#[derive(Debug, Clone, Copy)]
pub struct PcapPacket {
    /// Capture timestamp.
    pub t: SimTime,
    /// The flow 4-tuple, oriented (server = destination of a bare SYN,
    /// else the lower port).
    pub key: FlowKey,
    /// Wire-level TCP fields.
    pub raw: RawRecord,
}

/// Frames larger than this are not real: the record header bytes were
/// garbage (e.g. a capture resumed mid-stream), so the stream stops rather
/// than allocate gigabytes chasing a bogus length.
const MAX_CAPLEN: usize = 1 << 20;

/// Default segment size for the buffered zero-copy reader: large enough to
/// amortize `read` syscalls over thousands of snaplen-truncated records,
/// small enough to stay cache- and latency-friendly.
const SEGMENT_LEN: usize = 256 * 1024;

/// A borrowed view of one decodable TCP packet: header fields parsed in
/// place from the reader's segment buffer, frame bytes borrowed rather than
/// copied into a per-packet allocation. Valid until the next reader call.
#[derive(Debug, Clone, Copy)]
pub struct PcapView<'a> {
    /// Capture timestamp.
    pub t: SimTime,
    /// The flow 4-tuple, oriented as in [`PcapPacket::key`].
    pub key: FlowKey,
    /// Wire-level TCP fields.
    pub raw: RawRecord,
    /// The captured frame bytes (link + IP + TCP headers), borrowed from
    /// the segment buffer — or from the reader's owned spill buffer when
    /// the record straddled a segment boundary.
    pub frame: &'a [u8],
}

impl PcapView<'_> {
    /// Copy the decoded fields out into an owning [`PcapPacket`].
    pub fn to_packet(&self) -> PcapPacket {
        PcapPacket {
            t: self.t,
            key: self.key,
            raw: self.raw,
        }
    }
}

/// A reusable batch of decoded packets filled by
/// [`PcapStream::fill_batch`]. Alongside each packet it records the
/// reader's cumulative skipped-frame count at the moment that packet was
/// decoded, so a consumer that processes the batch later can still
/// attribute skips to reporting intervals exactly as a one-packet-at-a-time
/// reader would.
#[derive(Debug, Default)]
pub struct PacketBatch {
    pkts: Vec<PcapPacket>,
    skipped: Vec<u64>,
}

impl PacketBatch {
    /// An empty batch (buffers grow to the fill size once, then recycle).
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget the contents, keeping capacity.
    pub fn clear(&mut self) {
        self.pkts.clear();
        self.skipped.clear();
    }

    /// Decoded packets in capture order.
    pub fn pkts(&self) -> &[PcapPacket] {
        &self.pkts
    }

    /// Number of packets currently held.
    pub fn len(&self) -> usize {
        self.pkts.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.pkts.is_empty()
    }

    /// The reader's cumulative [`PcapStats::packets_skipped`] as of the
    /// moment packet `i` was decoded (i.e. including any undecodable
    /// frames that immediately preceded it).
    pub fn skipped_before(&self, i: usize) -> u64 {
        self.skipped[i]
    }
}

/// An incremental classic-pcap reader: yields packets from any [`Read`]
/// (file, FIFO, stdin) without buffering the whole capture.
///
/// Reading is *segmented*: the reader fills a large reusable segment buffer
/// with one `read` call and parses record headers and frames in place,
/// yielding borrowed [`PcapView`]s ([`PcapStream::next_view`]) or copied
/// [`PcapPacket`]s ([`PcapStream::next_packet`],
/// [`PcapStream::fill_batch`]). A record that straddles a segment boundary
/// falls back to the owning path: its bytes are spilled into a reusable
/// owned buffer and completed with a blocking read. Because the refill is a
/// single `read` (not read-to-full), a FIFO producer's partial writes are
/// consumed as they arrive — batching never trades away liveness.
///
/// Malformed trailing data degrades gracefully: a record cut short by EOF
/// ends the stream and increments [`PcapStats::records_truncated`];
/// non-IPv4/TCP frames are skipped and counted in
/// [`PcapStats::packets_skipped`]. Only a missing/garbage *global header*
/// is a hard error.
pub struct PcapStream<R: Read> {
    input: R,
    swapped: bool,
    /// Reusable segment buffer (the zero-copy fast path).
    seg: Vec<u8>,
    seg_pos: usize,
    seg_len: usize,
    /// Owned spill buffer for records straddling a segment boundary.
    frame: Vec<u8>,
    stats: PcapStats,
    done: bool,
}

impl<R: Read> PcapStream<R> {
    /// Read and validate the 24-byte global header.
    pub fn new(input: R) -> Result<Self, PcapError> {
        Self::with_segment_len(input, SEGMENT_LEN)
    }

    /// [`PcapStream::new`] with an explicit segment size (≥ 1). Small
    /// segments force boundary straddles — useful for tests and for
    /// latency-sensitive FIFO readers.
    pub fn with_segment_len(mut input: R, segment_len: usize) -> Result<Self, PcapError> {
        let mut hdr = [0u8; 24];
        if read_fully(&mut input, &mut hdr)? < 24 {
            return Err(PcapError::Malformed("file shorter than global header"));
        }
        let magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
        let swapped = match magic {
            MAGIC_LE => false,
            MAGIC_BE => true,
            other => return Err(PcapError::BadMagic(other)),
        };
        Ok(PcapStream {
            input,
            swapped,
            seg: vec![0; segment_len.max(1)],
            seg_pos: 0,
            seg_len: 0,
            frame: Vec::new(),
            stats: PcapStats::default(),
            done: false,
        })
    }

    fn rd32(&self, b: &[u8]) -> u32 {
        let a = [b[0], b[1], b[2], b[3]];
        if self.swapped {
            u32::from_be_bytes(a)
        } else {
            u32::from_le_bytes(a)
        }
    }

    fn avail(&self) -> usize {
        self.seg_len - self.seg_pos
    }

    /// One `read` into the (empty) segment buffer; returns bytes obtained
    /// (0 = end of input). Deliberately not read-to-full: a FIFO's partial
    /// write must be parseable immediately.
    fn refill(&mut self) -> Result<usize, PcapError> {
        self.seg_pos = 0;
        self.seg_len = 0;
        loop {
            match self.input.read(&mut self.seg) {
                Ok(n) => {
                    self.seg_len = n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// The next decodable TCP packet as a borrowed in-place view, or
    /// `None` at end of stream.
    pub fn next_view(&mut self) -> Result<Option<PcapView<'_>>, PcapError> {
        loop {
            if self.done {
                return Ok(None);
            }
            if self.avail() == 0 && self.refill()? == 0 {
                self.done = true; // clean EOF at a record boundary
                return Ok(None);
            }
            // Record header: in place when fully resident, else completed
            // from the input (a header split across segments).
            let mut rh = [0u8; 16];
            if self.avail() >= 16 {
                rh.copy_from_slice(&self.seg[self.seg_pos..self.seg_pos + 16]);
                self.seg_pos += 16;
            } else {
                let have = self.avail();
                rh[..have].copy_from_slice(&self.seg[self.seg_pos..self.seg_len]);
                self.seg_pos = self.seg_len;
                let got = read_fully(&mut self.input, &mut rh[have..])?;
                if have + got < 16 {
                    if have + got > 0 {
                        self.stats.records_truncated += 1;
                    }
                    self.done = true;
                    return Ok(None);
                }
            }
            let ts_sec = self.rd32(&rh[0..]) as u64;
            let ts_usec = self.rd32(&rh[4..]) as u64;
            let incl = self.rd32(&rh[8..]) as usize;
            if incl > MAX_CAPLEN {
                self.stats.records_truncated += 1;
                self.done = true;
                return Ok(None);
            }
            // Frame bytes: borrowed straight from the segment, or — when
            // the record straddles the boundary — spilled into the owned
            // buffer and completed with a blocking read.
            let owned;
            let (start, end);
            if self.avail() >= incl {
                start = self.seg_pos;
                end = start + incl;
                self.seg_pos = end;
                owned = false;
            } else {
                let have = self.avail();
                self.frame.resize(incl, 0);
                self.frame[..have].copy_from_slice(&self.seg[self.seg_pos..self.seg_len]);
                self.seg_pos = self.seg_len;
                let got = read_fully(&mut self.input, &mut self.frame[have..])?;
                if have + got < incl {
                    self.stats.records_truncated += 1;
                    self.done = true;
                    return Ok(None);
                }
                owned = true;
                start = 0;
                end = incl;
            }
            let t = SimTime::from_micros(ts_sec * 1_000_000 + ts_usec);
            let parsed = parse_frame(if owned {
                &self.frame[start..end]
            } else {
                &self.seg[start..end]
            });
            match parsed {
                Some((key, raw)) => {
                    self.stats.packets += 1;
                    let frame: &[u8] = if owned {
                        &self.frame[start..end]
                    } else {
                        &self.seg[start..end]
                    };
                    return Ok(Some(PcapView { t, key, raw, frame }));
                }
                None => self.stats.packets_skipped += 1,
            }
        }
    }

    /// The next decodable TCP packet, or `None` at end of stream.
    pub fn next_packet(&mut self) -> Result<Option<PcapPacket>, PcapError> {
        Ok(self.next_view()?.map(|v| v.to_packet()))
    }

    /// Refill `out` with up to `max` decoded packets (clearing it first),
    /// recording the cumulative skip count alongside each. Returns the
    /// number of packets obtained; 0 means end of stream.
    pub fn fill_batch(&mut self, out: &mut PacketBatch, max: usize) -> Result<usize, PcapError> {
        out.clear();
        while out.pkts.len() < max {
            match self.next_view()? {
                Some(v) => {
                    let pkt = v.to_packet();
                    out.pkts.push(pkt);
                    out.skipped.push(self.stats.packets_skipped);
                }
                None => break,
            }
        }
        Ok(out.pkts.len())
    }

    /// Counters so far (final once `next_packet` returned `None`).
    pub fn stats(&self) -> PcapStats {
        self.stats
    }
}

/// Read until `buf` is full or EOF; returns bytes read (retries on
/// interruption, propagates other I/O errors).
fn read_fully<R: Read>(input: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match input.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Reads a classic pcap capture back into per-flow [`FlowTrace`]s.
///
/// The server endpoint is identified as the *destination of the first bare
/// SYN* seen for each 4-tuple (falling back to the lower port number if the
/// handshake was not captured).
pub struct PcapReader;

#[derive(Debug, Default)]
struct DirState {
    isn: Option<u32>,
    last_off: u64,
}

#[derive(Debug, Default)]
struct FlowState {
    out: DirState, // server → client
    inb: DirState, // client → server
}

/// Per-flow 32→64-bit sequence translation state: learns each direction's
/// ISN (from the handshake, or synthesized from the first segment) and
/// unwraps wire sequence numbers into monotonic 64-bit stream offsets.
///
/// On 4-tuple reuse (a fresh connection on a key whose previous flow
/// closed) call [`SeqTracker::reset`] before translating the new SYN —
/// stale unwrap anchors from the dead flow would otherwise corrupt the new
/// flow's offsets.
#[derive(Debug, Default)]
pub struct SeqTracker {
    st: FlowState,
}

impl SeqTracker {
    /// Fresh state (no ISNs learned).
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget everything — the next packet starts a new flow.
    pub fn reset(&mut self) {
        self.st = FlowState::default();
    }

    /// Translate one wire-level packet into a [`TraceRecord`] with
    /// ISN-relative 64-bit offsets.
    pub fn translate(&mut self, t: SimTime, raw: &RawRecord) -> Option<TraceRecord> {
        finish_record(&mut self.st, t, raw)
    }
}

impl PcapReader {
    /// Parse an entire capture; non-IPv4/TCP packets are skipped.
    pub fn read_all<R: Read>(input: R) -> Result<Vec<FlowTrace>, PcapError> {
        Self::read_all_stats(input).map(|(flows, _)| flows)
    }

    /// [`PcapReader::read_all`], also returning the reader's counters
    /// (skipped frames, truncated trailing records).
    pub fn read_all_stats<R: Read>(input: R) -> Result<(Vec<FlowTrace>, PcapStats), PcapError> {
        let mut stream = PcapStream::new(input)?;
        let mut table = FlowTable::new();
        let mut trackers: std::collections::HashMap<FlowKey, SeqTracker> = Default::default();
        while let Some(pkt) = stream.next_packet()? {
            let tracker = trackers.entry(pkt.key).or_default();
            if reopens(table.is_closed(&pkt.key), pkt.raw.flags) {
                // Key reuse: the table rotates to a fresh flow, so the
                // sequence state must forget the dead flow's anchors too.
                tracker.reset();
            }
            if let Some(rec) = tracker.translate(pkt.t, &pkt.raw) {
                table.push(pkt.key, rec);
            }
        }
        Ok((table.into_traces(), stream.stats()))
    }
}

/// A parsed frame before ISN-relative sequence translation: raw 32-bit wire
/// sequence space, SACK blocks still in the peer's wire numbering.
#[derive(Debug, Clone, Copy)]
pub struct RawRecord {
    /// Direction relative to the server.
    pub dir: Direction,
    /// Wire sequence number.
    pub seq32: u32,
    /// Wire acknowledgment number (0 when ACK is not set).
    pub ack32: u32,
    /// Header flags.
    pub flags: SegFlags,
    /// Unscaled 16-bit window field.
    pub wnd16: u16,
    /// Payload bytes (from the IP total length, so snaplen-truncated
    /// captures still report the true size).
    pub payload_len: u32,
    sack_len: u8,
    sack32: [(u32, u32); SACK_CAP],
}

impl RawRecord {
    /// A record with no SACK blocks.
    pub fn new(
        dir: Direction,
        seq32: u32,
        ack32: u32,
        flags: SegFlags,
        wnd16: u16,
        payload_len: u32,
    ) -> Self {
        RawRecord {
            dir,
            seq32,
            ack32,
            flags,
            wnd16,
            payload_len,
            sack_len: 0,
            sack32: [(0, 0); SACK_CAP],
        }
    }

    /// Append a wire-numbered SACK block (ignored beyond [`SACK_CAP`], the
    /// wire maximum).
    pub fn push_sack32(&mut self, start32: u32, end32: u32) {
        if (self.sack_len as usize) < SACK_CAP {
            self.sack32[self.sack_len as usize] = (start32, end32);
            self.sack_len += 1;
        }
    }

    /// The wire-numbered SACK blocks.
    pub fn sack32(&self) -> &[(u32, u32)] {
        &self.sack32[..self.sack_len as usize]
    }
}

fn parse_frame(frame: &[u8]) -> Option<(FlowKey, RawRecord)> {
    if frame.len() < 14 + 20 + 20 {
        return None;
    }
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != 0x0800 {
        return None;
    }
    let ip = &frame[14..];
    if ip[0] >> 4 != 4 {
        return None;
    }
    let ihl = ((ip[0] & 0xf) as usize) * 4;
    if ip[9] != 6 || ip.len() < ihl + 20 {
        return None;
    }
    let total_len = u16::from_be_bytes([ip[2], ip[3]]) as usize;
    let src_ip = [ip[12], ip[13], ip[14], ip[15]];
    let dst_ip = [ip[16], ip[17], ip[18], ip[19]];
    let tcp = &ip[ihl..];
    let src_port = u16::from_be_bytes([tcp[0], tcp[1]]);
    let dst_port = u16::from_be_bytes([tcp[2], tcp[3]]);
    let seq32 = u32::from_be_bytes([tcp[4], tcp[5], tcp[6], tcp[7]]);
    let ack32 = u32::from_be_bytes([tcp[8], tcp[9], tcp[10], tcp[11]]);
    let data_off = ((tcp[12] >> 4) as usize) * 4;
    if data_off < 20 || tcp.len() < data_off {
        return None;
    }
    let fl = tcp[13];
    let flags = SegFlags {
        fin: fl & 0x01 != 0,
        syn: fl & 0x02 != 0,
        rst: fl & 0x04 != 0,
        ack: fl & 0x10 != 0,
    };
    let wnd16 = u16::from_be_bytes([tcp[14], tcp[15]]);
    let payload_len = total_len.saturating_sub(ihl + data_off) as u32;

    // Orient: the destination of a bare SYN is the server; otherwise the
    // endpoint with the lower port is assumed to be the server.
    let (server_ip, server_port, client_ip, client_port, dir) = if flags.syn && !flags.ack {
        (dst_ip, dst_port, src_ip, src_port, Direction::In)
    } else if (flags.syn && flags.ack) || src_port <= dst_port {
        // A SYN-ACK's source is the server; lacking a handshake, assume
        // the lower port is the server's.
        (src_ip, src_port, dst_ip, dst_port, Direction::Out)
    } else {
        (dst_ip, dst_port, src_ip, src_port, Direction::In)
    };

    let mut raw = RawRecord::new(dir, seq32, ack32, flags, wnd16, payload_len);

    // Parse options for SACK blocks.
    let opts = &tcp[20..data_off.min(tcp.len())];
    let mut i = 0;
    while i < opts.len() {
        match opts[i] {
            0 => break,
            1 => i += 1,
            5 => {
                if i + 1 >= opts.len() {
                    break;
                }
                let l = opts[i + 1] as usize;
                if l < 2 || i + l > opts.len() {
                    break;
                }
                let mut j = i + 2;
                while j + 8 <= i + l {
                    let s = u32::from_be_bytes([opts[j], opts[j + 1], opts[j + 2], opts[j + 3]]);
                    let e =
                        u32::from_be_bytes([opts[j + 4], opts[j + 5], opts[j + 6], opts[j + 7]]);
                    raw.push_sack32(s, e);
                    j += 8;
                }
                i += l;
            }
            _ => {
                if i + 1 >= opts.len() {
                    break;
                }
                let l = opts[i + 1] as usize;
                if l < 2 {
                    break;
                }
                i += l;
            }
        }
    }

    Some((
        FlowKey {
            server_ip,
            server_port,
            client_ip,
            client_port,
        },
        raw,
    ))
}

/// Unwrap a 32-bit offset to the 64-bit value closest to `near`.
fn unwrap32(off32: u32, near: u64) -> u64 {
    let base = near & !0xffff_ffffu64;
    let candidates = [
        base.wrapping_add(off32 as u64),
        base.wrapping_add(off32 as u64).wrapping_add(1 << 32),
        base.wrapping_add(off32 as u64).wrapping_sub(1 << 32),
    ];
    candidates
        .into_iter()
        .min_by_key(|c| c.abs_diff(near))
        .expect("non-empty candidates")
}

fn finish_record(st: &mut FlowState, t: SimTime, raw: &RawRecord) -> Option<TraceRecord> {
    // Learn ISNs from the handshake; synthesize if the handshake is missing.
    {
        let dstate = match raw.dir {
            Direction::Out => &mut st.out,
            Direction::In => &mut st.inb,
        };
        if raw.flags.syn {
            dstate.isn = Some(raw.seq32);
        } else if dstate.isn.is_none() {
            // No handshake captured: treat the first seen seq as offset 0.
            dstate.isn = Some(raw.seq32.wrapping_sub(1));
        }
    }

    let (own_isn, own_last) = match raw.dir {
        Direction::Out => (st.out.isn?, st.out.last_off),
        Direction::In => (st.inb.isn?, st.inb.last_off),
    };
    let seq = if raw.flags.syn {
        0
    } else {
        unwrap32(raw.seq32.wrapping_sub(own_isn.wrapping_add(1)), own_last)
    };

    // Peer-direction translation for ack and SACK blocks.
    let peer = match raw.dir {
        Direction::Out => &st.inb,
        Direction::In => &st.out,
    };
    let (ack, sack, dsack) = if let Some(peer_isn) = peer.isn {
        let ack = if raw.flags.ack {
            unwrap32(
                raw.ack32.wrapping_sub(peer_isn.wrapping_add(1)),
                peer.last_off,
            )
        } else {
            0
        };
        let mut sack = SackList::new();
        for &(s32, e32) in raw.sack32() {
            let s = unwrap32(s32.wrapping_sub(peer_isn.wrapping_add(1)), peer.last_off);
            let e = unwrap32(e32.wrapping_sub(peer_isn.wrapping_add(1)), peer.last_off);
            if e >= s {
                sack.push(SackBlock::new(s, e));
            }
        }
        // RFC 2883: a first block at or below the cumulative ACK, or fully
        // contained in the second block, is a DSACK.
        let dsack = match sack.first() {
            Some(b0) => {
                b0.end <= ack
                    || sack
                        .get(1)
                        .is_some_and(|b1| b0.start >= b1.start && b0.end <= b1.end)
            }
            None => false,
        };
        (ack, sack, dsack)
    } else {
        (0, SackList::new(), false)
    };

    // Update unwrap anchors.
    {
        let dstate = match raw.dir {
            Direction::Out => &mut st.out,
            Direction::In => &mut st.inb,
        };
        dstate.last_off = dstate.last_off.max(seq + raw.payload_len as u64);
    }
    {
        let pstate = match raw.dir {
            Direction::Out => &mut st.inb,
            Direction::In => &mut st.out,
        };
        pstate.last_off = pstate.last_off.max(ack);
    }

    let rwnd = if raw.flags.syn {
        raw.wnd16 as u64
    } else {
        (raw.wnd16 as u64) << WSCALE_SHIFT
    };

    Some(TraceRecord {
        t,
        dir: raw.dir,
        seq,
        len: raw.payload_len,
        flags: raw.flags,
        ack,
        rwnd,
        sack,
        dsack,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SackList;
    use simnet::time::SimTime;

    fn syn_exchange(key: FlowKey) -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                t: SimTime::from_micros(100),
                dir: Direction::In,
                seq: 0,
                len: 0,
                flags: SegFlags::SYN,
                ack: 0,
                rwnd: 8192,
                sack: SackList::new(),
                dsack: false,
            },
            TraceRecord {
                t: SimTime::from_micros(200),
                dir: Direction::Out,
                seq: 0,
                len: 0,
                flags: SegFlags::SYN_ACK,
                ack: 0,
                rwnd: 14480,
                sack: SackList::new(),
                dsack: false,
            },
            TraceRecord {
                t: SimTime::from_micros(50_300),
                dir: Direction::In,
                seq: 0,
                len: 0,
                flags: SegFlags::ACK,
                ack: 0,
                rwnd: 8192,
                sack: SackList::new(),
                dsack: false,
            },
            TraceRecord::data(SimTime::from_micros(50_400), Direction::In, 0, 300, 0, 8192),
            TraceRecord::data(
                SimTime::from_micros(60_000),
                Direction::Out,
                0,
                1448,
                300,
                65536,
            ),
            TraceRecord::data(
                SimTime::from_micros(60_100),
                Direction::Out,
                1448,
                1448,
                300,
                65536,
            ),
            TraceRecord {
                t: SimTime::from_micros(110_000),
                dir: Direction::In,
                seq: 300,
                len: 0,
                flags: SegFlags::ACK,
                ack: 1448,
                rwnd: 8192,
                sack: [SackBlock::new(2896, 4344)].into(),
                dsack: false,
            },
            {
                let _ = key;
                TraceRecord {
                    t: SimTime::from_micros(120_000),
                    dir: Direction::In,
                    seq: 300,
                    len: 0,
                    flags: SegFlags::ACK,
                    ack: 4344,
                    rwnd: 8192,
                    sack: [SackBlock::new(0, 1448), SackBlock::new(0, 4344)].into(),
                    dsack: true,
                }
            },
        ]
    }

    #[test]
    fn roundtrip_preserves_fields() {
        let key = FlowKey::synthetic(7);
        let mut trace = FlowTrace::new(key);
        for r in syn_exchange(key) {
            trace.push(r);
        }
        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file).unwrap();
        w.write_flow(&trace).unwrap();
        w.finish().unwrap();

        let flows = PcapReader::read_all(&file[..]).unwrap();
        assert_eq!(flows.len(), 1);
        let back = &flows[0];
        assert_eq!(back.records.len(), trace.records.len());
        for (orig, got) in trace.records.iter().zip(&back.records) {
            assert_eq!(orig.t, got.t, "timestamp");
            assert_eq!(orig.dir, got.dir, "direction");
            assert_eq!(orig.seq, got.seq, "seq");
            assert_eq!(orig.len, got.len, "len");
            assert_eq!(orig.flags, got.flags, "flags");
            if orig.flags.ack {
                assert_eq!(orig.ack, got.ack, "ack");
            }
            assert_eq!(orig.sack, got.sack, "sack");
            assert_eq!(orig.dsack, got.dsack, "dsack");
        }
        // Window scaling quantizes to 128-byte granularity post-SYN.
        assert_eq!(back.records[0].rwnd, 8192);
        assert_eq!(back.records[4].rwnd, 65536);
    }

    #[test]
    fn reader_rejects_garbage() {
        assert!(matches!(
            PcapReader::read_all(&b"not a pcap file at all.."[..]),
            Err(PcapError::BadMagic(_))
        ));
        assert!(matches!(
            PcapReader::read_all(&b"xx"[..]),
            Err(PcapError::Malformed(_))
        ));
    }

    #[test]
    fn unwrap32_handles_wraparound() {
        assert_eq!(unwrap32(5, 0), 5);
        // near the 2^32 boundary: a small off32 after a large last_off means
        // we wrapped.
        let near = 0xffff_ff00u64;
        assert_eq!(unwrap32(0x0000_0100, near), 0x1_0000_0100);
        // and a large off32 near a just-wrapped anchor resolves backwards.
        let near2 = 0x1_0000_0010u64;
        assert_eq!(unwrap32(0xffff_fff0, near2), 0xffff_fff0);
    }

    #[test]
    fn ipv4_checksum_known_vector() {
        // Example from RFC 1071 discussions: verify checksum verifies.
        let mut hdr = vec![
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        let c = ipv4_checksum(&hdr);
        assert_eq!(c, 0xb861);
        hdr[10..12].copy_from_slice(&c.to_be_bytes());
        assert_eq!(ipv4_checksum(&hdr), 0);
    }

    /// Hand-build a minimal Ethernet/IPv4/TCP frame with arbitrary wire
    /// fields (the writer pins its ISNs, so wraparound and foreign-protocol
    /// tests need raw bytes).
    fn raw_tcp_frame(
        src: ([u8; 4], u16),
        dst: ([u8; 4], u16),
        seq32: u32,
        ack32: u32,
        flags: u8,
        payload_len: u16,
    ) -> Vec<u8> {
        let mut tcp = Vec::new();
        tcp.extend_from_slice(&src.1.to_be_bytes());
        tcp.extend_from_slice(&dst.1.to_be_bytes());
        tcp.extend_from_slice(&seq32.to_be_bytes());
        tcp.extend_from_slice(&ack32.to_be_bytes());
        tcp.extend_from_slice(&(5u16 << 12).to_be_bytes()); // data offset 20, merged below
        tcp[12] = 5 << 4;
        tcp[13] = flags;
        tcp.extend_from_slice(&512u16.to_be_bytes()); // window
        tcp.extend_from_slice(&[0, 0, 0, 0]); // checksum + urgent
        let ip_total = 20 + 20 + payload_len as usize;
        let mut ip = vec![0x45, 0];
        ip.extend_from_slice(&(ip_total as u16).to_be_bytes());
        ip.extend_from_slice(&[0, 0, 0x40, 0, 64, 6, 0, 0]);
        ip.extend_from_slice(&src.0);
        ip.extend_from_slice(&dst.0);
        let c = ipv4_checksum(&ip);
        ip[10..12].copy_from_slice(&c.to_be_bytes());
        let mut eth = vec![2, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 2];
        eth.extend_from_slice(&0x0800u16.to_be_bytes());
        eth.extend_from_slice(&ip);
        eth.extend_from_slice(&tcp);
        eth
    }

    fn append_record(file: &mut Vec<u8>, t_us: u64, frame: &[u8]) {
        file.extend_from_slice(&((t_us / 1_000_000) as u32).to_le_bytes());
        file.extend_from_slice(&((t_us % 1_000_000) as u32).to_le_bytes());
        file.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        file.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        file.extend_from_slice(frame);
    }

    #[test]
    fn truncated_trailing_record_degrades_gracefully() {
        let key = FlowKey::synthetic(5);
        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file).unwrap();
        w.write_record(
            &key,
            &TraceRecord::data(SimTime::from_micros(10), Direction::Out, 0, 100, 0, 65536),
        )
        .unwrap();
        w.write_record(
            &key,
            &TraceRecord::data(SimTime::from_micros(20), Direction::Out, 100, 100, 0, 65536),
        )
        .unwrap();
        w.finish().unwrap();

        // Cut mid-frame: keep the full first record plus a partial second.
        let cut = file.len() - 7;
        let (flows, stats) = PcapReader::read_all_stats(&file[..cut]).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].records.len(), 1);
        assert_eq!(stats.packets, 1);
        assert_eq!(stats.records_truncated, 1);

        // Cut mid-record-header.
        let (flows2, stats2) = PcapReader::read_all_stats(&file[..24 + 8]).unwrap();
        assert!(flows2.is_empty());
        assert_eq!(stats2.records_truncated, 1);

        // An implausible record length (garbage header) also stops cleanly.
        let mut bogus = file[..24].to_vec();
        bogus.extend_from_slice(&0u64.to_le_bytes()); // ts
        bogus.extend_from_slice(&(u32::MAX).to_le_bytes()); // incl_len: 4 GiB
        bogus.extend_from_slice(&64u32.to_le_bytes());
        bogus.extend_from_slice(&[0u8; 64]);
        let (flows3, stats3) = PcapReader::read_all_stats(&bogus[..]).unwrap();
        assert!(flows3.is_empty());
        assert_eq!(stats3.records_truncated, 1);
    }

    #[test]
    fn non_tcp_frames_are_skipped_and_counted() {
        let key = FlowKey::synthetic(6);
        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file).unwrap();
        w.write_record(
            &key,
            &TraceRecord::data(SimTime::from_micros(10), Direction::Out, 0, 100, 0, 65536),
        )
        .unwrap();
        w.finish().unwrap();

        // A UDP datagram (IPv4 proto 17).
        let mut udp = raw_tcp_frame(([1, 1, 1, 1], 53), ([2, 2, 2, 2], 53), 0, 0, 0, 0);
        udp[14 + 9] = 17; // protocol = UDP
        let c = ipv4_checksum(&udp[14..14 + 20]);
        udp[14 + 20 - 10..14 + 20 - 8].copy_from_slice(&c.to_be_bytes());
        append_record(&mut file, 20, &udp);
        // An ARP frame (wrong ethertype).
        let mut arp = vec![0xff; 14 + 28];
        arp[12] = 0x08;
        arp[13] = 0x06;
        append_record(&mut file, 30, &arp);
        // A runt frame.
        append_record(&mut file, 40, &[0u8; 10]);

        let (flows, stats) = PcapReader::read_all_stats(&file[..]).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(stats.packets, 1);
        assert_eq!(stats.packets_skipped, 3);
        assert_eq!(stats.records_truncated, 0);
    }

    #[test]
    fn key_reuse_after_close_resets_sequence_state() {
        // Generation 1: SYN, data to offset 200k, FIN. Generation 2 reuses
        // the 4-tuple with a different ISN; its offsets must restart at 0,
        // not inherit generation 1's unwrap anchors.
        let srv = ([10, 0, 0, 1], 80u16);
        let cli = ([9, 9, 9, 9], 4242u16);
        let mut file = Vec::new();
        PcapWriter::new(&mut file).unwrap().finish().unwrap();
        let isn1 = 1_000u32;
        append_record(
            &mut file,
            10,
            &raw_tcp_frame(cli, srv, isn1, 0, 0x02, 0), // SYN
        );
        append_record(
            &mut file,
            20,
            &raw_tcp_frame(cli, srv, isn1 + 1, 0, 0x10, 300),
        );
        append_record(
            &mut file,
            30,
            &raw_tcp_frame(cli, srv, isn1 + 1 + 300, 0, 0x11, 0), // FIN|ACK
        );
        // Generation 2, new ISN far away.
        let isn2 = 0x9000_0000u32;
        append_record(
            &mut file,
            1_000_040,
            &raw_tcp_frame(cli, srv, isn2, 0, 0x02, 0), // SYN
        );
        append_record(
            &mut file,
            1_000_050,
            &raw_tcp_frame(cli, srv, isn2 + 1, 0, 0x10, 500),
        );

        let (flows, _) = PcapReader::read_all_stats(&file[..]).unwrap();
        assert_eq!(flows.len(), 2, "bare SYN on closed key starts a new flow");
        assert_eq!(flows[0].records.len(), 3);
        assert_eq!(flows[1].records.len(), 2);
        // Both generations' data starts at stream offset 0.
        assert_eq!(flows[0].records[1].seq, 0);
        assert_eq!(flows[0].records[1].len, 300);
        assert_eq!(flows[1].records[1].seq, 0);
        assert_eq!(flows[1].records[1].len, 500);
    }

    #[test]
    fn wire_seq_wraparound_keeps_offsets_monotonic() {
        // A flow whose client ISN sits just below 2^32: data crosses the
        // 0xffff_ffff boundary and the reader's unwrapping must keep the
        // 64-bit offsets monotonic through the wrap.
        let srv = ([10, 0, 0, 1], 80u16);
        let cli = ([9, 9, 9, 9], 5000u16);
        let isn: u32 = 0xffff_fc00;
        let mut file = Vec::new();
        PcapWriter::new(&mut file).unwrap().finish().unwrap();
        append_record(&mut file, 0, &raw_tcp_frame(cli, srv, isn, 0, 0x02, 0));
        let seg = 300u32;
        for i in 0..10u32 {
            let seq32 = isn.wrapping_add(1).wrapping_add(i * seg);
            append_record(
                &mut file,
                100 + i as u64 * 100,
                &raw_tcp_frame(cli, srv, seq32, 0, 0x10, seg as u16),
            );
        }
        let (flows, _) = PcapReader::read_all_stats(&file[..]).unwrap();
        assert_eq!(flows.len(), 1);
        let recs = &flows[0].records;
        assert_eq!(recs.len(), 11);
        for (i, r) in recs[1..].iter().enumerate() {
            assert_eq!(r.seq, i as u64 * seg as u64, "offset after wrap");
        }
        // The wire seq really did wrap within this window.
        assert!(
            (isn as u64 + 1 + 10 * seg as u64) > (1u64 << 32),
            "test must actually cross the 32-bit boundary"
        );
    }

    /// Seeded property test for the segmented reader: a capture with
    /// randomized record sizes (SACK-bearing ACKs, undecodable frames, and
    /// an optional truncated tail) must decode to the identical packet
    /// sequence and stats at every segment size — including degenerate
    /// ones where every record straddles a boundary and takes the owning
    /// fallback path.
    #[test]
    fn segment_boundaries_never_change_the_decoded_stream() {
        let mut rng: u64 = 0x2015_cafe;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        for trial in 0..8u32 {
            // Build a messy capture.
            let mut file = Vec::new();
            PcapWriter::new(&mut file).unwrap().finish().unwrap();
            let n_records = 120 + (next() % 200) as usize;
            for i in 0..n_records {
                let t = i as u64 * 37;
                match next() % 5 {
                    0 => {
                        // Undecodable: ARP-typed frame of random runt size.
                        let len = 10 + (next() % 60) as usize;
                        let mut junk = vec![0xaa; len];
                        if len > 13 {
                            junk[12] = 0x08;
                            junk[13] = 0x06;
                        }
                        append_record(&mut file, t, &junk);
                    }
                    1 => {
                        // SACK-bearing ACK (larger TCP header).
                        let key = FlowKey::synthetic((next() % 7) as u32);
                        let rec = TraceRecord {
                            t: SimTime::from_micros(t),
                            dir: Direction::In,
                            seq: 300,
                            len: 0,
                            flags: SegFlags::ACK,
                            ack: 1448 * (next() % 10),
                            rwnd: 65536,
                            sack: [SackBlock::new(2896, 4344)].into(),
                            dsack: false,
                        };
                        let frame = encode_frame(&key, &rec);
                        append_record(&mut file, t, &frame.captured);
                    }
                    _ => {
                        let key = FlowKey::synthetic((next() % 7) as u32);
                        let rec = TraceRecord::data(
                            SimTime::from_micros(t),
                            if next() % 2 == 0 {
                                Direction::Out
                            } else {
                                Direction::In
                            },
                            1448 * (next() % 50),
                            (next() % 1449) as u32,
                            0,
                            65536,
                        );
                        let frame = encode_frame(&key, &rec);
                        append_record(&mut file, t, &frame.captured);
                    }
                }
            }
            if trial % 2 == 1 {
                // Cut the tail mid-record.
                let cut = 1 + (next() % 30) as usize;
                file.truncate(file.len().saturating_sub(cut));
            }

            // Baseline: segment big enough that nothing straddles.
            let decode = |seg: usize| {
                let mut s = PcapStream::with_segment_len(&file[..], seg).unwrap();
                let mut got: Vec<(u64, FlowKey, u32, u64, u32)> = Vec::new();
                while let Some(v) = s.next_view().unwrap() {
                    got.push((
                        v.t.as_micros(),
                        v.key,
                        v.raw.seq32,
                        v.frame.len() as u64,
                        v.raw.payload_len,
                    ));
                }
                (got, s.stats())
            };
            let (base, base_stats) = decode(1 << 20);
            assert!(base_stats.packets > 0, "trial {trial} decoded nothing");
            for seg in [1, 7, 16, 17, 31, 97, 256, 1024, 4096] {
                let (got, stats) = decode(seg);
                assert_eq!(got, base, "trial {trial} segment {seg}");
                assert_eq!(stats, base_stats, "trial {trial} segment {seg} stats");
            }

            // And batched fills agree with one-at-a-time reads, carrying
            // monotone cumulative skip counts.
            let mut s = PcapStream::with_segment_len(&file[..], 113).unwrap();
            let mut batch = PacketBatch::new();
            let mut pkts = 0u64;
            let mut last_skip = 0u64;
            while s.fill_batch(&mut batch, 32).unwrap() > 0 {
                for i in 0..batch.len() {
                    let sk = batch.skipped_before(i);
                    assert!(sk >= last_skip, "skip counts must be monotone");
                    last_skip = sk;
                    pkts += 1;
                }
            }
            assert_eq!(pkts, base_stats.packets, "trial {trial} batched count");
            assert_eq!(s.stats(), base_stats, "trial {trial} batched stats");
        }
    }

    #[test]
    fn multiple_flows_demultiplex() {
        let k1 = FlowKey::synthetic(1);
        let k2 = FlowKey::synthetic(2);
        let mut file = Vec::new();
        let mut w = PcapWriter::new(&mut file).unwrap();
        let rec = |t_us: u64| {
            TraceRecord::data(SimTime::from_micros(t_us), Direction::Out, 0, 100, 0, 65536)
        };
        w.write_record(&k1, &rec(10)).unwrap();
        w.write_record(&k2, &rec(20)).unwrap();
        w.write_record(&k1, &rec(30)).unwrap();
        w.finish().unwrap();
        let flows = PcapReader::read_all(&file[..]).unwrap();
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].records.len(), 2);
        assert_eq!(flows[1].records.len(), 1);
    }
}
