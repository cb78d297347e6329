//! The open-loop feeder: a capture written into `tapo live -` through a
//! pipe on a fixed schedule, with every report line timestamped on arrival.
//!
//! One writer thread sleeps until the next packet is due, then writes every
//! packet due by then (at most [`CHUNK`] bytes per write). One reader
//! thread timestamps each report line as it arrives. A slow daemon fills
//! the pipe and blocks the writer; that wait is the daemon's backlog and
//! shows up as report lag, not as feeder lateness. Feeder lateness is only
//! the writer's own delay: how long after a chunk was due (or after the
//! previous write returned, if later) its write began.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::child::{parse_exit, Exit};
use crate::schedule::Schedule;

/// Largest single write into the pipe.
pub const CHUNK: usize = 16 * 1024;

/// Head start the child gets to exec before the first packet is due.
const LEAD: Duration = Duration::from_millis(20);

/// What one open-loop pass observed.
#[derive(Debug)]
pub struct OpenLoopPass {
    /// The report stream, byte for byte.
    pub stdout: Vec<u8>,
    /// Arrival time of each report line, with the line's byte range.
    pub lines: Vec<(Instant, std::ops::Range<usize>)>,
    /// When the schedule started (packet 0 due).
    pub start: Instant,
    /// Feeder lateness samples, one per write.
    pub late: Vec<Duration>,
    /// How the daemon ended and what it used.
    pub exit: Exit,
}

impl OpenLoopPass {
    /// Report lag of every interval report closed by a packet: arrival time
    /// minus the due time of the packet that closed the interval. Reports
    /// closed inside the final, partial batch of `batch` packets are left
    /// out: end of input completes that batch, so like the last interval
    /// they time shutdown, not the load.
    pub fn lags(&self, sched: &Schedule, rate: f64, batch: usize) -> Vec<Duration> {
        let full_batches_end = sched.len() / batch * batch;
        self.lines
            .iter()
            .filter_map(|(at, range)| {
                let end_us = interval_end_us(&self.stdout[range.clone()])?;
                let closer = sched
                    .closing_record(end_us)
                    .filter(|&i| i < full_batches_end)?;
                let due = self.start + sched.due(closer, rate);
                Some(at.saturating_duration_since(due))
            })
            .collect()
    }
}

/// `end_us` of an interval report line; `None` for any other line.
pub fn interval_end_us(line: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(line).ok()?;
    if !text.starts_with("{\"kind\":\"interval\"") {
        return None;
    }
    let rest = &text[text.find("\"end_us\":")? + "\"end_us\":".len()..];
    let digits = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..digits].parse().ok()
}

/// Feed `capture` into `cmd` (built with [`crate::child::measured`], and
/// reading the capture from stdin) at `rate`× capture time, collecting
/// its report lines as they arrive.
pub fn open_loop(
    cmd: &mut Command,
    capture: &[u8],
    sched: &Schedule,
    rate: f64,
) -> std::io::Result<OpenLoopPass> {
    let (pipe_rx, mut pipe_tx) = std::io::pipe()?;
    cmd.stdin(pipe_rx)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let spawned = Instant::now();
    let mut child = cmd.spawn()?;
    // Drop the command's copy of the read end so a dead child turns our
    // writes into errors instead of a silent stall.
    cmd.stdin(Stdio::null());
    let stdout = child.stdout.take().expect("stdout piped");
    let mut stderr = child.stderr.take().expect("stderr piped");
    let start = spawned + LEAD;

    let (late, (bytes, lines, err)) = std::thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut late = Vec::new();
            // A write error means the daemon exited early; its exit code
            // reports that, so the feeder just stops.
            let _ = feed(&mut pipe_tx, capture, sched, rate, start, &mut late);
            late
        });
        let reader = s.spawn(move || {
            let mut r = BufReader::new(stdout);
            let mut bytes = Vec::new();
            let mut lines = Vec::new();
            loop {
                let from = bytes.len();
                match r.read_until(b'\n', &mut bytes) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => lines.push((Instant::now(), from..bytes.len())),
                }
            }
            // The daemon writes to stderr only on failure, and the helper
            // adds one line after it exits: small enough to read last.
            let mut err = String::new();
            let _ = std::io::Read::read_to_string(&mut stderr, &mut err);
            (bytes, lines, err)
        });
        (
            writer.join().expect("feeder panicked"),
            reader.join().expect("report reader panicked"),
        )
    });
    child.wait()?;
    let (_, exit) = parse_exit(&err);
    Ok(OpenLoopPass {
        stdout: bytes,
        lines,
        start,
        late,
        exit,
    })
}

/// The writer loop: the pcap header at once, then each packet once due,
/// recording the feeder's own lateness per write into `late`.
pub fn feed(
    out: &mut impl Write,
    capture: &[u8],
    sched: &Schedule,
    rate: f64,
    start: Instant,
    late: &mut Vec<Duration>,
) -> std::io::Result<()> {
    out.write_all(&capture[..sched.bytes(0, 1).start])?;
    let mut i = 0;
    let mut last_write_end = Instant::now();
    while i < sched.len() {
        let due = start + sched.due(i, rate);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            late.push(due.elapsed());
        } else {
            late.push(now.saturating_duration_since(due.max(last_write_end)));
        }
        let mut j = sched.due_until(i, start.elapsed(), rate).max(i + 1);
        let mut range = sched.bytes(i, j);
        while range.len() > CHUNK && j > i + 1 {
            j = i + (j - i) / 2;
            range = sched.bytes(i, j);
        }
        out.write_all(&capture[range])?;
        last_write_end = Instant::now();
        i = j;
    }
    out.flush()
}
