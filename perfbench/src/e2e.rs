//! The end-to-end run: the real CLI pipelines as single-threaded child
//! processes, interleaved round-robin so host drift lands on every metric
//! alike, each timing the median of many passes.
//!
//! A round runs, in order: `tapo live` over every capture (closed loop,
//! file-fed), one open-loop pass of `tapo live -` fed through a pipe,
//! offline `tapo --json` over every capture, `tapo fleet` over the
//! report streams, and `tapo advise` over them. Every pass is checked
//! against the first one byte for byte.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use tapo::json::Json;

use crate::child::{self, Output};
use crate::feeder;
use crate::host;
use crate::schedule::Schedule;
use crate::stats;
use crate::summary::LiveCounts;
use crate::workload::{workload, Workload};

/// Generator runs per benchmark run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Rounds run even when the time budget is already spent.
pub const MIN_ROUNDS: usize = 5;
/// An open-loop pass whose feeder started a write later than this after
/// it was due is failed rather than sampled, and run again: beyond it the
/// feeder, not the daemon, shapes the lag (the slowest offered rate fills
/// a 256-packet batch in 2.6 ms). A stalled feeder is the host's doing,
/// so it is not one of the run's failed operations.
pub const FEEDER_LATE_LIMIT: Duration = Duration::from_millis(2);
/// An open-loop pass during which the hypervisor took more than this many
/// clock ticks of CPU (10 ms each) is failed rather than sampled too: a
/// preempted daemon builds a backlog the feeder cannot see.
pub const STEAL_LIMIT_TICKS: u64 = 1;
/// How long past the budget open-loop passes may still run to collect
/// enough lag samples.
pub const HARD_STOP_AFTER: Duration = Duration::from_secs(20);
/// Least time per round spent on `tapo fleet` passes.
pub const FLEET_MIN_ROUND: Duration = Duration::from_millis(250);
/// Share of the measuring time open-loop passes take while their lag
/// samples are on pace.
pub const OPEN_LOOP_SHARE: f64 = 0.35;
/// Lag samples the open loop paces itself to collect, as a multiple of
/// what the p99 needs, so a few samples a host stall spoiled cannot set
/// the percentile on their own.
pub const LAG_PACE_MARGIN: f64 = 2.0;
/// Report-lag percentile reported as `lag_p99_ms`.
pub const LAG_TAIL: f64 = 0.99;

/// Paths of the CLI binaries under test.
#[derive(Debug, Clone)]
pub struct Bins {
    /// `tapo`.
    pub tapo: PathBuf,
    /// `synthesize`.
    pub synthesize: PathBuf,
}

impl Bins {
    /// The binaries in a cargo output directory.
    pub fn in_dir(dir: &Path) -> Bins {
        Bins {
            tapo: dir.join("tapo"),
            synthesize: dir.join("synthesize"),
        }
    }
}

/// Operations attempted and failed, with a note per failure kind.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (packets offered, report lines fed, children
    /// run).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// What failed, one line per incident.
    pub problems: Vec<String>,
}

impl Tally {
    fn child(&mut self, what: &str, exit: &child::Exit) {
        self.attempted += 1;
        if !exit.ok() {
            self.fail(1, format!("{what}: exit {:?}", exit.code));
        }
    }

    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.problems.len() < 32 {
            self.problems.push(why);
        }
    }

    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, why());
        }
    }
}

/// Generated captures, in memory and on disk.
#[derive(Debug)]
pub struct Inputs {
    /// Capture file paths.
    pub paths: Vec<PathBuf>,
    /// Capture bytes.
    pub bytes: Vec<Vec<u8>>,
    /// Open-loop schedule of each capture.
    pub scheds: Vec<Schedule>,
    /// Packets the generator reported writing, per capture.
    pub generated: Vec<u64>,
    /// Wall time of each generator repetition (all captures).
    pub setup_s: Vec<f64>,
}

impl Inputs {
    /// Packets across all captures.
    pub fn total_packets(&self) -> u64 {
        self.generated.iter().sum()
    }
}

fn wrote_packets(stderr: &str) -> Option<u64> {
    let rest = &stderr[stderr.find("wrote ")? + "wrote ".len()..];
    rest.split_whitespace().next()?.parse().ok()
}

/// Generate the workload's captures [`SETUP_REPS`] times with the
/// single-threaded `synthesize` CLI, timing each repetition and checking
/// that every repetition writes the same bytes.
pub fn setup(bins: &Bins, wl: &Workload, dir: &Path, tally: &mut Tally) -> std::io::Result<Inputs> {
    generate(bins, wl, dir, "capture", SETUP_REPS, tally)
}

/// [`setup`] with the repetition count and file name stem given.
fn generate(
    bins: &Bins,
    wl: &Workload,
    dir: &Path,
    stem: &str,
    reps: usize,
    tally: &mut Tally,
) -> std::io::Result<Inputs> {
    let paths: Vec<PathBuf> = (0..wl.captures.len())
        .map(|i| dir.join(format!("{stem}{i}.pcap")))
        .collect();
    let mut bytes: Vec<Vec<u8>> = Vec::new();
    let mut generated = Vec::new();
    let mut setup_s = Vec::new();
    for rep in 0..reps {
        let mut wall = Duration::ZERO;
        for (i, cap) in wl.captures.iter().enumerate() {
            let path = paths[i].to_string_lossy().into_owned();
            let out =
                child::run(child::measured(&bins.synthesize).args(cap.synthesize_args(&path)))?;
            tally.child("synthesize", &out.exit);
            wall += out.exit.wall;
            let n = wrote_packets(&out.stderr).unwrap_or(0);
            let data = std::fs::read(&paths[i])?;
            if rep == 0 {
                generated.push(n);
                bytes.push(data);
            } else {
                tally.check(n == generated[i] && data == bytes[i], || {
                    format!("synthesize repetition {rep} wrote a different capture {i}")
                });
            }
        }
        setup_s.push(wall.as_secs_f64());
    }
    // Write the captures back now, so the kernel does not flush them to
    // disk in the middle of a timed pass.
    for p in &paths {
        std::fs::File::open(p)?.sync_all()?;
    }
    let mut scheds = Vec::new();
    for (i, b) in bytes.iter().enumerate() {
        let s = Schedule::parse(b).map_err(std::io::Error::other)?;
        tally.check(s.len() as u64 == generated[i] && !s.is_empty(), || {
            format!(
                "capture {i}: {} records, generator reported {}",
                s.len(),
                generated[i]
            )
        });
        scheds.push(s);
    }
    Ok(Inputs {
        paths,
        bytes,
        scheds,
        generated,
        setup_s,
    })
}

/// Everything the end-to-end run measured.
#[derive(Debug, Default)]
pub struct E2e {
    /// Generator wall time per repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Closed-loop live rate per pass, packets/s.
    pub live_pps: Vec<f64>,
    /// Peak live RSS per pass (largest daemon), MiB.
    pub live_rss: Vec<f64>,
    /// Report lag samples pooled over accepted open-loop passes, ms.
    pub lag_ms: Vec<f64>,
    /// Feeder lateness samples pooled over all open-loop passes, ms.
    pub gen_late_ms: Vec<f64>,
    /// Open-loop passes run.
    pub open_passes: usize,
    /// Open-loop passes failed (not sampled) because the feeder fell
    /// behind or the host stole CPU time.
    pub open_rejected: usize,
    /// Clock ticks the hypervisor stole during open-loop passes.
    pub steal_ticks: u64,
    /// Lag samples of the failed open-loop passes, kept aside.
    pub spoiled_lag_ms: Vec<f64>,
    /// True when too few clean passes ran and the failed passes' lag
    /// samples were pooled in.
    pub lag_includes_failed: bool,
    /// Offline rate per pass, packets/s.
    pub offline_pps: Vec<f64>,
    /// Offline peak RSS per pass, MiB.
    pub offline_rss: Vec<f64>,
    /// Fleet rate per pass, records/s.
    pub fleet_rps: Vec<f64>,
    /// Fleet peak RSS per pass, MiB.
    pub fleet_rss: Vec<f64>,
    /// Advise wall time per pass, seconds.
    pub advise_s: Vec<f64>,
    /// CPU/wall share of every CPU-bound pass.
    pub cpu_share: Vec<f64>,
    /// Live summary counters summed over the captures (first pass).
    pub counts: LiveCounts,
    /// Fleet summary: records, buckets, alerts, skipped lines.
    pub fleet: [u64; 4],
    /// Rounds completed.
    pub rounds: usize,
    /// Reference report stream of each capture (the warm-up pass).
    pub streams: Vec<Vec<u8>>,
    /// The report streams every `tapo fleet` pass aggregates.
    pub fleet_streams: Vec<Vec<u8>>,
}

impl E2e {
    /// Mean untraced live cost, ns per packet (from the median rate).
    pub fn live_ns_per_pkt(&self) -> Option<f64> {
        stats::median(&self.live_pps).map(|r| 1e9 / r)
    }
}

fn tapo(bins: &Bins) -> Command {
    child::measured(&bins.tapo)
}

/// Run `cmd`, counting it; `None` if it could not even be spawned.
fn run_counted(cmd: &mut Command, what: &str, tally: &mut Tally) -> Option<Output> {
    match child::run(cmd) {
        Ok(out) => {
            tally.child(what, &out.exit);
            Some(out)
        }
        Err(e) => {
            tally.attempted += 1;
            tally.fail(1, format!("{what}: cannot run: {e}"));
            None
        }
    }
}

fn fleet_summary(stdout: &[u8]) -> Option<[u64; 5]> {
    let text = std::str::from_utf8(stdout).ok()?;
    let line = text
        .lines()
        .find(|l| l.starts_with("{\"kind\":\"fleet_summary\""))?;
    let doc = Json::parse(line).ok()?;
    let f = |k: &str| doc.get(k).and_then(Json::as_u64);
    Some([
        f("records")?,
        f("buckets")?,
        f("alerts")?,
        f("skipped")?,
        f("daemons")?,
    ])
}

/// Interval records per daemon stream that `tapo fleet` passes aggregate
/// (40 s of capture at a 100 ms interval). A daemon's stream is as long
/// as its capture's longest flow, which the seed sets, and the fleet's
/// memory grows with the records it holds: over ten seeds, whole streams
/// moved `fleet_rss_mib` by 29% (IQR over median).
pub const FLEET_WINDOW: usize = 400;

/// The first [`FLEET_WINDOW`] interval records of a report stream, and
/// its other lines (the summary).
pub fn fleet_window(stream: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(stream.len());
    let mut kept = 0;
    for line in stream.split_inclusive(|&b| b == b'\n') {
        let interval = line.starts_with(b"{\"kind\":\"interval\"");
        if !interval || kept < FLEET_WINDOW {
            out.extend_from_slice(line);
            kept += usize::from(interval);
        }
    }
    out
}

/// Seed of the fleet that one-daemon workloads' `tapo fleet` passes
/// aggregate.
pub const FLEET_FIXTURE_SEED: u64 = 2015;

/// The report streams a one-daemon workload's `tapo fleet` passes
/// aggregate: the `fleet` workload's eight daemons at
/// [`FLEET_FIXTURE_SEED`]. Fleet cost per record follows the records'
/// size, so a fleet built from the workload's own single stream (which
/// was tried, replicated under many daemon ids) moved its rate by up to a
/// third between seeds; a fixed fleet keeps the metric about the code.
fn fleet_fixture(bins: &Bins, dir: &Path, tally: &mut Tally) -> std::io::Result<Vec<Vec<u8>>> {
    let wl = workload("fleet", FLEET_FIXTURE_SEED).expect("the fleet workload exists");
    let inputs = generate(bins, &wl, dir, "fleet", 1, tally)?;
    let mut streams = Vec::new();
    for (cap, path) in wl.captures.iter().zip(&inputs.paths) {
        let mut cmd = tapo(bins);
        cmd.arg("live").arg(path).args(wl.live.args(&cap.daemon));
        let out = run_counted(&mut cmd, "tapo live (fleet fixture)", tally)
            .ok_or_else(|| std::io::Error::other("tapo live cannot run"))?;
        streams.push(out.stdout);
    }
    Ok(streams)
}

/// The measurement loop over prepared inputs: one untimed warm-up pass
/// that also records the reference outputs, then rounds until `budget` is
/// spent (at least [`MIN_ROUNDS`], and until the pooled lag samples
/// support a p99). Open-loop passes run in a round while they have taken
/// at most [`OPEN_LOOP_SHARE`] of the time spent, so their length does not
/// crowd out the closed-loop passes, or while their samples lag behind
/// the pace the p99 needs.
pub fn measure(
    bins: &Bins,
    wl: &Workload,
    inputs: &Inputs,
    dir: &Path,
    budget: Duration,
    tally: &mut Tally,
) -> std::io::Result<E2e> {
    let mut r = E2e {
        setup_s: inputs.setup_s.clone(),
        ..E2e::default()
    };
    let n = wl.captures.len();
    let live_cmd = |i: usize, input: &str| {
        let mut c = tapo(bins);
        c.arg("live")
            .arg(input)
            .args(wl.live.args(&wl.captures[i].daemon));
        c
    };

    // Warm-up: reference report streams, written out for fleet and advise.
    let mut reference: Vec<Vec<u8>> = Vec::new();
    let mut all_reports = Vec::new();
    for i in 0..n {
        let path = inputs.paths[i].to_string_lossy().into_owned();
        let out = run_counted(&mut live_cmd(i, &path), "tapo live (warm-up)", tally)
            .ok_or_else(|| std::io::Error::other("tapo live cannot run"))?;
        let counts = LiveCounts::from_stream(&out.stdout).unwrap_or_default();
        tally.check(counts.packets == inputs.generated[i], || {
            format!(
                "capture {i}: live read {} packets, generator wrote {}",
                counts.packets, inputs.generated[i]
            )
        });
        tally.check(counts.records_truncated == 0, || {
            format!("capture {i}: truncated records")
        });
        r.counts.add(&counts);
        all_reports.extend_from_slice(&out.stdout);
        reference.push(out.stdout);
    }
    let reports_path = dir.join("reports.jsonl");
    std::fs::write(&reports_path, &all_reports)?;
    let daemons = if n == 1 {
        fleet_fixture(bins, dir, tally)?
    } else {
        reference.clone()
    };
    r.fleet_streams = daemons.iter().map(|s| fleet_window(s)).collect();
    let mut streams = Vec::new();
    let mut fleet_intervals = 0;
    for (k, stream) in r.fleet_streams.iter().enumerate() {
        let path = dir.join(format!("stream{k}.jsonl"));
        std::fs::write(&path, stream)?;
        streams.push(path);
        fleet_intervals += stream
            .split(|&b| b == b'\n')
            .filter(|l| l.starts_with(b"{\"kind\":\"interval\""))
            .count() as u64;
    }

    let lag_needed = stats::samples_needed(LAG_TAIL);
    let mut offline_ref: Option<Vec<u8>> = None;
    let mut fleet_ref: Option<Vec<u8>> = None;
    let mut advise_ref: Option<Vec<u8>> = None;
    let mut open_time = Duration::ZERO;
    let started = Instant::now();
    let hard_stop = budget + HARD_STOP_AFTER;
    loop {
        let spent = started.elapsed();
        let lags_ok = r.lag_ms.len() >= lag_needed;
        if (r.rounds >= MIN_ROUNDS && spent >= budget && lags_ok) || spent >= hard_stop {
            break;
        }
        // Past the budget only the open loop still runs, to fill its tail.
        let full = r.rounds < MIN_ROUNDS || spent < budget;
        if full {
            closed_loop(inputs, &live_cmd, &reference, &mut r, tally);
        }
        // Keep the lag samples on pace to pass the p99's need by the end of
        // the budget (passes the host spoiled are not sampled), and give
        // the open loop its share of the time otherwise.
        let pace = (spent.as_secs_f64() / budget.as_secs_f64()).min(1.0);
        let behind = (r.lag_ms.len() as f64) < lag_needed as f64 * LAG_PACE_MARGIN * pace;
        if !full || behind || open_time.as_secs_f64() <= spent.as_secs_f64() * OPEN_LOOP_SHARE {
            let t = Instant::now();
            open_loop(inputs, wl.rate, &live_cmd, &reference, &mut r, tally)?;
            open_time += t.elapsed();
        }
        if full {
            offline(bins, inputs, &mut offline_ref, &mut r, tally);
            // A fleet pass takes tens of milliseconds and swings widely
            // with the host; repeat it so its median rests on more passes.
            let t = Instant::now();
            while t.elapsed() < FLEET_MIN_ROUND {
                fleet(
                    bins,
                    &streams,
                    fleet_intervals,
                    &mut fleet_ref,
                    &mut r,
                    tally,
                );
            }
            advise(bins, &reports_path, &mut advise_ref, &mut r, tally);
            r.rounds += 1;
        }
    }
    r.streams = reference;
    if r.lag_ms.len() < lag_needed {
        // The host spoiled so many passes that the clean ones cannot
        // support a p99: report the lag it imposed rather than none, and
        // say so in the detail line.
        eprintln!("perfbench: too few clean open-loop passes; sampling the failed ones too");
        r.lag_includes_failed = true;
        r.lag_ms.append(&mut r.spoiled_lag_ms);
    }
    tally.check(r.lag_ms.len() >= lag_needed, || {
        format!(
            "only {} lag samples, {lag_needed} needed for p99",
            r.lag_ms.len()
        )
    });
    Ok(r)
}

fn closed_loop(
    inputs: &Inputs,
    live_cmd: &dyn Fn(usize, &str) -> Command,
    reference: &[Vec<u8>],
    r: &mut E2e,
    tally: &mut Tally,
) {
    let mut wall = Duration::ZERO;
    let mut cpu = Duration::ZERO;
    let mut rss = 0f64;
    for (i, expected) in reference.iter().enumerate() {
        let path = inputs.paths[i].to_string_lossy().into_owned();
        let Some(out) = run_counted(&mut live_cmd(i, &path), "tapo live", tally) else {
            return;
        };
        tally.attempted += inputs.generated[i];
        let counts = LiveCounts::from_stream(&out.stdout).unwrap_or_default();
        if counts.packets_skipped > 0 {
            tally.fail(
                counts.packets_skipped,
                format!("capture {i}: packets skipped"),
            );
        }
        tally.check(out.stdout == *expected, || {
            format!("capture {i}: closed-loop report stream differs from the first")
        });
        wall += out.exit.wall;
        cpu += out.exit.cpu;
        rss = rss.max(out.exit.rss_mib());
    }
    r.live_pps
        .push(inputs.total_packets() as f64 / wall.as_secs_f64());
    r.live_rss.push(rss);
    r.cpu_share.push(cpu.as_secs_f64() / wall.as_secs_f64());
}

fn open_loop(
    inputs: &Inputs,
    rate: f64,
    live_cmd: &dyn Fn(usize, &str) -> Command,
    reference: &[Vec<u8>],
    r: &mut E2e,
    tally: &mut Tally,
) -> std::io::Result<()> {
    let k = r.open_passes % reference.len();
    r.open_passes += 1;
    let sched = &inputs.scheds[k];
    let steal_before = host::steal_ticks();
    let pass = feeder::open_loop(&mut live_cmd(k, "-"), &inputs.bytes[k], sched, rate)?;
    tally.child("tapo live - (open loop)", &pass.exit);
    tally.attempted += inputs.generated[k];
    tally.check(pass.stdout == reference[k], || {
        format!("capture {k}: pipe-fed report stream differs from the file-fed one")
    });
    let stolen = steal_before
        .zip(host::steal_ticks())
        .map_or(0, |(a, b)| b.saturating_sub(a));
    r.steal_ticks += stolen;
    let late_max = pass.late.iter().max().copied().unwrap_or_default();
    r.gen_late_ms
        .extend(pass.late.iter().map(|d| d.as_secs_f64() * 1e3));
    let lags = pass
        .lags(sched, rate, tapo::live::DEFAULT_BATCH)
        .into_iter()
        .map(|d| d.as_secs_f64() * 1e3);
    if late_max > FEEDER_LATE_LIMIT || stolen > STEAL_LIMIT_TICKS {
        r.open_rejected += 1;
        r.spoiled_lag_ms.extend(lags);
        eprintln!(
            "perfbench: open-loop pass on capture {k} not sampled: feeder {:.1} ms late, \
             {stolen} tick(s) stolen",
            late_max.as_secs_f64() * 1e3
        );
    } else {
        r.lag_ms.extend(lags);
    }
    Ok(())
}

/// Check `out` against the first pass's bytes (recording them on the first
/// pass); true on the first pass.
fn same_as_first(first: &mut Option<Vec<u8>>, out: &[u8], what: &str, tally: &mut Tally) -> bool {
    match first {
        Some(f) => {
            tally.check(f.as_slice() == out, || {
                format!("{what} output differs from the first pass")
            });
            false
        }
        None => {
            *first = Some(out.to_vec());
            true
        }
    }
}

fn offline(
    bins: &Bins,
    inputs: &Inputs,
    first: &mut Option<Vec<u8>>,
    r: &mut E2e,
    tally: &mut Tally,
) {
    let mut cmd = tapo(bins);
    cmd.args(&inputs.paths).args(["--threads", "1", "--json"]);
    let Some(out) = run_counted(&mut cmd, "tapo (offline)", tally) else {
        return;
    };
    if same_as_first(first, &out.stdout, "offline tapo", tally) {
        let doc = std::str::from_utf8(&out.stdout)
            .ok()
            .and_then(|t| Json::parse(t).ok());
        let packets = doc.as_ref().and_then(|d| d.get("packets")?.as_u64());
        tally.check(packets == Some(inputs.total_packets()), || {
            format!(
                "offline tapo read {packets:?} packets, generator wrote {}",
                inputs.total_packets()
            )
        });
    }
    r.offline_pps
        .push(inputs.total_packets() as f64 / out.exit.wall.as_secs_f64());
    r.offline_rss.push(out.exit.rss_mib());
    r.cpu_share.push(out.exit.cpu_share());
}

fn fleet(
    bins: &Bins,
    streams: &[PathBuf],
    intervals: u64,
    first: &mut Option<Vec<u8>>,
    r: &mut E2e,
    tally: &mut Tally,
) {
    let mut cmd = tapo(bins);
    cmd.arg("fleet").args(streams).args(["--threads", "1"]);
    let Some(out) = run_counted(&mut cmd, "tapo fleet", tally) else {
        return;
    };
    if same_as_first(first, &out.stdout, "tapo fleet", tally) {
        let s = fleet_summary(&out.stdout).unwrap_or_default();
        r.fleet = [s[0], s[1], s[2], s[3]];
        tally.check(s[0] == intervals, || {
            format!(
                "fleet merged {} records, live emitted {intervals} intervals",
                s[0]
            )
        });
        tally.check(s[4] == streams.len() as u64, || {
            format!("fleet saw {} daemons, fed {}", s[4], streams.len())
        });
    }
    // Every stream ends in one summary line, which fleet skips by design;
    // any other skipped line is a failure.
    tally.attempted += intervals + streams.len() as u64;
    let extra_skips = r.fleet[3].saturating_sub(streams.len() as u64);
    if extra_skips > 0 {
        tally.fail(
            extra_skips,
            format!("fleet skipped {extra_skips} report lines"),
        );
    }
    r.fleet_rps
        .push(r.fleet[0] as f64 / out.exit.wall.as_secs_f64());
    r.fleet_rss.push(out.exit.rss_mib());
    r.cpu_share.push(out.exit.cpu_share());
}

fn advise(
    bins: &Bins,
    reports: &Path,
    first: &mut Option<Vec<u8>>,
    r: &mut E2e,
    tally: &mut Tally,
) {
    let mut cmd = tapo(bins);
    cmd.arg("advise").arg(reports).args(["--threads", "1"]);
    let Some(out) = run_counted(&mut cmd, "tapo advise", tally) else {
        return;
    };
    if same_as_first(first, &out.stdout, "tapo advise", tally) {
        let advice = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with("{\"kind\":\"advice\""))
            .count();
        tally.check(advice > 0, || "tapo advise gave no recommendation".into());
    }
    r.advise_s.push(out.exit.wall.as_secs_f64());
    r.cpu_share.push(out.exit.cpu_share());
}
