//! `tapo` — the TCP stall diagnosis tool, as a command line.
//!
//! The offline workflow of the paper: point it at a classic-pcap capture
//! from a server (header-only captures are fine) and get per-flow stall
//! diagnoses and an aggregate breakdown.
//!
//! ```text
//! tapo <capture.pcap>... [--flows] [--stalls] [--json] [--dump]
//!                        [--min-stall MS] [--mss BYTES] [--dupthres N]
//!                        [--threads N]
//!
//!   --flows         per-flow summary table, worst stalled first
//!   --stalls        print every stall (time, duration, cause, context)
//!   --json          machine-readable output (one JSON document)
//!   --dump          print every packet in capture order, tcpdump-style,
//!                   tagged with its flow number
//!   --min-stall MS  only report stalls at least this long
//!   --mss BYTES     analyzer MSS assumption        (default 1448)
//!   --dupthres N    analyzer dupack threshold      (default 3)
//!   --threads N     live pipeline shards (default: available cores,
//!                   capped at 8; the output is identical at any count)
//! ```
//!
//! Offline diagnosis is the live pipeline run to EOF: each capture streams
//! through [`live::run`] with no idle eviction, no FIN linger and no flow
//! cap, collecting every flow's analysis, and the captures' flows are
//! listed in file order (first-seen order within a file). Memory holds the
//! analyses, not the packets.
//!
//! `--dump` streams each capture once more before its analysis and prints
//! one line per decoded packet, in capture order. The line starts with
//! `#i`, the flow number `--stalls` and `--flows` use:
//!
//! ```text
//! #0         0.052623  >  S win 65160
//! #0         0.052623  <  S ack 0 win 65535
//! #1         0.053817  >  S win 65535
//! ```
//!
//! The live (daemon) mode streams a capture — file, FIFO, or `-` for stdin
//! — through the sharded bounded-memory pipeline, emitting one report line
//! per interval and a final summary:
//!
//! ```text
//! tapo live <capture.pcap|-> [--shards N] [--cells N] [--batch N]
//!           [--ring N] [--interval MS] [--idle MS] [--linger MS]
//!           [--max-flows N] [--promote N] [--demote N] [--heavy-max N]
//!           [--per-shard] [--csv] [--pace X] [--mss BYTES] [--dupthres N]
//!           [--daemon-id ID] [--sketch on|off]
//!
//!   --shards N      worker shards, each owning its slice of the flow
//!                   space (default: available cores, capped at 8; output
//!                   is byte-identical at any shard count)
//!   --cells N       virtual flow cells — the shard-count-independent
//!                   unit of flow ownership and cap splitting (default 64)
//!   --batch N       ingestion batch size in packets (default 256; output
//!                   is byte-identical at any batch size)
//!   --ring N        driver→shard work-ring depth in batch buffers
//!                   (default 8)
//!   --interval MS   reporting interval in capture time   (default 1000)
//!   --idle MS       idle-flow eviction timeout, 0 = off  (default 60000)
//!   --linger MS     FIN/RST linger before finalize, 0 = off (default 1000)
//!   --max-flows N   hard cap on tracked flows, 0 = unbounded (default 0)
//!   --promote N     two-tier mode: track every flow in a compact light
//!                   tier, promote to a full analyzer after N dup-ACKs
//!                   (or a retransmission burst / RTO-scale ACK silence /
//!                   zero window); off by default = every flow heavy
//!   --demote N      demote a heavy flow after N consecutive calm packets
//!                   (0 = never; default 256; requires --promote)
//!   --heavy-max N   global cap on concurrently heavy flows, 0 = unbounded
//!                   (default 4096; requires --promote)
//!   --per-shard     include per-shard occupancy in reports
//!   --csv           CSV reports instead of JSON-lines (summary → stderr)
//!   --pace X        replay at X× capture time (1.0 = real time)
//!   --daemon-id ID  stamp every report with this daemon id (1..=40 chars
//!                   of [A-Za-z0-9._:-]; default: a stable hash of the
//!                   capture path, or "local" for stdin)
//!   --sketch on|off mergeable RTT / stall-duration quantile sketches in
//!                   the JSON reports (default on; fleet mode merges them)
//! ```
//!
//! The advise mode closes the loop: feed the live mode's JSON-lines
//! reports back in and get a per-service mitigation recommendation from a
//! counterfactual replay under all four recovery mechanisms:
//!
//! ```text
//! tapo advise <reports.jsonl|-> [--flows N] [--replicates N] [--seed N]
//!             [--threads N] [--min-stalled-us N] [--csv]
//!
//!   --flows N          simulated flows per replicate      (default 30)
//!   --replicates N     seeded replicates per service      (default 5)
//!   --seed N           replay master seed                 (default 1)
//!   --threads N        worker threads (default: all cores; output is
//!                      byte-identical at any thread count)
//!   --min-stalled-us N only advise services with at least this much
//!                      observed stalled time              (default 1)
//!   --csv              CSV recommendations instead of JSON-lines
//! ```
//!
//! The fleet mode aggregates report streams from *many* live daemons into
//! fleet-wide time buckets, merges their sketches and per-service shares,
//! and flags stall-share drift — deterministically: the output is
//! byte-identical regardless of input order, file-vs-stdin ingestion, or
//! thread count:
//!
//! ```text
//! tapo fleet [reports.jsonl...|-] [--bucket MS] [--threads N] [--csv]
//!            [--warmup N] [--drift PCT] [--daemon-drift PCT]
//!            [--min-share-us N] [--advise] [--flows N] [--replicates N]
//!            [--seed N] [--min-stalled-us N]
//!
//!   reports...         one stream per daemon (files or FIFOs), or a
//!                      single '-' / no argument for a stdin multiplex —
//!                      records carry daemon ids, so interleaving is fine
//!   --bucket MS        fleet bucket width in capture time (default 1000)
//!   --threads N        parse worker threads (default: all cores; output
//!                      is byte-identical at any thread count)
//!   --warmup N         buckets that only feed the drift EWMA (default 3)
//!   --drift PCT        fleet share must exceed its EWMA baseline by this
//!                      percentage to alert                 (default 50)
//!   --daemon-drift PCT a daemon's share must exceed the fleet share by
//!                      this percentage to alert            (default 100)
//!   --min-share-us N   stall-share noise floor, µs/flow  (default 1000)
//!   --advise           run the counterfactual advisor on the merged
//!                      per-service populations (accepts the advise
//!                      flags: --flows, --replicates, --seed,
//!                      --min-stalled-us)
//!   --csv              CSV fleet intervals on stdout (alerts as CSV on
//!                      stderr, summary/advice as JSON on stderr)
//! ```

use std::cell::Cell;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tapo::json::Json;
use tapo::live::{self, DaemonId, LiveConfig};
use tapo::sink::{CsvSink, JsonLinesSink, ReportSink};
use tapo::{
    AdviseConfig, AnalyzerConfig, FleetAlert, FleetConfig, FleetInterval, FlowAnalysis,
    RetransClass, Stall, StallBreakdown, StallCause, StallClass,
};
use tcp_trace::flow::{reopens, FlowKey};
use tcp_trace::pcap::{PcapError, PcapStats, PcapStream, SeqTracker};
use tcp_trace::text::render_record;

struct Options {
    files: Vec<PathBuf>,
    show_flows: bool,
    show_stalls: bool,
    json: bool,
    dump: bool,
    min_stall_ms: u64,
    threads: usize,
    cfg: AnalyzerConfig,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        files: Vec::new(),
        show_flows: false,
        show_stalls: false,
        json: false,
        dump: false,
        min_stall_ms: 0,
        threads: 0,
        cfg: AnalyzerConfig::default(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--flows" => opts.show_flows = true,
            "--stalls" => opts.show_stalls = true,
            "--json" => opts.json = true,
            "--dump" => opts.dump = true,
            "--min-stall" => {
                opts.min_stall_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--min-stall requires milliseconds")?;
            }
            "--mss" => {
                opts.cfg.replay.mss = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--mss requires bytes")?;
            }
            "--dupthres" => {
                opts.cfg.replay.dupthres = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--dupthres requires N")?;
            }
            "--threads" => {
                opts.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads requires N")?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: tapo <capture.pcap>... [--flows] [--stalls] [--json] \
                            [--dump] [--min-stall MS] [--mss BYTES] [--dupthres N] \
                            [--threads N]"
                        .into(),
                );
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other} (try --help)"));
            }
            file => opts.files.push(PathBuf::from(file)),
        }
    }
    if opts.files.is_empty() {
        return Err("no capture file given (try --help)".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("live") {
        args.next();
        return run_live(args);
    }
    if args.peek().map(String::as_str) == Some("advise") {
        args.next();
        return run_advise(args);
    }
    if args.peek().map(String::as_str) == Some("fleet") {
        args.next();
        return run_fleet(args);
    }
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    match run_offline(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// One flow as the offline report renders it: key, packets, analysis.
type Flow = (FlowKey, u64, FlowAnalysis);

/// The live configuration offline diagnosis runs under: nothing is evicted
/// or capped before EOF, so every flow sees all of its packets, and every
/// analysis is collected.
fn offline_config(threads: usize, analyzer: AnalyzerConfig) -> LiveConfig {
    LiveConfig {
        analyzer,
        shards: if threads == 0 {
            live::default_shards()
        } else {
            threads
        },
        idle_timeout: None,
        fin_linger: None,
        max_flows: 0,
        collect_flows: true,
        sketch: false,
        ..LiveConfig::default()
    }
}

/// Diagnose each capture in turn and render the flows in file order.
/// Failures are reported on stderr before their exit code is returned; a
/// closed stdout ends the run quietly.
fn run_offline(opts: &Options) -> Result<(), ExitCode> {
    let cfg = offline_config(opts.threads, opts.cfg);
    let mut out = BufWriter::new(io::stdout().lock());
    let mut flows: Vec<Flow> = Vec::new();
    let mut stats = PcapStats::default();
    for path in &opts.files {
        if opts.dump {
            dump(open(path)?, path, flows.len(), &mut out)?;
        }
        let summary = live::run(open(path)?, &cfg, |_| {}).map_err(|e| parse_failed(path, e))?;
        stats.packets += summary.packets;
        stats.packets_skipped += summary.packets_skipped;
        stats.records_truncated += summary.records_truncated;
        flows.extend(summary.flows);
    }
    let written = if opts.json {
        print_json(&mut out, &flows, opts, &stats)
    } else {
        print_text(&mut out, &flows, opts, &stats)
    };
    written
        .and_then(|()| out.flush())
        .map_err(|_| ExitCode::FAILURE)
}

fn open(path: &Path) -> Result<File, ExitCode> {
    File::open(path).map_err(|e| {
        eprintln!("tapo: cannot open {}: {e}", path.display());
        ExitCode::FAILURE
    })
}

fn parse_failed(path: &Path, e: PcapError) -> ExitCode {
    eprintln!("tapo: cannot parse {}: {e}", path.display());
    ExitCode::FAILURE
}

/// `--dump` for one capture: every decoded packet in capture order, each
/// line tagged `#i` with its flow's number in the analysis order. Flows
/// are numbered from `first` as they are first seen, and a reused 4-tuple
/// opens a new number by the reader's own rule ([`reopens`]). Memory is
/// one sequence tracker per 4-tuple.
fn dump(input: impl Read, path: &Path, first: usize, out: &mut impl Write) -> Result<(), ExitCode> {
    let mut stream = PcapStream::new(input).map_err(|e| parse_failed(path, e))?;
    // Per 4-tuple: its current flow number, whether that flow has closed,
    // and its sequence tracker.
    let mut flows: HashMap<FlowKey, (usize, bool, SeqTracker)> = HashMap::new();
    let mut next = first;
    while let Some(pkt) = stream.next_packet().map_err(|e| parse_failed(path, e))? {
        let (flow, closed, tracker) = flows.entry(pkt.key).or_insert_with(|| {
            next += 1;
            (next - 1, false, SeqTracker::new())
        });
        if reopens(*closed, pkt.raw.flags) {
            (*flow, *closed) = (next, false);
            next += 1;
            tracker.reset();
        }
        *closed |= pkt.raw.flags.fin || pkt.raw.flags.rst;
        if let Some(rec) = tracker.translate(pkt.t, &pkt.raw) {
            writeln!(out, "#{flow:<6} {}", render_record(&rec)).map_err(|_| ExitCode::FAILURE)?;
        }
    }
    Ok(())
}

fn run_advise(mut args: impl Iterator<Item = String>) -> ExitCode {
    const USAGE: &str = "usage: tapo advise <reports.jsonl|-> [--flows N] [--replicates N] \
         [--seed N] [--threads N] [--min-stalled-us N] [--csv]";
    let mut input: Option<String> = None;
    let mut cfg = AdviseConfig::default();
    let mut csv = false;
    let fail = |msg: &str| -> ExitCode {
        eprintln!("{msg}");
        ExitCode::from(2)
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--flows" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.flows = n,
                None => return fail("--flows requires N"),
            },
            "--replicates" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.replicates = n,
                None => return fail("--replicates requires N"),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.seed = n,
                None => return fail("--seed requires N"),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.threads = n,
                None => return fail("--threads requires N"),
            },
            "--min-stalled-us" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.min_stalled_us = n,
                None => return fail("--min-stalled-us requires microseconds"),
            },
            "--csv" => csv = true,
            "--help" | "-h" => return fail(USAGE),
            other if other.starts_with('-') && other != "-" => {
                return fail(&format!("unknown option {other} (try --help)"));
            }
            file => {
                if input.replace(file.to_string()).is_some() {
                    return fail("advise takes exactly one report stream (or '-')");
                }
            }
        }
    }
    let Some(input) = input else {
        return fail("no report stream given: tapo advise <reports.jsonl|-> (try --help)");
    };
    let parsed = if input == "-" {
        tapo::advise_from_reports(std::io::stdin().lock(), &cfg)
    } else {
        match File::open(&input) {
            Ok(f) => tapo::advise_from_reports(BufReader::new(f), &cfg),
            Err(e) => {
                eprintln!("tapo advise: cannot open {input}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let (obs, advices) = match parsed {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tapo advise: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Recommendations go to stdout through the shared fixed-shape sinks;
    // the parse/selection accounting goes to stderr so a JSON consumer
    // sees advice objects only.
    eprintln!(
        "tapo advise: {} interval report(s), {} line(s) skipped, {} flow(s) on unmapped ports, \
         {} service(s) selected",
        obs.intervals,
        obs.skipped,
        obs.unmapped_flows,
        advices.len()
    );
    let stdout = std::io::stdout();
    let mut sink: Box<dyn ReportSink> = if csv {
        let mut s = CsvSink::new(stdout.lock());
        if s.write_header(&tapo::ServiceAdvice::csv_header()).is_err() {
            return ExitCode::FAILURE;
        }
        Box::new(s)
    } else {
        Box::new(JsonLinesSink::new(stdout.lock()))
    };
    for advice in &advices {
        if sink.emit(advice).is_err() {
            return ExitCode::FAILURE;
        }
    }
    if sink.finish().is_err() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run_fleet(mut args: impl Iterator<Item = String>) -> ExitCode {
    const USAGE: &str = "usage: tapo fleet [reports.jsonl...|-] [--bucket MS] [--threads N] \
         [--warmup N] [--drift PCT] [--daemon-drift PCT] [--min-share-us N] [--csv] \
         [--advise] [--flows N] [--replicates N] [--seed N] [--min-stalled-us N]";
    let mut inputs: Vec<String> = Vec::new();
    let mut cfg = FleetConfig::default();
    let mut advise_cfg = AdviseConfig::default();
    let mut with_advice = false;
    let mut csv = false;
    let fail = |msg: &str| -> ExitCode {
        eprintln!("{msg}");
        ExitCode::from(2)
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bucket" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) if ms > 0 => cfg.bucket_us = ms * 1_000,
                _ => return fail("--bucket requires milliseconds (> 0)"),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => {
                    cfg.threads = n;
                    advise_cfg.threads = n;
                }
                None => return fail("--threads requires N"),
            },
            "--warmup" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.drift.warmup = n,
                None => return fail("--warmup requires a bucket count"),
            },
            "--drift" => match args.next().and_then(|v| v.parse().ok()) {
                Some(pct) => cfg.drift.drift_pct = pct,
                None => return fail("--drift requires a percentage"),
            },
            "--daemon-drift" => match args.next().and_then(|v| v.parse().ok()) {
                Some(pct) => cfg.drift.daemon_drift_pct = pct,
                None => return fail("--daemon-drift requires a percentage"),
            },
            "--min-share-us" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.drift.min_share_us = n,
                None => return fail("--min-share-us requires microseconds"),
            },
            "--advise" => with_advice = true,
            "--flows" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => advise_cfg.flows = n,
                None => return fail("--flows requires N"),
            },
            "--replicates" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => advise_cfg.replicates = n,
                None => return fail("--replicates requires N"),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => advise_cfg.seed = n,
                None => return fail("--seed requires N"),
            },
            "--min-stalled-us" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => advise_cfg.min_stalled_us = n,
                None => return fail("--min-stalled-us requires microseconds"),
            },
            "--csv" => csv = true,
            "--help" | "-h" => return fail(USAGE),
            other if other.starts_with('-') && other != "-" => {
                return fail(&format!("unknown option {other} (try --help)"));
            }
            file => inputs.push(file.to_string()),
        }
    }
    if inputs.iter().any(|i| i == "-") && inputs.len() > 1 {
        return fail("'-' (stdin multiplex) cannot be mixed with files");
    }

    let parsed = if inputs.is_empty() || inputs[0] == "-" {
        tapo::read_reports("-", std::io::stdin().lock(), cfg.threads)
    } else {
        tapo::read_report_files(&inputs, cfg.threads)
    };
    let (records, skipped) = match parsed {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tapo fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = tapo::aggregate(&records, skipped, &cfg);
    let advices = if with_advice {
        tapo::advise(&out.summary.observations(), &advise_cfg)
    } else {
        Vec::new()
    };

    eprintln!(
        "tapo fleet: {} record(s) from {} daemon(s), {} bucket(s), {} alert(s), \
         {} line(s) skipped",
        out.summary.records, out.summary.daemons, out.summary.buckets, out.summary.alerts, skipped
    );

    let stdout = std::io::stdout();
    let ok = if csv {
        // Stdout stays one clean spreadsheet of fleet intervals; alerts get
        // their own CSV table on stderr, and the summary (plus advice, if
        // requested) follows there as JSON-lines.
        let emit_all = || -> std::io::Result<()> {
            let mut sink = CsvSink::new(stdout.lock());
            sink.write_header(&FleetInterval::csv_header())?;
            for iv in &out.intervals {
                sink.emit(iv)?;
            }
            sink.finish()?;
            let stderr = std::io::stderr();
            let mut alert_sink = CsvSink::new(stderr.lock());
            alert_sink.write_header(&FleetAlert::csv_header())?;
            for a in &out.alerts {
                alert_sink.emit(a)?;
            }
            alert_sink.finish()?;
            let mut side = JsonLinesSink::new(stderr.lock());
            side.emit(&out.summary)?;
            for advice in &advices {
                side.emit(advice)?;
            }
            side.finish()
        };
        emit_all().is_ok()
    } else {
        let emit_all = || -> std::io::Result<()> {
            let mut sink = JsonLinesSink::new(stdout.lock());
            for iv in &out.intervals {
                sink.emit(iv)?;
            }
            for a in &out.alerts {
                sink.emit(a)?;
            }
            sink.emit(&out.summary)?;
            for advice in &advices {
                sink.emit(advice)?;
            }
            sink.finish()
        };
        emit_all().is_ok()
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_live(mut args: impl Iterator<Item = String>) -> ExitCode {
    const USAGE: &str = "usage: tapo live <capture.pcap|-> [--shards N] [--cells N] [--batch N] \
         [--ring N] [--interval MS] [--idle MS] [--linger MS] [--max-flows N] [--promote N] \
         [--demote N] [--heavy-max N] [--per-shard] [--csv] [--pace X] [--mss BYTES] \
         [--dupthres N] [--daemon-id ID] [--sketch on|off]";
    let mut input: Option<String> = None;
    let mut b = LiveConfig::builder();
    let mut csv = false;
    let mut daemon_given = false;
    let fail = |msg: &str| -> ExitCode {
        eprintln!("{msg}");
        ExitCode::from(2)
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => b = b.shards(n),
                None => return fail("--shards requires N"),
            },
            "--cells" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => b = b.cells(n),
                None => return fail("--cells requires N"),
            },
            "--batch" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => b = b.batch(n),
                None => return fail("--batch requires a packet count"),
            },
            "--ring" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => b = b.ring_depth(n),
                None => return fail("--ring requires a buffer count"),
            },
            "--interval" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => b = b.interval_ms(ms),
                None => return fail("--interval requires milliseconds"),
            },
            "--idle" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => b = b.idle_ms(ms),
                None => return fail("--idle requires milliseconds (0 disables)"),
            },
            "--linger" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => b = b.linger_ms(ms),
                None => return fail("--linger requires milliseconds (0 disables)"),
            },
            "--max-flows" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => b = b.max_flows(n),
                None => return fail("--max-flows requires N (0 = unbounded)"),
            },
            "--promote" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => b = b.promote(n),
                None => return fail("--promote requires a dup-ACK count"),
            },
            "--demote" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => b = b.demote(n),
                None => return fail("--demote requires a calm-packet streak (0 = never)"),
            },
            "--heavy-max" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => b = b.heavy_max(n),
                None => return fail("--heavy-max requires N (0 = unbounded)"),
            },
            "--per-shard" => b = b.per_shard_occupancy(true),
            "--csv" => csv = true,
            "--pace" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(x) => b = b.pace(Some(x)),
                None => return fail("--pace requires a factor"),
            },
            "--mss" => match args.next().and_then(|v| v.parse().ok()) {
                Some(m) => b = b.mss(m),
                None => return fail("--mss requires bytes"),
            },
            "--dupthres" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => b = b.dupthres(n),
                None => return fail("--dupthres requires N"),
            },
            "--daemon-id" => match args.next() {
                Some(id) => {
                    b = b.daemon_id(id);
                    daemon_given = true;
                }
                None => return fail("--daemon-id requires an id"),
            },
            "--sketch" => match args.next().as_deref() {
                Some("on") => b = b.sketch(true),
                Some("off") => b = b.sketch(false),
                _ => return fail("--sketch requires on|off"),
            },
            "--help" | "-h" => return fail(USAGE),
            other if other.starts_with('-') && other != "-" => {
                return fail(&format!("unknown option {other} (try --help)"));
            }
            file => {
                if input.replace(file.to_string()).is_some() {
                    return fail("live mode takes exactly one capture (or '-')");
                }
            }
        }
    }
    let Some(input) = input else {
        return fail("no capture given: tapo live <capture.pcap|-> (try --help)");
    };
    // Without an explicit id, a file-fed daemon gets a stable hash of its
    // capture path — restart-safe and pid-free — while stdin stays the
    // "local" default (there is no path to hash).
    if !daemon_given && input != "-" {
        b = b.daemon_id(DaemonId::derived_from_path(&input).as_str());
    }
    let cfg = match b.build() {
        Ok(cfg) => cfg,
        Err(e) => return fail(&format!("tapo live: {e}")),
    };

    // Interval reports stream to stdout through one fixed-shape sink; in
    // CSV mode stdout stays a clean spreadsheet (header up front, even if
    // no interval ever completes) and the JSON summary goes to stderr.
    // A failed report write (say, stdout piped into `head`) sets
    // `closed`; the input then reads as EOF, so the pipeline winds down
    // without reading the rest of the capture.
    let stdout = std::io::stdout();
    let mut sink: Box<dyn ReportSink> = if csv {
        let mut s = CsvSink::new(stdout.lock());
        if s.write_header(&live::IntervalReport::csv_header()).is_err() {
            return ExitCode::FAILURE;
        }
        Box::new(s)
    } else {
        Box::new(JsonLinesSink::new(stdout.lock()))
    };
    let closed = Cell::new(false);
    let mut emit = |r: &live::IntervalReport| {
        if !closed.get() && sink.emit(r).is_err() {
            closed.set(true);
        }
    };
    let result = if input == "-" {
        live::run(
            UntilClosed(std::io::stdin().lock(), &closed),
            &cfg,
            &mut emit,
        )
    } else {
        match File::open(&input) {
            Ok(f) => live::run(UntilClosed(BufReader::new(f), &closed), &cfg, &mut emit),
            Err(e) => {
                eprintln!("tapo live: cannot open {input}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if closed.get() {
        return ExitCode::FAILURE;
    }
    match result {
        Ok(summary) => {
            let ok = if csv {
                sink.finish().is_ok()
                    && JsonLinesSink::new(std::io::stderr().lock())
                        .emit(&summary)
                        .is_ok()
            } else {
                sink.emit(&summary).is_ok() && sink.finish().is_ok()
            };
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("tapo live: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A reader that reports EOF once `.1` is set.
struct UntilClosed<'a, R>(R, &'a Cell<bool>);

impl<R: Read> Read for UntilClosed<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.1.get() {
            return Ok(0);
        }
        self.0.read(buf)
    }
}

fn print_text(
    out: &mut impl Write,
    flows: &[Flow],
    opts: &Options,
    stats: &PcapStats,
) -> io::Result<()> {
    let mut breakdown = StallBreakdown::default();
    let mut flows_with_stalls = 0usize;
    let mut total_bytes = 0u64;
    for (_, _, a) in flows {
        breakdown.add_flow(a);
        if !a.stalls.is_empty() {
            flows_with_stalls += 1;
        }
        total_bytes += a.metrics.goodput_bytes;
    }

    writeln!(
        out,
        "{} flows, {:.1} MB served; {} flows ({:.0}%) stalled; {} stalls, {:.1}s stalled in total",
        flows.len(),
        total_bytes as f64 / 1e6,
        flows_with_stalls,
        100.0 * flows_with_stalls as f64 / flows.len().max(1) as f64,
        breakdown.total_stalls,
        breakdown.total_stalled.as_secs_f64(),
    )?;
    writeln!(
        out,
        "{} packets decoded, {} skipped (non-IPv4/TCP or malformed), {} truncated record(s)",
        stats.packets, stats.packets_skipped, stats.records_truncated,
    )?;

    writeln!(out, "\nstall causes (volume% / time%):")?;
    for class in StallClass::ALL {
        let share = breakdown.share(class);
        if share.volume_pct > 0.0 {
            writeln!(
                out,
                "  {:<12} {:>5.1}% / {:>5.1}%",
                class.label(),
                share.volume_pct,
                share.time_pct
            )?;
        }
    }
    if breakdown.any_retrans() {
        writeln!(
            out,
            "\ntimeout-retransmission breakdown (volume% / time% of retrans stalls):"
        )?;
        for class in RetransClass::ALL {
            let share = breakdown.retrans_share(class);
            if share.volume_pct > 0.0 {
                writeln!(
                    out,
                    "  {:<14} {:>5.1}% / {:>5.1}%",
                    class.label(),
                    share.volume_pct,
                    share.time_pct
                )?;
            }
        }
    }

    if opts.show_flows {
        writeln!(out, "\nper-flow summary (worst stalled first):")?;
        writeln!(out, "{}", tapo::FlowSummary::header())?;
        for row in tapo::summary::rank_by_stalled(flows.iter().map(|(_, _, a)| a)) {
            writeln!(out, "{}", row.row())?;
        }
    }

    if opts.show_stalls {
        writeln!(out, "\nper-flow stall log:")?;
        for (i, (_, _, a)) in flows.iter().enumerate() {
            let interesting: Vec<_> = a
                .stalls
                .iter()
                .filter(|s| s.duration.as_millis() >= opts.min_stall_ms)
                .collect();
            if interesting.is_empty() {
                continue;
            }
            writeln!(
                out,
                "flow #{i}: {} bytes, {:.1}s, {:.0}% stalled{}",
                a.metrics.goodput_bytes,
                a.metrics.duration.as_secs_f64(),
                a.stall_ratio() * 100.0,
                a.init_rwnd
                    .map(|w| format!(", init rwnd {w}B"))
                    .unwrap_or_default(),
            )?;
            for s in interesting {
                writeln!(
                    out,
                    "  {:>10} +{:>9}  {:<40} in_flight={} state={:?}",
                    s.start.to_string(),
                    s.duration.to_string(),
                    cause_str(&s.cause),
                    s.snapshot.in_flight,
                    s.snapshot.ca_state,
                )?;
            }
        }
    }
    Ok(())
}

fn cause_str(cause: &StallCause) -> String {
    match cause {
        StallCause::Retransmission(rc) => format!("retrans: {}", rc.label()),
        other => other.label().to_string(),
    }
}

fn ip_str(ip: [u8; 4]) -> String {
    format!("{}.{}.{}.{}", ip[0], ip[1], ip[2], ip[3])
}

fn stall_json(s: &Stall) -> Json {
    let retrans_cause = match s.cause {
        StallCause::Retransmission(rc) => Json::from(rc.label()),
        _ => Json::Null,
    };
    Json::obj([
        ("start_s", Json::from(s.start.as_secs_f64())),
        ("end_s", Json::from(s.end.as_secs_f64())),
        ("duration_s", Json::from(s.duration.as_secs_f64())),
        ("end_record", Json::from(s.end_record)),
        ("cause", Json::from(s.cause.label())),
        ("retrans_cause", retrans_cause),
        ("rel_position", Json::from(s.rel_position)),
        (
            "snapshot",
            Json::obj([
                ("ca_state", Json::from(format!("{:?}", s.snapshot.ca_state))),
                ("packets_out", Json::from(s.snapshot.packets_out)),
                ("sacked_out", Json::from(s.snapshot.sacked_out)),
                ("retrans_out", Json::from(s.snapshot.retrans_out)),
                ("lost_est", Json::from(s.snapshot.lost_est)),
                ("holes", Json::from(s.snapshot.holes)),
                ("in_flight", Json::from(s.snapshot.in_flight)),
                ("rwnd", Json::from(s.snapshot.rwnd)),
                ("dupacks", Json::from(s.snapshot.dupacks)),
            ]),
        ),
    ])
}

fn print_json(
    out: &mut impl Write,
    flows: &[Flow],
    opts: &Options,
    stats: &PcapStats,
) -> io::Result<()> {
    let flows_json: Vec<Json> = flows
        .iter()
        .map(|(key, packets, a)| {
            Json::obj([
                (
                    "key",
                    Json::obj([
                        ("server", Json::from(ip_str(key.server_ip))),
                        ("server_port", Json::from(u64::from(key.server_port))),
                        ("client", Json::from(ip_str(key.client_ip))),
                        ("client_port", Json::from(u64::from(key.client_port))),
                    ]),
                ),
                ("packets", Json::from(*packets)),
                ("bytes", Json::from(a.metrics.goodput_bytes)),
                ("duration_s", Json::from(a.metrics.duration.as_secs_f64())),
                ("stall_ratio", Json::from(a.stall_ratio())),
                (
                    "mean_rtt_s",
                    Json::from(a.metrics.mean_rtt.map(|d| d.as_secs_f64())),
                ),
                (
                    "mean_rto_s",
                    Json::from(a.metrics.mean_rto.map(|d| d.as_secs_f64())),
                ),
                ("retrans_pkts", Json::from(a.metrics.retrans_pkts)),
                ("init_rwnd", Json::from(a.init_rwnd)),
                (
                    "stalls",
                    Json::Arr(
                        a.stalls
                            .iter()
                            .filter(|s| s.duration.as_millis() >= opts.min_stall_ms)
                            .map(stall_json)
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("tool", Json::from("tapo")),
        ("packets", Json::from(stats.packets)),
        ("packets_skipped", Json::from(stats.packets_skipped)),
        ("records_truncated", Json::from(stats.records_truncated)),
        (
            "config",
            Json::obj([
                ("mss", Json::from(opts.cfg.replay.mss)),
                ("dupthres", Json::from(opts.cfg.replay.dupthres)),
                (
                    "min_rto_s",
                    Json::from(opts.cfg.replay.min_rto.as_secs_f64()),
                ),
                (
                    "max_rto_s",
                    Json::from(opts.cfg.replay.max_rto.as_secs_f64()),
                ),
                (
                    "initial_rto_s",
                    Json::from(opts.cfg.replay.initial_rto.as_secs_f64()),
                ),
                (
                    "small_in_flight",
                    Json::from(opts.cfg.classify.small_in_flight),
                ),
                (
                    "continuous_loss_min",
                    Json::from(opts.cfg.classify.continuous_loss_min),
                ),
            ]),
        ),
        ("flows", Json::Arr(flows_json)),
    ]);
    writeln!(out, "{}", doc.pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimTime;
    use tcp_trace::pcap::PcapWriter;
    use tcp_trace::record::{Direction, SegFlags, TraceRecord};

    /// Two flows; the first closes and its 4-tuple is reused by a third.
    fn reuse_capture() -> Vec<u8> {
        let (a, b) = (FlowKey::synthetic(1), FlowKey::synthetic(2));
        let t = SimTime::from_millis;
        let syn = |ms| TraceRecord {
            flags: SegFlags::SYN,
            ..TraceRecord::pure_ack(t(ms), Direction::In, 0, 65535)
        };
        let fin = TraceRecord {
            flags: SegFlags {
                fin: true,
                ack: true,
                ..Default::default()
            },
            ..TraceRecord::pure_ack(t(30), Direction::Out, 0, 65535)
        };
        let pkts = [
            (a, syn(0)),
            (b, syn(5)),
            (
                a,
                TraceRecord::data(t(10), Direction::Out, 0, 1448, 0, 65535),
            ),
            (
                b,
                TraceRecord::data(t(15), Direction::Out, 0, 1448, 0, 65535),
            ),
            (a, TraceRecord::pure_ack(t(20), Direction::In, 1448, 65535)),
            (a, fin),
            (a, syn(40)),
            (b, TraceRecord::pure_ack(t(45), Direction::In, 1448, 65535)),
            (
                a,
                TraceRecord::data(t(50), Direction::Out, 0, 100, 0, 65535),
            ),
        ];
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for (key, rec) in &pkts {
            w.write_record(key, rec).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn dump_prints_each_packet_tagged_with_its_analysis_flow_number() {
        let capture = reuse_capture();
        let first = 3; // as if an earlier capture held flows #0..#2
        let mut out = Vec::new();
        dump(&capture[..], Path::new("reuse.pcap"), first, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let tags: Vec<usize> = text
            .lines()
            .map(|l| l[1..].split_whitespace().next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(tags, [3, 4, 3, 4, 3, 3, 5, 4, 5], "one line per packet");

        // Per flow number, the line count is the packet count of the
        // analysis at that position in the offline report.
        let cfg = offline_config(2, AnalyzerConfig::default());
        let summary = live::run(&capture[..], &cfg, |_| {}).unwrap();
        assert_eq!(tags.len() as u64, summary.packets);
        let counts: Vec<u64> = (0..summary.flows.len())
            .map(|i| tags.iter().filter(|&&t| t == first + i).count() as u64)
            .collect();
        let packets: Vec<u64> = summary.flows.iter().map(|f| f.1).collect();
        assert_eq!(counts, packets);
        assert_eq!(summary.flows[2].0, summary.flows[0].0, "#5 reuses #3's key");
    }
}
