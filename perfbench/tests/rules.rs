//! The benchmark's own rules: percentiles, the report → closing-packet
//! mapping, span self time, and the live summary fields it reads.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use perfbench::child::{parse_exit, Exit};
use perfbench::e2e::{fleet_window, FLEET_WINDOW};
use perfbench::feeder::{interval_end_us, OpenLoopPass};
use perfbench::schedule::Schedule;
use perfbench::spans::{self_times, Span, Tracer};
use perfbench::stats::{self, MIN_BEYOND};
use perfbench::summary::LiveCounts;
use simnet::time::SimDuration;
use std::time::{Duration, Instant};
use tapo::live::{self, IntervalReport, LiveConfig};
use tapo::{JsonLinesSink, ReportSink};
use workloads::{generate_interleaved, LiveGenSpec};

fn capture(flows_per_service: usize, seed: u64) -> Vec<u8> {
    let spec = LiveGenSpec {
        flows_per_service,
        seed,
        mean_gap: SimDuration::from_millis(5),
        threads: 1,
        ..LiveGenSpec::default()
    };
    let mut out = Vec::new();
    generate_interleaved(&mut out, &spec).expect("in-memory generation");
    out
}

fn reports(bytes: &[u8], cfg: &LiveConfig) -> Vec<IntervalReport> {
    let mut v = Vec::new();
    live::run(bytes, cfg, |r| v.push(r.clone())).expect("valid capture");
    v
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    assert_eq!(stats::samples_needed(0.99), 1000);
    assert_eq!(stats::samples_needed(0.5), 20);
    let v: Vec<f64> = (1..=999).map(f64::from).collect();
    assert_eq!(stats::percentile(&v, 0.99), None, "only 9 beyond");
    let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let p = stats::percentile(&v, 0.99).expect("10 beyond");
    assert_eq!(p, 990.0);
    assert_eq!(v.iter().filter(|&&x| x > p).count(), MIN_BEYOND);
}

#[test]
fn quartiles_match_python_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quartiles(&v), Some((2.75, 8.25)));
    assert_eq!(stats::median(&v), Some(5.5));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(stats::quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    assert_eq!(stats::iqr_share(&v), Some((8.25 - 2.75) / 5.5));
    assert_eq!(stats::median(&[]), None);
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let span = |name, start_ns, end_ns, parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
    };
    let spans = [
        span("root", 0, 100, None),
        span("a", 10, 30, Some(0)),
        span("a.inner", 12, 20, Some(1)),
        span("b", 40, 50, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![70, 12, 8, 10]);
}

#[test]
fn tracer_nests_spans_under_the_open_one() {
    let mut t = Tracer::default();
    t.span("outer", |t| {
        t.span("inner", |_| std::hint::black_box(1 + 1));
        t.span("inner", |_| ());
    });
    t.span("next", |_| ());
    let parents: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
    assert_eq!(
        parents,
        vec![
            ("outer", None),
            ("inner", Some(0)),
            ("inner", Some(0)),
            ("next", None)
        ]
    );
    let inner = t.total_ns("inner");
    assert_eq!(t.self_total_ns("outer"), t.total_ns("outer") - inner);
    assert_eq!(t.self_total_ns("inner"), inner);
}

#[test]
fn schedule_indexes_every_record_and_paces_them() {
    let bytes = capture(4, 7);
    let sched = Schedule::parse(&bytes).expect("generated pcap");
    let (_, stats) = tcp_trace::pcap::PcapReader::read_all_stats(&bytes[..]).expect("valid");
    assert_eq!(sched.len() as u64, stats.packets);
    assert_eq!(sched.bytes(0, sched.len()).end, bytes.len());
    // At 1000 packets/s record i is due at i ms.
    assert_eq!(sched.due(250, 1000.0).as_millis(), 250);
    let ms = std::time::Duration::from_millis;
    assert_eq!(sched.due_until(0, ms(0), 1000.0), 1);
    assert_eq!(sched.due_until(0, ms(9), 1000.0), 10);
    assert_eq!(sched.due_until(20, ms(9), 1000.0), 20);
    assert_eq!(sched.due_until(0, ms(1_000_000), 1000.0), sched.len());
    assert!(Schedule::parse(&bytes[..bytes.len() - 1]).is_err());
}

#[test]
fn a_report_is_closed_by_the_first_packet_at_or_after_its_end() {
    let bytes = capture(6, 11);
    let sched = Schedule::parse(&bytes).expect("generated pcap");
    let cfg = LiveConfig {
        interval: SimDuration::from_millis(100),
        ..LiveConfig::default()
    };
    let full = reports(&bytes, &cfg);
    assert!(full.len() > 4);
    // The last report is closed by end of input.
    assert_eq!(
        sched.closing_record(full.last().expect("reports").end_us),
        None
    );
    let step = (full.len() / 16).max(1);
    for r in full[..full.len() - 1].iter().step_by(step) {
        let i = sched.closing_record(r.end_us).expect("closed by a packet");
        assert!(sched.t_us(i) >= r.end_us);
        assert!(i == 0 || sched.t_us(i - 1) < r.end_us);
        // Without the closing packet the interval is still open at end of
        // input, so it is the final report; with it, the report is cut
        // and the closing packet opens a later interval.
        let before = reports(&bytes[..sched.bytes(0, i).end], &cfg);
        assert_eq!(before.last().map(|l| l.end_us), Some(r.end_us));
        let through = reports(&bytes[..sched.bytes(0, i + 1).end], &cfg);
        let at = through
            .iter()
            .position(|l| l.end_us == r.end_us)
            .expect("cut");
        assert_eq!(at + 2, through.len());
    }
}

#[test]
fn report_lines_parse_back_to_their_end() {
    let bytes = capture(3, 5);
    let rs = reports(&bytes, &LiveConfig::default());
    for r in &rs {
        let line = r.to_json().compact();
        assert_eq!(interval_end_us(line.as_bytes()), Some(r.end_us));
    }
    assert_eq!(
        interval_end_us(b"{\"kind\":\"summary\",\"end_us\":5}"),
        None
    );
}

#[test]
fn live_counts_read_from_the_stream_match_the_summary() {
    let bytes = capture(20, 3);
    for cfg in [
        LiveConfig {
            max_flows: 16,
            ..LiveConfig::default()
        },
        LiveConfig::builder()
            .shards(1)
            .promote(3)
            .build()
            .expect("valid config"),
    ] {
        let mut stream = Vec::new();
        let summary = {
            let mut out = JsonLinesSink::new(&mut stream);
            let s = live::run(&bytes[..], &cfg, |r| out.emit(r).expect("vec")).expect("valid");
            out.emit(&s).expect("vec");
            s
        };
        let read = LiveCounts::from_stream(&stream).expect("summary line present");
        assert_eq!(read, LiveCounts::from_summary(&summary));
        assert_eq!(
            read.packets,
            Schedule::parse(&bytes).expect("pcap").len() as u64
        );
        assert_eq!(read.intervals as usize, reports(&bytes, &cfg).len());
    }
}

#[test]
fn helper_exit_line_is_split_from_program_stderr() {
    let (rest, exit) = parse_exit("warn: x\nperfbench-exit 0 2000000 1000000 4096\n");
    assert_eq!(rest, "warn: x");
    assert!(exit.ok());
    assert_eq!(exit.wall.as_millis(), 2);
    assert_eq!(exit.peak_rss, 4096);
    let (_, exit) = parse_exit("no exit line\n");
    assert!(!exit.ok());
    let (_, exit) = parse_exit("perfbench-exit -1 5 5 5\n");
    assert_eq!(exit.code, None);
}

#[test]
fn lag_is_measured_from_the_closing_packet_and_skips_the_final_batch() {
    let bytes = capture(6, 11);
    let sched = Schedule::parse(&bytes).expect("generated pcap");
    let cfg = LiveConfig {
        interval: SimDuration::from_millis(100),
        ..LiveConfig::default()
    };
    let mut stdout = Vec::new();
    let mut lines = Vec::new();
    let start = Instant::now();
    let rate = 1000.0;
    let batch = 8;
    let mut expected = Vec::new();
    // Every report arrives exactly 3 ms after its closing packet was due.
    for r in reports(&bytes, &cfg) {
        let from = stdout.len();
        stdout.extend_from_slice(r.to_json().compact().as_bytes());
        stdout.push(b'\n');
        let closer = sched.closing_record(r.end_us);
        let at = start
            + closer.map_or(Duration::ZERO, |i| sched.due(i, rate))
            + Duration::from_millis(3);
        lines.push((at, from..stdout.len()));
        if closer.is_some_and(|i| i < sched.len() / batch * batch) {
            expected.push(Duration::from_millis(3));
        }
    }
    let exit = Exit {
        code: Some(0),
        wall: Duration::ZERO,
        cpu: Duration::ZERO,
        peak_rss: 0,
    };
    let pass = OpenLoopPass {
        stdout,
        lines,
        start,
        late: Vec::new(),
        exit,
    };
    let lags = pass.lags(&sched, rate, batch);
    assert!(!lags.is_empty());
    assert_eq!(lags, expected);
}

#[test]
fn fleet_window_keeps_the_first_intervals_and_the_summary() {
    let mut stream = Vec::new();
    for i in 0..FLEET_WINDOW + 5 {
        stream
            .extend_from_slice(format!("{{\"kind\":\"interval\",\"interval\":{i}}}\n").as_bytes());
    }
    stream.extend_from_slice(b"{\"kind\":\"summary\"}\n");
    let window = String::from_utf8(fleet_window(&stream)).expect("utf8");
    let lines: Vec<&str> = window.lines().collect();
    assert_eq!(lines.len(), FLEET_WINDOW + 1);
    assert!(lines[FLEET_WINDOW - 1].ends_with(&format!(":{}}}", FLEET_WINDOW - 1)));
    assert_eq!(lines[FLEET_WINDOW], "{\"kind\":\"summary\"}");
    let short = b"{\"kind\":\"interval\",\"interval\":0}\n".to_vec();
    assert_eq!(fleet_window(&short), short);
}
