//! The traced run: the same inputs pushed through each layer's public
//! functions in-process, with a span around every batch of calls.
//!
//! Live stages are measured as prefix pipelines over the capture held in
//! memory — decode; decode + split; decode + split + engine; the full
//! `live::run`; `live::run` + the JSON-lines sink — so each stage's cost
//! is the difference between consecutive prefixes, and what `live::run`
//! spends beyond the reconstructed stages is reported as unattributed.
//! Each prefix runs [`REPS`] times, interleaved, and its fastest total is
//! used: host noise only ever adds time, so the minimum is the steadiest
//! estimate of a stage's own cost.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Duration;

use tapo::advise::{advise, parse_observations, AdviseConfig};
use tapo::fleet::{aggregate, FleetConfig};
use tapo::live::{self, cell_of, EngineParams, LightTable, LiveConfig, LiveSummary, ShardEngine};
use tapo::report::parse::parse_reports;
use tapo::{analyze_flow, JsonLinesSink, ReportSink, StreamAnalyzer};
use tcp_trace::flow::FlowKey;
use tcp_trace::pcap::{PacketBatch, PcapReader, PcapStream, SeqTracker};
use workloads::generate_interleaved;

use crate::e2e::{Inputs, LAG_TAIL};
use crate::feeder;
use crate::spans::Tracer;
use crate::stats;
use crate::workload::Workload;

/// Repetitions of each timed prefix pipeline.
pub const REPS: usize = 5;
/// Repetitions of the fleet stages.
pub const FLEET_REPS: usize = 5;
/// Packets per decoded batch, as `tapo live` uses by default.
const BATCH: usize = live::DEFAULT_BATCH;
/// Flows per span in the per-flow analyzer stages.
const FLOW_BATCH: usize = 64;

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn median_ns(v: &[u64]) -> f64 {
    let f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
    stats::median(&f).unwrap_or(0.0)
}

fn min_ns(v: &[u64]) -> f64 {
    v.iter().copied().min().unwrap_or(0) as f64
}

fn engine_params(cfg: &LiveConfig) -> EngineParams {
    EngineParams {
        analyzer: cfg.analyzer,
        collect: false,
        tier: cfg.tier,
        idle_us: cfg.idle_timeout.map(|d| d.as_micros()),
        linger_us: cfg.fin_linger.map(|d| d.as_micros()),
        ncells: cfg.effective_cells(),
        shards: 1,
        shard: 0,
        max_flows: cfg.max_flows,
        sketch: cfg.sketch,
    }
}

/// Which live stages a prefix pipeline runs after decoding.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Prefix {
    Decode,
    Split,
    Engine,
}

/// Totals of one prefix-pipeline pass.
#[derive(Default)]
struct PrefixPass {
    total_ns: u64,
    cut_ns: u64,
    cuts: u64,
    fills: u64,
    skipped: u64,
}

/// Decode (and optionally split and run the engine over) one capture,
/// one span per batch and stage, mirroring the inline `--shards 1` path.
fn prefix_pass(bytes: &[u8], cfg: &LiveConfig, upto: Prefix, t: &mut Tracer) -> PrefixPass {
    t.clear();
    let mut stream = PcapStream::new(bytes).expect("generated capture has a valid header");
    let mut batch = PacketBatch::new();
    let ncells = cfg.effective_cells();
    let interval_us = cfg.interval.as_micros().max(1);
    let mut eng = (upto == Prefix::Engine).then(|| ShardEngine::new(engine_params(cfg)));
    let (mut cur_iv, mut next_cut_us, mut last_t_us, mut gidx) = (None::<u64>, 0u64, 0u64, 0u64);
    let mut p = PrefixPass::default();
    t.span("pipeline", |t| loop {
        let n = t.span("pcap.decode", |_| {
            stream
                .fill_batch(&mut batch, BATCH)
                .expect("in-memory capture decodes")
        });
        if n == 0 {
            break;
        }
        p.fills += 1;
        if upto >= Prefix::Split {
            t.span("live.split", |_| {
                for pkt in batch.pkts() {
                    black_box(cell_of(&pkt.key, ncells));
                }
            });
        }
        if let Some(eng) = eng.as_mut() {
            t.span("live.engine", |t| {
                for pkt in batch.pkts() {
                    let t_us = pkt.t.as_micros();
                    last_t_us = t_us;
                    if t_us >= next_cut_us {
                        if cur_iv.is_some() {
                            t.span("live.cut", |_| black_box(eng.cut(t_us)));
                            p.cuts += 1;
                        }
                        let iv = t_us / interval_us;
                        cur_iv = Some(iv);
                        next_cut_us = (iv + 1).saturating_mul(interval_us);
                    }
                    eng.process(gidx, pkt, t_us);
                    gidx += 1;
                }
            });
        }
    });
    if let Some(eng) = eng.as_mut() {
        t.span("live.engine", |t| {
            eng.eof(last_t_us);
            t.span("live.cut", |_| black_box(eng.cut(last_t_us)));
        });
        p.cuts += 1;
    }
    p.total_ns = t
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns())
        .sum();
    p.cut_ns = t.total_ns("live.cut");
    p.skipped = stream.stats().packets_skipped;
    p
}

/// Bytes written through it, and nothing kept.
#[derive(Default)]
struct ByteCount(u64);

impl std::io::Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one full `live::run` pass measured.
struct RunPass {
    total_ns: u64,
    render_ns: u64,
    reports: u64,
    report_bytes: u64,
    summary: LiveSummary,
}

/// Full `live::run` over one capture; with `sink`, every report goes
/// through a JSON-lines sink (one span per emitted report).
fn run_pass(bytes: &[u8], cfg: &LiveConfig, sink: bool, t: &mut Tracer) -> RunPass {
    t.clear();
    let mut counter = ByteCount::default();
    let mut reports = 0u64;
    let summary = {
        let mut out = JsonLinesSink::new(&mut counter);
        t.span("live.run", |t| {
            live::run(bytes, cfg, |r| {
                if sink {
                    t.span("live.render", |_| {
                        out.emit(r).expect("counting sink cannot fail")
                    });
                    reports += 1;
                }
            })
            .expect("in-memory capture decodes")
        })
    };
    RunPass {
        total_ns: t.total_ns("live.run"),
        render_ns: t.total_ns("live.render"),
        reports,
        report_bytes: counter.0,
        summary,
    }
}

/// Run the traced pass over `inputs` and return the per-layer metrics.
/// `streams` are the reference report streams of the end-to-end run and
/// `fleet_streams` the streams its fleet passes aggregated.
pub fn traced_run(
    wl: &Workload,
    inputs: &Inputs,
    streams: &[Vec<u8>],
    fleet_streams: &[Vec<u8>],
) -> Vec<Metric> {
    let mut m: Vec<Metric> = Vec::new();
    let mut t = Tracer::default();
    let total_pkts = inputs.total_packets() as f64;

    // simnet + tcp + workloads: the generator, in-process.
    let mut sim_ns = 0u64;
    let mut sim_pkts = 0u64;
    let mut sim_flows = 0u64;
    for cap in &wl.captures {
        t.clear();
        let st = t.span("sim.generate", |_| {
            generate_interleaved(std::io::sink(), &cap.spec).expect("sink cannot fail")
        });
        sim_ns += t.total_ns("sim.generate");
        sim_pkts += st.packets;
        sim_flows += st.flows as u64;
    }
    m.push((
        "sim.generate_ns_per_pkt",
        sim_ns as f64 / sim_pkts as f64,
        "ns/pkt",
    ));
    m.push(("sim.packets", sim_pkts as f64, "count"));
    m.push(("sim.flows", sim_flows as f64, "count"));

    // Live prefix pipelines.
    let cfgs: Vec<LiveConfig> = wl
        .captures
        .iter()
        .map(|c| wl.live.config(&c.daemon).expect("workload config is valid"))
        .collect();
    let mut decode = Vec::new();
    let mut split = Vec::new();
    let mut engine = Vec::new();
    let mut cut = Vec::new();
    let mut run = Vec::new();
    let mut run_sink = Vec::new();
    let mut run_nosketch = Vec::new();
    let mut render = Vec::new();
    let (mut fills, mut skipped, mut cuts, mut reports, mut report_bytes) = (0, 0, 0, 0, 0);
    let mut summaries: Vec<LiveSummary> = Vec::new();
    for rep in 0..REPS {
        let (mut d, mut s, mut e, mut c, mut r, mut rs, mut rn, mut rr) = (0, 0, 0, 0, 0, 0, 0, 0);
        for (i, bytes) in inputs.bytes.iter().enumerate() {
            let cfg = &cfgs[i];
            let pd = prefix_pass(bytes, cfg, Prefix::Decode, &mut t);
            d += pd.total_ns;
            s += prefix_pass(bytes, cfg, Prefix::Split, &mut t).total_ns;
            let pe = prefix_pass(bytes, cfg, Prefix::Engine, &mut t);
            e += pe.total_ns;
            c += pe.cut_ns;
            let plain = run_pass(bytes, cfg, false, &mut t);
            r += plain.total_ns;
            let sunk = run_pass(bytes, cfg, true, &mut t);
            rs += sunk.total_ns;
            rr += sunk.render_ns;
            let nosketch = LiveConfig {
                sketch: false,
                ..*cfg
            };
            rn += run_pass(bytes, &nosketch, false, &mut t).total_ns;
            if rep == 0 {
                fills += pd.fills;
                skipped += pd.skipped;
                cuts += pe.cuts;
                reports += sunk.reports;
                report_bytes += sunk.report_bytes;
                summaries.push(plain.summary);
            }
        }
        decode.push(d);
        split.push(s);
        engine.push(e);
        cut.push(c);
        run.push(r);
        run_sink.push(rs);
        run_nosketch.push(rn);
        render.push(rr);
    }
    let per_pkt = |v: f64| v / total_pkts;
    let (d, s, e, c) = (
        min_ns(&decode),
        min_ns(&split),
        min_ns(&engine),
        min_ns(&cut),
    );
    let (r, rs, rn, rr) = (
        min_ns(&run),
        min_ns(&run_sink),
        min_ns(&run_nosketch),
        min_ns(&render),
    );
    m.push(("pcap.decode_ns_per_pkt", per_pkt(d), "ns/pkt"));
    m.push(("pcap.skipped", skipped as f64, "count"));
    m.push((
        "pcap.fill_pkts_mean",
        total_pkts / fills.max(1) as f64,
        "pkt",
    ));
    m.push(("live.split_ns_per_pkt", per_pkt(s - d), "ns/pkt"));
    m.push(("live.engine_ns_per_pkt", per_pkt(e - s - c), "ns/pkt"));
    m.push((
        "live.cut_us_per_report",
        c / 1e3 / cuts.max(1) as f64,
        "us/report",
    ));
    m.push(("live.unattributed_ns_per_pkt", per_pkt(r - e), "ns/pkt"));
    m.push(("live.sketch_ns_per_pkt", per_pkt(r - rn), "ns/pkt"));
    m.push((
        "live.render_us_per_report",
        rr / 1e3 / reports.max(1) as f64,
        "us/report",
    ));
    m.push(("live.report_bytes", report_bytes as f64, "bytes"));
    m.push(("live.traced_ns_per_pkt", per_pkt(rs), "ns/pkt"));

    // Lifecycle and tier counters from the library summary.
    let mut sum = crate::summary::LiveCounts::default();
    for s in &summaries {
        sum.add(&crate::summary::LiveCounts::from_summary(s));
    }
    let share = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    m.push(("live.flows_shed", sum.flows_shed as f64, "count"));
    m.push((
        "live.shed_share",
        share(sum.flows_shed, sum.flows_seen),
        "share",
    ));
    m.push(("live.packets_late", sum.packets_late as f64, "count"));
    m.push((
        "live.late_share",
        share(sum.packets_late, sum.packets),
        "share",
    ));
    m.push((
        "live.max_active_flows",
        sum.max_active_flows as f64,
        "count",
    ));
    m.push(("live.promotions", sum.promotions as f64, "count"));
    m.push(("live.demotions", sum.demotions as f64, "count"));
    m.push((
        "live.promotions_denied",
        sum.promotions_denied as f64,
        "count",
    ));
    m.push(("live.max_heavy_flows", sum.max_heavy_flows as f64, "count"));
    m.push((
        "live.promoted_share",
        share(sum.promotions, sum.flows_seen),
        "share",
    ));

    m.extend(tier_and_translate(inputs, &mut t));
    m.extend(offline_layers(inputs, &mut t));
    m.extend(fill_wait(inputs, wl.rate));
    m.extend(fleet_layers(fleet_streams, &mut t));
    m.extend(advise_layers(streams, &mut t));
    m
}

/// `SeqTracker::translate` and the light tier's `LightTable::update` over
/// every packet (the tier's thresholds are `--promote 3`'s), one span per
/// batch and stage.
fn tier_and_translate(inputs: &Inputs, t: &mut Tracer) -> Vec<Metric> {
    let tier = tapo::live::TierConfig {
        promote_dupacks: 3,
        ..Default::default()
    };
    let cfg = tapo::AnalyzerConfig::default();
    t.clear();
    let mut n = 0u64;
    for bytes in &inputs.bytes {
        let mut stream = PcapStream::new(&bytes[..]).expect("valid capture");
        let mut batch = PacketBatch::new();
        let mut flows: HashMap<FlowKey, (u32, SeqTracker)> = HashMap::new();
        let mut table = LightTable::new(cfg.replay);
        let mut recs = Vec::with_capacity(BATCH);
        // Slots are handed out in order, so rows up to `rows` exist.
        let mut rows = 0u32;
        while stream.fill_batch(&mut batch, BATCH).expect("valid capture") > 0 {
            recs.clear();
            t.span("trace.translate", |_| {
                for pkt in batch.pkts() {
                    let next = flows.len() as u32;
                    let (slot, tracker) = flows
                        .entry(pkt.key)
                        .or_insert_with(|| (next, SeqTracker::new()));
                    if let Some(rec) = tracker.translate(pkt.t, &pkt.raw) {
                        recs.push((*slot, rec, pkt.t.as_micros()));
                    }
                }
            });
            t.span("monitor.update", |_| {
                for (slot, rec, t_us) in &recs {
                    while rows <= *slot {
                        table.init(rows);
                        rows += 1;
                    }
                    black_box(table.update(*slot, rec, *t_us, &tier));
                }
            });
            n += batch.len() as u64;
        }
    }
    let per = |name| t.total_ns(name) as f64 / n.max(1) as f64;
    vec![
        (
            "trace.translate_ns_per_pkt",
            per("trace.translate"),
            "ns/pkt",
        ),
        ("monitor.update_ns_per_pkt", per("monitor.update"), "ns/pkt"),
    ]
}

/// Offline path: `PcapReader::read_all_stats`, `analyze_flow`, and the
/// streaming analyzer's `push` / `finish_reset`.
fn offline_layers(inputs: &Inputs, t: &mut Tracer) -> Vec<Metric> {
    let cfg = tapo::AnalyzerConfig::default();
    t.clear();
    let mut pkts = 0u64;
    let mut recs = 0u64;
    let mut flows_n = 0u64;
    for bytes in &inputs.bytes {
        let (flows, st) = t.span("pcap.read_all", |_| {
            PcapReader::read_all_stats(&bytes[..]).expect("valid capture")
        });
        pkts += st.packets;
        for chunk in flows.chunks(FLOW_BATCH) {
            t.span("offline.analyze", |_| {
                for f in chunk {
                    black_box(analyze_flow(f, cfg));
                }
            });
        }
        let mut an = StreamAnalyzer::new(cfg);
        for chunk in flows.chunks(FLOW_BATCH) {
            t.span("stream.batch", |t| {
                for f in chunk {
                    for rec in &f.records {
                        black_box(an.push(rec));
                    }
                    recs += f.records.len() as u64;
                    t.span("stream.finish", |_| black_box(an.finish_reset()));
                }
            });
        }
        flows_n += flows.len() as u64;
    }
    let per_pkt = |name| t.total_ns(name) as f64 / pkts.max(1) as f64;
    vec![
        (
            "pcap.read_all_ns_per_pkt",
            per_pkt("pcap.read_all"),
            "ns/pkt",
        ),
        (
            "offline.analyze_ns_per_pkt",
            per_pkt("offline.analyze"),
            "ns/pkt",
        ),
        (
            "stream.push_ns_per_rec",
            t.self_total_ns("stream.batch") as f64 / recs.max(1) as f64,
            "ns/rec",
        ),
        (
            "stream.finish_us_per_flow",
            t.total_ns("stream.finish") as f64 / 1e3 / flows_n.max(1) as f64,
            "us/flow",
        ),
    ]
}

/// `PcapStream::fill_batch` on a pipe fed by the open-loop schedule: how
/// many packets each refill returns and how long it waits for them. Stops
/// once the waits support a p99.
fn fill_wait(inputs: &Inputs, rate: f64) -> Vec<Metric> {
    let need = stats::samples_needed(LAG_TAIL);
    let mut waits: Vec<f64> = Vec::new();
    for (bytes, sched) in inputs.bytes.iter().zip(&inputs.scheds) {
        if waits.len() >= need {
            break;
        }
        let (rx, mut tx) = std::io::pipe().expect("pipe");
        let start = std::time::Instant::now() + Duration::from_millis(5);
        std::thread::scope(|s| {
            // Dropping the reader early ends the feed with a write error,
            // which is expected here.
            s.spawn(move || feeder::feed(&mut tx, bytes, sched, rate, start, &mut Vec::new()));
            let mut stream = PcapStream::new(rx).expect("valid capture");
            let mut batch = PacketBatch::new();
            while waits.len() < need {
                let before = std::time::Instant::now();
                if stream.fill_batch(&mut batch, BATCH).expect("valid capture") == 0 {
                    break;
                }
                waits.push(before.elapsed().as_secs_f64() * 1e3);
            }
        });
    }
    vec![
        (
            "pcap.fill_wait_ms_p50",
            stats::median(&waits).unwrap_or(0.0),
            "ms",
        ),
        (
            "pcap.fill_wait_ms_p99",
            stats::percentile(&waits, LAG_TAIL).unwrap_or(f64::NAN),
            "ms",
        ),
    ]
}

/// Fleet: `parse_reports`, `aggregate`, and rendering each bucket
/// through the JSON-lines sink.
fn fleet_layers(streams: &[Vec<u8>], t: &mut Tracer) -> Vec<Metric> {
    let mut parse = Vec::new();
    let mut fold = Vec::new();
    let mut render = Vec::new();
    let mut totals = [0u64; 5];
    for _ in 0..FLEET_REPS {
        t.clear();
        let mut records = Vec::new();
        let mut skipped = 0;
        for s in streams {
            let (mut r, sk) = t.span("fleet.parse", |_| {
                parse_reports(&s[..]).expect("reference stream parses")
            });
            records.append(&mut r);
            skipped += sk;
        }
        let out = t.span("fleet.fold", |_| {
            aggregate(&records, skipped, &FleetConfig::default())
        });
        let mut sink = JsonLinesSink::new(std::io::sink());
        t.span("fleet.render", |_| {
            for iv in &out.intervals {
                sink.emit(iv).expect("sink cannot fail");
            }
        });
        parse.push(t.total_ns("fleet.parse"));
        fold.push(t.total_ns("fleet.fold"));
        render.push(t.total_ns("fleet.render"));
        totals = [
            out.summary.records,
            out.summary.buckets,
            out.summary.alerts,
            skipped,
            0,
        ];
    }
    let recs = totals[0].max(1) as f64;
    vec![
        ("fleet.parse_ns_per_rec", median_ns(&parse) / recs, "ns/rec"),
        ("fleet.fold_ns_per_rec", median_ns(&fold) / recs, "ns/rec"),
        (
            "fleet.render_us_per_bucket",
            median_ns(&render) / 1e3 / totals[1].max(1) as f64,
            "us/bucket",
        ),
        ("fleet.records", totals[0] as f64, "count"),
        ("fleet.buckets", totals[1] as f64, "count"),
        ("fleet.alerts", totals[2] as f64, "count"),
        ("fleet.lines_skipped", totals[3] as f64, "count"),
    ]
}

/// Advise: `parse_observations` over every stream, then `advise`
/// single-threaded with the CLI's defaults.
fn advise_layers(streams: &[Vec<u8>], t: &mut Tracer) -> Vec<Metric> {
    t.clear();
    let all: Vec<u8> = streams.concat();
    let obs = t.span("advise.parse", |_| {
        parse_observations(&all[..]).expect("reference streams parse")
    });
    let cfg = AdviseConfig {
        threads: 1,
        ..AdviseConfig::default()
    };
    let advices = t.span("advise.replay", |_| advise(&obs, &cfg));
    vec![
        (
            "advise.parse_ms",
            t.total_ns("advise.parse") as f64 / 1e6,
            "ms",
        ),
        (
            "advise.replay_ms",
            t.total_ns("advise.replay") as f64 / 1e6,
            "ms",
        ),
        ("advise.services", advices.len() as f64, "count"),
    ]
}
