//! The benchmark program: one run of one workload.
//!
//! ```text
//! perfbench --bin-dir DIR --workload capped|two_tier|fleet --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's captures from the seed, runs the CLI
//! pipelines round-robin for `S` seconds (plus what the minimum pass count
//! and the lag tail need), checks every output, and — with `--trace 1` —
//! runs the in-process traced pass. A run-detail line (host tag, pass
//! counts, each timing's quartiles) precedes the result object, which is
//! always the last line of stdout.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::e2e::{self, Bins, E2e, Tally, LAG_TAIL};
use perfbench::host::Host;
use perfbench::stats;
use perfbench::traced::{self, Metric};
use perfbench::workload::{self, Workload};
use tapo::json::Json;

struct Args {
    bin_dir: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut bin_dir = None;
    let mut workload = None;
    let mut seed = 2015;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--bin-dir" => bin_dir = Some(PathBuf::from(val()?)),
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => seconds = val()?.parse().map_err(|_| "--seconds needs an integer")?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn timing(name: &str, values: &[f64]) -> (String, Json) {
    let (q1, q3) = stats::quartiles(values).unwrap_or((f64::NAN, f64::NAN));
    (
        name.to_string(),
        Json::obj([
            (
                "median",
                Json::Num(stats::median(values).unwrap_or(f64::NAN)),
            ),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            (
                "iqr_share",
                Json::Num(stats::iqr_share(values).unwrap_or(f64::NAN)),
            ),
            ("n", Json::from(values.len())),
        ]),
    )
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(r: &E2e) -> Vec<(&'static str, Option<f64>, &'static str)> {
    let med = |v: &[f64]| stats::median(v);
    vec![
        ("setup_s", med(&r.setup_s), "s"),
        ("live_pkts_per_s", med(&r.live_pps), "pkt/s"),
        ("live_rss_mib", med(&r.live_rss), "MiB"),
        ("lag_p50_ms", med(&r.lag_ms), "ms"),
        ("lag_p99_ms", stats::percentile(&r.lag_ms, LAG_TAIL), "ms"),
        ("offline_pkts_per_s", med(&r.offline_pps), "pkt/s"),
        ("offline_rss_mib", med(&r.offline_rss), "MiB"),
        ("fleet_records_per_s", med(&r.fleet_rps), "rec/s"),
        ("fleet_rss_mib", med(&r.fleet_rss), "MiB"),
        ("advise_s", med(&r.advise_s), "s"),
    ]
}

/// Per-layer metrics the end-to-end run itself supplies.
fn run_layers(r: &E2e, traced_ns_per_pkt: Option<f64>) -> Vec<Metric> {
    let late_max = r.gen_late_ms.iter().copied().fold(0.0, f64::max);
    let mut m = vec![
        (
            "gen.late_ms_p99",
            stats::percentile(&r.gen_late_ms, LAG_TAIL).unwrap_or(late_max),
            "ms",
        ),
        ("gen.late_ms_max", late_max, "ms"),
        (
            "host.cpu_share",
            stats::median(&r.cpu_share).unwrap_or(0.0),
            "share",
        ),
        ("lag.samples", r.lag_ms.len() as f64, "count"),
    ];
    if let (Some(traced), Some(untraced)) = (traced_ns_per_pkt, r.live_ns_per_pkt()) {
        m.push(("trace.overhead_share", traced / untraced - 1.0, "share"));
    }
    m
}

fn metrics_json(metrics: &[(String, Option<f64>, &str)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, v, unit)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", v.map_or(Json::Null, Json::Num)),
                        ("unit", Json::from(*unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn run(args: &Args, wl: &Workload) -> std::io::Result<()> {
    let bins = Bins::in_dir(&args.bin_dir);
    let dir = PathBuf::from(".perfbench_work").join(format!("{}-{}", wl.name, args.seed));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let result = measure_and_report(args, wl, &bins, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench_work");
    result
}

fn measure_and_report(
    args: &Args,
    wl: &Workload,
    bins: &Bins,
    dir: &std::path::Path,
) -> std::io::Result<()> {
    let host = Host::detect();
    let mut tally = Tally::default();
    eprintln!(
        "perfbench: {} seed {}: generating captures",
        wl.name, args.seed
    );
    let inputs = e2e::setup(bins, wl, dir, &mut tally)?;
    eprintln!(
        "perfbench: {} packets in {} capture(s); measuring for {} s",
        inputs.total_packets(),
        inputs.paths.len(),
        args.seconds
    );
    let budget = Duration::from_secs(args.seconds);
    let r = e2e::measure(bins, wl, &inputs, dir, budget, &mut tally)?;

    let e2e_metrics = end_to_end(&r);
    let mut correct = tally.failed == 0;
    let metrics: Vec<(String, Option<f64>, &str)> = if args.trace {
        eprintln!("perfbench: traced run");
        let layers = traced::traced_run(wl, &inputs, &r.streams, &r.fleet_streams);
        let traced_ns = layers
            .iter()
            .find(|(n, _, _)| *n == "live.traced_ns_per_pkt")
            .map(|m| m.1);
        layers
            .into_iter()
            .chain(run_layers(&r, traced_ns))
            .map(|(n, v, u)| (n.to_string(), v.is_finite().then_some(v), u))
            .collect()
    } else {
        e2e_metrics
            .iter()
            .map(|&(n, v, u)| (n.to_string(), v, u))
            .collect()
    };
    if metrics.iter().any(|(_, v, _)| v.is_none()) {
        correct = false;
    }

    let timings = Json::Obj(vec![
        timing("setup_s", &r.setup_s),
        timing("live_pkts_per_s", &r.live_pps),
        timing("live_rss_mib", &r.live_rss),
        timing("offline_pkts_per_s", &r.offline_pps),
        timing("offline_rss_mib", &r.offline_rss),
        timing("fleet_records_per_s", &r.fleet_rps),
        timing("fleet_rss_mib", &r.fleet_rss),
        timing("advise_s", &r.advise_s),
        timing("host.cpu_share", &r.cpu_share),
    ]);
    let detail = Json::obj([
        ("workload", Json::from(wl.name)),
        ("seed", Json::from(args.seed)),
        ("host", host.to_json()),
        ("rounds", Json::from(r.rounds)),
        ("open_loop_passes", Json::from(r.open_passes)),
        ("open_loop_failed", Json::from(r.open_rejected)),
        ("open_loop_steal_ticks", Json::from(r.steal_ticks)),
        (
            "lag_includes_failed_passes",
            Json::Bool(r.lag_includes_failed),
        ),
        ("open_loop_rate_pps", Json::Num(wl.rate)),
        ("lag_samples", Json::from(r.lag_ms.len())),
        (
            "gen_late_ms_p99",
            Json::Num(stats::percentile(&r.gen_late_ms, LAG_TAIL).unwrap_or(f64::NAN)),
        ),
        (
            "gen_late_ms_max",
            Json::Num(r.gen_late_ms.iter().copied().fold(0.0, f64::max)),
        ),
        (
            "lag_samples_needed",
            Json::from(stats::samples_needed(LAG_TAIL)),
        ),
        ("timings", timings),
        ("end_to_end", metrics_json(&to_owned(&e2e_metrics))),
        (
            "problems",
            Json::Arr(
                tally
                    .problems
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", Json::obj([("perfbench_detail", detail)]).compact());
    for p in &tally.problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(tally.attempted.max(1))),
        ("failed", Json::from(tally.failed)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{}", result.compact());
    Ok(())
}

fn to_owned(
    m: &[(&'static str, Option<f64>, &'static str)],
) -> Vec<(String, Option<f64>, &'static str)> {
    m.iter().map(|&(n, v, u)| (n.to_string(), v, u)).collect()
}

fn main() -> ExitCode {
    let mut raw = std::env::args_os().skip(1).peekable();
    if raw
        .peek()
        .is_some_and(|a| a == perfbench::child::HELPER_FLAG)
    {
        raw.next();
        return perfbench::child::helper_main(raw);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workload::workload(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {} (one of {:?})",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    match run(&args, &wl) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
