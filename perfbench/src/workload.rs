//! The benchmark's workloads: which captures to generate and how the live
//! daemon runs over them.
//!
//! Every workload is a function of its seed alone. The programs under test
//! see only the generated capture files.

use simnet::time::SimDuration;
use tapo::live::{LiveConfig, LiveConfigError};
use workloads::{daemon_specs, LiveGenSpec};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["capped", "two_tier", "fleet"];

/// One capture to generate, and the daemon id its reports carry.
#[derive(Debug, Clone, PartialEq)]
pub struct Capture {
    /// Daemon id passed as `--daemon-id` on every live run over it.
    pub daemon: String,
    /// Generator spec (`synthesize mixed` arguments).
    pub spec: LiveGenSpec,
}

impl Capture {
    /// Total flows (`--flows`).
    pub fn flows(&self) -> usize {
        self.spec.flows_per_service * 3
    }

    /// `synthesize mixed` arguments writing this capture to `path`,
    /// single-threaded.
    pub fn synthesize_args(&self, path: &str) -> Vec<String> {
        vec![
            "mixed".into(),
            path.into(),
            "--flows".into(),
            self.flows().to_string(),
            "--seed".into(),
            self.spec.seed.to_string(),
            "--mean-gap-ms".into(),
            (self.spec.mean_gap.as_micros() / 1000).to_string(),
            "--threads".into(),
            "1".into(),
        ]
    }
}

/// How `tapo live` runs on a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveMode {
    /// `--max-flows` (0 = unbounded).
    pub max_flows: usize,
    /// `--promote` dup-ACK threshold for two-tier mode; `None` keeps every
    /// flow heavy.
    pub promote: Option<u32>,
    /// `--interval` in milliseconds.
    pub interval_ms: u64,
}

impl LiveMode {
    /// CLI arguments after `tapo live <input>`, for the daemon `daemon`.
    pub fn args(&self, daemon: &str) -> Vec<String> {
        let mut a: Vec<String> = vec![
            "--shards".into(),
            "1".into(),
            "--interval".into(),
            self.interval_ms.to_string(),
            "--max-flows".into(),
            self.max_flows.to_string(),
            "--daemon-id".into(),
            daemon.into(),
        ];
        if let Some(n) = self.promote {
            a.extend(["--promote".into(), n.to_string()]);
        }
        a
    }

    /// The same configuration for in-process `live::run`.
    pub fn config(&self, daemon: &str) -> Result<LiveConfig, LiveConfigError> {
        let mut b = LiveConfig::builder()
            .shards(1)
            .interval_ms(self.interval_ms)
            .max_flows(self.max_flows)
            .daemon_id(daemon);
        if let Some(n) = self.promote {
            b = b.promote(n);
        }
        b.build()
    }
}

/// A named workload instantiated for one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Captures to generate (one per daemon).
    pub captures: Vec<Capture>,
    /// Live daemon configuration.
    pub live: LiveMode,
    /// Open-loop offered rate, packets per second. Frozen per workload so
    /// runs stay comparable across commits, and low enough that the
    /// stretch of the capture where reports close most densely stays
    /// within the daemon's capacity on a 2-vCPU Xeon VM: lag is then the
    /// batch wait plus processing, not a backlog whose size depends on the
    /// shape of the seed's capture.
    pub rate: f64,
}

fn spec(flows: usize, seed: u64, gap_ms: u64) -> LiveGenSpec {
    LiveGenSpec {
        flows_per_service: flows.div_ceil(3),
        seed,
        mean_gap: SimDuration::from_millis(gap_ms),
        threads: 1,
        ..LiveGenSpec::default()
    }
}

/// The workload `name` for `seed`, or `None` for an unknown name.
pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let w = match name {
        // Every flow heavy behind a 512-flow cap: replay/classify and LRU
        // shedding (about 40% of flows) do the work.
        "capped" => Workload {
            name: "capped",
            captures: vec![Capture {
                daemon: "capped".into(),
                spec: spec(1002, seed, 3),
            }],
            live: LiveMode {
                max_flows: 512,
                promote: None,
                interval_ms: 1000,
            },
            rate: 500_000.0,
        },
        // Three times the arrival rate, no effective cap, two-tier
        // monitoring: every packet crosses the light tier, only suspicious
        // flows reach the heavy analyzer.
        "two_tier" => Workload {
            name: "two_tier",
            captures: vec![Capture {
                daemon: "two_tier".into(),
                spec: spec(1002, seed, 1),
            }],
            live: LiveMode {
                max_flows: 1_000_000,
                promote: Some(3),
                interval_ms: 1000,
            },
            rate: 500_000.0,
        },
        // Eight daemons at a 100 ms interval: ten times the reports per
        // packet, then fleet aggregation over all eight streams.
        "fleet" => Workload {
            name: "fleet",
            captures: daemon_specs(&spec(150, seed, 20), 8)
                .into_iter()
                .map(|(daemon, spec)| Capture { daemon, spec })
                .collect(),
            live: LiveMode {
                max_flows: 0,
                promote: None,
                interval_ms: 100,
            },
            rate: 100_000.0,
        },
        _ => return None,
    };
    Some(w)
}
