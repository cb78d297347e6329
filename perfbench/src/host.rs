//! The host tag every run carries, so numbers from different machines are
//! never compared as if they were one.

use tapo::json::Json;

/// CPU time the hypervisor has taken from this machine so far, in clock
/// ticks summed over all CPUs (`steal` in `/proc/stat`); `None` where the
/// kernel does not report it.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    cpu.split_whitespace().nth(7)?.parse().ok()
}

/// CPU count, CPU model and kernel release of this machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// First `model name` in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release from `/proc/sys/kernel/osrelease`.
    pub kernel: String,
}

impl Host {
    /// Read the tag from the running system ("unknown" where unreadable).
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
        }
    }

    /// The tag as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::from(self.nproc)),
            ("cpu_model", Json::from(self.cpu_model.as_str())),
            ("kernel", Json::from(self.kernel.as_str())),
        ])
    }
}
