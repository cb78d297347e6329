//! Child processes with their own resource usage.
//!
//! The benchmark runs every CLI pipeline as a child process and needs that
//! child's peak RSS and CPU time, which `std::process::Child::wait` does
//! not return. `wait4(2)` does; it is declared here directly against the C
//! library the standard library already links, and called from a small
//! helper process (see [`measured`]).

use std::ffi::OsString;
use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a child ended and what it used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exit {
    /// Exit code, or `None` if a signal ended it.
    pub code: Option<i32>,
    /// Wall time from spawn to reaped exit.
    pub wall: Duration,
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set size, bytes.
    pub peak_rss: u64,
}

impl Exit {
    /// True when the child exited with code 0.
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }

    /// CPU time as a share of wall time.
    pub fn cpu_share(&self) -> f64 {
        self.cpu.as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }

    /// Peak RSS in MiB.
    pub fn rss_mib(&self) -> f64 {
        self.peak_rss as f64 / (1024.0 * 1024.0)
    }
}

/// Reap `child` (spawned at `started`) with `wait4`, returning its exit
/// and resource usage. The `Child` must not be waited on afterwards.
fn reap(child: &Child, started: Instant) -> std::io::Result<Exit> {
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are live, writable, and laid out as the
        // C declarations of `int` and `struct rusage` on 64-bit Linux; the
        // pid is our own unreaped child, so no other waiter races us.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall = started.elapsed();
    let tv = |t: &Timeval| Duration::from_secs(t.sec as u64) + Duration::from_micros(t.usec as u64);
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        code,
        wall,
        cpu: tv(&ru.utime) + tv(&ru.stime),
        peak_rss: ru.maxrss_kib.max(0) as u64 * 1024,
    })
}

/// First argument that turns this binary into the measuring helper.
pub const HELPER_FLAG: &str = "--exec-measured";
/// Prefix of the helper's report line, the last line of its stderr.
const MARK: &str = "perfbench-exit";

/// A command that runs `prog` under the measuring helper: add the
/// program's arguments and stdio to it as usual.
///
/// Linux carries a process's peak RSS across `exec`, and a child spawned
/// from this (large) benchmark process starts out sharing its memory, so
/// `wait4` on a direct child would report the benchmark's own peak. The
/// helper is a fresh, small process: it spawns the real program, reaps it
/// with `wait4`, and reports that program's own wall time, CPU time and
/// peak RSS on its last stderr line.
pub fn measured(prog: &Path) -> Command {
    let me = std::env::current_exe().expect("own executable path");
    let mut c = Command::new(me);
    c.arg(HELPER_FLAG).arg(prog);
    c
}

/// The helper's main: run `args[0]` with `args[1..]` on inherited stdio,
/// then print its exit line. Exits 0 whenever the program ran.
pub fn helper_main(mut args: impl Iterator<Item = OsString>) -> ExitCode {
    let Some(prog) = args.next() else {
        eprintln!("{HELPER_FLAG} needs a program");
        return ExitCode::from(2);
    };
    let started = Instant::now();
    let exit = Command::new(&prog)
        .args(args)
        .spawn()
        .and_then(|child| reap(&child, started));
    match exit {
        Ok(e) => {
            eprintln!(
                "{MARK} {} {} {} {}",
                e.code.unwrap_or(-1),
                e.wall.as_nanos(),
                e.cpu.as_nanos(),
                e.peak_rss
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot run {}: {e}", prog.to_string_lossy());
            ExitCode::FAILURE
        }
    }
}

/// Split the helper's stderr into the program's own stderr and its exit
/// line; a missing or malformed line reads as a failed exit.
pub fn parse_exit(stderr: &str) -> (String, Exit) {
    let failed = Exit {
        code: None,
        wall: Duration::ZERO,
        cpu: Duration::ZERO,
        peak_rss: 0,
    };
    let trimmed = stderr.trim_end_matches('\n');
    let (rest, last) = trimmed.rsplit_once('\n').unwrap_or(("", trimmed));
    let Some(fields) = last.strip_prefix(MARK) else {
        return (stderr.to_string(), failed);
    };
    let v: Vec<i64> = fields
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    let exit = match v[..] {
        [code, wall, cpu, rss] => Exit {
            code: (code >= 0).then_some(code as i32),
            wall: Duration::from_nanos(wall as u64),
            cpu: Duration::from_nanos(cpu as u64),
            peak_rss: rss as u64,
        },
        _ => failed,
    };
    (rest.to_string(), exit)
}

/// A finished child's captured output.
#[derive(Debug)]
pub struct Output {
    /// Everything written to stdout.
    pub stdout: Vec<u8>,
    /// Everything written to stderr.
    pub stderr: String,
    /// Exit and resource usage.
    pub exit: Exit,
}

/// Run `cmd` (built with [`measured`]) to completion with stdin closed,
/// capturing stdout and stderr (stderr is drained on a second thread so
/// neither pipe can fill up and stall the child).
pub fn run(cmd: &mut Command) -> std::io::Result<Output> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn()?;
    let mut out = child.stdout.take().expect("stdout piped");
    let mut err = child.stderr.take().expect("stderr piped");
    let (stdout, stderr) = std::thread::scope(|s| {
        let e = s.spawn(move || {
            let mut buf = String::new();
            let _ = err.read_to_string(&mut buf);
            buf
        });
        let mut buf = Vec::new();
        let _ = out.read_to_end(&mut buf);
        (buf, e.join().expect("stderr reader panicked"))
    });
    child.wait()?;
    let (stderr, exit) = parse_exit(&stderr);
    Ok(Output {
        stdout,
        stderr,
        exit,
    })
}
