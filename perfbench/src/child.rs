//! Child processes run one at a time and timed with their own `wait4`.
//!
//! `getrusage(RUSAGE_CHILDREN)` folds every reaped child into one figure
//! and reports the largest resident set of any of them, which would give a
//! small `--cpu` child the native child's peak. Reaping each child with
//! `wait4` yields that child's usage alone.

// The process-accounting calls below have no std equivalent.
#![allow(unsafe_code)]

use std::ffi::OsStr;
use std::fs;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads struct rusage with the 64-bit Linux layout");

/// Resource usage of one child process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// Wall time from spawn to exit, seconds.
    pub wall_s: f64,
    /// User CPU time, seconds.
    pub user_s: f64,
    /// System CPU time, seconds.
    pub sys_s: f64,
    /// Peak resident set, KiB (`ru_maxrss`).
    pub max_rss_kb: u64,
    /// Minor page faults.
    pub minflt: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Share of all CPU time, machine-wide, that the hypervisor stole from
    /// this machine while the child ran (`steal` in `/proc/stat`; 0 where
    /// unavailable). Stolen time inflates wall time, not CPU time.
    pub steal_frac: f64,
}

/// How a child ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Exited with this status code.
    Code(i32),
    /// Killed by this signal.
    Signal(i32),
    /// Killed by the benchmark after its time limit.
    TimedOut,
}

impl Exit {
    /// Whether the child exited with status 0.
    pub fn success(self) -> bool {
        self == Exit::Code(0)
    }
}

/// One finished child.
#[derive(Debug, Clone, Copy)]
pub struct Finished {
    /// How it ended.
    pub exit: Exit,
    /// What it used.
    pub usage: Usage,
}

/// Run `program args…` with stdin and stdout closed and stderr inherited,
/// wait for it to end, and return its own resource usage. A child still
/// running after `timeout` is killed and reported as [`Exit::TimedOut`].
pub fn run<S: AsRef<OsStr>>(program: &Path, args: &[S], timeout: Duration) -> io::Result<Finished> {
    let ticks_before = cpu_ticks();
    let start = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()?;
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");

    let (done, done_rx) = mpsc::channel::<()>();
    let watchdog = thread::spawn(move || match done_rx.recv_timeout(timeout) {
        Err(RecvTimeoutError::Timeout) => {
            // The child is not reaped until this thread is joined, so `pid`
            // still names it (at worst a zombie, which ignores the signal).
            // SAFETY: kill(2) takes plain integers and touches no memory.
            unsafe { kill(pid, SIGKILL) };
            true
        }
        _ => false,
    });
    let waited = wait_exit_unreaped(pid);
    let wall_s = start.elapsed().as_secs_f64();
    // The watchdog may already have exited on timeout; a closed channel is fine.
    let _ = done.send(());
    let timed_out = watchdog.join().expect("watchdog thread panicked");
    waited?;
    let (status, ru) = reap(pid)?;
    drop(child);
    let steal_frac = match (ticks_before, cpu_ticks()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };

    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    let count = |v: i64| u64::try_from(v).unwrap_or(0);
    let exit = if timed_out {
        Exit::TimedOut
    } else if status & 0x7f == 0 {
        Exit::Code((status >> 8) & 0xff)
    } else {
        Exit::Signal(status & 0x7f)
    };
    Ok(Finished {
        exit,
        usage: Usage {
            wall_s,
            user_s: secs(ru.utime),
            sys_s: secs(ru.stime),
            max_rss_kb: count(ru.maxrss),
            minflt: count(ru.minflt),
            ctx_switches: count(ru.nvcsw) + count(ru.nivcsw),
            steal_frac,
        },
    })
}

/// Machine-wide `(all, steal)` CPU ticks from the first line of
/// `/proc/stat`: `cpu user nice system idle iowait irq softirq steal …`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// Block until `pid` has exited, leaving it unreaped (`WNOWAIT`).
fn wait_exit_unreaped(pid: i32) -> io::Result<()> {
    let mut info = [0u64; 16];
    loop {
        // SAFETY: `info` is a writable, 8-byte-aligned 128-byte buffer, the
        // size of siginfo_t on Linux, and outlives the call.
        let rc = unsafe {
            waitid(
                P_PID,
                pid.unsigned_abs(),
                info.as_mut_ptr().cast(),
                WEXITED | WNOWAIT,
            )
        };
        if rc == 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Reap an exited `pid`, returning its wait status and resource usage.
fn reap(pid: i32) -> io::Result<(i32, Rusage)> {
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: both out-pointers refer to live, writable locals of the
        // types wait4(2) writes (`int` and the 64-bit Linux `struct rusage`).
        let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if rc == pid {
            return Ok((status, ru));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

const P_PID: u32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;
const SIGKILL: i32 = 9;

#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn waitid(idtype: u32, id: u32, infop: *mut u8, options: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, timeout: Duration) -> Finished {
        run(Path::new("sh"), &["-c", script], timeout).expect("spawn sh")
    }

    #[test]
    fn reports_exit_codes_and_usage() {
        assert_eq!(sh("exit 0", Duration::from_secs(10)).exit, Exit::Code(0));
        assert_eq!(sh("exit 3", Duration::from_secs(10)).exit, Exit::Code(3));
        let busy = sh(
            "i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done",
            Duration::from_secs(30),
        );
        assert!(busy.exit.success());
        assert!(busy.usage.user_s + busy.usage.sys_s > 0.0);
        assert!(busy.usage.max_rss_kb > 0);
        assert!(busy.usage.wall_s > 0.0);
    }

    #[test]
    fn resident_set_is_per_child() {
        // RUSAGE_CHILDREN would report the first child's peak for both.
        let big = sh(
            "dd if=/dev/zero of=/dev/null bs=64M count=1 2>/dev/null",
            Duration::from_secs(30),
        );
        let small = sh("exit 0", Duration::from_secs(10));
        assert!(big.exit.success() && small.exit.success());
        assert!(big.usage.max_rss_kb > 64 * 1024, "{:?}", big.usage);
        assert!(
            small.usage.max_rss_kb * 4 < big.usage.max_rss_kb,
            "{:?}",
            small.usage
        );
    }

    #[test]
    fn kills_a_child_past_its_limit() {
        let t0 = Instant::now();
        let f = sh("sleep 30", Duration::from_millis(200));
        assert_eq!(f.exit, Exit::TimedOut);
        assert!(t0.elapsed() < Duration::from_secs(10));
    }
}
