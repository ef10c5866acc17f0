//! Process plumbing: spawning the `sjava` CLI with a measured wall time,
//! CPU time and peak resident memory, read through `getrusage`, and a
//! deadline after which a hung process is killed.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{mpsc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sync();
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// How long one spawned `sjava` may run before it counts as hung: a
/// hundred times the slowest ordinary run.
const DEADLINE: Duration = Duration::from_secs(20);

/// When the harness must have stopped spawning, so that a run whose
/// processes all hang still ends, with its result, inside the 170 s
/// `run.py` allows it.
static STOP: OnceLock<Instant> = OnceLock::new();

/// Starts the harness's clock: spawns after `budget` are killed at once.
pub fn set_budget(budget: Duration) {
    let _ = STOP.set(Instant::now() + budget);
}

/// Writes back every dirty page, so that file writes left over from an
/// earlier run are not flushed, and timed, during this one.
pub fn flush_disks() {
    // SAFETY: `sync` takes no arguments and cannot fail.
    unsafe { sync() }
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and `who` is one of the two documented selectors.
    let rc = unsafe { getrusage(who, &mut r) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    r
}

fn cpu_s(r: &Rusage) -> f64 {
    let t = |tv: Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    t(r.utime) + t(r.stime)
}

/// CPU seconds this process has used so far (all threads).
pub fn self_cpu_s() -> f64 {
    cpu_s(&rusage(RUSAGE_SELF))
}

/// CPU seconds used by every waited-for child so far.
pub fn children_cpu_s() -> f64 {
    cpu_s(&rusage(RUSAGE_CHILDREN))
}

/// Largest peak resident memory, in MB, of any waited-for child.
pub fn children_peak_mb() -> f64 {
    rusage(RUSAGE_CHILDREN).maxrss_kb as f64 / 1024.0
}

/// This process's own peak resident memory, in MB.
pub fn self_peak_mb() -> f64 {
    rusage(RUSAGE_SELF).maxrss_kb as f64 / 1024.0
}

/// One finished `sjava` process.
pub struct Run {
    /// The exit code; `None` if the process was killed (by a signal of its
    /// own, or because it passed its deadline) or could not be spawned.
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
    pub wall_ms: f64,
    pub cpu_s: f64,
}

/// Runs the `sjava` binary with `args` in `cwd`. The pool-width and
/// cache variables are cleared so every run sees the program defaults;
/// `cache_dir` sets `SJAVA_CACHE_DIR` for a store-backed check. A process
/// still running at its deadline is killed and comes back with no exit
/// code, which every caller's check counts as a failure.
pub fn sjava(exe: &Path, cwd: &Path, args: &[&str], cache_dir: Option<&Path>) -> Run {
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .current_dir(cwd)
        .env_remove("SJAVA_THREADS")
        .env_remove("SJAVA_PAR_THRESHOLD")
        .env_remove("SJAVA_CACHE_DIR")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let Some(dir) = cache_dir {
        cmd.env("SJAVA_CACHE_DIR", dir);
    }
    let deadline = STOP.get().map_or(DEADLINE, |stop| {
        DEADLINE.min(stop.saturating_duration_since(Instant::now()))
    });
    let cpu0 = children_cpu_s();
    let t = Instant::now();
    let child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => {
            return Run {
                code: None,
                stdout: String::new(),
                stderr: format!("cannot spawn {}: {e}", exe.display()),
                wall_ms: t.elapsed().as_secs_f64() * 1e3,
                cpu_s: 0.0,
            }
        }
    };
    // A waiter thread reads both pipes and reaps the child, stamping the
    // wall time as it returns; this thread kills the child if the stamp
    // has not come by the deadline.
    let pid = child.id() as i32;
    let (tx, rx) = mpsc::channel();
    let waiter = thread::spawn(move || {
        let out = child.wait_with_output();
        let _ = tx.send(t.elapsed());
        out
    });
    let wall = match rx.recv_timeout(deadline) {
        Ok(wall) => wall,
        Err(_) => {
            // SAFETY: `kill` takes two integers. The child is reaped only
            // inside the waiter's `wait`, a few instructions before its
            // send, far too short a window for `pid` to be reused.
            unsafe { kill(pid, SIGKILL) };
            rx.recv().unwrap_or_else(|_| t.elapsed())
        }
    };
    let out = waiter.join().expect("the waiter thread does not panic");
    let wall_ms = wall.as_secs_f64() * 1e3;
    let cpu_s = children_cpu_s() - cpu0;
    match out {
        Ok(o) => Run {
            code: o.status.code(),
            stdout: String::from_utf8_lossy(&o.stdout).into_owned(),
            stderr: String::from_utf8_lossy(&o.stderr).into_owned(),
            wall_ms,
            cpu_s,
        },
        Err(e) => Run {
            code: None,
            stdout: String::new(),
            stderr: format!("cannot wait for {}: {e}", exe.display()),
            wall_ms,
            cpu_s,
        },
    }
}

/// A scratch directory under the benchmark's work root, emptied first.
pub fn fresh_dir(root: &Path, name: &str) -> PathBuf {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work directory is writable");
    dir
}

pub fn write(path: &Path, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}
