//! # sjava-par
//!
//! Deterministic fan-out primitives for the parallel whole-program
//! checking pipeline. All parallelism in the workspace funnels through
//! [`run_indexed`]: tasks are identified by a dense index, workers pull
//! indices from per-worker deques with steal-half rebalancing, and
//! results are returned **in index order** regardless of completion
//! order — so callers that merge per-task outputs (diagnostics buffers,
//! method summaries, injection trials) stay byte-for-byte deterministic
//! at any thread count.
//!
//! ## Scheduling
//!
//! Work distribution is Chase–Lev-shaped: every worker owns a deque,
//! consumes from its front, and — once empty — steals the **back half**
//! of a victim's deque in one lock acquisition. Compared to the previous
//! fixed contiguous-batch claiming off a shared counter, this absorbs
//! heavy per-task cost skew (one 50ms method no longer strands the tail
//! of its batch behind it) while keeping the merge order untouched.
//!
//! [`run_indexed_weighted`] additionally accepts a per-task cost
//! estimate: tasks are dealt to the deques in descending-cost
//! round-robin (longest-processing-time-first), so the expensive tasks
//! start immediately on distinct workers and stealing only has to
//! correct the residual error of the cost model.
//!
//! The worker pool is plain `std::thread::scope` — no runtime dependency.
//! The pool size comes from the `SJAVA_THREADS` environment variable when
//! set (clamped to ≥1), otherwise from `std::thread::available_parallelism`.
//! Malformed values of `SJAVA_THREADS` / `SJAVA_PAR_THRESHOLD` fall back
//! to the documented defaults with a one-time stderr warning rather than
//! being silently swallowed. `SJAVA_THREADS=1` turns every fan-out
//! into a sequential loop.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker count (`SJAVA_THREADS=1`
/// forces the sequential path at runtime).
pub const THREADS_ENV: &str = "SJAVA_THREADS";

/// Environment variable overriding the adaptive sequential threshold of
/// [`run_indexed`] (`SJAVA_PAR_THRESHOLD=0` parallelizes everything).
pub const THRESHOLD_ENV: &str = "SJAVA_PAR_THRESHOLD";

/// Default [`par_threshold`]: a paper-sized app checks in well under a
/// millisecond per method, so spawning scoped workers (tens of
/// microseconds each) only pays for itself once a few dozen tasks exist.
const DEFAULT_THRESHOLD: usize = 24;

/// One-time warning latches for malformed env values (one per variable,
/// so a bad `SJAVA_THREADS` does not mask a bad `SJAVA_PAR_THRESHOLD`).
static WARNED_THREADS: AtomicBool = AtomicBool::new(false);
static WARNED_THRESHOLD: AtomicBool = AtomicBool::new(false);

/// Parses an environment override as a non-negative decimal integer.
/// `None` means "malformed"; the empty string and surrounding whitespace
/// follow `str::parse` (empty is malformed, padding is trimmed).
fn parse_env_usize(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok()
}

/// Reads `name`, warning **once per process** on a malformed value and
/// returning `None` so the caller applies its default. Unset variables
/// return `None` silently.
fn env_usize(name: &str, warned: &AtomicBool) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    match parse_env_usize(&raw) {
        Some(v) => Some(v),
        None => {
            if !warned.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "sjava-par: warning: ignoring malformed {name}={raw:?} \
                     (expected a non-negative integer); using the default"
                );
            }
            None
        }
    }
}

/// Fan-outs with fewer tasks than this run sequentially even when workers
/// are available — below it, thread spawn and merge overhead exceeds the
/// work being split. Override with `SJAVA_PAR_THRESHOLD`; malformed
/// values warn once on stderr and fall back to the default.
pub fn par_threshold() -> usize {
    env_usize(THRESHOLD_ENV, &WARNED_THRESHOLD).unwrap_or(DEFAULT_THRESHOLD)
}

/// The number of worker threads fan-outs will use: `SJAVA_THREADS` when
/// set, otherwise the machine's available parallelism. Always ≥1. A
/// malformed `SJAVA_THREADS` warns once on stderr and pins the pool to 1
/// worker (the conservative reading of "the user asked for explicit
/// control but we could not parse the request").
pub fn num_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(raw) => match parse_env_usize(&raw) {
            Some(n) => n.max(1),
            None => {
                if !WARNED_THREADS.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "sjava-par: warning: ignoring malformed {THREADS_ENV}={raw:?} \
                         (expected a positive integer); running with 1 worker"
                    );
                }
                1
            }
        },
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// A worker-owned job deque. The owner consumes indices from the front;
/// thieves take the back half in one lock acquisition (steal-half), so a
/// starving worker leaves the victim with the work it was about to do
/// and walks away with enough to stay busy — O(log n) steals drain any
/// imbalance instead of one steal per task.
struct StealQueue {
    jobs: Mutex<VecDeque<usize>>,
}

impl StealQueue {
    fn new(jobs: VecDeque<usize>) -> Self {
        Self {
            jobs: Mutex::new(jobs),
        }
    }

    /// Owner-side pop (front).
    fn pop(&self) -> Option<usize> {
        self.jobs.lock().expect("steal queue poisoned").pop_front()
    }

    /// Thief-side steal: removes the back ⌈len/2⌉ jobs and returns them,
    /// or `None` when the queue is empty. Never holds two queue locks at
    /// once — the caller deposits the loot into its own queue afterwards.
    fn steal_half(&self) -> Option<VecDeque<usize>> {
        let mut jobs = self.jobs.lock().expect("steal queue poisoned");
        let len = jobs.len();
        if len == 0 {
            return None;
        }
        let take = len.div_ceil(2);
        Some(jobs.split_off(len - take))
    }

    /// Owner-side deposit of stolen work.
    fn deposit(&self, batch: VecDeque<usize>) {
        self.jobs
            .lock()
            .expect("steal queue poisoned")
            .extend(batch);
    }
}

/// Runs `f(0) .. f(n-1)` across [`num_threads`] scoped workers and
/// returns the results **in index order**.
///
/// Adaptive: fan-outs smaller than [`par_threshold`] run sequentially —
/// paper-sized apps never pay thread-spawn overhead, while stress-sized
/// corpora split across the full pool. Results are identical either way.
///
/// Panics in a task propagate to the caller once all workers have
/// stopped pulling new indices.
pub fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n < par_threshold() {
        return (0..n).map(f).collect();
    }
    run_indexed_with(n, num_threads(), f)
}

/// [`run_indexed`] with a per-task cost estimate: `cost[i]` is any
/// monotone proxy for how long `f(i)` will take (statement counts,
/// lattice depths, prior-run phase timings — units are irrelevant, only
/// the ordering matters). Tasks are dealt to the worker deques in
/// descending-cost round-robin so the heavy hitters start first on
/// distinct workers; stealing corrects whatever the estimate gets wrong.
/// Results still come back in index order, byte-identical to the
/// sequential loop.
///
/// `cost` shorter than `n` treats missing entries as zero cost.
pub fn run_indexed_weighted<T, F>(n: usize, cost: &[u64], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n < par_threshold() {
        return (0..n).map(f).collect();
    }
    run_indexed_weighted_with(n, num_threads(), cost, f)
}

/// [`run_indexed_weighted`] with an explicit worker count (tests and
/// benchmarks; `threads ≤ 1` is the sequential path).
pub fn run_indexed_weighted_with<T, F>(n: usize, threads: usize, cost: &[u64], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    // Longest-processing-time-first deal order: sort indices by
    // descending estimated cost (index-tiebreak keeps the order total
    // and deterministic), then hand them out round-robin below.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(cost.get(i).copied().unwrap_or(0)), i));
    run_scheduled(n, threads, &order, f)
}

/// [`run_indexed`] with an explicit worker count (used by tests and
/// benchmarks; `threads ≤ 1` is the sequential path).
pub fn run_indexed_with<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let order: Vec<usize> = (0..n).collect();
    run_scheduled(n, threads, &order, f)
}

/// The work-stealing core: deals `order` round-robin across per-worker
/// deques, runs the pool, and merges results back into index order.
///
/// Tasks never spawn tasks, so a worker that finds every deque empty can
/// exit: any task it cannot see is either finished or in the hands of a
/// worker that will finish it. (A thief's loot is briefly invisible
/// between the steal and the deposit — that can cost a beat of
/// parallelism in a photo-finish, never a lost task.)
fn run_scheduled<T, F>(n: usize, threads: usize, order: &[usize], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n);
    let queues: Vec<StealQueue> = (0..workers)
        .map(|w| {
            // Worker w gets every workers-th element of the deal order.
            let mut q = VecDeque::with_capacity(n / workers + 1);
            q.extend(order.iter().copied().skip(w).step_by(workers));
            StealQueue::new(q)
        })
        .collect();
    let done = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for me in 0..workers {
            let queues = &queues;
            let done = &done;
            let f = &f;
            s.spawn(move || {
                // Each worker stages results locally and merges once, so
                // the result mutex is taken `workers` times, not `n`.
                let mut local: Vec<(usize, T)> = Vec::new();
                'work: loop {
                    if let Some(i) = queues[me].pop() {
                        local.push((i, f(i)));
                        continue;
                    }
                    // Own deque dry: sweep the victims for half a deque.
                    for off in 1..workers {
                        let victim = (me + off) % workers;
                        if let Some(mut loot) = queues[victim].steal_half() {
                            let first = loot.pop_front();
                            if !loot.is_empty() {
                                queues[me].deposit(loot);
                            }
                            if let Some(i) = first {
                                local.push((i, f(i)));
                            }
                            continue 'work;
                        }
                    }
                    break;
                }
                done.lock()
                    .expect("worker panicked holding lock")
                    .extend(local);
            });
        }
    });
    let mut pairs = done.into_inner().expect("worker panicked holding lock");
    assert_eq!(pairs.len(), n, "every index must produce a result");
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, v)| v).collect()
}

/// Cache-aware fan-out: runs `f` over a **sparse** set of indices (the
/// dirty cone of an incremental re-check) and returns `(index, result)`
/// pairs sorted by index. The caller typically interleaves these with
/// cached results for the untouched indices, preserving the same merge
/// order as a full [`run_indexed`] pass.
pub fn run_sparse<T, F>(indices: &[usize], f: F) -> Vec<(usize, T)>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let results = run_indexed(indices.len(), |slot| f(indices[slot]));
    let mut pairs: Vec<(usize, T)> = indices.iter().copied().zip(results).collect();
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs
}

/// [`run_sparse`] with a per-index cost estimate: `cost[j]` estimates how
/// long `f(indices[j])` will take (slot-aligned with `indices`, not with
/// the index values). Heavy tasks are dealt first via the same LPT order
/// as [`run_indexed_weighted`]; the returned pairs are still sorted by
/// index, so merges stay byte-identical to the sequential loop.
pub fn run_sparse_weighted<T, F>(indices: &[usize], cost: &[u64], f: F) -> Vec<(usize, T)>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let results = run_indexed_weighted(indices.len(), cost, |slot| f(indices[slot]));
    let mut pairs: Vec<(usize, T)> = indices.iter().copied().zip(results).collect();
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 8] {
            let out = run_indexed_with(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = run_indexed_with(1000, 4, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(run_indexed_with(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed_with(1, 8, |i| i + 7), vec![7]);
    }

    #[test]
    fn sparse_returns_sorted_pairs() {
        let indices = [9usize, 2, 5, 0];
        let out = run_sparse(&indices, |i| i * 10);
        assert_eq!(out, vec![(0, 0), (2, 20), (5, 50), (9, 90)]);
        assert_eq!(run_sparse(&[], |i: usize| i), Vec::<(usize, usize)>::new());
    }

    #[test]
    fn sparse_weighted_matches_sparse() {
        let indices: Vec<usize> = (0..200).map(|i| i * 3 + 1).rev().collect();
        let cost: Vec<u64> = (0..200).map(|i| ((i * 13) % 29) as u64).collect();
        let plain = run_sparse(&indices, |i| i * 2);
        let weighted = run_sparse_weighted(&indices, &cost, |i| i * 2);
        assert_eq!(plain, weighted);
        // Cost vectors shorter than the index list must not drop tasks.
        let short = run_sparse_weighted(&indices, &cost[..5], |i| i + 1);
        assert_eq!(short.len(), indices.len());
        assert_eq!(
            run_sparse_weighted(&[], &[], |i: usize| i),
            Vec::<(usize, usize)>::new()
        );
    }

    #[test]
    fn adaptive_threshold_is_env_tunable() {
        // No other test in this crate reads THRESHOLD_ENV, so mutating it
        // here cannot race.
        assert_eq!(par_threshold(), 24);
        std::env::set_var(THRESHOLD_ENV, "3");
        assert_eq!(par_threshold(), 3);
        std::env::set_var(THRESHOLD_ENV, "garbage");
        assert_eq!(par_threshold(), 24);
        std::env::remove_var(THRESHOLD_ENV);
        // Below and above the threshold produce identical results.
        assert_eq!(run_indexed(5, |i| i * 3), vec![0, 3, 6, 9, 12]);
        let big = run_indexed(100, |i| i * 3);
        assert_eq!(big, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn env_parse_fallbacks_are_explicit() {
        // The pure parser behind both env reads: valid decimals parse,
        // padding is trimmed, anything else is rejected (not silently
        // zeroed) so the callers can warn and fall back.
        assert_eq!(parse_env_usize("8"), Some(8));
        assert_eq!(parse_env_usize("  8  "), Some(8));
        assert_eq!(parse_env_usize("0"), Some(0));
        assert_eq!(parse_env_usize(""), None);
        assert_eq!(parse_env_usize("abc"), None);
        assert_eq!(parse_env_usize("-2"), None);
        assert_eq!(parse_env_usize("4.0"), None);
        assert_eq!(parse_env_usize("4 workers"), None);
        // env_usize: malformed values fall back to None exactly once per
        // latch; the latch only suppresses the *warning*, not the
        // fallback itself.
        let latch = AtomicBool::new(false);
        std::env::set_var("SJAVA_PAR_TEST_ENV", "bogus");
        assert_eq!(env_usize("SJAVA_PAR_TEST_ENV", &latch), None);
        assert!(latch.load(Ordering::Relaxed), "first malformed read warns");
        assert_eq!(env_usize("SJAVA_PAR_TEST_ENV", &latch), None);
        std::env::set_var("SJAVA_PAR_TEST_ENV", "6");
        assert_eq!(env_usize("SJAVA_PAR_TEST_ENV", &latch), Some(6));
        std::env::remove_var("SJAVA_PAR_TEST_ENV");
        assert_eq!(env_usize("SJAVA_PAR_TEST_ENV", &latch), None);
    }

    #[test]
    fn batched_pulling_covers_every_index_once() {
        // n chosen so the round-robin deal is ragged (n not divisible by
        // the worker count).
        let calls = AtomicUsize::new(0);
        let out = run_indexed_with(1003, 3, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1003);
        assert_eq!(out, (0..1003).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential_with_side_work() {
        // Unequal task costs exercise the work-stealing deques.
        let work = |i: usize| -> u64 {
            let mut acc = i as u64;
            for _ in 0..(i % 17) * 100 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let seq = run_indexed_with(200, 1, work);
        let par = run_indexed_with(200, 7, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn weighted_matches_unweighted_at_any_width() {
        let cost: Vec<u64> = (0..300).map(|i| ((i * 37) % 101) as u64).collect();
        let seq = run_indexed_weighted_with(300, 1, &cost, |i| i * 7);
        for threads in [2, 4, 8] {
            let par = run_indexed_weighted_with(300, threads, &cost, |i| i * 7);
            assert_eq!(seq, par, "threads={threads}");
        }
        // A short (or empty) cost vector must not drop tasks.
        let short = run_indexed_weighted_with(300, 4, &cost[..10], |i| i + 1);
        assert_eq!(short, (0..300).map(|i| i + 1).collect::<Vec<_>>());
        let none = run_indexed_weighted_with(50, 4, &[], |i| i);
        assert_eq!(none, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_runs_every_task_exactly_once_under_skew() {
        // Pathological skew: one task is ~1000x the others. Steal-half
        // must keep the remaining workers busy and still run each index
        // exactly once.
        let calls = AtomicUsize::new(0);
        let cost: Vec<u64> = (0..500)
            .map(|i| if i == 250 { 1_000_000 } else { 1 })
            .collect();
        let out = run_indexed_weighted_with(500, 8, &cost, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i == 250 {
                let mut acc = 1u64;
                for _ in 0..100_000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                std::hint::black_box(acc);
            }
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 500);
        assert_eq!(out, (0..500).collect::<Vec<_>>());
    }
}
