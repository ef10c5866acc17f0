//! The host-speed probe: a fixed piece of the harness's own work, timed
//! between a workload's operations.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of
//! percent within minutes, with no change to the code. Dividing each
//! operation's wall time by the probe's median around it, relative to the
//! probe's nominal time, reads the run at one reference host speed, so
//! that runs taken minutes apart compare. The probe runs none of the
//! program's code, so a change to the program cannot move it.
//!
//! The probe runs the same work on each of as many threads as the
//! operations it is read against keep busy: the pool width for the
//! checker, inference and the incremental session, whose parallel phases
//! fill the pool, and one thread for `Campaign::run`, which at the
//! benchmark's campaign sizes runs its batches one after another (see
//! `par.campaign_util`). A host that takes a core away then slows the
//! probe as it slows the operations. The work mixes allocation, hashing,
//! sorting, an interpreter's dispatch loop and cache misses, as the
//! checker and the VM do. It runs as a process of its own (`perfbench
//! --probe N`), so that it pays what a spawned `sjava` pays to start and
//! to touch fresh memory, and so that nothing the harness process has
//! done before (its heap, its threads) can change what it measures.

use crate::gen::Rng;
use crate::report::quantile;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Units of work each probe thread does.
const UNITS_PER_THREAD: u64 = 2;

/// Samples on each side of an operation whose median is its host factor.
const WINDOW: usize = 4;

/// The probe's median wall time, in ms, on the host the benchmark was
/// tuned on (2 vCPUs) in a quiet period, on one thread or two. A run
/// whose probe reads this has a host factor of 1.
const NOMINAL_MS: f64 = 16.0;

/// One unit of fixed work, seeded so that every unit does the same steps:
/// string keys formatted, hashed and sorted and a B-tree built, as a front
/// end does; a register machine's dispatch loop, as the runtime's VM runs;
/// and a dependent walk over a shuffled 1 MiB array, all cache misses.
fn unit(seed: u64) -> u64 {
    let mut rng = Rng::new(seed, 9);
    let mut map: HashMap<String, u64> = HashMap::new();
    let mut tree: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for i in 0..4000u64 {
        let x = rng.next();
        *map.entry(format!("m{}_{}", x % 1000, i % 7)).or_insert(0) += x & 0xff;
        tree.entry(x % 600).or_default().push(i);
    }
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort_unstable();
    let ops: Vec<[u8; 4]> = (0..4096)
        .map(|_| {
            let x = rng.next().to_le_bytes();
            [x[0] % 6, x[1] % 16, x[2] % 16, x[3] % 16]
        })
        .collect();
    let mut reg = [0u64; 16];
    let mut mem = [0u64; 1024];
    let mut pc = 0usize;
    for step in 0..150_000u64 {
        let [op, a, b, c] = ops[pc].map(usize::from);
        pc = (pc + 1) % ops.len();
        match op {
            0 => reg[a] = reg[b].wrapping_add(reg[c]).wrapping_add(step),
            1 => reg[a] = reg[b] ^ reg[c].rotate_left(7),
            2 => reg[a] = mem[reg[b] as usize % mem.len()],
            3 => mem[reg[b] as usize % mem.len()] = reg[c],
            4 => reg[a] = reg[b].wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 3,
            _ => {
                if reg[b] & 3 == 0 {
                    pc = (pc + 16 * c) % ops.len();
                }
            }
        }
    }
    // Sattolo's shuffle: one cycle through all 2^18 slots, so the walk
    // below touches the whole array whatever the seed.
    let mut next: Vec<u32> = (0..1u32 << 18).collect();
    for i in (1..next.len()).rev() {
        next.swap(i, rng.below(i as u64) as usize);
    }
    let mut p = 0u32;
    for _ in 0..60_000 {
        p = next[p as usize];
    }
    keys.len() as u64 + tree.len() as u64 + reg.iter().sum::<u64>() + u64::from(p)
}

/// The probe's work: `UNITS_PER_THREAD` units on each of `threads`
/// threads at once.
pub fn work(threads: usize) {
    std::thread::scope(|s| {
        for t in 0..threads.max(1) as u64 {
            s.spawn(move || {
                for u in 0..UNITS_PER_THREAD {
                    black_box(unit(black_box(t * UNITS_PER_THREAD + u)));
                }
            });
        }
    });
}

/// Probe samples of one run.
pub struct Probe {
    /// This binary, which `--probe N` makes run `work(N)` and exit.
    exe: PathBuf,
    threads: usize,
    ms: Vec<f64>,
}

impl Probe {
    /// A probe on `threads` threads: as many as the operations it is
    /// read against keep busy.
    pub fn new(threads: usize) -> Self {
        Probe {
            exe: std::env::current_exe().expect("the harness knows its own path"),
            threads,
            ms: Vec::new(),
        }
    }

    /// Runs the probe once, as a process of its own, and records its wall
    /// time.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let status = Command::new(&self.exe)
            .args(["--probe", &self.threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .expect("the harness can run itself");
        assert!(status.success(), "perfbench --probe failed: {status}");
        self.ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// The index the next sample gets. An operation timed just before that
    /// sample is read against the samples around it.
    pub fn next(&self) -> usize {
        self.ms.len()
    }

    /// How much slower than nominal the host ran over the whole run: the
    /// probe's median ÷ `NOMINAL_MS`. Set-up is read against it.
    pub fn factor(&self) -> f64 {
        quantile(&self.ms, 0.5) / NOMINAL_MS
    }

    /// The host factor around sample `at`: the median of the `2 * WINDOW +
    /// 1` samples nearest it ÷ `NOMINAL_MS`. A slow stretch of a run then
    /// slows only the operations timed in it, as it slowed them.
    fn factor_at(&self, at: usize) -> f64 {
        let lo = at.saturating_sub(WINDOW);
        let hi = (lo + 2 * WINDOW + 1).min(self.ms.len());
        let lo = hi.saturating_sub(2 * WINDOW + 1);
        quantile(&self.ms[lo..hi], 0.5) / NOMINAL_MS
    }

    /// Wall times, each with the `next()` it was timed before, read at the
    /// reference host speed: each divided by the host factor around it.
    pub fn read(&self, timed: &[(f64, usize)]) -> Vec<f64> {
        timed
            .iter()
            .map(|&(t, at)| t / self.factor_at(at))
            .collect()
    }

    /// One `#` line for the run's output.
    pub fn describe(&self) -> String {
        format!(
            "# host factor {:.4} (probe median {:.3} ms over {} samples, nominal {NOMINAL_MS} ms)",
            self.factor(),
            quantile(&self.ms, 0.5),
            self.ms.len(),
        )
    }
}
