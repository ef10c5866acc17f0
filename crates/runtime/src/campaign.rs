//! Batched Monte-Carlo fault-injection campaigns (§6.2 methodology at
//! scale).
//!
//! A [`Campaign`] describes a grid of injection trials — (heap slot |
//! op step) × seed × trigger — against one program entry point. Running
//! it compiles the program once and records one golden run on the
//! bytecode VM ([`Vm::record`]), with a checkpoint of the whole machine
//! at the start of every event-loop iteration. Trial *batches* then fan
//! out over [`sjava_par`] workers, which share the recording read-only.
//! Each worker owns one [`Vm`] and runs trials with [`Vm::replay`]:
//!
//! - a trial restores the last checkpoint before its trigger and takes
//!   the golden outputs before it;
//! - once the fault is injected, it stops at the first iteration start
//!   where the machine equals the golden checkpoint again, and takes the
//!   golden outputs after it.
//!
//! Both shortcuts are exact — the VM is deterministic and a spent
//! injector does nothing — so every trial outcome equals a full run's.
//!
//! Batches are weighted for the scheduler's LPT deal by the golden steps
//! from each trial's starting point to the end of the run.

use crate::bytecode::compile;
use crate::driver::{compare_window, RecoveryStats};
use crate::inject::{InjectKind, Injector};
use crate::input::InputProvider;
use crate::interp::{ExecOptions, RunResult, RuntimeError};
use crate::vm::{Recording, Vm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sjava_syntax::ast::Program;
use std::time::Instant;

/// What one trial injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialKind {
    /// Corrupt the value produced by one interpreter step.
    Op,
    /// Corrupt a pseudo-randomly chosen heap cell.
    HeapRandom,
    /// Corrupt a specific heap cell (by global lexicographic rank).
    HeapCell(usize),
}

/// One planned injection trial.
#[derive(Debug, Clone, Copy)]
pub struct TrialSpec {
    /// Seed for the injector's value-corruption draws.
    pub seed: u64,
    /// Step at which the injector fires.
    pub trigger: u64,
    /// What gets corrupted.
    pub kind: TrialKind,
}

impl TrialSpec {
    fn injector(&self) -> Injector {
        match self.kind {
            TrialKind::Op => Injector::with_kind(self.seed, self.trigger, InjectKind::Op),
            TrialKind::HeapRandom => Injector::with_kind(self.seed, self.trigger, InjectKind::Heap),
            TrialKind::HeapCell(rank) => Injector::targeted_cell(self.seed, self.trigger, rank),
        }
    }
}

/// How the trial grid is enumerated.
#[derive(Debug, Clone, Copy)]
pub enum Grid {
    /// `trials` seeds, the paper's §6.2 draw, defined here: per seed,
    /// trigger ~ U\[1, window·golden_steps) from a `StdRng` seeded with
    /// `seed · 0x9e3779b97f4a7c15`, and the kind alternates Op/Heap by
    /// seed parity. The committed fig 6.1 and eval CSVs depend on this
    /// exact draw (pinned by `monte_carlo_matches_historical_per_trial_pipeline`).
    MonteCarlo,
    /// Exhaustive lattice: every live heap cell × `triggers` evenly
    /// spaced trigger steps (targeted-cell injection), plus `seeds` op
    /// trials per trigger.
    Lattice {
        /// Op-injection seeds per trigger step.
        seeds: usize,
        /// Trigger steps, evenly spaced across the inject window.
        triggers: usize,
    },
}

/// A fault-injection campaign over one program entry point.
#[derive(Debug, Clone, Copy)]
pub struct Campaign<'a> {
    /// Checked program to run.
    pub program: &'a Program,
    /// `(class, method)` entry point.
    pub entry: (&'a str, &'a str),
    /// Event-loop iterations per trial.
    pub iterations: usize,
    /// Trial count (Monte-Carlo grids; lattices derive their own).
    pub trials: usize,
    /// Grid shape.
    pub grid: Grid,
    /// Fraction of the golden run's steps eligible as trigger points.
    pub inject_window: f64,
    /// Float comparison tolerance for recovery measurement.
    pub eps: f64,
    /// Worker override (`None` = `SJAVA_THREADS`/auto).
    pub threads: Option<usize>,
    /// Trials per batch (0 = auto-size from the worker count).
    pub batch_size: usize,
}

impl<'a> Campaign<'a> {
    /// A campaign with the defaults used by the paper evaluation:
    /// window 0.8, exact output comparison, auto batching.
    pub fn new(program: &'a Program, entry: (&'a str, &'a str), iterations: usize) -> Self {
        Campaign {
            program,
            entry,
            iterations,
            trials: 1000,
            grid: Grid::MonteCarlo,
            inject_window: 0.8,
            eps: 0.0,
            threads: None,
            batch_size: 0,
        }
    }

    /// Runs the campaign. `make_inputs` builds the (deterministic)
    /// input provider — called once for the golden run and once per
    /// batch; trials take their input cursor from the recording.
    ///
    /// # Errors
    ///
    /// Fails only if the golden run fails (unknown entry point); trial
    /// runs execute in ignore-errors mode and cannot fail.
    pub fn run<I, F>(&self, make_inputs: F) -> Result<CampaignOutcome, RuntimeError>
    where
        I: InputProvider + Clone + Sync,
        F: Fn() -> I + Sync,
    {
        let started = Instant::now();
        let module = compile(self.program);
        let opts = ExecOptions::default();
        let mut gvm = Vm::new(&module, make_inputs(), opts.clone());
        let rec = gvm.record(self.entry.0, self.entry.1, self.iterations)?;
        let heap_cells = gvm.heap_cells();
        let specs = self.specs(&rec.result, heap_cells);

        let n = specs.len();
        let threads = self.threads.unwrap_or_else(sjava_par::num_threads).max(1);
        let bsize = if self.batch_size > 0 {
            self.batch_size
        } else {
            // ~8 batches per worker bound the LPT imbalance; a batch
            // costs no more than a fresh worker VM.
            n.div_ceil(threads * 8).clamp(1, 2048)
        };
        let n_batches = n.div_ceil(bsize);
        let costs: Vec<u64> = (0..n_batches)
            .map(|b| {
                specs[b * bsize..(b * bsize + bsize).min(n)]
                    .iter()
                    .map(|s| rec.result.steps - rec.start_step(s.trigger))
                    .sum()
            })
            .collect();

        let run_batch = |b: usize| -> Vec<TrialOutcome> {
            let lo = b * bsize;
            let hi = (lo + bsize).min(n);
            let mut vm = Vm::new(&module, make_inputs(), opts.clone());
            specs[lo..hi]
                .iter()
                .map(|spec| run_trial(&mut vm, &rec, spec, self.eps))
                .collect()
        };
        // Batches are coarse, so they go to the pool whatever their
        // count (`run_indexed_weighted`'s small-job threshold is sized
        // for per-method tasks).
        let per_batch = sjava_par::run_indexed_weighted_with(n_batches, threads, &costs, run_batch);
        let trials: Vec<TrialOutcome> = per_batch.into_iter().flatten().collect();

        let mut hist_samples = RecoveryHistogram::new(5, 400);
        let mut hist_iterations = RecoveryHistogram::new(1, 64);
        for t in &trials {
            hist_samples.record(&t.stats, t.stats.recovery_samples as u64);
            hist_iterations.record(&t.stats, t.stats.recovery_iterations as u64);
        }
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        let trials_per_sec = trials.len() as f64 / (elapsed_ns as f64 / 1e9).max(1e-9);
        Ok(CampaignOutcome {
            golden: rec.result,
            heap_cells,
            trials,
            hist_samples,
            hist_iterations,
            elapsed_ns,
            trials_per_sec,
        })
    }

    /// Enumerates the trial grid.
    fn specs(&self, golden: &RunResult, heap_cells: usize) -> Vec<TrialSpec> {
        let max_step = ((golden.steps as f64) * self.inject_window).max(2.0) as u64;
        match self.grid {
            Grid::MonteCarlo => (0..self.trials as u64)
                .map(|seed| {
                    // The `Grid::MonteCarlo` draw; changing it changes
                    // every committed campaign CSV.
                    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    let trigger = rng.gen_range(1..max_step);
                    let kind = if seed.is_multiple_of(2) {
                        TrialKind::Op
                    } else {
                        TrialKind::HeapRandom
                    };
                    TrialSpec {
                        seed,
                        trigger,
                        kind,
                    }
                })
                .collect(),
            Grid::Lattice { seeds, triggers } => {
                let triggers = triggers.max(1);
                let step_at = |t: usize| {
                    1 + ((max_step - 2) * t as u64) / triggers.max(2).saturating_sub(1) as u64
                };
                let mut out = Vec::with_capacity(triggers * (heap_cells + seeds));
                for t in 0..triggers {
                    let trigger = step_at(t);
                    for cell in 0..heap_cells {
                        out.push(TrialSpec {
                            seed: (t * heap_cells + cell) as u64,
                            trigger,
                            kind: TrialKind::HeapCell(cell),
                        });
                    }
                    for s in 0..seeds {
                        out.push(TrialSpec {
                            seed: s as u64,
                            trigger,
                            kind: TrialKind::Op,
                        });
                    }
                }
                out
            }
        }
    }
}

/// Runs one trial against the recorded golden run.
fn run_trial<I: InputProvider + Clone>(
    vm: &mut Vm<'_, I>,
    rec: &Recording<I>,
    spec: &TrialSpec,
    eps: f64,
) -> TrialOutcome {
    let t0 = Instant::now();
    let run = vm
        .replay(rec, spec.injector())
        .expect("injected run cannot fail in ignore-errors mode");
    let stats = compare_window(
        &rec.result.iteration_outputs,
        run.first,
        &run.outputs,
        run.converged,
        eps,
    );
    TrialOutcome {
        seed: spec.seed,
        trigger: spec.trigger,
        kind: spec.kind,
        injected_at: run.injected_at,
        stats,
        ns: t0.elapsed().as_nanos() as u64,
    }
}

/// Result of one trial within a campaign.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// Injector seed.
    pub seed: u64,
    /// Planned trigger step.
    pub trigger: u64,
    /// What was injected.
    pub kind: TrialKind,
    /// Step at which the injector actually fired.
    pub injected_at: Option<u64>,
    /// Recovery measurement vs the golden run.
    pub stats: RecoveryStats,
    /// Measured wall time of this trial in nanoseconds.
    pub ns: u64,
}

/// Everything a campaign produces.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The golden (uninjected) run.
    pub golden: RunResult,
    /// Heap cells after the golden run (the targeted-injection space).
    pub heap_cells: usize,
    /// Per-trial outcomes, in grid order regardless of thread count.
    pub trials: Vec<TrialOutcome>,
    /// Recovery-time histogram in output samples.
    pub hist_samples: RecoveryHistogram,
    /// Recovery-time histogram in iterations.
    pub hist_iterations: RecoveryHistogram,
    /// Total campaign wall time.
    pub elapsed_ns: u64,
    /// Throughput over the whole campaign (incl. compile + golden).
    pub trials_per_sec: f64,
}

impl CampaignOutcome {
    /// Trials whose outputs differed from the golden run at all.
    pub fn diverged(&self) -> usize {
        self.trials.iter().filter(|t| t.stats.diverged).count()
    }
}

/// A fixed-width histogram of recovery times streamed from
/// [`RecoveryStats`], with divergence tallies.
#[derive(Debug, Clone)]
pub struct RecoveryHistogram {
    /// Bucket width (in the recorded unit: samples or iterations).
    pub bucket_width: u64,
    /// Counts per bucket; the last bucket absorbs the tail.
    pub buckets: Vec<u64>,
    /// Trials with any divergence.
    pub diverged: u64,
    /// Trials with no observable divergence.
    pub silent: u64,
}

impl RecoveryHistogram {
    /// A histogram with `max / bucket_width + 2` buckets.
    pub fn new(bucket_width: u64, max: u64) -> Self {
        RecoveryHistogram {
            bucket_width: bucket_width.max(1),
            buckets: vec![0; (max / bucket_width.max(1) + 2) as usize],
            diverged: 0,
            silent: 0,
        }
    }

    /// Streams one trial in; `value` is its recovery time in this
    /// histogram's unit.
    pub fn record(&mut self, stats: &RecoveryStats, value: u64) {
        if stats.diverged {
            self.diverged += 1;
            let idx = ((value / self.bucket_width) as usize).min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        } else {
            self.silent += 1;
        }
    }

    /// Emits `bucket_lo,count` CSV lines (diverged trials only).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("bucket_lo,count\n");
        for (i, &count) in self.buckets.iter().enumerate() {
            out.push_str(&format!("{},{}\n", i as u64 * self.bucket_width, count));
        }
        out
    }

    /// Renders an ASCII bar chart of the non-empty buckets.
    pub fn render(&self) -> String {
        let max = self.buckets.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (i, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let lo = i as u64 * self.bucket_width;
            let hi = lo + self.bucket_width - 1;
            let bar = "#".repeat(((count * 60).div_ceil(max)) as usize);
            out.push_str(&format!("{lo:>6}-{hi:<6} {count:>7} {bar}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::compare_runs;
    use crate::input::ScriptedInput;
    use crate::interp::Interpreter;
    use crate::value::Value;
    use sjava_syntax::parse;

    const SRC: &str = "class A { int prev; void main() { SSJAVA: while (true) {
        int x = Device.read();
        Out.emit(prev + x);
        prev = x;
    } } }";

    fn inputs() -> ScriptedInput {
        ScriptedInput::new().channel("read", vec![Value::Int(1), Value::Int(2)])
    }

    #[test]
    fn monte_carlo_matches_historical_per_trial_pipeline() {
        let p = parse(SRC).expect("parses");
        let mut c = Campaign::new(&p, ("A", "main"), 8);
        c.trials = 40;
        let out = c.run(inputs).expect("campaign");
        // Replay each trial through the legacy interpreter pipeline:
        // same trigger derivation, same stats, same fire step.
        let golden = Interpreter::new(&p, inputs(), ExecOptions::default())
            .run("A", "main", 8)
            .expect("golden");
        assert_eq!(golden.iteration_outputs, out.golden.iteration_outputs);
        let max_step = ((golden.steps as f64) * c.inject_window).max(2.0) as u64;
        assert_eq!(out.trials.len(), 40);
        for t in &out.trials {
            let mut rng = StdRng::seed_from_u64(t.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            assert_eq!(rng.gen_range(1..max_step), t.trigger);
            let kind = if t.seed.is_multiple_of(2) {
                InjectKind::Op
            } else {
                InjectKind::Heap
            };
            let run = Interpreter::new(&p, inputs(), ExecOptions::default())
                .with_injector(Injector::with_kind(t.seed, t.trigger, kind))
                .run("A", "main", 8)
                .expect("trial");
            let stats = compare_runs(&golden.iteration_outputs, &run.iteration_outputs, 0.0);
            assert_eq!(stats, t.stats, "seed {}", t.seed);
            assert_eq!(run.injected_at, t.injected_at, "seed {}", t.seed);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let p = parse(SRC).expect("parses");
        let mut c = Campaign::new(&p, ("A", "main"), 6);
        c.trials = 60;
        c.batch_size = 7;
        c.threads = Some(1);
        let a = c.run(inputs).expect("campaign");
        c.threads = Some(4);
        let b = c.run(inputs).expect("campaign");
        let strip = |o: &CampaignOutcome| {
            o.trials
                .iter()
                .map(|t| (t.seed, t.trigger, t.injected_at, t.stats.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&a), strip(&b));
        assert_eq!(a.hist_samples.buckets, b.hist_samples.buckets);
        assert_eq!(a.hist_iterations.buckets, b.hist_iterations.buckets);
    }

    // Field initializer does arithmetic so instantiation consumes steps
    // (prep.steps >= 1) and trigger=1 trials take the full-run path.
    const WARM_SRC: &str =
        "class A { int warm = 1 + 2; int prev; void main() { SSJAVA: while (true) {
    int x = Device.read();
    Out.emit(prev + x);
    prev = x;
} } }";

    fn warm_inputs() -> ScriptedInput {
        ScriptedInput::new().channel(
            "read",
            vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(5)],
        )
    }

    #[test]
    fn batch_size_does_not_change_results() {
        // Campaign results must not depend on batch size, including for
        // trials whose trigger falls inside instantiation (the full-run
        // fallback path).
        let p = parse(WARM_SRC).expect("parses");
        let mut c = Campaign::new(&p, ("A", "main"), 6);
        c.grid = Grid::Lattice {
            seeds: 3,
            triggers: 4,
        };
        c.threads = Some(1);
        c.batch_size = 1;
        let a = c.run(warm_inputs).expect("campaign");
        c.batch_size = 1000;
        let b = c.run(warm_inputs).expect("campaign");
        let strip = |o: &CampaignOutcome| {
            o.trials
                .iter()
                .map(|t| (t.seed, t.trigger, t.injected_at, t.stats.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&a), strip(&b));
    }

    #[test]
    fn lattice_covers_cells_and_triggers() {
        let p = parse(
            "class A { int a; int b; void main() { SSJAVA: while (true) {
                int x = Device.read(); a = a + x; b = b + a; Out.emit(a + b);
            } } }",
        )
        .expect("parses");
        let mut c = Campaign::new(&p, ("A", "main"), 5);
        c.grid = Grid::Lattice {
            seeds: 2,
            triggers: 3,
        };
        let out = c
            .run(|| ScriptedInput::new().channel("read", vec![Value::Int(3)]))
            .expect("campaign");
        assert_eq!(out.trials.len(), 3 * (out.heap_cells + 2));
        assert!(out
            .trials
            .iter()
            .any(|t| matches!(t.kind, TrialKind::HeapCell(_))));
        assert!(out.diverged() > 0, "heap corruption must perturb outputs");
    }
}
