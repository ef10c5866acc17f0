//! `campaign`: in-process `Campaign::run` on a Monte-Carlo campaign over
//! `mp3dec` (fig 6.1's parameters) and an exhaustive lattice grid over
//! `eyetrack` (§6.2.2).

use crate::gen::{Rng, Scale};
use crate::probe::Probe;
use crate::report::{mean, quantile, wall, Checks, Digest, Metrics};
use crate::sys;
use crate::trace::Recorder;
use crate::Ctx;
use sjava_apps::{eyetrack, mp3dec};
use sjava_runtime::campaign::TrialKind;
use sjava_runtime::inject::InjectKind;
use sjava_runtime::{
    compare_runs, compile, Campaign, CampaignOutcome, ExecOptions, Grid, Injector, Interpreter,
    RunResult, TrialOutcome, Vm,
};
use sjava_syntax::Program;
use std::time::Instant;

/// One of the two campaigns, with everything drawn from the seed.
struct Spec {
    tag: &'static str,
    program: Program,
    entry: (&'static str, &'static str),
    iterations: usize,
    grid: Grid,
    trials: usize,
    window: f64,
    eps: f64,
    /// Input seeds the runs cycle through, so that one run's figures
    /// average over many input streams (per-trial cost depends on the
    /// input): as many as a run has grid campaigns, about 32.
    input_seeds: Vec<u64>,
    /// Campaigns per round of the untraced run: the short eyetrack grid
    /// runs several times for each long mp3dec campaign, so that both
    /// give a run enough samples for their quantiles.
    per_round: usize,
    /// Trials replayed on the tree-walking interpreter per run.
    sample: usize,
    /// Span names of the traced run.
    spans: &'static Spans,
}

struct Spans {
    op: &'static str,
    compile: &'static str,
    golden: &'static str,
    prepare: &'static str,
    snapshot: &'static str,
    campaign: &'static str,
    restore: &'static str,
    resume: &'static str,
    compare: &'static str,
}

const MC_SPANS: Spans = Spans {
    op: "campaign.mc",
    compile: "runtime.compile.mc",
    golden: "runtime.golden.mc",
    prepare: "runtime.prepare.mc",
    snapshot: "runtime.snapshot.mc",
    campaign: "runtime.campaign.mc",
    restore: "runtime.restore.mc",
    resume: "runtime.resume.mc",
    compare: "runtime.compare.mc",
};

const GRID_SPANS: Spans = Spans {
    op: "campaign.grid",
    compile: "runtime.compile.grid",
    golden: "runtime.golden.grid",
    prepare: "runtime.prepare.grid",
    snapshot: "runtime.snapshot.grid",
    campaign: "runtime.campaign.grid",
    restore: "runtime.restore.grid",
    resume: "runtime.resume.grid",
    compare: "runtime.compare.grid",
};

/// Binds `$make` to the spec's input-provider factory and evaluates
/// `$body` with it; the two apps' providers are different types.
macro_rules! with_inputs {
    ($spec:expr, $seed:expr, $make:ident => $body:expr) => {{
        let seed: u64 = $seed;
        if $spec.tag == "mc" {
            let $make = move || mp3dec::inputs_for(seed, mp3dec::GRANULE);
            $body
        } else {
            let $make = move || eyetrack::inputs(seed);
            $body
        }
    }};
}

impl Spec {
    fn campaign(&self) -> Campaign<'_> {
        let mut c = Campaign::new(&self.program, self.entry, self.iterations);
        c.trials = self.trials;
        c.grid = self.grid;
        c.inject_window = self.window;
        c.eps = self.eps;
        c
    }

    /// The largest recovery a trial may show: fig6_1's frames-plus-window
    /// bound on output samples for mp3dec, and three iterations (the
    /// 3-deep position history) for eyetrack, as in `eval_eye`.
    fn within_bound(&self, t: &TrialOutcome) -> bool {
        if !t.stats.diverged {
            return true;
        }
        if self.tag == "mc" {
            let frame = mp3dec::frame_samples(mp3dec::GRANULE);
            t.stats.recovery_samples <= 2 * frame + mp3dec::WINDOW + frame / 2
        } else {
            t.stats.recovery_iterations <= 3
        }
    }

    fn run(&self, input: u64) -> (CampaignOutcome, f64) {
        with_inputs!(self, input, make => {
            let t = Instant::now();
            let out = self.campaign().run(make).expect("campaign entry points exist");
            (out, t.elapsed().as_secs_f64())
        })
    }

    /// A run on the tree-walking interpreter, the engine the VM must
    /// agree with.
    fn interpret(&self, input: u64, injector: Option<Injector>) -> Option<RunResult> {
        with_inputs!(self, input, make => {
            let mut interp = Interpreter::new(&self.program, make(), ExecOptions::default());
            if let Some(inj) = injector {
                interp = interp.with_injector(inj);
            }
            interp.run(self.entry.0, self.entry.1, self.iterations).ok()
        })
    }
}

/// Both campaigns; the app sources are parsed and verified here, which is
/// all the checker does in this workload.
fn setup(ctx: &Ctx, checks: &mut Checks, mut rec: Option<&mut Recorder>) -> (Vec<Spec>, Digest) {
    let mut rng = Rng::new(ctx.seed, 5);
    let tiny = ctx.scale == Scale::Tiny;
    let mp3_src = mp3dec::source_with(mp3dec::GRANULE, mp3dec::WINDOW);
    let mut parsed = Vec::new();
    for src in [mp3_src.as_str(), eyetrack::SOURCE] {
        let program = match rec.as_deref_mut() {
            Some(r) => {
                r.begin_op("campaign.setup");
                let p = r.span("syntax.parse", || sjava_syntax::parse(src));
                r.end();
                p
            }
            None => sjava_syntax::parse(src),
        }
        .expect("app sources parse");
        let report = sjava_core::check_program(&program);
        checks.check(report.is_ok(), || "campaign: an app does not verify".into());
        parsed.push(program);
    }
    let eye = parsed.pop().expect("eyetrack parsed");
    let mp3 = parsed.pop().expect("mp3dec parsed");
    let specs = vec![
        Spec {
            tag: "mc",
            program: mp3,
            entry: mp3dec::ENTRY,
            iterations: 10,
            grid: Grid::MonteCarlo,
            // A multiple of the 24 calibration samples, so calibration
            // always times exactly 24 trials.
            trials: if tiny { 24 } else { 48 },
            window: 0.6,
            eps: 1e-9,
            input_seeds: input_seeds(&mut rng, tiny),
            per_round: 1,
            sample: if tiny { 1 } else { 2 },
            spans: &MC_SPANS,
        },
        Spec {
            tag: "grid",
            program: eye,
            entry: eyetrack::ENTRY,
            iterations: 50,
            grid: Grid::Lattice {
                seeds: 3 + rng.below(3) as usize,
                triggers: if tiny { 4 } else { 90 + rng.below(21) as usize },
            },
            trials: 0,
            window: 0.7,
            eps: 0.0,
            input_seeds: input_seeds(&mut rng, tiny),
            per_round: if tiny { 1 } else { 3 },
            sample: if tiny { 4 } else { 16 },
            spans: &GRID_SPANS,
        },
    ];
    let mut digest = Digest::default();
    for s in &specs {
        digest.add(format!("{} {:?} {} {:?}", s.tag, s.grid, s.trials, s.input_seeds).as_bytes());
    }
    (specs, digest)
}

fn input_seeds(rng: &mut Rng, tiny: bool) -> Vec<u64> {
    (0..if tiny { 1 } else { 32 })
        .map(|_| rng.below(1000))
        .collect()
}

fn injector(t: &TrialOutcome) -> Injector {
    match t.kind {
        TrialKind::Op => Injector::with_kind(t.seed, t.trigger, InjectKind::Op),
        TrialKind::HeapRandom => Injector::with_kind(t.seed, t.trigger, InjectKind::Heap),
        TrialKind::HeapCell(rank) => Injector::targeted_cell(t.seed, t.trigger, rank),
    }
}

/// Checks one finished campaign: its golden run matches the interpreter's
/// and every trial recovers within the app's bound.
fn check_outcome(
    checks: &mut Checks,
    spec: &Spec,
    reference: &RunResult,
    out: &CampaignOutcome,
    sabotage: bool,
) {
    let g = &out.golden;
    let expected_trials = match spec.grid {
        Grid::MonteCarlo => spec.trials,
        Grid::Lattice { seeds, triggers } => triggers.max(1) * (out.heap_cells + seeds),
    };
    checks.check(
        g.iteration_outputs == reference.iteration_outputs
            && g.steps == reference.steps
            && g.error_log == reference.error_log
            && out.trials.len() == expected_trials,
        || format!("{}: VM golden run differs from the interpreter", spec.tag),
    );
    for (i, t) in out.trials.iter().enumerate() {
        checks.check(spec.within_bound(t) && !(sabotage && i == 0), || {
            format!(
                "{}: trial seed={} trigger={} exceeds the recovery bound ({:?})",
                spec.tag, t.seed, t.trigger, t.stats
            )
        });
    }
}

/// Replays a seeded sample of a campaign's trials on the tree-walking
/// interpreter: injection point and recovery statistics must match.
fn check_sample(
    checks: &mut Checks,
    spec: &Spec,
    input: u64,
    out: &CampaignOutcome,
    rng: &mut Rng,
) {
    for _ in 0..spec.sample {
        let t = &out.trials[rng.below(out.trials.len() as u64) as usize];
        let ok = spec.interpret(input, Some(injector(t))).is_some_and(|r| {
            r.injected_at == t.injected_at
                && compare_runs(
                    &out.golden.iteration_outputs,
                    &r.iteration_outputs,
                    spec.eps,
                ) == t.stats
        });
        checks.check(ok, || {
            format!(
                "{}: trial seed={} trigger={} differs on the interpreter",
                spec.tag, t.seed, t.trigger
            )
        });
    }
}

/// Each campaign's golden run per input seed, on the interpreter, run
/// the first time the seed is used: a run uses only some of them.
struct References(Vec<Vec<Option<RunResult>>>);

impl References {
    fn new(specs: &[Spec]) -> Self {
        References(
            specs
                .iter()
                .map(|s| s.input_seeds.iter().map(|_| None).collect())
                .collect(),
        )
    }

    fn get(&mut self, specs: &[Spec], k: usize, i: usize) -> &RunResult {
        let spec = &specs[k];
        self.0[k][i].get_or_insert_with(|| {
            spec.interpret(spec.input_seeds[i], None)
                .expect("reference golden run")
        })
    }
}

fn trial_ms(out: &CampaignOutcome) -> Vec<f64> {
    out.trials.iter().map(|t| t.ns as f64 / 1e6).collect()
}

/// Probe samples after each `Campaign::run`: campaigns are long, so with
/// one sample each the samples a campaign is read against would span too
/// long a stretch of the run.
const PROBES_PER_CAMPAIGN: usize = 2;

pub fn run(ctx: &Ctx, checks: &mut Checks) -> Metrics {
    let ((specs, digest), setup_s) = ctx.setup(|| setup(ctx, checks, None));
    let mut refs = References::new(&specs);
    // Wall ms per trial of each `Campaign::run`, timed here: what a user
    // pays per trial, compile, golden run and calibration included; with
    // the probe sample it is read against.
    let mut per_trial: [Vec<(f64, usize)>; 2] = Default::default();
    // Wall seconds of each `Campaign::run` with its probe sample, and
    // the trials they ran.
    let mut done: [Vec<(f64, usize)>; 2] = Default::default();
    let mut trials = [0usize; 2];
    let mut last: [Option<(u64, CampaignOutcome)>; 2] = [None, None];
    let mut runs = [0usize; 2];
    let mut probe = Probe::new(1);
    let t0 = Instant::now();
    let mut round = 0;
    while round == 0 || ctx.time_left(t0) {
        for (k, spec) in specs.iter().enumerate() {
            for _ in 0..spec.per_round {
                let i = runs[k] % spec.input_seeds.len();
                let input = spec.input_seeds[i];
                runs[k] += 1;
                let Some((out, wall)) = checks.guarded(
                    || format!("{}: Campaign::run", spec.tag),
                    |_| spec.run(input),
                ) else {
                    continue;
                };
                let reference = refs.get(&specs, k, i);
                check_outcome(checks, spec, reference, &out, ctx.sabotage && round == 0);
                per_trial[k].push((wall * 1e3 / out.trials.len() as f64, probe.next()));
                done[k].push((wall, probe.next()));
                trials[k] += out.trials.len();
                last[k] = Some((input, out));
                for _ in 0..PROBES_PER_CAMPAIGN {
                    probe.sample();
                }
            }
        }
        round += 1;
    }
    let peak = sys::self_peak_mb();
    let mut rng = Rng::new(ctx.seed, 6);
    for (spec, last) in specs.iter().zip(&last) {
        let Some((input, out)) = last else { continue };
        checks.guarded(
            || format!("{}: replaying trials on the interpreter", spec.tag),
            |checks| check_sample(checks, spec, *input, out, &mut rng),
        );
    }

    println!("# inputs digest {:016x}", digest.0);
    let total = |walls: &[f64]| walls.iter().sum::<f64>();
    println!(
        "# wall: mc_trials_per_s {:.3} grid_trials_per_s {:.3} (trials {} / {} over {} / {} runs)",
        trials[0] as f64 / total(&wall(&done[0])),
        trials[1] as f64 / total(&wall(&done[1])),
        trials[0],
        trials[1],
        runs[0],
        runs[1]
    );
    let raw = [wall(&per_trial[0]), wall(&per_trial[1])];
    println!(
        "# wall: mc_ms_per_trial_p50 {:.4} p90 {:.4} grid_ms_per_trial_p50 {:.5} p90 {:.5}",
        quantile(&raw[0], 0.5),
        quantile(&raw[0], 0.9),
        quantile(&raw[1], 0.5),
        quantile(&raw[1], 0.9),
    );
    println!("{}", probe.describe());
    let per_trial = [probe.read(&per_trial[0]), probe.read(&per_trial[1])];
    let h = probe.factor();
    let mut m = Metrics::default();
    m.set("latency_ms_p50", quantile(&per_trial[0], 0.5), "ms");
    m.set("latency_ms_p90", quantile(&per_trial[0], 0.9), "ms");
    m.set("latency2_ms_p50", quantile(&per_trial[1], 0.5), "ms");
    m.set("latency2_ms_p90", quantile(&per_trial[1], 0.9), "ms");
    m.set(
        "throughput_per_s",
        trials[0] as f64 / total(&probe.read(&done[0])),
        "1/s",
    );
    m.set(
        "throughput2_per_s",
        trials[1] as f64 / total(&probe.read(&done[1])),
        "1/s",
    );
    m.set("peak_rss_mb", peak, "MB");
    m.set("setup_s", setup_s / h, "s");
    m
}

/// Per-campaign accumulators of the traced run.
#[derive(Default)]
struct Layer {
    trial_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    cpu_s: f64,
    cap_s: f64,
    resume_steps: u64,
    resume_ms: f64,
    /// `RunResult.steps` of the first round's replayed sample.
    sample_steps: Vec<u64>,
    diverged_share: f64,
    recovery_max: usize,
    /// Wall ms per trial of traced and of untraced `Campaign::run`s.
    traced: Vec<f64>,
    untraced: Vec<f64>,
}

/// One traced campaign: compile, golden run, prepare and snapshot timed
/// on their own, then `Campaign::run`, then a seeded sample of its trials
/// replayed through `Vm::restore`, `Vm::resume` and `compare_runs`.
fn traced_once(
    ctx: &Ctx,
    checks: &mut Checks,
    rec: &mut Recorder,
    spec: &Spec,
    input: u64,
    layer: &mut Layer,
    rng: &mut Rng,
) -> CampaignOutcome {
    let n = spec.spans;
    rec.begin_op(n.op);
    let module = rec.span(n.compile, || compile(&spec.program));
    let (out, prep_steps, replayed) = with_inputs!(spec, input, make => {
        let mut vm = Vm::new(&module, make(), ExecOptions::default());
        let golden = rec.span(n.golden, || vm.run(spec.entry.0, spec.entry.1, spec.iterations));
        checks.check(golden.is_ok(), || format!("{}: golden run failed", spec.tag));
        // A fresh machine for the replays, as each campaign worker uses:
        // the golden run has advanced the input cursor.
        let mut vm = Vm::new(&module, make(), ExecOptions::default());
        let prep = rec
            .span(n.prepare, || vm.prepare(spec.entry.0, spec.entry.1))
            .expect("entry point exists");
        let snap = rec.span(n.snapshot, || vm.snapshot());

        let cpu0 = sys::self_cpu_s();
        rec.begin(n.campaign);
        let out = spec.campaign().run(make);
        let wall = rec.end().as_secs_f64();
        let out = out.expect("campaign entry points exist");
        layer.cpu_s += sys::self_cpu_s() - cpu0;
        layer.cap_s += wall * ctx.width as f64;
        layer.traced.push(wall * 1e3 / out.trials.len() as f64);

        let mut replayed = Vec::new();
        for _ in 0..spec.sample * 4 {
            let t = &out.trials[rng.below(out.trials.len() as u64) as usize];
            if t.trigger <= prep.steps {
                // Fires during instantiation: campaigns run it from
                // scratch, with no snapshot to restore.
                continue;
            }
            rec.span(n.restore, || vm.restore(&snap));
            let run = rec
                .span(n.resume, || vm.resume(&prep, spec.iterations, Some(injector(t))))
                .expect("injected runs do not fail");
            let stats = rec.span(n.compare, || {
                compare_runs(&out.golden.iteration_outputs, &run.iteration_outputs, spec.eps)
            });
            checks.check(stats == t.stats && run.injected_at == t.injected_at, || {
                format!("{}: replayed trial differs from the campaign", spec.tag)
            });
            replayed.push(run.steps);
        }
        (out, prep.steps, replayed)
    });
    rec.end();

    let times = rec.last_op();
    let trial_ms = trial_ms(&out);
    layer.overhead_ms.push(
        times.of(n.campaign)
            - times.of(n.compile)
            - times.of(n.golden)
            - trial_ms.iter().sum::<f64>() / ctx.width as f64,
    );
    layer.trial_ms.extend(trial_ms);
    layer.resume_steps += replayed.iter().map(|s| s - prep_steps).sum::<u64>();
    layer.resume_ms += times.of(n.resume);
    if layer.sample_steps.is_empty() {
        layer.sample_steps = replayed;
    }
    out
}

pub fn traced(ctx: &Ctx, checks: &mut Checks, rec: &mut Recorder) -> Metrics {
    let (specs, digest) = setup(ctx, checks, Some(rec));
    let mut refs = References::new(&specs);
    let mut layers: [Layer; 2] = Default::default();
    let mut rng = Rng::new(ctx.seed, 7);
    let t0 = Instant::now();
    let mut round = 0;
    // Traced and untraced rounds alternate for the overhead; at least one
    // of each runs.
    while round < 2 || ctx.time_left(t0) {
        for (k, spec) in specs.iter().enumerate() {
            let layer = &mut layers[k];
            // Traced and untraced rounds come in pairs on one input seed.
            let i = round / 2 % spec.input_seeds.len();
            let input = spec.input_seeds[i];
            checks.guarded(
                || format!("{}: traced campaign", spec.tag),
                |checks| {
                    let out = if round % 2 == 0 {
                        traced_once(ctx, checks, rec, spec, input, layer, &mut rng)
                    } else {
                        let (out, wall) = spec.run(input);
                        layer.untraced.push(wall * 1e3 / out.trials.len() as f64);
                        out
                    };
                    let reference = refs.get(&specs, k, i);
                    check_outcome(checks, spec, reference, &out, ctx.sabotage && round == 0);
                    if round == 0 {
                        layer.diverged_share = out.diverged() as f64 / out.trials.len() as f64;
                        layer.recovery_max = out
                            .trials
                            .iter()
                            .map(|t| t.stats.recovery_iterations)
                            .max()
                            .unwrap_or(0);
                        check_sample(checks, spec, input, &out, &mut Rng::new(ctx.seed, 6));
                    }
                },
            );
        }
        round += 1;
    }

    println!("# inputs digest {:016x}", digest.0);
    let self_ms = rec.self_ms();
    let span = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let mut m = Metrics::default();
    m.set("syntax.parse_ms", span("syntax.parse"), "ms");
    let mut slowdown = Vec::new();
    for (spec, l) in specs.iter().zip(&layers) {
        let (tag, n) = (spec.tag, spec.spans);
        m.set(format!("runtime.compile_ms.{tag}"), span(n.compile), "ms");
        m.set(format!("runtime.golden_ms.{tag}"), span(n.golden), "ms");
        m.set(
            format!("runtime.restore_us.{tag}"),
            span(n.restore) * 1e3,
            "us",
        );
        m.set(
            format!("runtime.compare_us.{tag}"),
            span(n.compare) * 1e3,
            "us",
        );
        m.set(format!("runtime.resume_ms.{tag}"), span(n.resume), "ms");
        m.set(
            format!("runtime.msteps_per_s.{tag}"),
            l.resume_steps as f64 / l.resume_ms.max(1e-9) / 1e3,
            "Msteps/s",
        );
        m.set(
            format!("runtime.steps_per_trial.{tag}"),
            l.sample_steps.iter().sum::<u64>() as f64 / l.sample_steps.len().max(1) as f64,
            "count",
        );
        m.set(
            format!("runtime.trial_ms_p50.{tag}"),
            quantile(&l.trial_ms, 0.5),
            "ms",
        );
        m.set(
            format!("runtime.trial_ms_p90.{tag}"),
            quantile(&l.trial_ms, 0.9),
            "ms",
        );
        m.set(
            format!("runtime.overhead_ms.{tag}"),
            mean(&l.overhead_ms),
            "ms",
        );
        m.set(
            format!("par.campaign_util.{tag}"),
            l.cpu_s / l.cap_s,
            "ratio",
        );
        m.set(
            format!("runtime.diverged_share.{tag}"),
            l.diverged_share,
            "ratio",
        );
        m.set(
            format!("runtime.recovery_iters_max.{tag}"),
            l.recovery_max as f64,
            "count",
        );
        slowdown.push(mean(&l.traced) / mean(&l.untraced));
    }
    m.set("trace.remainder_ms", span("campaign.mc"), "ms");
    m.set("trace.overhead_pct", (mean(&slowdown) - 1.0) * 100.0, "%");
    m
}
