//! VM ≡ tree-walker equivalence suite (the property behind `bench vm
//! --gate`): on every paper application and on randomized `stressgen`
//! programs, the register-bytecode VM must produce byte-identical
//! results to the tree-walking interpreter — identical output traces,
//! step counts, error logs, and `RuntimeError`s — plain and under
//! injected faults of both kinds. Also pins campaign results to be
//! independent of the worker thread count, and checkpointed campaign
//! trials (restore before the trigger, stop at re-convergence) to equal
//! full VM runs with the same injector.

use sjava_bench::stressgen::{self, StressConfig};
use sjava_runtime::campaign::TrialKind;
use sjava_runtime::inject::InjectKind;
use sjava_runtime::{
    compare_runs, compile, Campaign, ExecOptions, FnInput, Grid, Injector, InputProvider,
    Interpreter, ScriptedInput, TrialOutcome, TrialRun, Value, Vm,
};
use sjava_syntax::ast::Program;

/// Runs both engines on the same configuration and asserts the full
/// debug form of the outcome matches byte for byte.
fn assert_equiv<I: InputProvider + Clone>(
    label: &str,
    program: &Program,
    entry: (&str, &str),
    inputs: I,
    iterations: usize,
    injector: Option<(u64, u64, InjectKind)>,
) {
    let module = compile(program);
    let mut interp = Interpreter::new(program, inputs.clone(), ExecOptions::default());
    if let Some((seed, trigger, kind)) = injector {
        interp = interp.with_injector(Injector::with_kind(seed, trigger, kind));
    }
    let a = interp.run(entry.0, entry.1, iterations);
    let mut vm = Vm::new(&module, inputs, ExecOptions::default());
    if let Some((seed, trigger, kind)) = injector {
        vm = vm.with_injector(Injector::with_kind(seed, trigger, kind));
    }
    let b = vm.run(entry.0, entry.1, iterations);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "engines diverged on {label} (injector {injector:?})"
    );
}

/// Plain run + an injected sweep (both kinds, triggers spread across the
/// golden run's steps) on one program.
fn sweep<I, F>(label: &str, program: &Program, entry: (&str, &str), make_inputs: F, iters: usize)
where
    I: InputProvider + Clone,
    F: Fn() -> I,
{
    assert_equiv(label, program, entry, make_inputs(), iters, None);
    let golden = Interpreter::new(program, make_inputs(), ExecOptions::default())
        .run(entry.0, entry.1, iters)
        .expect("golden run");
    for seed in 0..3u64 {
        for (t, frac) in [0.15f64, 0.5, 0.85].iter().enumerate() {
            let trigger = (((golden.steps as f64) * frac) as u64).max(1);
            let kind = if (seed + t as u64).is_multiple_of(2) {
                InjectKind::Op
            } else {
                InjectKind::Heap
            };
            assert_equiv(
                label,
                program,
                entry,
                make_inputs(),
                iters,
                Some((seed, trigger, kind)),
            );
        }
    }
}

#[test]
fn paper_apps_are_engine_identical() {
    use sjava_apps::{eyetrack, mp3dec, sumobot, weather, windsensor};
    let p = |src: &str| sjava_syntax::parse(src).expect("app parses");
    sweep(
        "windsensor",
        &p(windsensor::SOURCE),
        windsensor::ENTRY,
        || windsensor::inputs(1),
        40,
    );
    sweep(
        "weather",
        &p(weather::SOURCE),
        weather::ENTRY,
        || weather::inputs(1),
        40,
    );
    sweep(
        "sumobot",
        &p(sumobot::SOURCE),
        sumobot::ENTRY,
        || sumobot::inputs(1),
        40,
    );
    sweep(
        "eyetrack",
        &p(eyetrack::SOURCE),
        eyetrack::ENTRY,
        || eyetrack::inputs(1),
        40,
    );
    // Small granule keeps the debug-build decoder affordable; the
    // release-grade GRANULE configuration is exercised by `bench vm`.
    let src = mp3dec::source_with(24, mp3dec::WINDOW);
    sweep(
        "mp3dec",
        &sjava_syntax::parse(&src).expect("decoder parses"),
        mp3dec::ENTRY,
        || mp3dec::inputs_for(0, 24),
        4,
    );
}

#[test]
fn random_stress_programs_are_engine_identical() {
    // Deterministically varied generator configs stand in for a
    // proptest: every seed yields a structurally different program
    // (different class/method/field counts, loop depths, delta chains,
    // degenerate and cyclic-delegate corners).
    for seed in 0..8u64 {
        let mut cfg = StressConfig::small();
        cfg.seed = seed;
        cfg.classes = 2 + (seed as usize % 3);
        cfg.methods = 2 + (seed as usize % 2);
        cfg.fields = 2 + (seed as usize / 2 % 3);
        cfg.loop_depth = 1 + (seed as usize % 2);
        cfg.stmts = 3 + (seed as usize % 4);
        cfg.delta_depth = seed as usize % 3;
        cfg.degenerate = seed as usize % 2;
        cfg.cyclic_delegates = (seed as usize / 4) % 2;
        let src = stressgen::generate(&cfg);
        let program = sjava_syntax::parse(&src).expect("stress program parses");
        let inputs = || FnInput::new(|_, i| Value::Int((i % 23) as i64 - 11));
        sweep(
            &format!("stress[{}]", cfg.label()),
            &program,
            ("StressMain", "run"),
            inputs,
            8,
        );
    }
}

#[test]
fn adversarial_corpus_is_engine_identical() {
    let src = stressgen::generate(&StressConfig::adversarial());
    let program = sjava_syntax::parse(&src).expect("adversarial program parses");
    sweep(
        "stress[adversarial]",
        &program,
        ("StressMain", "run"),
        || FnInput::new(|_, i| Value::Int((i % 17) as i64 - 8)),
        6,
    );
}

#[test]
fn campaign_is_thread_count_invariant() {
    // The injected-run sweep at 1 vs 4 workers: identical per-trial
    // results regardless of batching/stealing (the campaign fixes the
    // thread count explicitly, so the test is immune to SJAVA_THREADS).
    let program = sjava_syntax::parse(sjava_apps::windsensor::SOURCE).expect("parses");
    let run = |threads: usize| {
        let mut c = Campaign::new(&program, sjava_apps::windsensor::ENTRY, 30);
        c.trials = 64;
        c.threads = Some(threads);
        c.batch_size = 5;
        c.run(|| sjava_apps::windsensor::inputs(1))
            .expect("campaign runs")
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a.trials.len(), b.trials.len());
    for (x, y) in a.trials.iter().zip(b.trials.iter()) {
        // `ns` is wall-clock and legitimately differs; everything
        // semantic must match exactly.
        assert_eq!(x.seed, y.seed);
        assert_eq!(x.trigger, y.trigger);
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.injected_at, y.injected_at);
        assert_eq!(x.stats, y.stats);
    }
    assert_eq!(a.diverged(), b.diverged());
    assert_eq!(a.hist_samples.buckets, b.hist_samples.buckets);
    assert_eq!(a.hist_iterations.buckets, b.hist_iterations.buckets);
}

/// The injector a campaign trial ran with.
fn trial_injector(t: &TrialOutcome) -> Injector {
    match t.kind {
        TrialKind::Op => Injector::with_kind(t.seed, t.trigger, InjectKind::Op),
        TrialKind::HeapRandom => Injector::with_kind(t.seed, t.trigger, InjectKind::Heap),
        TrialKind::HeapCell(rank) => Injector::targeted_cell(t.seed, t.trigger, rank),
    }
}

/// Runs a campaign and re-runs every trial as a full `Vm::run` with the
/// same injector: fire step and recovery statistics must be equal.
/// Returns the campaign's trials.
fn assert_campaign_exact<I, F>(
    label: &str,
    program: &Program,
    entry: (&str, &str),
    make_inputs: F,
    iterations: usize,
    grid: Grid,
) -> Vec<TrialOutcome>
where
    I: InputProvider + Clone + Sync,
    F: Fn() -> I + Sync,
{
    let mut c = Campaign::new(program, entry, iterations);
    c.grid = grid;
    c.trials = 40;
    c.inject_window = 0.9;
    let out = c.run(&make_inputs).expect("campaign runs");
    let module = compile(program);
    let mut vm = Vm::new(&module, make_inputs(), ExecOptions::default());
    let golden = vm.run(entry.0, entry.1, iterations).expect("golden run");
    assert_eq!(
        format!("{golden:?}"),
        format!("{:?}", out.golden),
        "{label}: recorded golden run"
    );
    for t in &out.trials {
        vm.set_inputs(make_inputs());
        vm.set_injector(Some(trial_injector(t)));
        let full = vm.run(entry.0, entry.1, iterations).expect("full run");
        let stats = compare_runs(&golden.iteration_outputs, &full.iteration_outputs, c.eps);
        assert_eq!(
            (full.injected_at, stats),
            (t.injected_at, t.stats.clone()),
            "{label} {grid:?}: trial seed {} trigger {} {:?}",
            t.seed,
            t.trigger,
            t.kind
        );
    }
    out.trials
}

/// Monte-Carlo and lattice campaigns, every trial checked.
fn campaigns_exact<I, F>(
    label: &str,
    program: &Program,
    entry: (&str, &str),
    make_inputs: F,
    iterations: usize,
) where
    I: InputProvider + Clone + Sync,
    F: Fn() -> I + Sync,
{
    for grid in [
        Grid::MonteCarlo,
        Grid::Lattice {
            seeds: 2,
            triggers: 3,
        },
    ] {
        assert_campaign_exact(label, program, entry, &make_inputs, iterations, grid);
    }
}

#[test]
fn campaign_trials_equal_full_runs_on_paper_apps() {
    use sjava_apps::{eyetrack, mp3dec, sumobot, weather, windsensor};
    let p = |src: &str| sjava_syntax::parse(src).expect("app parses");
    campaigns_exact(
        "windsensor",
        &p(windsensor::SOURCE),
        windsensor::ENTRY,
        || windsensor::inputs(1),
        30,
    );
    campaigns_exact(
        "weather",
        &p(weather::SOURCE),
        weather::ENTRY,
        || weather::inputs(1),
        30,
    );
    campaigns_exact(
        "sumobot",
        &p(sumobot::SOURCE),
        sumobot::ENTRY,
        || sumobot::inputs(1),
        30,
    );
    campaigns_exact(
        "eyetrack",
        &p(eyetrack::SOURCE),
        eyetrack::ENTRY,
        || eyetrack::inputs(1),
        30,
    );
    campaigns_exact(
        "mp3dec",
        &p(&mp3dec::source_with(24, mp3dec::WINDOW)),
        mp3dec::ENTRY,
        || mp3dec::inputs_for(0, 24),
        6,
    );
}

#[test]
fn campaign_trials_equal_full_runs_on_stress_programs() {
    // Generated shapes reach corners the apps do not: deep call chains
    // inside the body, nested loops, delegates and degenerate methods.
    for (seed, mut cfg) in [StressConfig::small(), StressConfig::adversarial()]
        .into_iter()
        .enumerate()
    {
        cfg.seed = seed as u64;
        let program = sjava_syntax::parse(&stressgen::generate(&cfg)).expect("parses");
        assert_campaign_exact(
            &format!("stress[{}]", cfg.label()),
            &program,
            ("StressMain", "run"),
            || FnInput::new(|_, i| Value::Int((i % 17) as i64 - 8)),
            8,
            Grid::MonteCarlo,
        );
    }
}

/// An event loop whose body carries a local from one iteration to the
/// next: `acc` halves each iteration, so a corrupted value decays back to
/// the golden one over many iterations, and the local is what re-matches
/// last.
const CARRIED_LOCAL_SRC: &str = "class A { int[] h; void main() {
    int acc = 0; h = new int[3];
    SSJAVA: while (true) {
        int x = Device.read();
        acc = acc / 2 + x;
        SSJavaArray.insert(h, x);
        Out.emit(acc + h[0]);
    } } }";

fn carried_inputs() -> ScriptedInput {
    ScriptedInput::new().channel(
        "read",
        vec![Value::Int(3), Value::Int(9), Value::Int(4), Value::Int(7)],
    )
}

#[test]
fn campaign_is_exact_with_a_loop_carried_local() {
    let program = sjava_syntax::parse(CARRIED_LOCAL_SRC).expect("parses");
    let trials = assert_campaign_exact(
        "carried-local",
        &program,
        ("A", "main"),
        carried_inputs,
        24,
        Grid::MonteCarlo,
    );
    assert!(
        trials
            .iter()
            .any(|t| t.stats.diverged && t.stats.recovery_iterations > 3),
        "some corrupted `acc` must take several iterations to decay"
    );
}

#[test]
fn campaign_is_exact_when_the_event_loop_sits_in_a_callee() {
    // Only the entry frame is given event-loop iterations (by both
    // engines), so a loop in a callee ends at its first head: every
    // trial runs instantiation and the entry's prologue, starting from
    // the pre- or post-instantiation state, and must still equal a full
    // run.
    let program = sjava_syntax::parse(
        "class A { B b; int warm = 2 * 3; void main() {
            b = new B(); int k = Device.read() + warm; b.loop(k);
        } }
        class B { int acc; void loop(int k) { SSJAVA: while (true) {
            acc = acc + k; Out.emit(acc);
        } } }",
    )
    .expect("parses");
    let trials = assert_campaign_exact(
        "callee-loop",
        &program,
        ("A", "main"),
        carried_inputs,
        5,
        Grid::Lattice {
            seeds: 3,
            triggers: 4,
        },
    );
    assert!(!trials.is_empty());
}

/// A replayed trial's whole output stream: the golden run's, with the
/// executed iterations in place.
fn stitched(trial: &TrialRun, golden: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let end = trial.first + trial.outputs.len();
    let mut out = golden[..trial.first].to_vec();
    out.extend(trial.outputs.iter().cloned());
    if trial.converged {
        out.extend_from_slice(&golden[end..]);
    }
    out
}

/// `Vm::replay` of one injector against a fresh recording, checked
/// against a full run: returns whether the trial re-converged.
fn replay_matches_full_run<I: InputProvider + Clone>(
    program: &Program,
    inputs: &I,
    iterations: usize,
    injector: impl Fn() -> Injector,
) -> bool {
    let module = compile(program);
    let mut vm = Vm::new(&module, inputs.clone(), ExecOptions::default());
    let rec = vm.record("A", "main", iterations).expect("records");
    let trial = vm.replay(&rec, injector()).expect("replays");
    let mut full_vm = Vm::new(&module, inputs.clone(), ExecOptions::default());
    full_vm.set_injector(Some(injector()));
    let full = full_vm.run("A", "main", iterations).expect("full run");
    assert_eq!(trial.injected_at, full.injected_at);
    assert_eq!(
        format!("{:?}", stitched(&trial, &rec.result.iteration_outputs)),
        format!("{:?}", full.iteration_outputs)
    );
    trial.converged
}

#[test]
fn trigger_inside_instantiation_and_past_the_end() {
    let program = sjava_syntax::parse(
        "class A { int warm = 1 + 2; float g = 0.5 * 3.0; int prev; void main() {
            SSJAVA: while (true) {
                int x = Device.read();
                Out.emit(prev + x + warm);
                prev = x;
            } } }",
    )
    .expect("parses");
    let inputs = carried_inputs();
    let module = compile(&program);
    let rec = Vm::new(&module, inputs.clone(), ExecOptions::default())
        .record("A", "main", 8)
        .expect("records");
    // Step 1 is the field initializer's addition.
    assert_eq!(rec.start_step(1), 0, "step 1 lies before every checkpoint");
    for seed in 0..6u64 {
        for kind in [InjectKind::Op, InjectKind::Heap] {
            replay_matches_full_run(&program, &inputs, 8, || Injector::with_kind(seed, 1, kind));
            replay_matches_full_run(&program, &inputs, 8, || Injector::with_kind(seed, 2, kind));
            let past = rec.result.steps + 1 + seed;
            replay_matches_full_run(&program, &inputs, 8, || {
                Injector::with_kind(seed, past, kind)
            });
        }
    }
}

#[test]
fn burst_trials_run_past_every_trigger() {
    // The first fault is flushed long before the second fires: a trial
    // may only stop once the injector is spent.
    let program = sjava_syntax::parse(CARRIED_LOCAL_SRC).expect("parses");
    let per_iter = {
        let module = compile(&program);
        let rec = Vm::new(&module, carried_inputs(), ExecOptions::default())
            .record("A", "main", 24)
            .expect("records");
        rec.result.steps / 24
    };
    let mut late = 0;
    for seed in 0..8u64 {
        let (a, b) = (2 * per_iter + seed, 14 * per_iter + seed);
        let burst = || Injector::burst(seed, vec![a, b], InjectKind::Heap);
        replay_matches_full_run(&program, &carried_inputs(), 24, burst);
        let module = compile(&program);
        let mut vm = Vm::new(&module, carried_inputs(), ExecOptions::default());
        vm.set_injector(Some(burst()));
        let run = vm.run("A", "main", 24).expect("full run");
        let mut single = Vm::new(&module, carried_inputs(), ExecOptions::default());
        single.set_injector(Some(Injector::burst(seed, vec![a], InjectKind::Heap)));
        let first_only = single.run("A", "main", 24).expect("full run");
        late += usize::from(run.iteration_outputs[14..] != first_only.iteration_outputs[14..]);
    }
    assert!(late > 0, "some second fault must change later outputs");
}

#[test]
fn negative_zero_in_carried_state_is_not_a_match() {
    // A corrupted `s` turns `z = s * 0.0` into -0.0 where the golden run
    // has 0.0, and `s` itself is reset right after. `==` cannot tell the
    // two states apart, but the fifth iteration's reciprocal of `z` can:
    // the trial must run on to it. (`1.0 / z` would not do: float
    // division by zero is a soft error that yields 0.0 in this dialect.)
    let program = sjava_syntax::parse(
        "class A { float s = 5.0; float z; void main() { SSJAVA: while (true) {
            int t = Device.read();
            if (t == 1) { z = s * 0.0; s = 5.0; }
            if (t == 4) { Out.emit(Math.pow(z, -1.0)); }
            Out.emit(t);
        } } }",
    )
    .expect("parses");
    let inputs = ScriptedInput::new().channel("read", (0..6).map(Value::Int).collect());
    let module = compile(&program);
    let rec = Vm::new(&module, inputs.clone(), ExecOptions::default())
        .record("A", "main", 6)
        .expect("records");
    assert_eq!(
        rec.result.iteration_outputs[4][0],
        Value::Float(f64::INFINITY)
    );
    let mut hits = 0;
    for trigger in 1..=rec.result.steps / 2 {
        for seed in 0..8u64 {
            // Cell rank 0 is `s` (fields in name order).
            let injector = || Injector::targeted_cell(seed, trigger, 0);
            let mut full_vm = Vm::new(&module, inputs.clone(), ExecOptions::default());
            full_vm.set_injector(Some(injector()));
            let full = full_vm.run("A", "main", 6).expect("full run");
            let converged = replay_matches_full_run(&program, &inputs, 6, injector);
            if full.iteration_outputs[4][0] == Value::Float(f64::NEG_INFINITY) {
                hits += 1;
                assert!(
                    !converged,
                    "trigger {trigger} seed {seed}: -0.0 taken for 0.0"
                );
            }
        }
    }
    assert!(hits > 0, "some trial must leave -0.0 in `z`");
}

#[test]
fn a_shifted_input_cursor_is_not_a_match() {
    // A corrupted `n` takes an extra read; the iteration then resets
    // every local, so heap and registers equal the golden run's and only
    // the input cursor — one value ahead — tells the trial apart.
    let program = sjava_syntax::parse(
        "class A { void main() { SSJAVA: while (true) {
            int n = Device.read(); int d = 0;
            if (n > 100) { d = Device.read(); }
            Out.emit(n);
            n = 0; d = 0;
        } } }",
    )
    .expect("parses");
    let inputs = ScriptedInput::new().channel("read", (1..8).map(Value::Int).collect());
    let rec = Vm::new(&compile(&program), inputs.clone(), ExecOptions::default())
        .record("A", "main", 10)
        .expect("records");
    let mut shifted = 0;
    for trigger in 1..rec.result.steps / 2 {
        for seed in 0..4u64 {
            let injector = || Injector::with_kind(seed, trigger, InjectKind::Op);
            let converged = replay_matches_full_run(&program, &inputs, 10, injector);
            shifted += usize::from(!converged);
        }
    }
    assert!(shifted > 0, "some trial must read past the golden cursor");
}

/// [`ScriptedInput`] without a cursor comparison.
#[derive(Clone)]
struct Opaque(ScriptedInput);

impl InputProvider for Opaque {
    fn next(&mut self, channel: &str) -> Value {
        self.0.next(channel)
    }
}

#[test]
fn inputs_that_cannot_compare_never_stop_a_trial_early() {
    let program = sjava_syntax::parse(CARRIED_LOCAL_SRC).expect("parses");
    let strip = |trials: Vec<TrialOutcome>| {
        trials
            .into_iter()
            .map(|t| (t.seed, t.trigger, t.injected_at, t.stats))
            .collect::<Vec<_>>()
    };
    let opaque = assert_campaign_exact(
        "opaque-inputs",
        &program,
        ("A", "main"),
        || Opaque(carried_inputs()),
        24,
        Grid::MonteCarlo,
    );
    let comparable = assert_campaign_exact(
        "scripted-inputs",
        &program,
        ("A", "main"),
        carried_inputs,
        24,
        Grid::MonteCarlo,
    );
    assert_eq!(strip(opaque), strip(comparable));
    for seed in 0..8u64 {
        let injector = || Injector::with_kind(seed, 40 + seed * 11, InjectKind::Heap);
        assert!(!replay_matches_full_run(
            &program,
            &Opaque(carried_inputs()),
            24,
            injector
        ));
        assert!(replay_matches_full_run(
            &program,
            &carried_inputs(),
            24,
            injector
        ));
    }
}
