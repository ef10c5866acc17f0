//! `bench vm`: the register-bytecode VM against the tree-walking
//! interpreter, written to `results/BENCH_vm.json`.
//!
//! - Trace identity: the engines' full `Result<RunResult, RuntimeError>`
//!   (outputs, step counts, error logs, injection points) must match on
//!   the five apps, and on the small, default and adversarial stress
//!   presets, plain and with 16 injected faults each.
//! - Single-thread runs/sec of both engines per app, execution only, and
//!   the VM's step rate (the run's steps over its fastest rep's `run`,
//!   in Msteps/s). Each rep times one run of each engine, alternating
//!   which goes first, so host drift lands on both engines alike.
//!   Runs/sec count each run with its fresh inputs, on both engines. The
//!   VM must be ≥ 5x faster on mp3dec (skipped below 4 cores, where the
//!   measurement is too noisy).
//! - Campaign: mp3dec Monte-Carlo trials on the VM (48 under `--gate`,
//!   2000 otherwise). The first 48 (200) are replayed from scratch on
//!   the interpreter with each trial's own injector; the fire step and
//!   the recovery stats must match. Throughput is advisory.

use std::time::Instant;

use sjava_apps::{eyetrack, mp3dec, sumobot, weather, windsensor};
use sjava_bench::stressgen::{self, StressConfig};
use sjava_bench::{obj, Gate, Mode, Obj};
use sjava_runtime::campaign::TrialKind;
use sjava_runtime::inject::InjectKind;
use sjava_runtime::{
    compare_runs, compile, Campaign, ExecOptions, FnInput, Injector, InputProvider, Interpreter,
    TrialOutcome, Value, Vm,
};
use sjava_syntax::ast::Program;

/// VM vs interpreter on mp3dec.
const SPEEDUP_FLOOR: f64 = 5.0;

/// Runs both engines on one app and compares the full debug form of the
/// outcome, then times `reps` runs of each (no parse, no compile, so the
/// ratio isolates dispatch cost). Returns the app's report row and the
/// VM's speedup.
fn bench_app<I, F>(
    name: &str,
    source: &str,
    entry: (&str, &str),
    make_inputs: F,
    iterations: usize,
    reps: usize,
    gate: &mut Gate,
) -> (Obj, f64)
where
    I: InputProvider + Clone,
    F: Fn() -> I,
{
    let program = sjava_syntax::parse(source).expect("app parses");
    let module = compile(&program);
    let interp = || {
        Interpreter::new(&program, make_inputs(), ExecOptions::default())
            .run(entry.0, entry.1, iterations)
    };
    let mut vm = Vm::new(&module, make_inputs(), ExecOptions::default());
    let golden = vm.run(entry.0, entry.1, iterations);
    let steps = golden.as_ref().map_or(0, |r| r.steps);
    let identical = format!("{:?}", interp()) == format!("{golden:?}");
    gate.check(identical, || {
        format!("{name}: VM and interpreter traces differ")
    });

    // Even reps run the interpreter first, odd reps the VM. The step
    // rate times the VM's `run` alone.
    let (mut interp_s, mut vm_s, mut best) = (0.0, 0.0, f64::INFINITY);
    for rep in 0..reps {
        for vm_turn in [rep % 2 == 1, rep % 2 == 0] {
            let t0 = Instant::now();
            if vm_turn {
                vm.set_inputs(make_inputs());
                let t1 = Instant::now();
                let _ = vm.run(entry.0, entry.1, iterations);
                best = best.min(t1.elapsed().as_secs_f64());
                vm_s += t0.elapsed().as_secs_f64();
            } else {
                let _ = interp();
                interp_s += t0.elapsed().as_secs_f64();
            }
        }
    }
    let interp_rps = reps as f64 / interp_s.max(1e-12);
    let vm_rps = reps as f64 / vm_s.max(1e-12);
    let msteps = steps as f64 / best.max(1e-12) / 1e6;
    let speedup = vm_rps / interp_rps;
    let same = if identical { "yes" } else { "NO" };
    println!(
        "{name:<12} {iterations:>6} {same:>9} {interp_rps:>14.1} {vm_rps:>14.1} {msteps:>12.1} {speedup:>8.2}x"
    );
    let row = obj! {
        "app" => name, "iterations" => iterations, "identical" => identical,
        "interp_runs_per_sec" => interp_rps, "vm_runs_per_sec" => vm_rps,
        "vm_steps" => steps, "vm_msteps_per_sec" => msteps, "speedup" => speedup,
    };
    (row, speedup)
}

/// Whether both engines produce the same outcome, optionally injected
/// with `(seed, trigger, kind)`.
fn engines_agree<I: InputProvider + Clone>(
    program: &Program,
    entry: (&str, &str),
    inputs: I,
    iterations: usize,
    injection: Option<(u64, u64, InjectKind)>,
) -> bool {
    let module = compile(program);
    let mut interp = Interpreter::new(program, inputs.clone(), ExecOptions::default());
    let mut vm = Vm::new(&module, inputs, ExecOptions::default());
    if let Some((seed, trigger, kind)) = injection {
        interp = interp.with_injector(Injector::with_kind(seed, trigger, kind));
        vm = vm.with_injector(Injector::with_kind(seed, trigger, kind));
    }
    let a = interp.run(entry.0, entry.1, iterations);
    format!("{a:?}") == format!("{:?}", vm.run(entry.0, entry.1, iterations))
}

/// Engine identity over the stress presets, each plain and under a grid
/// of injected faults (both kinds, triggers spread over the golden run).
/// Returns `(configs_checked, mismatches)`.
fn stress_identity(iterations: usize, gate: &mut Gate) -> (usize, usize) {
    let presets = [
        StressConfig::small(),
        StressConfig::default(),
        StressConfig::adversarial(),
    ];
    let entry = ("StressMain", "run");
    let inputs = || FnInput::new(|_, i| Value::Int((i % 17) as i64 - 8));
    let (mut checked, mut mismatches) = (0, 0);
    for cfg in presets {
        let label = cfg.label();
        let program =
            sjava_syntax::parse(&stressgen::generate(&cfg)).expect("stress program parses");
        let steps = Interpreter::new(&program, inputs(), ExecOptions::default())
            .run(entry.0, entry.1, iterations)
            .expect("golden run")
            .steps;
        let mut injections = vec![None];
        for seed in 0..4u64 {
            for (t, frac) in [0.1f64, 0.35, 0.6, 0.85].into_iter().enumerate() {
                let trigger = ((steps as f64 * frac) as u64).max(1);
                let kind = if (seed + t as u64).is_multiple_of(2) {
                    InjectKind::Op
                } else {
                    InjectKind::Heap
                };
                injections.push(Some((seed, trigger, kind)));
            }
        }
        for injection in injections {
            let ok = engines_agree(&program, entry, inputs(), iterations, injection);
            gate.check(ok, || {
                format!("{label}: VM and interpreter diverge (injection {injection:?})")
            });
            checked += 1;
            mismatches += usize::from(!ok);
        }
    }
    (checked, mismatches)
}

/// The injector a campaign trial ran with.
fn injector(t: &TrialOutcome) -> Injector {
    match t.kind {
        TrialKind::Op => Injector::with_kind(t.seed, t.trigger, InjectKind::Op),
        TrialKind::HeapRandom => Injector::with_kind(t.seed, t.trigger, InjectKind::Heap),
        TrialKind::HeapCell(rank) => Injector::targeted_cell(t.seed, t.trigger, rank),
    }
}

pub fn run(mode: Mode, gate: &mut Gate) {
    let reps = mode.pick(3, 5);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mp3_src = mp3dec::source();
    println!("\nbench vm — tree-walking interpreter vs register-bytecode VM");
    println!("host: {cores} core(s); {reps} timing rep(s) per engine\n");
    println!(
        "{:<12} {:>6} {:>9} {:>14} {:>14} {:>12} {:>9}",
        "app", "iters", "identical", "interp runs/s", "vm runs/s", "vm Msteps/s", "speedup"
    );
    let rows = [
        bench_app(
            "windsensor",
            windsensor::SOURCE,
            windsensor::ENTRY,
            || windsensor::inputs(1),
            200,
            reps,
            gate,
        )
        .0,
        bench_app(
            "weather",
            weather::SOURCE,
            weather::ENTRY,
            || weather::inputs(1),
            200,
            reps,
            gate,
        )
        .0,
        bench_app(
            "sumobot",
            sumobot::SOURCE,
            sumobot::ENTRY,
            || sumobot::inputs(1),
            200,
            reps,
            gate,
        )
        .0,
        bench_app(
            "eyetrack",
            eyetrack::SOURCE,
            eyetrack::ENTRY,
            || eyetrack::inputs(1),
            200,
            reps,
            gate,
        )
        .0,
    ];
    let (mp3_row, mp3_speedup) = bench_app(
        "mp3dec",
        mp3_src,
        mp3dec::ENTRY,
        || mp3dec::inputs(0),
        8,
        reps,
        gate,
    );
    gate.floor(
        "mp3dec VM vs interpreter",
        mp3_speedup,
        SPEEDUP_FLOOR,
        (cores < 4).then_some("fewer than 4 cores: too noisy"),
    );

    let (stress_checked, stress_mismatches) = stress_identity(10, gate);
    println!("\nstress corpus: {stress_checked} engine-pair configs compared, {stress_mismatches} mismatch(es)");

    let program = sjava_syntax::parse(mp3_src).expect("decoder parses");
    let campaign = Campaign {
        trials: mode.pick(48, 2000),
        inject_window: 0.6,
        eps: 1e-9,
        ..Campaign::new(&program, mp3dec::ENTRY, 8)
    };
    let out = campaign
        .run(|| mp3dec::inputs(0))
        .expect("campaign entry resolves");
    let interp = || Interpreter::new(&program, mp3dec::inputs(0), ExecOptions::default());
    let golden = interp()
        .run(mp3dec::ENTRY.0, mp3dec::ENTRY.1, 8)
        .expect("golden run");
    let replayed = mode.pick(48, 200).min(out.trials.len());
    let t0 = Instant::now();
    let differs = sjava_par::run_indexed(replayed, |i| {
        let t = &out.trials[i];
        let run = interp()
            .with_injector(injector(t))
            .run(mp3dec::ENTRY.0, mp3dec::ENTRY.1, 8)
            .expect("injected run cannot fail in ignore-errors mode");
        let stats = compare_runs(
            &golden.iteration_outputs,
            &run.iteration_outputs,
            campaign.eps,
        );
        (run.injected_at, stats) != (t.injected_at, t.stats.clone())
    });
    let interp_tps = replayed as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    let mismatched: Vec<u64> = out
        .trials
        .iter()
        .zip(&differs)
        .filter(|(_, d)| **d)
        .map(|(t, _)| t.seed)
        .collect();
    println!(
        "\ncampaign (mp3dec, 8 frames): {} of {replayed} trials differ from the interpreter's",
        mismatched.len()
    );
    println!(
        "campaign throughput: VM {:.1} trials/s ({} trials) vs interpreter {interp_tps:.1} trials/s ({replayed} trials) — {:.2}x",
        out.trials_per_sec,
        out.trials.len(),
        out.trials_per_sec / interp_tps.max(1e-9)
    );
    gate.check(mismatched.is_empty(), || {
        format!("VM campaign trials differ from the interpreter's (seeds {mismatched:?})")
    });

    let mut apps = Vec::from(rows);
    apps.push(mp3_row);
    let report = obj! {
        "cores" => cores, "reps" => reps, "apps" => apps,
        "stress_configs_checked" => stress_checked, "stress_mismatches" => stress_mismatches,
        "campaign" => obj! {
            "app" => "mp3dec", "vm_trials" => out.trials.len(),
            "vm_trials_per_sec" => out.trials_per_sec, "interp_trials" => replayed,
            "interp_trials_per_sec" => interp_tps,
            "speedup" => out.trials_per_sec / interp_tps.max(1e-9),
            "trial_mismatches" => mismatched.len(),
        },
    };
    mode.write("BENCH_vm.json", report);
}
