//! `bench infer`: annotation inference, the dense engine
//! ([`sjava_infer::infer_owned`]) against the legacy oracle
//! ([`sjava_infer::oracle::infer_owned`]), written to `results/BENCH_infer.json`. Every corpus
//! is stripped of its annotations first and inferred in SInfer mode
//! unless stated otherwise. Each rep annotates its own copy of the
//! corpus in place, as `sjava infer` annotates the program it parsed;
//! the copy is made outside the timed region.
//!
//! - Byte identity, checked before anything is timed: dense prints the
//!   same annotations as legacy on every corpus, in both modes, at 1, 4
//!   and max workers.
//! - Paper apps: legacy vs dense at one worker.
//! - Stress corpus (small preset under `--gate`, large otherwise):
//!   legacy at one worker against dense at 1, 4 and max workers, plus a
//!   naive-mode row. Dense must be ≥ 1.5x legacy at one worker, and
//!   dense at max width ≥ 1.0x dense at one (skipped below 4 workers).

use sjava_bench::stressgen::{self, StressConfig};
use sjava_bench::{obj, paper_apps, with_threads, Gate, Mode, Sample};
use sjava_infer::{InferenceResult, Mode as InferMode};
use sjava_syntax::ast::Program;
use sjava_syntax::pretty::print_program;
use sjava_syntax::strip::strip_location_annotations;

/// Dense-vs-legacy speedup floor on the stress corpus at one worker.
const DENSE_FLOOR: f64 = 1.5;
/// Dense at max width vs dense at one worker.
const SCALING_FLOOR: f64 = 1.0;

fn stripped(name: &str, source: &str) -> Program {
    let program = sjava_syntax::parse(source)
        .unwrap_or_else(|d| panic!("benchmark `{name}` fails to parse: {d}"));
    strip_location_annotations(&program)
}

/// An inference pipeline: the engine or its oracle, each annotating the
/// program it is given.
type Pipeline = fn(Program, InferMode) -> Result<InferenceResult, sjava_syntax::Diagnostics>;
/// The engine every command runs.
const DENSE: Pipeline = sjava_infer::infer_owned;
/// The legacy pipeline the engine must match.
const LEGACY: Pipeline = sjava_infer::oracle::infer_owned;

fn infer_once(name: &str, program: Program, mode: InferMode, engine: Pipeline) -> InferenceResult {
    engine(program, mode).unwrap_or_else(|d| panic!("inference of `{name}` failed: {d}"))
}

/// `reps` timed inference runs at pool width `threads`, each on a copy
/// of `program` made before its timer starts.
fn time_infers(
    name: &str,
    program: &Program,
    mode: InferMode,
    engine: Pipeline,
    reps: usize,
    threads: usize,
) -> Sample {
    with_threads(threads, || {
        Sample::time_each(
            reps,
            || program.clone(),
            |copy| infer_once(name, copy, mode, engine).timings.phases(),
        )
    })
}

pub fn run(mode: Mode, gate: &mut Gate) {
    let reps = mode.pick(5, 7);
    let threads = sjava_par::num_threads();
    let cfg = mode.pick(StressConfig::small(), StressConfig::large());
    let stress_name = cfg.label();
    let stress = stripped(&stress_name, &stressgen::generate(&cfg));
    let apps: Vec<(&str, Program)> = paper_apps()
        .iter()
        .map(|&(name, source)| (name, stripped(name, source)))
        .collect();
    println!("\nbench infer — annotation-inference throughput, dense vs legacy");
    println!(
        "{} paper apps + stripped stress corpus `{stress_name}` ({} methods); {reps} reps; pool width {threads}",
        apps.len(),
        cfg.method_count()
    );

    let mut widths = vec![1, 4.min(threads), threads];
    widths.dedup();
    let corpora = apps
        .iter()
        .map(|(name, program)| (*name, program))
        .chain([(stress_name.as_str(), &stress)]);
    for (name, program) in corpora {
        for im in [InferMode::Naive, InferMode::SInfer] {
            let text =
                |engine| print_program(&infer_once(name, program.clone(), im, engine).annotated);
            let oracle = with_threads(1, || text(LEGACY));
            for &w in &widths {
                let dense = with_threads(w, || text(DENSE));
                gate.check(dense == oracle, || {
                    format!(
                        "dense inference diverges from legacy on `{name}` ({im:?}, {w} workers)"
                    )
                });
            }
        }
    }
    println!(
        "byte-identity: dense vs legacy on {} corpora, both modes, {} pool width(s)",
        apps.len() + 1,
        widths.len()
    );

    // Warm-up so no timed pass pays first-touch costs.
    for (name, program) in &apps {
        infer_once(name, program.clone(), InferMode::SInfer, DENSE);
    }
    infer_once(&stress_name, stress.clone(), InferMode::SInfer, DENSE);

    let mut app_rows = Vec::new();
    for (name, program) in &apps {
        let legacy = time_infers(name, program, InferMode::SInfer, LEGACY, reps, 1);
        let dense = time_infers(name, program, InferMode::SInfer, DENSE, reps, 1);
        let speedup = legacy.median() / dense.median().max(1e-9);
        println!(
            "{name}: legacy {:.3} ms, dense {:.3} ms ({speedup:.2}x)",
            legacy.median(),
            dense.median()
        );
        app_rows.push(obj! {
            "name" => *name, "legacy_ms_min" => legacy.min(), "legacy_ms_median" => legacy.median(),
            "dense_ms_min" => dense.min(), "dense_ms_median" => dense.median(),
            "speedup" => speedup, "phases_dense_ms" => dense.phases(),
        });
    }

    let stress_run =
        |mode, engine, threads| time_infers(&stress_name, &stress, mode, engine, reps, threads);
    let four = 4.min(threads);
    let legacy_seq = stress_run(InferMode::SInfer, LEGACY, 1);
    let dense1 = stress_run(InferMode::SInfer, DENSE, 1);
    let dense4 = stress_run(InferMode::SInfer, DENSE, four);
    let densen = stress_run(InferMode::SInfer, DENSE, threads);
    let naive1 = stress_run(InferMode::Naive, DENSE, 1);
    let speedup1 = legacy_seq.median() / dense1.median().max(1e-9);
    let speedup4 = dense1.median() / dense4.median().max(1e-9);
    let speedupn = dense1.median() / densen.median().max(1e-9);
    println!(
        "stress corpus (SInfer): legacy {:.1} ms @1, dense {:.1} ms @1 ({speedup1:.2}x), {:.1} ms @{four} ({speedup4:.2}x vs dense@1), {:.1} ms @{threads} ({speedupn:.2}x)",
        legacy_seq.median(),
        dense1.median(),
        dense4.median(),
        densen.median()
    );
    println!("stress corpus (Naive, dense @1): {:.1} ms", naive1.median());

    gate.floor(
        "dense vs legacy stress inference at 1 worker",
        speedup1,
        DENSE_FLOOR,
        None,
    );
    gate.floor(
        &format!("dense stress inference at {threads} workers vs 1"),
        speedupn,
        SCALING_FLOOR,
        (threads < 4).then_some("fewer than 4 workers"),
    );

    let report = obj! {
        "threads" => threads, "reps" => reps, "paper_apps" => app_rows,
        "stress" => obj! {
            "name" => stress_name.as_str(), "methods" => cfg.method_count(), "seed" => cfg.seed,
            "legacy_ms_min" => legacy_seq.min(), "legacy_ms_median" => legacy_seq.median(),
            "dense1_ms_min" => dense1.min(), "dense1_ms_median" => dense1.median(),
            "speedup_dense_vs_legacy" => speedup1,
            "dense4_ms_min" => dense4.min(), "dense4_ms_median" => dense4.median(),
            "speedup_at_4" => speedup4,
            "densemax_ms_min" => densen.min(), "densemax_ms_median" => densen.median(),
            "speedup_at_max" => speedupn,
            "naive_dense1_ms_min" => naive1.min(), "naive_dense1_ms_median" => naive1.median(),
            "phases_legacy_ms" => legacy_seq.phases(), "phases_dense1_ms" => dense1.phases(),
            "phases_densemax_ms" => densen.phases(),
        },
    };
    mode.write("BENCH_infer.json", report);
}
