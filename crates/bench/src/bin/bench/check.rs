//! `bench check`: whole-program checking throughput, written to
//! `results/BENCH_checker.json`. Every run is a cold check, parse
//! included.
//!
//! - Paper-app fan-out: the four apps × reps checks spread over the
//!   pool, against one worker.
//! - Per-app checks at one worker: min, median and per-phase medians.
//! - Small-app tax: windsensor at one worker and on the full pool. The
//!   adaptive cutover must keep the ratio ≥ 0.95 (skipped at one worker).
//! - Stress corpus (small preset under `--gate`, large otherwise) at 1,
//!   4 and max workers; ≥ 2.5x at 4 workers (skipped below 4 workers).

use std::time::Instant;

use sjava_bench::stressgen::{self, StressConfig};
use sjava_bench::{assert_clean, ms, obj, paper_apps, with_threads, Gate, Mode, Obj, Sample};
use sjava_core::PhaseTimings;

/// Stress-corpus speedup floor at 4 workers.
const STRESS_FLOOR: f64 = 2.5;
/// Small-app single-check ratio floor, full pool vs one worker.
const SMALL_FLOOR: f64 = 0.95;

fn check_once(name: &str, source: &str) -> PhaseTimings {
    let report = sjava_core::check_source(source).expect("benchmark parses");
    assert_clean(name, &report.diagnostics);
    report.timings
}

/// `reps` timed checks at pool width `threads`.
fn time_checks(name: &str, source: &str, reps: usize, threads: usize) -> Sample {
    with_threads(threads, || {
        Sample::time(reps, || check_once(name, source).phases())
    })
}

pub fn run(mode: Mode, gate: &mut Gate) {
    let reps = mode.pick(5, 7);
    let threads = sjava_par::num_threads();
    let apps = paper_apps();
    let cfg = mode.pick(StressConfig::small(), StressConfig::large());
    let stress = stressgen::generate(&cfg);
    let stress_name = cfg.label();
    println!("\nbench check — whole-program checking throughput");
    println!(
        "{} paper apps + stress corpus `{stress_name}` ({} methods); {reps} reps; pool width {threads}",
        apps.len(),
        cfg.method_count()
    );

    // Warm-up so no pass pays first-touch costs.
    for (name, source) in apps {
        check_once(name, source);
    }
    check_once(&stress_name, &stress);

    let fanout = |width: usize| {
        with_threads(width, || {
            let t = Instant::now();
            sjava_par::run_indexed_with(apps.len() * reps, width, |i| {
                let (name, source) = apps[i / reps];
                check_once(name, source)
            });
            ms(t.elapsed())
        })
    };
    let (fan_seq, fan_par) = (fanout(1), fanout(threads));
    let fan_speedup = fan_seq / fan_par.max(1e-9);
    println!(
        "paper-app fan-out: {fan_seq:.1} ms sequential, {fan_par:.1} ms on {threads} workers ({fan_speedup:.2}x)"
    );

    let app_samples: Vec<(&str, Sample)> = apps
        .iter()
        .map(|&(name, source)| (name, time_checks(name, source, reps, 1)))
        .collect();

    let (small_name, small_src) = apps[0];
    let small_seq = time_checks(small_name, small_src, reps, 1);
    let small_par = time_checks(small_name, small_src, reps, threads);
    let small_speedup = small_seq.median() / small_par.median().max(1e-9);
    println!(
        "small-app single check ({small_name}): {:.3} ms @1, {:.3} ms @{threads} ({small_speedup:.2}x)",
        small_seq.median(),
        small_par.median()
    );

    let four = 4.min(threads);
    let stress_seq = time_checks(&stress_name, &stress, reps, 1);
    let stress_par4 = time_checks(&stress_name, &stress, reps, four);
    let stress_parn = time_checks(&stress_name, &stress, reps, threads);
    let speedup4 = stress_seq.median() / stress_par4.median().max(1e-9);
    let speedupn = stress_seq.median() / stress_parn.median().max(1e-9);
    println!(
        "stress corpus: {:.1} ms @1, {:.1} ms @{four} ({speedup4:.2}x), {:.1} ms @{threads} ({speedupn:.2}x)",
        stress_seq.median(),
        stress_par4.median(),
        stress_parn.median()
    );

    gate.floor(
        &format!("stress check speedup at {four} workers"),
        speedup4,
        STRESS_FLOOR,
        (threads < 4).then_some("fewer than 4 workers"),
    );
    gate.floor(
        &format!("small-app ({small_name}) check at {threads} workers vs 1"),
        small_speedup,
        SMALL_FLOOR,
        (threads < 2).then_some("one worker: no parallel tax to measure"),
    );

    let benchmarks: Vec<Obj> = app_samples
        .iter()
        .map(|(name, s)| {
            obj! {
                "name" => *name, "total_ms_min" => s.min(), "total_ms_median" => s.median(),
                "phases_ms" => s.phases(),
            }
        })
        .collect();
    let report = obj! {
        "threads" => threads, "reps" => reps,
        "paper_apps" => obj! {
            "fanout_sequential_wall_ms" => fan_seq, "fanout_parallel_wall_ms" => fan_par,
            "fanout_speedup" => fan_speedup,
            "single_check" => obj! {
                "app" => small_name, "seq_ms_min" => small_seq.min(),
                "seq_ms_median" => small_seq.median(), "par_ms_min" => small_par.min(),
                "par_ms_median" => small_par.median(), "speedup" => small_speedup,
            },
            "benchmarks" => benchmarks,
        },
        "stress" => obj! {
            "name" => stress_name.as_str(), "methods" => cfg.method_count(), "seed" => cfg.seed,
            "seq_ms_min" => stress_seq.min(), "seq_ms_median" => stress_seq.median(),
            "par4_ms_min" => stress_par4.min(), "par4_ms_median" => stress_par4.median(),
            "speedup_at_4" => speedup4,
            "parmax_ms_min" => stress_parn.min(), "parmax_ms_median" => stress_parn.median(),
            "speedup_at_max" => speedupn,
            "phases_seq_ms" => stress_seq.phases(), "phases_parmax_ms" => stress_parn.phases(),
        },
    };
    mode.write("BENCH_checker.json", report);
}
