//! Figure 6.1: distribution of the number of output samples required for
//! the MP3 decoder to return to normal behaviour after an error
//! injection (1,000 trials in the paper; 466 with corrupted outputs).
//!
//! Trials run as a batched campaign on the register-bytecode VM — one
//! compile, one recorded golden run, and per trial a checkpoint restore
//! before the trigger and a stop once the state re-matches the golden
//! run — which is what makes the 100k-trial default tractable. Per-seed
//! triggers, kinds and recovery stats are identical to the historical
//! interpreter-per-trial pipeline (`bench_vm --gate` enforces trace
//! identity between the engines and checks campaign trials against the
//! interpreter).
//!
//! Usage: `cargo run --release -p sjava-bench --bin fig6_1`
//! Env overrides: `SJAVA_TRIALS` (default 100000), `SJAVA_GRANULE` (192),
//! `SJAVA_WINDOW` (8), `SJAVA_FRAMES` (10).

use sjava_apps::mp3dec;
use sjava_bench::{env_usize, run_trials_vm, write_result, Histogram};

fn main() {
    let trials = env_usize("SJAVA_TRIALS", 100_000);
    let granule = env_usize("SJAVA_GRANULE", mp3dec::GRANULE);
    let window = env_usize("SJAVA_WINDOW", mp3dec::WINDOW);
    let frames = env_usize("SJAVA_FRAMES", 10);
    let frame_samples = mp3dec::frame_samples(granule);

    let src = mp3dec::source_with(granule, window);
    let program = sjava_syntax::parse(&src).expect("decoder parses");
    let report = sjava_core::check_program(&program);
    assert!(report.is_ok(), "decoder must check: {}", report.diagnostics);

    println!("Fig 6.1 — MP3 decoder recovery distribution");
    println!(
        "granule={granule} (frame={frame_samples} samples; paper: 1152), trials={trials}, frames/run={frames}"
    );
    let started = std::time::Instant::now();
    // Inject within the first 60% of the run so recovery fits inside it.
    let (golden, results) = run_trials_vm(
        &program,
        mp3dec::ENTRY,
        || mp3dec::inputs_for(0, granule),
        frames,
        trials,
        0.6,
        1e-9,
    );
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "golden run: {} samples, {} steps",
        golden.outputs().len(),
        golden.steps
    );

    let mut hist = Histogram::new((frame_samples / 8).max(1), 3 * frame_samples);
    let mut diverged = 0usize;
    let mut max_recovery = 0usize;
    let mut recoveries: Vec<usize> = Vec::new();
    for t in results {
        if t.stats.diverged {
            diverged += 1;
            let r = t.stats.recovery_samples;
            hist.record(r);
            recoveries.push(r);
            max_recovery = max_recovery.max(r);
        }
    }
    recoveries.sort_unstable();
    let median = recoveries.get(recoveries.len() / 2).copied().unwrap_or(0);

    println!(
        "campaign: {trials} trials in {elapsed:.2}s ({:.0} trials/sec)",
        trials as f64 / elapsed.max(1e-9)
    );
    println!("\ntrials with corrupted outputs: {diverged}/{trials} (paper: 466/1000)");
    println!(
        "histogram of samples-until-normal-output (bucket width {}):",
        hist.bucket_width
    );
    print!("{}", hist.render());
    if let Some((peak_lo, peak_n)) = hist.peak() {
        println!(
            "peak bucket at {peak_lo} samples ({:.2} frames; paper's peak ≈1,700 samples ≈1.5 frames) with {peak_n} trials",
            peak_lo as f64 / frame_samples as f64
        );
    }
    println!(
        "median recovery {median} samples ({:.2} frames); max {max_recovery} samples ({:.2} frames; paper: all <2,208 ≈1.9 frames)",
        median as f64 / frame_samples as f64,
        max_recovery as f64 / frame_samples as f64
    );
    assert!(
        max_recovery <= 2 * frame_samples + window + frame_samples / 2,
        "recovery must stay bounded by ~2 frames (+window): {max_recovery}"
    );

    let csv = hist.to_csv();
    let path = write_result("fig6_1.csv", &csv);
    println!("histogram written to {}", path.display());
}
