//! Figure 6.1: distribution of the number of output samples required for
//! the MP3 decoder to return to normal behaviour after an error
//! injection (1,000 trials in the paper; 466 with corrupted outputs).
//!
//! Trials run as a batched campaign on the register-bytecode VM — one
//! compile, one recorded golden run, and per trial a checkpoint restore
//! before the trigger and a stop once the state re-matches the golden
//! run — which is what makes the 100k-trial default tractable. `bench
//! vm --gate` enforces trace identity between the VM and the
//! tree-walking interpreter and replays campaign trials on the
//! interpreter.
//!
//! Usage: `cargo run --release -p sjava-bench --bin fig6_1`
//! Env overrides: `SJAVA_TRIALS` (default 100000), `SJAVA_GRANULE` (192),
//! `SJAVA_WINDOW` (8), `SJAVA_FRAMES` (10).

use sjava_apps::mp3dec;
use sjava_bench::{env_usize, write_result};
use sjava_runtime::{Campaign, RecoveryHistogram};

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
    let campaign = Campaign {
        trials,
        inject_window: 0.6,
        eps: 1e-9,
        ..Campaign::new(&program, mp3dec::ENTRY, frames)
    };
    let out = campaign
        .run(|| mp3dec::inputs_for(0, granule))
        .expect("campaign entry resolves");
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "golden run: {} samples, {} steps",
        out.golden.outputs().len(),
        out.golden.steps
    );

    let mut hist =
        RecoveryHistogram::new((frame_samples / 8).max(1) as u64, 3 * frame_samples as u64);
    let mut diverged = 0usize;
    let mut max_recovery = 0usize;
    let mut recoveries: Vec<usize> = Vec::new();
    for t in out.trials.iter().filter(|t| t.stats.diverged) {
        diverged += 1;
        let r = t.stats.recovery_samples;
        hist.record(&t.stats, r as u64);
        recoveries.push(r);
        max_recovery = max_recovery.max(r);
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
    let peak = hist.buckets.iter().enumerate().max_by_key(|&(_, &n)| n);
    if let Some((i, &peak_n)) = peak.filter(|&(_, &n)| n > 0) {
        let peak_lo = i as u64 * hist.bucket_width;
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
