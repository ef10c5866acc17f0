//! §6.2.2: eye-tracker error-injection evaluation — 100 executions with
//! injected errors; the paper observed 8 with changed output samples, all
//! recovering by the next iteration of the main event loop.
//!
//! Usage: `cargo run --release -p sjava-bench --bin eval_eye`

use sjava_apps::eyetrack;
use sjava_bench::{env_usize, write_result};
use sjava_runtime::Campaign;

fn main() {
    let trials = env_usize("SJAVA_TRIALS", 100);
    let iterations = env_usize("SJAVA_ITERS", 60);
    let program = sjava_syntax::parse(eyetrack::SOURCE).expect("parses");
    let report = sjava_core::check_program(&program);
    assert!(report.is_ok(), "{}", report.diagnostics);

    let campaign = Campaign {
        trials,
        inject_window: 0.7,
        ..Campaign::new(&program, eyetrack::ENTRY, iterations)
    };
    let out = campaign
        .run(|| eyetrack::inputs(0))
        .expect("campaign entry resolves");
    let mut changed = 0usize;
    let mut by_iters = [0usize; 8];
    let mut csv = String::from("seed,diverged,recovery_iterations\n");
    for t in &out.trials {
        csv.push_str(&format!(
            "{},{},{}\n",
            t.seed, t.stats.diverged, t.stats.recovery_iterations
        ));
        if t.stats.diverged {
            changed += 1;
            by_iters[t.stats.recovery_iterations.min(7)] += 1;
        }
    }
    println!("§6.2.2 — Eye Tracking error injection");
    println!("{changed}/{trials} executions with changed output samples (paper: 8/100)");
    for (i, &n) in by_iters.iter().enumerate() {
        if n > 0 {
            println!("  recovered within {i} iteration(s): {n}");
        }
    }
    println!(
        "worst case bound: 3 iterations (the 3-deep position history); the paper observed\nnext-iteration recovery in all its 8 divergent trials"
    );
    let path = write_result("eval_eye.csv", &csv);
    println!("written to {}", path.display());
    assert!(
        by_iters[4..].iter().all(|&n| n == 0),
        "recovery must be ≤3 iterations"
    );
}
