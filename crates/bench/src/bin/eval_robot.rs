//! §6.2.3: sumo-robot error-injection evaluation — 100 executions with
//! injected errors; the paper observed 54 with changed outputs, all
//! resuming normal behaviour in the next iteration of the event loop.
//!
//! Usage: `cargo run --release -p sjava-bench --bin eval_robot`

use sjava_apps::sumobot;
use sjava_bench::{env_usize, write_result};
use sjava_runtime::Campaign;

fn main() {
    let trials = env_usize("SJAVA_TRIALS", 100);
    let iterations = env_usize("SJAVA_ITERS", 60);
    let program = sjava_syntax::parse(sumobot::SOURCE).expect("parses");
    let report = sjava_core::check_program(&program);
    assert!(report.is_ok(), "{}", report.diagnostics);

    let campaign = Campaign {
        trials,
        inject_window: 0.7,
        ..Campaign::new(&program, sumobot::ENTRY, iterations)
    };
    let out = campaign
        .run(|| sumobot::inputs(0))
        .expect("campaign entry resolves");
    let mut changed = 0usize;
    let mut worst = 0usize;
    let mut csv = String::from("seed,diverged,recovery_iterations\n");
    for t in &out.trials {
        csv.push_str(&format!(
            "{},{},{}\n",
            t.seed, t.stats.diverged, t.stats.recovery_iterations
        ));
        if t.stats.diverged {
            changed += 1;
            worst = worst.max(t.stats.recovery_iterations);
        }
    }
    println!("§6.2.3 — Sumo Robot error injection");
    println!("{changed}/{trials} executions with changed movement decisions (paper: 54/100)");
    println!("worst recovery: {worst} iteration(s) (paper: next iteration in all trials)");
    let path = write_result("eval_robot.csv", &csv);
    println!("written to {}", path.display());
    assert!(
        worst <= 1,
        "the stateless controller must recover by the next iteration"
    );
}
