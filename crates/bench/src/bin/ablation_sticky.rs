//! Ablation: what the checker buys you. Runs the same injection campaign
//! against (a) a verified self-stabilizing averager and (b) its sticky
//! variant that keeps a running accumulator — rejected by the checker —
//! and shows that the rejected program never recovers while the verified
//! one always does.
//!
//! Usage: `cargo run --release -p sjava-bench --bin ablation_sticky`

use sjava_bench::{env_usize, write_result};
use sjava_core::check_program;
use sjava_runtime::{Campaign, SeededInput};

/// Windowed average over the last 4 inputs: self-stabilizing.
const GOOD: &str = r#"
@LATTICE("W0")
class Avg {
    @LOC("W0") int[] win;
    @LATTICE("T<IN") @THISLOC("T")
    void main() {
        win = new int[4];
        SSJAVA: while (true) {
            @LOC("IN") int x = Device.read();
            SSJavaArray.insert(win, x);
            Out.emit((win[0] + win[1] + win[2] + win[3]) / 4);
        }
    }
}"#;

/// Running average via a running sum: the corruption is permanent. The
/// best possible annotation uses shared locations for the accumulators —
/// and the shared-location eviction extension still rejects it, because
/// the accumulators are never cleared from a higher location.
const STICKY: &str = r#"
@LATTICE("CNT<TOPF,TOT<TOPF,TOT*,CNT*")
class Avg {
    @LOC("TOT") int total;
    @LOC("CNT") int count;
    @LATTICE("T<IN") @THISLOC("T")
    void main() {
        SSJAVA: while (true) {
            @LOC("IN") int x = Device.read();
            total = total + x;
            count = count + 1;
            Out.emit(total / count);
        }
    }
}"#;

fn campaign(
    name: &str,
    source: &str,
    expect_ok: bool,
    trials: usize,
    csv: &mut String,
) -> (usize, usize, usize) {
    let program = sjava_syntax::parse(source).expect("parses");
    let report = check_program(&program);
    assert_eq!(report.is_ok(), expect_ok, "{name}: {}", report.diagnostics);
    let verdict = if report.is_ok() {
        "verified"
    } else {
        "REJECTED"
    };
    println!("{name}: checker verdict = {verdict}");

    let iterations = 50;
    let campaign = Campaign {
        trials,
        inject_window: 0.5,
        ..Campaign::new(&program, ("Avg", "main"), iterations)
    };
    let out = campaign
        .run(|| SeededInput::new(0))
        .expect("campaign entry resolves");
    let mut diverged = 0;
    let mut unrecovered = 0;
    let mut worst = 0usize;
    for t in &out.trials {
        if t.stats.diverged {
            diverged += 1;
            worst = worst.max(t.stats.recovery_iterations);
            if t.stats.last_bad_iteration == Some(iterations - 1) {
                unrecovered += 1;
            }
        }
        csv.push_str(&format!(
            "{name},{},{},{}\n",
            t.seed, t.stats.diverged, t.stats.recovery_iterations
        ));
    }
    println!(
        "  {diverged}/{trials} corrupted; {unrecovered} still wrong at the end of the run; worst recovery window {worst} iterations\n"
    );
    (diverged, unrecovered, worst)
}

fn main() {
    let trials = env_usize("SJAVA_TRIALS", 60);
    println!("Ablation — verified vs rejected program under identical injections\n");
    let mut csv = String::from("program,seed,diverged,recovery_iterations\n");
    let (_, good_unrec, good_worst) = campaign(
        "windowed average (checker-verified)",
        GOOD,
        true,
        trials,
        &mut csv,
    );
    let (sticky_div, sticky_unrec, _) = campaign(
        "running sum (checker-rejected)",
        STICKY,
        false,
        trials,
        &mut csv,
    );

    assert_eq!(good_unrec, 0, "verified program must always recover");
    assert!(good_worst <= 4, "window depth bounds recovery");
    assert!(
        sticky_unrec > sticky_div / 2,
        "the sticky accumulator keeps most corruptions forever"
    );
    println!("the self-stabilization verdict predicts runtime behaviour exactly");
    let path = write_result("ablation_sticky.csv", &csv);
    println!("written to {}", path.display());
}
