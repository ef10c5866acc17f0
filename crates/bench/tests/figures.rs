//! The figure binaries, end to end: `eval_eye`, `eval_robot` and
//! `ablation_sticky` must reproduce the committed `results/*.csv` byte
//! for byte, and `fig6_1` at 2,000 trials its fixture under
//! `tests/fixtures/` (the committed CSV is the 100,000-trial default,
//! minutes of work). Each binary also asserts its own recovery bound
//! before it exits (eye ≤ 3 iterations, robot ≤ 1, mp3dec ≤ ~2 frames,
//! the sticky accumulator mostly never recovers), so those run here too.
//! A malformed scaling setting must stop a binary before it writes
//! anything.

use std::path::Path;
use std::process::{Command, Output};

use sjava_bench::TempDir;

/// The scaling settings the figure binaries read; cleared for every run.
const SETTINGS: [&str; 6] = [
    "SJAVA_TRIALS",
    "SJAVA_ITERS",
    "SJAVA_GRANULE",
    "SJAVA_WINDOW",
    "SJAVA_FRAMES",
    "SJAVA_SEED",
];

fn run(bin: &str, dir: &Path, env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    cmd.current_dir(dir);
    for setting in SETTINGS {
        cmd.env_remove(setting);
    }
    cmd.envs(env.iter().copied()).output().expect("binary runs")
}

/// Runs `bin` with `env` and compares the `results/{csv}` it writes
/// with `expected`, relative to this crate.
fn assert_writes(bin: &str, env: &[(&str, &str)], csv: &str, expected: &str) {
    let dir = TempDir::new(&format!("figures-{csv}"));
    let out = run(bin, &dir.0, env);
    assert!(
        out.status.success(),
        "{bin} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(dir.0.join("results").join(csv)).expect("csv written");
    let expected = Path::new(env!("CARGO_MANIFEST_DIR")).join(expected);
    let expected = std::fs::read_to_string(expected).expect("expected csv");
    assert_eq!(written, expected, "{csv} differs from the expected file");
}

fn assert_reproduces(bin: &str, csv: &str) {
    assert_writes(bin, &[], csv, &format!("../../results/{csv}"));
}

#[test]
fn eval_eye_reproduces_its_csv() {
    assert_reproduces(env!("CARGO_BIN_EXE_eval_eye"), "eval_eye.csv");
}

#[test]
fn eval_robot_reproduces_its_csv() {
    assert_reproduces(env!("CARGO_BIN_EXE_eval_robot"), "eval_robot.csv");
}

#[test]
fn ablation_sticky_reproduces_its_csv() {
    assert_reproduces(env!("CARGO_BIN_EXE_ablation_sticky"), "ablation_sticky.csv");
}

#[test]
fn fig6_1_reproduces_its_ci_size_csv() {
    assert_writes(
        env!("CARGO_BIN_EXE_fig6_1"),
        &[("SJAVA_TRIALS", "2000")],
        "fig6_1.csv",
        "tests/fixtures/fig6_1_2000.csv",
    );
}

#[test]
fn malformed_setting_exits_2_and_writes_nothing() {
    let dir = TempDir::new("figures-malformed");
    let out = run(
        env!("CARGO_BIN_EXE_eval_eye"),
        &dir.0,
        &[("SJAVA_TRIALS", "abc")],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("SJAVA_TRIALS"));
    assert!(!dir.0.join("results").exists(), "no CSV may be written");
}
