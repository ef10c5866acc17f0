//! `bench`: the timing legs and CI gates of the workspace.
//!
//! ```text
//! bench [check|infer|edit|vm] [--gate]
//! ```
//!
//! With no leg named, all four run, in that order, in one process.
//! Without `--gate` the legs run at report sizes and rewrite their
//! `results/BENCH_*.json`; with it they run at the smaller CI sizes and
//! write nothing. Every identity check and floor runs in both modes and
//! prints as it goes; the exit status is 1 if any failed, 2 on a usage
//! error.
//!
//! Usage: `cargo run --release -p sjava-bench --bin bench -- [leg] [--gate]`

mod check;
mod edit;
mod infer;
mod vm;

use std::process::ExitCode;

use sjava_bench::{Gate, Mode};

type Leg = fn(Mode, &mut Gate);

const LEGS: [(&str, Leg); 4] = [
    ("check", check::run),
    ("infer", infer::run),
    ("edit", edit::run),
    ("vm", vm::run),
];

fn main() -> ExitCode {
    let mut mode = Mode::Report;
    let mut only: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--gate" => mode = Mode::Gate,
            leg if only.is_none() && LEGS.iter().any(|(name, _)| *name == leg) => only = Some(arg),
            _ => {
                eprintln!("error: unexpected argument `{arg}`\nusage: bench [check|infer|edit|vm] [--gate]");
                return ExitCode::from(2);
            }
        }
    }
    let mut gate = Gate::default();
    for (name, run) in LEGS {
        if only.as_deref().is_none_or(|leg| leg == name) {
            run(mode, &mut gate);
        }
    }
    gate.finish()
}
