//! `sjava` — command-line front end for the Self-Stabilizing Java tools.
//!
//! ```text
//! sjava check <file.sj> [--format=text|json|sarif] [--deny-warnings]
//!                                       verify self-stabilization
//! sjava check --explain SJ0xxx          describe a diagnostic code
//! sjava infer <file.sj> [--naive] [--timings]
//!                                       infer annotations, print source
//! sjava run <file.sj> <Class.method> N  run the event loop N iterations
//! sjava lattice <file.sj>               print declared lattices as DOT
//! sjava stress [--preset=small|large|adversarial] [--classes=N]
//!              [--methods=N] [--fields=N] [--depth=N] [--stmts=N]
//!              [--seed=N] [--delta-depth=N] [--degenerate=N]
//!              [--cyclic-delegates=N]
//!              [--check] [--infer]      emit a synthetic stress program
//! sjava fuzz [--seed=N] [--cases=N] [--oracle=all|check|infer|cache|parse|emit]
//!            [--minimize] [--fixtures-dir=DIR]
//!                                       differential-fuzz the engine pairs
//! sjava campaign --app=<windsensor|weather|sumobot|eyetrack|mp3dec|stress>
//!                [--trials=N] [--grid=mc|lattice:SEEDSxTRIGGERS] [--iters=N]
//!                [--window=F] [--eps=F] [--threads=N] [--out=PATH]
//!                                       batched fault-injection campaign on
//!                                       the register-bytecode VM; prints the
//!                                       recovery histogram, optional CSV out
//! ```
//!
//! Exit codes: `0` success, `1` the check (or another command) failed
//! with diagnostics, `2` usage or I/O error. Usage errors are reported
//! before any work starts.

use std::process::ExitCode;

use sjava::syntax::codes::Code;
use sjava::syntax::pretty::print_program;
use sjava::syntax::{emit, SourceFile};

/// Exit status for usage and I/O errors, distinct from check failures.
const EXIT_USAGE: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("check") if args.len() >= 2 => cmd_check(&args[1..]),
        Some("infer") if args.len() >= 2 => cmd_infer(&args[1..]),
        Some("run") if args.len() == 4 => cmd_run(&args[1], &args[2], &args[3]),
        Some("lattice") if args.len() == 2 => cmd_lattice(&args[1]),
        Some("lifetimes") if args.len() == 2 => cmd_lifetimes(&args[1]),
        Some("lint") if args.len() == 2 => cmd_lint(&args[1]),
        Some("vfg") if args.len() == 2 => cmd_vfg(&args[1]),
        Some("stress") => cmd_stress(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("campaign") if args.len() >= 2 => cmd_campaign(&args[1..]),
        _ => {
            eprintln!(
                "usage:\n  sjava check <file.sj> [--format=text|json|sarif] [--deny-warnings]\n  sjava check --explain SJ0xxx\n  sjava infer <file.sj> [--naive] [--timings]\n  sjava run <file.sj> <Class.method> <iterations>\n  sjava lattice <file.sj>\n  sjava lifetimes <file.sj>\n  sjava lint <file.sj>\n  sjava vfg <file.sj>\n  sjava stress [--preset=small|large|adversarial] [--classes=N] [--methods=N]\n               [--fields=N] [--depth=N] [--stmts=N] [--seed=N] [--delta-depth=N]\n               [--degenerate=N] [--cyclic-delegates=N] [--check] [--infer]\n  sjava fuzz [--seed=N] [--cases=N] [--oracle=all|check|infer|cache|parse|emit]\n             [--minimize] [--fixtures-dir=DIR]\n  sjava campaign --app=<windsensor|weather|sumobot|eyetrack|mp3dec|stress>\n                 [--trials=N] [--grid=mc|lattice:SEEDSxTRIGGERS] [--iters=N]\n                 [--window=F] [--eps=F] [--threads=N] [--out=PATH]"
            );
            ExitCode::from(EXIT_USAGE)
        }
    }
}

/// `sjava stress`: prints a deterministic synthetic stress program to
/// stdout (the same generator the benchmark harness uses). With
/// `--check`, runs the whole-program checker over it instead and reports
/// pass/fail — handy for timing the checker on arbitrary scales. With
/// `--infer`, strips the generated annotations and runs the inference
/// engine over the bare program instead:
///
/// ```text
/// sjava stress --classes=50 --methods=10 > big.sj
/// sjava stress --preset=large --check
/// sjava stress --preset=large --infer
/// ```
fn cmd_stress(args: &[String]) -> ExitCode {
    use sjava_bench::stressgen::StressConfig;

    let mut cfg = StressConfig::default();
    let mut check = false;
    let mut infer = false;
    for a in args {
        let numeric = |v: &str| -> Result<usize, ExitCode> {
            v.parse().map_err(|_| {
                eprintln!("error: `{a}` needs a non-negative integer value");
                ExitCode::from(EXIT_USAGE)
            })
        };
        let (flag, value) = match a.split_once('=') {
            Some((f, v)) => (f, v),
            None => (a.as_str(), ""),
        };
        match flag {
            "--preset" => match value {
                "small" => cfg = StressConfig::small(),
                "large" => cfg = StressConfig::large(),
                "default" => cfg = StressConfig::default(),
                "adversarial" => cfg = StressConfig::adversarial(),
                other => {
                    eprintln!(
                        "error: unknown preset `{other}` (expected small, default, large, or adversarial)"
                    );
                    return ExitCode::from(EXIT_USAGE);
                }
            },
            "--classes" => match numeric(value) {
                Ok(n) => cfg.classes = n,
                Err(c) => return c,
            },
            "--methods" => match numeric(value) {
                Ok(n) => cfg.methods = n,
                Err(c) => return c,
            },
            "--fields" => match numeric(value) {
                Ok(n) => cfg.fields = n,
                Err(c) => return c,
            },
            "--depth" => match numeric(value) {
                Ok(n) => cfg.loop_depth = n,
                Err(c) => return c,
            },
            "--stmts" => match numeric(value) {
                Ok(n) => cfg.stmts = n,
                Err(c) => return c,
            },
            "--seed" => match numeric(value) {
                Ok(n) => cfg.seed = n as u64,
                Err(c) => return c,
            },
            "--delta-depth" => match numeric(value) {
                Ok(n) => cfg.delta_depth = n,
                Err(c) => return c,
            },
            "--degenerate" => match numeric(value) {
                Ok(n) => cfg.degenerate = n,
                Err(c) => return c,
            },
            "--cyclic-delegates" => match numeric(value) {
                Ok(n) => cfg.cyclic_delegates = n,
                Err(c) => return c,
            },
            "--check" => check = true,
            "--infer" => infer = true,
            other => {
                eprintln!("error: unknown flag `{other}` for `sjava stress`");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    if check && infer {
        eprintln!("error: `sjava stress` takes `--check` or `--infer`, not both");
        return ExitCode::from(EXIT_USAGE);
    }

    let src = sjava_bench::stressgen::generate(&cfg);
    if infer {
        return stress_infer(&cfg, &src);
    }
    if !check {
        print!("{src}");
        eprintln!(
            "// {}: {} methods, {} bytes",
            cfg.label(),
            cfg.method_count(),
            src.len()
        );
        return ExitCode::SUCCESS;
    }

    let file = SourceFile::new(format!("<{}>", cfg.label()), src);
    let started = std::time::Instant::now();
    let diagnostics = match sjava::parse(&file.text) {
        Ok(program) => sjava::check(&program).diagnostics,
        Err(diags) => diags,
    };
    let elapsed = started.elapsed();
    for d in diagnostics.iter() {
        eprintln!("{}", d.render(&file));
    }
    let label = cfg.label();
    if diagnostics.has_errors() {
        println!("{label}: NOT verified self-stabilizing ✗ ({elapsed:.2?})");
        ExitCode::FAILURE
    } else {
        println!(
            "{label}: {} methods self-stabilizing ✓ ({elapsed:.2?})",
            cfg.method_count()
        );
        ExitCode::SUCCESS
    }
}

/// `sjava fuzz`: runs the differential fuzzing harness — seeded
/// adversarial case generation through the five engine-pair oracles,
/// with optional delta-debugging minimization and fixture emission:
///
/// ```text
/// sjava fuzz --seed=7 --cases=500
/// sjava fuzz --oracle=infer --cases=50 --minimize
/// sjava fuzz --minimize --fixtures-dir=findings/
/// ```
///
/// Exit code `0` when every case agreed, `1` when any oracle found a
/// mismatch. The run is byte-reproducible per `(seed, cases)`.
fn cmd_fuzz(args: &[String]) -> ExitCode {
    use sjava_bench::fuzz::{self, FuzzConfig, Oracle};

    let mut cfg = FuzzConfig::default();
    for a in args {
        let (flag, value) = match a.split_once('=') {
            Some((f, v)) => (f, v),
            None => (a.as_str(), ""),
        };
        let numeric = |v: &str| -> Result<u64, ExitCode> {
            v.parse().map_err(|_| {
                eprintln!("error: `{a}` needs a non-negative integer value");
                ExitCode::from(EXIT_USAGE)
            })
        };
        match flag {
            "--seed" => match numeric(value) {
                Ok(n) => cfg.seed = n,
                Err(c) => return c,
            },
            "--cases" => match numeric(value) {
                Ok(n) => cfg.cases = n as usize,
                Err(c) => return c,
            },
            "--oracle" => match Oracle::parse_set(value) {
                Some(set) => cfg.oracles = set,
                None => {
                    eprintln!(
                        "error: unknown oracle `{value}` (expected all, check, infer, cache, parse, or emit)"
                    );
                    return ExitCode::from(EXIT_USAGE);
                }
            },
            "--minimize" => cfg.minimize = true,
            "--fixtures-dir" => {
                if value.is_empty() {
                    eprintln!("error: `--fixtures-dir` needs a directory path");
                    return ExitCode::from(EXIT_USAGE);
                }
                cfg.fixtures_dir = Some(value.into());
            }
            other => {
                eprintln!("error: unknown flag `{other}` for `sjava fuzz`");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }

    let report = fuzz::run(&cfg);
    print!("{}", report.render());
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `sjava campaign`: runs a batched Monte-Carlo (or exhaustive-lattice)
/// fault-injection campaign on the register-bytecode VM — one compile,
/// one golden run, per-trial heap-snapshot restore — and prints the
/// recovery-time histogram:
///
/// ```text
/// sjava campaign --app=mp3dec --trials=100000
/// sjava campaign --app=windsensor --grid=lattice:4x32 --out=hist.csv
/// ```
fn cmd_campaign(args: &[String]) -> ExitCode {
    use sjava::runtime::Grid;

    let mut app: Option<String> = None;
    let mut trials = 1000usize;
    let mut grid = Grid::MonteCarlo;
    let mut iters: Option<usize> = None;
    let mut window = 0.8f64;
    let mut eps = 1e-9f64;
    let mut threads: Option<usize> = None;
    let mut out: Option<String> = None;
    for a in args {
        let (flag, value) = match a.split_once('=') {
            Some((f, v)) => (f, v),
            None => (a.as_str(), ""),
        };
        let numeric = |v: &str| -> Result<usize, ExitCode> {
            v.parse().map_err(|_| {
                eprintln!("error: `{a}` needs a non-negative integer value");
                ExitCode::from(EXIT_USAGE)
            })
        };
        let float = |v: &str| -> Result<f64, ExitCode> {
            v.parse().map_err(|_| {
                eprintln!("error: `{a}` needs a number");
                ExitCode::from(EXIT_USAGE)
            })
        };
        match flag {
            "--app" => app = Some(value.to_string()),
            "--trials" => match numeric(value) {
                Ok(n) => trials = n,
                Err(c) => return c,
            },
            "--iters" => match numeric(value) {
                Ok(n) => iters = Some(n),
                Err(c) => return c,
            },
            "--threads" => match numeric(value) {
                Ok(n) => threads = Some(n),
                Err(c) => return c,
            },
            "--window" => match float(value) {
                Ok(f) => window = f,
                Err(c) => return c,
            },
            "--eps" => match float(value) {
                Ok(f) => eps = f,
                Err(c) => return c,
            },
            "--grid" => {
                grid = if value == "mc" {
                    Grid::MonteCarlo
                } else if let Some(spec) = value.strip_prefix("lattice:") {
                    let parsed = spec.split_once('x').and_then(|(s, t)| {
                        Some(Grid::Lattice {
                            seeds: s.parse().ok()?,
                            triggers: t.parse().ok()?,
                        })
                    });
                    match parsed {
                        Some(g) => g,
                        None => {
                            eprintln!(
                                "error: --grid=lattice needs `lattice:SEEDSxTRIGGERS`, e.g. `lattice:4x32`"
                            );
                            return ExitCode::from(EXIT_USAGE);
                        }
                    }
                } else {
                    eprintln!("error: unknown grid `{value}` (expected mc or lattice:SxT)");
                    return ExitCode::from(EXIT_USAGE);
                };
            }
            "--out" => {
                if value.is_empty() {
                    eprintln!("error: `--out` needs a file path, e.g. `--out=hist.csv`");
                    return ExitCode::from(EXIT_USAGE);
                }
                out = Some(value.to_string());
            }
            other => {
                eprintln!("error: unknown flag `{other}` for `sjava campaign`");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    let Some(app) = app else {
        eprintln!("error: `sjava campaign` needs `--app=<name>`");
        return ExitCode::from(EXIT_USAGE);
    };
    // `!(x > 0)` rather than `x <= 0` so that NaN is rejected too.
    if !(window > 0.0 && window <= 1.0) {
        eprintln!("error: `--window` must be in (0, 1], got {window}");
        return ExitCode::from(EXIT_USAGE);
    }
    if !(eps.is_finite() && eps >= 0.0) {
        eprintln!("error: `--eps` must be a finite number ≥ 0, got {eps}");
        return ExitCode::from(EXIT_USAGE);
    }
    if iters == Some(0) {
        eprintln!("error: `--iters` must be at least 1");
        return ExitCode::from(EXIT_USAGE);
    }

    let cfg = CampaignCfg {
        trials,
        grid,
        window,
        eps,
        threads,
        out,
    };
    use sjava::apps::{eyetrack, mp3dec, sumobot, weather, windsensor};
    match app.as_str() {
        "windsensor" => run_campaign(
            windsensor::SOURCE,
            windsensor::ENTRY,
            || windsensor::inputs(1),
            iters.unwrap_or(50),
            &cfg,
        ),
        "weather" => run_campaign(
            weather::SOURCE,
            weather::ENTRY,
            || weather::inputs(1),
            iters.unwrap_or(50),
            &cfg,
        ),
        "sumobot" => run_campaign(
            sumobot::SOURCE,
            sumobot::ENTRY,
            || sumobot::inputs(1),
            iters.unwrap_or(50),
            &cfg,
        ),
        "eyetrack" => run_campaign(
            eyetrack::SOURCE,
            eyetrack::ENTRY,
            || eyetrack::inputs(1),
            iters.unwrap_or(50),
            &cfg,
        ),
        "mp3dec" => run_campaign(
            &mp3dec::source_with(mp3dec::GRANULE, mp3dec::WINDOW),
            mp3dec::ENTRY,
            || mp3dec::inputs(0),
            iters.unwrap_or(8),
            &cfg,
        ),
        "stress" => run_campaign(
            &sjava_bench::stressgen::generate(&sjava_bench::stressgen::StressConfig::small()),
            ("StressMain", "run"),
            || sjava::runtime::FnInput::new(|_, i| sjava::runtime::Value::Int((i % 17) as i64 - 8)),
            iters.unwrap_or(20),
            &cfg,
        ),
        other => {
            eprintln!(
                "error: unknown app `{other}` (expected windsensor, weather, sumobot, eyetrack, mp3dec, or stress)"
            );
            ExitCode::from(EXIT_USAGE)
        }
    }
}

/// Flag bundle for [`run_campaign`], so the per-app dispatch stays flat.
struct CampaignCfg {
    trials: usize,
    grid: sjava::runtime::Grid,
    window: f64,
    eps: f64,
    threads: Option<usize>,
    out: Option<String>,
}

fn run_campaign<I, F>(
    src: &str,
    entry: (&str, &str),
    make_inputs: F,
    iterations: usize,
    cfg: &CampaignCfg,
) -> ExitCode
where
    I: sjava::runtime::InputProvider + Clone + Sync,
    F: Fn() -> I + Sync,
{
    let program = match sjava::parse(src) {
        Ok(p) => p,
        Err(diags) => {
            eprintln!("error: app source does not parse: {diags}");
            return ExitCode::FAILURE;
        }
    };
    let mut campaign = sjava::runtime::Campaign::new(&program, entry, iterations);
    campaign.trials = cfg.trials;
    campaign.grid = cfg.grid;
    campaign.inject_window = cfg.window;
    campaign.eps = cfg.eps;
    campaign.threads = cfg.threads;
    let outcome = match campaign.run(make_inputs) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("runtime error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{}.{}: {} trials in {:.2}s ({:.0} trials/sec), {} iterations/run, {} live heap cells",
        entry.0,
        entry.1,
        outcome.trials.len(),
        outcome.elapsed_ns as f64 / 1e9,
        outcome.trials_per_sec,
        iterations,
        outcome.heap_cells
    );
    println!(
        "diverged: {}/{} trials; golden run: {} samples, {} steps",
        outcome.diverged(),
        outcome.trials.len(),
        outcome.golden.outputs().len(),
        outcome.golden.steps
    );
    println!("\nrecovery time, output samples until re-convergence:");
    print!("{}", outcome.hist_samples.render());
    println!("\nrecovery time, iterations until re-convergence:");
    print!("{}", outcome.hist_iterations.render());

    if let Some(path) = &cfg.out {
        if let Err(e) = std::fs::write(path, outcome.hist_samples.to_csv()) {
            eprintln!("error: cannot write `{path}`: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
        println!("histogram written to {path}");
    }
    ExitCode::SUCCESS
}

/// `sjava stress --infer`: strip the generated corpus's annotations and
/// run the inference engine over the bare program, reporting per-phase
/// timings — the inference analogue of `--check`.
fn stress_infer(cfg: &sjava_bench::stressgen::StressConfig, src: &str) -> ExitCode {
    let label = cfg.label();
    let file = SourceFile::new(format!("<{label}>"), src.to_string());
    let mut program = match sjava::parse(&file.text) {
        Ok(p) => p,
        Err(diags) => {
            for d in diags.iter() {
                eprintln!("{}", d.render(&file));
            }
            return ExitCode::FAILURE;
        }
    };
    sjava::syntax::strip::strip_in_place(&mut program);
    match sjava::infer_annotations(&program, sjava::Mode::SInfer) {
        Ok(result) => {
            let t = &result.timings;
            let phase_list: Vec<String> = t
                .phases()
                .iter()
                .map(|(name, d)| format!("{name} {:.3} ms", d.as_secs_f64() * 1000.0))
                .collect();
            println!(
                "{label}: inferred {} locations, {} paths over {} methods ✓ ({:.2?})",
                result.metrics.total_locations(),
                result.metrics.total_paths(),
                cfg.method_count(),
                result.elapsed
            );
            println!(
                "phases: {} ({} worker thread{})",
                phase_list.join(", "),
                t.threads,
                if t.threads == 1 { "" } else { "s" }
            );
            ExitCode::SUCCESS
        }
        Err(diags) => {
            for d in diags.iter() {
                eprintln!("{}", d.render(&file));
            }
            println!("{label}: inference failed ✗");
            ExitCode::FAILURE
        }
    }
}

fn cmd_lint(path: &str) -> ExitCode {
    let (file, program) = match load(path) {
        Ok(x) => x,
        Err(c) => return c,
    };
    let mut diags = sjava::Diagnostics::new();
    let findings = sjava::analysis::lint_program(&program, &mut diags);
    for d in diags.iter() {
        eprintln!("{}", d.render(&file));
    }
    println!("{findings} finding(s)");
    ExitCode::SUCCESS
}

fn cmd_lifetimes(path: &str) -> ExitCode {
    let (file, program) = match load(path) {
        Ok(x) => x,
        Err(c) => return c,
    };
    let mut diags = sjava::Diagnostics::new();
    let Some(cg) = sjava::analysis::callgraph::build(&program, &mut diags) else {
        for d in diags.iter() {
            eprintln!("{}", d.render(&file));
        }
        return ExitCode::FAILURE;
    };
    let sites = sjava::analysis::analyze_lifetimes(&program, &cg);
    println!(
        "{:<24}{:<12}{:<10}{:<12}at",
        "method", "class", "escape", "bound"
    );
    for s in sites {
        let bound = s
            .bound_iterations
            .map(|b| format!("{b} iter"))
            .unwrap_or_else(|| "whole run".to_string());
        let lc = file.line_col(s.span.start);
        println!(
            "{:<24}{:<12}{:<10}{:<12}{}:{}",
            format!("{}.{}", s.method.0, s.method.1),
            s.class,
            format!("{:?}", s.escape),
            bound,
            file.name,
            lc
        );
    }
    ExitCode::SUCCESS
}

fn cmd_vfg(path: &str) -> ExitCode {
    let (file, program) = match load(path) {
        Ok(x) => x,
        Err(c) => return c,
    };
    let mut diags = sjava::Diagnostics::new();
    let Some(cg) = sjava::analysis::callgraph::build(&program, &mut diags) else {
        for d in diags.iter() {
            eprintln!("{}", d.render(&file));
        }
        return ExitCode::FAILURE;
    };
    let graphs = sjava::infer::build_flow_graphs(&program, &cg);
    for ((class, method), g) in &graphs {
        print!("{}", g.to_dot(&format!("{class}.{method}")));
    }
    ExitCode::SUCCESS
}

/// Reads a source file; an unreadable path is an I/O error (exit 2).
fn read_source(path: &str) -> Result<SourceFile, ExitCode> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(SourceFile::new(path, text)),
        Err(e) => {
            eprintln!("error: cannot read `{path}`: {e}");
            Err(ExitCode::from(EXIT_USAGE))
        }
    }
}

/// Reads and parses a source file; parse errors are rendered and exit 1.
fn load(path: &str) -> Result<(SourceFile, sjava::Program), ExitCode> {
    let file = read_source(path)?;
    match sjava::parse(&file.text) {
        Ok(p) => Ok((file, p)),
        Err(diags) => {
            for d in diags.iter() {
                eprintln!("{}", d.render(&file));
            }
            Err(ExitCode::FAILURE)
        }
    }
}

/// Output format of `sjava check`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn cmd_check(args: &[String]) -> ExitCode {
    // `sjava check --explain SJ0xxx` prints the long-form text of a code.
    if args.iter().any(|a| a == "--explain") {
        let code_arg = match args {
            [flag, code] if flag == "--explain" => code,
            _ => {
                eprintln!(
                    "error: --explain takes exactly one code, e.g. `sjava check --explain SJ0101`"
                );
                return ExitCode::from(EXIT_USAGE);
            }
        };
        let Some(code) = Code::parse(code_arg) else {
            eprintln!("error: unknown diagnostic code `{code_arg}`");
            eprintln!("known codes:");
            for &c in Code::ALL {
                eprintln!("  {c} ({}): {}", c.name(), c.summary());
            }
            return ExitCode::from(EXIT_USAGE);
        };
        println!(
            "{code} ({}): {}\n\n{}",
            code.name(),
            code.summary(),
            code.explain()
        );
        return ExitCode::SUCCESS;
    }

    let mut format = Format::Text;
    let mut deny_warnings = false;
    let mut path: Option<&str> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--format" => {
                let Some(f) = iter.next() else {
                    eprintln!("error: --format requires a value: text, json, or sarif");
                    return ExitCode::from(EXIT_USAGE);
                };
                match parse_format(f) {
                    Some(fm) => format = fm,
                    None => return bad_format(f),
                }
            }
            f if f.starts_with("--format=") => {
                let v = &f["--format=".len()..];
                match parse_format(v) {
                    Some(fm) => format = fm,
                    None => return bad_format(v),
                }
            }
            f if f.starts_with("--") => {
                eprintln!("error: unknown flag `{f}`");
                return ExitCode::from(EXIT_USAGE);
            }
            p if path.is_some() => return extra_file("check", p),
            p => path = Some(p),
        }
    }
    let Some(path) = path else {
        eprintln!("error: `sjava check` needs a file");
        return ExitCode::from(EXIT_USAGE);
    };
    let file = match read_source(path) {
        Ok(f) => f,
        Err(c) => return c,
    };

    let parsed = sjava::parse(&file.text);
    let mut session = None;
    let checked = parsed.as_ref().map(|program| {
        // With `SJAVA_CACHE_DIR` set the check goes through the artifact
        // store, sharing warm hits with every process that uses it.
        match std::env::var(sjava::cache::CACHE_DIR_ENV) {
            Ok(dir) if !dir.trim().is_empty() => session
                .insert(sjava::cache::IncrementalChecker::with_dir(dir.trim()))
                .check(program),
            _ => sjava::check(program),
        }
    });
    let diagnostics = match &checked {
        Ok(report) => &report.diagnostics,
        Err(diags) => *diags,
    };

    match format {
        Format::Text => {
            for d in diagnostics.iter() {
                eprintln!("{}", d.render(&file));
            }
        }
        Format::Json => print!("{}", emit::to_json(&file, diagnostics)),
        Format::Sarif => print!("{}", emit::to_sarif(&file, diagnostics)),
    }

    let failed = diagnostics.has_errors() || (deny_warnings && diagnostics.has_warnings());
    let code = if failed {
        if format == Format::Text {
            println!("{path}: NOT verified self-stabilizing ✗");
        }
        ExitCode::FAILURE
    } else {
        if format == Format::Text {
            println!("{path}: self-stabilizing ✓");
        }
        ExitCode::SUCCESS
    };
    flush_stdout();
    std::mem::forget(checked);
    std::mem::forget(session);
    std::mem::forget(parsed);
    code
}

/// Flushes stdout before a command returns without freeing what it built.
/// The process exits right after, and the OS takes back an AST, a report
/// or an inference result at once, where dropping them frees them node by
/// node; `sjava check` and `sjava infer` therefore `std::mem::forget`
/// them after this.
fn flush_stdout() {
    use std::io::Write;
    let _ = std::io::stdout().flush();
}

/// A second file argument: each command takes one.
fn extra_file(command: &str, arg: &str) -> ExitCode {
    eprintln!("error: `sjava {command}` takes one file; unexpected extra argument `{arg}`");
    ExitCode::from(EXIT_USAGE)
}

fn parse_format(s: &str) -> Option<Format> {
    match s {
        "text" => Some(Format::Text),
        "json" => Some(Format::Json),
        "sarif" => Some(Format::Sarif),
        _ => None,
    }
}

fn bad_format(s: &str) -> ExitCode {
    eprintln!("error: unknown format `{s}` (expected text, json, or sarif)");
    ExitCode::from(EXIT_USAGE)
}

fn cmd_infer(args: &[String]) -> ExitCode {
    let mut naive = false;
    let mut timings = false;
    let mut path: Option<&str> = None;
    for a in args {
        match a.as_str() {
            "--naive" => naive = true,
            "--timings" => timings = true,
            f if f.starts_with("--") => {
                eprintln!("error: unknown flag `{f}` for `sjava infer`");
                return ExitCode::from(EXIT_USAGE);
            }
            p if path.is_some() => return extra_file("infer", p),
            p => path = Some(p),
        }
    }
    let Some(path) = path else {
        eprintln!("error: `sjava infer` needs a file");
        return ExitCode::from(EXIT_USAGE);
    };
    let (file, mut program) = match load(path) {
        Ok(x) => x,
        Err(c) => return c,
    };
    sjava::syntax::strip::strip_in_place(&mut program);
    let mode = if naive {
        sjava::Mode::Naive
    } else {
        sjava::Mode::SInfer
    };
    let code = match sjava::infer_annotations(&program, mode) {
        Ok(result) => {
            print!("{}", print_program(&result.annotated));
            eprintln!(
                "// inferred {} locations, {} paths in {:?}",
                result.metrics.total_locations(),
                result.metrics.total_paths(),
                result.elapsed
            );
            if timings {
                let t = &result.timings;
                let phase_list: Vec<String> = t
                    .phases()
                    .iter()
                    .map(|(name, d)| format!("{name} {:.3} ms", d.as_secs_f64() * 1000.0))
                    .collect();
                eprintln!(
                    "// phases: {} ({} worker thread{})",
                    phase_list.join(", "),
                    t.threads,
                    if t.threads == 1 { "" } else { "s" }
                );
            }
            flush_stdout();
            std::mem::forget(result);
            ExitCode::SUCCESS
        }
        Err(diags) => {
            for d in diags.iter() {
                eprintln!("{}", d.render(&file));
            }
            ExitCode::FAILURE
        }
    };
    std::mem::forget(program);
    code
}

fn cmd_run(path: &str, entry: &str, iters: &str) -> ExitCode {
    let Some((class, method)) = entry
        .split_once('.')
        .filter(|(c, m)| !c.is_empty() && !m.is_empty())
    else {
        eprintln!("error: entry must be `Class.method`");
        return ExitCode::from(EXIT_USAGE);
    };
    let Ok(iters) = iters.parse::<usize>() else {
        eprintln!("error: iterations must be a non-negative integer");
        return ExitCode::from(EXIT_USAGE);
    };
    let (_, program) = match load(path) {
        Ok(x) => x,
        Err(c) => return c,
    };
    let module = sjava::runtime::compile(&program);
    let inputs = sjava::runtime::SeededInput::new(0);
    match sjava::runtime::Vm::new(&module, inputs, sjava::ExecOptions::default())
        .run(class, method, iters)
    {
        Ok(result) => {
            for (i, outs) in result.iteration_outputs.iter().enumerate() {
                let rendered: Vec<String> = outs.iter().map(|v| v.to_string()).collect();
                println!("iter {i}: {}", rendered.join(" "));
            }
            if !result.error_log.is_empty() {
                eprintln!(
                    "// {} errors ignored (crash avoidance)",
                    result.error_log.len()
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("runtime error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_lattice(path: &str) -> ExitCode {
    let (_, program) = match load(path) {
        Ok(x) => x,
        Err(c) => return c,
    };
    let mut diags = sjava::Diagnostics::new();
    let lattices = sjava::core::Lattices::build(&program, &mut diags);
    for (class, lat) in &lattices.fields {
        if lat.named_len() > 0 {
            print!("{}", sjava::lattice::lattice_to_dot(lat, class));
        }
    }
    for ((class, method), info) in &lattices.methods {
        if info.lattice.named_len() > 0 {
            print!(
                "{}",
                sjava::lattice::lattice_to_dot(&info.lattice, &format!("{class}.{method}"))
            );
        }
    }
    ExitCode::SUCCESS
}
