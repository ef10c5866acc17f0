//! `sjava` — command-line front end for the Self-Stabilizing Java tools.
//!
//! Each command is one entry of [`COMMANDS`]: its usage line, which is
//! also its grammar, and the function that runs it. `sjava` alone prints
//! every usage line. [`parse_args`] reads a command line against its
//! grammar before any work starts:
//!
//! - the leading bare words name the command (`check`, `check --explain`);
//! - `<x>` is an operand: each must be given, and no more;
//! - `[--f]` is a switch, which takes no value;
//! - `--f=N` takes a non-negative integer, `--f=F` a number, `--f=a|b`
//!   one of the listed words, and `--f=PATH` (any value spec with a
//!   capital letter) a non-empty string that the command reads itself;
//! - a flag in brackets is optional, one without them is required.
//!
//! Flags may come before or after operands, always as `--name=value`; a
//! repeated flag keeps its last value.
//!
//! Exit codes: `0` success, `1` the check (or another command) failed
//! with diagnostics, `2` usage or I/O error. Usage errors are reported
//! before any work starts.

use std::fmt::Display;
use std::process::ExitCode;

use sjava::analysis::CallGraph;
use sjava::syntax::codes::Code;
use sjava::syntax::pretty::print_program;
use sjava::syntax::{emit, SourceFile};
use sjava::{Diagnostics, InferenceResult, Program};

/// Exit status for usage and I/O errors, distinct from check failures.
const EXIT_USAGE: u8 = 2;

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `eprintln!` through [`write_stderr`].
macro_rules! errln {
    ($($arg:tt)*) => {
        write_stderr(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Every command's stdout, through [`write_stream`].
fn write_stdout(args: std::fmt::Arguments) {
    write_stream(std::io::stdout(), "stdout", args);
}

/// Every command's stderr, through [`write_stream`].
fn write_stderr(args: std::fmt::Arguments) {
    write_stream(std::io::stderr(), "stderr", args);
}

/// Writes to stdout or stderr. A reader that leaves early, as in
/// `sjava vfg big.sj | head -1` or `sjava check big.sj 2>&1 >/dev/null |
/// head -1`, closes the pipe: the rest of that stream is dropped and the
/// command ends with its own status, where `print!` or `eprint!` would
/// panic. Any other write error panics, as they do.
fn write_stream(mut stream: impl std::io::Write, name: &str, args: std::fmt::Arguments) {
    if let Err(e) = stream.write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            panic!("failed printing to {name}: {e}");
        }
    }
}

/// What a command returns: `Err` is an early exit whose cause has
/// already been reported on stderr.
type Outcome = Result<ExitCode, ExitCode>;

/// A command's body, run once its command line matched its grammar.
type Run = fn(&Args) -> Outcome;

/// Every command: its usage line, which [`parse_args`] reads as its
/// grammar, and the function that runs it. A continuation line is
/// indented to sit under the first flag when printed after `  sjava `.
const COMMANDS: &[(&str, Run)] = &[
    (
        "check <file.sj> [--format=text|json|sarif] [--deny-warnings]",
        cmd_check,
    ),
    ("check --explain <SJ0xxx>", cmd_explain),
    ("infer <file.sj> [--naive] [--timings]", cmd_infer),
    ("run <file.sj> <Class.method> <iterations>", cmd_run),
    ("lattice <file.sj>", cmd_lattice),
    ("lifetimes <file.sj>", cmd_lifetimes),
    ("lint <file.sj>", cmd_lint),
    ("vfg <file.sj>", cmd_vfg),
    (
        "stress [--preset=small|default|large|adversarial] [--classes=N] [--methods=N]
               [--fields=N] [--depth=N] [--stmts=N] [--seed=N] [--delta-depth=N]
               [--degenerate=N] [--cyclic-delegates=N] [--check] [--infer]",
        cmd_stress,
    ),
    (
        "fuzz [--seed=N] [--cases=N] [--oracle=all|check|infer|cache|parse|emit]
             [--minimize] [--fixtures-dir=DIR]",
        cmd_fuzz,
    ),
    (
        "campaign --app=windsensor|weather|sumobot|eyetrack|mp3dec|stress
                 [--trials=N] [--grid=mc|lattice:SEEDSxTRIGGERS] [--iters=N]
                 [--window=F] [--eps=F] [--threads=N] [--out=PATH]",
        cmd_campaign,
    ),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    // The longest match wins, so `check --explain` is not read as `check`.
    let Some((usage, run)) = COMMANDS
        .iter()
        .filter(|(usage, _)| argv.starts_with(&words(usage)))
        .max_by_key(|(usage, _)| words(usage).len())
    else {
        errln!("usage:");
        for (usage, _) in COMMANDS {
            errln!("  sjava {usage}");
        }
        return ExitCode::from(EXIT_USAGE);
    };
    match parse_args(usage, &argv) {
        Ok(args) => run(&args).unwrap_or_else(|code| code),
        Err(e) => usage_error(format!("{e}\nusage:\n  sjava {usage}")),
    }
}

/// The leading bare words of a usage line, which name its command.
fn words(usage: &str) -> Vec<&str> {
    usage
        .split_whitespace()
        .take_while(|t| !t.starts_with(['<', '[']) && !t.contains('='))
        .collect()
}

/// A command line that matched its command's grammar: the operands in
/// order, and each flag as given, with its value (empty for a switch).
struct Args<'a> {
    operands: Vec<&'a str>,
    flags: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Whether switch `flag` was given.
    fn on(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// The value `flag` was last given.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|&(_, v)| v)
    }

    /// The value of an `=N` or `=F` flag, which [`parse_args`] checked.
    fn number<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        let value = self.value(flag)?;
        Some(value.parse().ok().expect("parse_args checked the value"))
    }
}

/// Reads `argv`, which starts with the command's words, against the
/// grammar `usage`. The error names what is wrong or missing.
fn parse_args<'a>(usage: &str, argv: &[&'a str]) -> Result<Args<'a>, String> {
    let words = words(usage);
    let command = words.join(" ");
    let grammar = usage.split_whitespace().skip(words.len());
    let (operands, flags): (Vec<&str>, Vec<&str>) = grammar.partition(|t| t.starts_with('<'));
    // Each flag as (name, value spec, required); a switch has no spec.
    let flags: Vec<(&str, Option<&str>, bool)> = flags
        .into_iter()
        .map(|token| {
            let flag = token.trim_start_matches('[').trim_end_matches(']');
            let (name, spec) = flag
                .split_once('=')
                .map_or((flag, None), |(n, s)| (n, Some(s)));
            (name, spec, !token.starts_with('['))
        })
        .collect();
    let mut args = Args {
        operands: Vec::new(),
        flags: Vec::new(),
    };
    for &arg in &argv[words.len()..] {
        if !arg.starts_with("--") {
            args.operands.push(arg);
            continue;
        }
        let (name, value) = arg
            .split_once('=')
            .map_or((arg, None), |(n, v)| (n, Some(v)));
        let Some(&(_, spec, _)) = flags.iter().find(|(flag, _, _)| *flag == name) else {
            return Err(format!("unknown flag `{name}` for `sjava {command}`"));
        };
        match spec {
            None if value.is_some() => return Err(format!("`{name}` takes no value")),
            Some(spec) if !value.is_some_and(|v| fits(spec, v)) => {
                let note = match spec {
                    "N" => ", a non-negative integer",
                    "F" => ", a number",
                    _ => "",
                };
                return Err(format!("`{arg}`: expected `{name}={spec}`{note}"));
            }
            _ => args.flags.push((name, value.unwrap_or(""))),
        }
    }
    if let Some(missing) = operands.get(args.operands.len()) {
        return Err(format!("`sjava {command}` needs {missing}"));
    }
    if let Some(extra) = args.operands.get(operands.len()) {
        return Err(format!(
            "unexpected extra argument `{extra}` for `sjava {command}`"
        ));
    }
    for (name, spec, required) in flags {
        if required && !args.on(name) {
            let spec = spec.unwrap_or_default();
            return Err(format!("`sjava {command}` needs `{name}={spec}`"));
        }
    }
    Ok(args)
}

/// Whether `value` fits the value spec `spec`: `N` a non-negative
/// integer, `F` a number, a spec with a capital letter any non-empty
/// string, and otherwise one of its `|`-separated words.
fn fits(spec: &str, value: &str) -> bool {
    match spec {
        "N" => value.parse::<usize>().is_ok(),
        "F" => value.parse::<f64>().is_ok(),
        _ if spec.contains(|c: char| c.is_ascii_uppercase()) => !value.is_empty(),
        _ => spec.split('|').any(|word| word == value),
    }
}

/// Reports a usage error; returns the exit status for it.
fn usage_error(message: impl Display) -> ExitCode {
    errln!("error: {message}");
    ExitCode::from(EXIT_USAGE)
}

/// `sjava stress`: prints a deterministic synthetic stress program to
/// stdout (the same generator the benchmark harness uses). `--preset`
/// applies first, then the size flags, whatever their order. With
/// `--check`, runs the whole-program checker over it instead and reports
/// pass/fail — handy for timing the checker on arbitrary scales. With
/// `--infer`, strips the generated annotations and runs the inference
/// engine over the bare program instead, reporting per-phase timings:
///
/// ```text
/// sjava stress --classes=50 --methods=10 > big.sj
/// sjava stress --preset=large --check
/// sjava stress --preset=large --infer
/// ```
fn cmd_stress(args: &Args) -> Outcome {
    use sjava_bench::stressgen::StressConfig;

    if args.on("--check") && args.on("--infer") {
        return Err(usage_error(
            "`sjava stress` takes `--check` or `--infer`, not both",
        ));
    }
    let mut cfg = match args.value("--preset") {
        Some("small") => StressConfig::small(),
        Some("large") => StressConfig::large(),
        Some("adversarial") => StressConfig::adversarial(),
        _ => StressConfig::default(),
    };
    for (flag, knob) in [
        ("--classes", &mut cfg.classes),
        ("--methods", &mut cfg.methods),
        ("--fields", &mut cfg.fields),
        ("--depth", &mut cfg.loop_depth),
        ("--stmts", &mut cfg.stmts),
        ("--delta-depth", &mut cfg.delta_depth),
        ("--degenerate", &mut cfg.degenerate),
        ("--cyclic-delegates", &mut cfg.cyclic_delegates),
    ] {
        if let Some(n) = args.number(flag) {
            *knob = n;
        }
    }
    if let Some(seed) = args.number("--seed") {
        cfg.seed = seed;
    }

    let label = cfg.label();
    let src = sjava_bench::stressgen::generate(&cfg);
    if !args.on("--check") && !args.on("--infer") {
        out!("{src}");
        errln!(
            "// {label}: {} methods, {} bytes",
            cfg.method_count(),
            src.len()
        );
        return Ok(ExitCode::SUCCESS);
    }
    let file = SourceFile::new(format!("<{label}>"), src);
    if args.on("--infer") {
        let result = infer(&file, sjava::Mode::SInfer).inspect_err(|_| {
            outln!("{label}: inference failed ✗");
        })?;
        outln!(
            "{label}: inferred {} locations, {} paths over {} methods ✓ ({:.2?})",
            result.metrics.total_locations(),
            result.metrics.total_paths(),
            cfg.method_count(),
            result.elapsed
        );
        outln!("{}", phases(&result));
        return Ok(ExitCode::SUCCESS);
    }

    let started = std::time::Instant::now();
    let diagnostics = match sjava::parse(&file.text) {
        Ok(program) => sjava::check(&program).diagnostics,
        Err(diags) => diags,
    };
    let elapsed = started.elapsed();
    report(&file, &diagnostics);
    if diagnostics.has_errors() {
        outln!("{label}: NOT verified self-stabilizing ✗ ({elapsed:.2?})");
        Ok(ExitCode::FAILURE)
    } else {
        outln!(
            "{label}: {} methods self-stabilizing ✓ ({elapsed:.2?})",
            cfg.method_count()
        );
        Ok(ExitCode::SUCCESS)
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
fn cmd_fuzz(args: &Args) -> Outcome {
    use sjava_bench::fuzz::{self, FuzzConfig, Oracle};

    let mut cfg = FuzzConfig::default();
    if let Some(seed) = args.number("--seed") {
        cfg.seed = seed;
    }
    if let Some(cases) = args.number("--cases") {
        cfg.cases = cases;
    }
    if let Some(oracle) = args.value("--oracle") {
        cfg.oracles = Oracle::parse_set(oracle).expect("the usage lists only oracle names");
    }
    cfg.minimize = args.on("--minimize");
    cfg.fixtures_dir = args.value("--fixtures-dir").map(Into::into);

    let report = fuzz::run(&cfg);
    out!("{}", report.render());
    Ok(if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
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
fn cmd_campaign(args: &Args) -> Outcome {
    use sjava::runtime::Grid;

    let window = args.number("--window").unwrap_or(0.8f64);
    let eps = args.number("--eps").unwrap_or(1e-9f64);
    let iters: Option<usize> = args.number("--iters");
    // `!(x > 0)` rather than `x <= 0` so that NaN is rejected too.
    if !(window > 0.0 && window <= 1.0) {
        return Err(usage_error(format!(
            "`--window` must be in (0, 1], got {window}"
        )));
    }
    if !(eps.is_finite() && eps >= 0.0) {
        return Err(usage_error(format!(
            "`--eps` must be a finite number ≥ 0, got {eps}"
        )));
    }
    if iters == Some(0) {
        return Err(usage_error("`--iters` must be at least 1"));
    }
    let grid = match args.value("--grid") {
        None | Some("mc") => Grid::MonteCarlo,
        Some(value) => value
            .strip_prefix("lattice:")
            .and_then(|spec| spec.split_once('x'))
            .and_then(|(s, t)| {
                Some(Grid::Lattice {
                    seeds: s.parse().ok()?,
                    triggers: t.parse().ok()?,
                })
            })
            .ok_or_else(|| {
                usage_error(format!(
                    "unknown grid `{value}` (expected mc or lattice:SEEDSxTRIGGERS, e.g. lattice:4x32)"
                ))
            })?,
    };

    let cfg = CampaignCfg {
        trials: args.number("--trials").unwrap_or(1000),
        grid,
        window,
        eps,
        threads: args.number("--threads"),
        out: args.value("--out"),
    };
    use sjava::apps::{eyetrack, mp3dec, sumobot, weather, windsensor};
    match args.value("--app").expect("the usage requires `--app`") {
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
        other => unreachable!("the usage lists no app `{other}`"),
    }
}

/// Flag bundle for [`run_campaign`], so the per-app dispatch stays flat.
struct CampaignCfg<'a> {
    trials: usize,
    grid: sjava::runtime::Grid,
    window: f64,
    eps: f64,
    threads: Option<usize>,
    out: Option<&'a str>,
}

fn run_campaign<I, F>(
    src: &str,
    entry: (&str, &str),
    make_inputs: F,
    iterations: usize,
    cfg: &CampaignCfg,
) -> Outcome
where
    I: sjava::runtime::InputProvider + Clone + Sync,
    F: Fn() -> I + Sync,
{
    let program = sjava::parse(src).map_err(|diags| {
        errln!("error: app source does not parse: {diags}");
        ExitCode::FAILURE
    })?;
    let mut campaign = sjava::runtime::Campaign::new(&program, entry, iterations);
    campaign.trials = cfg.trials;
    campaign.grid = cfg.grid;
    campaign.inject_window = cfg.window;
    campaign.eps = cfg.eps;
    campaign.threads = cfg.threads;
    let outcome = campaign.run(make_inputs).map_err(|e| {
        errln!("runtime error: {e}");
        ExitCode::FAILURE
    })?;

    outln!(
        "{}.{}: {} trials in {:.2}s ({:.0} trials/sec), {} iterations/run, {} live heap cells",
        entry.0,
        entry.1,
        outcome.trials.len(),
        outcome.elapsed_ns as f64 / 1e9,
        outcome.trials_per_sec,
        iterations,
        outcome.heap_cells
    );
    outln!(
        "diverged: {}/{} trials; golden run: {} samples, {} steps",
        outcome.diverged(),
        outcome.trials.len(),
        outcome.golden.outputs().len(),
        outcome.golden.steps
    );
    outln!("\nrecovery time, output samples until re-convergence:");
    out!("{}", outcome.hist_samples.render());
    outln!("\nrecovery time, iterations until re-convergence:");
    out!("{}", outcome.hist_iterations.render());

    if let Some(path) = cfg.out {
        if let Err(e) = std::fs::write(path, outcome.hist_samples.to_csv()) {
            return Err(usage_error(format!("cannot write `{path}`: {e}")));
        }
        outln!("histogram written to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_lint(args: &Args) -> Outcome {
    let (file, program) = load(args.operands[0])?;
    let mut diags = Diagnostics::new();
    let findings = sjava::analysis::lint_program(&program, &mut diags);
    report(&file, &diags);
    outln!("{findings} finding(s)");
    Ok(ExitCode::SUCCESS)
}

fn cmd_lifetimes(args: &Args) -> Outcome {
    let (file, program, cg) = load_with_callgraph(args.operands[0])?;
    let sites = sjava::analysis::analyze_lifetimes(&program, &cg);
    outln!(
        "{:<24}{:<12}{:<10}{:<12}at",
        "method",
        "class",
        "escape",
        "bound"
    );
    for s in sites {
        let bound = s
            .bound_iterations
            .map(|b| format!("{b} iter"))
            .unwrap_or_else(|| "whole run".to_string());
        let lc = file.line_col(s.span.start);
        outln!(
            "{:<24}{:<12}{:<10}{:<12}{}:{}",
            format!("{}.{}", s.method.0, s.method.1),
            s.class,
            format!("{:?}", s.escape),
            bound,
            file.name,
            lc
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_vfg(args: &Args) -> Outcome {
    let (_, program, cg) = load_with_callgraph(args.operands[0])?;
    let graphs = sjava::infer::build_dense_graphs(&program, &cg);
    for ((class, method), g) in &graphs {
        let title = format!("{class}.{method}");
        out!("{}", g.graph.to_flow_graph(&g.table).to_dot(&title));
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders diagnostics to stderr.
fn report(file: &SourceFile, diags: &Diagnostics) {
    for d in diags.iter() {
        errln!("{}", d.render(file));
    }
}

/// Reads a source file; an unreadable path is an I/O error (exit 2).
fn read_source(path: &str) -> Result<SourceFile, ExitCode> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(SourceFile::new(path, text)),
        Err(e) => Err(usage_error(format!("cannot read `{path}`: {e}"))),
    }
}

/// Parses a source file; parse errors are rendered and exit 1.
fn parse(file: &SourceFile) -> Result<Program, ExitCode> {
    sjava::parse(&file.text).map_err(|diags| {
        report(file, &diags);
        ExitCode::FAILURE
    })
}

/// Reads and parses a source file.
fn load(path: &str) -> Result<(SourceFile, Program), ExitCode> {
    let file = read_source(path)?;
    let program = parse(&file)?;
    Ok((file, program))
}

/// Reads and parses a source file and builds its call graph; a call
/// graph that cannot be built is reported and exits 1.
fn load_with_callgraph(path: &str) -> Result<(SourceFile, Program, CallGraph), ExitCode> {
    let (file, program) = load(path)?;
    let mut diags = Diagnostics::new();
    match sjava::analysis::callgraph::build(&program, &mut diags) {
        Some(cg) => Ok((file, program, cg)),
        None => {
            report(&file, &diags);
            Err(ExitCode::FAILURE)
        }
    }
}

fn cmd_check(args: &Args) -> Outcome {
    let path = args.operands[0];
    let format = args.value("--format").unwrap_or("text");
    let file = read_source(path)?;

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
        "json" => out!("{}", emit::to_json(&file, diagnostics)),
        "sarif" => out!("{}", emit::to_sarif(&file, diagnostics)),
        _ => report(&file, diagnostics),
    }
    let failed =
        diagnostics.has_errors() || (args.on("--deny-warnings") && diagnostics.has_warnings());
    if format == "text" {
        let verdict = if failed {
            "NOT verified self-stabilizing ✗"
        } else {
            "self-stabilizing ✓"
        };
        outln!("{path}: {verdict}");
    }
    flush_stdout();
    std::mem::forget(checked);
    std::mem::forget(session);
    std::mem::forget(parsed);
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `sjava check --explain SJ0xxx` prints the long-form text of a code.
fn cmd_explain(args: &Args) -> Outcome {
    let Some(code) = Code::parse(args.operands[0]) else {
        errln!("error: unknown diagnostic code `{}`", args.operands[0]);
        errln!("known codes:");
        for &c in Code::ALL {
            errln!("  {c} ({}): {}", c.name(), c.summary());
        }
        return Err(ExitCode::from(EXIT_USAGE));
    };
    outln!(
        "{code} ({}): {}\n\n{}",
        code.name(),
        code.summary(),
        code.explain()
    );
    Ok(ExitCode::SUCCESS)
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

/// Parses `file`, strips its annotations in place and infers them again,
/// annotating that same program: the path of `sjava infer` and
/// `sjava stress --infer`. Diagnostics are rendered, and a failure exits 1.
fn infer(file: &SourceFile, mode: sjava::Mode) -> Result<InferenceResult, ExitCode> {
    let mut program = parse(file)?;
    sjava::syntax::strip::strip_in_place(&mut program);
    sjava::infer::infer_owned(program, mode).map_err(|diags| {
        report(file, &diags);
        ExitCode::FAILURE
    })
}

/// The per-phase line of an inference: `phases: vfg 1.234 ms, …
/// (N worker threads)`.
fn phases(result: &InferenceResult) -> String {
    let t = &result.timings;
    let phase_list: Vec<String> = t
        .phases()
        .iter()
        .map(|(name, d)| format!("{name} {:.3} ms", d.as_secs_f64() * 1000.0))
        .collect();
    format!(
        "phases: {} ({} worker thread{})",
        phase_list.join(", "),
        t.threads,
        if t.threads == 1 { "" } else { "s" }
    )
}

fn cmd_infer(args: &Args) -> Outcome {
    let file = read_source(args.operands[0])?;
    let mode = if args.on("--naive") {
        sjava::Mode::Naive
    } else {
        sjava::Mode::SInfer
    };
    let result = infer(&file, mode)?;
    out!("{}", print_program(&result.annotated));
    errln!(
        "// inferred {} locations, {} paths in {:?}",
        result.metrics.total_locations(),
        result.metrics.total_paths(),
        result.elapsed
    );
    if args.on("--timings") {
        errln!("// {}", phases(&result));
    }
    flush_stdout();
    std::mem::forget(result);
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(args: &Args) -> Outcome {
    let Some((class, method)) = args.operands[1]
        .split_once('.')
        .filter(|(c, m)| !c.is_empty() && !m.is_empty())
    else {
        return Err(usage_error("entry must be `Class.method`"));
    };
    let Ok(iters) = args.operands[2].parse::<usize>() else {
        return Err(usage_error("iterations must be a non-negative integer"));
    };
    let (_, program) = load(args.operands[0])?;
    let module = sjava::runtime::compile(&program);
    let inputs = sjava::runtime::SeededInput::new(0);
    let result = sjava::runtime::Vm::new(&module, inputs, sjava::ExecOptions::default())
        .run(class, method, iters)
        .map_err(|e| {
            errln!("runtime error: {e}");
            ExitCode::FAILURE
        })?;
    for (i, outs) in result.iteration_outputs.iter().enumerate() {
        let rendered: Vec<String> = outs.iter().map(|v| v.to_string()).collect();
        outln!("iter {i}: {}", rendered.join(" "));
    }
    if !result.error_log.is_empty() {
        errln!(
            "// {} errors ignored (crash avoidance)",
            result.error_log.len()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `sjava lattice`: each declared lattice as DOT, field lattices by class
/// and then method lattices by class and method.
fn cmd_lattice(args: &Args) -> Outcome {
    let (_, program) = load(args.operands[0])?;
    let mut diags = Diagnostics::new();
    let lattices = sjava::core::Lattices::build(&program, &mut diags);
    let mut fields: Vec<_> = lattices.fields.iter().collect();
    fields.sort_unstable_by_key(|(class, _)| *class);
    let mut methods: Vec<_> = lattices.methods.iter().collect();
    methods.sort_unstable_by_key(|(key, _)| *key);
    for (class, lat) in fields {
        if lat.named_len() > 0 {
            out!("{}", sjava::lattice::lattice_to_dot(lat, class));
        }
    }
    for ((class, method), info) in methods {
        if info.lattice.named_len() > 0 {
            out!(
                "{}",
                sjava::lattice::lattice_to_dot(&info.lattice, &format!("{class}.{method}"))
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}
