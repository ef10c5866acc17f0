//! `bench edit`: incremental re-checking, written to
//! `results/BENCH_incremental.json` and `results/BENCH_edit.json`.
//! Every incremental output must be byte-identical to a full check of
//! the same AST before its numbers count.
//!
//! - Per app (the paper apps and `mp3dec_w512`, whose unrolled 512-wide
//!   synthesis window dominates its cold check): a cold check, a warm
//!   re-check of the unchanged program over an on-disk artifact store,
//!   and a re-check after a one-literal edit. The warm minimum must stay
//!   ≤ 1.10x the cold minimum on every app, and the edit on
//!   `mp3dec_w512` must be ≥ 5x faster than cold.
//! - Edit storm: a warm session absorbs one-literal edits rotating
//!   through the methods of each paper app and the adversarial stress
//!   corpus. One edit must never re-check half of a corpus with ≥ 10
//!   methods.
//! - Interface edit ([`shift_method_span`]): one method's header widens
//!   by a byte on the 201-method large stress corpus. Re-checked by a
//!   warm session at 1 and 4 workers and by a fresh session over a
//!   primed store, it must re-check ≤ 25% of the methods, and the store
//!   must agree with the in-memory session on green, red and re-checked.
//! - Source-text edit: one space inserted into the first method header
//!   of the same corpus's source text, which moves every span after it,
//!   re-checked through `check_source` under the same three
//!   configurations and the same rules: text that moves a method must not
//!   re-key it. At one thread the warm re-check (which re-parses and
//!   re-hashes only the edited class) must take ≤ 0.25x a cold
//!   `check_source` of the same text, minima of a few reps each.
//! - Unused field ([`add_unused_field`]): re-checks zero methods.

use std::path::Path;
use std::time::Instant;

use sjava_apps::mp3dec;
use sjava_bench::stressgen::{self, StressConfig};
use sjava_bench::{ms, obj, paper_apps, with_threads, Gate, Mode, Obj, Sample, TempDir};
use sjava_cache::edit::{add_unused_field, mutate_first_literal, shift_method_span};
use sjava_cache::IncrementalChecker;
use sjava_core::{CacheStats, CheckReport};
use sjava_syntax::ast::Program;

/// Warm re-check minimum vs cold minimum; the slack absorbs timer
/// granularity on apps that check in microseconds.
const WARM_SLACK: f64 = 1.10;
/// One-literal edit vs cold check on `mp3dec_w512`.
const EDIT_FLOOR: f64 = 5.0;
/// Share of methods a single-method interface edit may re-check.
const RATIO_CEILING: f64 = 0.25;
/// Below this many methods the ratio ceiling is skipped: a 10-method
/// program legitimately re-checks 2 of 10 after a one-method edit.
const RATIO_FLOOR_METHODS: usize = 50;
/// Warm `check_source` after the source-text edit vs a cold one, at one
/// thread: what a one-byte edit still costs next to checking from
/// scratch.
const SOURCE_EDIT_CEILING: f64 = 0.25;

fn parse(source: &str) -> Program {
    sjava_syntax::parse(source).expect("benchmark parses")
}

fn render(program: &Program) -> String {
    sjava_core::check_program(program).diagnostics.to_string()
}

fn stats(report: &CheckReport) -> CacheStats {
    report.cache.expect("incremental report carries stats")
}

/// Every `(class, method)` declared, in source order.
fn declared_methods(program: &Program) -> Vec<(String, String)> {
    program
        .classes
        .iter()
        .flat_map(|c| c.methods.iter().map(|m| (c.name.clone(), m.name.clone())))
        .collect()
}

/// Mutates one literal in the first method from `*cursor` on (wrapping)
/// that has one, and moves the cursor past it.
fn edit_next(program: &mut Program, targets: &[(String, String)], cursor: &mut usize) -> bool {
    for _ in 0..targets.len() {
        let (class, method) = &targets[*cursor % targets.len()];
        *cursor += 1;
        if mutate_first_literal(program, class, method) {
            return true;
        }
    }
    false
}

/// Cold, warm (over the store in `store`) and one-literal-edit checks
/// of one app, `reps` each. Returns the app's report row and how many
/// times faster the edit re-check is than a cold check.
fn measure(name: &str, source: &str, reps: usize, store: &Path, gate: &mut Gate) -> (Obj, f64) {
    let program = parse(source);
    let mut cold = Sample::default();
    for _ in 0..reps {
        let mut session = IncrementalChecker::new();
        let t = Instant::now();
        session.check(&program);
        cold.push(t.elapsed());
    }

    let mut session = IncrementalChecker::with_dir(store);
    let baseline = session.check(&program).diagnostics.to_string();
    let mut warm = Sample::default();
    let mut same = true;
    for _ in 0..reps {
        let t = Instant::now();
        let report = session.check(&program);
        warm.push(t.elapsed());
        same &= report.diagnostics.to_string() == baseline;
    }
    gate.check(same, || {
        format!("{name}: a warm re-check differs from the first check")
    });
    gate.check(warm.min() <= cold.min() * WARM_SLACK, || {
        format!(
            "{name}: warm re-check {:.3} ms min > {WARM_SLACK}x cold {:.3} ms min",
            warm.min(),
            cold.min()
        )
    });

    // A fresh session is primed (untimed) per rep, so every timed check
    // sees a new fingerprint for exactly the edited cone.
    let mut edited = program.clone();
    assert!(
        edit_next(&mut edited, &declared_methods(&program), &mut 0),
        "{name} has no literal to mutate"
    );
    let mut edit = Sample::default();
    let mut edit_stats = CacheStats::default();
    for _ in 0..reps {
        let mut primed = IncrementalChecker::new();
        primed.check(&program);
        let t = Instant::now();
        let report = primed.check(&edited);
        edit.push(t.elapsed());
        edit_stats = stats(&report);
    }
    let full = sjava_core::check_program(&edited);
    let incremental = session.check(&edited);
    gate.check(
        incremental.diagnostics.to_string() == full.diagnostics.to_string()
            && incremental.termination_failures == full.termination_failures,
        || format!("{name}: the re-check after an edit differs from a full check"),
    );

    let warm_speedup = cold.mean() / warm.mean().max(1e-9);
    let edit_speedup = cold.mean() / edit.mean().max(1e-9);
    println!(
        "{name:>12}: cold {:8.3} ms | warm {:8.3} ms ({warm_speedup:6.1}x) | 1-method edit {:8.3} ms ({edit_speedup:6.1}x) | {} hits / {} misses",
        cold.mean(),
        warm.mean(),
        edit.mean(),
        edit_stats.hits,
        edit_stats.misses
    );
    let row = obj! {
        "name" => name, "cold_ms" => cold.mean(), "warm_ms" => warm.mean(),
        "edit_ms" => edit.mean(), "cold_min_ms" => cold.min(), "warm_min_ms" => warm.min(),
        "warm_speedup" => warm_speedup, "edit_speedup" => edit_speedup,
        "hits" => edit_stats.hits, "misses" => edit_stats.misses,
        "invalidations" => edit_stats.invalidations,
    };
    (row, edit_speedup)
}

/// Cold vs warm vs one-literal edit on every app.
fn incremental(mode: Mode, gate: &mut Gate) {
    let reps = mode.pick(10, 20);
    println!("\nbench edit — cold vs warm vs one-literal-edit re-checks, {reps} reps each");
    let w512 = mp3dec::source_with(mp3dec::GRANULE, 512);
    let store = TempDir::new("edit-warm");
    let mut rows = Vec::new();
    for (name, source) in paper_apps() {
        rows.push(measure(name, source, reps, &store.0, gate).0);
    }
    let (row, w512_speedup) = measure("mp3dec_w512", &w512, reps, &store.0, gate);
    rows.push(row);
    gate.floor(
        "mp3dec_w512 one-literal edit vs cold check",
        w512_speedup,
        EDIT_FLOOR,
        None,
    );
    let report = obj! {
        "threads" => sjava_par::num_threads(), "reps" => reps, "benchmarks" => rows,
    };
    mode.write("BENCH_incremental.json", report);
}

/// The body-edit storm on one corpus: `steps` rotating one-literal
/// edits, each re-checked by a warm session and compared with a full
/// check, then counted by its miss set.
fn storm(name: &str, source: &str, steps: usize, gate: &mut Gate) -> Obj {
    let mut program = parse(source);
    let targets = declared_methods(&program);
    let mut session = IncrementalChecker::new();
    session.check(&program);
    let (mut cursor, mut total, mut max, mut warm_ms) = (0, 0, 0, 0.0);
    for step in 0..steps {
        assert!(
            edit_next(&mut program, &targets, &mut cursor),
            "{name}: storm found no literal to mutate"
        );
        let t = Instant::now();
        let report = session.check(&program);
        warm_ms += ms(t.elapsed());
        gate.check(report.diagnostics.to_string() == render(&program), || {
            format!("{name}: storm step {step} differs from a full check")
        });
        let rechecked = stats(&report).misses;
        total += rechecked;
        max = max.max(rechecked);
    }
    let methods = targets.len();
    println!(
        "{name:>24}: {methods:3} methods | {steps:2} edits | re-checked avg {:5.2} max {max:2} | warm avg {:7.3} ms",
        total as f64 / steps as f64,
        warm_ms / steps as f64,
    );
    // The one-method demo apps re-check 1 of 1 by design.
    gate.check(methods < 10 || max * 2 <= methods, || {
        format!("{name}: a one-literal edit re-checked {max} of {methods} methods")
    });
    obj! {
        "name" => name, "methods" => methods, "edits" => steps,
        "rechecked_avg" => total as f64 / steps as f64, "rechecked_max" => max,
        "warm_ms_avg" => warm_ms / steps as f64,
    }
}

/// One configuration's re-check after the interface edit.
struct EditRun {
    label: &'static str,
    stats: CacheStats,
    warm_ms: f64,
}

impl EditRun {
    fn methods(&self) -> usize {
        self.stats.hits + self.stats.misses
    }

    fn ratio(&self) -> f64 {
        self.stats.misses as f64 / self.methods().max(1) as f64
    }
}

/// Re-checks an edit with `session`, which has seen the pristine program
/// (or whose store has), through `check`, and compares the output with
/// `expected`.
fn recheck(
    label: &'static str,
    mut session: IncrementalChecker,
    check: &dyn Fn(&mut IncrementalChecker) -> CheckReport,
    expected: &str,
    gate: &mut Gate,
) -> EditRun {
    let t = Instant::now();
    let report = check(&mut session);
    let warm_ms = ms(t.elapsed());
    gate.check(report.diagnostics.to_string() == expected, || {
        format!("{label}: the edit's re-check differs from a full check")
    });
    let run = EditRun {
        label,
        stats: stats(&report),
        warm_ms,
    };
    println!(
        "{label:>14}: re-checked {:3} of {:3} ({:5.1}%) | {:3} green / {:2} red | warm {warm_ms:7.3} ms",
        run.stats.misses,
        run.methods(),
        run.ratio() * 100.0,
        run.stats.green,
        run.stats.red,
    );
    run
}

/// One edit re-checked at 1 and 4 workers by a session `prime` has
/// warmed, and by a fresh session over a store `prime` has filled: every
/// output must equal `expected`, the store must agree with the in-memory
/// session on green, red and re-checked, and no configuration may
/// re-check more than [`RATIO_CEILING`] of a `methods`-method corpus.
fn edit_runs(
    what: &str,
    prime: &dyn Fn(&mut IncrementalChecker),
    check: &dyn Fn(&mut IncrementalChecker) -> CheckReport,
    expected: &str,
    methods: usize,
    gate: &mut Gate,
) -> Vec<EditRun> {
    let primed = || {
        let mut session = IncrementalChecker::new();
        prime(&mut session);
        session
    };
    let mut runs = vec![
        with_threads(1, || recheck("threads=1", primed(), check, expected, gate)),
        with_threads(4, || recheck("threads=4", primed(), check, expected, gate)),
    ];
    // Store-backed: a fresh session whose only warmth is what a primer
    // published, exactly as in a new `sjava check` process.
    let store = TempDir::new("edit-store");
    {
        let mut primer = IncrementalChecker::with_dir(&store.0);
        prime(&mut primer);
    }
    let from_store = IncrementalChecker::with_dir(&store.0);
    runs.push(recheck("store", from_store, check, expected, gate));
    let key = |r: &EditRun| (r.stats.green, r.stats.red, r.stats.misses);
    gate.check(key(&runs[2]) == key(&runs[0]), || {
        format!(
            "{what}: store-backed revalidation (green, red, re-checked) {:?} differs from the in-memory session's {:?}",
            key(&runs[2]),
            key(&runs[0])
        )
    });
    for r in &runs {
        let small = methods < RATIO_FLOOR_METHODS;
        gate.check(small || r.ratio() <= RATIO_CEILING, || {
            format!(
                "{what} at {} re-checked {:.1}% of methods (ceiling {:.0}%)",
                r.label,
                r.ratio() * 100.0,
                RATIO_CEILING * 100.0
            )
        });
    }
    runs
}

/// The minimum, over `reps`, of a warm `check_source` of `moved` by a
/// session that has checked `source`, and of a cold `check_source` of
/// `moved` by a new session, both at one thread.
fn source_edit_vs_cold(source: &str, moved: &str, reps: usize) -> (f64, f64) {
    with_threads(1, || {
        let (mut warm, mut cold) = (Sample::default(), Sample::default());
        for _ in 0..reps {
            let mut session = IncrementalChecker::new();
            session.check_source(source).expect("benchmark parses");
            let t = Instant::now();
            session
                .check_source(moved)
                .expect("edited benchmark parses");
            warm.push(t.elapsed());
            let mut fresh = IncrementalChecker::new();
            let t = Instant::now();
            fresh.check_source(moved).expect("edited benchmark parses");
            cold.push(t.elapsed());
        }
        (warm.min(), cold.min())
    })
}

/// The storm, interface-edit, source-text-edit and unused-field legs.
fn storms(mode: Mode, gate: &mut Gate) {
    let steps = 8;
    println!("\nbench edit — dependency-tracked invalidation, {steps} storm steps per corpus");
    let adversarial = StressConfig::adversarial();
    let adversarial_src = stressgen::generate(&adversarial);
    let label = adversarial.label();
    let corpora = paper_apps()
        .into_iter()
        .chain([(label.as_str(), adversarial_src.as_str())]);
    let storm_rows: Vec<Obj> = corpora
        .map(|(name, source)| storm(name, source, steps, gate))
        .collect();

    let source = stressgen::generate(&StressConfig::large());
    let pristine = parse(&source);
    let methods = declared_methods(&pristine);
    let (class, method) = &methods[0];
    let mut edited = pristine.clone();
    assert!(
        shift_method_span(&mut edited, class, method),
        "span shift target {class}::{method} missing"
    );
    println!(
        "interface edit on `{class}.{method}` ({} methods):",
        methods.len()
    );
    let runs = edit_runs(
        "interface edit",
        &|s| {
            s.check(&pristine);
        },
        &|s| s.check(&edited),
        &render(&edited),
        methods.len(),
        gate,
    );

    let header = pristine.classes[0].methods[0].span;
    let paren = source[header.start as usize..header.end as usize]
        .find('(')
        .expect("the first method header has a parameter list");
    let mut moved = source.clone();
    moved.insert(header.start as usize + paren + 1, ' ');
    println!("source-text edit: one space inside the header of `{class}.{method}`:");
    let text_runs = edit_runs(
        "source-text edit",
        &|s| {
            s.check_source(&source).expect("benchmark parses");
        },
        &|s| s.check_source(&moved).expect("edited benchmark parses"),
        &render(&parse(&moved)),
        methods.len(),
        gate,
    );

    let (warm_ms, cold_ms) = source_edit_vs_cold(&source, &moved, mode.pick(5, 10));
    let source_ratio = warm_ms / cold_ms;
    println!(
        "source-text edit at threads=1: warm {warm_ms:.3} ms vs cold check_source {cold_ms:.3} ms (min of reps) = {source_ratio:.3}x"
    );
    gate.check(source_ratio <= SOURCE_EDIT_CEILING, || {
        format!(
            "source-text edit: warm check_source {warm_ms:.3} ms is {source_ratio:.2}x a cold one ({cold_ms:.3} ms; ceiling {SOURCE_EDIT_CEILING:.2}x)"
        )
    });

    let primed = || {
        let mut session = IncrementalChecker::new();
        session.check(&pristine);
        session
    };
    let mut padded = pristine.clone();
    assert!(
        add_unused_field(&mut padded, class),
        "field pad target missing"
    );
    let field = recheck(
        "unused field",
        primed(),
        &|s| s.check(&padded),
        &render(&padded),
        gate,
    );
    gate.check(field.stats.misses == 0, || {
        format!("an unused field re-checked {} methods", field.stats.misses)
    });

    let rows = |runs: &[EditRun]| -> Vec<Obj> {
        runs.iter()
            .map(|r| {
                obj! {
                    "config" => r.label, "methods" => r.methods(), "rechecked" => r.stats.misses,
                    "ratio" => r.ratio(), "green" => r.stats.green, "red" => r.stats.red,
                    "warm_ms" => r.warm_ms,
                }
            })
            .collect()
    };
    let mut source_rows = rows(&text_runs);
    source_rows[0] = std::mem::take(&mut source_rows[0])
        .f("warm_min_ms", warm_ms)
        .f("cold_min_ms", cold_ms)
        .f("warm_cold_ratio", source_ratio);
    let report = obj! {
        "storm_steps" => steps, "storm" => storm_rows, "interface_edit" => rows(&runs),
        "source_edit" => source_rows, "source_edit_ceiling" => SOURCE_EDIT_CEILING,
        "unused_field" => obj! {
            "methods" => field.methods(), "rechecked" => field.stats.misses,
            "green" => field.stats.green, "warm_ms" => field.warm_ms,
        },
        "ratio_ceiling" => RATIO_CEILING, "ratio_floor_methods" => RATIO_FLOOR_METHODS,
    };
    mode.write("BENCH_edit.json", report);
}

pub fn run(mode: Mode, gate: &mut Gate) {
    incremental(mode, gate);
    storms(mode, gate);
}
