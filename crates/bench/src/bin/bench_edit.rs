//! Edit-storm benchmark for red-green revalidation: measures how many
//! methods the incremental checker actually re-checks after realistic
//! single-point edits, on the paper apps and the synthetic stress
//! corpus. Three edit shapes are exercised:
//!
//! - **Body storm** — a rotating one-literal edit per step; the true
//!   dependent set is the edited method plus the caller cone whose
//!   callee-summary values move.
//! - **Interface edit** — one method's header span widens by a byte
//!   ([`shift_method_span`]); the recorded `Resolve` facts red exactly
//!   the direct callers. Under the retired whole-interface cutoff this
//!   invalidated *every* cached method; the `--gate` run enforces the
//!   new ceiling (≤ 25% of methods re-checked) at `SJAVA_THREADS` 1 and
//!   4 and through a fresh session over a primed artifact store.
//! - **Unused field** — a never-referenced field appears
//!   ([`add_unused_field`]); no method recorded a fact about it, so the
//!   re-check replays everything (zero methods re-checked).
//!
//! After **every** edit the incremental output is asserted byte-identical
//! to a fresh full check of the same mutated AST — the ratios only count
//! once correctness holds. Emits `results/BENCH_edit.json`.
//!
//! Usage: `cargo run --release -p sjava-bench --bin bench_edit [--gate]`
//! Env overrides: `SJAVA_EDITS` (storm steps per target, default 8),
//! `SJAVA_THREADS` (worker-pool width for the storm leg).

use std::time::{Duration, Instant};

use sjava_bench::stressgen::{self, StressConfig};
use sjava_bench::{env_usize, write_result};
use sjava_cache::edit::{add_unused_field, mutate_first_literal, shift_method_span};
use sjava_cache::IncrementalChecker;
use sjava_core::CacheStats;
use sjava_syntax::ast::Program;

/// The storm rechecked-fraction ceiling enforced by `--gate` on the
/// large stress corpus: a single-method interface edit must re-check at
/// most a quarter of the program.
const RATIO_CEILING: f64 = 0.25;
/// Below this many methods the ratio gate is skipped (a 10-method toy
/// program legitimately re-checks 2/10 = 20% on a one-method edit, and
/// one method more flakes the gate); byte-identity stays mandatory.
const RATIO_FLOOR_METHODS: usize = 50;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

fn render(program: &Program) -> String {
    format!("{}", sjava_core::check_program(program).diagnostics)
}

/// Every `(class, method)` declared in source order.
fn declared_methods(program: &Program) -> Vec<(String, String)> {
    program
        .classes
        .iter()
        .flat_map(|c| c.methods.iter().map(|m| (c.name.clone(), m.name.clone())))
        .collect()
}

struct StormRow {
    name: String,
    methods: usize,
    edits: usize,
    rechecked_total: usize,
    rechecked_max: usize,
    warm_ms_total: f64,
}

/// The body-edit storm: a warmed session absorbs `steps` one-literal
/// edits, rotating through the methods that have an integer literal.
/// Each step asserts byte-identity against a fresh check of the same
/// mutated AST, then counts the miss set — the methods that were truly
/// re-checked.
fn storm(name: &str, source: &str, steps: usize) -> StormRow {
    let mut program = sjava_syntax::parse(source).expect("corpus parses");
    let targets = declared_methods(&program);
    let methods = targets.len();
    let mut session = IncrementalChecker::new();
    session.check(&program);

    let mut row = StormRow {
        name: name.to_string(),
        methods,
        edits: 0,
        rechecked_total: 0,
        rechecked_max: 0,
        warm_ms_total: 0.0,
    };
    let mut cursor = 0usize;
    for _ in 0..steps {
        // Rotate to the next method with a literal of any kind.
        let mut edited = false;
        for _ in 0..targets.len() {
            let (class, method) = &targets[cursor % targets.len()];
            cursor += 1;
            if mutate_first_literal(&mut program, class, method) {
                edited = true;
                break;
            }
        }
        assert!(edited, "{name}: storm found no literal to mutate");
        let t = Instant::now();
        let report = session.check(&program);
        row.warm_ms_total += ms(t.elapsed());
        assert_eq!(
            format!("{}", report.diagnostics),
            render(&program),
            "{name}: storm output diverged from the full checker"
        );
        let stats = report.cache.expect("incremental report carries stats");
        row.edits += 1;
        row.rechecked_total += stats.misses;
        row.rechecked_max = row.rechecked_max.max(stats.misses);
    }
    row
}

struct EditRun {
    label: String,
    methods: usize,
    rechecked: usize,
    green: usize,
    red: usize,
    warm_ms: f64,
}

impl EditRun {
    fn ratio(&self) -> f64 {
        self.rechecked as f64 / self.methods.max(1) as f64
    }
}

fn run_of(label: String, stats: CacheStats, warm_ms: f64) -> EditRun {
    EditRun {
        label,
        methods: stats.hits + stats.misses,
        rechecked: stats.misses,
        green: stats.green,
        red: stats.red,
        warm_ms,
    }
}

/// The gated leg: one `shift_method_span` interface edit on the large
/// stress corpus, re-checked through a warmed in-memory session at
/// `SJAVA_THREADS` 1 and 4, and through a fresh session over an artifact
/// store primed from the pristine program. Returns one row per
/// configuration.
fn interface_edit_runs(source: &str, expected: &str, edited: &Program) -> Vec<EditRun> {
    let pristine = sjava_syntax::parse(source).expect("corpus parses");
    let mut runs = Vec::new();

    for threads in [1usize, 4] {
        std::env::set_var(sjava_par::THREADS_ENV, threads.to_string());
        let mut session = IncrementalChecker::new();
        session.check(&pristine);
        let t = Instant::now();
        let report = session.check(edited);
        let warm = ms(t.elapsed());
        assert_eq!(
            format!("{}", report.diagnostics),
            expected,
            "interface edit at {threads} threads diverged from the full checker"
        );
        let stats = report.cache.expect("incremental report carries stats");
        runs.push(run_of(format!("threads={threads}"), stats, warm));
    }
    std::env::remove_var(sjava_par::THREADS_ENV);

    // Store-backed: prime an on-disk store from the pristine program,
    // then re-check the edit through a fresh session over it — the
    // published entry/deps pairs are the only warmth, exactly as in a
    // new `sjava check` process. Revalidation must red and replay the
    // same methods as the warm in-memory session.
    let dir = std::env::temp_dir().join(format!("sjava-bench-edit-{}-store", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut primer = IncrementalChecker::with_dir(&dir);
        primer.set_persist_min(0);
        primer.check(&pristine);
    }
    let mut session = IncrementalChecker::with_dir(&dir);
    let t = Instant::now();
    let report = session.check(edited);
    let warm = ms(t.elapsed());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        format!("{}", report.diagnostics),
        expected,
        "interface edit through the store diverged from the full checker"
    );
    let store = run_of(
        "store".to_string(),
        report.cache.expect("incremental report carries stats"),
        warm,
    );
    let memory = &runs[0];
    assert_eq!(
        (store.green, store.red, store.rechecked),
        (memory.green, memory.red, memory.rechecked),
        "store-backed revalidation disagrees with the in-memory session"
    );
    runs.push(store);
    runs
}

fn main() {
    let gate = std::env::args().any(|a| a == "--gate");
    let steps = env_usize("SJAVA_EDITS", 8);
    println!("BENCH_edit — dependency-tracked invalidation under an edit storm");
    println!("{steps} storm steps per corpus (override with SJAVA_EDITS)");

    // Body-edit storm: paper apps plus the adversarial stress corpus.
    let adversarial = StressConfig::adversarial();
    let storm_targets: Vec<(String, String)> = vec![
        ("windsensor".into(), sjava_apps::windsensor::SOURCE.into()),
        ("eyetrack".into(), sjava_apps::eyetrack::SOURCE.into()),
        ("sumobot".into(), sjava_apps::sumobot::SOURCE.into()),
        ("mp3dec".into(), sjava_apps::mp3dec::source().into()),
        (adversarial.label(), stressgen::generate(&adversarial)),
    ];
    let mut storm_rows = Vec::new();
    for (name, source) in &storm_targets {
        let row = storm(name, source, steps);
        println!(
            "{:>24}: {:3} methods | {:2} edits | re-checked avg {:5.2} max {:2} | warm avg {:7.3} ms",
            row.name,
            row.methods,
            row.edits,
            row.rechecked_total as f64 / row.edits.max(1) as f64,
            row.rechecked_max,
            row.warm_ms_total / row.edits.max(1) as f64,
        );
        // "Re-checked ≪ total": a one-literal edit must never cascade
        // into re-checking even half the program. Only meaningful on
        // corpora with enough methods for a caller cone to be a strict
        // subset — the one-method demo apps re-check 1 of 1 by design.
        assert!(
            row.methods < 10 || row.rechecked_max * 2 <= row.methods,
            "{}: a one-literal edit re-checked {} of {} methods",
            row.name,
            row.rechecked_max,
            row.methods
        );
        storm_rows.push(row);
    }

    // Interface edit on the large stress corpus: the gated leg.
    let large = StressConfig::large();
    let source = stressgen::generate(&large);
    let pristine = sjava_syntax::parse(&source).expect("stress corpus parses");
    let corpus_methods = declared_methods(&pristine).len();
    let (class, method) = declared_methods(&pristine)
        .into_iter()
        .next()
        .expect("stress corpus declares methods");
    let mut edited = pristine.clone();
    assert!(
        shift_method_span(&mut edited, &class, &method),
        "span shift target {class}::{method} missing"
    );
    let expected = render(&edited);
    let runs = interface_edit_runs(&source, &expected, &edited);
    for r in &runs {
        println!(
            "interface edit {:>12}: re-checked {:3} of {:3} ({:5.1}%) | {:3} green / {:2} red | warm {:7.3} ms",
            r.label,
            r.rechecked,
            r.methods,
            r.ratio() * 100.0,
            r.green,
            r.red,
            r.warm_ms,
        );
    }

    // Unused-field edit: an interface change with an empty dependent set.
    let mut padded = pristine.clone();
    assert!(
        add_unused_field(&mut padded, &class),
        "field pad target missing"
    );
    let field_expected = render(&padded);
    let mut session = IncrementalChecker::new();
    session.check(&pristine);
    let t = Instant::now();
    let report = session.check(&padded);
    let field_warm = ms(t.elapsed());
    assert_eq!(
        format!("{}", report.diagnostics),
        field_expected,
        "unused-field edit diverged from the full checker"
    );
    let field_stats = report.cache.expect("incremental report carries stats");
    println!(
        "unused-field edit: re-checked {} of {} | {} green | warm {:.3} ms",
        field_stats.misses,
        field_stats.hits + field_stats.misses,
        field_stats.green,
        field_warm,
    );

    if gate {
        if corpus_methods < RATIO_FLOOR_METHODS {
            println!(
                "gate: ratio ceiling skipped — corpus has {corpus_methods} methods \
                 (< {RATIO_FLOOR_METHODS}); byte-identity was still asserted"
            );
        } else {
            for r in &runs {
                assert!(
                    r.ratio() <= RATIO_CEILING,
                    "gate: interface edit at {} re-checked {:.1}% of methods (ceiling {:.0}%)",
                    r.label,
                    r.ratio() * 100.0,
                    RATIO_CEILING * 100.0
                );
            }
            println!(
                "gate ok: single-method interface edit re-checks <= {:.0}% of {corpus_methods} \
                 methods in every configuration",
                RATIO_CEILING * 100.0
            );
        }
        assert_eq!(
            field_stats.misses, 0,
            "gate: an unused field must red zero methods"
        );
        println!("gate ok: unused-field edit replayed the entire cache");
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"storm_steps\": {steps},\n"));
    json.push_str("  \"storm\": [\n");
    for (i, r) in storm_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"methods\": {}, \"edits\": {}, \"rechecked_avg\": {:.3}, \"rechecked_max\": {}, \"warm_ms_avg\": {:.4} }}{}\n",
            r.name,
            r.methods,
            r.edits,
            r.rechecked_total as f64 / r.edits.max(1) as f64,
            r.rechecked_max,
            r.warm_ms_total / r.edits.max(1) as f64,
            if i + 1 < storm_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"interface_edit\": [\n");
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"config\": \"{}\", \"methods\": {}, \"rechecked\": {}, \"ratio\": {:.4}, \"green\": {}, \"red\": {}, \"warm_ms\": {:.4} }}{}\n",
            r.label,
            r.methods,
            r.rechecked,
            r.ratio(),
            r.green,
            r.red,
            r.warm_ms,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"unused_field\": {{ \"methods\": {}, \"rechecked\": {}, \"green\": {}, \"warm_ms\": {:.4} }},\n",
        field_stats.hits + field_stats.misses,
        field_stats.misses,
        field_stats.green,
        field_warm
    ));
    json.push_str(&format!("  \"ratio_ceiling\": {RATIO_CEILING},\n"));
    json.push_str(&format!(
        "  \"ratio_floor_methods\": {RATIO_FLOOR_METHODS}\n"
    ));
    json.push_str("}\n");

    let path = write_result("BENCH_edit.json", &json);
    println!("written to {}", path.display());
}
