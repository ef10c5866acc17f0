//! Property tests for fine-grained invalidation.
//!
//! On random multi-class programs with random edits (body literal,
//! method-header span, appended field), the incremental session must
//! uphold two judgments against independent oracles:
//!
//! 1. **Soundness of the re-check set**: the set of methods red-green
//!    revalidation actually re-analyzes ([`IncrementalChecker::last_rechecked`])
//!    is a *subset* of the coarse fingerprint-dirty set — the methods
//!    whose old-scheme fingerprint ([`fingerprints::method_fps`], which
//!    folds the whole-program interface hash and transitive callee
//!    fingerprints) changed. Fine-grained invalidation may legally
//!    re-check *fewer* methods than the coarse cutoff, never more.
//! 2. **Byte identity**: the incremental report after the edit matches
//!    a cold [`check_program`] of the edited AST exactly — same
//!    diagnostics text, same termination-failure count, same eviction
//!    verdict.
//!
//! Source-text edits (a space, a newline or a line comment at a token
//! boundary) go through `check_source` and must match a cold check of the
//! same text; one that lands between declarations moves text without
//! changing any declaration, so it must re-check nothing.
//!
//! Programs are generated in the stress-corpus shape (worker classes
//! with field state and an intra-class call chain, dispatched from an
//! `SSJAVA:` event loop) but without lattice annotations, so both clean
//! and diagnostic-carrying programs flow through the cache.

use proptest::prelude::*;
use sjava_cache::edit::{
    add_unused_field, insert_at_token, mutate_first_literal, shift_method_span, TEXT_INSERTS,
};
use sjava_cache::fingerprints::{iface_hash, method_fps};
use sjava_cache::IncrementalChecker;
use sjava_core::{check_program, CheckReport};
use sjava_syntax::ast::Program;
use sjava_syntax::diag::Diagnostics;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

/// The parts of a report that must match a cold check byte-for-byte.
fn digest(report: &CheckReport) -> (String, usize, bool) {
    (
        format!("{}", report.diagnostics),
        report.termination_failures,
        report.eviction.as_ref().is_some_and(|e| e.is_ok()),
    )
}

/// Generates an unannotated worker-pool program: `classes` classes of
/// `methods` chained methods over `fields` int fields each, plus a
/// `StressMain` event loop dispatching one device read per iteration to
/// every worker. `seed` perturbs the literal constants so distinct
/// cases have distinct method fingerprints.
fn gen_program(classes: usize, methods: usize, fields: usize, seed: u64) -> String {
    let mut lit = seed;
    let mut next = move || {
        lit = lit.wrapping_mul(6364136223846793005).wrapping_add(1);
        (lit >> 33) % 97 + 1
    };
    let mut out = String::new();
    for ci in 0..classes {
        writeln!(out, "class W{ci} {{").unwrap();
        for fi in 0..fields {
            writeln!(out, "    int f{fi};").unwrap();
        }
        for mj in 0..methods {
            writeln!(out, "    int m{mj}(int p) {{").unwrap();
            writeln!(out, "        int t = p * {} + {};", next(), next()).unwrap();
            for fi in 0..fields {
                writeln!(out, "        f{fi} = t + {fi};").unwrap();
            }
            writeln!(
                out,
                "        if (p > {}) {{ f0 = t + {}; }} else {{ f0 = t - {}; }}",
                next(),
                next(),
                next()
            )
            .unwrap();
            if mj + 1 < methods {
                writeln!(out, "        t = t + m{}(t);", mj + 1).unwrap();
            }
            writeln!(out, "        return t + f0;").unwrap();
            writeln!(out, "    }}").unwrap();
        }
        writeln!(out, "}}").unwrap();
    }
    writeln!(out, "class StressMain {{").unwrap();
    for ci in 0..classes {
        writeln!(out, "    W{ci} w{ci};").unwrap();
    }
    writeln!(out, "    void main() {{").unwrap();
    for ci in 0..classes {
        writeln!(out, "        w{ci} = new W{ci}();").unwrap();
    }
    writeln!(out, "        SSJAVA: while (true) {{").unwrap();
    writeln!(out, "            int x = Device.read();").unwrap();
    let emit: Vec<String> = (0..classes).map(|ci| format!("w{ci}.m0(x)")).collect();
    writeln!(out, "            Out.emit({});", emit.join(" + ")).unwrap();
    writeln!(out, "        }}").unwrap();
    writeln!(out, "    }}").unwrap();
    writeln!(out, "}}").unwrap();
    out
}

/// Applies one random edit to `program`. `kind` selects the edit shape
/// (body literal / header span / appended field) and `pick` selects the
/// target class and method; both wrap modulo the actual declaration
/// counts so every drawn value lands on a real target. Returns a label
/// for failure messages, or `None` if no edit shape applied (a field-free
/// class rejecting `add_unused_field` falls back to the other shapes).
fn apply_edit(program: &mut Program, kind: usize, pick: usize) -> Option<String> {
    let targets: Vec<(String, String)> = program
        .classes
        .iter()
        .flat_map(|c| c.methods.iter().map(|m| (c.name.clone(), m.name.clone())))
        .collect();
    if targets.is_empty() {
        return None;
    }
    let (class, method) = targets[pick % targets.len()].clone();
    for attempt in 0..3 {
        match (kind + attempt) % 3 {
            0 if mutate_first_literal(program, &class, &method) => {
                return Some(format!("literal {class}::{method}"));
            }
            1 if shift_method_span(program, &class, &method) => {
                return Some(format!("span {class}::{method}"));
            }
            2 if add_unused_field(program, &class) => {
                return Some(format!("field {class}"));
            }
            _ => {}
        }
    }
    None
}

/// The coarse fingerprint-dirty set: every method whose old-scheme
/// fingerprint (interface hash x local fingerprint x transitive callee
/// fingerprints) differs between `before` and `after`, plus methods
/// newly reachable. Returns `None` when either call graph fails to
/// build (the cache degrades to a full re-check there, so the subset
/// property is vacuous).
fn coarse_dirty(before: &Program, after: &Program) -> Option<BTreeSet<(String, String)>> {
    let mut d = Diagnostics::new();
    let cg_before = sjava_analysis::callgraph::build(before, &mut d)?;
    let cg_after = sjava_analysis::callgraph::build(after, &mut d)?;
    let fps_before = method_fps(before, &cg_before, iface_hash(before), &mut HashMap::new());
    let fps_after = method_fps(after, &cg_after, iface_hash(after), &mut HashMap::new());
    Some(
        fps_after
            .into_iter()
            .filter(|(mref, fp)| fps_before.get(mref) != Some(fp))
            .map(|(mref, _)| mref)
            .collect(),
    )
}

/// Whether byte offset `at` lies strictly inside a declaration's text: a
/// class header (its annotations included), a field, or a method from its
/// `@LATTICE` to the end of its body. Text inserted there changes that
/// declaration's position-free digest; text inserted anywhere else only
/// moves declarations.
fn inside_a_declaration(program: &Program, at: usize) -> bool {
    let at = at as u32;
    let inside = |start: u32, end: u32| start < at && at < end;
    program.classes.iter().any(|c| {
        let default = c
            .annots
            .method_default
            .as_ref()
            .and_then(|d| d.lattice.as_ref());
        let class_start = [c.annots.lattice.as_ref(), default]
            .into_iter()
            .flatten()
            .fold(c.span.start, |s, l| s.min(l.span.start));
        inside(class_start, c.span.end)
            || c.fields.iter().any(|f| inside(f.span.start, f.span.end))
            || c.methods.iter().any(|m| {
                let start = m
                    .annots
                    .lattice
                    .as_ref()
                    .map_or(m.span.start, |l| l.span.start);
                inside(start.min(m.span.start), m.body.span.end)
            })
    })
}

/// The method whose body holds byte offset `at`, if any.
fn body_holding(program: &Program, at: usize) -> Option<(String, String)> {
    let at = at as u32;
    program.classes.iter().find_map(|c| {
        c.methods
            .iter()
            .find(|m| m.body.span.start < at && at < m.body.span.end)
            .map(|m| (c.name.clone(), m.name.clone()))
    })
}

/// JSON rendering of a report's diagnostics (labels and suggestions
/// included) against `source`.
fn json(source: &str, report: &CheckReport) -> String {
    let file = sjava_syntax::SourceFile::new("gen.sj", source.to_string());
    sjava_syntax::emit::to_json(&file, &report.diagnostics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Source-text edits at seeded token boundaries: every step equals a
    /// cold check of the same text, an edit between declarations
    /// re-checks nothing, and one inside a method body re-checks at most
    /// that method.
    #[test]
    fn text_edits_replay_rebased_and_exact(
        classes in 1usize..4,
        methods in 1usize..4,
        fields in 1usize..4,
        seed in any::<u64>(),
        pick in any::<u64>(),
        steps in 1usize..5,
    ) {
        let mut src = gen_program(classes, methods, fields, seed);
        let mut session = IncrementalChecker::new();
        session.check_source(&src).expect("generated source parses");
        let mut draw = pick;
        for _ in 0..steps {
            draw = draw.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let (pick, which) = ((draw >> 33) as usize, (draw >> 20) as usize % TEXT_INSERTS.len());
            let before = sjava_syntax::parse(&src).expect("source parses");
            let insert = TEXT_INSERTS[which];
            let at = insert_at_token(&mut src, pick, insert);
            let incremental = session.check_source(&src).expect("edited source parses");
            let cold = sjava_core::check_source(&src).expect("edited source parses");
            prop_assert_eq!(
                (digest(&incremental), json(&src, &incremental)),
                (digest(&cold), json(&src, &cold)),
                "incremental output diverges after inserting {:?} at {} in:\n{}",
                insert,
                at,
                src
            );
            let rechecked: BTreeSet<(String, String)> =
                session.last_rechecked().iter().cloned().collect();
            if !inside_a_declaration(&before, at) {
                prop_assert!(
                    rechecked.is_empty(),
                    "inserting {:?} at {} between declarations re-checked {:?} in:\n{}",
                    insert,
                    at,
                    rechecked,
                    src
                );
            } else if let Some(method) = body_holding(&before, at) {
                prop_assert!(
                    rechecked.iter().all(|m| *m == method),
                    "inserting {:?} at {} in the body of {:?} re-checked {:?} in:\n{}",
                    insert,
                    at,
                    method,
                    rechecked,
                    src
                );
            }
        }
    }

    /// After any random edit: the rechecked set is contained in the
    /// coarse fingerprint-dirty set, and the incremental report is
    /// byte-identical to a cold check of the edited program.
    #[test]
    fn recheck_set_is_sound_and_output_is_exact(
        classes in 1usize..4,
        methods in 1usize..4,
        fields in 1usize..4,
        seed in any::<u64>(),
        kind in 0usize..3,
        pick in any::<usize>(),
    ) {
        let src = gen_program(classes, methods, fields, seed);
        let pristine = sjava_syntax::parse(&src).expect("generated source parses");
        let mut edited = pristine.clone();
        let Some(label) = apply_edit(&mut edited, kind, pick) else {
            return Ok(());
        };

        let mut session = IncrementalChecker::new();
        session.check(&pristine);
        let incremental = session.check(&edited);
        let cold = check_program(&edited);
        prop_assert_eq!(
            digest(&incremental),
            digest(&cold),
            "incremental output diverges from cold check after edit [{}] on:\n{}",
            label,
            src
        );

        if let Some(dirty) = coarse_dirty(&pristine, &edited) {
            let rechecked: BTreeSet<(String, String)> =
                session.last_rechecked().iter().cloned().collect();
            prop_assert!(
                rechecked.is_subset(&dirty),
                "rechecked set {:?} escapes the coarse fingerprint-dirty set {:?} \
                 after edit [{}] on:\n{}",
                rechecked,
                dirty,
                label,
                src
            );
        }
    }

    /// A no-op "edit" (re-checking the identical AST) re-checks nothing:
    /// the fine-grained scheme never regresses below full reuse.
    #[test]
    fn identical_recheck_replays_everything(
        classes in 1usize..4,
        methods in 1usize..4,
        fields in 1usize..4,
        seed in any::<u64>(),
    ) {
        let src = gen_program(classes, methods, fields, seed);
        let program = sjava_syntax::parse(&src).expect("generated source parses");
        let mut session = IncrementalChecker::new();
        let cold = session.check(&program);
        let warm = session.check(&program);
        prop_assert_eq!(digest(&cold), digest(&warm));
        prop_assert!(
            session.last_rechecked().is_empty(),
            "warm identical re-check must replay every method"
        );
    }
}
