//! Cache correctness: an incremental re-check must be byte-identical to a
//! cold full check, for every benchmark application and for every kind of
//! edit — method bodies (fine-grained reuse), lattice annotations
//! (whole-program invalidation), text that moves (rebased replay), and
//! corrupt on-disk entries (silent misses).

use sjava_cache::edit::{insert_at_token, mutate_first_literal, shift_method_span, TEXT_INSERTS};
use sjava_cache::IncrementalChecker;
use sjava_core::{check_program, CheckReport};
use sjava_syntax::ast::Program;
use sjava_syntax::diag::Diagnostics;
use sjava_syntax::token::TokenKind;
use sjava_syntax::{emit, SourceFile};

fn apps() -> Vec<(&'static str, String)> {
    vec![
        ("windsensor", sjava_apps::windsensor::SOURCE.to_string()),
        ("eyetrack", sjava_apps::eyetrack::SOURCE.to_string()),
        ("sumobot", sjava_apps::sumobot::SOURCE.to_string()),
        ("mp3dec", sjava_apps::mp3dec::source().to_string()),
        ("weather", sjava_apps::weather::SOURCE.to_string()),
    ]
}

/// Mutates the first literal anywhere in the program (first class, first
/// method with one, in source order). Panics if none exists.
fn bump_somewhere(program: &mut Program) -> (String, String) {
    let targets: Vec<(String, String)> = program
        .classes
        .iter()
        .flat_map(|c| c.methods.iter().map(|m| (c.name.clone(), m.name.clone())))
        .collect();
    for (class, method) in targets {
        if mutate_first_literal(program, &class, &method) {
            return (class, method);
        }
    }
    panic!("no literal to mutate");
}

/// The parts of a report that must match a cold check byte-for-byte.
fn digest(report: &CheckReport) -> (String, usize, bool) {
    (
        format!("{}", report.diagnostics),
        report.termination_failures,
        report.eviction.as_ref().is_some_and(|e| e.is_ok()),
    )
}

#[test]
fn warm_recheck_replays_everything() {
    for (name, source) in apps() {
        let program = sjava_syntax::parse(&source).unwrap_or_else(|d| panic!("{name}: {d}"));
        let mut session = IncrementalChecker::new();
        let cold = session.check(&program);
        let warm = session.check(&program);
        assert_eq!(digest(&cold), digest(&warm), "{name}: warm check differs");
        let stats = warm.cache.expect("incremental check reports stats");
        assert_eq!(stats.misses, 0, "{name}: warm check must not recompute");
        assert!(stats.hits > 0, "{name}: warm check must replay methods");
        assert_eq!(stats.invalidations, 0, "{name}: nothing changed");
    }
}

#[test]
fn method_edit_matches_full_recheck() {
    for (name, source) in apps() {
        let mut program = sjava_syntax::parse(&source).unwrap_or_else(|d| panic!("{name}: {d}"));
        let mut session = IncrementalChecker::new();
        session.check(&program);

        let (class, method) = bump_somewhere(&mut program);
        let incremental = session.check(&program);
        let full = check_program(&program);
        assert_eq!(
            digest(&incremental),
            digest(&full),
            "{name}: incremental check after editing {class}::{method} diverges from full check"
        );
    }
}

#[test]
fn edit_in_reachable_method_dirties_only_its_cone() {
    // windsensor's event loop: mutate a method the call graph reaches and
    // confirm the re-check recomputes strictly fewer methods than a cold
    // run, while unrelated entries replay.
    let source = sjava_apps::windsensor::SOURCE;
    let mut program = sjava_syntax::parse(source).expect("parses");
    let mut session = IncrementalChecker::new();
    let cold = session.check(&program);
    let total = cold.cache.expect("stats").misses;
    assert!(total > 1, "windsensor has more than one reachable method");

    bump_somewhere(&mut program);
    let warm = session.check(&program);
    let stats = warm.cache.expect("stats");
    // The edit either hit an unreachable method (0 invalidations, full
    // replay) or a reachable one (its cone recomputes). Either way the
    // re-check must not recompute the whole program.
    assert!(
        stats.misses < total,
        "1-method edit recomputed {}/{} methods",
        stats.misses,
        total
    );
    assert_eq!(stats.hits + stats.misses, total);
}

#[test]
fn lattice_edit_invalidates_every_method() {
    let base = "@LATTICE(\"LO<HI\") class A {
        @LOC(\"HI\") static int h;
        void main() { SSJAVA: while (true) { f(); } }
        void f() { int x = 1; }
    }";
    let edited = base.replace("LO<HI", "MID<HI,LO<MID");
    let p1 = sjava_syntax::parse(base).expect("parses");
    let p2 = sjava_syntax::parse(&edited).expect("parses");

    let mut session = IncrementalChecker::new();
    let cold = session.check(&p1);
    let total = cold.cache.expect("stats").misses;
    let after = session.check(&p2);
    let stats = after.cache.expect("stats");
    assert_eq!(stats.hits, 0, "lattice edit must invalidate every entry");
    assert_eq!(stats.misses, total, "every method recomputes");
    // Keys are position-free and never folded the lattice, so the methods
    // keep their keys (the longer annotation only moves their text);
    // every entry is invalidated by revalidation instead: all go red.
    assert_eq!(stats.invalidations, 0, "no method changed its key");
    assert_eq!(stats.red, total, "every previously-seen entry went red");
    assert_eq!(digest(&after), digest(&check_program(&p2)));
}

#[test]
fn corrupt_disk_cache_degrades_to_misses() {
    let dir = std::env::temp_dir().join("sjava-cache-correctness-corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    let program = sjava_syntax::parse(sjava_apps::eyetrack::SOURCE).expect("parses");

    // Populate the artifact store, then destroy the tail of every
    // object.
    let mut writer = IncrementalChecker::with_dir(&dir);
    let cold = writer.check(&program);
    let root = writer
        .store()
        .expect("store opened")
        .objects_root()
        .to_path_buf();
    drop(writer);
    let mut mangled = 0usize;
    for fanout in std::fs::read_dir(&root).expect("objects root").flatten() {
        for f in std::fs::read_dir(fanout.path()).expect("fanout").flatten() {
            let mut bytes = std::fs::read(f.path()).expect("object");
            bytes.truncate((bytes.len() / 3).max(16));
            std::fs::write(f.path(), &bytes).expect("corrupt");
            mangled += 1;
        }
    }
    assert!(mangled > 0, "the check must have persisted objects");

    // A fresh session over the corrupt store must still produce the
    // exact cold-check output; corrupt objects are silent misses.
    let mut reader = IncrementalChecker::with_dir(&dir);
    let warm = reader.check(&program);
    assert_eq!(digest(&cold), digest(&warm), "corrupt cache changed output");
    let stats = warm.cache.expect("stats");
    assert!(
        stats.misses > 0,
        "truncation must have destroyed at least one entry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_round_trip_serves_warm_hits_across_sessions() {
    let dir = std::env::temp_dir().join("sjava-cache-correctness-roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    let program = sjava_syntax::parse(sjava_apps::sumobot::SOURCE).expect("parses");

    let mut first = IncrementalChecker::with_dir(&dir);
    let cold = first.check(&program);
    assert!(cold.cache.expect("stats").misses > 0);
    drop(first);

    // Store objects are probed lazily — the fresh session holds nothing
    // in memory until the check fetches per-fingerprint artifacts.
    let mut second = IncrementalChecker::with_dir(&dir);
    assert!(second.is_empty(), "store probing is lazy, not a bulk load");
    let warm = second.check(&program);
    assert_eq!(digest(&cold), digest(&warm));
    let stats = warm.cache.expect("stats");
    assert_eq!(
        stats.misses, 0,
        "store-backed entries must serve all methods"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_backed_session_counts_red_like_an_in_memory_one() {
    // A store entry whose read-set went stale is red, exactly like a
    // stale in-memory entry: after the same interface edit, a fresh
    // session over a primed store and a warm in-memory session must
    // report the same (green, red, misses).
    let dir = std::env::temp_dir().join("sjava-cache-correctness-red");
    let _ = std::fs::remove_dir_all(&dir);
    let pristine = sjava_syntax::parse(sjava_apps::mp3dec::source()).expect("parses");
    let first = &pristine.classes[0];
    let (class, method) = (first.name.clone(), first.methods[0].name.clone());
    let mut edited = pristine.clone();
    assert!(shift_method_span(&mut edited, &class, &method));

    let mut primer = IncrementalChecker::with_dir(&dir);
    primer.check(&pristine);
    drop(primer);
    let mut memory = IncrementalChecker::new();
    memory.check(&pristine);
    let warm = memory.check(&edited);
    let stored = IncrementalChecker::with_dir(&dir).check(&edited);

    assert_eq!(digest(&warm), digest(&check_program(&edited)));
    assert_eq!(digest(&stored), digest(&warm));
    let counts = |r: &CheckReport| {
        let s = r.cache.expect("stats");
        (s.green, s.red, s.misses)
    };
    assert!(counts(&warm).1 > 0, "the edit must red a caller");
    assert_eq!(counts(&stored), counts(&warm));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn small_programs_round_trip_through_the_store() {
    // Every store-backed check publishes its fresh results, however small
    // the program: a fresh session over windsensor's objects replays
    // every method and publishes nothing new.
    let dir = std::env::temp_dir().join("sjava-cache-correctness-small");
    let _ = std::fs::remove_dir_all(&dir);
    let program = sjava_syntax::parse(sjava_apps::windsensor::SOURCE).expect("parses");

    let mut writer = IncrementalChecker::with_dir(&dir);
    let cold = writer.check(&program);
    let published = writer.store().expect("store opened").object_count();
    assert!(published > 0, "windsensor must publish store objects");
    drop(writer);

    let mut reader = IncrementalChecker::with_dir(&dir);
    let warm = reader.check(&program);
    assert_eq!(digest(&warm), digest(&cold));
    assert_eq!(digest(&warm), digest(&check_program(&program)));
    let stats = warm.cache.expect("stats");
    assert_eq!(stats.misses, 0, "every method replays from the store");
    assert_eq!(stats.hits, cold.cache.expect("stats").misses);
    assert_eq!(
        reader.store().expect("store opened").object_count(),
        published,
        "a full replay publishes nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reverting_an_edit_hits_the_old_entries() {
    let source = sjava_apps::windsensor::SOURCE;
    let original = sjava_syntax::parse(source).expect("parses");
    let mut edited = original.clone();
    bump_somewhere(&mut edited);

    let mut session = IncrementalChecker::new();
    session.check(&original);
    session.check(&edited);
    // Content addressing: the original fingerprints still have entries.
    let back = session.check(&original);
    let stats = back.cache.expect("stats");
    assert_eq!(stats.misses, 0, "reverted program must be fully cached");
    assert_eq!(digest(&back), digest(&check_program(&original)));
}

/// Diagnostics whose spans reach outside the method that reports them: a
/// lattice-build error on another class's header and on another method's
/// `@LATTICE`, a flow-up in `main` labelled at the class `@METHODDEFAULT`
/// lattice, and an unprovable loop with a suggested label.
const OUTREACH: &str = r#"@LATTICE("P<Q,Q<P")
class Broken {
}
@LATTICE("LO<HI") @METHODDEFAULT("V<IN") @THISLOC("V")
class A {
    @LOC("HI") int hi; @LOC("LO") int lo;
    void main() {
        SSJAVA: while (true) {
            @LOC("IN") int x = Device.read();
            hi = x;
            lo = hi;
            hi = lo;
            while (x != 0) { x = Device.read(); }
            Out.emit(lo);
        }
    }
    @LATTICE("S<T,T<S") @THISLOC("S")
    void spare() {
    }
}"#;

/// Text (every diagnostic rendered with its labels and suggestion), JSON
/// and SARIF renderings of `diags` against `source`.
fn renderings(source: &str, diags: &Diagnostics) -> [String; 3] {
    let file = SourceFile::new("outreach.sj", source.to_string());
    let text: Vec<String> = diags.iter().map(|d| d.render(&file)).collect();
    [
        text.join("\n"),
        emit::to_json(&file, diags),
        emit::to_sarif(&file, diags),
    ]
}

#[test]
fn moved_text_rebases_spans_that_reach_outside_the_method() {
    let mut text = OUTREACH.to_string();
    let mut session = IncrementalChecker::new();
    let first = session.check_source(&text).expect("parses");
    let cold = sjava_core::check_source(&text).expect("parses");
    assert_eq!(
        renderings(&text, &first.diagnostics),
        renderings(&text, &cold.diagnostics)
    );
    let labelled = first.diagnostics.iter().any(|d| !d.labels.is_empty());
    let suggested = first.diagnostics.iter().any(|d| d.suggestion.is_some());
    let lattice = first
        .diagnostics
        .iter()
        .filter(|d| d.message.contains("invalid lattice declaration"))
        .count();
    assert!(
        labelled && suggested && lattice == 2,
        "{}",
        first.diagnostics
    );
    // Between the label's `@METHODDEFAULT` and `main` (which moves `main`,
    // `spare` and their diagnostics but not the label), before both, and
    // before everything (which also moves `Broken`'s lattice error).
    let sites: [(&str, usize); 3] = [
        ("class A {", "class A {".len()),
        ("@LATTICE(\"LO<HI\")", 0),
        ("@LATTICE(\"P<Q", 0),
    ];
    for (needle, past) in sites {
        for insert in TEXT_INSERTS {
            let at = text.find(needle).expect("site present") + past;
            text.insert_str(at, insert);
            let warm = session.check_source(&text).expect("parses");
            let cold = sjava_core::check_source(&text).expect("parses");
            assert_eq!(
                renderings(&text, &warm.diagnostics),
                renderings(&text, &cold.diagnostics),
                "after inserting {insert:?} at {at}"
            );
            assert!(
                session.last_rechecked().is_empty(),
                "moving text re-checked {:?}",
                session.last_rechecked()
            );
        }
    }
    // An edit to `main` itself re-checks it against the lattice model
    // cached before the moves: its fresh label must point where the
    // `@METHODDEFAULT` lattice sits now.
    text = text.replace("Out.emit(lo);", "Out.emit(lo + 1);");
    let warm = session.check_source(&text).expect("parses");
    let cold = sjava_core::check_source(&text).expect("parses");
    assert_eq!(
        renderings(&text, &warm.diagnostics),
        renderings(&text, &cold.diagnostics)
    );
    assert_eq!(
        session.last_rechecked(),
        [("A".to_string(), "main".to_string())]
    );
}

/// Compilation units of a program with diagnostics that carry labels and
/// suggestions, for rearranging whole units.
const UNITS: [&str; 4] = [
    "@LATTICE(\"P<Q,Q<P\")\nclass Broken {\n}\n",
    "// helpers\nclass Helper { int k; int twice(int v) { return v + v; } }\n",
    OUTREACH_A,
    "class Other { int z; void spare() { z = Helper.k; } }\n",
];

const OUTREACH_A: &str = r#"@LATTICE("LO<HI") @METHODDEFAULT("V<IN") @THISLOC("V")
class A {
    @LOC("HI") int hi; @LOC("LO") int lo;
    void main() {
        SSJAVA: while (true) {
            @LOC("IN") int x = Device.read();
            hi = x;
            lo = hi;
            while (x != 0) { x = Device.read(); }
            Out.emit(lo);
        }
    }
}
"#;

#[test]
fn moved_duplicated_and_reverted_units_check_like_cold() {
    let text_of = |order: &[usize]| order.iter().map(|&u| UNITS[u]).collect::<String>();
    // Each text reuses units of the one before it: moved (swapped, to
    // the front, to the end), duplicated (a second `Broken`, a second
    // `A`), dropped, edited, and reverted to texts seen before.
    let steps: [&[usize]; 9] = [
        &[0, 1, 2, 3],
        &[0, 3, 2, 1],
        &[2, 0, 3, 1],
        &[2, 0, 3, 1, 0],
        &[2, 0, 2, 3, 1, 0],
        &[0, 1, 2, 3],
        &[1, 2],
        &[3, 2, 1, 0],
        &[0, 1, 2, 3],
    ];
    let mut session = IncrementalChecker::new();
    for (n, order) in steps.iter().enumerate() {
        for text in [text_of(order), text_of(order).replace("v + v", "v + v + 1")] {
            let warm = session.check_source(&text).expect("parses");
            let cold = sjava_core::check_source(&text).expect("parses");
            assert_eq!(
                renderings(&text, &warm.diagnostics),
                renderings(&text, &cold.diagnostics),
                "step {n}: units {order:?}"
            );
            assert_eq!(warm.termination_failures, cold.termination_failures);
        }
    }
}

/// A second class `A` whose `main` declares a lattice of its own: a model
/// that read it instead of the first `A` would label `main`'s flow error
/// at the wrong `@LATTICE`.
const SECOND_A: &str =
    "@LATTICE(\"P<Q\")\nclass A {\n    @LATTICE(\"S<T\") @THISLOC(\"S\")\n    void main() { }\n}\n";

#[test]
fn adding_and_removing_a_repeated_class_checks_like_cold() {
    // The duplicate is added and moved on its own. The interface is then
    // unchanged, so the cached lattice model is reused with its spans
    // re-read, and an edit to the first `main` re-checks it against
    // them. Then everything moves, and the duplicate is removed.
    let moved = format!("{OUTREACH}\n// moved\n{SECOND_A}");
    let edited = moved.replace("Out.emit(lo);", "Out.emit(lo + 1);");
    let texts = [
        OUTREACH.to_string(),
        format!("{OUTREACH}\n{SECOND_A}"),
        moved,
        edited.clone(),
        format!("// moved\n{edited}"),
        OUTREACH.to_string(),
    ];
    let mut session = IncrementalChecker::new();
    for (n, text) in texts.iter().enumerate() {
        let warm = session.check_source(text).expect("parses");
        let cold = sjava_core::check_source(text).expect("parses");
        assert_eq!(
            renderings(text, &warm.diagnostics),
            renderings(text, &cold.diagnostics),
            "step {n}"
        );
        assert!(
            warm.diagnostics.iter().any(|d| !d.labels.is_empty()),
            "step {n}: {}",
            warm.diagnostics
        );
    }
}

#[test]
fn token_boundary_inserts_replay_exactly_on_the_app_with_most_diagnostics() {
    // weather is unannotated on purpose (it is the inference input), so
    // its check reports dozens of diagnostics of several kinds; every one
    // must land where a cold check puts it after each insert.
    let mut text = sjava_apps::weather::SOURCE.to_string();
    let mut session = IncrementalChecker::new();
    let first = session.check_source(&text).expect("parses");
    assert!(first.diagnostics.len() > 20, "{}", first.diagnostics);
    for step in 0..90 {
        let insert = TEXT_INSERTS[step % TEXT_INSERTS.len()];
        let at = insert_at_token(&mut text, step * 5, insert);
        let warm = session.check_source(&text).expect("parses");
        let cold = sjava_core::check_source(&text).expect("parses");
        assert_eq!(
            renderings(&text, &warm.diagnostics),
            renderings(&text, &cold.diagnostics),
            "step {step}: after inserting {insert:?} at {at}"
        );
    }
}

#[test]
fn session_keeps_at_most_two_checks_of_entries() {
    // Source-text edits that re-key a method each time (a new literal)
    // and move text (a token-boundary insert): an unbounded session would
    // hold one more entry per edit.
    let mut text = sjava_apps::mp3dec::source().to_string();
    let mut session = IncrementalChecker::new();
    session.check_source(&text).expect("parses");
    for step in 0..240 {
        let literals: Vec<_> = sjava_syntax::lexer::lex(&text, &mut Diagnostics::new())
            .into_iter()
            .filter(|t| t.kind == TokenKind::IntLit)
            .map(|t| t.span)
            .collect();
        let lit = literals[step * 7 % literals.len()];
        text.replace_range(
            lit.start as usize..lit.end as usize,
            &(step + 2).to_string(),
        );
        insert_at_token(&mut text, step * 13, TEXT_INSERTS[step % 3]);
        let report = session.check_source(&text).expect("edited source parses");
        let stats = report.cache.expect("stats");
        let reachable = stats.hits + stats.misses;
        assert!(
            session.len() <= 2 * reachable,
            "step {step}: {} entries for {reachable} reachable methods",
            session.len()
        );
    }
}

/// The byte offset of the `(` opening method `m`'s parameter list.
fn header_paren(text: &str, m: &sjava_syntax::ast::MethodDecl) -> usize {
    let start = m.span.start as usize;
    start
        + text[start..]
            .find('(')
            .expect("a method header has a parameter list")
}

/// Inserts a space inside the parameter list of method `pick` (modulo
/// the method count), the edit a reformatted signature makes.
fn pad_a_header(text: &mut String, pick: usize) {
    let program = sjava_syntax::parse(text).expect("parses");
    let methods: Vec<_> = program.classes.iter().flat_map(|c| &c.methods).collect();
    let at = header_paren(text, methods[pick % methods.len()]);
    text.insert(at + 1, ' ');
}

/// Declares an unused `int` field after the last field of class `pick`
/// (modulo the classes with a field), at that field's location if it has
/// one.
fn add_a_field(text: &mut String, pick: usize, n: usize) {
    let program = sjava_syntax::parse(text).expect("parses");
    let fields: Vec<_> = program
        .classes
        .iter()
        .filter_map(|c| c.fields.last())
        .collect();
    let field = fields[pick % fields.len()];
    let annot = match field.annots.loc.as_ref().and_then(|l| l.elems.first()) {
        Some(loc) => format!("@LOC(\"{}\") ", loc.name),
        None => String::new(),
    };
    let end = field.span.end as usize;
    let at = end + text[end..].find(';').expect("a field ends in `;`") + 1;
    text.insert_str(at, &format!("\n    {annot}int unusedPad{n};"));
}

#[test]
fn header_and_field_edits_check_like_cold() {
    // Both edits change the program's interface, so the lattice model is
    // rebuilt; every equal declaration is built once and shared, and the
    // report must still equal a cold check byte for byte.
    for (name, source) in apps() {
        let mut text = source;
        let mut session = IncrementalChecker::new();
        session.check_source(&text).expect("parses");
        for step in 0..8 {
            if step % 2 == 0 {
                pad_a_header(&mut text, step * 7);
            } else {
                add_a_field(&mut text, step * 5, step);
            }
            let warm = session.check_source(&text).expect("edited source parses");
            let cold = sjava_core::check_source(&text).expect("edited source parses");
            assert_eq!(
                renderings(&text, &warm.diagnostics),
                renderings(&text, &cold.diagnostics),
                "{name} step {step}"
            );
            assert_eq!(warm.termination_failures, cold.termination_failures);
        }
    }
}

/// `text` with every whole-word occurrence of the identifier `old`
/// replaced by `new`.
fn rename_ident(text: &str, old: &str, new: &str) -> String {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(i) = rest.find(old) {
        let (before, after) = (&rest[..i], &rest[i + old.len()..]);
        let whole = !before.ends_with(word) && !after.starts_with(word);
        out.push_str(before);
        out.push_str(if whole { new } else { old });
        rest = after;
    }
    out.push_str(rest);
    out
}

#[test]
fn session_keeps_only_the_facts_its_kept_read_sets_name() {
    // Each step renames a field the event loop reads, so each check reads
    // a field fact no earlier check read. A fact table that never dropped
    // a fact would grow with every step.
    let mut text = sjava_apps::mp3dec::source().to_string();
    let mut name = "header".to_string();
    let mut session = IncrementalChecker::new();
    session.check_source(&text).expect("parses");
    let first = session.fact_count();
    assert!(
        first > 0 && first < 240,
        "{first} facts after the first check"
    );
    for step in 0..240 {
        let next = format!("hdr{step}");
        text = rename_ident(&text, &name, &next);
        name = next;
        let report = session.check_source(&text).expect("renamed source parses");
        assert!(
            session.fact_count() <= 2 * first,
            "step {step}: {} facts, {first} after the first check",
            session.fact_count()
        );
        if step % 60 == 59 {
            let cold = sjava_core::check_source(&text).expect("renamed source parses");
            assert_eq!(digest(&report), digest(&cold), "step {step}");
        }
    }
}

#[test]
fn adding_and_removing_an_inheritance_cycle_checks_like_cold() {
    // A cycle makes the text fail to parse (SJ0005 at each class on it),
    // and the unit-indexed parse declines it rather than walk the cycle;
    // once it is gone the session goes on from its last good parse.
    let base = sjava_apps::windsensor::SOURCE.to_string();
    let cycle =
        format!("{base}\nclass Loop1 extends Loop2 {{ }}\nclass Loop2 extends Loop1 {{ }}\n");
    let own = format!("class Own extends Own {{ }}\n{base}");
    let through_app = base.replace("class WindRec", "class WindRec extends Spare")
        + "\nclass Spare extends WindRec { }\n";
    let texts = [
        (base.clone(), false),
        (cycle, true),
        (base.clone(), false),
        (own, true),
        (through_app, true),
        (base, false),
    ];
    let mut session = IncrementalChecker::new();
    for (n, (text, cyclic)) in texts.iter().enumerate() {
        let render = |result: Result<CheckReport, sjava_core::ParseFailure>| match result {
            Ok(report) => renderings(text, &report.diagnostics),
            Err(failure) => renderings(text, &failure.diagnostics),
        };
        let warm = render(session.check_source(text));
        let cold = render(sjava_core::check_source(text));
        assert_eq!(warm, cold, "step {n}");
        assert_eq!(
            warm[0].contains("cyclic inheritance"),
            *cyclic,
            "step {n}: {}",
            warm[0]
        );
    }
}
