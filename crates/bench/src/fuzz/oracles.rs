//! The five differential oracles. Each takes a source string and
//! returns `Some(description)` on a mismatch, `None` when every paired
//! engine agreed. None of them assumes the input is valid: parse
//! failures are compared as rendered diagnostics, which is exactly the
//! faulty-state surface the harness exists to pressure.

use std::path::Path;

use sjava_analysis::cfg::Cfg;
use sjava_analysis::dataflow;
use sjava_syntax::emit;
use sjava_syntax::pretty::print_program;
use sjava_syntax::strip::strip_location_annotations;
use sjava_syntax::SourceFile;

/// Renders a check result the way the golden suite does, so mismatch
/// descriptions and fixtures line up with existing tooling.
fn render_check(src: &str) -> String {
    match sjava_core::check_source(src) {
        Ok(report) => format!(
            "ok={} termination_failures={}\n{}",
            report.is_ok(),
            report.termination_failures,
            report.diagnostics
        ),
        Err(failure) => format!("parse error\n{failure}"),
    }
}

/// Runs `f` with `SJAVA_THREADS` forced to `threads`, restoring the
/// previous value afterwards. See the module caveat on [`super::run`]:
/// this is process-global, so the harness must not race other
/// env-sensitive threads.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let prev = std::env::var(sjava_par::THREADS_ENV).ok();
    std::env::set_var(sjava_par::THREADS_ENV, threads.to_string());
    let out = f();
    match prev {
        Some(v) => std::env::set_var(sjava_par::THREADS_ENV, v),
        None => std::env::remove_var(sjava_par::THREADS_ENV),
    }
    out
}

/// Check oracle: the full checker must render byte-identically at
/// `SJAVA_THREADS=1/2/4`, and on every method CFG the dense dataflow
/// kernels must equal the legacy worklist solver (the executable
/// specification they were derived from).
pub fn check(src: &str) -> Option<String> {
    let base = with_threads(1, || render_check(src));
    for threads in [2usize, 4] {
        let wide = with_threads(threads, || render_check(src));
        if wide != base {
            return Some(format!(
                "checker diagnostics differ between 1 and {threads} worker threads"
            ));
        }
    }
    if let Ok(program) = sjava_syntax::parse(src) {
        for class in &program.classes {
            for method in &class.methods {
                let cfg = Cfg::build(&method.body);
                let dense = dataflow::live_variables(&cfg);
                let legacy = dataflow::solve(&cfg, &dataflow::LiveVariables);
                if dense.inputs != legacy.inputs || dense.outputs != legacy.outputs {
                    return Some(format!(
                        "dense and legacy liveness diverge on `{}.{}`",
                        class.name, method.name
                    ));
                }
                let dense_rd = dataflow::reaching_defs(&cfg);
                let legacy_rd = dataflow::solve(&cfg, &dataflow::ReachingDefs::prepare(&cfg));
                if dense_rd.inputs != legacy_rd.inputs || dense_rd.outputs != legacy_rd.outputs {
                    return Some(format!(
                        "dense and legacy reaching-defs diverge on `{}.{}`",
                        class.name, method.name
                    ));
                }
            }
        }
    }
    None
}

/// Infer oracle: location annotations stripped, both engines run in
/// both modes. They must agree on success/failure; on success the
/// re-annotated bytes, the lattice keys plus structural fingerprints
/// (including generated `SH_*` shared names), and both assignment maps
/// must match; on failure the rendered diagnostics must match.
pub fn infer(src: &str) -> Option<String> {
    let Ok(program) = sjava_syntax::parse(src) else {
        return None; // nothing to infer on — the parse oracle owns this
    };
    let stripped = strip_location_annotations(&program);
    for mode in [sjava_infer::Mode::Naive, sjava_infer::Mode::SInfer] {
        let legacy = sjava_infer::infer_with(&stripped, mode, sjava_infer::Engine::Legacy);
        let dense = sjava_infer::infer_with(&stripped, mode, sjava_infer::Engine::Dense);
        match (legacy, dense) {
            (Ok(l), Ok(d)) => {
                if print_program(&l.annotated) != print_program(&d.annotated) {
                    return Some(format!("{mode:?}: re-annotated programs diverge"));
                }
                let fp = |r: &sjava_infer::InferenceResult| {
                    let m: Vec<_> = r
                        .lattices
                        .methods
                        .iter()
                        .map(|(k, lat)| (k.clone(), lat.fingerprint()))
                        .collect();
                    let f: Vec<_> = r
                        .lattices
                        .fields
                        .iter()
                        .map(|(k, lat)| (k.clone(), lat.fingerprint()))
                        .collect();
                    (m, f)
                };
                if fp(&l) != fp(&d) {
                    return Some(format!("{mode:?}: generated lattices diverge"));
                }
                if l.lattices.method_assign != d.lattices.method_assign
                    || l.lattices.field_assign != d.lattices.field_assign
                {
                    return Some(format!("{mode:?}: location assignments diverge"));
                }
            }
            (Err(l), Err(d)) => {
                if l.to_string() != d.to_string() {
                    return Some(format!("{mode:?}: engines fail with different diagnostics"));
                }
            }
            (l, d) => {
                return Some(format!(
                    "{mode:?}: engines disagree on success (legacy ok={}, dense ok={})",
                    l.is_ok(),
                    d.is_ok()
                ))
            }
        }
    }
    None
}

/// Cache oracle: a fresh cache-less check, an in-memory cold check, a
/// warm replay, a persist-to-disk session, and a reload-from-disk
/// session must all render the same bytes.
pub fn cache(src: &str, scratch: &Path) -> Option<String> {
    let fresh = render_check(src);
    let mut session = sjava_cache::IncrementalChecker::new();
    let render_session = |s: &mut sjava_cache::IncrementalChecker| match s.check_source(src) {
        Ok(report) => format!(
            "ok={} termination_failures={}\n{}",
            report.is_ok(),
            report.termination_failures,
            report.diagnostics
        ),
        Err(failure) => format!("parse error\n{failure}"),
    };
    if render_session(&mut session) != fresh {
        return Some("cold in-memory cache replay diverges from fresh check".into());
    }
    if render_session(&mut session) != fresh {
        return Some("warm in-memory cache replay diverges from fresh check".into());
    }
    let _ = std::fs::remove_dir_all(scratch);
    {
        let mut disk = sjava_cache::IncrementalChecker::with_dir(scratch);
        disk.set_persist_min(0);
        if render_session(&mut disk) != fresh {
            return Some("disk-backed cold check diverges from fresh check".into());
        }
    } // drop persists cache.bin
    let mut reloaded = sjava_cache::IncrementalChecker::with_dir(scratch);
    let replay = render_session(&mut reloaded);
    let _ = std::fs::remove_dir_all(scratch);
    if replay != fresh {
        return Some("reloaded on-disk cache replay diverges from fresh check".into());
    }
    edit_sequence(src, &mut session)
}

/// A check's verdict, diagnostics and their JSON rendering against
/// `text` (which carries every label and suggestion span).
fn render_text_check(
    text: &str,
    result: &Result<sjava_core::CheckReport, sjava_core::ParseFailure>,
) -> String {
    let file = sjava_syntax::SourceFile::new("fuzz.sj", text.to_string());
    match result {
        Ok(report) => format!(
            "ok={} termination_failures={}\n{}",
            report.is_ok(),
            report.termination_failures,
            sjava_syntax::emit::to_json(&file, &report.diagnostics)
        ),
        Err(failure) => format!(
            "parse error\n{}",
            sjava_syntax::emit::to_json(&file, &failure.diagnostics)
        ),
    }
}

/// A cheap deterministic stream seeded from the source bytes, so an edit
/// leg replays byte-identically for one fuzz case.
fn stream(src: &str) -> impl FnMut() -> u64 {
    let mut state = src
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
        })
        .max(1);
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// The edit-sequence leg of the cache oracle: applies 1–3 deterministic
/// `sjava_cache::edit` mutations to the parsed program (which mutation
/// and where is derived from the source bytes, so a fuzz case replays
/// byte-identically) and re-checks the mutated AST through the warmed
/// incremental `session` after each one. Every step must render exactly
/// like a fresh whole-program check of the same AST — this is red-green
/// revalidation under fire, since each edit moves a different slice of
/// the recorded fact space (body content, header spans, field sets).
/// Then 1–3 source-text edits (a space, a newline or a line comment at a
/// seeded token boundary) move text under the same session, whose
/// rebased replay must render like a fresh check of the text, labels and
/// suggestions included.
fn edit_sequence(src: &str, session: &mut sjava_cache::IncrementalChecker) -> Option<String> {
    use sjava_cache::edit::{
        add_unused_field, insert_at_token, mutate_first_literal, shift_method_span, TEXT_INSERTS,
    };

    let Ok(mut program) = sjava_syntax::parse(src) else {
        return None; // unparsable cases were already compared above
    };
    let targets: Vec<(String, String)> = program
        .classes
        .iter()
        .flat_map(|c| c.methods.iter().map(|m| (c.name.clone(), m.name.clone())))
        .collect();
    if targets.is_empty() {
        return None;
    }
    let mut next = stream(src);
    let steps = 1 + (next() % 3) as usize;
    for step in 0..steps {
        // Try each edit shape starting from a pseudo-random one; a
        // program may lack literals or fields, so fall through until one
        // applies. A program where none applies still re-checks below.
        let (class, method) = &targets[next() as usize % targets.len()];
        let mut applied = false;
        for shape in 0..3u64 {
            applied = match (next() + shape) % 3 {
                0 => mutate_first_literal(&mut program, class, method),
                1 => shift_method_span(&mut program, class, method),
                _ => add_unused_field(&mut program, class),
            };
            if applied {
                break;
            }
        }
        let incremental = {
            let report = session.check(&program);
            format!(
                "ok={} termination_failures={}\n{}",
                report.is_ok(),
                report.termination_failures,
                report.diagnostics
            )
        };
        let full = {
            let report = sjava_core::check_program(&program);
            format!(
                "ok={} termination_failures={}\n{}",
                report.is_ok(),
                report.termination_failures,
                report.diagnostics
            )
        };
        if incremental != full {
            return Some(format!(
                "incremental re-check diverges from fresh check after edit {} of {steps} (applied={applied})",
                step + 1
            ));
        }
    }
    let mut text = src.to_string();
    let text_steps = 1 + (next() % 3) as usize;
    for step in 0..text_steps {
        let insert = TEXT_INSERTS[next() as usize % TEXT_INSERTS.len()];
        insert_at_token(&mut text, next() as usize, insert);
        let incremental = render_text_check(&text, &session.check_source(&text));
        if incremental != render_text_check(&text, &sjava_core::check_source(&text)) {
            return Some(format!(
                "incremental re-check diverges from fresh check after text edit {} of {text_steps} ({insert:?})",
                step + 1
            ));
        }
    }
    None
}

/// Parse oracle: the adaptive front door and the forced-parallel
/// front-end must both agree with the sequential parser — identical
/// programs (spans included) and identical rendered diagnostics — and so
/// must re-parses of seeded edits from a kept unit-indexed parse
/// (`reparse_edits`).
pub fn parse(src: &str) -> Option<String> {
    let seq = sjava_syntax::parse_sequential(src);
    let adaptive = sjava_syntax::parse(src);
    match (&seq, &adaptive) {
        (Ok(a), Ok(b)) => {
            if a != b {
                return Some("adaptive parse AST diverges from sequential".into());
            }
        }
        (Err(a), Err(b)) => {
            if a.to_string() != b.to_string() {
                return Some("adaptive parse diagnostics diverge from sequential".into());
            }
        }
        _ => {
            return Some(format!(
                "adaptive and sequential parse disagree on success (seq ok={}, adaptive ok={})",
                seq.is_ok(),
                adaptive.is_ok()
            ))
        }
    }
    if let Some(par) = sjava_syntax::parse_parallel_forced(src, 4) {
        match &seq {
            Ok(s) if *s == par => {}
            Ok(_) => return Some("forced-parallel AST diverges from sequential".into()),
            Err(_) => {
                return Some(
                    "forced-parallel parse succeeded where sequential diagnosed errors".into(),
                )
            }
        }
    }
    reparse_edits(src)
}

/// Text spliced in by [`reparse_edits`]: structure, lexical traps and
/// trivia.
const REPARSE_INSERTS: &[&str] = &[
    "{",
    "}",
    "\"",
    "/*",
    "*/",
    "//",
    "\n",
    " ",
    "x",
    ";",
    "int q;",
    "class Z { }\n",
];

/// The re-parse leg of the parse oracle: from a unit-indexed parse of
/// `src`, 1–3 seeded byte-range edits (inserts, deletes, replacements at
/// either end, after a `}` or anywhere), each re-parsed from the parse
/// before it. Whenever [`sjava_syntax::UnitParse::reparse`] accepts a
/// text, its program must equal the sequential parser's, spans included;
/// declining is always allowed.
fn reparse_edits(src: &str) -> Option<String> {
    let Some(mut kept) = sjava_syntax::UnitParse::new(src) else {
        return None; // declined: the whole-file parse was compared above
    };
    let mut next = stream(src);
    let mut text = src.to_string();
    let steps = 1 + (next() % 3) as usize;
    for step in 0..steps {
        let closes: Vec<usize> = text.match_indices('}').map(|(i, _)| i + 1).collect();
        let mut at = match next() % 4 {
            0 => 0,
            1 => text.len(),
            2 if !closes.is_empty() => closes[next() as usize % closes.len()],
            _ => next() as usize % (text.len() + 1),
        };
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        let mut end = (at + 1 + (next() % 12) as usize).min(text.len());
        while !text.is_char_boundary(end) {
            end += 1;
        }
        let insert = REPARSE_INSERTS[next() as usize % REPARSE_INSERTS.len()];
        match next() % 3 {
            0 => text.insert_str(at, insert),
            1 => text.replace_range(at..end, ""),
            _ => text.replace_range(at..end, insert),
        }
        if kept.reparse(&text).is_some() {
            match sjava_syntax::parse_sequential(&text) {
                Ok(seq) if seq == *kept.program() => {}
                Ok(_) => {
                    return Some(format!(
                        "re-parse after edit {} of {steps} diverges from sequential",
                        step + 1
                    ))
                }
                Err(_) => {
                    return Some(format!(
                    "re-parse after edit {} of {steps} succeeded where sequential diagnosed errors",
                    step + 1
                ))
                }
            }
        }
    }
    None
}

/// Emit oracle: diagnostics sorted stably; JSON and SARIF strictly
/// parseable; the JSON header's error/warning counts consistent with
/// the diagnostics; rendering deterministic.
pub fn emit(src: &str) -> Option<String> {
    let diags = match sjava_core::check_source(src) {
        Ok(report) => report.diagnostics,
        Err(failure) => failure.diagnostics,
    };
    if !diags.is_sorted() {
        return Some("diagnostics are not in the stable (file, span, code) order".into());
    }
    let file = SourceFile::new("fuzz.sj".to_string(), src.to_string());
    let json = emit::to_json(&file, &diags);
    if let Err(e) = validate_json(&json) {
        return Some(format!("emitted JSON is not parseable: {e}"));
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == sjava_syntax::Severity::Error)
        .count();
    let warnings = diags
        .iter()
        .filter(|d| d.severity == sjava_syntax::Severity::Warning)
        .count();
    if !json.contains(&format!("\"errors\":{errors},")) {
        return Some("JSON header error count disagrees with the diagnostics".into());
    }
    if !json.contains(&format!("\"warnings\":{warnings},")) {
        return Some("JSON header warning count disagrees with the diagnostics".into());
    }
    let sarif = emit::to_sarif(&file, &diags);
    if let Err(e) = validate_json(&sarif) {
        return Some(format!("emitted SARIF is not parseable JSON: {e}"));
    }
    if json != emit::to_json(&file, &diags) || sarif != emit::to_sarif(&file, &diags) {
        return Some("emitters are not deterministic across renders".into());
    }
    None
}

/// Strict JSON well-formedness check (RFC 8259 grammar, no extensions):
/// a single value spanning the whole input. Hand-rolled because the
/// harness may not take on serde — and an independent reimplementation
/// is a better differential oracle than the emitter's own escaping
/// helpers would be.
pub fn validate_json(text: &str) -> Result<(), String> {
    let b = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, b"true"),
        Some(b'f') => parse_lit(b, pos, b"false"),
        Some(b'n') => parse_lit(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!(
            "unexpected byte {c:#04x} at offset {pos}",
            pos = *pos
        )),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("malformed literal at offset {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(format!("number without digits at offset {start}"));
    }
    // Leading zero must stand alone (RFC 8259 §6).
    if b[digits_start] == b'0' && *pos - digits_start > 1 {
        return Err(format!("leading zero at offset {digits_start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac = *pos;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == frac {
            return Err(format!("empty fraction at offset {frac}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp = *pos;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == exp {
            return Err(format!("empty exponent at offset {exp}"));
        }
    }
    Ok(())
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(());
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        for i in 1..=4 {
                            if !matches!(b.get(*pos + i), Some(c) if c.is_ascii_hexdigit()) {
                                return Err(format!(
                                    "bad \\u escape at offset {pos}",
                                    pos = *pos - 1
                                ));
                            }
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at offset {pos}", pos = *pos - 1)),
                }
            }
            Some(c) if *c < 0x20 => {
                return Err(format!(
                    "unescaped control byte {c:#04x} at offset {pos}",
                    pos = *pos
                ))
            }
            Some(_) => *pos += 1,
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}", pos = *pos));
        }
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}", pos = *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_validator_accepts_and_rejects() {
        validate_json(r#"{"a":[1,2.5,-3e2,"x\n",true,null],"b":{}}"#).unwrap();
        assert!(validate_json("{").is_err());
        assert!(validate_json(r#"{"a":01}"#).is_err());
        assert!(validate_json(r#"{"a":1,}"#).is_err());
        assert!(validate_json("\"\u{1}\"").is_err());
        assert!(validate_json(r#"{"a":1} extra"#).is_err());
    }

    #[test]
    fn oracles_pass_on_known_good_and_known_bad_sources() {
        let clean = crate::stressgen::generate(&crate::stressgen::StressConfig::small());
        let scratch =
            std::env::temp_dir().join(format!("sjava-fuzz-oracle-smoke-{}", std::process::id()));
        for (name, result) in [
            ("infer", infer(&clean)),
            ("cache", cache(&clean, &scratch)),
            ("parse", parse(&clean)),
            ("emit", emit(&clean)),
        ] {
            assert_eq!(result, None, "{name} oracle misfired on a clean corpus");
        }
        let broken = clean.replacen("@LOC(\"F0\") ", "", 1);
        for (name, result) in [
            ("infer", infer(&broken)),
            ("cache", cache(&broken, &scratch)),
            ("parse", parse(&broken)),
            ("emit", emit(&broken)),
        ] {
            assert_eq!(result, None, "{name} oracle misfired on an erroring corpus");
        }
    }
}
