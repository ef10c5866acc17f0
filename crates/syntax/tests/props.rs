//! Property tests: randomly generated programs survive a
//! pretty-print → reparse round trip with identical structure, the
//! lexer never panics on arbitrary input, and re-parsing an edited text
//! from the previous parse ([`sjava_syntax::UnitParse`]) equals parsing
//! it from scratch.

use proptest::prelude::*;
use sjava_syntax::ast::*;
use sjava_syntax::diag::Diagnostics;
use sjava_syntax::pretty::print_program;
use sjava_syntax::token::TokenKind;

/// Strips spans so ASTs can be compared structurally.
fn normalize(mut p: Program) -> Program {
    fn nb(b: &mut Block) {
        b.span = Default::default();
        for s in &mut b.stmts {
            ns(s);
        }
    }
    fn ne(e: &mut Expr) {
        match e {
            Expr::IntLit { span, .. }
            | Expr::FloatLit { span, .. }
            | Expr::BoolLit { span, .. }
            | Expr::StrLit { span, .. }
            | Expr::Null { span }
            | Expr::This { span }
            | Expr::Var { span, .. }
            | Expr::StaticField { span, .. }
            | Expr::New { span, .. } => *span = Default::default(),
            Expr::Field { base, span, .. } | Expr::Length { base, span } => {
                *span = Default::default();
                ne(base);
            }
            Expr::Index { base, index, span } => {
                *span = Default::default();
                ne(base);
                ne(index);
            }
            Expr::Call(call) => {
                let CallExpr {
                    recv, args, span, ..
                } = &mut **call;
                *span = Default::default();
                if let Some(r) = recv {
                    ne(r);
                }
                for a in args {
                    ne(a);
                }
            }
            Expr::NewArray { len, span, .. } => {
                *span = Default::default();
                ne(len);
            }
            Expr::Unary { operand, span, .. } | Expr::Cast { operand, span, .. } => {
                *span = Default::default();
                ne(operand);
            }
            Expr::Binary { lhs, rhs, span, .. } => {
                *span = Default::default();
                ne(lhs);
                ne(rhs);
            }
        }
    }
    fn nlv(lv: &mut LValue) {
        match lv {
            LValue::Var { span, .. } | LValue::StaticField { span, .. } => {
                *span = Default::default()
            }
            LValue::Field { base, span, .. } => {
                *span = Default::default();
                ne(base);
            }
            LValue::Index { base, index, span } => {
                *span = Default::default();
                ne(base);
                ne(index);
            }
        }
    }
    fn ns(s: &mut Stmt) {
        match s {
            Stmt::VarDecl { init, span, .. } => {
                *span = Default::default();
                if let Some(e) = init {
                    ne(e);
                }
            }
            Stmt::Assign { lhs, rhs, span } => {
                *span = Default::default();
                nlv(lhs);
                ne(rhs);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                span,
            } => {
                *span = Default::default();
                ne(cond);
                nb(then_blk);
                if let Some(e) = else_blk {
                    nb(e);
                }
            }
            Stmt::While {
                cond, body, span, ..
            } => {
                *span = Default::default();
                ne(cond);
                nb(body);
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
                span,
                ..
            } => {
                *span = Default::default();
                if let Some(i) = init {
                    ns(i);
                }
                if let Some(c) = cond {
                    ne(c);
                }
                if let Some(u) = update {
                    ns(u);
                }
                nb(body);
            }
            Stmt::Return { value, span } => {
                *span = Default::default();
                if let Some(v) = value {
                    ne(v);
                }
            }
            Stmt::Break { span } | Stmt::Continue { span } => *span = Default::default(),
            Stmt::ExprStmt { expr, span } => {
                *span = Default::default();
                ne(expr);
            }
            Stmt::Block(b) => nb(b),
        }
    }
    for c in &mut p.classes {
        c.span = Default::default();
        if let Some(l) = &mut c.annots.lattice {
            l.span = Default::default();
        }
        for f in &mut c.fields {
            f.span = Default::default();
            if let Some(e) = &mut f.init {
                ne(e);
            }
        }
        for m in &mut c.methods {
            m.span = Default::default();
            if let Some(l) = &mut m.annots.lattice {
                l.span = Default::default();
            }
            for pm in &mut m.params {
                pm.span = Default::default();
            }
            nb(&mut m.body);
        }
    }
    p
}

/// Simple expressions over the fields/locals `a`, `b` and literals.
fn arb_expr() -> impl Strategy<Value = String> {
    let leaf = prop::sample::select(vec![
        "a".to_string(),
        "b".to_string(),
        "1".to_string(),
        "2.5".to_string(),
        "true".to_string(),
    ]);
    leaf.prop_recursive(3, 12, 2, |inner| {
        (
            inner.clone(),
            prop::sample::select(vec!["+", "-", "*", "<", "=="]),
            inner,
        )
            .prop_map(|(l, op, r)| format!("({l} {op} {r})"))
    })
}

fn arb_stmt() -> impl Strategy<Value = String> {
    let assign = arb_expr().prop_map(|e| format!("a = {e};"));
    let decl = arb_expr().prop_map(|e| format!("int v = (int) {e};"));
    let iff = (arb_expr(), arb_expr()).prop_map(|(c, e)| format!("if ({c}) {{ b = {e}; }}"));
    let iffelse = (arb_expr(), arb_expr(), arb_expr())
        .prop_map(|(c, t, e)| format!("if ({c}) {{ a = {t}; }} else {{ b = {e}; }}"));
    let forl = arb_expr().prop_map(|e| format!("for (int i = 0; i < 4; i++) {{ a = {e}; }}"));
    let whil = arb_expr().prop_map(|e| format!("while (a > 0) {{ a = a - 1; b = {e}; }}"));
    prop_oneof![assign, decl, iff, iffelse, forl, whil]
}

fn arb_program() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_stmt(), 0..6).prop_map(|stmts| {
        format!(
            "class P {{ int a; float b; void run(int p) {{\n{}\n}} int get() {{ return a; }} }}",
            stmts.join("\n")
        )
    })
}

/// Top-level fragments chosen to confuse a brace pre-scan: braces
/// hiding inside string literals, line and block comments, and
/// annotation payloads; unterminated strings and comments; stray and
/// unbalanced braces; units that split fine but fail to parse; and
/// plain trivia with no unit to attach to. Any concatenation of these
/// must leave the parallel front-end either declining or byte-agreeing
/// with the sequential parser.
fn arb_prescan_fragment() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        // Clean units the splitter should handle.
        "class A { int x; void f() { x = 1; } }".to_string(),
        "@LATTICE(\"H<L\")\nclass B { @LOC(\"H\") int h; }".to_string(),
        "@DELTA(\"DELTA(V)\") class J { }".to_string(),
        "class K { void d() { { { { int z; } } } } }".to_string(),
        // Braces that are text, not structure.
        "class C { void s() { Out.log(\"}{\"); } }".to_string(),
        "class D { /* } { */ void g() { int y = 0; } }".to_string(),
        "// stray } and { in a line comment\nclass E { }".to_string(),
        "class F { void h() { Out.log(\"\\\"}\"); } }".to_string(),
        // Inputs the pre-scan must refuse outright.
        "class G {".to_string(),
        "}".to_string(),
        "/* unterminated".to_string(),
        "class H { Out.log(\"unterminated\n); }".to_string(),
        // Splits fine, then fails to lex or parse: the parallel attempt
        // must be discarded so the sequential parser owns the wording.
        "class I { int = ; }".to_string(),
        // Top-level trivia with no unit of its own.
        "int orphan;".to_string(),
        "// just a comment".to_string(),
        String::new(),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pretty_print_round_trips(src in arb_program()) {
        let mut d1 = Diagnostics::new();
        let p1 = sjava_syntax::parser::parse_program(&src, &mut d1);
        prop_assert!(!d1.has_errors(), "generated source must parse: {d1}\n{src}");
        let printed = print_program(&p1);
        let mut d2 = Diagnostics::new();
        let p2 = sjava_syntax::parser::parse_program(&printed, &mut d2);
        prop_assert!(!d2.has_errors(), "printed source must reparse: {d2}\n{printed}");
        prop_assert_eq!(normalize(p1), normalize(p2), "ASTs differ\n{}", printed);
    }

    #[test]
    fn lexer_never_panics(input in "\\PC{0,200}") {
        let mut d = Diagnostics::new();
        let toks = sjava_syntax::lexer::lex(&input, &mut d);
        prop_assert!(!toks.is_empty(), "always at least EOF");
        // Every span covers whole scalars, so every token's text, value
        // and diagnostic form can be read back from the input.
        for t in &toks {
            let text = t.text(&input);
            let _ = t.describe(&input);
            if t.kind == TokenKind::StrLit {
                prop_assert!(t.str_value(&input).len() <= text.len());
            }
        }
    }

    #[test]
    fn parser_never_panics_on_token_soup(input in "[a-zA-Z0-9_(){};<>=+\\-*/@\",.! ]{0,160}") {
        let mut d = Diagnostics::new();
        let _ = sjava_syntax::parser::parse_program(&input, &mut d);
    }

    /// ISSUE 7 satellite: the parallel front-end's brace pre-scan on
    /// adversarial inputs. Whenever the forced-parallel path accepts a
    /// source, its program (spans included — the per-unit lexer works at
    /// absolute offsets) must equal the sequential parser's; whenever
    /// the source is hostile enough that anything diagnoses, the
    /// parallel path must decline so the sequential wording wins.
    #[test]
    fn parallel_prescan_agrees_with_sequential(
        frags in prop::collection::vec(arb_prescan_fragment(), 0..6),
    ) {
        let src = frags.join("\n");
        for threads in [2usize, 4, 8] {
            // Declining (None) is always safe.
            if let Some(par) = sjava_syntax::parse_parallel_forced(&src, threads) {
                let seq = sjava_syntax::parse_sequential(&src);
                prop_assert!(
                    seq.is_ok(),
                    "parallel({threads}) parsed but sequential diagnosed:\n{src}"
                );
                prop_assert_eq!(
                    par,
                    seq.unwrap(),
                    "parallel({}) AST diverged from sequential:\n{}",
                    threads,
                    &src
                );
            }
        }
    }

    /// Arbitrary printable soup must never panic either front-end, and
    /// the same agreement holds when the pre-scan happens to accept.
    #[test]
    fn parallel_prescan_never_panics_on_soup(
        input in "[a-zA-Z0-9_(){};<>=+\\-*/@\"\\\\,.!/* \n]{0,200}",
    ) {
        if let Some(par) = sjava_syntax::parse_parallel_forced(&input, 4) {
            let seq = sjava_syntax::parse_sequential(&input);
            prop_assert!(seq.is_ok(), "parallel parsed but sequential diagnosed:\n{input}");
            prop_assert_eq!(par, seq.unwrap());
        }
    }
}

/// The base text of the re-parse property: five units whose static
/// resolution reads across units (a class name used as a receiver, an
/// inherited field), braces and quotes inside strings and comments, and
/// a span of every kind the AST holds — class, method and
/// `@METHODDEFAULT` lattice declarations, parameters, field
/// initializers, statements and expressions.
const EDIT_BASE: &str = "class Cfg { static int limit; int k = 3; }\n\
// a comment between units { \"\n\
class A { int x; void f(int p) { int y = Cfg.limit; x = y + p; Out.log(\"}{\"); } }\n\
class B extends A { void g() { Cfg.limit = x; /* } */ } }\n\
@LATTICE(\"H<L\")\n@METHODDEFAULT(\"OUT<IN\")\nclass L { @LOC(\"H\") int h;\n\
  @LATTICE(\"T<S\") void m(int q) { h = Cfg.limit + q; } }\n";

/// Text spliced in by the re-parse property: structure (`{`, `}`,
/// whole classes), lexical traps (quotes, comment openers), names that
/// change what other units resolve to, and plain trivia.
const EDIT_FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "\"",
    "/*",
    "*/",
    "//",
    "\n",
    " ",
    "x",
    "1",
    ";",
    "int Cfg;",
    "int z;",
    "class N { int q; }\n",
    "class Cfg { }\n",
    "void h() { Cfg.limit = 2; }",
];

/// Applies one byte-range edit to `text`: `kind` 0 inserts, 1 deletes,
/// 2 replaces. `at` picks the position — the start, the end, a byte just
/// after a `}` (a unit boundary when at top level) or anywhere.
fn apply_edit(text: &mut String, kind: u8, at: u64, len: u64, frag: &str) {
    let closes: Vec<usize> = text.match_indices('}').map(|(i, _)| i + 1).collect();
    let pos = match at % 4 {
        0 => 0,
        1 => text.len(),
        2 if !closes.is_empty() => closes[(at / 4) as usize % closes.len()],
        _ => (at / 4) as usize % (text.len() + 1),
    };
    let end = (pos + 1 + (len % 12) as usize).min(text.len());
    match kind % 3 {
        0 => text.insert_str(pos, frag),
        1 => text.replace_range(pos..end, ""),
        _ => text.replace_range(pos..end, frag),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Edits through a kept [`sjava_syntax::UnitParse`] reproduce a
    /// from-scratch parse: whenever `reparse` accepts an edited text its
    /// program equals the sequential parser's (spans included — a reused
    /// class has every span shifted), and whenever it declines, the
    /// whole-file parser gives what the sequential one gives. A declined
    /// text leaves the last good parse in place for the next edit.
    #[test]
    fn reparse_from_the_previous_parse_matches_a_fresh_parse(
        edits in prop::collection::vec(
            (0u8..3, any::<u64>(), any::<u64>(), prop::sample::select(EDIT_FRAGMENTS.to_vec())),
            1..5,
        ),
    ) {
        let mut kept = sjava_syntax::UnitParse::new(EDIT_BASE).expect("the base parses by units");
        let mut text = EDIT_BASE.to_string();
        for (kind, at, len, frag) in edits {
            apply_edit(&mut text, kind, at, len, frag);
            let seq = sjava_syntax::parse_sequential(&text);
            match kept.reparse(&text) {
                Some(origins) => {
                    prop_assert_eq!(kept.text(), text.as_str());
                    prop_assert_eq!(origins.len(), kept.program().classes.len());
                    let seq = seq.map_err(|d| d.to_string());
                    prop_assert!(seq.is_ok(), "re-parse accepted text the sequential parser rejects:\n{}", text);
                    prop_assert_eq!(kept.program(), &seq.unwrap(), "re-parse diverged:\n{}", &text);
                }
                None => {
                    let whole = sjava_syntax::parse(&text);
                    match (whole, seq) {
                        (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                        (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                        _ => prop_assert!(false, "whole-file and sequential parse disagree:\n{}", text),
                    }
                }
            }
        }
    }
}

/// Adding a field named like a class to a superclass changes how an
/// unedited subclass resolves `Cfg.limit`: from a static access to a
/// field access through the new field. The subclass's bytes are
/// unchanged, so only its resolution context tells the re-parse that its
/// kept AST is stale.
#[test]
fn a_field_named_like_a_class_re_resolves_the_unedited_subclass() {
    let before = "class Cfg { static int limit; }\n\
                  class A { int x; }\n\
                  class B extends A { void g() { x = Cfg.limit; } }\n";
    let after = before.replace("class A { int x; }", "class A { int x; Cfg Cfg; }");
    let mut kept = sjava_syntax::UnitParse::new(before).expect("parses by units");
    let origins = kept.reparse(&after).expect("parses by units");
    assert_eq!(origins[1], None, "the edited superclass is parsed afresh");
    assert_eq!(
        origins[2], None,
        "the subclass's context changed, so it is parsed afresh"
    );
    let fresh = sjava_syntax::parse_sequential(&after).expect("parses");
    assert_eq!(kept.program(), &fresh);
    let Stmt::Assign { rhs, .. } = &fresh.classes[2].methods[0].body.stmts[0] else {
        panic!("expected an assignment");
    };
    assert!(
        matches!(rhs, Expr::Field { .. }),
        "`Cfg.limit` must now read field `Cfg` of `this`: {rhs:?}"
    );
    // Back to the first text: the subclass re-resolves statically again.
    kept.reparse(before).expect("parses by units");
    assert_eq!(
        kept.program(),
        &sjava_syntax::parse_sequential(before).expect("parses")
    );
}

/// The Some-branch of the property above must actually be reachable:
/// hostile-but-valid sources (braces in strings, comments, deep
/// nesting) take the forced-parallel path and agree byte for byte.
#[test]
fn hostile_but_valid_sources_take_the_parallel_path() {
    let src = "class A { void f() { /* } { */ Out.log(\"}{\"); } } // }\n\
               @LATTICE(\"H<L\")\nclass B { @LOC(\"H\") int h; }\n\
               class K { void d() { { { int z = 1; } } } }\n";
    let par = sjava_syntax::parse_parallel_forced(src, 4)
        .expect("pre-scan must accept braces hidden in strings and comments");
    let seq = sjava_syntax::parse_sequential(src).expect("valid source");
    assert_eq!(par, seq);
    assert_eq!(par.classes.len(), 3);
}
