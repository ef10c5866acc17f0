//! Lint pass built on the CFG/dataflow framework: dead stores and unused
//! locals. Purely advisory (warnings) — a dead store is often the symptom
//! of a value that *should* have flowed somewhere, which in a
//! self-stabilizing program usually means a missing output or a stale
//! location the eviction analysis will also complain about.

use crate::cfg::{Cfg, Instr};
use crate::dataflow::{expr_uses, instr_def, live_variables, liveness_per_instr};
use sjava_syntax::ast::*;
use sjava_syntax::diag::{Diag, Diagnostics};
use std::collections::BTreeSet;

/// Lints every method of a program, reporting warnings into `diags`.
/// Returns the number of findings.
pub fn lint_program(program: &Program, diags: &mut Diagnostics) -> usize {
    let mut findings = 0;
    for class in &program.classes {
        if class.annots.trusted {
            continue;
        }
        for method in &class.methods {
            if method.annots.trusted {
                continue;
            }
            findings += lint_method(&class.name, method, diags);
        }
    }
    findings
}

fn lint_method(class: &str, method: &MethodDecl, diags: &mut Diagnostics) -> usize {
    let cfg = Cfg::build(&method.body);
    let sol = live_variables(&cfg);
    let mut findings = 0;

    // Genuine locals: parameters plus declared variables. An unqualified
    // assignment to a *field* is a heap store, never a dead store.
    let mut locals: BTreeSet<String> = method.params.iter().map(|p| p.name.clone()).collect();
    let mut declared_all: Vec<(String, sjava_syntax::span::Span)> = Vec::new();
    collect_decls(&method.body, &mut declared_all);
    locals.extend(declared_all.iter().map(|(n, _)| n.clone()));

    // Dead stores: a local assignment whose value is never read.
    for b in cfg.ids() {
        let after = liveness_per_instr(&cfg, &sol, b);
        for (idx, instr) in cfg.block(b).instrs.iter().enumerate() {
            let Some(def) = instr_def(instr) else {
                continue;
            };
            if !locals.contains(def) {
                continue;
            }
            // Initializing declarations with constant defaults are common
            // and harmless; only flag non-trivial computations.
            let trivial = match instr {
                Instr::Decl { init: Some(e), .. } => e.is_literal(),
                Instr::Assign { rhs, .. } => rhs.is_literal(),
                _ => true,
            };
            if !after[idx].contains(def) && !trivial && !has_calls(instr) {
                diags.push(Diag::dead_store(
                    format!(
                        "dead store: `{def}` in `{class}.{}` is assigned but never read afterwards",
                        method.name
                    ),
                    instr_span(instr),
                ));
                findings += 1;
            }
        }
    }

    // Unused locals: declared but never read anywhere.
    let mut read: BTreeSet<String> = BTreeSet::new();
    for b in cfg.ids() {
        for i in &cfg.block(b).instrs {
            collect_reads(i, &mut read);
        }
    }
    for (name, span) in declared_all {
        if !read.contains(&name) {
            diags.push(Diag::unused_local(
                format!("unused local `{name}` in `{class}.{}`", method.name),
                span,
            ));
            findings += 1;
        }
    }
    findings
}

fn has_calls(i: &Instr) -> bool {
    fn expr_has_call(e: &Expr) -> bool {
        match e {
            Expr::Call(_) => true,
            Expr::Field { base, .. } | Expr::Length { base, .. } => expr_has_call(base),
            Expr::Index { base, index, .. } => expr_has_call(base) || expr_has_call(index),
            Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => expr_has_call(operand),
            Expr::Binary { lhs, rhs, .. } => expr_has_call(lhs) || expr_has_call(rhs),
            Expr::NewArray { len, .. } => expr_has_call(len),
            Expr::New { .. } => true,
            _ => false,
        }
    }
    match i {
        Instr::Decl { init: Some(e), .. } => expr_has_call(e),
        Instr::Assign { rhs, .. } => expr_has_call(rhs),
        _ => false,
    }
}

fn instr_span(i: &Instr) -> sjava_syntax::span::Span {
    match i {
        Instr::Decl { init: Some(e), .. } => e.span(),
        Instr::Assign { rhs, .. } => rhs.span(),
        Instr::Cond(e) | Instr::Eval(e) => e.span(),
        Instr::Return(Some(e)) => e.span(),
        _ => Default::default(),
    }
}

fn collect_reads(i: &Instr, out: &mut BTreeSet<String>) {
    match i {
        Instr::Decl { init, .. } => {
            if let Some(e) = init {
                expr_uses(e, out);
            }
        }
        Instr::Assign { lhs, rhs } => {
            expr_uses(rhs, out);
            match lhs {
                LValue::Field { base, .. } => expr_uses(base, out),
                LValue::Index { base, index, .. } => {
                    expr_uses(base, out);
                    expr_uses(index, out);
                }
                _ => {}
            }
        }
        Instr::Cond(e) | Instr::Eval(e) => expr_uses(e, out),
        Instr::Return(Some(e)) => expr_uses(e, out),
        Instr::Return(None) => {}
    }
}

fn collect_decls(b: &Block, out: &mut Vec<(String, sjava_syntax::span::Span)>) {
    for s in &b.stmts {
        match s {
            Stmt::VarDecl { name, span, .. } => out.push((name.clone(), *span)),
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                collect_decls(then_blk, out);
                if let Some(e) = else_blk {
                    collect_decls(e, out);
                }
            }
            Stmt::While { body, .. } => collect_decls(body, out),
            Stmt::For {
                init, update, body, ..
            } => {
                if let Some(Stmt::VarDecl { name, span, .. }) = init.as_deref() {
                    out.push((name.clone(), *span));
                }
                if let Some(Stmt::VarDecl { name, span, .. }) = update.as_deref() {
                    out.push((name.clone(), *span));
                }
                collect_decls(body, out);
            }
            Stmt::Block(b) => collect_decls(b, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_syntax::parse;

    fn lint(src: &str) -> (usize, Diagnostics) {
        let p = parse(src).expect("parses");
        let mut d = Diagnostics::new();
        let n = lint_program(&p, &mut d);
        (n, d)
    }

    #[test]
    fn flags_dead_store() {
        let (n, d) = lint("class A { void f(int p) { int x = p * 2; x = p * 3; p = x; } }");
        assert!(n >= 1, "{d}");
        assert!(d.iter().any(|w| w.message.contains("dead store")));
    }

    #[test]
    fn flags_unused_local() {
        let (n, d) = lint("class A { void f(int p) { int ghost = 0; p = 1; } }");
        assert!(n >= 1);
        assert!(d.iter().any(|w| w.message.contains("unused local `ghost`")));
    }

    #[test]
    fn clean_code_is_quiet() {
        let (n, d) = lint(
            "class A { int out; void f(int p) {
                int x = p * 2;
                out = x;
            } }",
        );
        assert_eq!(n, 0, "{d}");
    }

    #[test]
    fn loop_carried_value_is_not_a_dead_store() {
        let (n, d) = lint(
            "class A { void f(int p) {
                int acc = 0;
                while (p > 0) { p = p - acc; acc = acc + p; }
            } }",
        );
        assert_eq!(n, 0, "{d}");
    }

    #[test]
    fn benchmarks_are_lint_clean() {
        for src in [
            sjava_syntax_source(crate_windsensor()),
            sjava_syntax_source(crate_eyetrack()),
        ] {
            let (n, d) = lint(src);
            assert_eq!(n, 0, "{d}");
        }
    }

    // Indirection to avoid a circular dev-dependency on sjava-apps: the
    // two smallest benchmark sources are inlined.
    fn crate_windsensor() -> &'static str {
        r#"class W { int cur; int old;
            void main() { SSJAVA: while (true) {
                int x = Device.read();
                old = cur; cur = x; Out.emit(old + cur);
            } } }"#
    }
    fn crate_eyetrack() -> &'static str {
        r#"class E { int a;
            void main() { SSJAVA: while (true) {
                int v = Device.read();
                a = v * 2; Out.emit(a);
            } } }"#
    }
    fn sjava_syntax_source(s: &'static str) -> &'static str {
        s
    }
}
