//! Minimal AST edits for exercising the incremental cache.
//!
//! The benchmark and the correctness tests both need "the smallest edit a
//! developer could make": mutating one literal in one method, in place.
//! Because the edit is applied to the AST (spans untouched) it changes the
//! method's content fingerprint without perturbing any other method's
//! diagnostics — dirtying exactly the edited method's caller cone.
//!
//! [`bump_first_int_literal`] is the verdict-preserving variant the
//! benchmark uses (integer literals type at ⊤, so the checker's verdict
//! cannot change). [`mutate_first_literal`] also accepts float, boolean,
//! and string literals for programs that contain no integer literal; it
//! may change the verdict, which is fine for tests that compare the
//! incremental output against a full re-check of the same mutated AST.
//!
//! An AST edit never moves text. [`insert_at_token`] is the source-text
//! edit that does: whitespace or a line comment at a token boundary,
//! which changes no token and shifts every span after it.

use sjava_syntax::ast::{Block, CallExpr, Expr, LValue, Program, Stmt};
use sjava_syntax::diag::Diagnostics;

/// Increments the first integer literal (in statement order) found in the
/// body of `class::method`. Returns `true` if a literal was found and
/// bumped, `false` if the method is missing or contains no integer
/// literal. Spans are left untouched, so a re-parse is not required and
/// sibling methods keep identical fingerprints.
///
/// A `false` return means the program was **not** edited — benchmarks
/// and oracles that ignore it would silently measure a no-op run, so the
/// result must be checked.
#[must_use = "a false return means no edit was applied"]
pub fn bump_first_int_literal(program: &mut Program, class: &str, method: &str) -> bool {
    mutate_method(program, class, method, &mut |e| match e {
        Expr::IntLit { value, .. } => {
            *value = value.wrapping_add(1);
            true
        }
        _ => false,
    })
}

/// Mutates the first literal of any kind (int, float, bool, string) in
/// the body of `class::method`: integers and floats are incremented,
/// booleans flipped, strings extended. Returns `false` if the method is
/// missing or literal-free. Like [`bump_first_int_literal`], a `false`
/// return means nothing was edited and must not be ignored.
#[must_use = "a false return means no edit was applied"]
pub fn mutate_first_literal(program: &mut Program, class: &str, method: &str) -> bool {
    mutate_method(program, class, method, &mut |e| match e {
        Expr::IntLit { value, .. } => {
            *value = value.wrapping_add(1);
            true
        }
        Expr::FloatLit { value, .. } => {
            *value += 1.0;
            true
        }
        Expr::BoolLit { value, .. } => {
            *value = !*value;
            true
        }
        Expr::StrLit { value, .. } => {
            value.push('x');
            true
        }
        _ => false,
    })
}

/// The smallest *interface* edit: widens the header span of
/// `class::method` by one byte, as if the developer renamed a parameter
/// or adjusted whitespace inside the signature. The method's own content
/// fingerprint moves (header spans are part of it) and the recorded
/// `Resolve` fact of every direct caller goes red — but no other fact in
/// the dependency map changes, so red-green revalidation rechecks
/// exactly the edited method plus its direct callers. Under the old
/// whole-interface cutoff this same edit invalidated every cached method
/// in the program.
#[must_use = "a false return means no edit was applied"]
pub fn shift_method_span(program: &mut Program, class: &str, method: &str) -> bool {
    let Some(c) = program.classes.iter_mut().find(|c| c.name == class) else {
        return false;
    };
    let Some(m) = c.methods.iter_mut().find(|m| m.name == method) else {
        return false;
    };
    m.span.end += 1;
    true
}

/// An interface edit with an **empty** true-dependent set: appends a
/// fresh, never-referenced field to `class`, cloning the annotations and
/// type of its last declared field so the class still lattice-checks
/// identically. The class's whole-interface hash moves (field count
/// changed), but no method recorded a fact about a field that did not
/// exist, so red-green revalidation rechecks zero methods. Returns
/// `false` when the class is missing or has no field to clone.
#[must_use = "a false return means no edit was applied"]
pub fn add_unused_field(program: &mut Program, class: &str) -> bool {
    let Some(c) = program.classes.iter_mut().find(|c| c.name == class) else {
        return false;
    };
    let Some(template) = c.fields.last() else {
        return false;
    };
    let mut field = template.clone();
    field.name = format!("unusedPad{}", c.fields.len());
    field.init = None;
    c.fields.push(field);
    true
}

/// The texts [`insert_at_token`] inserts: a space, a newline and a line
/// comment. None changes a token; each moves all the text after it.
pub const TEXT_INSERTS: [&str; 3] = [" ", "\n", "// c\n"];

/// Inserts `text` into `source` at a token boundary: before token
/// `pick` (modulo the token count, end of input included). Returns the
/// byte offset of the insertion. With one of [`TEXT_INSERTS`] the source
/// lexes to the same tokens, each at or after the offset moved by the
/// inserted length.
pub fn insert_at_token(source: &mut String, pick: usize, text: &str) -> usize {
    let tokens = sjava_syntax::lexer::lex(source, &mut Diagnostics::new());
    let at = tokens
        .get(pick % tokens.len().max(1))
        .map_or(0, |t| t.span.start as usize);
    source.insert_str(at, text);
    at
}

/// The shared walker: applies `mutate` to expressions in statement order
/// until it reports success.
fn mutate_method(
    program: &mut Program,
    class: &str,
    method: &str,
    mutate: &mut dyn FnMut(&mut Expr) -> bool,
) -> bool {
    let Some(c) = program.classes.iter_mut().find(|c| c.name == class) else {
        return false;
    };
    let Some(m) = c.methods.iter_mut().find(|m| m.name == method) else {
        return false;
    };
    walk_block(&mut m.body, mutate)
}

fn walk_block(block: &mut Block, mutate: &mut dyn FnMut(&mut Expr) -> bool) -> bool {
    block.stmts.iter_mut().any(|s| walk_stmt(s, mutate))
}

fn walk_stmt(stmt: &mut Stmt, mutate: &mut dyn FnMut(&mut Expr) -> bool) -> bool {
    match stmt {
        Stmt::VarDecl { init, .. } => init.as_mut().is_some_and(|e| walk_expr(e, mutate)),
        Stmt::Assign { lhs, rhs, .. } => walk_lvalue(lhs, mutate) || walk_expr(rhs, mutate),
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            ..
        } => {
            walk_expr(cond, mutate)
                || walk_block(then_blk, mutate)
                || else_blk.as_mut().is_some_and(|b| walk_block(b, mutate))
        }
        Stmt::While { cond, body, .. } => walk_expr(cond, mutate) || walk_block(body, mutate),
        Stmt::For {
            init,
            cond,
            update,
            body,
            ..
        } => {
            init.as_mut().is_some_and(|s| walk_stmt(s, mutate))
                || cond.as_mut().is_some_and(|e| walk_expr(e, mutate))
                || update.as_mut().is_some_and(|s| walk_stmt(s, mutate))
                || walk_block(body, mutate)
        }
        Stmt::Return { value, .. } => value.as_mut().is_some_and(|e| walk_expr(e, mutate)),
        Stmt::Break { .. } | Stmt::Continue { .. } => false,
        Stmt::ExprStmt { expr, .. } => walk_expr(expr, mutate),
        Stmt::Block(b) => walk_block(b, mutate),
    }
}

fn walk_lvalue(lvalue: &mut LValue, mutate: &mut dyn FnMut(&mut Expr) -> bool) -> bool {
    match lvalue {
        LValue::Var { .. } | LValue::StaticField { .. } => false,
        LValue::Field { base, .. } => walk_expr(base, mutate),
        LValue::Index { base, index, .. } => walk_expr(base, mutate) || walk_expr(index, mutate),
    }
}

fn walk_expr(expr: &mut Expr, mutate: &mut dyn FnMut(&mut Expr) -> bool) -> bool {
    if mutate(expr) {
        return true;
    }
    match expr {
        Expr::IntLit { .. }
        | Expr::FloatLit { .. }
        | Expr::BoolLit { .. }
        | Expr::StrLit { .. }
        | Expr::Null { .. }
        | Expr::This { .. }
        | Expr::Var { .. }
        | Expr::StaticField { .. }
        | Expr::New { .. } => false,
        Expr::Field { base, .. } | Expr::Length { base, .. } => walk_expr(base, mutate),
        Expr::Index { base, index, .. } => walk_expr(base, mutate) || walk_expr(index, mutate),
        Expr::Call(call) => {
            let CallExpr { recv, args, .. } = &mut **call;
            recv.as_mut().is_some_and(|r| walk_expr(r, mutate))
                || args.iter_mut().any(|a| walk_expr(a, mutate))
        }
        Expr::NewArray { len, .. } => walk_expr(len, mutate),
        Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => walk_expr(operand, mutate),
        Expr::Binary { lhs, rhs, .. } => walk_expr(lhs, mutate) || walk_expr(rhs, mutate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_syntax::parse;

    #[test]
    fn bumps_exactly_one_literal() {
        let mut p = parse("class A { void f() { int x = 1; int y = 2; } void g() { int z = 7; } }")
            .expect("parses");
        assert!(bump_first_int_literal(&mut p, "A", "f"));
        let expected =
            parse("class A { void f() { int x = 2; int y = 2; } void g() { int z = 7; } }")
                .expect("parses");
        assert_eq!(p, expected, "only the first literal of A::f changes");
    }

    #[test]
    fn missing_method_or_literal_is_reported() {
        let mut p = parse("class A { void f() { } }").expect("parses");
        assert!(!bump_first_int_literal(&mut p, "A", "nope"));
        assert!(!bump_first_int_literal(&mut p, "B", "f"));
        assert!(!bump_first_int_literal(&mut p, "A", "f"));
    }

    #[test]
    fn span_shift_touches_only_the_named_header() {
        let src = "class A { void f() { } void g() { } }";
        let mut p = parse(src).expect("parses");
        let before = parse(src).expect("parses");
        assert!(shift_method_span(&mut p, "A", "f"));
        assert!(!shift_method_span(&mut p, "A", "nope"));
        assert!(!shift_method_span(&mut p, "B", "f"));
        let (f0, g0) = (
            before.classes[0].methods[0].span,
            before.classes[0].methods[1].span,
        );
        let (f1, g1) = (p.classes[0].methods[0].span, p.classes[0].methods[1].span);
        assert_eq!(f1.end, f0.end + 1, "f's header widened by one byte");
        assert_eq!(g1, g0, "g's header untouched");
    }

    #[test]
    fn unused_field_clones_the_last_declared_one() {
        let mut p =
            parse(r#"@LATTICE("L<H") class A { @LOC("L") int x; void f() { } }"#).expect("parses");
        assert!(add_unused_field(&mut p, "A"));
        assert!(!add_unused_field(&mut p, "Missing"));
        let fields = &p.classes[0].fields;
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[1].name, "unusedPad1");
        assert_eq!(fields[1].annots, fields[0].annots, "annotations cloned");
        assert_eq!(fields[1].init, None, "no initializer to re-check");
        // A field-free class has nothing to clone.
        let mut bare = parse("class B { void f() { } }").expect("parses");
        assert!(!add_unused_field(&mut bare, "B"));
    }

    #[test]
    fn token_boundary_inserts_only_move_text() {
        let src = "class A { void f() { int x = 1; } }";
        let tokens = |s: &str| {
            sjava_syntax::lexer::lex(s, &mut Diagnostics::new())
                .into_iter()
                .map(|t| (t.kind, t.text(s).to_string()))
                .collect::<Vec<_>>()
        };
        for pick in 0..20 {
            for text in TEXT_INSERTS {
                let mut edited = src.to_string();
                let at = insert_at_token(&mut edited, pick, text);
                assert_eq!(&edited[at..at + text.len()], text);
                assert_eq!(tokens(&edited), tokens(src), "{edited:?}");
            }
        }
    }

    #[test]
    fn general_mutation_handles_bool_only_methods() {
        let src = "class A { void f() { boolean b = true; } }";
        let mut p = parse(src).expect("parses");
        assert!(!bump_first_int_literal(&mut p, "A", "f"));
        assert!(mutate_first_literal(&mut p, "A", "f"));
        assert_ne!(p, parse(src).expect("parses"), "the bool literal flipped");
    }
}
