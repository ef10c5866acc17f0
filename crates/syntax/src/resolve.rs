//! Post-parse resolution of static class references.
//!
//! The parser cannot distinguish `foo.bar` (field access through variable
//! `foo`) from `Foo.bar` (static field access on class `Foo`) without a
//! symbol table. This pass walks every method with its scope (parameters,
//! locals, and visible fields) and rewrites accesses whose base name is not
//! in scope but names a declared or intrinsic class into
//! [`Expr::StaticField`] / static [`Expr::Call`] / [`LValue::StaticField`]
//! forms.

use crate::ast::*;
use crate::diag::{Diag, Diagnostics};
use std::collections::{HashMap, HashSet};

/// Resolves static references in an entire program. A program with
/// cyclic inheritance is returned unresolved: resolving walks every
/// superclass chain, and such a chain never ends (parsing reports the
/// cycle as SJ0005).
pub fn resolve_statics(program: Program) -> Program {
    resolve_reporting(program, &mut Diagnostics::new())
}

/// [`resolve_statics`], reporting inheritance cycles into `diags`.
pub(crate) fn resolve_reporting(mut program: Program, diags: &mut Diagnostics) -> Program {
    let context = {
        let classes: Vec<&ClassDecl> = program.classes.iter().collect();
        let cycles = inheritance_cycles(&classes);
        if !cycles.is_empty() {
            diags.extend(cycles);
            return program;
        }
        Context::of(&classes)
    };
    for (i, class) in program.classes.iter_mut().enumerate() {
        context.resolve(class, i);
    }
    program
}

/// SJ0005 at the header of every class whose superclass chain leads back
/// to itself, in program order. Every later chain walk (field
/// visibility, field and method resolution) would loop on such a
/// program. As in every lookup, a name stands for its first declaration.
pub(crate) fn inheritance_cycles(classes: &[&ClassDecl]) -> Diagnostics {
    let mut first: HashMap<&str, usize> = HashMap::with_capacity(classes.len());
    for (i, c) in classes.iter().enumerate() {
        first.entry(c.name.as_str()).or_insert(i);
    }
    let superclass = |i: usize| {
        let s = classes[i].superclass.as_deref()?;
        first.get(s).copied()
    };
    // 0 = not reached, 1 = on the walk in progress, 2 = settled.
    let mut state = vec![0u8; classes.len()];
    let mut on_cycle = vec![false; classes.len()];
    for start in 0..classes.len() {
        let mut walk = Vec::new();
        let mut cur = Some(start);
        while let Some(i) = cur.filter(|&i| state[i] == 0) {
            state[i] = 1;
            walk.push(i);
            cur = superclass(i);
        }
        if let Some(i) = cur.filter(|&i| state[i] == 1) {
            let from = walk.iter().position(|&w| w == i).expect("on the walk");
            for &w in &walk[from..] {
                on_cycle[w] = true;
            }
        }
        for &w in &walk {
            state[w] = 2;
        }
    }
    let mut diags = Diagnostics::new();
    for (i, c) in classes.iter().enumerate() {
        if !on_cycle[i] {
            continue;
        }
        let mut chain = vec![c.name.as_str()];
        let mut cur = superclass(i);
        while let Some(j) = cur {
            chain.push(&classes[j].name);
            if j == i {
                break;
            }
            cur = superclass(j);
        }
        diags.push(Diag::inherit(
            format!("cyclic inheritance: {}", chain.join(" extends ")),
            c.span,
        ));
    }
    diags
}

/// What resolving the classes of one program reads beyond each class
/// itself: the set of class names (declared and intrinsic) and, per
/// class, the fields visible in it, own and inherited, that are named
/// like a class. Only a name in scope that is also a class name can
/// shadow a class reference, so scopes keep no other name. A class
/// resolves the same way under two programs exactly when its context is
/// the same in both ([`Context::same_for`]).
#[derive(Debug, Default)]
pub(crate) struct Context {
    names: HashSet<String>,
    /// Per class, in program order. On duplicate class names every
    /// declaration sees the fields of the first one.
    fields: Vec<HashSet<String>>,
}

impl Context {
    /// The context of a program's class list.
    pub(crate) fn of(classes: &[&ClassDecl]) -> Context {
        let names: HashSet<String> = classes
            .iter()
            .map(|c| c.name.clone())
            .chain(INTRINSIC_CLASSES.iter().map(|s| s.to_string()))
            .collect();
        let first = |name: &str| classes.iter().copied().find(|c| c.name == name);
        let fields = classes
            .iter()
            .map(|c| {
                let mut fields = HashSet::new();
                let mut cur = first(&c.name);
                while let Some(cd) = cur {
                    for f in &cd.fields {
                        if names.contains(&f.name) {
                            fields.insert(f.name.clone());
                        }
                    }
                    cur = cd.superclass.as_deref().and_then(first);
                }
                fields
            })
            .collect();
        Context { names, fields }
    }

    /// Whether class `i` of this context resolves as class `j` of
    /// `other` does.
    pub(crate) fn same_for(&self, i: usize, other: &Context, j: usize) -> bool {
        self.fields[i] == other.fields[j] && self.names == other.names
    }

    /// Resolves the static references of `class`, class `i` of this
    /// context.
    pub(crate) fn resolve(&self, class: &mut ClassDecl, i: usize) {
        let fields = &self.fields[i];
        for method in &mut class.methods {
            let mut scope: HashSet<String> = fields.clone();
            for p in &method.params {
                if self.names.contains(&p.name) {
                    scope.insert(p.name.clone());
                }
            }
            collect_locals(&method.body, &self.names, &mut scope);
            let cx = Cx {
                classes: &self.names,
                scope: &scope,
            };
            resolve_block(&mut method.body, &cx);
        }
        for field in &mut class.fields {
            // Field initializers see only other fields.
            let cx = Cx {
                classes: &self.names,
                scope: fields,
            };
            if let Some(init) = &mut field.init {
                resolve_expr(init, &cx);
            }
        }
    }
}

struct Cx<'a> {
    classes: &'a HashSet<String>,
    scope: &'a HashSet<String>,
}

impl Cx<'_> {
    fn is_class_ref(&self, name: &str) -> bool {
        !self.scope.contains(name) && self.classes.contains(name)
    }
}

/// Adds to `scope` every local of `block` named like a class.
fn collect_locals(block: &Block, classes: &HashSet<String>, scope: &mut HashSet<String>) {
    let declare = |name: &String, scope: &mut HashSet<String>| {
        if classes.contains(name) {
            scope.insert(name.clone());
        }
    };
    for s in &block.stmts {
        match s {
            Stmt::VarDecl { name, .. } => declare(name, scope),
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                collect_locals(then_blk, classes, scope);
                if let Some(e) = else_blk {
                    collect_locals(e, classes, scope);
                }
            }
            Stmt::While { body, .. } => collect_locals(body, classes, scope),
            Stmt::For {
                init, update, body, ..
            } => {
                for s in [init, update].into_iter().flatten() {
                    if let Stmt::VarDecl { name, .. } = s.as_ref() {
                        declare(name, scope);
                    }
                }
                collect_locals(body, classes, scope);
            }
            Stmt::Block(b) => collect_locals(b, classes, scope),
            _ => {}
        }
    }
}

fn resolve_block(block: &mut Block, cx: &Cx<'_>) {
    for s in &mut block.stmts {
        resolve_stmt(s, cx);
    }
}

fn resolve_stmt(stmt: &mut Stmt, cx: &Cx<'_>) {
    match stmt {
        Stmt::VarDecl { init, .. } => {
            if let Some(e) = init {
                resolve_expr(e, cx);
            }
        }
        Stmt::Assign { lhs, rhs, .. } => {
            resolve_lvalue(lhs, cx);
            resolve_expr(rhs, cx);
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            ..
        } => {
            resolve_expr(cond, cx);
            resolve_block(then_blk, cx);
            if let Some(e) = else_blk {
                resolve_block(e, cx);
            }
        }
        Stmt::While { cond, body, .. } => {
            resolve_expr(cond, cx);
            resolve_block(body, cx);
        }
        Stmt::For {
            init,
            cond,
            update,
            body,
            ..
        } => {
            if let Some(i) = init {
                resolve_stmt(i, cx);
            }
            if let Some(c) = cond {
                resolve_expr(c, cx);
            }
            if let Some(u) = update {
                resolve_stmt(u, cx);
            }
            resolve_block(body, cx);
        }
        Stmt::Return { value, .. } => {
            if let Some(v) = value {
                resolve_expr(v, cx);
            }
        }
        Stmt::ExprStmt { expr, .. } => resolve_expr(expr, cx),
        Stmt::Block(b) => resolve_block(b, cx),
        Stmt::Break { .. } | Stmt::Continue { .. } => {}
    }
}

fn resolve_lvalue(lv: &mut LValue, cx: &Cx<'_>) {
    match lv {
        LValue::Var { .. } | LValue::StaticField { .. } => {}
        LValue::Field { base, field, span } => {
            if let Expr::Var { name, .. } = &mut **base {
                if cx.is_class_ref(name) {
                    *lv = LValue::StaticField {
                        class: std::mem::take(name),
                        field: std::mem::take(field),
                        span: *span,
                    };
                    return;
                }
            }
            resolve_expr(base, cx);
        }
        LValue::Index { base, index, .. } => {
            resolve_expr(base, cx);
            resolve_expr(index, cx);
        }
    }
}

fn resolve_expr(expr: &mut Expr, cx: &Cx<'_>) {
    match expr {
        Expr::Field { base, field, span } => {
            if let Expr::Var { name, .. } = &mut **base {
                if cx.is_class_ref(name) {
                    *expr = Expr::StaticField {
                        class: std::mem::take(name),
                        field: std::mem::take(field),
                        span: *span,
                    };
                    return;
                }
            }
            resolve_expr(base, cx);
        }
        Expr::Call(call) => {
            let CallExpr {
                recv,
                class_recv,
                args,
                ..
            } = &mut **call;
            if class_recv.is_none() {
                if let Some(r) = recv {
                    if let Expr::Var { name, .. } = &mut **r {
                        if cx.is_class_ref(name) {
                            *class_recv = Some(std::mem::take(name));
                            *recv = None;
                        }
                    }
                }
            }
            if let Some(r) = recv {
                resolve_expr(r, cx);
            }
            for a in args {
                resolve_expr(a, cx);
            }
        }
        Expr::Index { base, index, .. } => {
            resolve_expr(base, cx);
            resolve_expr(index, cx);
        }
        Expr::Length { base, .. } => resolve_expr(base, cx),
        Expr::Unary { operand, .. } => resolve_expr(operand, cx),
        Expr::Binary { lhs, rhs, .. } => {
            resolve_expr(lhs, cx);
            resolve_expr(rhs, cx);
        }
        Expr::Cast { operand, .. } => resolve_expr(operand, cx),
        Expr::NewArray { len, .. } => resolve_expr(len, cx),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::*;
    use crate::diag::Diagnostics;
    use crate::parser::parse_program;

    /// The `cyclic inheritance` messages `parse_program` reports on `src`.
    fn cycles(src: &str) -> Vec<String> {
        let mut d = Diagnostics::new();
        parse_program(src, &mut d);
        d.iter()
            .map(|d| {
                assert_eq!(d.code, crate::Code::Inherit);
                d.message.clone()
            })
            .collect()
    }

    #[test]
    fn inheritance_cycles_are_reported_at_each_class_on_them() {
        assert_eq!(
            cycles("class A extends A { }"),
            ["cyclic inheritance: A extends A"]
        );
        // `C` only leads into the cycle; it is not on it.
        assert_eq!(
            cycles("class C extends A { } class A extends B { } class B extends A { }"),
            [
                "cyclic inheritance: A extends B extends A",
                "cyclic inheritance: B extends A extends B",
            ]
        );
        // A second `A` is never looked up, so its superclass closes no
        // cycle; the first one's does.
        assert!(cycles("class A { } class B extends A { } class A extends B { }").is_empty());
        assert_eq!(
            cycles("class A extends B { } class B extends A { } class A { }").len(),
            2
        );
        assert!(cycles("class A extends B { } class B extends Ghost { }").is_empty());
    }

    #[test]
    fn variable_shadows_class_name() {
        let mut d = Diagnostics::new();
        let p = parse_program(
            "class Device { int f; } class A { void g() { Device d = new Device(); int x = d.f; } }",
            &mut d,
        );
        assert!(!d.has_errors());
        let m = &p.classes[1].methods[0];
        // `d.f` must remain an instance field access.
        let Stmt::VarDecl {
            init: Some(Expr::Field { .. }),
            ..
        } = &m.body.stmts[1]
        else {
            panic!("expected instance field access: {:?}", m.body.stmts[1]);
        };
    }

    #[test]
    fn unshadowed_class_name_is_static() {
        let mut d = Diagnostics::new();
        let p = parse_program(
            "class Cfg { static int limit; } class A { void g() { int x = Cfg.limit; Cfg.limit = 2; } }",
            &mut d,
        );
        assert!(!d.has_errors());
        let m = &p.classes[1].methods[0];
        assert!(matches!(
            &m.body.stmts[0],
            Stmt::VarDecl {
                init: Some(Expr::StaticField { .. }),
                ..
            }
        ));
        assert!(matches!(
            &m.body.stmts[1],
            Stmt::Assign {
                lhs: LValue::StaticField { .. },
                ..
            }
        ));
    }
}
