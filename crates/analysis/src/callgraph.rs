//! Call graph over methods reachable from the main event loop.
//!
//! SJava checks "the parts of the program that are callable from the main
//! event loop" (§2.3.1) and prohibits recursive call chains (§4.3, the
//! termination analysis cannot check recursion).

use crate::jtype::TypeEnv;
use sjava_syntax::ast::*;
use sjava_syntax::diag::{Diag, Diagnostics};
use sjava_syntax::span::Span;
use std::collections::{BTreeMap, BTreeSet};

/// A `(class, method)` reference.
pub type MethodRef = (String, String);

/// The call graph of methods reachable from the event loop.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// The method containing the `SSJAVA:` loop.
    pub entry: MethodRef,
    /// Span of the event loop statement.
    pub event_loop_span: Span,
    /// Direct call edges.
    pub calls: BTreeMap<MethodRef, BTreeSet<MethodRef>>,
    /// Reachable methods in bottom-up (callees-first) topological order.
    pub topo: Vec<MethodRef>,
}

impl CallGraph {
    /// Whether a method is reachable from the event loop.
    pub fn is_reachable(&self, m: &MethodRef) -> bool {
        self.topo.contains(m)
    }

    /// Groups reachable methods into bottom-up waves: every method's
    /// callees sit in strictly earlier waves. Methods inside one wave are
    /// independent given the previous waves' summaries, so interprocedural
    /// analyses can process a wave in parallel with a barrier between
    /// waves. Within a wave, methods keep their topological order.
    pub fn levels(&self) -> Vec<Vec<MethodRef>> {
        let mut level: BTreeMap<&MethodRef, usize> = BTreeMap::new();
        let mut out: Vec<Vec<MethodRef>> = Vec::new();
        for m in &self.topo {
            let l = self
                .calls
                .get(m)
                .map(|cs| {
                    cs.iter()
                        .filter_map(|c| level.get(c))
                        .map(|&d| d + 1)
                        .max()
                        .unwrap_or(0)
                })
                .unwrap_or(0);
            level.insert(m, l);
            if out.len() <= l {
                out.resize_with(l + 1, Vec::new);
            }
            out[l].push(m.clone());
        }
        out
    }
}

/// Locates the unique `SSJAVA:`-labeled event loop.
///
/// Returns the enclosing method and the loop statement, or pushes a
/// diagnostic when missing or duplicated.
pub fn find_event_loop<'p>(
    program: &'p Program,
    diags: &mut Diagnostics,
) -> Option<(MethodRef, &'p Stmt)> {
    let mut found: Option<(MethodRef, &Stmt)> = None;
    for class in &program.classes {
        for method in &class.methods {
            for stmt in event_loops_in(&method.body) {
                if found.is_some() {
                    diags.push(Diag::event_loop(
                        "multiple SSJAVA event loops; exactly one is required",
                        stmt.span(),
                    ));
                    return None;
                }
                found = Some(((class.name.clone(), method.name.clone()), stmt));
            }
        }
    }
    if found.is_none() {
        diags.push(Diag::event_loop(
            "no SSJAVA-labeled main event loop found",
            Span::dummy(),
        ));
    }
    found
}

fn event_loops_in(block: &Block) -> Vec<&Stmt> {
    let mut out = Vec::new();
    collect_event_loops(block, &mut out);
    out
}

fn collect_event_loops<'a>(block: &'a Block, out: &mut Vec<&'a Stmt>) {
    for s in &block.stmts {
        match s {
            Stmt::While {
                kind: LoopKind::EventLoop,
                ..
            } => out.push(s),
            Stmt::While { body, .. } => collect_event_loops(body, out),
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                collect_event_loops(then_blk, out);
                if let Some(e) = else_blk {
                    collect_event_loops(e, out);
                }
            }
            Stmt::For { body, .. } => collect_event_loops(body, out),
            Stmt::Block(b) => collect_event_loops(b, out),
            _ => {}
        }
    }
}

/// The direct callee set of one resolvable method. Trusted
/// methods/classes are opaque — their callees are not analyzed (§6.1,
/// e.g. the BitStream and motor controller) — and unresolvable
/// references contribute nothing. This is the per-method unit the
/// incremental layer memoizes.
pub fn method_callees(program: &Program, mref: &MethodRef) -> BTreeSet<MethodRef> {
    let Some((decl_class, method)) = program.resolve_method(&mref.0, &mref.1) else {
        return BTreeSet::new();
    };
    if method.annots.trusted || decl_class.annots.trusted {
        return BTreeSet::new();
    }
    let mut env = TypeEnv::for_method(program, &mref.0, method);
    env.bind_block(&method.body);
    let mut callees = BTreeSet::new();
    collect_calls_block(&method.body, &env, program, &mut callees);
    callees
}

/// Builds the call graph from the event loop, reporting recursion as an
/// error.
pub fn build(program: &Program, diags: &mut Diagnostics) -> Option<CallGraph> {
    build_with(program, diags, |m| method_callees(program, m))
}

/// [`build`] with a pluggable callee-set supplier: the incremental layer
/// passes a closure that serves memoized per-method callee sets and only
/// falls back to [`method_callees`] on a miss. Graph assembly (worklist
/// from the event loop + topological sort) is always recomputed — it is
/// cheap, and it is what makes the supplier's per-method answers safe to
/// reuse.
pub fn build_with<F>(
    program: &Program,
    diags: &mut Diagnostics,
    mut callees_of: F,
) -> Option<CallGraph>
where
    F: FnMut(&MethodRef) -> BTreeSet<MethodRef>,
{
    let (entry, loop_stmt) = find_event_loop(program, diags)?;
    let mut calls: BTreeMap<MethodRef, BTreeSet<MethodRef>> = BTreeMap::new();
    let mut stack: Vec<MethodRef> = vec![entry.clone()];
    let mut seen: BTreeSet<MethodRef> = BTreeSet::new();
    while let Some(mref) = stack.pop() {
        if !seen.insert(mref.clone()) {
            continue;
        }
        if program.resolve_method(&mref.0, &mref.1).is_none() {
            continue;
        }
        let callees = callees_of(&mref);
        for c in &callees {
            stack.push(c.clone());
        }
        calls.insert(mref, callees);
    }

    // Topological sort, callees first; a cycle is recursion.
    let mut topo = Vec::new();
    let mut state: BTreeMap<MethodRef, u8> = BTreeMap::new(); // 1=visiting 2=done
    let mut recursion = None;
    fn visit(
        m: &MethodRef,
        calls: &BTreeMap<MethodRef, BTreeSet<MethodRef>>,
        state: &mut BTreeMap<MethodRef, u8>,
        topo: &mut Vec<MethodRef>,
        recursion: &mut Option<MethodRef>,
    ) {
        match state.get(m) {
            Some(1) => {
                *recursion = Some(m.clone());
                return;
            }
            Some(2) => return,
            _ => {}
        }
        state.insert(m.clone(), 1);
        if let Some(cs) = calls.get(m) {
            for c in cs {
                visit(c, calls, state, topo, recursion);
            }
        }
        state.insert(m.clone(), 2);
        topo.push(m.clone());
    }
    visit(&entry, &calls, &mut state, &mut topo, &mut recursion);
    if let Some(m) = recursion {
        diags.push(Diag::recursion(
            format!(
                "recursive call chain through `{}.{}` is prohibited",
                m.0, m.1
            ),
            loop_stmt.span(),
        ));
        return None;
    }

    Some(CallGraph {
        entry,
        event_loop_span: loop_stmt.span(),
        calls,
        topo,
    })
}

fn collect_calls_block(
    block: &Block,
    env: &TypeEnv<'_>,
    program: &Program,
    out: &mut BTreeSet<MethodRef>,
) {
    for s in &block.stmts {
        collect_calls_stmt(s, env, program, out);
    }
}

fn collect_calls_stmt(
    stmt: &Stmt,
    env: &TypeEnv<'_>,
    program: &Program,
    out: &mut BTreeSet<MethodRef>,
) {
    match stmt {
        Stmt::VarDecl { init, .. } => {
            if let Some(e) = init {
                collect_calls_expr(e, env, program, out);
            }
        }
        Stmt::Assign { lhs, rhs, .. } => {
            match lhs {
                LValue::Field { base, .. } => collect_calls_expr(base, env, program, out),
                LValue::Index { base, index, .. } => {
                    collect_calls_expr(base, env, program, out);
                    collect_calls_expr(index, env, program, out);
                }
                _ => {}
            }
            collect_calls_expr(rhs, env, program, out);
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            ..
        } => {
            collect_calls_expr(cond, env, program, out);
            collect_calls_block(then_blk, env, program, out);
            if let Some(e) = else_blk {
                collect_calls_block(e, env, program, out);
            }
        }
        Stmt::While { cond, body, .. } => {
            collect_calls_expr(cond, env, program, out);
            collect_calls_block(body, env, program, out);
        }
        Stmt::For {
            init,
            cond,
            update,
            body,
            ..
        } => {
            if let Some(i) = init {
                collect_calls_stmt(i, env, program, out);
            }
            if let Some(c) = cond {
                collect_calls_expr(c, env, program, out);
            }
            if let Some(u) = update {
                collect_calls_stmt(u, env, program, out);
            }
            collect_calls_block(body, env, program, out);
        }
        Stmt::Return { value, .. } => {
            if let Some(v) = value {
                collect_calls_expr(v, env, program, out);
            }
        }
        Stmt::ExprStmt { expr, .. } => collect_calls_expr(expr, env, program, out),
        Stmt::Block(b) => collect_calls_block(b, env, program, out),
        Stmt::Break { .. } | Stmt::Continue { .. } => {}
    }
}

fn collect_calls_expr(
    expr: &Expr,
    env: &TypeEnv<'_>,
    program: &Program,
    out: &mut BTreeSet<MethodRef>,
) {
    match expr {
        Expr::Call(call) => {
            let CallExpr {
                recv, name, args, ..
            } = &**call;
            if let Some(class) = env.call_target_class(expr) {
                if program.resolve_method(&class, name).is_some() {
                    out.insert((class, name.clone()));
                }
            }
            if let Some(r) = recv {
                collect_calls_expr(r, env, program, out);
            }
            for a in args {
                collect_calls_expr(a, env, program, out);
            }
        }
        Expr::Field { base, .. } | Expr::Length { base, .. } => {
            collect_calls_expr(base, env, program, out)
        }
        Expr::Index { base, index, .. } => {
            collect_calls_expr(base, env, program, out);
            collect_calls_expr(index, env, program, out);
        }
        Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => {
            collect_calls_expr(operand, env, program, out)
        }
        Expr::Binary { lhs, rhs, .. } => {
            collect_calls_expr(lhs, env, program, out);
            collect_calls_expr(rhs, env, program, out);
        }
        Expr::NewArray { len, .. } => collect_calls_expr(len, env, program, out),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_syntax::parse;

    #[test]
    fn builds_topo_order() {
        let p = parse(
            "class A {
                void main() { SSJAVA: while (true) { step(); } }
                void step() { helper(); }
                void helper() { }
             }",
        )
        .expect("parses");
        let mut d = Diagnostics::new();
        let cg = build(&p, &mut d).expect("call graph");
        assert!(!d.has_errors());
        assert_eq!(cg.entry, ("A".to_string(), "main".to_string()));
        // callees first
        let pos = |n: &str| cg.topo.iter().position(|(_, m)| m == n).expect("present");
        assert!(pos("helper") < pos("step"));
        assert!(pos("step") < pos("main"));
    }

    #[test]
    fn levels_put_callees_in_earlier_waves() {
        let p = parse(
            "class A {
                void main() { SSJAVA: while (true) { step(); other(); } }
                void step() { helper(); }
                void other() { }
                void helper() { }
             }",
        )
        .expect("parses");
        let mut d = Diagnostics::new();
        let cg = build(&p, &mut d).expect("call graph");
        let levels = cg.levels();
        let wave_of = |n: &str| {
            levels
                .iter()
                .position(|w| w.iter().any(|(_, m)| m == n))
                .expect("present")
        };
        // helper and other are leaves, step depends on helper, main on both.
        assert_eq!(wave_of("helper"), 0);
        assert_eq!(wave_of("other"), 0);
        assert_eq!(wave_of("step"), 1);
        assert_eq!(wave_of("main"), 2);
        // Every reachable method appears exactly once.
        assert_eq!(levels.iter().map(Vec::len).sum::<usize>(), cg.topo.len());
    }

    #[test]
    fn detects_recursion() {
        let p = parse(
            "class A {
                void main() { SSJAVA: while (true) { f(); } }
                void f() { g(); }
                void g() { f(); }
             }",
        )
        .expect("parses");
        let mut d = Diagnostics::new();
        assert!(build(&p, &mut d).is_none());
        assert!(d.has_errors());
    }

    #[test]
    fn trusted_methods_are_opaque() {
        let p = parse(
            "class A {
                void main() { SSJAVA: while (true) { f(); } }
                @TRUSTED void f() { g(); }
                void g() { }
             }",
        )
        .expect("parses");
        let mut d = Diagnostics::new();
        let cg = build(&p, &mut d).expect("cg");
        assert!(!cg.is_reachable(&("A".to_string(), "g".to_string())));
    }

    #[test]
    fn missing_event_loop_is_error() {
        let p = parse("class A { void main() { } }").expect("parses");
        let mut d = Diagnostics::new();
        assert!(build(&p, &mut d).is_none());
        assert!(d.has_errors());
    }

    #[test]
    fn virtual_dispatch_through_receiver_type() {
        let p = parse(
            "class A { B b; void main() { SSJAVA: while (true) { b.run(); } } }
             class B { void run() { } }",
        )
        .expect("parses");
        let mut d = Diagnostics::new();
        let cg = build(&p, &mut d).expect("cg");
        assert!(cg.is_reachable(&("B".to_string(), "run".to_string())));
    }
}
