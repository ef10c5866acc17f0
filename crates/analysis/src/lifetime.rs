//! Allocation-lifetime analysis — the §8 "Memory Management" extension.
//!
//! The paper observes that "the properties checked by the current analysis
//! imply that all objects allocated in the main event loop are eventually
//! not accessed in the future. A simple analysis … can produce symbolic
//! bounds on the lifetime of such objects." This module implements that
//! analysis: every allocation site reachable from the event loop is
//! classified, and — provided the program passed the eviction analysis —
//! given a bound in event-loop iterations. A runtime could reclaim such
//! objects with per-iteration arenas instead of a tracing GC.

use crate::callgraph::{CallGraph, MethodRef};
use crate::jtype::TypeEnv;
use sjava_syntax::ast::*;
use sjava_syntax::span::Span;

/// How an allocated object leaves (or fails to leave) its allocation site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Escape {
    /// Never stored to the heap or returned: dead at iteration end.
    Local,
    /// Stored into a field/array/static: reachable until the eviction
    /// analysis's overwrite of that location — one extra iteration.
    Heap,
    /// Returned to the caller: bounded by the caller's use (conservatively
    /// treated like a heap escape).
    Returned,
}

/// A classified allocation site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationSite {
    /// Method containing the allocation.
    pub method: MethodRef,
    /// Source span of the `new` expression.
    pub span: Span,
    /// Allocated class name (or `"<array>"`).
    pub class: String,
    /// Whether the allocation executes inside the event loop.
    pub in_event_loop: bool,
    /// Escape classification.
    pub escape: Escape,
    /// Symbolic lifetime bound in event-loop iterations (`None` for
    /// allocations outside the loop, which live for the whole run).
    pub bound_iterations: Option<u32>,
}

/// Classifies every allocation reachable from the event loop.
///
/// The bounds are only meaningful for programs that already passed the
/// eviction analysis: eviction guarantees heap locations are overwritten
/// each iteration, so a heap-escaping object is unreachable one iteration
/// after the one that allocated it.
pub fn analyze_lifetimes(program: &Program, cg: &CallGraph) -> Vec<AllocationSite> {
    let mut out = Vec::new();
    for mref in &cg.topo {
        let Some((decl_class, method)) = program.resolve_method(&mref.0, &mref.1) else {
            continue;
        };
        if method.annots.trusted || decl_class.annots.trusted {
            continue;
        }
        let is_entry = *mref == cg.entry;
        // Entry method: statements before the loop are startup
        // allocations; inside the loop, per-iteration.
        let mut tenv = TypeEnv::for_method(program, &mref.0, method);
        tenv.bind_block(&method.body);
        let mut cx = Cx {
            mref: mref.clone(),
            out: &mut out,
            in_loop: !is_entry, // non-entry reachable methods run per-iteration
            tenv,
        };
        cx.walk_block(&method.body);
    }
    out
}

struct Cx<'a> {
    mref: MethodRef,
    out: &'a mut Vec<AllocationSite>,
    in_loop: bool,
    tenv: TypeEnv<'a>,
}

impl Cx<'_> {
    fn record(&mut self, span: Span, class: String, escape: Escape) {
        let bound = if self.in_loop {
            Some(match escape {
                Escape::Local => 1,
                Escape::Heap | Escape::Returned => 2,
            })
        } else {
            None
        };
        self.out.push(AllocationSite {
            method: self.mref.clone(),
            span,
            class,
            in_event_loop: self.in_loop,
            escape,
            bound_iterations: bound,
        });
    }

    /// Scans an expression for allocations, with the escape class implied
    /// by the surrounding context.
    fn scan_expr(&mut self, e: &Expr, escape: Escape) {
        match e {
            Expr::New { class, span } => self.record(*span, class.clone(), escape),
            Expr::NewArray { span, len, .. } => {
                self.record(*span, "<array>".to_string(), escape);
                self.scan_expr(len, Escape::Local);
            }
            Expr::Cast { operand, .. } | Expr::Unary { operand, .. } => {
                self.scan_expr(operand, escape)
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.scan_expr(lhs, Escape::Local);
                self.scan_expr(rhs, Escape::Local);
            }
            Expr::Field { base, .. } | Expr::Length { base, .. } => {
                self.scan_expr(base, Escape::Local)
            }
            Expr::Index { base, index, .. } => {
                self.scan_expr(base, Escape::Local);
                self.scan_expr(index, Escape::Local);
            }
            Expr::Call(call) => {
                let CallExpr { recv, args, .. } = &**call;
                if let Some(r) = recv {
                    self.scan_expr(r, Escape::Local);
                }
                // An allocation passed as an argument may be stored by the
                // callee: conservatively a heap escape (exactly what
                // @DELEGATE permits).
                for a in args {
                    self.scan_expr(a, Escape::Heap);
                }
            }
            _ => {}
        }
    }

    fn walk_block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.walk_stmt(s);
        }
    }

    fn walk_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::VarDecl { init, .. } => {
                if let Some(e) = init {
                    // Bound to a local: stays Local unless later stored —
                    // a flow-insensitive approximation would track the
                    // variable; we instead look at how the value is built.
                    self.scan_expr(e, Escape::Local);
                }
            }
            Stmt::Assign { lhs, rhs, .. } => {
                // Unqualified field assignments are heap stores too;
                // only genuinely local variables keep the value in the
                // frame.
                let escape = match lhs {
                    LValue::Var { name, .. } if self.tenv.local(name).is_some() => Escape::Local,
                    _ => Escape::Heap,
                };
                self.scan_expr(rhs, escape);
                if let LValue::Index { base, index, .. } = lhs {
                    self.scan_expr(base, Escape::Local);
                    self.scan_expr(index, Escape::Local);
                }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                self.scan_expr(cond, Escape::Local);
                self.walk_block(then_blk);
                if let Some(e) = else_blk {
                    self.walk_block(e);
                }
            }
            Stmt::While {
                kind, cond, body, ..
            } => {
                self.scan_expr(cond, Escape::Local);
                let was = self.in_loop;
                if *kind == LoopKind::EventLoop {
                    self.in_loop = true;
                }
                self.walk_block(body);
                self.in_loop = was;
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
                ..
            } => {
                if let Some(i) = init {
                    self.walk_stmt(i);
                }
                if let Some(c) = cond {
                    self.scan_expr(c, Escape::Local);
                }
                if let Some(u) = update {
                    self.walk_stmt(u);
                }
                self.walk_block(body);
            }
            Stmt::Return { value, .. } => {
                if let Some(v) = value {
                    self.scan_expr(v, Escape::Returned);
                }
            }
            Stmt::ExprStmt { expr, .. } => self.scan_expr(expr, Escape::Local),
            Stmt::Block(b) => self.walk_block(b),
            Stmt::Break { .. } | Stmt::Continue { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use sjava_syntax::diag::Diagnostics;
    use sjava_syntax::parse;

    fn sites(src: &str) -> Vec<AllocationSite> {
        let p = parse(src).expect("parses");
        let mut d = Diagnostics::new();
        let cg = callgraph::build(&p, &mut d).expect("cg");
        analyze_lifetimes(&p, &cg)
    }

    #[test]
    fn startup_allocations_have_no_bound() {
        let s = sites(
            "class A { R r; void main() { r = new R();
                SSJAVA: while (true) { Out.emit(Device.read()); } } }
             class R { int v; }",
        );
        assert_eq!(s.len(), 1);
        assert!(!s[0].in_event_loop);
        assert_eq!(s[0].bound_iterations, None);
    }

    #[test]
    fn loop_local_allocation_dies_in_one_iteration() {
        let s = sites(
            "class A { void main() { SSJAVA: while (true) {
                R t = new R();
                t.v = Device.read();
                Out.emit(t.v);
            } } } class R { int v; }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].escape, Escape::Local);
        assert_eq!(s[0].bound_iterations, Some(1));
    }

    #[test]
    fn heap_escaping_allocation_bounded_by_two() {
        let s = sites(
            "class A { R cur; void main() { SSJAVA: while (true) {
                cur = new R();
                cur.v = Device.read();
                Out.emit(cur.v);
            } } } class R { int v; }",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].escape, Escape::Heap);
        assert_eq!(s[0].bound_iterations, Some(2));
    }

    #[test]
    fn callee_allocations_count_as_per_iteration() {
        let s = sites(
            "class A { int v; void main() { SSJAVA: while (true) { step(); Out.emit(v); } }
               void step() { R t = new R(); v = Device.read() + t.v; } }
             class R { int v; }",
        );
        assert_eq!(s.len(), 1);
        assert!(s[0].in_event_loop);
        assert_eq!(s[0].bound_iterations, Some(1));
    }

    #[test]
    fn returned_allocation_is_conservative() {
        let s = sites(
            "class A { int v; void main() { SSJAVA: while (true) { R t = make(); v = t.v; Out.emit(v); } }
               R make() { return new R(); } }
             class R { int v; }",
        );
        let site = s.iter().find(|x| x.method.1 == "make").expect("found");
        assert_eq!(site.escape, Escape::Returned);
        assert_eq!(site.bound_iterations, Some(2));
    }
}
