//! Loop-termination analysis (§4.3).
//!
//! Every iteration of the event loop must terminate, or corrupted values
//! never leave. The analysis verifies the common pattern of §4.3.1: an
//! index variable incremented by a constant each iteration, guarded by an
//! inequality against a loop-invariant bound. Loops the analysis cannot
//! handle must carry a `MAXLOOP_n:` bound or a `TERMINATE_x:` trusted
//! label (§4.3.2). Recursion is rejected by the call-graph builder.

use crate::callgraph::{CallGraph, MethodRef};
use crate::shard::ShardInput;
use sjava_syntax::ast::*;
use sjava_syntax::diag::{Diag, Diagnostics};
use sjava_syntax::span::Span;
use std::collections::BTreeSet;

/// Checks termination of every inner loop reachable from the event loop.
/// Returns the number of loops that failed (also reported into `diags`).
pub fn check(shard: &ShardInput<'_>, cg: &CallGraph, diags: &mut Diagnostics) -> usize {
    let mut failures = 0;
    for mref in &cg.topo {
        let (n, d) = check_method(shard, mref);
        failures += n;
        diags.extend(d);
    }
    failures
}

/// Termination verdict for a single method: its failure count and the
/// diagnostics it contributed, in source order. Trusted or unresolvable
/// methods yield `(0, empty)`. The verdict depends only on the method
/// body, so the incremental layer caches it per method fingerprint.
pub fn check_method(shard: &ShardInput<'_>, mref: &MethodRef) -> (usize, Diagnostics) {
    let mut diags = Diagnostics::new();
    let Some((decl_class, method)) = shard.program().resolve_method(&mref.0, &mref.1) else {
        return (0, diags);
    };
    if method.annots.trusted || decl_class.annots.trusted {
        return (0, diags);
    }
    let n = check_block(&method.body, &mut diags);
    (n, diags)
}

fn check_block(block: &Block, diags: &mut Diagnostics) -> usize {
    let mut failures = 0;
    for s in &block.stmts {
        failures += check_stmt(s, diags);
    }
    failures
}

fn check_stmt(stmt: &Stmt, diags: &mut Diagnostics) -> usize {
    match stmt {
        Stmt::While {
            kind,
            cond,
            body,
            span,
        } => {
            let mut failures = check_block(body, diags);
            match kind {
                LoopKind::EventLoop | LoopKind::Trusted(_) | LoopKind::MaxLoop(_) => {}
                LoopKind::Plain => {
                    if !while_terminates(cond, body) {
                        diags.push(
                            Diag::unprovable_loop(
                                "cannot prove loop terminates; add a MAXLOOP_n or TERMINATE_x label",
                                *span,
                            )
                            .with_suggestion(
                                Span::new(span.start, span.start),
                                "MAXLOOP_1000: ",
                                "label the loop with a hard iteration bound",
                            ),
                        );
                        failures += 1;
                    }
                }
            }
            failures
        }
        Stmt::For {
            kind,
            init,
            cond,
            update,
            body,
            span,
        } => {
            let mut failures = check_block(body, diags);
            match kind {
                LoopKind::EventLoop | LoopKind::Trusted(_) | LoopKind::MaxLoop(_) => {}
                LoopKind::Plain => {
                    if !for_terminates(init.as_deref(), cond.as_ref(), update.as_deref(), body) {
                        diags.push(
                            Diag::unprovable_loop(
                                "cannot prove for-loop terminates; add a MAXLOOP_n or TERMINATE_x label",
                                *span,
                            )
                            .with_suggestion(
                                Span::new(span.start, span.start),
                                "MAXLOOP_1000: ",
                                "label the loop with a hard iteration bound",
                            ),
                        );
                        failures += 1;
                    }
                }
            }
            failures
        }
        Stmt::If {
            then_blk, else_blk, ..
        } => {
            let mut f = check_block(then_blk, diags);
            if let Some(e) = else_blk {
                f += check_block(e, diags);
            }
            f
        }
        Stmt::Block(b) => check_block(b, diags),
        _ => 0,
    }
}

/// Direction of an induction variable's constant step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Up,
    Down,
}

fn for_terminates(
    init: Option<&Stmt>,
    cond: Option<&Expr>,
    update: Option<&Stmt>,
    body: &Block,
) -> bool {
    let Some(cond) = cond else {
        return false; // `for(;;)` is an infinite loop
    };
    // Induction candidates from the update slot and top-level body
    // statements (evaluated on every iteration).
    let mut candidates: Vec<(String, Step)> = Vec::new();
    if let Some(u) = update {
        if let Some(c) = induction_update(u) {
            candidates.push(c);
        }
    }
    for s in &body.stmts {
        if let Some(c) = induction_update(s) {
            candidates.push(c);
        }
    }
    let _ = init;
    let assigned = assigned_vars(body);
    candidates
        .iter()
        .any(|(var, step)| cond_guards(cond, var, *step, &assigned))
}

fn while_terminates(cond: &Expr, body: &Block) -> bool {
    // Induction update must be a top-level body statement so it executes
    // on every iteration.
    let mut candidates: Vec<(String, Step)> = Vec::new();
    for s in &body.stmts {
        if let Some(c) = induction_update(s) {
            candidates.push(c);
        }
    }
    let assigned = assigned_vars(body);
    candidates
        .iter()
        .any(|(var, step)| cond_guards(cond, var, *step, &assigned))
}

/// Recognizes `i = i + c` / `i = i - c` (including the desugared `i++`,
/// `i += c`).
fn induction_update(stmt: &Stmt) -> Option<(String, Step)> {
    let Stmt::Assign {
        lhs: LValue::Var { name, .. },
        rhs:
            Expr::Binary {
                op,
                lhs: bin_lhs,
                rhs: bin_rhs,
                ..
            },
        ..
    } = stmt
    else {
        return None;
    };
    let var_on_left = matches!(bin_lhs.as_ref(), Expr::Var { name: n, .. } if n == name);
    let const_on_right = matches!(
        bin_rhs.as_ref(),
        Expr::IntLit { value, .. } if *value > 0
    );
    if !var_on_left || !const_on_right {
        return None;
    }
    match op {
        BinOp::Add => Some((name.clone(), Step::Up)),
        BinOp::Sub => Some((name.clone(), Step::Down)),
        _ => None,
    }
}

/// Does `cond` contain a guaranteed exit inequality for `var` stepping in
/// `step` direction, against a guard invariant in the loop?
fn cond_guards(cond: &Expr, var: &str, step: Step, assigned: &BTreeSet<String>) -> bool {
    match cond {
        // Both conjuncts keep the loop running; either going false exits.
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
            ..
        } => cond_guards(lhs, var, step, assigned) || cond_guards(rhs, var, step, assigned),
        // A disjunction exits only when *both* sides go false.
        Expr::Binary {
            op: BinOp::Or,
            lhs,
            rhs,
            ..
        } => cond_guards(lhs, var, step, assigned) && cond_guards(rhs, var, step, assigned),
        Expr::Binary { op, lhs, rhs, .. } => {
            let (ivar_side, guard, flipped) = if matches!(lhs.as_ref(), Expr::Var { name, .. } if name == var)
            {
                (true, rhs.as_ref(), false)
            } else if matches!(rhs.as_ref(), Expr::Var { name, .. } if name == var) {
                (true, lhs.as_ref(), true)
            } else {
                (false, rhs.as_ref(), false)
            };
            if !ivar_side || !is_invariant(guard, assigned) {
                return false;
            }
            // Appropriate inequality for the step direction (§4.3.1).
            let effective = if flipped { flip(*op) } else { *op };
            matches!(
                (step, effective),
                (Step::Up, BinOp::Lt)
                    | (Step::Up, BinOp::Le)
                    | (Step::Up, BinOp::Ne)
                    | (Step::Down, BinOp::Gt)
                    | (Step::Down, BinOp::Ge)
            )
        }
        _ => false,
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// A guard expression is invariant when it reads no variable the loop body
/// assigns and performs no calls.
fn is_invariant(e: &Expr, assigned: &BTreeSet<String>) -> bool {
    match e {
        Expr::IntLit { .. } | Expr::FloatLit { .. } | Expr::BoolLit { .. } => true,
        Expr::Var { name, .. } => !assigned.contains(name),
        Expr::Length { base, .. } => is_invariant(base, assigned),
        Expr::Field { base, .. } => is_invariant(base, assigned),
        Expr::StaticField { .. } => true,
        Expr::Binary { lhs, rhs, .. } => is_invariant(lhs, assigned) && is_invariant(rhs, assigned),
        Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => is_invariant(operand, assigned),
        _ => false,
    }
}

fn assigned_vars(block: &Block) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    collect_assigned(block, &mut out);
    out
}

fn collect_assigned(block: &Block, out: &mut BTreeSet<String>) {
    for s in &block.stmts {
        match s {
            Stmt::Assign {
                lhs: LValue::Var { name, .. },
                ..
            } => {
                out.insert(name.clone());
            }
            Stmt::VarDecl { name, .. } => {
                out.insert(name.clone());
            }
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                collect_assigned(then_blk, out);
                if let Some(e) = else_blk {
                    collect_assigned(e, out);
                }
            }
            Stmt::While { body, .. } => collect_assigned(body, out),
            Stmt::For {
                init, update, body, ..
            } => {
                if let Some(i) = init {
                    collect_assigned(&single(i.as_ref()), out);
                }
                if let Some(u) = update {
                    collect_assigned(&single(u.as_ref()), out);
                }
                collect_assigned(body, out);
            }
            Stmt::Block(b) => collect_assigned(b, out),
            _ => {}
        }
    }
}

fn single(s: &Stmt) -> Block {
    Block {
        stmts: vec![s.clone()],
        span: s.span(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use sjava_syntax::parse;

    fn run(src: &str) -> (usize, Diagnostics) {
        let p = parse(src).expect("parses");
        let mut d = Diagnostics::new();
        let cg = callgraph::build(&p, &mut d).expect("cg");
        let n = check(&ShardInput::whole(&p), &cg, &mut d);
        (n, d)
    }

    #[test]
    fn simple_for_loop_passes() {
        let (n, _) = run("class A { void main() { SSJAVA: while (true) {
                int s = 0;
                for (int i = 0; i < 10; i++) { s = s + i; }
                Out.emit(s);
            } } }");
        assert_eq!(n, 0);
    }

    #[test]
    fn decrementing_while_passes() {
        let (n, _) = run("class A { void main() { SSJAVA: while (true) {
                int i = Device.read();
                while (i > 0) { i = i - 1; }
                Out.emit(i);
            } } }");
        assert_eq!(n, 0);
    }

    #[test]
    fn unprovable_loop_fails() {
        let (n, d) = run("class A { void main() { SSJAVA: while (true) {
                int i = Device.read();
                while (i != 3) { i = Device.read(); }
                Out.emit(i);
            } } }");
        assert_eq!(n, 1);
        assert!(d.has_errors());
    }

    #[test]
    fn wrong_direction_fails() {
        let (n, _) = run("class A { void main() { SSJAVA: while (true) {
                int i = 0;
                while (i < 10) { i = i - 1; }
            } } }");
        assert_eq!(n, 1);
    }

    #[test]
    fn changing_guard_fails() {
        let (n, _) = run("class A { void main() { SSJAVA: while (true) {
                int i = 0; int g = 10;
                while (i < g) { i = i + 1; g = g + 1; }
            } } }");
        assert_eq!(n, 1);
    }

    #[test]
    fn maxloop_and_terminate_labels_are_trusted() {
        let (n, _) = run("class A { void main() { SSJAVA: while (true) {
                int i = Device.read();
                MAXLOOP_100: while (i != 3) { i = Device.read(); }
                TERMINATE_scan: while (i != 5) { i = Device.read(); }
            } } }");
        assert_eq!(n, 0);
    }

    #[test]
    fn array_length_guard_is_invariant() {
        let (n, _) = run(
            "class A { int[] d; void main() { d = new int[4]; SSJAVA: while (true) {
                int s = 0;
                for (int i = 0; i < d.length; i++) { s = s + d[i]; d[i] = s; }
                Out.emit(s);
            } } }",
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn callee_loops_are_checked() {
        let (n, _) = run("class A { void main() { SSJAVA: while (true) { f(); } }
               void f() { int i = 0; while (true) { i = i + 1; } } }");
        assert_eq!(n, 1);
    }
}
