//! Linear-type alias restriction (§4.1.6) and ownership transfer.
//!
//! SJava's heap must be a forest: no object may be referenced by two heap
//! locations, or a low reference could observe writes made through a high
//! reference, subverting the flow-down rule. Variables may alias provided
//! they carry the same location type. Ownership is transferred to callees
//! through `@DELEGATE` parameters, after which the caller's reference is
//! dead.
//!
//! The implementation is a per-method abstract interpretation over a small
//! ownership state machine:
//!
//! - `Owned` — a unique reference (fresh allocation, owned return value,
//!   `@DELEGATE` parameter, or a reference detached from the heap);
//! - `Borrowed` — an alias of a heap-resident tree;
//! - `Dead` — ownership was transferred; any use is an error.

use crate::checker::collect_var_locs;
use crate::model::{Lattices, MethodInfo};
use sjava_analysis::callgraph::{CallGraph, MethodRef};
use sjava_analysis::jtype::TypeEnv;
use sjava_analysis::shard::ShardInput;
use sjava_lattice::CompositeLoc;
use sjava_syntax::ast::*;
use sjava_syntax::diag::{Diag, Diagnostics};
use std::collections::HashMap;

/// Ownership state of a reference variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Own {
    Owned,
    Borrowed,
    Dead,
}

/// Runs the alias/ownership check on every reachable method.
pub fn check_aliasing(
    shard: &ShardInput<'_>,
    lattices: &Lattices,
    cg: &CallGraph,
    diags: &mut Diagnostics,
) {
    for mref in &cg.topo {
        diags.extend(check_method_aliasing(shard, lattices, mref));
    }
}

/// Alias/ownership check for a single method into a private buffer —
/// the per-method unit the incremental layer caches and replays. Trusted
/// or unresolvable methods produce an empty buffer.
pub fn check_method_aliasing(
    shard: &ShardInput<'_>,
    lattices: &Lattices,
    mref: &MethodRef,
) -> Diagnostics {
    let mut diags = Diagnostics::new();
    let Some((decl_class, method)) = shard.program().resolve_method(&mref.0, &mref.1) else {
        return diags;
    };
    let Some(info) = lattices.method_info(&decl_class.name, &method.name) else {
        return diags;
    };
    if info.trusted {
        return diags;
    }
    check_method(shard, lattices, &decl_class.name, method, info, &mut diags);
    diags
}

fn check_method(
    shard: &ShardInput<'_>,
    _lattices: &Lattices,
    class: &str,
    method: &MethodDecl,
    info: &MethodInfo,
    diags: &mut Diagnostics,
) {
    let program = shard.program();
    let mut tenv = TypeEnv::for_method(program, class, method);
    tenv.bind_block(&method.body);
    // Location environment for the same-location alias rule; errors were
    // already reported by the checker, so swallow them here.
    let mut scratch = Diagnostics::new();
    let env = collect_var_locs(shard, class, method, info, &mut scratch);
    let mut st: HashMap<String, Own> = HashMap::new();
    for p in &method.params {
        if p.ty.is_reference() {
            st.insert(
                p.name.clone(),
                if p.annots.delegate {
                    Own::Owned
                } else {
                    Own::Borrowed
                },
            );
        }
    }
    let mut cx = Cx {
        program,
        tenv,
        env,
        diags,
    };
    walk_block(&method.body, &mut st, &mut cx);
}

struct Cx<'p, 'd> {
    program: &'p Program,
    tenv: TypeEnv<'p>,
    env: HashMap<String, CompositeLoc>,
    diags: &'d mut Diagnostics,
}

fn is_ref_expr(cx: &Cx<'_, '_>, e: &Expr) -> bool {
    matches!(cx.tenv.ty(e), Some(t) if t.is_reference())
        || matches!(e, Expr::New { .. } | Expr::NewArray { .. })
}

/// Classifies the ownership of a reference-producing expression.
fn rhs_ownership(e: &Expr, st: &HashMap<String, Own>) -> Own {
    match e {
        Expr::New { .. } | Expr::NewArray { .. } => Own::Owned,
        Expr::Null { .. } => Own::Owned,
        // Methods return owned references (§4.1.6).
        Expr::Call(_) => Own::Owned,
        Expr::Var { name, .. } => st.get(name).copied().unwrap_or(Own::Borrowed),
        // Reading a reference out of the heap borrows it.
        Expr::Field { .. } | Expr::StaticField { .. } | Expr::Index { .. } => Own::Borrowed,
        Expr::Cast { operand, .. } => rhs_ownership(operand, st),
        Expr::This { .. } => Own::Borrowed,
        _ => Own::Borrowed,
    }
}

fn use_var(
    name: &str,
    span: sjava_syntax::span::Span,
    st: &HashMap<String, Own>,
    cx: &mut Cx<'_, '_>,
) {
    if st.get(name) == Some(&Own::Dead) {
        cx.diags.push(Diag::delegate(
            format!("use of `{name}` after its ownership was delegated"),
            span,
        ));
    }
}

fn scan_uses(e: &Expr, st: &HashMap<String, Own>, cx: &mut Cx<'_, '_>) {
    match e {
        Expr::Var { name, span } => use_var(name, *span, st, cx),
        Expr::Field { base, .. } | Expr::Length { base, .. } => scan_uses(base, st, cx),
        Expr::Index { base, index, .. } => {
            scan_uses(base, st, cx);
            scan_uses(index, st, cx);
        }
        Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => scan_uses(operand, st, cx),
        Expr::Binary { lhs, rhs, .. } => {
            scan_uses(lhs, st, cx);
            scan_uses(rhs, st, cx);
        }
        Expr::Call(call) => {
            let CallExpr { recv, args, .. } = &**call;
            if let Some(r) = recv {
                scan_uses(r, st, cx);
            }
            for a in args {
                scan_uses(a, st, cx);
            }
        }
        Expr::NewArray { len, .. } => scan_uses(len, st, cx),
        _ => {}
    }
}

/// Handles a call's `@DELEGATE` parameters: arguments must be owned
/// variables, which die afterwards.
fn handle_call(e: &Expr, st: &mut HashMap<String, Own>, cx: &mut Cx<'_, '_>) {
    let Expr::Call(call) = e else {
        return;
    };
    let CallExpr {
        recv,
        class_recv: _,
        name,
        args,
        span,
    } = &**call;
    if let Some(r) = recv {
        scan_uses(r, st, cx);
        handle_nested_calls(r, st, cx);
    }
    for a in args {
        scan_uses(a, st, cx);
        handle_nested_calls(a, st, cx);
    }
    let Some(target) = cx.tenv.call_target_class(e) else {
        return;
    };
    let Some((_, callee)) = cx.program.resolve_method(&target, name) else {
        return;
    };
    for (p, a) in callee.params.iter().zip(args) {
        if !p.annots.delegate {
            continue;
        }
        match a {
            Expr::Var { name: vn, .. } => {
                let own = st.get(vn).copied().unwrap_or(Own::Borrowed);
                if own != Own::Owned {
                    cx.diags.push(Diag::delegate(
                        format!(
                            "argument `{vn}` to @DELEGATE parameter `{}` must be an owned reference",
                            p.name
                        ),
                        *span,
                    ));
                }
                st.insert(vn.clone(), Own::Dead);
            }
            Expr::New { .. } | Expr::NewArray { .. } | Expr::Call(_) => {}
            other => cx.diags.push(Diag::delegate(
                "only owned variables or fresh values may be passed to @DELEGATE parameters",
                other.span(),
            )),
        }
    }
}

fn handle_nested_calls(e: &Expr, st: &mut HashMap<String, Own>, cx: &mut Cx<'_, '_>) {
    match e {
        Expr::Call(_) => handle_call(e, st, cx),
        Expr::Field { base, .. } | Expr::Length { base, .. } => handle_nested_calls(base, st, cx),
        Expr::Index { base, index, .. } => {
            handle_nested_calls(base, st, cx);
            handle_nested_calls(index, st, cx);
        }
        Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => {
            handle_nested_calls(operand, st, cx)
        }
        Expr::Binary { lhs, rhs, .. } => {
            handle_nested_calls(lhs, st, cx);
            handle_nested_calls(rhs, st, cx);
        }
        Expr::NewArray { len, .. } => handle_nested_calls(len, st, cx),
        _ => {}
    }
}

fn walk_block(block: &Block, st: &mut HashMap<String, Own>, cx: &mut Cx<'_, '_>) {
    for s in &block.stmts {
        walk_stmt(s, st, cx);
    }
}

fn walk_stmt(stmt: &Stmt, st: &mut HashMap<String, Own>, cx: &mut Cx<'_, '_>) {
    match stmt {
        Stmt::VarDecl { name, init, ty, .. } => {
            if let Some(e) = init {
                scan_uses(e, st, cx);
                handle_nested_calls(e, st, cx);
                if ty.is_reference() {
                    let own = rhs_ownership(e, st);
                    check_var_alias_locs(name, e, st, cx);
                    st.insert(name.clone(), own);
                }
            }
        }
        Stmt::Assign { lhs, rhs, span } => {
            scan_uses(rhs, st, cx);
            handle_nested_calls(rhs, st, cx);
            match lhs {
                LValue::Var { name, .. } => {
                    let is_local = cx.tenv.local(name).is_some();
                    if is_ref_expr(cx, rhs) {
                        if is_local {
                            let own = rhs_ownership(rhs, st);
                            check_var_alias_locs(name, rhs, st, cx);
                            st.insert(name.clone(), own);
                        } else {
                            // Unqualified field assignment is a heap
                            // store: only owned references may enter.
                            if let Expr::Var { name: vn, .. } = rhs {
                                let own = st.get(vn).copied().unwrap_or(Own::Borrowed);
                                if own == Own::Borrowed {
                                    cx.diags.push(Diag::alias(
                                        format!(
                                            "storing `{vn}` would create a second heap alias (linear-type violation)"
                                        ),
                                        *span,
                                    ));
                                }
                                st.insert(vn.clone(), Own::Borrowed);
                            }
                        }
                    }
                }
                LValue::Field { base, .. } | LValue::Index { base, .. } => {
                    scan_uses(base, st, cx);
                    // Storing a reference into the heap: only owned
                    // references may enter (else two heap aliases arise).
                    if is_ref_expr(cx, rhs) {
                        match rhs {
                            Expr::Var { name: vn, .. } => {
                                let own = st.get(vn).copied().unwrap_or(Own::Borrowed);
                                if own == Own::Borrowed {
                                    cx.diags.push(Diag::alias(
                                        format!(
                                            "storing `{vn}` would create a second heap alias (linear-type violation)"
                                        ),
                                        *span,
                                    ));
                                }
                                // The heap now owns the tree.
                                st.insert(vn.clone(), Own::Borrowed);
                            }
                            Expr::Null { .. }
                            | Expr::New { .. }
                            | Expr::NewArray { .. }
                            | Expr::Call(_) => {}
                            Expr::Field { .. } | Expr::Index { .. } | Expr::StaticField { .. } => {
                                cx.diags.push(Diag::alias(
                                    "moving a reference between heap locations requires detaching it into an owned variable first",
                                    *span,
                                ));
                            }
                            _ => {}
                        }
                    }
                }
                LValue::StaticField { .. } => {
                    if is_ref_expr(cx, rhs) {
                        if let Expr::Var { name: vn, .. } = rhs {
                            let own = st.get(vn).copied().unwrap_or(Own::Borrowed);
                            if own == Own::Borrowed {
                                cx.diags.push(Diag::alias(
                                    format!(
                                        "storing `{vn}` into a static field would create a second heap alias"
                                    ),
                                    *span,
                                ));
                            }
                            st.insert(vn.clone(), Own::Borrowed);
                        }
                    }
                }
            }
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            ..
        } => {
            scan_uses(cond, st, cx);
            handle_nested_calls(cond, st, cx);
            let mut t = st.clone();
            walk_block(then_blk, &mut t, cx);
            let mut e = st.clone();
            if let Some(b) = else_blk {
                walk_block(b, &mut e, cx);
            }
            *st = merge(t, e);
        }
        Stmt::While { cond, body, .. } => {
            scan_uses(cond, st, cx);
            handle_nested_calls(cond, st, cx);
            let mut b = st.clone();
            walk_block(body, &mut b, cx);
            *st = merge(st.clone(), b);
        }
        Stmt::For {
            init,
            cond,
            update,
            body,
            ..
        } => {
            if let Some(i) = init {
                walk_stmt(i, st, cx);
            }
            if let Some(c) = cond {
                scan_uses(c, st, cx);
            }
            let mut b = st.clone();
            walk_block(body, &mut b, cx);
            if let Some(u) = update {
                walk_stmt(u, &mut b, cx);
            }
            *st = merge(st.clone(), b);
        }
        Stmt::Return { value, .. } => {
            if let Some(v) = value {
                scan_uses(v, st, cx);
                handle_nested_calls(v, st, cx);
                // Methods may only return owned references.
                if is_ref_expr(cx, v) {
                    if let Expr::Var { name, span } = v {
                        if st.get(name) == Some(&Own::Borrowed) {
                            cx.diags.push(Diag::alias(
                                format!("returning borrowed reference `{name}` is not allowed; methods return owned references"),
                                *span,
                            ));
                        }
                    }
                }
            }
        }
        Stmt::ExprStmt { expr, .. } => {
            scan_uses(expr, st, cx);
            handle_nested_calls(expr, st, cx);
        }
        Stmt::Block(b) => walk_block(b, st, cx),
        Stmt::Break { .. } | Stmt::Continue { .. } => {}
    }
}

/// Variable-variable aliasing requires identical location types (§4.1.6).
fn check_var_alias_locs(dst: &str, rhs: &Expr, _st: &HashMap<String, Own>, cx: &mut Cx<'_, '_>) {
    if let Expr::Var { name: src, span } = rhs {
        let (Some(a), Some(b)) = (cx.env.get(dst), cx.env.get(src)) else {
            return;
        };
        if a != b {
            cx.diags.push(Diag::alias(
                format!(
                    "aliasing `{src}` into `{dst}` with a different location type ({b} vs {a}) is prohibited"
                ),
                *span,
            ));
        }
    }
}

fn merge(a: HashMap<String, Own>, b: HashMap<String, Own>) -> HashMap<String, Own> {
    let mut out = HashMap::new();
    for (k, va) in &a {
        let m = match (va, b.get(k)) {
            (Own::Dead, _) | (_, Some(Own::Dead)) => Own::Dead,
            (Own::Owned, Some(Own::Owned)) => Own::Owned,
            (x, None) => *x,
            _ => Own::Borrowed,
        };
        out.insert(k.clone(), m);
    }
    for (k, vb) in b {
        out.entry(k).or_insert(vb);
    }
    out
}
