//! Shared-location eviction extension (§4.2.2).
//!
//! Shared locations admit same-location flows, so the plain eviction
//! analysis cannot guarantee their values leave. This pass checks that
//! every *field* carrying a shared location that the event loop reads is
//! definitely *cleared* — overwritten with a value from a strictly higher
//! location — at least once per loop iteration. Locals declared inside the
//! loop body are fresh each iteration and are covered by the
//! definite-assignment check of the base analysis.

use crate::checker::MethodChecker;
use crate::model::Lattices;
use sjava_analysis::callgraph::{CallGraph, MethodRef};
use sjava_analysis::jtype::TypeEnv;
use sjava_analysis::shard::ShardInput;
use sjava_lattice::{compare, is_shared};
use sjava_syntax::ast::*;
use sjava_syntax::diag::{Diag, Diagnostics};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// A shared-location member: a field `(class, field)` whose declared
/// location is shared.
pub type SharedMember = (String, String);

/// Checks the shared-location clearing condition over the event loop.
///
/// Whole-program by construction: the per-method clears/reads summaries
/// feed each other bottom-up and the final verdict reads them all at the
/// loop, so callers hand it [`ShardInput::whole`]. It emits no
/// per-method diagnostics; the incremental layer caches the per-method
/// summaries and re-runs only the loop walk ([`check_shared_loop`]).
pub fn check_shared(
    shard: &ShardInput<'_>,
    lattices: &Lattices,
    cg: &CallGraph,
    diags: &mut Diagnostics,
) {
    let program = shard.program();
    let members = shared_members(program, lattices);
    if members.is_empty() {
        return;
    }

    // Per-method "definitely clears" summaries, bottom-up.
    let mut clears: BTreeMap<MethodRef, BTreeSet<SharedMember>> = BTreeMap::new();
    let mut reads: BTreeMap<MethodRef, BTreeSet<SharedMember>> = BTreeMap::new();
    for mref in &cg.topo {
        if let Some((c, r)) =
            method_shared_summary(shard, lattices, mref, &members, &clears, &reads)
        {
            clears.insert(mref.clone(), c);
            reads.insert(mref.clone(), r);
        }
    }

    check_shared_loop(program, lattices, cg, &members, &clears, &reads, diags);
}

/// Identifies every field whose declared location is shared. Depends only
/// on class interfaces, so the incremental layer recomputes it per check
/// (it is cheap) rather than caching it.
pub fn shared_members(program: &Program, lattices: &Lattices) -> BTreeSet<SharedMember> {
    let mut members: BTreeSet<SharedMember> = BTreeSet::new();
    for class in &program.classes {
        let Some(lat) = lattices.field_lattice(&class.name) else {
            continue;
        };
        for f in &class.fields {
            if let Some(annot) = &f.annots.loc {
                if let Some(first) = annot.elems.first() {
                    if let Some(id) = lat.get(&first.name) {
                        if lat.is_shared(id) {
                            members.insert((class.name.clone(), f.name.clone()));
                        }
                    }
                }
            }
        }
    }
    members
}

/// Computes one method's shared-location summary — its definitely-cleared
/// and read member sets — given the summaries of its callees (which must
/// already be in `clears`/`reads`; the caller iterates bottom-up).
/// Trusted methods yield empty sets; unresolvable references yield
/// `None`. This is the per-method unit the incremental layer caches.
pub fn method_shared_summary(
    shard: &ShardInput<'_>,
    lattices: &Lattices,
    mref: &MethodRef,
    members: &BTreeSet<SharedMember>,
    clears: &BTreeMap<MethodRef, BTreeSet<SharedMember>>,
    reads: &BTreeMap<MethodRef, BTreeSet<SharedMember>>,
) -> Option<(BTreeSet<SharedMember>, BTreeSet<SharedMember>)> {
    let program = shard.program();
    let (decl_class, method) = program.resolve_method(&mref.0, &mref.1)?;
    let info = lattices.method_info(&decl_class.name, &method.name)?;
    if info.trusted {
        return Some((BTreeSet::new(), BTreeSet::new()));
    }
    let mut checker = MethodChecker::new(shard, lattices, &decl_class.name, method, info);
    let mut scratch = Diagnostics::new();
    checker.run(&mut scratch); // populate env; flow errors already reported elsewhere
    let mut tenv = TypeEnv::for_method(program, &decl_class.name, method);
    tenv.bind_block(&method.body);
    let mut walker = Walker {
        program,
        lattices,
        checker: &checker,
        tenv,
        members,
        clears,
        reads_summary: reads,
        reads: BTreeSet::new(),
    };
    let got = walker.walk_block(&method.body, BTreeSet::new());
    Some((got, walker.reads))
}

/// The event-loop check: every shared member read in the loop must be
/// definitely cleared each iteration. Reads every summary, so the
/// incremental layer always recomputes it.
pub fn check_shared_loop(
    program: &Program,
    lattices: &Lattices,
    cg: &CallGraph,
    members: &BTreeSet<SharedMember>,
    clears: &BTreeMap<MethodRef, BTreeSet<SharedMember>>,
    reads: &BTreeMap<MethodRef, BTreeSet<SharedMember>>,
    diags: &mut Diagnostics,
) {
    let Some((_, entry_method)) = program.resolve_method(&cg.entry.0, &cg.entry.1) else {
        return;
    };
    let Some(info) = lattices.method_info(&cg.entry.0, &cg.entry.1) else {
        return;
    };
    let Some(loop_body) = find_event_loop_body(&entry_method.body) else {
        return;
    };
    // The loop walk checks only the entry method's body, through the
    // same input view the per-method passes use.
    let view = ShardInput::whole(program);
    let mut checker = MethodChecker::new(&view, lattices, &cg.entry.0, entry_method, info);
    let mut scratch = Diagnostics::new();
    checker.run(&mut scratch);
    let mut tenv = TypeEnv::for_method(program, &cg.entry.0, entry_method);
    tenv.bind_block(&entry_method.body);
    let mut walker = Walker {
        program,
        lattices,
        checker: &checker,
        tenv,
        members,
        clears,
        reads_summary: reads,
        reads: BTreeSet::new(),
    };
    let cleared = walker.walk_block(loop_body, BTreeSet::new());
    for m in walker.reads.iter() {
        if !cleared.contains(m) {
            diags.push(Diag::shared_accum(
                format!(
                    "shared location of `{}.{}` is read but not cleared (written from a higher location) every event-loop iteration",
                    m.0, m.1
                ),
                cg.event_loop_span,
            ));
        }
    }
}

fn find_event_loop_body(block: &Block) -> Option<&Block> {
    for s in &block.stmts {
        match s {
            Stmt::While {
                kind: LoopKind::EventLoop,
                body,
                ..
            } => return Some(body),
            Stmt::While { body, .. } | Stmt::For { body, .. } => {
                if let Some(b) = find_event_loop_body(body) {
                    return Some(b);
                }
            }
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                if let Some(b) = find_event_loop_body(then_blk) {
                    return Some(b);
                }
                if let Some(e) = else_blk {
                    if let Some(b) = find_event_loop_body(e) {
                        return Some(b);
                    }
                }
            }
            Stmt::Block(b) => {
                if let Some(x) = find_event_loop_body(b) {
                    return Some(x);
                }
            }
            _ => {}
        }
    }
    None
}

struct Walker<'p, 'a> {
    program: &'p Program,
    lattices: &'p Lattices,
    checker: &'a MethodChecker<'p>,
    tenv: TypeEnv<'p>,
    members: &'a BTreeSet<SharedMember>,
    clears: &'a BTreeMap<MethodRef, BTreeSet<SharedMember>>,
    reads_summary: &'a BTreeMap<MethodRef, BTreeSet<SharedMember>>,
    reads: BTreeSet<SharedMember>,
}

impl Walker<'_, '_> {
    /// Walks a block, threading the definitely-cleared set; returns the
    /// set at the end.
    fn walk_block(
        &mut self,
        block: &Block,
        mut cleared: BTreeSet<SharedMember>,
    ) -> BTreeSet<SharedMember> {
        for s in &block.stmts {
            cleared = self.walk_stmt(s, cleared);
        }
        cleared
    }

    fn member_of_lvalue(&self, lv: &LValue) -> Option<SharedMember> {
        match lv {
            LValue::Var { name, .. } => {
                if self.tenv.local(name).is_none() {
                    self.member_field(&self.tenv.class.clone(), name)
                } else {
                    None
                }
            }
            LValue::Field { base, field, .. } => {
                let Some(Type::Class(c)) = self.tenv.ty(base) else {
                    return None;
                };
                self.member_field(&c, field)
            }
            LValue::Index { base, .. } => {
                // Arrays with shared locations: the member is the array
                // field itself.
                match &**base {
                    Expr::Field {
                        base: b2, field, ..
                    } => {
                        let Some(Type::Class(c)) = self.tenv.ty(b2) else {
                            return None;
                        };
                        self.member_field(&c, field)
                    }
                    Expr::Var { name, .. } if self.tenv.local(name).is_none() => {
                        self.member_field(&self.tenv.class.clone(), name)
                    }
                    _ => None,
                }
            }
            LValue::StaticField { class, field, .. } => self.member_field(class, field),
        }
    }

    fn member_field(&self, class: &str, field: &str) -> Option<SharedMember> {
        let fi = self.lattices.field_info(self.program, class, field)?;
        // The membership probe is a separate fact from the field
        // resolution: the set of shared members can change without the
        // field's declaration changing (e.g. another class's @LATTICE
        // gains `shared` on this location).
        sjava_syntax::track::record_shared_member(&fi.declaring_class, field);
        let key = (fi.declaring_class.clone(), field.to_string());
        if self.members.contains(&key) {
            Some(key)
        } else {
            None
        }
    }

    fn scan_reads(&mut self, e: &Expr) {
        match e {
            Expr::Var { name, .. } if self.tenv.local(name).is_none() => {
                if let Some(m) = self.member_field(&self.tenv.class.clone(), name) {
                    self.reads.insert(m);
                }
            }
            Expr::Field { base, field, .. } => {
                self.scan_reads(base);
                if let Some(Type::Class(c)) = self.tenv.ty(base) {
                    if let Some(m) = self.member_field(&c, field) {
                        self.reads.insert(m);
                    }
                }
            }
            Expr::StaticField { class, field, .. } => {
                if let Some(m) = self.member_field(class, field) {
                    self.reads.insert(m);
                }
            }
            Expr::Index { base, index, .. } => {
                self.scan_reads(base);
                self.scan_reads(index);
            }
            Expr::Length { base, .. } => self.scan_reads(base),
            Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => self.scan_reads(operand),
            Expr::Binary { lhs, rhs, .. } => {
                self.scan_reads(lhs);
                self.scan_reads(rhs);
            }
            Expr::Call(call) => {
                let CallExpr { recv, args, .. } = &**call;
                if let Some(r) = recv {
                    self.scan_reads(r);
                }
                for a in args {
                    self.scan_reads(a);
                }
                // Callee shared reads propagate.
                if let Some(target) = self.tenv.call_target_class(e) {
                    if let Expr::Call(call) = e {
                        let CallExpr { name, .. } = &**call;
                        if let Some((dc, dm)) = self.program.resolve_method(&target, name) {
                            let key = (dc.name.clone(), dm.name.clone());
                            if let Some(rs) = self.reads_summary.get(&key) {
                                self.reads.extend(rs.iter().cloned());
                            }
                        }
                    }
                }
            }
            Expr::NewArray { len, .. } => self.scan_reads(len),
            _ => {}
        }
    }

    fn walk_stmt(
        &mut self,
        stmt: &Stmt,
        mut cleared: BTreeSet<SharedMember>,
    ) -> BTreeSet<SharedMember> {
        match stmt {
            Stmt::VarDecl { init, .. } => {
                if let Some(e) = init {
                    self.scan_reads(e);
                    cleared = self.apply_calls(e, cleared);
                }
                cleared
            }
            Stmt::Assign { lhs, rhs, .. } => {
                self.scan_reads(rhs);
                cleared = self.apply_calls(rhs, cleared);
                if let Some(member) = self.member_of_lvalue(lhs) {
                    // Clearing write: the source location is strictly
                    // higher than the destination's shared location.
                    let mut scratch = Diagnostics::new();
                    let src = self.checker.loc_of(rhs, &mut scratch);
                    let dst = self.checker.loc_of_lvalue_public(lhs, &mut scratch);
                    let ctx = self.checker.model_ctx();
                    if is_shared(&ctx, &dst)
                        && matches!(compare(&ctx, &dst, &src), Some(Ordering::Less))
                    {
                        cleared.insert(member);
                    }
                }
                cleared
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                self.scan_reads(cond);
                cleared = self.apply_calls(cond, cleared);
                let t = self.walk_block(then_blk, cleared.clone());
                let e = match else_blk {
                    Some(b) => self.walk_block(b, cleared.clone()),
                    None => cleared,
                };
                t.intersection(&e).cloned().collect()
            }
            Stmt::While { cond, body, .. } => {
                self.scan_reads(cond);
                // Body may run zero times.
                let _ = self.walk_block(body, cleared.clone());
                cleared
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
                ..
            } => {
                if let Some(i) = init {
                    cleared = self.walk_stmt(i, cleared);
                }
                if let Some(c) = cond {
                    self.scan_reads(c);
                }
                let b = self.walk_block(body, cleared.clone());
                let b = match update {
                    Some(u) => self.walk_stmt(u, b),
                    None => b,
                };
                // Clearing loops (e.g. re-dequantizing a shared granule
                // array) count when the loop provably runs.
                if sjava_analysis::written::for_loop_runs_at_least_once(
                    init.as_deref(),
                    cond.as_ref(),
                ) {
                    b
                } else {
                    cleared
                }
            }
            Stmt::Return { value, .. } => {
                if let Some(v) = value {
                    self.scan_reads(v);
                    cleared = self.apply_calls(v, cleared);
                }
                cleared
            }
            Stmt::ExprStmt { expr, .. } => {
                self.scan_reads(expr);
                self.apply_calls(expr, cleared)
            }
            Stmt::Block(b) => self.walk_block(b, cleared),
            Stmt::Break { .. } | Stmt::Continue { .. } => cleared,
        }
    }

    /// Adds callee must-clears for every call inside `e`.
    fn apply_calls(
        &mut self,
        e: &Expr,
        mut cleared: BTreeSet<SharedMember>,
    ) -> BTreeSet<SharedMember> {
        match e {
            Expr::Call(call) => {
                let CallExpr {
                    recv, args, name, ..
                } = &**call;
                if let Some(r) = recv {
                    cleared = self.apply_calls(r, cleared);
                }
                for a in args {
                    cleared = self.apply_calls(a, cleared);
                }
                if let Some(target) = self.tenv.call_target_class(e) {
                    if let Some((dc, dm)) = self.program.resolve_method(&target, name) {
                        let key = (dc.name.clone(), dm.name.clone());
                        if let Some(cs) = self.clears.get(&key) {
                            cleared.extend(cs.iter().cloned());
                        }
                    }
                }
                cleared
            }
            Expr::Field { base, .. } | Expr::Length { base, .. } => self.apply_calls(base, cleared),
            Expr::Index { base, index, .. } => {
                let c = self.apply_calls(base, cleared);
                self.apply_calls(index, c)
            }
            Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => {
                self.apply_calls(operand, cleared)
            }
            Expr::Binary { lhs, rhs, .. } => {
                let c = self.apply_calls(lhs, cleared);
                self.apply_calls(rhs, c)
            }
            Expr::NewArray { len, .. } => self.apply_calls(len, cleared),
            _ => cleared,
        }
    }
}
