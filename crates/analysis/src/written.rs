//! The definitely-written (eviction) analysis of §4.2.
//!
//! Ensures that every value read inside the event loop is either
//! (1) loop-invariant, (2) overwritten in the current iteration before the
//! read, or (3) overwritten in every loop iteration — so no stale,
//! corrupted value can survive.
//!
//! The analysis computes, per method, the read set `R`, may-write set `OW`
//! and must-write set `WT` over [`HeapPath`]s (Fig 4.4), propagates callee
//! effects through call sites with the `⊙` operator, and finally checks the
//! event loop (§4.2.1). Local variables are checked with a
//! definite-assignment analysis.

use crate::callgraph::{CallGraph, MethodRef};
use crate::dense::{BitSet, PathId, PathInterner, VarId, VarInterner};
use crate::heappath::{HeapPath, ELEMENT};
use crate::jtype::TypeEnv;
use crate::shard::ShardInput;
use sjava_lattice::FnvHashMap;
use sjava_syntax::ast::*;
use sjava_syntax::diag::{Diag, Diagnostics};
use sjava_syntax::span::Span;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Per-method read/write effect summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MethodSummary {
    /// `R^m`: heap paths read before being overwritten in the method.
    pub reads: BTreeSet<HeapPath>,
    /// `OW^m`: heap paths that may be written.
    pub may_writes: BTreeSet<HeapPath>,
    /// `WT^m`: heap paths definitely written on every path.
    pub must_writes: BTreeSet<HeapPath>,
}

/// A heap path the event loop reads that may carry stale state, and
/// where it is read.
pub type StalePath = (HeapPath, Span);
/// A local variable the event loop reads before definitely assigning it.
pub type StaleLocal = (String, Span);

/// Eviction summaries per method. Shared, so that an incremental session
/// hands its cached summaries to a report without copying them.
pub type Summaries = BTreeMap<MethodRef, Arc<MethodSummary>>;

/// Result of the whole-program eviction analysis.
#[derive(Debug, Clone)]
pub struct EvictionResult {
    /// Summaries per reachable method.
    pub summaries: Summaries,
    /// Heap paths read by the event loop that failed all three conditions.
    pub stale_paths: Vec<StalePath>,
    /// Local variables read in the event loop that failed the
    /// definite-assignment conditions.
    pub stale_locals: Vec<StaleLocal>,
}

impl EvictionResult {
    /// Whether the program passed the eviction check.
    pub fn is_ok(&self) -> bool {
        self.stale_paths.is_empty() && self.stale_locals.is_empty()
    }
}

/// Runs the eviction analysis over all methods reachable from the event
/// loop and checks the loop body; failures are also reported into `diags`.
pub fn analyze(program: &Program, cg: &CallGraph, diags: &mut Diagnostics) -> EvictionResult {
    // Summaries are *inputs* to every other per-method judgment: a
    // caller's check reads its callees' summaries by value, never their
    // bodies, which is what lets the incremental layer key a method on
    // its callees' summary hashes.
    let shard = ShardInput::whole(program);
    let mut summaries = Summaries::new();
    // Bottom-up over the acyclic call graph, one reverse-topo wave at a
    // time: a wave's methods only call into earlier waves, so they are
    // summarized in parallel against a read-only view of `summaries`,
    // with a barrier (the merge below) between waves. The merge keyed by
    // `MethodRef` lands in a `BTreeMap`, so the result is identical at
    // any thread count.
    for wave in cg.levels() {
        let wave_summaries =
            sjava_par::run_indexed(wave.len(), |i| summarize(&shard, &wave[i], &summaries));
        for (mref, summary) in wave.iter().zip(wave_summaries) {
            if let Some(s) = summary {
                summaries.insert(mref.clone(), Arc::new(s));
            }
        }
    }

    let (stale_paths, stale_locals) = check_loop(program, cg, &summaries);
    report(&stale_paths, &stale_locals, diags);
    EvictionResult {
        summaries,
        stale_paths,
        stale_locals,
    }
}

/// Summarizes one method given its callees' summaries (which must already
/// be present in `summaries` — the caller iterates bottom-up). Trusted
/// methods get an empty (effect-free) summary; unresolvable references
/// get `None`. This is the per-method unit the incremental layer caches.
pub fn summarize(
    shard: &ShardInput<'_>,
    mref: &MethodRef,
    summaries: &Summaries,
) -> Option<MethodSummary> {
    let program = shard.program();
    let (decl_class, method) = program.resolve_method(&mref.0, &mref.1)?;
    if method.annots.trusted || decl_class.annots.trusted {
        return Some(MethodSummary::default());
    }
    Some(summarize_method(program, &mref.0, method, summaries))
}

/// Checks the §4.2.1 conditions on the event loop against a complete
/// summary map. Always recomputed by the incremental layer (it reads
/// every summary, so caching it would buy nothing and risk staleness).
pub fn check_loop(
    program: &Program,
    cg: &CallGraph,
    summaries: &Summaries,
) -> (Vec<StalePath>, Vec<StaleLocal>) {
    check_event_loop(program, cg, summaries)
}

/// Renders eviction failures into diagnostics — factored out so a cached
/// and a fresh analysis emit byte-identical messages.
pub fn report(stale_paths: &[StalePath], stale_locals: &[StaleLocal], diags: &mut Diagnostics) {
    for (p, span) in stale_paths {
        diags.push(Diag::stale_heap(
            format!("heap location {p} may be read without being overwritten every event-loop iteration"),
            *span,
        ));
    }
    for (v, span) in stale_locals {
        diags.push(Diag::stale_heap(
            format!("local `{v}` may carry a value across event-loop iterations without being overwritten"),
            *span,
        ));
    }
}

fn summarize_method(
    program: &Program,
    class: &str,
    method: &MethodDecl,
    summaries: &Summaries,
) -> MethodSummary {
    let mut env = TypeEnv::for_method(program, class, method);
    env.bind_block(&method.body);
    let mut an = BodyAnalyzer::new(program, env, summaries);
    let mut st = FlowState::default();
    if !method.is_static {
        let var = an.vars.intern("this");
        let root = an.paths.root("this");
        st.bind_definite(var, root);
    }
    for p in &method.params {
        if p.ty.is_reference() {
            let var = an.vars.intern(&p.name);
            let root = an.paths.root(&p.name);
            st.bind_definite(var, root);
        }
    }
    an.walk_block(&method.body, &mut st);
    MethodSummary {
        reads: an.reads.iter().map(|&(p, _)| an.paths.resolve(p)).collect(),
        may_writes: an
            .may_writes
            .iter()
            .map(|p| an.paths.resolve(p as PathId))
            .collect(),
        must_writes: st
            .wt
            .iter()
            .map(|p| an.paths.resolve(p as PathId))
            .collect(),
    }
}

/// Checks the §4.2.1 conditions on the event loop, returning stale heap
/// paths and stale locals.
fn check_event_loop(
    program: &Program,
    cg: &CallGraph,
    summaries: &Summaries,
) -> (Vec<StalePath>, Vec<StaleLocal>) {
    let Some((_, method)) = program.resolve_method(&cg.entry.0, &cg.entry.1) else {
        return (Vec::new(), Vec::new());
    };
    let mut env = TypeEnv::for_method(program, &cg.entry.0, method);
    env.bind_block(&method.body);

    // Walk statements before the loop to establish alias information for
    // locals, then analyze the loop body itself.
    let mut an = BodyAnalyzer::new(program, env, summaries);
    let mut st = FlowState::default();
    if !method.is_static {
        let var = an.vars.intern("this");
        let root = an.paths.root("this");
        st.bind_definite(var, root);
    }
    for p in &method.params {
        if p.ty.is_reference() {
            let var = an.vars.intern(&p.name);
            let root = an.paths.root(&p.name);
            st.bind_definite(var, root);
        }
    }
    let Some((pre, loop_body)) = split_at_event_loop(&method.body) else {
        return (Vec::new(), Vec::new());
    };
    for s in pre {
        an.walk_stmt(s, &mut st);
    }
    // Fresh read/assignment tracking for the loop body; aliases persist.
    an.reads.clear();
    an.may_writes.clear();
    an.local_reads.clear();
    an.locals_tracked = true;
    st.wt.clear();
    st.assigned.clear();
    an.walk_block(loop_body, &mut st);

    // Heap conditions: (1) never written in the loop, or (3) prefix-overwritten at
    // the back edge. (Condition (2) — overwritten before the read — was
    // already applied when collecting reads.)
    let mut stale_paths = Vec::new();
    for &(p, span) in &an.reads {
        let cond1 = !an.paths.covered_by(&an.may_writes, p);
        let cond3 = an.paths.covered_by(&st.wt, p);
        if !cond1 && !cond3 {
            stale_paths.push((an.paths.resolve(p), span));
        }
    }

    // Local-variable conditions.
    let mut stale_locals = Vec::new();
    for &(var, span, was_assigned_before) in &an.local_reads {
        if was_assigned_before {
            continue; // condition (2)
        }
        let assigned_in_loop = an.any_assigned.contains(var as usize);
        let assigned_every_iter = st.assigned.contains(var as usize);
        if assigned_in_loop && !assigned_every_iter {
            stale_locals.push((an.vars.resolve(var).to_string(), span));
        }
    }
    stale_paths.sort_by(|a, b| a.0.cmp(&b.0));
    stale_paths.dedup_by(|a, b| a.0 == b.0);
    stale_locals.sort();
    stale_locals.dedup_by(|a, b| a.0 == b.0);
    (stale_paths, stale_locals)
}

fn split_at_event_loop(body: &Block) -> Option<(&[Stmt], &Block)> {
    for (i, s) in body.stmts.iter().enumerate() {
        if let Stmt::While {
            kind: LoopKind::EventLoop,
            body: loop_body,
            ..
        } = s
        {
            return Some((&body.stmts[..i], loop_body));
        }
    }
    // Nested in another statement: no pre-statement modelling (rare).
    fn find(block: &Block) -> Option<&Block> {
        for s in &block.stmts {
            match s {
                Stmt::While {
                    kind: LoopKind::EventLoop,
                    body,
                    ..
                } => return Some(body),
                Stmt::While { body, .. } | Stmt::For { body, .. } => {
                    if let Some(b) = find(body) {
                        return Some(b);
                    }
                }
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    if let Some(b) = find(then_blk) {
                        return Some(b);
                    }
                    if let Some(e) = else_blk {
                        if let Some(b) = find(e) {
                            return Some(b);
                        }
                    }
                }
                Stmt::Block(b) => {
                    if let Some(x) = find(b) {
                        return Some(x);
                    }
                }
                _ => {}
            }
        }
        None
    }
    find(body).map(|b| (&body.stmts[..0], b))
}

/// Alias + must-write state flowing through a body. All sets are dense
/// bitsets over the per-method path/variable interners, so branch clones
/// are flat `memcpy`s instead of tree rebuilds.
#[derive(Debug, Clone, Default)]
struct FlowState {
    /// Variable → (possible heap paths, definitely-unique).
    hp: FnvHashMap<VarId, (BitSet, bool)>,
    /// Must-written heap paths (`WT`).
    wt: BitSet,
    /// Definitely-assigned locals since scope start (event-loop iteration).
    assigned: BitSet,
    /// Set when the path has returned (unreachable continuation).
    returned: bool,
}

impl FlowState {
    fn bind_definite(&mut self, var: VarId, path: PathId) {
        self.hp
            .insert(var, ([path as usize].into_iter().collect(), true));
    }

    fn paths(&self, var: VarId) -> Option<&(BitSet, bool)> {
        self.hp.get(&var)
    }

    /// Control-flow join of two branch states.
    fn merge(a: FlowState, b: FlowState) -> FlowState {
        if a.returned {
            return b;
        }
        if b.returned {
            return a;
        }
        let mut hp =
            FnvHashMap::with_capacity_and_hasher(a.hp.len().max(b.hp.len()), Default::default());
        for (k, (pa, da)) in &a.hp {
            if let Some((pb, db)) = b.hp.get(k) {
                let definite = da & db && pa == pb;
                let mut union = pa.clone();
                union.union_with(pb);
                hp.insert(*k, (union, definite));
            } else {
                hp.insert(*k, (pa.clone(), false));
            }
        }
        for (k, (pb, _)) in b.hp {
            hp.entry(k).or_insert((pb, false));
        }
        let mut wt = a.wt;
        wt.intersect_with(&b.wt);
        let mut assigned = a.assigned;
        assigned.intersect_with(&b.assigned);
        FlowState {
            hp,
            wt,
            assigned,
            returned: false,
        }
    }
}

struct BodyAnalyzer<'p> {
    program: &'p Program,
    env: TypeEnv<'p>,
    summaries: &'p Summaries,
    /// Per-method heap-path interner; ids index `may_writes`/`wt`.
    paths: PathInterner,
    /// Per-method local-variable interner; ids index `assigned`.
    vars: VarInterner,
    /// Reads surviving condition (2), with spans.
    reads: Vec<(PathId, Span)>,
    may_writes: BitSet,
    /// Local reads `(var, span, assigned-before-read)`.
    local_reads: Vec<(VarId, Span, bool)>,
    /// Locals assigned anywhere in the walked region.
    any_assigned: BitSet,
    /// Whether local reads should be tracked (event-loop mode).
    locals_tracked: bool,
}

impl<'p> BodyAnalyzer<'p> {
    fn new(program: &'p Program, env: TypeEnv<'p>, summaries: &'p Summaries) -> Self {
        BodyAnalyzer {
            program,
            env,
            summaries,
            paths: PathInterner::new(),
            vars: VarInterner::new(),
            reads: Vec::new(),
            may_writes: BitSet::new(),
            local_reads: Vec::new(),
            any_assigned: BitSet::new(),
            locals_tracked: false,
        }
    }

    fn is_local(&self, name: &str) -> bool {
        self.env.local(name).is_some()
    }

    fn is_field_of_class(&self, name: &str) -> bool {
        !self.is_local(name) && self.program.field(&self.env.class, name).is_some()
    }

    /// Possible heap paths of a reference-valued expression.
    fn paths_of(&mut self, e: &Expr, st: &FlowState) -> (BitSet, bool) {
        match e {
            Expr::This { .. } => {
                let id = self.paths.root("this");
                ([id as usize].into_iter().collect(), true)
            }
            Expr::Var { name, .. } => {
                if let Some((p, d)) = self.vars.get(name).and_then(|v| st.paths(v)) {
                    (p.clone(), *d)
                } else if self.is_field_of_class(name) {
                    let root = self.paths.root("this");
                    let id = self.paths.append(root, name);
                    ([id as usize].into_iter().collect(), true)
                } else {
                    (BitSet::new(), true)
                }
            }
            Expr::Field { base, field, .. } => {
                let (paths, d) = self.paths_of(base, st);
                (self.append_all(&paths, field), d)
            }
            Expr::StaticField { class, field, .. } => {
                let id = self.paths.intern_path(&HeapPath::static_root(class, field));
                ([id as usize].into_iter().collect(), true)
            }
            Expr::Index { base, .. } => {
                let (paths, d) = self.paths_of(base, st);
                (self.append_all(&paths, ELEMENT), d)
            }
            Expr::Cast { operand, .. } => self.paths_of(operand, st),
            // Fresh allocations and call results are untracked (owned).
            _ => (BitSet::new(), true),
        }
    }

    /// `{ p.field | p ∈ paths }` as a fresh path set.
    fn append_all(&mut self, paths: &BitSet, field: &str) -> BitSet {
        let mut out = BitSet::new();
        for p in paths.iter() {
            out.insert(self.paths.append(p as PathId, field) as usize);
        }
        out
    }

    fn record_read(&mut self, path: PathId, span: Span, st: &FlowState) {
        // Condition (2): covered if a prefix was definitely written.
        if self.paths.covered_by(&st.wt, path) {
            return;
        }
        self.reads.push((path, span));
    }

    fn record_write(&mut self, paths: &BitSet, definite: bool, st: &mut FlowState) {
        self.may_writes.union_with(paths);
        if definite && paths.count() == 1 {
            st.wt.insert(paths.iter().next().expect("count checked"));
        }
    }

    /// Collects heap reads of an expression (every field/array access).
    fn read_expr(&mut self, e: &Expr, st: &mut FlowState) {
        match e {
            Expr::Var { name, span } => {
                if self.is_local(name) {
                    if self.locals_tracked {
                        let var = self.vars.intern(name);
                        let before = st.assigned.contains(var as usize);
                        self.local_reads.push((var, *span, before));
                    }
                } else if self.is_field_of_class(name) {
                    let root = self.paths.root("this");
                    let p = self.paths.append(root, name);
                    self.record_read(p, *span, st);
                }
            }
            Expr::Field { base, field, span } => {
                self.read_expr(base, st);
                let (paths, _) = self.paths_of(base, st);
                let appended = self.append_all(&paths, field);
                for p in appended.iter() {
                    self.record_read(p as PathId, *span, st);
                }
            }
            Expr::StaticField { class, field, span } => {
                let p = self.paths.intern_path(&HeapPath::static_root(class, field));
                self.record_read(p, *span, st);
            }
            Expr::Index { base, index, span } => {
                self.read_expr(base, st);
                self.read_expr(index, st);
                let (paths, _) = self.paths_of(base, st);
                let appended = self.append_all(&paths, ELEMENT);
                for p in appended.iter() {
                    self.record_read(p as PathId, *span, st);
                }
            }
            Expr::Length { base, .. } => self.read_expr(base, st),
            Expr::Call { .. } => self.call_effects(e, st),
            Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => self.read_expr(operand, st),
            Expr::Binary { lhs, rhs, .. } => {
                self.read_expr(lhs, st);
                self.read_expr(rhs, st);
            }
            Expr::NewArray { len, .. } => self.read_expr(len, st),
            _ => {}
        }
    }

    /// Applies a call's effects: argument reads plus the callee's
    /// translated `R`/`OW`/`WT` (§4.2.1 call-site rule).
    fn call_effects(&mut self, e: &Expr, st: &mut FlowState) {
        let Expr::Call {
            recv,
            class_recv,
            name,
            args,
            span,
        } = e
        else {
            return;
        };
        for a in args {
            self.read_expr(a, st);
        }
        if let Some(r) = recv {
            self.read_expr(r, st);
        }
        // Intrinsic array library writes (§4.1.3).
        if class_recv.as_deref() == Some("SSJavaArray") && (name == "insert" || name == "clear") {
            if let Some(arr) = args.first() {
                let (paths, d) = self.paths_of(arr, st);
                let elem_paths = self.append_all(&paths, ELEMENT);
                self.record_write(&elem_paths, d, st);
            }
            return;
        }
        let Some(target_class) = self.env.call_target_class(e) else {
            return;
        };
        let Some((decl_class, callee)) = self.program.resolve_method(&target_class, name) else {
            return;
        };
        let key = (decl_class.name.clone(), callee.name.clone());
        // `summaries` outlives `self`'s other borrows, so no clone needed.
        let summaries = self.summaries;
        let Some(summary) = summaries.get(&key) else {
            return;
        };
        // Map callee roots to caller argument paths.
        let mut roots: FnvHashMap<&str, (BitSet, bool)> = FnvHashMap::default();
        if let Some(r) = recv {
            roots.insert("this", self.paths_of(r, st));
        } else if class_recv.is_none() {
            // Unqualified call on the current receiver.
            let id = self.paths.root("this");
            roots.insert("this", ([id as usize].into_iter().collect(), true));
        }
        for (p, a) in callee.params.iter().zip(args) {
            if p.ty.is_reference() {
                roots.insert(p.name.as_str(), self.paths_of(a, st));
            }
        }
        for r in &summary.reads {
            if let Some((paths, _)) = self.translate(&roots, r) {
                for p in paths.iter() {
                    self.record_read(p as PathId, *span, st);
                }
            }
        }
        for w in &summary.may_writes {
            if let Some((paths, _)) = self.translate(&roots, w) {
                self.may_writes.union_with(&paths);
            }
        }
        for w in &summary.must_writes {
            if let Some((paths, d)) = self.translate(&roots, w) {
                self.record_write(&paths, d, st);
            }
        }
    }

    /// Translates one callee summary path into caller path ids by mapping
    /// its root through `roots` and splicing the remaining components
    /// (the call-site `⊙` rule of §4.2.1).
    fn translate(
        &mut self,
        roots: &FnvHashMap<&str, (BitSet, bool)>,
        path: &HeapPath,
    ) -> Option<(BitSet, bool)> {
        let root = path.root_name();
        if root.contains('.') {
            // Static-rooted paths pass through unchanged.
            let id = self.paths.intern_path(path);
            return Some(([id as usize].into_iter().collect(), true));
        }
        let (paths, d) = roots.get(root)?;
        let mut out = BitSet::new();
        for base in paths.iter() {
            out.insert(self.paths.splice(base as PathId, path) as usize);
        }
        Some((out, *d))
    }

    fn walk_block(&mut self, block: &Block, st: &mut FlowState) {
        for s in &block.stmts {
            if st.returned {
                return;
            }
            self.walk_stmt(s, st);
        }
    }

    fn walk_stmt(&mut self, stmt: &Stmt, st: &mut FlowState) {
        match stmt {
            Stmt::VarDecl { name, init, ty, .. } => {
                if let Some(e) = init {
                    self.read_expr(e, st);
                    let var = self.vars.intern(name);
                    if ty.is_reference() {
                        let (paths, d) = self.paths_of(e, st);
                        st.hp.insert(var, (paths, d));
                    }
                    st.assigned.insert(var as usize);
                    self.any_assigned.insert(var as usize);
                }
            }
            Stmt::Assign { lhs, rhs, .. } => {
                self.read_expr(rhs, st);
                match lhs {
                    LValue::Var { name, .. } => {
                        if self.is_local(name) {
                            let var = self.vars.intern(name);
                            if self
                                .env
                                .local(name)
                                .map(|t| t.is_reference())
                                .unwrap_or(false)
                            {
                                let (paths, d) = self.paths_of(rhs, st);
                                st.hp.insert(var, (paths, d));
                            }
                            st.assigned.insert(var as usize);
                            self.any_assigned.insert(var as usize);
                        } else if self.is_field_of_class(name) {
                            let root = self.paths.root("this");
                            let id = self.paths.append(root, name);
                            let p = [id as usize].into_iter().collect();
                            self.record_write(&p, true, st);
                        }
                    }
                    LValue::Field { base, field, .. } => {
                        self.read_expr(base, st);
                        let (paths, d) = self.paths_of(base, st);
                        let fp = self.append_all(&paths, field);
                        self.record_write(&fp, d, st);
                    }
                    LValue::Index { base, index, .. } => {
                        self.read_expr(base, st);
                        self.read_expr(index, st);
                        let (paths, _) = self.paths_of(base, st);
                        let fp = self.append_all(&paths, ELEMENT);
                        // A single array-element store is a may-write only
                        // (other indices keep their values).
                        self.record_write(&fp, false, st);
                    }
                    LValue::StaticField { class, field, .. } => {
                        let id = self.paths.intern_path(&HeapPath::static_root(class, field));
                        let p = [id as usize].into_iter().collect();
                        self.record_write(&p, true, st);
                    }
                }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                self.read_expr(cond, st);
                let mut then_st = st.clone();
                self.walk_block(then_blk, &mut then_st);
                let mut else_st = st.clone();
                if let Some(e) = else_blk {
                    self.walk_block(e, &mut else_st);
                }
                *st = FlowState::merge(then_st, else_st);
            }
            Stmt::While { cond, body, .. } => {
                self.read_expr(cond, st);
                // Loop body may execute zero times: analyze once on a
                // clone, keep alias merge, drop its must-writes.
                let mut body_st = st.clone();
                self.walk_block(body, &mut body_st);
                *st = FlowState::merge(st.clone(), body_st);
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
                ..
            } => {
                if let Some(i) = init {
                    self.walk_stmt(i, st);
                }
                if let Some(c) = cond {
                    self.read_expr(c, st);
                }
                let mut body_st = st.clone();
                self.walk_block(body, &mut body_st);
                if let Some(u) = update {
                    self.walk_stmt(u, &mut body_st);
                }
                if for_loop_runs_at_least_once(init.as_deref(), cond.as_ref()) {
                    // The clearing-loop pattern (e.g. `for (i=0;i<N;i++)
                    // buf[i]=...`): the body definitely executes, so its
                    // must-writes hold. Whole-array clearing is recognized
                    // when the loop covers the array via SSJavaArray or
                    // full-range writes; we credit the body's WT.
                    let mut merged = body_st;
                    // Additionally, a full-range element write pattern
                    // counts as a definite write of ⟨...,element⟩.
                    if let Some(paths) =
                        full_array_clear(self, init.as_deref(), cond.as_ref(), body, st)
                    {
                        merged.wt.union_with(&paths);
                    }
                    *st = merged;
                } else {
                    *st = FlowState::merge(st.clone(), body_st);
                }
            }
            Stmt::Return { value, .. } => {
                if let Some(v) = value {
                    self.read_expr(v, st);
                }
                st.returned = true;
            }
            Stmt::ExprStmt { expr, .. } => self.read_expr(expr, st),
            Stmt::Block(b) => self.walk_block(b, st),
            Stmt::Break { .. } | Stmt::Continue { .. } => {}
        }
    }
}

/// Conservatively decides whether a `for` loop runs at least once:
/// `for (i = c1; i < c2; ...)` with integer literals `c1 < c2` (or `<=`).
pub fn for_loop_runs_at_least_once(init: Option<&Stmt>, cond: Option<&Expr>) -> bool {
    let start = match init {
        Some(Stmt::VarDecl {
            init: Some(Expr::IntLit { value, .. }),
            ..
        }) => *value,
        Some(Stmt::Assign {
            rhs: Expr::IntLit { value, .. },
            ..
        }) => *value,
        _ => return false,
    };
    match cond {
        Some(Expr::Binary {
            op: BinOp::Lt, rhs, ..
        }) => matches!(rhs.as_ref(), Expr::IntLit { value, .. } if start < *value),
        Some(Expr::Binary {
            op: BinOp::Le, rhs, ..
        }) => matches!(rhs.as_ref(), Expr::IntLit { value, .. } if start <= *value),
        Some(Expr::Binary {
            op: BinOp::Gt, rhs, ..
        }) => matches!(rhs.as_ref(), Expr::IntLit { value, .. } if start > *value),
        Some(Expr::Binary {
            op: BinOp::Ge, rhs, ..
        }) => matches!(rhs.as_ref(), Expr::IntLit { value, .. } if start >= *value),
        _ => false,
    }
}

/// Recognizes the canonical full-array clearing loop
/// `for (i = 0; i < K; i++) a[i] = ...;` and returns the element paths it
/// definitely overwrites.
fn full_array_clear(
    an: &mut BodyAnalyzer<'_>,
    init: Option<&Stmt>,
    cond: Option<&Expr>,
    body: &Block,
    st: &FlowState,
) -> Option<BitSet> {
    // Index must start at 0 and the guard be `i < K` or `i <= K`.
    let idx = match init {
        Some(Stmt::VarDecl {
            name,
            init: Some(Expr::IntLit { value: 0, .. }),
            ..
        }) => name.clone(),
        Some(Stmt::Assign {
            lhs: LValue::Var { name, .. },
            rhs: Expr::IntLit { value: 0, .. },
            ..
        }) => name.clone(),
        _ => return None,
    };
    match cond {
        Some(Expr::Binary {
            op: BinOp::Lt | BinOp::Le,
            lhs,
            ..
        }) => {
            if !matches!(lhs.as_ref(), Expr::Var { name, .. } if *name == idx) {
                return None;
            }
        }
        _ => return None,
    }
    // Body must assign a[idx] directly at the top level.
    let mut out = BitSet::new();
    for s in &body.stmts {
        if let Stmt::Assign {
            lhs: LValue::Index { base, index, .. },
            ..
        } = s
        {
            if matches!(index, Expr::Var { name, .. } if *name == idx) {
                let (paths, definite) = an.paths_of(base, st);
                if definite && paths.count() == 1 {
                    let base_id = paths.iter().next().expect("count checked") as PathId;
                    out.insert(an.paths.append(base_id, ELEMENT) as usize);
                }
            }
        }
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph;
    use sjava_syntax::parse;

    fn run(src: &str) -> (EvictionResult, Diagnostics) {
        let p = parse(src).expect("parses");
        let mut d = Diagnostics::new();
        let cg = callgraph::build(&p, &mut d).expect("call graph");
        let r = analyze(&p, &cg, &mut d);
        (r, d)
    }

    #[test]
    fn wind_sensor_pattern_passes() {
        // The Fig 2.1 shape: all of bin's fields overwritten each
        // iteration.
        let (r, d) = run("class W { R bin; int dir;
                void main() {
                    bin = new R();
                    SSJAVA: while (true) {
                        int inDir = Device.readSensor();
                        bin.dir2 = bin.dir1;
                        bin.dir1 = bin.dir0;
                        bin.dir0 = inDir;
                        dir = bin.dir0;
                        Out.emit(dir);
                    }
                }
             }
             class R { int dir0; int dir1; int dir2; }");
        assert!(r.is_ok(), "stale: {:?} {:?}", r.stale_paths, r.stale_locals);
        assert!(!d.has_errors());
    }

    #[test]
    fn stale_field_read_is_flagged() {
        // `acc` is read every iteration but only written conditionally.
        let (r, _d) = run("class W { int acc;
                void main() {
                    SSJAVA: while (true) {
                        int x = Device.read();
                        if (x > 0) { acc = x; }
                        Out.emit(acc);
                    }
                }
             }");
        assert!(!r.is_ok());
        assert!(r
            .stale_paths
            .iter()
            .any(|(p, _)| p.0 == vec!["this".to_string(), "acc".to_string()]));
    }

    #[test]
    fn read_before_unconditional_write_is_ok() {
        // Reading the previous iteration's value is fine when the location
        // is overwritten on every iteration (condition 3).
        let (r, _) = run("class W { int prev;
                void main() {
                    SSJAVA: while (true) {
                        int x = Device.read();
                        int old = prev;
                        prev = x;
                        Out.emit(old + x);
                    }
                }
             }");
        assert!(r.is_ok(), "stale: {:?}", r.stale_paths);
    }

    #[test]
    fn loop_invariant_reads_are_ok() {
        let (r, _) = run("class W { int k;
                void main() {
                    k = 7;
                    SSJAVA: while (true) {
                        int x = Device.read();
                        Out.emit(x * k);
                    }
                }
             }");
        assert!(r.is_ok(), "stale: {:?}", r.stale_paths);
    }

    #[test]
    fn callee_writes_count_for_eviction() {
        let (r, _) = run("class W { int v;
                void main() {
                    SSJAVA: while (true) { refresh(); Out.emit(v); }
                }
                void refresh() { v = Device.read(); }
             }");
        assert!(r.is_ok(), "stale: {:?}", r.stale_paths);
    }

    #[test]
    fn callee_reads_are_translated() {
        let (r, _) = run("class W { int v;
                void main() {
                    SSJAVA: while (true) {
                        int x = Device.read();
                        if (x > 0) { v = x; }
                        Out.emit(peek());
                    }
                }
                int peek() { return v; }
             }");
        assert!(
            !r.is_ok(),
            "callee read of conditionally-written v must be stale"
        );
    }

    #[test]
    fn clearing_for_loop_satisfies_eviction() {
        let (r, _) = run("class W { float[] buf;
                void main() {
                    buf = new float[8];
                    SSJAVA: while (true) {
                        for (int i = 0; i < 8; i++) { buf[i] = Device.read(); }
                        float s = 0.0;
                        for (int j = 0; j < 8; j++) { s = s + buf[j]; }
                        Out.emit(s);
                    }
                }
             }");
        assert!(r.is_ok(), "stale: {:?} {:?}", r.stale_paths, r.stale_locals);
    }

    #[test]
    fn partial_array_write_is_stale() {
        let (r, _) = run("class W { float[] buf;
                void main() {
                    buf = new float[8];
                    SSJAVA: while (true) {
                        int i = Device.read();
                        if (i >= 0) { buf[0] = 1.0; }
                        Out.emit(buf[3]);
                    }
                }
             }");
        assert!(!r.is_ok());
    }

    #[test]
    fn ssjava_array_insert_clears() {
        let (r, _) = run("class W { int[] hist;
                void main() {
                    hist = new int[3];
                    SSJAVA: while (true) {
                        int x = Device.read();
                        SSJavaArray.insert(hist, x);
                        Out.emit(hist[0] + hist[2]);
                    }
                }
             }");
        assert!(r.is_ok(), "stale: {:?}", r.stale_paths);
    }

    #[test]
    fn stale_local_across_iterations_is_flagged() {
        let (r, _) = run("class W {
                void main() {
                    int carry = 0;
                    SSJAVA: while (true) {
                        int x = Device.read();
                        Out.emit(carry);
                        if (x > 0) { carry = x; }
                    }
                }
             }");
        assert!(
            r.stale_locals.iter().any(|(n, _)| n == "carry"),
            "carry should be stale: {:?}",
            r.stale_locals
        );
    }

    #[test]
    fn local_always_overwritten_is_ok() {
        let (r, _) = run("class W {
                void main() {
                    int carry = 0;
                    SSJAVA: while (true) {
                        int x = Device.read();
                        Out.emit(carry);
                        carry = x;
                    }
                }
             }");
        assert!(r.is_ok(), "stale: {:?}", r.stale_locals);
    }

    #[test]
    fn aliased_write_through_local_reference() {
        let (r, _) = run("class W { R rec;
                void main() {
                    rec = new R();
                    SSJAVA: while (true) {
                        R t = rec;
                        t.v = Device.read();
                        Out.emit(rec.v);
                    }
                }
             }
             class R { int v; }");
        assert!(r.is_ok(), "stale: {:?}", r.stale_paths);
    }
}
