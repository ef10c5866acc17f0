//! The flow-down location type checker (§4.1, Fig 4.1).
//!
//! Walks every method reachable from the event loop and checks that every
//! explicit value flow (assignments, field/array stores, returns) and every
//! implicit flow (conditionals, via the program-counter location) moves
//! values strictly *down* the composite-location lattice — with the single
//! exception of shared locations, which admit same-location flows (§4.1.8).
//!
//! Internally the checker works on interned [`LocRef`] ids: every location
//! an expression can take is interned once (environment construction,
//! field extension, meets) and all subsequent ⊑/⊓ queries are id-keyed
//! cache probes — no composite-location hashing or cloning on the hot
//! path. Locations are resolved back to [`CompositeLoc`] values only when
//! a diagnostic needs to print them.

use crate::model::{resolve_annot_with, Lattices, MethodInfo, ModelCtx};
use sjava_analysis::callgraph::{CallGraph, MethodRef};
use sjava_analysis::jtype::TypeEnv;
use sjava_analysis::shard::ShardInput;
use sjava_analysis::written::{MethodSummary, Summaries};
use sjava_lattice::{compare, CompositeLoc, Elem, FnvHashMap, LocInterner, LocRef};
use sjava_syntax::ast::*;
use sjava_syntax::diag::{Diag, Diagnostics};
use sjava_syntax::span::Span;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;

/// Checks every reachable method; diagnostics go to `diags`. `summaries`
/// (from the eviction analysis) supply each callee's write effects for
/// the implicit-flow call rule.
///
/// Methods are independent of each other once the eviction summaries are
/// in hand, so they are fanned out across `sjava_par` workers. Each
/// worker checks into a private `Diagnostics` buffer; the buffers are
/// merged back in call-graph topological order, which makes the output
/// byte-for-byte identical at any thread count (`SJAVA_THREADS=1` vs N).
pub fn check_flows(
    shard: &ShardInput<'_>,
    lattices: &Lattices,
    cg: &CallGraph,
    summaries: &Summaries,
    diags: &mut Diagnostics,
) {
    // Per-method cost estimates feed the work-stealing scheduler: a
    // stress corpus mixes 3-statement setters with 500-statement decode
    // loops, and dealing the heavy methods out first (descending cost)
    // is what lets N workers finish in ~1/N the wall clock instead of
    // all waiting on whichever worker drew the decoder.
    let cost: Vec<u64> = cg
        .topo
        .iter()
        .map(|mref| method_cost(shard, lattices, mref))
        .collect();
    let per_method = sjava_par::run_indexed_weighted(cg.topo.len(), &cost, |i| {
        check_method_flows(shard, lattices, &cg.topo[i], summaries)
    });
    for d in per_method {
        diags.extend(d);
    }
}

/// Estimated checking cost of one method: statement count × lattice
/// height. Checking walks every statement and resolves flows against
/// the method lattice, whose comparison cost grows with its depth —
/// the product tracks measured per-method phase timings well enough to
/// order the work queue (only the ordering matters; see
/// `sjava_par::run_indexed_weighted`). Public so the incremental layer
/// can order its re-check fan-out with the same estimate when it has no
/// measured per-method time.
pub fn method_cost(shard: &ShardInput<'_>, lattices: &Lattices, mref: &MethodRef) -> u64 {
    let Some((decl_class, method)) = shard.program().resolve_method(&mref.0, &mref.1) else {
        return 1;
    };
    let stmts = block_weight(&method.body);
    let depth = lattices
        .method_info(&decl_class.name, &method.name)
        .map(|info| info.lattice.height() as u64)
        .unwrap_or(1);
    (stmts + 1) * (depth + 1)
}

/// Statement count of a block, including nested bodies — the size half
/// of the scheduler's cost model, also used by the incremental layer to
/// decide whether a program is big enough for on-disk persistence to
/// pay for itself.
pub fn block_weight(b: &Block) -> u64 {
    b.stmts.iter().map(stmt_weight).sum()
}

fn stmt_weight(s: &Stmt) -> u64 {
    match s {
        Stmt::If {
            then_blk, else_blk, ..
        } => 1 + block_weight(then_blk) + else_blk.as_ref().map_or(0, block_weight),
        Stmt::While { body, .. } => 1 + block_weight(body),
        Stmt::For {
            init, update, body, ..
        } => {
            1 + init.as_deref().map_or(0, stmt_weight)
                + update.as_deref().map_or(0, stmt_weight)
                + block_weight(body)
        }
        Stmt::Block(b) => 1 + block_weight(b),
        _ => 1,
    }
}

/// Flow-checks a single method into a private diagnostics buffer — the
/// per-method unit of [`check_flows`]'s fan-out, exposed so the
/// incremental layer can re-check only the dirtied call-graph cone and
/// replay cached buffers for the rest. Trusted or unresolvable methods
/// produce an empty buffer.
pub fn check_method_flows(
    shard: &ShardInput<'_>,
    lattices: &Lattices,
    mref: &MethodRef,
    summaries: &Summaries,
) -> Diagnostics {
    let mut local = Diagnostics::new();
    let Some((decl_class, method)) = shard.program().resolve_method(&mref.0, &mref.1) else {
        return local;
    };
    let Some(info) = lattices.method_info(&decl_class.name, &method.name) else {
        return local;
    };
    if info.trusted {
        return local;
    }
    let mut checker = MethodChecker::new(shard, lattices, &decl_class.name, method, info)
        .with_summaries(summaries);
    checker.run(&mut local);
    local
}

/// Collects the static variable→location environment of a method: the
/// parameters' `@LOC`s plus every local declaration's `@LOC` (annotations
/// are flow-insensitive, so the environment is fixed). Resolving an
/// annotation only reads class interfaces, never another method's body.
pub fn collect_var_locs(
    shard: &ShardInput<'_>,
    class: &str,
    method: &MethodDecl,
    info: &MethodInfo,
    diags: &mut Diagnostics,
) -> HashMap<String, CompositeLoc> {
    let program = shard.program();
    let mut env = HashMap::new();
    for p in &method.params {
        if let Some(annot) = &p.annots.loc {
            env.insert(
                p.name.clone(),
                resolve_annot_with(annot, &info.lattice, class, program),
            );
        } else {
            diags.push(Diag::missing_annot(
                format!("parameter `{}` is missing a @LOC annotation", p.name),
                p.span,
            ));
        }
    }
    collect_block(program, class, info, &method.body, &mut env, diags);
    env
}

fn collect_block(
    program: &Program,
    class: &str,
    info: &MethodInfo,
    block: &Block,
    env: &mut HashMap<String, CompositeLoc>,
    diags: &mut Diagnostics,
) {
    for s in &block.stmts {
        match s {
            Stmt::VarDecl {
                annots, name, span, ..
            } => {
                if let Some(annot) = &annots.loc {
                    let loc = resolve_annot_with(annot, &info.lattice, class, program);
                    if let Some(prev) = env.get(name) {
                        if *prev != loc {
                            diags.push(Diag::resolve(
                                format!("variable `{name}` redeclared with a different location"),
                                *span,
                            ));
                        }
                    }
                    env.insert(name.clone(), loc);
                } else {
                    diags.push(Diag::missing_annot(
                        format!("variable `{name}` is missing a @LOC annotation"),
                        *span,
                    ));
                }
            }
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                collect_block(program, class, info, then_blk, env, diags);
                if let Some(e) = else_blk {
                    collect_block(program, class, info, e, env, diags);
                }
            }
            Stmt::While { body, .. } => collect_block(program, class, info, body, env, diags),
            Stmt::For {
                init, update, body, ..
            } => {
                let tmp_block = |s: &Stmt| Block {
                    stmts: vec![s.clone()],
                    span: s.span(),
                };
                if let Some(i) = init {
                    collect_block(program, class, info, &tmp_block(i), env, diags);
                }
                if let Some(u) = update {
                    collect_block(program, class, info, &tmp_block(u), env, diags);
                }
                collect_block(program, class, info, body, env, diags);
            }
            Stmt::Block(b) => collect_block(program, class, info, b, env, diags),
            _ => {}
        }
    }
}

/// Per-checker memo of a field's declaring class and location name:
/// `None` for unknown fields, `Some((declaring class, None))` for fields
/// without a `@LOC`. Only the resolution outcome is cached — the
/// diagnostic for a failed resolution is re-emitted at every use site,
/// exactly as the uncached lookup did.
type FieldLocEntry = Option<(String, Option<String>)>;

/// A this-rooted annotation's field-extension chain: the `(declaring
/// class, field name)` hops below `@THISLOC` that re-root the location at
/// a caller-side receiver.
type FieldChain = Vec<(String, String)>;

/// Extracts the field-extension chain of a this-rooted callee location:
/// `Some` iff the method declares `@THISLOC` and `loc`'s first element is
/// it, with the chain holding the field-space hops below it.
fn this_chain(this_loc: Option<&String>, loc: &CompositeLoc) -> Option<FieldChain> {
    let t = this_loc?;
    let elems = loc.elems();
    if elems.len() > 1 && elems[0] == Elem::method(t.clone()) {
        Some(
            elems[1..]
                .iter()
                .filter_map(|f| match &f.space {
                    sjava_lattice::Space::Field(c) => Some((c.clone(), f.name.clone())),
                    _ => None,
                })
                .collect(),
        )
    } else {
        None
    }
}

/// Per-checker memo of everything about a callee that does not depend on
/// the call site: resolution, lattice info, per-parameter annotation
/// outcomes, the pairwise parameter ordering (compared once under the
/// *callee's* lattice context), return-location coverage, and the write
/// summary. Call sites replay diagnostics from the memo, so emitted output
/// is identical to the uncached path.
enum CalleeResolution<'p> {
    /// `resolve_method` failed — re-emit the unknown-method diagnostic at
    /// every call site.
    Unknown,
    /// No lattice info, or the callee is `@TRUSTED` — every call site
    /// silently evaluates to ⊤.
    Skip,
    /// A checkable callee.
    Checked(CalleeEntry<'p>),
}

struct CalleeEntry<'p> {
    decl_class: &'p ClassDecl,
    callee: &'p MethodDecl,
    info: &'p MethodInfo,
    /// One entry per callee parameter, in order: `None` re-emits the
    /// missing-`@LOC` diagnostic; `Some(chain)` carries the this-rooted
    /// extension chain (if any) for the receiver-hierarchy argument check.
    params: Vec<Option<Option<FieldChain>>>,
    /// `(i, j)` pairs over the callee-side location vector (receiver
    /// first, then annotated params) with `pi ⊏ pj` under the callee's
    /// lattice — the caller must satisfy `ai ⊑ aj` for each.
    less_pairs: Vec<(u32, u32)>,
    /// When `@RETURNLOC` is declared: per callee-side location, whether
    /// the return location sits at or below it, plus the this-rooted
    /// refinement chain (if any).
    ret: Option<(Vec<bool>, Option<FieldChain>)>,
    summary: Option<&'p MethodSummary>,
}

/// Flow-checks one method.
pub struct MethodChecker<'p> {
    program: &'p Program,
    lattices: &'p Lattices,
    class: String,
    method: &'p MethodDecl,
    info: &'p MethodInfo,
    tenv: TypeEnv<'p>,
    env: FnvHashMap<String, LocRef>,
    env_ready: bool,
    summaries: Option<&'p Summaries>,
    /// Per-method interner memoizing ⊑ and ⊓ queries against this
    /// method's lattice context (the same few locations are compared at
    /// every assignment, branch and call site).
    cache: LocInterner,
    /// Interned ⊤ (the single most common location).
    top: LocRef,
    /// Interned `@THISLOC`, when declared.
    this_id: Option<LocRef>,
    /// Interned `@RETURNLOC`, when declared.
    ret_id: Option<LocRef>,
    /// `class → field → (declaring class, @LOC name)` lookup memo.
    field_cache: RefCell<FnvHashMap<String, FnvHashMap<String, FieldLocEntry>>>,
    /// `name → is a field of the enclosing class` memo.
    own_field: RefCell<FnvHashMap<String, bool>>,
    /// `target class → method name → callee memo` for the CALL_SITE rule.
    callee_cache: RefCell<FnvHashMap<String, FnvHashMap<String, Rc<CalleeResolution<'p>>>>>,
}

impl<'p> MethodChecker<'p> {
    /// Creates a checker for `method` of `class`, resolving everything it
    /// references through the input's program view.
    pub fn new(
        shard: &ShardInput<'p>,
        lattices: &'p Lattices,
        class: &str,
        method: &'p MethodDecl,
        info: &'p MethodInfo,
    ) -> Self {
        let program = shard.program();
        let mut tenv = TypeEnv::for_method(program, class, method);
        tenv.bind_block(&method.body);
        let cache = LocInterner::new();
        let top = cache.intern(&CompositeLoc::Top);
        let this_id = info
            .this_loc
            .as_ref()
            .map(|t| cache.intern(&CompositeLoc::method(t)));
        let ret_id = info.return_loc.as_ref().map(|r| cache.intern(r));
        MethodChecker {
            program,
            lattices,
            class: class.to_string(),
            method,
            info,
            tenv,
            env: FnvHashMap::default(),
            env_ready: false,
            summaries: None,
            cache,
            top,
            this_id,
            ret_id,
            field_cache: RefCell::new(FnvHashMap::default()),
            own_field: RefCell::new(FnvHashMap::default()),
            callee_cache: RefCell::new(FnvHashMap::default()),
        }
    }

    /// Supplies callee write summaries for the implicit-flow call rule.
    pub fn with_summaries(mut self, summaries: &'p Summaries) -> Self {
        self.summaries = Some(summaries);
        self
    }

    fn ctx(&self) -> ModelCtx<'_> {
        ModelCtx {
            method: &self.info.lattice,
            fields: &self.lattices.fields,
        }
    }

    /// The lattice context of this method (method + field lattices).
    pub fn model_ctx(&self) -> ModelCtx<'_> {
        self.ctx()
    }

    /// `⊓` over ids with the ubiquitous-⊤ fast path: constants and fresh
    /// allocations sit at ⊤, and `x ⊓ ⊤ = x` needs no cache probe.
    fn meet(&self, a: LocRef, b: LocRef) -> LocRef {
        if a == self.top {
            return b;
        }
        if b == self.top {
            return a;
        }
        self.cache.glb_ids(&self.ctx(), a, b)
    }

    /// Public access to lvalue locations (used by the shared-location
    /// extension).
    pub fn loc_of_lvalue_public(&self, lv: &LValue, diags: &mut Diagnostics) -> CompositeLoc {
        let r = self.loc_of_lvalue_id(lv, diags);
        self.cache.resolve(r)
    }

    /// Runs all flow checks on the method body.
    pub fn run(&mut self, diags: &mut Diagnostics) {
        // The environment depends only on interfaces reachable from this
        // view, so re-wrapping the program gives the same input.
        let view = ShardInput::whole(self.program);
        let env = collect_var_locs(&view, &self.class, self.method, self.info, diags);
        self.env = env
            .into_iter()
            .map(|(name, loc)| {
                let id = self.cache.intern(&loc);
                (name, id)
            })
            .collect();
        self.env_ready = true;
        let pc = match &self.info.pc_loc {
            Some(p) => self.cache.intern(p),
            None => self.top,
        };
        self.check_block(&self.method.body, pc, diags);
    }

    /// The location of `this` in the current method.
    fn this_loc_id(&self, span: Span, diags: &mut Diagnostics) -> LocRef {
        match self.this_id {
            Some(t) => t,
            None => {
                diags.push(Diag::missing_annot(
                    format!(
                        "method `{}.{}` accesses `this` but has no @THISLOC",
                        self.class, self.method.name
                    ),
                    span,
                ));
                self.top
            }
        }
    }

    /// Whether `name` resolves to a field of the enclosing class
    /// (memoized — the raw lookup walks the inheritance chain).
    fn is_own_field(&self, name: &str) -> bool {
        if let Some(&hit) = self.own_field.borrow().get(name) {
            return hit;
        }
        let res = self.program.field(&self.class, name).is_some();
        self.own_field.borrow_mut().insert(name.to_string(), res);
        res
    }

    /// The composite location of an expression (the typing rules of
    /// Fig 4.1), resolved to a value — diagnostics and the shared-location
    /// extension consume this; the checker itself stays on ids.
    pub fn loc_of(&self, e: &Expr, diags: &mut Diagnostics) -> CompositeLoc {
        let r = self.loc_of_id(e, diags);
        self.cache.resolve(r)
    }

    fn loc_of_id(&self, e: &Expr, diags: &mut Diagnostics) -> LocRef {
        match e {
            // LITERAL: constants live at ⊤.
            Expr::IntLit { .. }
            | Expr::FloatLit { .. }
            | Expr::BoolLit { .. }
            | Expr::StrLit { .. }
            | Expr::Null { .. } => self.top,
            Expr::This { span } => self.this_loc_id(*span, diags),
            Expr::Var { name, span } => {
                if let Some(&loc) = self.env.get(name) {
                    loc
                } else if self.is_own_field(name) {
                    // Unqualified field access: ⟨thisloc, fieldloc⟩.
                    let base = self.this_loc_id(*span, diags);
                    self.field_loc_id(base, &self.class, name, *span, diags)
                } else {
                    if self.env_ready {
                        diags.push(Diag::resolve(
                            format!("variable `{name}` has no location"),
                            *span,
                        ));
                    }
                    self.top
                }
            }
            // FIELD_READ: L(e) ⊕ loc(f).
            Expr::Field { base, field, span } => {
                let base_loc = self.loc_of_id(base, diags);
                let Some(Type::Class(c)) = self.tenv.ty(base) else {
                    diags.push(Diag::resolve(
                        format!("cannot resolve receiver type for field `{field}`"),
                        *span,
                    ));
                    return self.top;
                };
                self.field_loc_id(base_loc, &c, field, *span, diags)
            }
            Expr::StaticField { class, field, span } => {
                let Some(fd) = self.program.field(class, field) else {
                    diags.push(Diag::resolve(
                        format!("unknown static field `{class}.{field}`"),
                        *span,
                    ));
                    return self.top;
                };
                if fd.is_final {
                    // Constants live at ⊤ (§3.6).
                    self.top
                } else if let Some(g) = &self.info.global_loc {
                    let base = self.cache.intern(&CompositeLoc::method(g));
                    self.field_loc_id(base, class, field, *span, diags)
                } else {
                    diags.push(Diag::missing_annot(
                        format!("access to non-final static `{class}.{field}` requires @GLOBALLOC"),
                        *span,
                    ));
                    self.top
                }
            }
            // ARRAY_VAR: glb of the array's and the index's locations.
            Expr::Index { base, index, .. } => {
                let a = self.loc_of_id(base, diags);
                let i = self.loc_of_id(index, diags);
                self.meet(a, i)
            }
            // Array lengths are fixed at allocation time: constants.
            Expr::Length { .. } => self.top,
            Expr::Call(_) => self.check_call(e, self.top, true, diags),
            // Fresh allocations are owned and may be placed anywhere.
            Expr::New { .. } | Expr::NewArray { .. } => self.top,
            Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => {
                self.loc_of_id(operand, diags)
            }
            // OPERATION: glb of the operand locations.
            Expr::Binary { lhs, rhs, .. } => {
                let a = self.loc_of_id(lhs, diags);
                let b = self.loc_of_id(rhs, diags);
                self.meet(a, b)
            }
        }
    }

    fn field_loc_id(
        &self,
        base: LocRef,
        class: &str,
        field: &str,
        span: Span,
        diags: &mut Diagnostics,
    ) -> LocRef {
        {
            let cache = self.field_cache.borrow();
            if let Some(hit) = cache.get(class).and_then(|per| per.get(field)) {
                return match hit {
                    None => {
                        diags.push(Diag::resolve(
                            format!("unknown field `{class}.{field}`"),
                            span,
                        ));
                        self.top
                    }
                    Some((_, None)) => {
                        diags.push(Diag::missing_annot(
                            format!("field `{class}.{field}` is missing a @LOC annotation"),
                            span,
                        ));
                        self.top
                    }
                    Some((decl, Some(loc_name))) => {
                        self.cache.extend_field_id(base, decl, loc_name)
                    }
                };
            }
        }
        let entry: FieldLocEntry = self
            .lattices
            .field_info(self.program, class, field)
            .map(|fi| (fi.declaring_class, fi.loc_name));
        self.field_cache
            .borrow_mut()
            .entry(class.to_string())
            .or_default()
            .insert(field.to_string(), entry);
        self.field_loc_id(base, class, field, span, diags)
    }

    fn loc_of_lvalue_id(&self, lv: &LValue, diags: &mut Diagnostics) -> LocRef {
        match lv {
            LValue::Var { name, span } => {
                if let Some(&l) = self.env.get(name) {
                    l
                } else if self.is_own_field(name) {
                    let base = self.this_loc_id(*span, diags);
                    self.field_loc_id(base, &self.class, name, *span, diags)
                } else {
                    diags.push(Diag::resolve(
                        format!("variable `{name}` has no location"),
                        *span,
                    ));
                    self.top
                }
            }
            LValue::Field { base, field, span } => {
                let base_loc = self.loc_of_id(base, diags);
                let Some(Type::Class(c)) = self.tenv.ty(base) else {
                    diags.push(Diag::resolve(
                        format!("cannot resolve receiver type for field `{field}`"),
                        *span,
                    ));
                    return self.top;
                };
                self.field_loc_id(base_loc, &c, field, *span, diags)
            }
            LValue::Index { base, .. } => self.loc_of_id(base, diags),
            LValue::StaticField { class, field, span } => {
                if let Some(g) = &self.info.global_loc {
                    let base = self.cache.intern(&CompositeLoc::method(g));
                    self.field_loc_id(base, class, field, *span, diags)
                } else {
                    diags.push(Diag::missing_annot(
                        format!("write to static `{class}.{field}` requires @GLOBALLOC"),
                        *span,
                    ));
                    self.top
                }
            }
        }
    }

    /// The flow-down rule: `dst ⊏ src`, or same shared location.
    fn check_flow(
        &self,
        src: LocRef,
        dst: LocRef,
        span: Span,
        what: &str,
        diags: &mut Diagnostics,
    ) {
        match self.cache.compare_ids(&self.ctx(), dst, src) {
            Some(Ordering::Less) => {}
            Some(Ordering::Equal) if self.cache.is_shared_id(&self.ctx(), dst) => {}
            _ => {
                let (src, dst) = (self.cache.resolve(src), self.cache.resolve(dst));
                let mut d = Diag::flow_up(
                    format!(
                        "{what} violates the flow-down rule: {src} does not flow down to {dst}"
                    ),
                    span,
                );
                if let Some(ls) = self.info.lattice_span {
                    d = d.with_label(ls, "method lattice declared here");
                }
                diags.push(d);
            }
        }
    }

    /// Implicit-flow constraint: the destination must sit strictly below
    /// the program-counter location (or be the same shared location).
    fn check_pc(&self, dst: LocRef, pc: LocRef, span: Span, diags: &mut Diagnostics) {
        if pc == self.top {
            return;
        }
        match self.cache.compare_ids(&self.ctx(), dst, pc) {
            Some(Ordering::Less) => {}
            Some(Ordering::Equal) if self.cache.is_shared_id(&self.ctx(), dst) => {}
            _ => {
                let (dst, pc) = (self.cache.resolve(dst), self.cache.resolve(pc));
                diags.push(Diag::implicit_flow(
                    format!(
                        "implicit flow: assignment to {dst} under program counter {pc} is not allowed"
                    ),
                    span,
                ));
            }
        }
    }

    fn check_block(&self, block: &Block, pc: LocRef, diags: &mut Diagnostics) {
        for s in &block.stmts {
            self.check_stmt(s, pc, diags);
        }
    }

    fn check_stmt(&self, stmt: &Stmt, pc: LocRef, diags: &mut Diagnostics) {
        match stmt {
            Stmt::VarDecl {
                name, init, span, ..
            } => {
                if let Some(e) = init {
                    let src = self.loc_of_id(e, diags);
                    if let Some(&dst) = self.env.get(name) {
                        self.check_flow(src, dst, *span, "initialization", diags);
                        self.check_pc(dst, pc, *span, diags);
                    }
                    self.check_subexprs(e, pc, diags);
                }
            }
            Stmt::Assign { lhs, rhs, span } => {
                let src = self.loc_of_id(rhs, diags);
                let dst = self.loc_of_lvalue_id(lhs, diags);
                self.check_flow(src, dst, *span, "assignment", diags);
                self.check_pc(dst, pc, *span, diags);
                // ARRAY_ASG: the array must sit below the index (§4.1.3).
                if let LValue::Index { base, index, .. } = lhs {
                    let arr = self.loc_of_id(base, diags);
                    let idx = self.loc_of_id(index, diags);
                    match self.cache.compare_ids(&self.ctx(), arr, idx) {
                        Some(Ordering::Less) => {}
                        _ => {
                            let (arr, idx) = (self.cache.resolve(arr), self.cache.resolve(idx));
                            diags.push(Diag::flow_up(
                                format!(
                                    "array store: array location {arr} must be lower than index location {idx}"
                                ),
                                *span,
                            ))
                        }
                    }
                }
                self.check_subexprs(rhs, pc, diags);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                self.check_subexprs(cond, pc, diags);
                let c = self.loc_of_id(cond, diags);
                let pc2 = self.meet(pc, c);
                self.check_block(then_blk, pc2, diags);
                if let Some(e) = else_blk {
                    self.check_block(e, pc2, diags);
                }
            }
            Stmt::While { cond, body, .. } => {
                self.check_subexprs(cond, pc, diags);
                let c = self.loc_of_id(cond, diags);
                let pc2 = self.meet(pc, c);
                self.check_block(body, pc2, diags);
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
                ..
            } => {
                if let Some(i) = init {
                    self.check_stmt(i, pc, diags);
                }
                let pc2 = if let Some(c) = cond {
                    self.check_subexprs(c, pc, diags);
                    let cl = self.loc_of_id(c, diags);
                    self.meet(pc, cl)
                } else {
                    pc
                };
                if let Some(u) = update {
                    self.check_stmt(u, pc2, diags);
                }
                self.check_block(body, pc2, diags);
            }
            Stmt::Return { value, span } => {
                if let Some(e) = value {
                    self.check_subexprs(e, pc, diags);
                    let src = self.loc_of_id(e, diags);
                    match (&self.info.return_loc, self.ret_id) {
                        (Some(rl), Some(rl_id)) => {
                            // RETURN: the declared return location must be
                            // at or below the returned value.
                            match self.cache.compare_ids(&self.ctx(), rl_id, src) {
                                Some(Ordering::Less) | Some(Ordering::Equal) => {}
                                _ => {
                                    let src = self.cache.resolve(src);
                                    diags.push(Diag::flow_up(
                                        format!(
                                            "return value at {src} is below the declared @RETURNLOC {rl}"
                                        ),
                                        *span,
                                    ))
                                }
                            }
                        }
                        _ => diags.push(Diag::missing_annot(
                            format!(
                                "method `{}.{}` returns a value but has no @RETURNLOC",
                                self.class, self.method.name
                            ),
                            *span,
                        )),
                    }
                }
            }
            Stmt::ExprStmt { expr, .. } => {
                if matches!(expr, Expr::Call(_)) {
                    self.check_call(expr, pc, false, diags);
                    // Argument sub-expressions still need checking.
                    if let Expr::Call(call) = expr {
                        let CallExpr { args, recv, .. } = &**call;
                        for a in args {
                            self.check_subexprs(a, pc, diags);
                        }
                        if let Some(r) = recv {
                            self.check_subexprs(r, pc, diags);
                        }
                    }
                } else {
                    self.check_subexprs(expr, pc, diags);
                }
            }
            Stmt::Block(b) => self.check_block(b, pc, diags),
            Stmt::Break { .. } | Stmt::Continue { .. } => {}
        }
    }

    /// Checks calls nested inside an expression tree.
    fn check_subexprs(&self, e: &Expr, pc: LocRef, diags: &mut Diagnostics) {
        match e {
            Expr::Call(call) => {
                let CallExpr { args, recv, .. } = &**call;
                self.check_call(e, pc, false, diags);
                for a in args {
                    self.check_subexprs(a, pc, diags);
                }
                if let Some(r) = recv {
                    self.check_subexprs(r, pc, diags);
                }
            }
            Expr::Field { base, .. } | Expr::Length { base, .. } => {
                self.check_subexprs(base, pc, diags)
            }
            Expr::Index { base, index, .. } => {
                self.check_subexprs(base, pc, diags);
                self.check_subexprs(index, pc, diags);
            }
            Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => {
                self.check_subexprs(operand, pc, diags)
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.check_subexprs(lhs, pc, diags);
                self.check_subexprs(rhs, pc, diags);
            }
            Expr::NewArray { len, .. } => self.check_subexprs(len, pc, diags),
            _ => {}
        }
    }

    /// The CALL_SITE rule (§4.1.5): checks argument ordering constraints,
    /// the program-counter constraint, and computes the caller-side
    /// return-value location.
    fn check_call(&self, e: &Expr, pc: LocRef, _as_value: bool, diags: &mut Diagnostics) -> LocRef {
        let Expr::Call(call) = e else {
            return self.top;
        };
        let CallExpr {
            recv,
            class_recv,
            name,
            args,
            span,
        } = &**call;
        // Intrinsics.
        if let Some(c) = class_recv {
            match c.as_str() {
                "Device" => return self.top,
                "Out" | "System" => return self.top,
                "Math" => {
                    let mut loc = self.top;
                    for a in args {
                        let al = self.loc_of_id(a, diags);
                        loc = self.meet(loc, al);
                    }
                    return loc;
                }
                "SSJavaArray" => {
                    // insert(arr, v): the new value enters the array's
                    // highest position, so it must come from strictly
                    // higher (§4.1.3).
                    if name == "insert" && args.len() == 2 {
                        let arr = self.loc_of_id(&args[0], diags);
                        let v = self.loc_of_id(&args[1], diags);
                        self.check_flow(v, arr, *span, "array insert", diags);
                        self.check_pc(arr, pc, *span, diags);
                    }
                    if name == "clear" {
                        if let Some(a0) = args.first() {
                            let arr = self.loc_of_id(a0, diags);
                            self.check_pc(arr, pc, *span, diags);
                        }
                    }
                    return self.top;
                }
                _ => {}
            }
        }
        let Some(target_class) = self.tenv.call_target_class(e) else {
            diags.push(Diag::resolve(
                format!("cannot resolve call target `{name}`"),
                *span,
            ));
            return self.top;
        };
        let entry_rc = self.callee_entry(&target_class, name);
        let entry = match &*entry_rc {
            CalleeResolution::Unknown => {
                diags.push(Diag::resolve(
                    format!("unknown method `{target_class}.{name}`"),
                    *span,
                ));
                return self.top;
            }
            CalleeResolution::Skip => return self.top,
            CalleeResolution::Checked(entry) => entry,
        };
        let (decl_class, callee, callee_info) = (entry.decl_class, entry.callee, entry.info);

        // Caller-side receiver location.
        let recv_loc = match recv {
            Some(r) => self.loc_of_id(r, diags),
            None => {
                if class_recv.is_none() {
                    self.this_loc_id(*span, diags)
                } else {
                    self.top // static call on a class
                }
            }
        };

        // Caller argument locations, in lockstep with the callee memo's
        // location vector: index 0 is the receiver, then one entry per
        // annotated parameter. Callee-side ordering was compared once in
        // the memo under the *callee's* lattice context.
        let mut caller_locs: Vec<LocRef> = Vec::new();
        if callee_info.this_loc.is_some() {
            caller_locs.push(recv_loc);
        }
        for ((p, memo), a) in callee.params.iter().zip(&entry.params).zip(args) {
            let Some(chain) = memo else {
                diags.push(Diag::missing_annot(
                    format!(
                        "callee `{}.{}` parameter `{}` is missing @LOC",
                        decl_class.name, callee.name, p.name
                    ),
                    *span,
                ));
                continue;
            };
            // This-rooted parameter locations constrain the argument
            // against the receiver's field hierarchy (§4.1.5).
            if let Some(chain) = chain {
                let mut expected = recv_loc;
                for (c, f) in chain {
                    expected = self.cache.extend_field_id(expected, c, f);
                }
                let arg_loc = self.loc_of_id(a, diags);
                match self.cache.compare_ids(&self.ctx(), expected, arg_loc) {
                    Some(Ordering::Less) | Some(Ordering::Equal) => {}
                    _ => {
                        let (arg_loc, expected) =
                            (self.cache.resolve(arg_loc), self.cache.resolve(expected));
                        diags.push(Diag::call_site(
                            format!(
                                "argument at {arg_loc} must be at or above {expected} required by callee parameter `{}`",
                                p.name
                            ),
                            *span,
                        ))
                    }
                }
            }
            caller_locs.push(self.loc_of_id(a, diags));
        }

        // Pairwise ordering constraints: callee pi ⊑ pj ⟹ caller ai ⊑ aj.
        // A call with fewer arguments than parameters truncates the caller
        // vector; pairs beyond it are exactly those the per-site pairing
        // never formed.
        for &(i, j) in &entry.less_pairs {
            let (i, j) = (i as usize, j as usize);
            if i >= caller_locs.len() || j >= caller_locs.len() {
                continue;
            }
            let caller_rel = self
                .cache
                .compare_ids(&self.ctx(), caller_locs[i], caller_locs[j]);
            if !matches!(caller_rel, Some(Ordering::Less) | Some(Ordering::Equal)) {
                let (ci, cj) = (
                    self.cache.resolve(caller_locs[i]),
                    self.cache.resolve(caller_locs[j]),
                );
                diags.push(Diag::call_site(
                    format!(
                        "call to `{}.{}` violates the callee's parameter ordering: {} must be at or below {}",
                        decl_class.name, callee.name, ci, cj
                    ),
                    *span,
                ));
            }
        }

        // Program-counter constraint (§4.1.4): under a non-⊤ caller pc,
        // every location the callee may write — taken from the eviction
        // analysis's write summaries — must sit strictly below the pc
        // (same shared location allowed). This realizes "the callee's
        // program counter location reflects the call site's context
        // constraint" without demanding translatable @PCLOC annotations.
        if pc != self.top {
            if let Some(summary) = entry.summary {
                let mut scratch = Diagnostics::new();
                for w in summary.may_writes.iter().chain(&summary.must_writes) {
                    let root = w.root_name();
                    // Map the written path's root into the caller.
                    let base = if root == "this" {
                        Some(recv_loc)
                    } else if let Some(i) = callee.params.iter().position(|p| p.name == root) {
                        let idx = if callee_info.this_loc.is_some() {
                            i + 1
                        } else {
                            i
                        };
                        caller_locs.get(idx).copied()
                    } else {
                        None // static roots handled via @GLOBALLOC checks
                    };
                    let Some(base) = base else { continue };
                    let base_class =
                        if root == "this" {
                            Some(target_class.clone())
                        } else {
                            callee.params.iter().find(|p| p.name == root).and_then(|p| {
                                match &p.ty {
                                    Type::Class(c) => Some(c.clone()),
                                    _ => None,
                                }
                            })
                        };
                    let dst = self.extend_along_path(base, base_class, &w.0[1..], &mut scratch);
                    match self.cache.compare_ids(&self.ctx(), dst, pc) {
                        Some(Ordering::Less) => {}
                        Some(Ordering::Equal) if self.cache.is_shared_id(&self.ctx(), dst) => {}
                        _ => {
                            let (dst, pc) = (self.cache.resolve(dst), self.cache.resolve(pc));
                            diags.push(Diag::implicit_flow(
                                    format!(
                                        "implicit flow: call to `{}.{}` under program counter {pc} may write {dst}",
                                        decl_class.name, callee.name
                                    ),
                                    *span,
                                ))
                        }
                    }
                }
            }
        }

        // Return-value location (CALL_SITE): GLB of caller locations of
        // parameters at or above the declared return location.
        let Some((covers, ret_chain)) = &entry.ret else {
            if callee.ret != Type::Void {
                diags.push(Diag::missing_annot(
                    format!(
                        "method `{}.{}` returns a value but has no @RETURNLOC",
                        decl_class.name, callee.name
                    ),
                    *span,
                ));
            }
            return self.top;
        };
        let mut result = self.top;
        for (covered, al) in covers.iter().zip(&caller_locs) {
            if *covered {
                result = self.meet(result, *al);
            }
        }
        // A this-rooted return location refines through the receiver's
        // fields.
        if let Some(chain) = ret_chain {
            let mut refined = recv_loc;
            for (c, f) in chain {
                refined = self.cache.extend_field_id(refined, c, f);
            }
            result = self.meet(result, refined);
        }
        result
    }

    /// The memoized call-site-independent view of `target_class.name`
    /// (see [`CalleeResolution`]).
    fn callee_entry(&self, target_class: &str, name: &str) -> Rc<CalleeResolution<'p>> {
        if let Some(hit) = self
            .callee_cache
            .borrow()
            .get(target_class)
            .and_then(|m| m.get(name))
        {
            return Rc::clone(hit);
        }
        let entry = Rc::new(self.build_callee_entry(target_class, name));
        self.callee_cache
            .borrow_mut()
            .entry(target_class.to_string())
            .or_default()
            .insert(name.to_string(), Rc::clone(&entry));
        entry
    }

    fn build_callee_entry(&self, target_class: &str, name: &str) -> CalleeResolution<'p> {
        let Some((decl_class, callee)) = self.program.resolve_method(target_class, name) else {
            return CalleeResolution::Unknown;
        };
        let Some(info) = self.lattices.method_info(&decl_class.name, &callee.name) else {
            return CalleeResolution::Skip;
        };
        if info.trusted {
            return CalleeResolution::Skip;
        }
        let callee_ctx = ModelCtx {
            method: &info.lattice,
            fields: &self.lattices.fields,
        };
        // Callee-side location vector: receiver first, then each
        // annotated parameter, in declaration order.
        let mut params = Vec::with_capacity(callee.params.len());
        let mut callee_locs: Vec<CompositeLoc> = Vec::new();
        if let Some(t) = &info.this_loc {
            callee_locs.push(CompositeLoc::method(t));
        }
        for p in &callee.params {
            let Some(annot) = &p.annots.loc else {
                params.push(None);
                continue;
            };
            let ploc = resolve_annot_with(annot, &info.lattice, &decl_class.name, self.program);
            params.push(Some(this_chain(info.this_loc.as_ref(), &ploc)));
            callee_locs.push(ploc);
        }
        let mut less_pairs = Vec::new();
        for i in 0..callee_locs.len() {
            for j in 0..callee_locs.len() {
                if i != j
                    && matches!(
                        compare(&callee_ctx, &callee_locs[i], &callee_locs[j]),
                        Some(Ordering::Less)
                    )
                {
                    less_pairs.push((i as u32, j as u32));
                }
            }
        }
        let ret = info.return_loc.as_ref().map(|ret_loc| {
            let covers = callee_locs
                .iter()
                .map(|cl| {
                    matches!(
                        compare(&callee_ctx, ret_loc, cl),
                        Some(Ordering::Less) | Some(Ordering::Equal)
                    )
                })
                .collect();
            (covers, this_chain(info.this_loc.as_ref(), ret_loc))
        });
        let summary = self
            .summaries
            .and_then(|s| s.get(&(decl_class.name.clone(), callee.name.clone())))
            .map(|s| &**s);
        CalleeResolution::Checked(CalleeEntry {
            decl_class,
            callee,
            info,
            params,
            less_pairs,
            ret,
            summary,
        })
    }

    /// Extends a caller-side location along a heap path of field names
    /// (array `element` hops keep the array's own location).
    fn extend_along_path(
        &self,
        base: LocRef,
        base_class: Option<String>,
        path: &[String],
        diags: &mut Diagnostics,
    ) -> LocRef {
        let mut loc = base;
        let mut class = base_class;
        for f in path {
            if f == "element" {
                continue;
            }
            let Some(c) = class.clone() else {
                return loc;
            };
            loc = self.field_loc_id(loc, &c, f, Span::dummy(), diags);
            class = self.program.field(&c, f).and_then(|fd| match &fd.ty {
                Type::Class(nc) => Some(nc.clone()),
                _ => None,
            });
        }
        loc
    }
}
