//! Dense interned inference engine: the parallel, `u32`-indexed
//! counterpart of [`crate::vfg`] and [`crate::decompose`].
//!
//! Value-flow-graph tuples are interned into a per-method [`TupleTable`]
//! (a path trie: each tuple is its parent tuple plus one atom), so flow
//! graphs store `u32` successor lists plus adjacency [`BitSet`]s instead
//! of `BTreeSet<(Tuple, Tuple)>` — and per-method construction fans out
//! across call-graph waves via `sjava_par::run_indexed`, with callee
//! summaries compiled into the caller's table once and reused across
//! call sites.
//!
//! Decomposition classifies edges densely and replaces the legacy
//! edge-by-edge `would_cycle`/`cycle_between` walks with a single Tarjan
//! SCC pass over the candidate hierarchy (`HierarchyGraph::find_cycle`):
//! when the full candidate edge set is acyclic — the common case — no
//! incremental insertion could ever have observed a cycle, so bulk
//! insertion is exactly the legacy result. Only genuinely cyclic
//! hierarchies fall back to the legacy incremental loop, byte-for-byte
//! reproducing its relocation choices, `SH_*` merge names, and alias
//! chains.
//!
//! Everything observable — the [`Decomposition`], and hence the emitted
//! annotations and diagnostics — is byte-identical to the legacy string
//! pipeline, which stays in place as the test oracle (see
//! `tests/props.rs` and `crates/bench/tests/infer_pin.rs`).

use crate::decompose::{cycle_between, resolve_alias, shared_name, Decomposition};
use crate::vfg::{FlowGraph, Tuple, PC, RET};
use sjava_analysis::callgraph::{CallGraph, MethodRef};
use sjava_analysis::dense::{BitSet, VarId, VarInterner};
use sjava_analysis::jtype::TypeEnv;
use sjava_lattice::{FnvHashMap, HierarchyGraph};
use sjava_syntax::ast::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Interned tuple id within a [`TupleTable`].
pub type TupleId = u32;

const NO_PARENT: u32 = u32::MAX;

/// A per-method tuple interner. Tuples form a trie: every id is either a
/// root atom or a `(parent, atom)` extension, so `append`/`rebase` are
/// hash-map lookups instead of `Vec<String>` clones.
#[derive(Debug, Clone, Default)]
pub struct TupleTable {
    atoms: VarInterner,
    parent: Vec<u32>,
    atom: Vec<VarId>,
    depth: Vec<u32>,
    root: Vec<VarId>,
    lookup: FnvHashMap<(u32, VarId), TupleId>,
}

impl TupleTable {
    /// An empty table.
    pub fn new() -> Self {
        TupleTable::default()
    }

    /// Number of interned tuples.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when no tuple has been interned.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Interns an atom (variable or field name).
    pub fn atom_id(&mut self, name: &str) -> VarId {
        self.atoms.intern(name)
    }

    fn node(&mut self, parent: u32, atom: VarId) -> TupleId {
        let key = (parent.wrapping_add(1), atom);
        if let Some(&id) = self.lookup.get(&key) {
            return id;
        }
        let id = self.parent.len() as TupleId;
        let (depth, root) = if parent == NO_PARENT {
            (1, atom)
        } else {
            (self.depth[parent as usize] + 1, self.root[parent as usize])
        };
        self.parent.push(parent);
        self.atom.push(atom);
        self.depth.push(depth);
        self.root.push(root);
        self.lookup.insert(key, id);
        id
    }

    /// Interns a root-only tuple `⟨name⟩`.
    pub fn root(&mut self, name: &str) -> TupleId {
        let a = self.atoms.intern(name);
        self.node(NO_PARENT, a)
    }

    /// Interns `base` extended by one field.
    pub fn append(&mut self, base: TupleId, field: &str) -> TupleId {
        let a = self.atoms.intern(field);
        self.node(base, a)
    }

    /// Interns `base` extended by an already-interned atom.
    pub fn append_atom(&mut self, base: TupleId, atom: VarId) -> TupleId {
        self.node(base, atom)
    }

    /// Interns an owned [`Tuple`].
    pub fn intern_tuple(&mut self, t: &Tuple) -> TupleId {
        let mut id = self.root(&t.0[0]);
        for field in &t.0[1..] {
            id = self.append(id, field);
        }
        id
    }

    /// Number of atoms in the tuple.
    pub fn depth_of(&self, t: TupleId) -> usize {
        self.depth[t as usize] as usize
    }

    /// The parent tuple (one atom shorter), if any.
    pub fn parent_of(&self, t: TupleId) -> Option<TupleId> {
        match self.parent[t as usize] {
            NO_PARENT => None,
            p => Some(p),
        }
    }

    /// The tuple's root atom.
    pub fn root_atom(&self, t: TupleId) -> VarId {
        self.root[t as usize]
    }

    /// The tuple's last atom.
    pub fn last_atom(&self, t: TupleId) -> VarId {
        self.atom[t as usize]
    }

    /// Resolves an atom id back to its string.
    pub fn resolve_atom(&self, a: VarId) -> &str {
        self.atoms.resolve(a)
    }

    /// The ancestor of `t` with the given depth (`1 ≤ depth ≤ depth_of`).
    pub fn ancestor(&self, t: TupleId, depth: usize) -> TupleId {
        let mut cur = t;
        while self.depth[cur as usize] as usize > depth {
            cur = self.parent[cur as usize];
        }
        cur
    }

    /// The tuple's atoms, root first.
    pub fn atoms_of(&self, t: TupleId) -> Vec<VarId> {
        let mut out = vec![0; self.depth_of(t)];
        let mut cur = t;
        for slot in out.iter_mut().rev() {
            *slot = self.atom[cur as usize];
            cur = self.parent[cur as usize];
        }
        out
    }

    /// Materializes the string [`Tuple`].
    pub fn to_tuple(&self, t: TupleId) -> Tuple {
        Tuple(
            self.atoms_of(t)
                .into_iter()
                .map(|a| self.atoms.resolve(a).to_string())
                .collect(),
        )
    }

    /// Rank of every atom under string ordering: `ranks[a] < ranks[b]`
    /// iff `resolve(a) < resolve(b)`. Rank-vector comparison of tuples
    /// therefore equals the legacy `Vec<String>` lexicographic order,
    /// which is how dense graphs reproduce `BTreeMap<Tuple>` iteration.
    pub fn atom_ranks(&self) -> Vec<u32> {
        let mut ids: Vec<VarId> = (0..self.atoms.len() as VarId).collect();
        ids.sort_by_key(|&a| self.atoms.resolve(a));
        let mut ranks = vec![0u32; self.atoms.len()];
        for (rank, a) in ids.into_iter().enumerate() {
            ranks[a as usize] = rank as u32;
        }
        ranks
    }

    /// The tuple's rank vector (see [`TupleTable::atom_ranks`]).
    pub fn sort_key(&self, t: TupleId, ranks: &[u32]) -> Vec<u32> {
        self.atoms_of(t)
            .into_iter()
            .map(|a| ranks[a as usize])
            .collect()
    }
}

/// A method's value flow graph over interned tuple ids: per-node `u32`
/// successor lists with a [`BitSet`] adjacency row for O(1) edge dedup.
#[derive(Debug, Clone, Default)]
pub struct DenseFlowGraph {
    succ: Vec<Vec<TupleId>>,
    adj: Vec<BitSet>,
    /// All nodes (including isolated ones).
    pub nodes: BitSet,
    /// Nodes involved in self-flows (must become shared locations).
    pub self_flows: BitSet,
    /// Count of generated intermediate (ILOC) nodes.
    pub iloc_counter: usize,
}

impl DenseFlowGraph {
    fn ensure_len(&mut self, t: TupleId) {
        let need = t as usize + 1;
        if self.succ.len() < need {
            self.succ.resize_with(need, Vec::new);
            self.adj.resize_with(need, BitSet::new);
        }
    }

    /// Adds a node.
    pub fn add_node(&mut self, t: TupleId) {
        self.nodes.insert(t as usize);
    }

    /// Adds a flow edge `from → to`; a self-edge marks the node shared.
    pub fn add_edge(&mut self, from: TupleId, to: TupleId) {
        if from == to {
            self.self_flows.insert(from as usize);
            self.nodes.insert(from as usize);
            return;
        }
        self.nodes.insert(from as usize);
        self.nodes.insert(to as usize);
        self.ensure_len(from);
        if self.adj[from as usize].insert(to as usize) {
            self.succ[from as usize].push(to);
        }
    }

    /// Fresh intermediate node (§5.2.1 ILOC).
    pub fn fresh_iloc(&mut self, table: &mut TupleTable) -> TupleId {
        let t = table.root(&format!("ILOC{}", self.iloc_counter));
        self.iloc_counter += 1;
        self.nodes.insert(t as usize);
        t
    }

    /// Successors of a node (unsorted).
    pub fn succ(&self, t: TupleId) -> &[TupleId] {
        self.succ.get(t as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates `(from, to)` edges in storage order.
    pub fn edge_pairs(&self) -> impl Iterator<Item = (TupleId, TupleId)> + '_ {
        self.succ
            .iter()
            .enumerate()
            .flat_map(|(f, ts)| ts.iter().map(move |&t| (f as TupleId, t)))
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Transitive reachability (reflexive, like the legacy walk).
    pub fn reaches(&self, from: TupleId, to: TupleId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = BitSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if !seen.insert(x as usize) {
                continue;
            }
            stack.extend_from_slice(self.succ(x));
        }
        false
    }

    /// All nodes reachable from `from` (including itself).
    fn reach_set(&self, from: TupleId) -> BitSet {
        let mut seen = BitSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if !seen.insert(x as usize) {
                continue;
            }
            stack.extend_from_slice(self.succ(x));
        }
        seen
    }

    /// The flows among *interface* tuples (rooted at parameters, `this`,
    /// `RET`): the method's summary used at call sites. Pairs come back
    /// in the legacy order (both sides sorted by tuple string order).
    pub fn interface_flows(
        &self,
        table: &TupleTable,
        params: &BTreeSet<String>,
    ) -> Vec<(TupleId, TupleId)> {
        let ranks = table.atom_ranks();
        let mut ifaces: Vec<TupleId> = self
            .nodes
            .iter()
            .map(|i| i as TupleId)
            .filter(|&t| {
                let r = table.resolve_atom(table.root_atom(t));
                r == "this" || r == RET || params.contains(r)
            })
            .collect();
        ifaces.sort_by_cached_key(|&t| table.sort_key(t, &ranks));
        let mut out = Vec::new();
        for &a in &ifaces {
            let reach = self.reach_set(a);
            for &b in &ifaces {
                if a != b && reach.contains(b as usize) {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// The method summary in string form, for cross-method translation.
    pub fn summary(&self, table: &TupleTable, params: &BTreeSet<String>) -> Vec<(Tuple, Tuple)> {
        self.interface_flows(table, params)
            .into_iter()
            .map(|(a, b)| (table.to_tuple(a), table.to_tuple(b)))
            .collect()
    }

    /// Converts back to the legacy set-based representation (test oracle
    /// comparisons and debugging).
    pub fn to_flow_graph(&self, table: &TupleTable) -> FlowGraph {
        let mut g = FlowGraph {
            iloc_counter: self.iloc_counter,
            ..Default::default()
        };
        for t in self.nodes.iter() {
            g.add_node(table.to_tuple(t as TupleId));
        }
        for (f, t) in self.edge_pairs() {
            g.add_edge(table.to_tuple(f), table.to_tuple(t));
        }
        for t in self.self_flows.iter() {
            let tt = table.to_tuple(t as TupleId);
            g.self_flows.insert(tt.clone());
            g.nodes.insert(tt);
        }
        g
    }
}

/// A method's interned flow graph plus its tuple table.
#[derive(Debug, Clone, Default)]
pub struct DenseMethodGraph {
    /// The per-method tuple interner.
    pub table: TupleTable,
    /// The interned flow graph.
    pub graph: DenseFlowGraph,
}

type Summaries = FnvHashMap<MethodRef, Arc<Vec<(Tuple, Tuple)>>>;

// ---------------------------------------------------------------------
// Sorted-id set helpers: tiny source/destination sets are kept as sorted
// unique Vec<TupleId>, the dense analogue of BTreeSet<Tuple> (only set
// identity is observable downstream, so element *order* within a set
// need not match the string order).

fn set_insert(set: &mut Vec<TupleId>, id: TupleId) {
    if let Err(pos) = set.binary_search(&id) {
        set.insert(pos, id);
    }
}

fn set_union(dst: &mut Vec<TupleId>, src: &[TupleId]) {
    for &id in src {
        set_insert(dst, id);
    }
}

fn set_contains(set: &[TupleId], id: TupleId) -> bool {
    set.binary_search(&id).is_ok()
}

/// Builds interned flow graphs for every reachable method, bottom-up over
/// call-graph waves: methods within a wave only call into earlier waves,
/// so each wave fans out across the worker pool with callee summaries
/// frozen, and results merge back in deterministic wave order.
pub fn build_dense_graphs(
    program: &Program,
    cg: &CallGraph,
) -> BTreeMap<MethodRef, DenseMethodGraph> {
    let mut graphs: BTreeMap<MethodRef, DenseMethodGraph> = BTreeMap::new();
    let mut summaries: Summaries = FnvHashMap::default();
    for wave in cg.levels() {
        let work: Vec<(&MethodRef, &ClassDecl, &MethodDecl)> = wave
            .iter()
            .filter_map(|mref| {
                program
                    .resolve_method(&mref.0, &mref.1)
                    .map(|(c, m)| (mref, c, m))
            })
            .collect();
        // Wave-internal cost skew (a decode loop vs a getter) is what
        // flattened scaling under contiguous chunking; method body size
        // is a faithful proxy for graph-build time and feeds the
        // work-stealing deal order.
        let cost: Vec<u64> = work
            .iter()
            .map(|(_, _, m)| m.body.stmts.len() as u64 + 1)
            .collect();
        let results: Vec<(DenseMethodGraph, Vec<(Tuple, Tuple)>)> =
            sjava_par::run_indexed_weighted(work.len(), &cost, |i| {
                let (_, decl_class, method) = work[i];
                if method.annots.trusted || decl_class.annots.trusted {
                    return (DenseMethodGraph::default(), Vec::new());
                }
                let mut b = DenseBuilder::new(program, &decl_class.name, method, &summaries);
                b.walk_block(&method.body);
                let dense = b.finish();
                let params: BTreeSet<String> =
                    method.params.iter().map(|p| p.name.clone()).collect();
                let summary = dense.graph.summary(&dense.table, &params);
                (dense, summary)
            });
        for ((mref, _, _), (dense, summary)) in work.into_iter().zip(results) {
            summaries.insert(mref.clone(), Arc::new(summary));
            graphs.insert(mref.clone(), dense);
        }
    }
    graphs
}

/// A callee summary compiled into the *caller's* tuple table: each side
/// is a root slot plus pre-interned suffix atoms, so translating it at a
/// call site is a trie walk with zero string traffic. Compiled once per
/// (caller, callee) pair and reused across call sites.
struct CompiledSide {
    root: usize,
    suffix: Vec<VarId>,
    is_ret: bool,
}

struct CompiledSummary {
    roots: Vec<String>,
    pairs: Vec<(CompiledSide, CompiledSide)>,
}

fn compile_side(table: &mut TupleTable, roots: &mut Vec<String>, t: &Tuple) -> CompiledSide {
    let root_name = t.root_name();
    let root = match roots.iter().position(|r| r == root_name) {
        Some(i) => i,
        None => {
            roots.push(root_name.to_string());
            roots.len() - 1
        }
    };
    CompiledSide {
        root,
        suffix: t.0[1..].iter().map(|a| table.atom_id(a)).collect(),
        is_ret: root_name == RET,
    }
}

fn compile_summary(table: &mut TupleTable, summary: &[(Tuple, Tuple)]) -> CompiledSummary {
    let mut roots = Vec::new();
    let pairs = summary
        .iter()
        .map(|(from, to)| {
            (
                compile_side(table, &mut roots, from),
                compile_side(table, &mut roots, to),
            )
        })
        .collect();
    CompiledSummary { roots, pairs }
}

/// The dense mirror of `vfg::Builder`: identical statement walk, identical
/// ILOC numbering, identical set semantics — only the representation
/// changes.
struct DenseBuilder<'p> {
    program: &'p Program,
    tenv: TypeEnv<'p>,
    table: TupleTable,
    graph: DenseFlowGraph,
    /// Implicit-flow stack: condition source sets (Fig 5.2's `S`).
    implicit: Vec<Vec<TupleId>>,
    summaries: &'p Summaries,
    compiled: FnvHashMap<MethodRef, Arc<CompiledSummary>>,
}

impl<'p> DenseBuilder<'p> {
    fn new(
        program: &'p Program,
        class: &str,
        method: &'p MethodDecl,
        summaries: &'p Summaries,
    ) -> Self {
        let mut tenv = TypeEnv::for_method(program, class, method);
        tenv.bind_block(&method.body);
        let mut table = TupleTable::new();
        let mut graph = DenseFlowGraph::default();
        for p in &method.params {
            let t = table.root(&p.name);
            graph.add_node(t);
        }
        if !method.is_static {
            let t = table.root("this");
            graph.add_node(t);
        }
        DenseBuilder {
            program,
            tenv,
            table,
            graph,
            implicit: Vec::new(),
            summaries,
            compiled: FnvHashMap::default(),
        }
    }

    fn finish(self) -> DenseMethodGraph {
        // See `vfg::Builder::finish` for the §5.2.3 note on PC nodes.
        DenseMethodGraph {
            table: self.table,
            graph: self.graph,
        }
    }

    fn implicit_sources(&self) -> Vec<TupleId> {
        let mut out = Vec::new();
        for frame in &self.implicit {
            set_union(&mut out, frame);
        }
        out
    }

    fn is_local(&self, name: &str) -> bool {
        self.tenv.local(name).is_some()
    }

    /// Source tuples of an expression (the `R` mapping of Fig 5.2).
    fn sources(&mut self, e: &Expr) -> Vec<TupleId> {
        match e {
            Expr::Var { name, .. } => {
                if self.is_local(name) {
                    vec![self.table.root(name)]
                } else if self.program.field(&self.tenv.class, name).is_some() {
                    let this = self.table.root("this");
                    vec![self.table.append(this, name)]
                } else {
                    Vec::new()
                }
            }
            Expr::This { .. } => vec![self.table.root("this")],
            Expr::Field { base, field, .. } => {
                let bases = self.sources(base);
                let mut out = Vec::new();
                for b in bases {
                    let id = self.table.append(b, field);
                    set_insert(&mut out, id);
                }
                out
            }
            // Array reads flow both the element container and the index.
            Expr::Index { base, index, .. } => {
                let mut s = self.sources(base);
                let i = self.sources(index);
                set_union(&mut s, &i);
                s
            }
            Expr::Length { .. } => Vec::new(),
            Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => self.sources(operand),
            Expr::Binary { lhs, rhs, .. } => {
                let mut s = self.sources(lhs);
                let r = self.sources(rhs);
                set_union(&mut s, &r);
                s
            }
            Expr::Call(_) => self.call_sources(e),
            // Literals, null, fresh allocations: top — no source node.
            _ => Vec::new(),
        }
    }

    /// Handles a call: translates callee interface flows into this graph
    /// and returns the caller-side sources of the return value.
    fn call_sources(&mut self, e: &Expr) -> Vec<TupleId> {
        let Expr::Call(call) = e else {
            return Vec::new();
        };
        let CallExpr {
            recv,
            class_recv,
            name,
            args,
            ..
        } = &**call;
        // Intrinsics: Device/new input = top; Math = args' sources.
        if let Some(c) = class_recv {
            match c.as_str() {
                "Device" => return Vec::new(),
                "Out" | "System" => {
                    for a in args {
                        let _ = self.sources(a);
                    }
                    return Vec::new();
                }
                "Math" => {
                    let mut s = Vec::new();
                    for a in args {
                        let asrc = self.sources(a);
                        set_union(&mut s, &asrc);
                    }
                    return s;
                }
                "SSJavaArray" => {
                    // insert(arr, v): v flows into arr's elements.
                    if name == "insert" && args.len() == 2 {
                        let dsts = self.sources(&args[0]);
                        let srcs = self.sources(&args[1]);
                        for &d in &dsts {
                            for &s in &srcs {
                                self.graph.add_edge(s, d);
                            }
                            for s in self.implicit_sources() {
                                self.graph.add_edge(s, d);
                            }
                        }
                    }
                    return Vec::new();
                }
                _ => {}
            }
        }
        let Some(target) = self.tenv.call_target_class(e) else {
            return Vec::new();
        };
        let Some((dc, callee)) = self.program.resolve_method(&target, name) else {
            return Vec::new();
        };
        let key = (dc.name.clone(), callee.name.clone());
        // Argument source sets, indexed by callee root name. Later
        // entries shadow earlier ones, like the legacy BTreeMap insert.
        let recv_sources = match recv {
            Some(r) => self.sources(r),
            None => {
                if class_recv.is_none() {
                    vec![self.table.root("this")]
                } else {
                    Vec::new()
                }
            }
        };
        let mut roots: Vec<(&str, Vec<TupleId>)> = vec![("this", recv_sources)];
        for (p, a) in callee.params.iter().zip(args) {
            let asrc = self.sources(a);
            roots.push((&p.name, asrc));
        }
        let compiled = match self.compiled.get(&key) {
            Some(c) => Arc::clone(c),
            None => {
                let summary = self
                    .summaries
                    .get(&key)
                    .map(|s| compile_summary(&mut self.table, s))
                    .unwrap_or(CompiledSummary {
                        roots: Vec::new(),
                        pairs: Vec::new(),
                    });
                let summary = Arc::new(summary);
                self.compiled.insert(key, Arc::clone(&summary));
                summary
            }
        };
        // Call-site bases for each compiled root slot.
        let bases: Vec<Vec<TupleId>> = compiled
            .roots
            .iter()
            .map(|rname| {
                roots
                    .iter()
                    .rev()
                    .find(|(n, _)| n == rname)
                    .map(|(_, v)| v.clone())
                    .unwrap_or_default()
            })
            .collect();
        let mut ret_sources = Vec::new();
        for (from, to) in &compiled.pairs {
            let from_caller = self.translate(from, &bases);
            if to.is_ret {
                set_union(&mut ret_sources, &from_caller);
                continue;
            }
            let to_caller = self.translate(to, &bases);
            for &f in &from_caller {
                for &t in &to_caller {
                    self.graph.add_edge(f, t);
                }
            }
            // Implicit context flows into whatever the callee writes.
            for s in self.implicit_sources() {
                for &t in &to_caller {
                    self.graph.add_edge(s, t);
                }
            }
        }
        ret_sources
    }

    fn translate(&mut self, side: &CompiledSide, bases: &[Vec<TupleId>]) -> Vec<TupleId> {
        let mut out = Vec::new();
        for &b in &bases[side.root] {
            let mut id = b;
            for &a in &side.suffix {
                id = self.table.append_atom(id, a);
            }
            set_insert(&mut out, id);
        }
        out
    }

    /// Destination tuples of an lvalue.
    fn destinations(&mut self, lv: &LValue) -> Vec<TupleId> {
        match lv {
            LValue::Var { name, .. } => {
                if self.is_local(name) {
                    vec![self.table.root(name)]
                } else if self.program.field(&self.tenv.class, name).is_some() {
                    let this = self.table.root("this");
                    vec![self.table.append(this, name)]
                } else {
                    Vec::new()
                }
            }
            LValue::Field { base, field, .. } => {
                let bases = self.sources(base);
                let mut out = Vec::new();
                for b in bases {
                    let id = self.table.append(b, field);
                    set_insert(&mut out, id);
                }
                out
            }
            LValue::Index { base, index, .. } => {
                // ARRAY_ASG: index flows into the array as well.
                let dsts = self.sources(base);
                let idx = self.sources(index);
                for &d in &dsts {
                    for &i in &idx {
                        self.graph.add_edge(i, d);
                    }
                }
                dsts
            }
            LValue::StaticField { .. } => Vec::new(),
        }
    }

    /// Records an assignment's flows, inserting an ILOC intermediate when
    /// the source set is compound (§5.2.1).
    fn flow(&mut self, sources: Vec<TupleId>, dsts: Vec<TupleId>) {
        let mut all = sources;
        let imp = self.implicit_sources();
        set_union(&mut all, &imp);
        if all.is_empty() {
            // Top-sourced write: still record the node so it appears in
            // the hierarchy.
            for d in dsts {
                self.graph.add_node(d);
            }
            return;
        }
        // Compound sources go through an intermediate ILOC node (§5.2.1)
        // unless the destination itself is among the sources (a shared
        // self-flow), which must stay direct.
        let self_flowing = dsts.iter().any(|d| set_contains(&all, *d));
        let effective: Vec<TupleId> = if all.len() > 1 && !self_flowing {
            let iloc = self.graph.fresh_iloc(&mut self.table);
            for &s in &all {
                self.graph.add_edge(s, iloc);
            }
            vec![iloc]
        } else {
            all
        };
        for &d in &dsts {
            for &s in &effective {
                self.graph.add_edge(s, d);
            }
        }
    }

    fn walk_block(&mut self, block: &Block) {
        for s in &block.stmts {
            self.walk_stmt(s);
        }
    }

    fn walk_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::VarDecl { name, init, .. } => {
                let t = self.table.root(name);
                self.graph.add_node(t);
                if let Some(e) = init {
                    let src = self.sources(e);
                    self.flow(src, vec![t]);
                }
            }
            Stmt::Assign { lhs, rhs, .. } => {
                let src = self.sources(rhs);
                let dst = self.destinations(lhs);
                self.flow(src, dst);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let c = self.sources(cond);
                self.implicit.push(c);
                self.walk_block(then_blk);
                if let Some(e) = else_blk {
                    self.walk_block(e);
                }
                self.implicit.pop();
            }
            Stmt::While { cond, body, .. } => {
                let c = self.sources(cond);
                self.implicit.push(c);
                self.walk_block(body);
                self.implicit.pop();
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
                let c = cond.as_ref().map(|c| self.sources(c)).unwrap_or_default();
                self.implicit.push(c);
                if let Some(u) = update {
                    self.walk_stmt(u);
                }
                self.walk_block(body);
                self.implicit.pop();
            }
            Stmt::Return { value, .. } => {
                if let Some(e) = value {
                    let src = self.sources(e);
                    let ret = self.table.root(RET);
                    self.flow(src, vec![ret]);
                }
            }
            Stmt::ExprStmt { expr, .. } => {
                let _ = self.sources(expr);
            }
            Stmt::Block(b) => self.walk_block(b),
            Stmt::Break { .. } | Stmt::Continue { .. } => {}
        }
    }
}

// ---------------------------------------------------------------------
// Dense decomposition

/// A field-hierarchy operation recorded by the per-method (parallel)
/// phase and replayed sequentially in topological order, preserving the
/// legacy per-method order: shared self-flow nodes, then isolated nodes,
/// then edges.
enum FieldOp {
    SharedNode(String, String),
    Node(String, String),
    Edge(String, String, String),
}

struct MethodOut {
    mh: HierarchyGraph,
    maliases: BTreeMap<String, String>,
    var_tuples: BTreeMap<String, Tuple>,
    field_ops: Vec<FieldOp>,
    done: bool,
}

/// Runs the decomposition over all reachable methods' dense flow graphs,
/// producing a [`Decomposition`] byte-identical to the legacy
/// `decompose::decompose`. Per-method work (relocation fixpoint, dense
/// edge classification, method-hierarchy construction) fans out across
/// the worker pool; the global field hierarchies are then assembled
/// sequentially in topological order from each method's recorded ops.
pub fn decompose_dense(
    program: &Program,
    cg: &CallGraph,
    graphs: &BTreeMap<MethodRef, DenseMethodGraph>,
) -> Decomposition {
    let work: Vec<(&MethodRef, &ClassDecl, &MethodDecl, &DenseMethodGraph)> = cg
        .topo
        .iter()
        .filter_map(|mref| {
            let (decl_class, method) = program.resolve_method(&mref.0, &mref.1)?;
            if method.annots.trusted || decl_class.annots.trusted {
                return None;
            }
            let dense = graphs.get(mref)?;
            Some((mref, decl_class, method, dense))
        })
        .collect();
    // Decomposition cost is dominated by the relocation fixpoint over
    // the method's tuple graph — node count is the honest proxy, and
    // dealing big graphs first keeps the pool busy end to end.
    let cost: Vec<u64> = work
        .iter()
        .map(|(_, _, _, dense)| dense.table.len() as u64 + 1)
        .collect();
    let outs: Vec<MethodOut> = sjava_par::run_indexed_weighted(work.len(), &cost, |i| {
        let (_, decl_class, method, dense) = work[i];
        decompose_method(program, decl_class, method, dense)
    });

    let mut d = Decomposition::default();
    // Field hierarchies are global across methods.
    for class in &program.classes {
        d.fields.insert(class.name.clone(), HierarchyGraph::new());
        d.field_alias.insert(class.name.clone(), BTreeMap::new());
    }
    for ((mref, _, _, _), out) in work.into_iter().zip(outs) {
        if out.done {
            d.methods.insert(mref.clone(), out.mh);
            d.method_alias.insert(mref.clone(), out.maliases);
        }
        replay_field_ops(&mut d, out.field_ops);
        d.var_tuples.insert(mref.clone(), out.var_tuples);
    }
    d
}

fn decompose_method(
    program: &Program,
    decl_class: &ClassDecl,
    method: &MethodDecl,
    dense: &DenseMethodGraph,
) -> MethodOut {
    let mut tenv = TypeEnv::for_method(program, &decl_class.name, method);
    tenv.bind_block(&method.body);
    let mut out = MethodOut {
        mh: HierarchyGraph::new(),
        maliases: BTreeMap::new(),
        var_tuples: BTreeMap::new(),
        field_ops: Vec::new(),
        done: false,
    };

    // Relocation fixpoint: try decomposing; on a superfluous cycle in the
    // method hierarchy through `this`, relocate the cycle's local
    // variables into the field space and retry.
    let mut relocated: BTreeSet<String> = BTreeSet::new();
    for attempt in 0..16 {
        let storage;
        let (table, graph) = if relocated.is_empty() {
            (&dense.table, &dense.graph)
        } else {
            storage = apply_relocation_dense(&dense.table, &dense.graph, &relocated);
            (&storage.0, &storage.1)
        };

        // Nodes and successor lists in legacy (tuple string) order.
        let ranks = table.atom_ranks();
        let mut node_ids: Vec<TupleId> = graph.nodes.iter().map(|i| i as TupleId).collect();
        node_ids.sort_by_cached_key(|&t| table.sort_key(t, &ranks));
        let mut class_memo: FnvHashMap<TupleId, Option<String>> = FnvHashMap::default();

        // Classify every edge, splitting method flows from field flows.
        let mut method_edges: Vec<(String, String)> = Vec::new();
        let mut field_edges: Vec<(String, String, String)> = Vec::new();
        for &from in &node_ids {
            let mut succ: Vec<TupleId> = graph.succ(from).to_vec();
            succ.sort_by_cached_key(|&t| table.sort_key(t, &ranks));
            for to in succ {
                match classify_dense(table, &tenv, &mut class_memo, from, to) {
                    DenseClassified::Method(a, b) => method_edges.push((a, b)),
                    DenseClassified::Field(class, a, b) => field_edges.push((class, a, b)),
                    DenseClassified::Skip => {}
                }
            }
        }

        // Fast path: one Tarjan pass over the full candidate hierarchy.
        // When it is acyclic, no incremental `would_cycle` probe could
        // ever have fired (the partial graph's edges are a subset of the
        // candidate's, so any incremental cycle is a candidate cycle),
        // and bulk insertion *is* the legacy result. Only cyclic
        // candidates replay the legacy incremental loop.
        let mut mh = HierarchyGraph::new();
        for (a, b) in &method_edges {
            mh.add_edge(a.clone(), b.clone());
        }
        let mut maliases: BTreeMap<String, String> = BTreeMap::new();
        if mh.find_cycle().is_some() {
            match incremental_method_hierarchy(
                &method_edges,
                &tenv,
                method,
                &mut relocated,
                attempt,
            ) {
                Some((m, al)) => {
                    mh = m;
                    maliases = al;
                }
                // A local was relocated: retry with the updated set.
                None => continue,
            }
        }

        // Self-flows become shared.
        for t in graph.self_flows.iter().map(|i| i as TupleId) {
            if table.depth_of(t) == 1 {
                let a = table.resolve_atom(table.root_atom(t)).to_string();
                mh.add_node(a.clone());
                mh.set_shared(&a);
            } else if let Some(class) = class_of_ancestor(
                table,
                &tenv,
                &mut class_memo,
                table.ancestor(t, table.depth_of(t) - 1),
            ) {
                out.field_ops.push(FieldOp::SharedNode(
                    class,
                    table.resolve_atom(table.last_atom(t)).to_string(),
                ));
            }
        }
        // Also register isolated nodes so every variable gets a location.
        for &t in &node_ids {
            if table.depth_of(t) == 1 {
                mh.add_node(table.resolve_atom(table.root_atom(t)).to_string());
            } else if let Some(class) = class_of_ancestor(
                table,
                &tenv,
                &mut class_memo,
                table.ancestor(t, table.depth_of(t) - 1),
            ) {
                out.field_ops.push(FieldOp::Node(
                    class,
                    table.resolve_atom(table.last_atom(t)).to_string(),
                ));
            }
        }
        // Field edges commit after the node passes, in classification
        // order (the legacy pending list).
        for (class, a, b) in field_edges {
            out.field_ops.push(FieldOp::Edge(class, a, b));
        }
        // Record variable tuples.
        for &t in &node_ids {
            if table.depth_of(t) == 1 {
                let root = table.resolve_atom(table.root_atom(t)).to_string();
                out.var_tuples.insert(root.clone(), Tuple(vec![root]));
            }
        }
        for v in &relocated {
            out.var_tuples
                .insert(v.clone(), Tuple(vec!["this".to_string(), v.clone()]));
        }
        out.mh = mh;
        out.maliases = maliases;
        out.done = true;
        break;
    }
    out
}

/// The self-flow ordering of `BitSet::iter` is ascending id, but legacy
/// iterates `BTreeSet<Tuple>` in string order — the two differ, so the
/// self-flow pass above must not depend on order. It doesn't: the ops it
/// produces are `add_node`/`set_shared` pairs on disjoint names, and the
/// field ops target per-class graphs where duplicate adds are idempotent.
/// The replay below nevertheless preserves the recorded order exactly.
fn replay_field_ops(d: &mut Decomposition, ops: Vec<FieldOp>) {
    // Edges always follow the node ops within one method (the legacy
    // pending list commits last), so batch them per class in first-seen
    // order and commit after the nodes.
    let mut edge_batches: Vec<(String, Vec<(String, String)>)> = Vec::new();
    for op in ops {
        match op {
            FieldOp::SharedNode(class, n) => {
                let fh = d.fields.entry(class).or_default();
                fh.add_node(n.clone());
                fh.set_shared(&n);
            }
            FieldOp::Node(class, n) => {
                d.fields.entry(class).or_default().add_node(n);
            }
            FieldOp::Edge(class, a, b) => {
                match edge_batches.iter_mut().find(|(c, _)| *c == class) {
                    Some((_, batch)) => batch.push((a, b)),
                    None => edge_batches.push((class, vec![(a, b)])),
                }
            }
        }
    }
    for (class, edges) in edge_batches {
        commit_field_edges(d, class, edges);
    }
}

/// Commits one method's field edges for one class. Fast path: resolve
/// all edges through the current aliases, bulk-add into a trial copy,
/// and run one Tarjan pass — acyclic means the legacy incremental loop
/// would never have merged, so the bulk result is identical. A cyclic
/// trial falls back to the legacy loop for exact `SH_*` naming.
fn commit_field_edges(d: &mut Decomposition, class: String, edges: Vec<(String, String)>) {
    let fh = d.fields.entry(class.clone()).or_default();
    let aliases = d.field_alias.entry(class).or_default();
    let resolved: Vec<(String, String)> = edges
        .iter()
        .map(|(a, b)| {
            (
                resolve_alias(Some(aliases), a),
                resolve_alias(Some(aliases), b),
            )
        })
        .collect();
    let mut trial = fh.clone();
    for (a, b) in &resolved {
        if a != b {
            trial.add_edge(a.clone(), b.clone());
        }
    }
    if trial.find_cycle().is_none() {
        for (a, b) in resolved {
            if a == b {
                fh.add_node(a.clone());
                fh.set_shared(&a);
            } else {
                fh.add_edge(a, b);
            }
        }
        return;
    }
    // Legacy incremental fallback (aliases can change mid-loop, so each
    // edge re-resolves).
    for (a, b) in edges {
        let a = resolve_alias(Some(aliases), &a);
        let b = resolve_alias(Some(aliases), &b);
        if a == b {
            fh.add_node(a.clone());
            fh.set_shared(&a);
            continue;
        }
        if fh.would_cycle(&a, &b) {
            let mut group = cycle_between(fh, &b, &a);
            group.push(a.clone());
            group.push(b.clone());
            group.sort();
            group.dedup();
            let merged = shared_name(&group);
            for gnode in &group {
                aliases.insert(gnode.clone(), merged.clone());
            }
            fh.merge_nodes(&group, &merged);
            fh.set_shared(&merged);
        } else {
            fh.add_edge(a, b);
        }
    }
}

/// The legacy incremental method-hierarchy loop, used only when the bulk
/// candidate is cyclic: replays `would_cycle`/`cycle_between` edge by
/// edge so relocation choices and `SH_*` merge names come out
/// byte-identical. Returns `None` after mutating `relocated` when a
/// superfluous cycle was relocated (caller retries).
fn incremental_method_hierarchy(
    edges: &[(String, String)],
    tenv: &TypeEnv<'_>,
    method: &MethodDecl,
    relocated: &mut BTreeSet<String>,
    attempt: usize,
) -> Option<(HierarchyGraph, BTreeMap<String, String>)> {
    let mut mh = HierarchyGraph::new();
    let mut maliases: BTreeMap<String, String> = BTreeMap::new();
    for (a, b) in edges {
        if mh.would_cycle(a, b) {
            // Superfluous cycle: relocate local variables on the cycle
            // (not `this`, params stay too).
            let cycle = cycle_between(&mh, b, a);
            let mut did = false;
            for n in cycle {
                let relocatable = tenv.local(&n).is_some() || n.starts_with("ILOC");
                if n != "this"
                    && n != PC
                    && n != RET
                    && !method.params.iter().any(|p| p.name == n)
                    && !relocated.contains(&n)
                    && relocatable
                {
                    relocated.insert(n);
                    did = true;
                }
            }
            if did && attempt < 15 {
                return None;
            }
            // Cannot relocate: merge into a shared location.
            let mut group = cycle_between(&mh, b, a);
            group.push(a.clone());
            group.push(b.clone());
            group.sort();
            group.dedup();
            let merged = shared_name(&group);
            for gnode in &group {
                maliases.insert(gnode.clone(), merged.clone());
            }
            mh.merge_nodes(&group, &merged);
            mh.set_shared(&merged);
        } else {
            mh.add_edge(a.clone(), b.clone());
        }
    }
    Some((mh, maliases))
}

/// Rewrites a graph with relocated locals moved into the field space
/// (`⟨v⟩ → ⟨this,v⟩`), interning the rewritten tuples into a copy of the
/// table.
fn apply_relocation_dense(
    table: &TupleTable,
    graph: &DenseFlowGraph,
    relocated: &BTreeSet<String>,
) -> (TupleTable, DenseFlowGraph) {
    let mut t2 = table.clone();
    let mut g2 = DenseFlowGraph {
        iloc_counter: graph.iloc_counter,
        ..Default::default()
    };
    let mut map: FnvHashMap<TupleId, TupleId> = FnvHashMap::default();
    let fix = |t2: &mut TupleTable, map: &mut FnvHashMap<TupleId, TupleId>, id: TupleId| {
        if let Some(&m) = map.get(&id) {
            return m;
        }
        let fixed = if relocated.contains(t2.resolve_atom(t2.root_atom(id))) {
            let mut nid = t2.root("this");
            for a in t2.atoms_of(id) {
                nid = t2.append_atom(nid, a);
            }
            nid
        } else {
            id
        };
        map.insert(id, fixed);
        fixed
    };
    for t in graph.nodes.iter().map(|i| i as TupleId) {
        let f = fix(&mut t2, &mut map, t);
        g2.add_node(f);
    }
    for (a, b) in graph.edge_pairs() {
        let fa = fix(&mut t2, &mut map, a);
        let fb = fix(&mut t2, &mut map, b);
        g2.add_edge(fa, fb);
    }
    for t in graph.self_flows.iter().map(|i| i as TupleId) {
        let f = fix(&mut t2, &mut map, t);
        g2.self_flows.insert(f as usize);
        g2.add_node(f);
    }
    (t2, g2)
}

enum DenseClassified {
    Method(String, String),
    Field(String, String, String),
    Skip,
}

/// Classifies a value-flow edge by the first position where the two
/// tuples differ (§5.2.5), entirely over interned atoms.
fn classify_dense(
    table: &TupleTable,
    tenv: &TypeEnv<'_>,
    memo: &mut FnvHashMap<TupleId, Option<String>>,
    from: TupleId,
    to: TupleId,
) -> DenseClassified {
    let pf = table.atoms_of(from);
    let pt = table.atoms_of(to);
    let n = pf.len().min(pt.len());
    for i in 0..n {
        if pf[i] != pt[i] {
            if i == 0 {
                return DenseClassified::Method(
                    table.resolve_atom(pf[0]).to_string(),
                    table.resolve_atom(pt[0]).to_string(),
                );
            }
            let Some(c) = class_of_ancestor(table, tenv, memo, table.ancestor(from, i)) else {
                return DenseClassified::Skip;
            };
            return DenseClassified::Field(
                c,
                table.resolve_atom(pf[i]).to_string(),
                table.resolve_atom(pt[i]).to_string(),
            );
        }
    }
    // One tuple is a prefix of the other: legal by lexicographic
    // ordering, no constraint needed.
    DenseClassified::Skip
}

/// The class owning the reference denoted by the (ancestor) tuple `anc`:
/// the dense, memoized mirror of `decompose::class_of_prefix` — memoized
/// per trie node, so shared prefixes are resolved once per method.
fn class_of_ancestor(
    table: &TupleTable,
    tenv: &TypeEnv<'_>,
    memo: &mut FnvHashMap<TupleId, Option<String>>,
    anc: TupleId,
) -> Option<String> {
    if let Some(c) = memo.get(&anc) {
        return c.clone();
    }
    let result = if table.depth_of(anc) == 1 {
        let root = table.resolve_atom(table.root_atom(anc));
        if root == "this" {
            Some(tenv.class.clone())
        } else {
            match tenv.local(root) {
                Some(Type::Class(c)) => Some(c.clone()),
                _ => None,
            }
        }
    } else {
        let parent = table.parent_of(anc).expect("depth > 1 has a parent");
        match class_of_ancestor(table, tenv, memo, parent) {
            Some(class) => {
                let field = table.resolve_atom(table.last_atom(anc));
                match tenv.program.field(&class, field) {
                    Some(fd) => match &fd.ty {
                        Type::Class(c) => Some(c.clone()),
                        _ => None,
                    },
                    None => None,
                }
            }
            None => None,
        }
    };
    memo.insert(anc, result.clone());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfg::build_flow_graphs;
    use sjava_analysis::callgraph;
    use sjava_syntax::diag::Diagnostics;
    use sjava_syntax::parse;

    fn both_pipelines(src: &str) -> (Decomposition, Decomposition, CallGraph) {
        let p = parse(src).expect("parses");
        let mut diags = Diagnostics::new();
        let cg = callgraph::build(&p, &mut diags).expect("cg");
        let legacy_graphs = build_flow_graphs(&p, &cg);
        let legacy = crate::decompose::decompose(&p, &cg, &legacy_graphs);
        let dense_graphs = build_dense_graphs(&p, &cg);
        // Graph-level pin: every dense graph converts back to the exact
        // legacy set representation.
        for (mref, dense) in &dense_graphs {
            let lg = &legacy_graphs[mref];
            let dg = dense.graph.to_flow_graph(&dense.table);
            assert_eq!(lg.nodes, dg.nodes, "nodes of {mref:?}");
            assert_eq!(lg.edges, dg.edges, "edges of {mref:?}");
            assert_eq!(lg.self_flows, dg.self_flows, "self-flows of {mref:?}");
            assert_eq!(lg.iloc_counter, dg.iloc_counter, "ilocs of {mref:?}");
        }
        let dense = decompose_dense(&p, &cg, &dense_graphs);
        (legacy, dense, cg)
    }

    fn assert_decompositions_equal(legacy: &Decomposition, dense: &Decomposition) {
        assert_eq!(legacy.methods, dense.methods, "method hierarchies");
        assert_eq!(legacy.fields, dense.fields, "field hierarchies");
        assert_eq!(legacy.var_tuples, dense.var_tuples, "var tuples");
        assert_eq!(legacy.method_alias, dense.method_alias, "method aliases");
        assert_eq!(legacy.field_alias, dense.field_alias, "field aliases");
    }

    #[test]
    fn tuple_table_interns_structurally() {
        let mut t = TupleTable::new();
        let a = t.root("x");
        let b = t.append(a, "f");
        let c = t.append(a, "f");
        assert_eq!(b, c);
        assert_eq!(t.to_tuple(b).0, vec!["x".to_string(), "f".to_string()]);
        assert_eq!(t.depth_of(b), 2);
        assert_eq!(t.ancestor(b, 1), a);
        let d = t.intern_tuple(&Tuple(vec!["x".into(), "f".into()]));
        assert_eq!(b, d);
    }

    #[test]
    fn dense_matches_legacy_on_simple_flows() {
        let (legacy, dense, _) = both_pipelines(
            "class A { int f; void main() { SSJAVA: while (true) {
                int x = Device.read();
                f = x;
                Out.emit(f);
            } } }",
        );
        assert_decompositions_equal(&legacy, &dense);
    }

    #[test]
    fn dense_matches_legacy_on_calls_and_ilocs() {
        let (legacy, dense, _) = both_pipelines(
            "class Foo { int f; int g;
                void main() { SSJAVA: while (true) { f = Device.read(); caller(); Out.emit(g); } }
                void caller() { int h = f + g; callee(h); }
                void callee(int i) { g = i; }
             }",
        );
        assert_decompositions_equal(&legacy, &dense);
    }

    #[test]
    fn dense_matches_legacy_on_relocation() {
        // §5.2.2: superfluous cycle through a local forces relocation.
        let (legacy, dense, cg) = both_pipelines(
            "class Weather { float curHum; float index;
               void main() { SSJAVA: while (true) {
                 curHum = Device.readHumidity();
                 float f3 = curHum * curHum;
                 index = f3;
                 Out.emit(index);
               } } }",
        );
        assert_decompositions_equal(&legacy, &dense);
        let vt = &dense.var_tuples[&cg.entry]["f3"];
        assert_eq!(vt.0, vec!["this".to_string(), "f3".to_string()]);
    }

    #[test]
    fn dense_matches_legacy_on_shared_merges() {
        // a→b and b→a across iterations: unavoidable cycle, SH_ merge.
        let (legacy, dense, _) = both_pipelines(
            "class W { int a; int b; void main() { SSJAVA: while (true) {
                int t = Device.read();
                a = b + t;
                b = a;
                Out.emit(b);
            } } }",
        );
        assert_decompositions_equal(&legacy, &dense);
        assert!(dense.fields["W"].shared_nodes().next().is_some());
    }

    #[test]
    fn dense_matches_legacy_on_self_flows_and_arrays() {
        let (legacy, dense, _) = both_pipelines(
            "class A { void main() { SSJAVA: while (true) {
                int n = Device.read();
                int s = 0;
                s = s + n;
                Out.emit(s);
            } } }",
        );
        assert_decompositions_equal(&legacy, &dense);
    }
}
