//! The inference engine's value flow graphs and their decomposition,
//! over interned `u32` ids: the stages [`crate::infer`] runs.
//!
//! Value-flow-graph tuples are interned into a per-method [`TupleTable`]
//! (a path trie: each tuple is its parent tuple plus one atom), so flow
//! graphs store `u32` successor lists instead of
//! `BTreeSet<(Tuple, Tuple)>` — and per-method construction fans out
//! across call-graph waves via `sjava_par::run_indexed_weighted`, with
//! callee summaries kept as tuple ids over the callee's table and
//! compiled into the caller's table once per callee.
//!
//! Decomposition classifies edges over atoms and, instead of an
//! edge-by-edge `would_cycle`/`cycle_between` walk, checks the candidate
//! method hierarchy for a cycle once: when the full candidate edge set
//! is acyclic — the common case — no incremental insertion could ever
//! have observed a cycle, so bulk insertion gives exactly the
//! edge-by-edge result. Each method's field edges likewise commit in
//! bulk unless they close a cycle with the class hierarchy. Only
//! genuinely cyclic hierarchies take the incremental loop, which
//! reproduces its relocation choices, `SH_*` merge names, and alias
//! chains. Names stay atoms until a [`HierarchyGraph`] needs them.
//!
//! Everything observable — the [`Decomposition`], and hence the emitted
//! annotations and diagnostics — is byte-identical to the string
//! pipeline in [`crate::oracle`], which the tests compare it with (see
//! `tests/props.rs` and `crates/bench/tests/infer_pin.rs`). `sjava vfg`
//! prints these graphs through [`DenseFlowGraph::to_flow_graph`].

use crate::graph::{FlowGraph, Tuple, PC, RET};
use crate::hierarchy::{
    cycle_between, resolve_alias, resolve_alias_str, shared_name, Decomposition,
};
use sjava_analysis::callgraph::{CallGraph, MethodRef};
use sjava_analysis::dense::{BitSet, VarId, VarInterner};
use sjava_analysis::jtype::TypeEnv;
use sjava_lattice::{FnvHashMap, HierarchyGraph};
use sjava_syntax::ast::*;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
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
    /// iff `resolve(a) < resolve(b)`.
    fn atom_ranks(&self) -> Vec<u32> {
        let mut ids: Vec<VarId> = (0..self.atoms.len() as VarId).collect();
        ids.sort_by_key(|&a| self.atoms.resolve(a));
        let mut ranks = vec![0u32; self.atoms.len()];
        for (rank, a) in ids.into_iter().enumerate() {
            ranks[a as usize] = rank as u32;
        }
        ranks
    }

    /// Every tuple's position in tuple string order: `order[a] <
    /// order[b]` iff tuple `a`'s atoms sort before `b`'s as a
    /// `Vec<String>`, which is how dense graphs reproduce `BTreeMap<Tuple>`
    /// iteration. That order is the trie's preorder with each node's
    /// children taken in atom string order, since a tuple sorts right
    /// before its extensions.
    pub fn string_order(&self) -> Vec<u32> {
        let ranks = self.atom_ranks();
        let n = self.len();
        // Group `g` holds the children of tuple `g - 1`; group 0 the roots.
        let group = |t: TupleId| self.parent[t as usize].wrapping_add(1) as usize;
        let mut kids: Vec<TupleId> = (0..n as TupleId).collect();
        kids.sort_unstable_by_key(|&t| (group(t), ranks[self.atom[t as usize] as usize]));
        let mut start = vec![0usize; n + 2];
        for &t in &kids {
            start[group(t) + 1] += 1;
        }
        for g in 1..start.len() {
            start[g] += start[g - 1];
        }
        let mut order = vec![0u32; n];
        let mut next = 0u32;
        let mut stack: Vec<TupleId> = kids[start[0]..start[1]].iter().rev().copied().collect();
        while let Some(t) = stack.pop() {
            order[t as usize] = next;
            next += 1;
            let g = t as usize + 1;
            stack.extend(kids[start[g]..start[g + 1]].iter().rev());
        }
        order
    }

    /// Number of interned atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }
}

/// A method's value flow graph over interned tuple ids: per-node `u32`
/// successor lists, deduplicated on insert.
#[derive(Debug, Clone, Default)]
pub struct DenseFlowGraph {
    succ: Vec<Vec<TupleId>>,
    /// All nodes (including isolated ones).
    pub nodes: BitSet,
    /// Nodes involved in self-flows (must become shared locations).
    pub self_flows: BitSet,
    /// Count of generated intermediate (ILOC) nodes.
    pub iloc_counter: usize,
}

impl DenseFlowGraph {
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
        if self.succ.len() <= from as usize {
            self.succ.resize_with(from as usize + 1, Vec::new);
        }
        // A node flows into a handful of others, so a scan of its row
        // dedups as fast as a bit row would, without one per node.
        let row = &mut self.succ[from as usize];
        if !row.contains(&to) {
            row.push(to);
        }
    }

    /// Fresh intermediate node (§5.2.1 ILOC).
    pub fn fresh_iloc(&mut self, table: &mut TupleTable) -> TupleId {
        // `ILOC` and a decimal `usize` fit the buffer, so naming the node
        // allocates nothing beyond the interned atom.
        let mut buf = [0u8; 32];
        let mut name = std::io::Cursor::new(&mut buf[..]);
        write!(name, "ILOC{}", self.iloc_counter).expect("fits the buffer");
        let len = name.position() as usize;
        let t = table.root(std::str::from_utf8(&buf[..len]).expect("ascii"));
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

    /// The flows among *interface* tuples (rooted at parameters, `this`,
    /// `RET`): the method's summary used at call sites. Pairs come back
    /// in the legacy order (both sides sorted by tuple string order).
    pub fn interface_flows(&self, table: &TupleTable, params: &[Param]) -> Vec<(TupleId, TupleId)> {
        let order = table.string_order();
        let mut ifaces: Vec<TupleId> = self
            .nodes
            .iter()
            .map(|i| i as TupleId)
            .filter(|&t| {
                let r = table.resolve_atom(table.root_atom(t));
                r == "this" || r == RET || params.iter().any(|p| p.name == r)
            })
            .collect();
        ifaces.sort_unstable_by_key(|&t| order[t as usize]);
        let mut out = Vec::new();
        let mut reach = BitSet::new();
        let mut stack = Vec::new();
        for &a in &ifaces {
            // Everything `a` reaches, itself included.
            reach.clear();
            stack.push(a);
            while let Some(x) = stack.pop() {
                if reach.insert(x as usize) {
                    stack.extend_from_slice(self.succ(x));
                }
            }
            out.extend(
                ifaces
                    .iter()
                    .filter(|&&b| a != b && reach.contains(b as usize))
                    .map(|&b| (a, b)),
            );
        }
        out
    }

    /// Converts to the string form: what `sjava vfg` prints as DOT, and
    /// what the tests compare with the oracle's graphs.
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

/// A built method: its graph and its summary, the interface flows over
/// the graph's own table.
struct Built {
    dense: DenseMethodGraph,
    summary: Vec<(TupleId, TupleId)>,
}

/// The methods of earlier waves, which the current wave's call sites
/// read: each built method by class and method name, as an index into
/// the built list.
type Summaries<'c> = FnvHashMap<(&'c str, &'c str), usize>;

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
    let levels = cg.levels();
    let mut built: Vec<(&MethodRef, Built)> = Vec::new();
    let mut summaries: Summaries<'_> = FnvHashMap::default();
    for wave in &levels {
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
        let results: Vec<Built> = sjava_par::run_indexed_weighted(work.len(), &cost, |i| {
            let (_, decl_class, method) = work[i];
            if method.annots.trusted || decl_class.annots.trusted {
                return Built {
                    dense: DenseMethodGraph::default(),
                    summary: Vec::new(),
                };
            }
            let mut b = DenseBuilder::new(program, &decl_class.name, method, &built, &summaries);
            b.walk_block(&method.body);
            let dense = b.finish();
            let summary = dense.graph.interface_flows(&dense.table, &method.params);
            Built { dense, summary }
        });
        for ((mref, _, _), result) in work.into_iter().zip(results) {
            summaries.insert((&mref.0, &mref.1), built.len());
            built.push((mref, result));
        }
    }
    built
        .into_iter()
        .map(|(mref, b)| (mref.clone(), b.dense))
        .collect()
}

/// A callee summary compiled into the *caller's* tuple table: each side
/// is a root slot plus pre-interned suffix atoms (a range of `atoms`),
/// so translating it at a call site is a trie walk with zero string
/// traffic. Compiled once per (caller, callee) pair and reused across
/// call sites.
struct CompiledSide {
    root: usize,
    suffix: std::ops::Range<usize>,
    is_ret: bool,
}

struct CompiledSummary<'p> {
    /// Root names, borrowed from the callee's table.
    roots: Vec<&'p str>,
    pairs: Vec<(CompiledSide, CompiledSide)>,
    /// Every side's suffix atoms, in the caller's table.
    atoms: Vec<VarId>,
}

impl<'p> CompiledSummary<'p> {
    fn compile(table: &mut TupleTable, callee: &'p Built) -> Self {
        let mut out = CompiledSummary {
            roots: Vec::new(),
            pairs: Vec::with_capacity(callee.summary.len()),
            atoms: Vec::new(),
        };
        for &(from, to) in &callee.summary {
            let from = out.side(table, &callee.dense.table, from);
            let to = out.side(table, &callee.dense.table, to);
            out.pairs.push((from, to));
        }
        out
    }

    /// Compiles the callee tuple `t`, interning its suffix atoms into the
    /// caller's `table`.
    fn side(&mut self, table: &mut TupleTable, callee: &'p TupleTable, t: TupleId) -> CompiledSide {
        let root_name = callee.resolve_atom(callee.root_atom(t));
        let root = match self.roots.iter().position(|&r| r == root_name) {
            Some(i) => i,
            None => {
                self.roots.push(root_name);
                self.roots.len() - 1
            }
        };
        // The suffix, read leaf to root, put root first, and interned in
        // that order.
        let start = self.atoms.len();
        let mut cur = t;
        while let Some(parent) = callee.parent_of(cur) {
            self.atoms.push(callee.last_atom(cur));
            cur = parent;
        }
        self.atoms[start..].reverse();
        for atom in &mut self.atoms[start..] {
            *atom = table.atom_id(callee.resolve_atom(*atom));
        }
        CompiledSide {
            root,
            suffix: start..self.atoms.len(),
            is_ret: root_name == RET,
        }
    }
}

/// The value-flow-graph builder: the same statement walk, ILOC numbering
/// and set semantics as the oracle's string builder
/// ([`crate::oracle::build_flow_graphs`]) over interned tuples.
///
/// Source and destination sets are written into buffers from `spare`,
/// which are handed back once read, so an expression allocates no set of
/// its own.
struct DenseBuilder<'p> {
    program: &'p Program,
    tenv: TypeEnv<'p>,
    table: TupleTable,
    graph: DenseFlowGraph,
    /// Implicit-flow stack: each entry is the union of every enclosing
    /// condition's source set (Fig 5.2's `S`), innermost last.
    implicit: Vec<Vec<TupleId>>,
    built: &'p [(&'p MethodRef, Built)],
    summaries: &'p Summaries<'p>,
    compiled: FnvHashMap<(&'p str, &'p str), Arc<CompiledSummary<'p>>>,
    spare: Vec<Vec<TupleId>>,
}

impl<'p> DenseBuilder<'p> {
    fn new(
        program: &'p Program,
        class: &str,
        method: &'p MethodDecl,
        built: &'p [(&'p MethodRef, Built)],
        summaries: &'p Summaries<'p>,
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
            built,
            summaries,
            compiled: FnvHashMap::default(),
            spare: Vec::new(),
        }
    }

    fn finish(self) -> DenseMethodGraph {
        // Note on §5.2.3 (program-counter locations): the paper infers a
        // PC node above every written parameter so that conditional call
        // sites type-check against a declared @PCLOC. Our checker instead
        // verifies conditional calls directly against the callee's write
        // summaries from the eviction analysis, so an inferred @PCLOC is
        // unnecessary (and the paper itself elides it whenever all
        // parameters have incoming flows). We therefore emit no PC node.
        DenseMethodGraph {
            table: self.table,
            graph: self.graph,
        }
    }

    /// An empty set buffer.
    fn buffer(&mut self) -> Vec<TupleId> {
        self.spare.pop().unwrap_or_default()
    }

    /// Hands a buffer back for reuse.
    fn recycle(&mut self, mut buf: Vec<TupleId>) {
        buf.clear();
        self.spare.push(buf);
    }

    /// Adds an edge from every implicit source to every tuple in `dsts`.
    fn implicit_into(&mut self, dsts: &[TupleId]) {
        if let Some(implicit) = self.implicit.last() {
            for &s in implicit {
                for &d in dsts {
                    self.graph.add_edge(s, d);
                }
            }
        }
    }

    fn is_local(&self, name: &str) -> bool {
        self.tenv.local(name).is_some()
    }

    /// The tuple a bare name denotes: a local, or a field of `this`.
    fn var(&mut self, name: &str, out: &mut Vec<TupleId>) {
        if self.is_local(name) {
            set_insert(out, self.table.root(name));
        } else if self.program.field(&self.tenv.class, name).is_some() {
            let this = self.table.root("this");
            set_insert(out, self.table.append(this, name));
        }
    }

    /// Adds `base`'s tuples, each extended by `field`, to `out`.
    fn field(&mut self, base: &Expr, field: &str, out: &mut Vec<TupleId>) {
        let mut bases = self.buffer();
        self.sources(base, &mut bases);
        for &b in &bases {
            let id = self.table.append(b, field);
            set_insert(out, id);
        }
        self.recycle(bases);
    }

    /// Adds the source tuples of an expression (the `R` mapping of
    /// Fig 5.2) to the set `out`.
    fn sources(&mut self, e: &Expr, out: &mut Vec<TupleId>) {
        match e {
            Expr::Var { name, .. } => self.var(name, out),
            Expr::This { .. } => set_insert(out, self.table.root("this")),
            Expr::Field { base, field, .. } => self.field(base, field, out),
            // Array reads flow both the element container and the index.
            Expr::Index { base, index, .. } => {
                self.sources(base, out);
                self.sources(index, out);
            }
            Expr::Length { .. } => {}
            Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => self.sources(operand, out),
            Expr::Binary { lhs, rhs, .. } => {
                self.sources(lhs, out);
                self.sources(rhs, out);
            }
            Expr::Call(call) => self.call_sources(e, call, out),
            // Literals, null, fresh allocations: top — no source node.
            _ => {}
        }
    }

    /// Walks an expression whose value goes nowhere.
    fn discard(&mut self, e: &Expr) {
        let mut sink = self.buffer();
        self.sources(e, &mut sink);
        self.recycle(sink);
    }

    /// Handles a call: translates callee interface flows into this graph
    /// and adds the caller-side sources of the return value to `out`.
    fn call_sources(&mut self, e: &Expr, call: &CallExpr, out: &mut Vec<TupleId>) {
        let CallExpr {
            recv,
            class_recv,
            name,
            args,
            ..
        } = call;
        // Intrinsics: Device/new input = top; Math = args' sources.
        if let Some(c) = class_recv {
            match c.as_str() {
                "Device" => return,
                "Out" | "System" => {
                    for a in args {
                        self.discard(a);
                    }
                    return;
                }
                "Math" => {
                    for a in args {
                        self.sources(a, out);
                    }
                    return;
                }
                "SSJavaArray" => {
                    // insert(arr, v): v flows into arr's elements.
                    if name == "insert" && args.len() == 2 {
                        let mut dsts = self.buffer();
                        let mut srcs = self.buffer();
                        self.sources(&args[0], &mut dsts);
                        self.sources(&args[1], &mut srcs);
                        for &d in &dsts {
                            for &s in &srcs {
                                self.graph.add_edge(s, d);
                            }
                            self.implicit_into(&[d]);
                        }
                        self.recycle(srcs);
                        self.recycle(dsts);
                    }
                    return;
                }
                _ => {}
            }
        }
        let Some(target) = self.tenv.call_target_class(e) else {
            return;
        };
        let Some((dc, callee)) = self.program.resolve_method(&target, name) else {
            return;
        };
        // Argument source sets, one after another in `sets`, each a
        // sorted range named by its callee root. Later entries shadow
        // earlier ones, like the legacy BTreeMap insert.
        let mut sets = self.buffer();
        let mut roots: Vec<(&str, std::ops::Range<usize>)> = Vec::with_capacity(args.len() + 1);
        let mut set = self.buffer();
        match recv {
            Some(r) => self.sources(r, &mut set),
            None if class_recv.is_none() => set.push(self.table.root("this")),
            None => {}
        }
        roots.push(("this", sets.len()..sets.len() + set.len()));
        sets.append(&mut set);
        for (p, a) in callee.params.iter().zip(args) {
            self.sources(a, &mut set);
            roots.push((&p.name, sets.len()..sets.len() + set.len()));
            sets.append(&mut set);
        }
        let compiled = self.compiled_summary(&dc.name, &callee.name);
        // Call-site bases for each compiled root slot.
        let bases: Vec<std::ops::Range<usize>> = compiled
            .roots
            .iter()
            .map(|rname| {
                roots
                    .iter()
                    .rev()
                    .find(|(n, _)| n == rname)
                    .map_or(0..0, |(_, range)| range.clone())
            })
            .collect();
        let mut from_caller = set;
        let mut to_caller = self.buffer();
        for (from, to) in &compiled.pairs {
            from_caller.clear();
            self.translate(
                &compiled,
                from,
                &sets[bases[from.root].clone()],
                &mut from_caller,
            );
            if to.is_ret {
                set_union(out, &from_caller);
                continue;
            }
            to_caller.clear();
            self.translate(&compiled, to, &sets[bases[to.root].clone()], &mut to_caller);
            for &f in &from_caller {
                for &t in &to_caller {
                    self.graph.add_edge(f, t);
                }
            }
            // Implicit context flows into whatever the callee writes.
            self.implicit_into(&to_caller);
        }
        self.recycle(to_caller);
        self.recycle(from_caller);
        self.recycle(sets);
    }

    /// The summary of callee `class.method` compiled into this method's
    /// table, compiled on first use (empty for a method no earlier wave
    /// built).
    fn compiled_summary(&mut self, class: &'p str, method: &'p str) -> Arc<CompiledSummary<'p>> {
        if let Some(c) = self.compiled.get(&(class, method)) {
            return Arc::clone(c);
        }
        let compiled = Arc::new(match self.summaries.get(&(class, method)) {
            Some(&index) => CompiledSummary::compile(&mut self.table, &self.built[index].1),
            None => CompiledSummary {
                roots: Vec::new(),
                pairs: Vec::new(),
                atoms: Vec::new(),
            },
        });
        self.compiled.insert((class, method), Arc::clone(&compiled));
        compiled
    }

    /// Adds `side` rebased on each of `bases` to the set `out`.
    fn translate(
        &mut self,
        summary: &CompiledSummary<'_>,
        side: &CompiledSide,
        bases: &[TupleId],
        out: &mut Vec<TupleId>,
    ) {
        for &b in bases {
            let mut id = b;
            for &a in &summary.atoms[side.suffix.clone()] {
                id = self.table.append_atom(id, a);
            }
            set_insert(out, id);
        }
    }

    /// Adds the destination tuples of an lvalue to the set `out`.
    fn destinations(&mut self, lv: &LValue, out: &mut Vec<TupleId>) {
        match lv {
            LValue::Var { name, .. } => self.var(name, out),
            LValue::Field { base, field, .. } => self.field(base, field, out),
            LValue::Index { base, index, .. } => {
                // ARRAY_ASG: index flows into the array as well.
                self.sources(base, out);
                let mut idx = self.buffer();
                self.sources(index, &mut idx);
                for &d in out.iter() {
                    for &i in &idx {
                        self.graph.add_edge(i, d);
                    }
                }
                self.recycle(idx);
            }
            LValue::StaticField { .. } => {}
        }
    }

    /// Records an assignment's flows from the set `sources` into `dsts`,
    /// inserting an ILOC intermediate when the source set is compound
    /// (§5.2.1).
    fn flow(&mut self, sources: &mut Vec<TupleId>, dsts: &[TupleId]) {
        if let Some(implicit) = self.implicit.last() {
            set_union(sources, implicit);
        }
        if sources.is_empty() {
            // Top-sourced write: still record the node so it appears in
            // the hierarchy.
            for &d in dsts {
                self.graph.add_node(d);
            }
            return;
        }
        // Compound sources go through an intermediate ILOC node (§5.2.1)
        // unless the destination itself is among the sources (a shared
        // self-flow), which must stay direct.
        let self_flowing = dsts.iter().any(|&d| set_contains(sources, d));
        if sources.len() > 1 && !self_flowing {
            let iloc = self.graph.fresh_iloc(&mut self.table);
            for &s in sources.iter() {
                self.graph.add_edge(s, iloc);
            }
            sources.clear();
            sources.push(iloc);
        }
        for &d in dsts {
            for &s in sources.iter() {
                self.graph.add_edge(s, d);
            }
        }
    }

    /// Pushes a condition's sources onto the implicit-flow stack.
    fn push_implicit(&mut self, cond: Option<&Expr>) {
        let mut frame = self.implicit.last().cloned().unwrap_or_default();
        if let Some(c) = cond {
            let mut srcs = self.buffer();
            self.sources(c, &mut srcs);
            set_union(&mut frame, &srcs);
            self.recycle(srcs);
        }
        self.implicit.push(frame);
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
                    let mut src = self.buffer();
                    self.sources(e, &mut src);
                    self.flow(&mut src, &[t]);
                    self.recycle(src);
                }
            }
            Stmt::Assign { lhs, rhs, .. } => {
                let mut src = self.buffer();
                let mut dst = self.buffer();
                self.sources(rhs, &mut src);
                self.destinations(lhs, &mut dst);
                self.flow(&mut src, &dst);
                self.recycle(dst);
                self.recycle(src);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                self.push_implicit(Some(cond));
                self.walk_block(then_blk);
                if let Some(e) = else_blk {
                    self.walk_block(e);
                }
                self.implicit.pop();
            }
            Stmt::While { cond, body, .. } => {
                self.push_implicit(Some(cond));
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
                self.push_implicit(cond.as_ref());
                if let Some(u) = update {
                    self.walk_stmt(u);
                }
                self.walk_block(body);
                self.implicit.pop();
            }
            Stmt::Return { value, .. } => {
                if let Some(e) = value {
                    let mut src = self.buffer();
                    self.sources(e, &mut src);
                    let ret = self.table.root(RET);
                    self.flow(&mut src, &[ret]);
                    self.recycle(src);
                }
            }
            Stmt::ExprStmt { expr, .. } => self.discard(expr),
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
/// then edges. Names are atoms of the method's tuple table; the class is
/// an index into the method's [`MethodOut::classes`].
enum FieldOp {
    SharedNode(u32, VarId),
    Node(u32, VarId),
    Edge(u32, VarId, VarId),
}

struct MethodOut {
    mh: HierarchyGraph,
    maliases: BTreeMap<String, String>,
    var_tuples: BTreeMap<String, Tuple>,
    field_ops: Vec<FieldOp>,
    /// The classes the field ops name, each copied once.
    classes: Vec<String>,
    /// The rewritten table when relocation moved locals into the field
    /// space; the field ops' atoms resolve in it (or in the method's own
    /// table when this is `None`).
    relocated: Option<TupleTable>,
    done: bool,
}

/// Runs the decomposition over all reachable methods' dense flow graphs,
/// producing a [`Decomposition`] byte-identical to the oracle's
/// [`crate::oracle::decompose`]. Per-method work (relocation fixpoint, dense
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
    for ((mref, _, _, dense), out) in work.into_iter().zip(outs) {
        let table = out.relocated.as_ref().unwrap_or(&dense.table);
        replay_field_ops(&mut d, table, &out.classes, &out.field_ops);
        if out.done {
            d.methods.insert(mref.clone(), out.mh);
            d.method_alias.insert(mref.clone(), out.maliases);
        }
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
        classes: Vec::new(),
        relocated: None,
        done: false,
    };

    // Relocation fixpoint: try decomposing; on a superfluous cycle in the
    // method hierarchy through `this`, relocate the cycle's local
    // variables into the field space and retry.
    let mut relocated: BTreeSet<String> = BTreeSet::new();
    for attempt in 0..16 {
        let rewritten = (!relocated.is_empty())
            .then(|| apply_relocation_dense(&dense.table, &dense.graph, &relocated));
        let (table, graph) = match &rewritten {
            Some((table, graph)) => (table, graph),
            None => (&dense.table, &dense.graph),
        };

        // Nodes and successor lists in legacy (tuple string) order.
        let order = table.string_order();
        let mut node_ids: Vec<TupleId> = graph.nodes.iter().map(|i| i as TupleId).collect();
        node_ids.sort_unstable_by_key(|&t| order[t as usize]);
        let mut classes = ClassMemo::new(table, &tenv);

        // Classify every edge, splitting method flows from field flows.
        let mut method_edges: Vec<(VarId, VarId)> = Vec::new();
        let mut field_edges: Vec<(u32, VarId, VarId)> = Vec::new();
        let mut succ: Vec<TupleId> = Vec::new();
        for &from in &node_ids {
            succ.clear();
            succ.extend_from_slice(graph.succ(from));
            succ.sort_unstable_by_key(|&t| order[t as usize]);
            for &to in &succ {
                match classify_dense(table, &mut classes, from, to) {
                    DenseClassified::Method(a, b) => method_edges.push((a, b)),
                    DenseClassified::Field(class, a, b) => field_edges.push((class, a, b)),
                    DenseClassified::Skip => {}
                }
            }
        }

        // Fast path: one cycle check over the full candidate hierarchy.
        // When it is acyclic, no incremental `would_cycle` probe could
        // ever have fired (the partial graph's edges are a subset of the
        // candidate's, so any incremental cycle is a candidate cycle),
        // and bulk insertion *is* the legacy result. Only cyclic
        // candidates replay the legacy incremental loop.
        let name = |a: VarId| table.resolve_atom(a);
        let mut maliases: BTreeMap<String, String> = BTreeMap::new();
        let mut mh = HierarchyGraph::new();
        if acyclic(table.atom_count(), &method_edges) {
            for &(a, b) in &method_edges {
                mh.ensure_edge(name(a), name(b));
            }
        } else {
            let edges: Vec<(String, String)> = method_edges
                .iter()
                .map(|&(a, b)| (name(a).to_string(), name(b).to_string()))
                .collect();
            match incremental_method_hierarchy(&edges, &tenv, method, &mut relocated, attempt) {
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
            match table.parent_of(t) {
                None => {
                    let a = name(table.root_atom(t));
                    mh.ensure_node(a);
                    mh.set_shared(a);
                }
                Some(parent) => {
                    if let Some(class) = classes.of(parent) {
                        out.field_ops
                            .push(FieldOp::SharedNode(class, table.last_atom(t)));
                    }
                }
            }
        }
        // Also register isolated nodes so every variable gets a location.
        for &t in &node_ids {
            match table.parent_of(t) {
                None => mh.ensure_node(name(table.root_atom(t))),
                Some(parent) => {
                    if let Some(class) = classes.of(parent) {
                        out.field_ops.push(FieldOp::Node(class, table.last_atom(t)));
                    }
                }
            }
        }
        // Field edges commit after the node passes, in classification
        // order (the legacy pending list).
        out.field_ops.extend(
            field_edges
                .into_iter()
                .map(|(class, a, b)| FieldOp::Edge(class, a, b)),
        );
        // Record variable tuples.
        for &t in &node_ids {
            if table.parent_of(t).is_none() {
                let root = name(table.root_atom(t));
                out.var_tuples
                    .insert(root.to_string(), Tuple(vec![root.to_string()]));
            }
        }
        for v in &relocated {
            out.var_tuples
                .insert(v.clone(), Tuple(vec!["this".to_string(), v.clone()]));
        }
        out.classes = classes.names;
        out.mh = mh;
        out.maliases = maliases;
        out.relocated = rewritten.map(|(table, _)| table);
        out.done = true;
        break;
    }
    out
}

/// Whether the graph on atom ids `0..n` with `edges` is acyclic (Kahn's
/// algorithm; parallel edges are fine).
fn acyclic(n: usize, edges: &[(VarId, VarId)]) -> bool {
    let mut indegree = vec![0u32; n];
    let mut start = vec![0usize; n + 1];
    for &(a, b) in edges {
        indegree[b as usize] += 1;
        start[a as usize + 1] += 1;
    }
    for v in 1..=n {
        start[v] += start[v - 1];
    }
    let mut fill = start.clone();
    let mut succ = vec![0 as VarId; edges.len()];
    for &(a, b) in edges {
        succ[fill[a as usize]] = b;
        fill[a as usize] += 1;
    }
    let mut ready: Vec<VarId> = (0..n as VarId)
        .filter(|&v| indegree[v as usize] == 0)
        .collect();
    let mut done = 0;
    while let Some(v) = ready.pop() {
        done += 1;
        for &w in &succ[start[v as usize]..start[v as usize + 1]] {
            indegree[w as usize] -= 1;
            if indegree[w as usize] == 0 {
                ready.push(w);
            }
        }
    }
    done == n
}

/// The self-flow ordering of `BitSet::iter` is ascending id, but legacy
/// iterates `BTreeSet<Tuple>` in string order — the two differ, so the
/// self-flow pass above must not depend on order. It doesn't: the ops it
/// produces are `add_node`/`set_shared` pairs on disjoint names, and the
/// field ops target per-class graphs where duplicate adds are idempotent.
/// The replay below nevertheless preserves the recorded order exactly.
fn replay_field_ops(
    d: &mut Decomposition,
    table: &TupleTable,
    classes: &[String],
    ops: &[FieldOp],
) {
    // Edges always follow the node ops within one method (the legacy
    // pending list commits last), so batch them per class in first-seen
    // order and commit after the nodes.
    let mut edge_batches: Vec<(u32, Vec<(&str, &str)>)> = Vec::new();
    for op in ops {
        match *op {
            FieldOp::SharedNode(class, n) => {
                let fh = entry(&mut d.fields, &classes[class as usize]);
                let n = table.resolve_atom(n);
                fh.ensure_node(n);
                fh.set_shared(n);
            }
            FieldOp::Node(class, n) => {
                entry(&mut d.fields, &classes[class as usize]).ensure_node(table.resolve_atom(n));
            }
            FieldOp::Edge(class, a, b) => {
                let edge = (table.resolve_atom(a), table.resolve_atom(b));
                match edge_batches.iter_mut().find(|(c, _)| *c == class) {
                    Some((_, batch)) => batch.push(edge),
                    None => edge_batches.push((class, vec![edge])),
                }
            }
        }
    }
    for (class, edges) in edge_batches {
        commit_field_edges(d, &classes[class as usize], &edges);
    }
}

/// `map[key]`, inserted empty when missing; the key is copied only then.
fn entry<'m, V: Default>(map: &'m mut BTreeMap<String, V>, key: &str) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_string(), V::default());
    }
    map.get_mut(key).expect("present")
}

/// Commits one method's field edges for one class. Fast path: resolve
/// all edges through the current aliases and check, over what the
/// batch's edges reach, whether they close a cycle with the (acyclic)
/// class hierarchy — an acyclic batch means the legacy incremental loop
/// would never have merged, so committing in order gives its result. A
/// cyclic batch falls back to the legacy loop for exact `SH_*` naming.
fn commit_field_edges(d: &mut Decomposition, class: &str, edges: &[(&str, &str)]) {
    let fh = entry(&mut d.fields, class);
    let aliases = entry(&mut d.field_alias, class);
    let resolved: Vec<(&str, &str)> = edges
        .iter()
        .map(|&(a, b)| {
            (
                resolve_alias_str(Some(aliases), a),
                resolve_alias_str(Some(aliases), b),
            )
        })
        .collect();
    if !closes_cycle(fh, &resolved) {
        for &(a, b) in &resolved {
            if a == b {
                fh.ensure_node(a);
                fh.set_shared(a);
            } else {
                fh.ensure_edge(a, b);
            }
        }
        return;
    }
    // Legacy incremental fallback (aliases can change mid-loop, so each
    // edge re-resolves).
    for &(a, b) in edges {
        let a = resolve_alias(Some(aliases), a);
        let b = resolve_alias(Some(aliases), b);
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

/// Whether adding `batch`'s edges to the acyclic hierarchy `fh` closes a
/// cycle. Such a cycle runs through some batch edge `a → b` not already
/// in `fh`, with `b` reaching `a`; so one search per such edge, from `b`
/// over `fh` plus the batch, visits only what the batch's edges reach.
fn closes_cycle(fh: &HierarchyGraph, batch: &[(&str, &str)]) -> bool {
    let mut by_source: Vec<(&str, &str)> = batch.iter().copied().filter(|(a, b)| a != b).collect();
    by_source.sort_unstable();
    by_source.dedup();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack: Vec<&str> = Vec::new();
    for &(a, b) in &by_source {
        if fh.has_edge(a, b) {
            continue;
        }
        seen.clear();
        stack.clear();
        stack.push(b);
        while let Some(x) = stack.pop() {
            if x == a {
                return true;
            }
            if !seen.insert(x) {
                continue;
            }
            stack.extend(fh.below(x));
            let from = by_source.partition_point(|&(s, _)| s < x);
            stack.extend(
                by_source[from..]
                    .iter()
                    .take_while(|&&(s, _)| s == x)
                    .map(|&(_, t)| t),
            );
        }
    }
    false
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
    Method(VarId, VarId),
    Field(u32, VarId, VarId),
    Skip,
}

/// Classifies a value-flow edge by the first position where the two
/// tuples differ (§5.2.5), walking the trie: tuples are interned, so two
/// prefixes are equal iff their ids are.
fn classify_dense(
    table: &TupleTable,
    classes: &mut ClassMemo<'_>,
    from: TupleId,
    to: TupleId,
) -> DenseClassified {
    let n = table.depth_of(from).min(table.depth_of(to));
    let (mut f, mut t) = (table.ancestor(from, n), table.ancestor(to, n));
    if f == t {
        // One tuple is a prefix of the other: legal by lexicographic
        // ordering, no constraint needed.
        return DenseClassified::Skip;
    }
    // Climb to the first differing position: the ancestors whose
    // parents (the common prefix) agree.
    while table.parent_of(f) != table.parent_of(t) {
        f = table.parent_of(f).expect("equal depths");
        t = table.parent_of(t).expect("equal depths");
    }
    let (a, b) = (table.last_atom(f), table.last_atom(t));
    match table.parent_of(f) {
        None => DenseClassified::Method(a, b),
        Some(prefix) => match classes.of(prefix) {
            Some(class) => DenseClassified::Field(class, a, b),
            None => DenseClassified::Skip,
        },
    }
}

/// The class owning the reference each trie node denotes: the dense,
/// memoized mirror of the oracle's `class_of_prefix` — memoized per trie
/// node, so shared prefixes are resolved once per method, and each
/// distinct class name is copied once into [`ClassMemo::names`].
struct ClassMemo<'a> {
    table: &'a TupleTable,
    tenv: &'a TypeEnv<'a>,
    memo: FnvHashMap<TupleId, Option<u32>>,
    names: Vec<String>,
}

impl<'a> ClassMemo<'a> {
    fn new(table: &'a TupleTable, tenv: &'a TypeEnv<'a>) -> Self {
        ClassMemo {
            table,
            tenv,
            memo: FnvHashMap::default(),
            names: Vec::new(),
        }
    }

    /// The class of the reference `anc` denotes, as an index into
    /// [`ClassMemo::names`].
    fn of(&mut self, anc: TupleId) -> Option<u32> {
        if let Some(&c) = self.memo.get(&anc) {
            return c;
        }
        let (table, tenv) = (self.table, self.tenv);
        let class: Option<&str> = match table.parent_of(anc) {
            None => {
                let root = table.resolve_atom(table.root_atom(anc));
                if root == "this" {
                    Some(&tenv.class)
                } else {
                    match tenv.local(root) {
                        Some(Type::Class(c)) => Some(c),
                        _ => None,
                    }
                }
            }
            Some(parent) => self.of(parent).and_then(|owner| {
                let field = table.resolve_atom(table.last_atom(anc));
                match tenv.program.field(&self.names[owner as usize], field) {
                    Some(FieldDecl {
                        ty: Type::Class(c), ..
                    }) => Some(c.as_str()),
                    _ => None,
                }
            }),
        };
        let id = class.map(|c| match self.names.iter().position(|n| n == c) {
            Some(i) => i as u32,
            None => {
                self.names.push(c.to_string());
                self.names.len() as u32 - 1
            }
        });
        self.memo.insert(anc, id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{build_flow_graphs, decompose};
    use sjava_analysis::callgraph;
    use sjava_syntax::diag::Diagnostics;
    use sjava_syntax::parse;

    fn both_pipelines(src: &str) -> (Decomposition, Decomposition, CallGraph) {
        let p = parse(src).expect("parses");
        let mut diags = Diagnostics::new();
        let cg = callgraph::build(&p, &mut diags).expect("cg");
        let legacy_graphs = build_flow_graphs(&p, &cg);
        let legacy = decompose(&p, &cg, &legacy_graphs);
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
    fn field_batches_closing_a_cycle_across_methods_merge_like_legacy() {
        // `m1`'s batch orders a above b and `m2`'s b above a: each batch
        // is acyclic alone, so only committing `m2`'s after `m1`'s closes
        // the cycle, which takes the incremental fallback and its merge.
        let (legacy, dense, _) = both_pipelines(
            "class W { int a; int b;
                void main() { SSJAVA: while (true) { a = Device.read(); m1(); m2(); Out.emit(b); } }
                void m1() { b = a; }
                void m2() { a = b; }
             }",
        );
        assert_decompositions_equal(&legacy, &dense);
        let fh = &dense.fields["W"];
        assert!(fh.is_shared("SH_a"), "{fh}");
        assert_eq!(dense.field_name("W", "b"), "SH_a");
    }

    #[test]
    fn acyclic_field_batches_commit_in_order_like_legacy() {
        // a above b from `m1`, b above c from `m2`: the batches chain but
        // never close a cycle, so they commit as they come.
        let (legacy, dense, _) = both_pipelines(
            "class W { int a; int b; int c;
                void main() { SSJAVA: while (true) { a = Device.read(); m1(); m2(); Out.emit(c); } }
                void m1() { b = a; }
                void m2() { c = b; }
             }",
        );
        assert_decompositions_equal(&legacy, &dense);
        let fh = &dense.fields["W"];
        assert!(fh.has_edge("a", "b") && fh.has_edge("b", "c"), "{fh}");
        assert!(fh.shared_nodes().next().is_none(), "{fh}");
        assert!(dense.field_alias["W"].is_empty());
    }

    #[test]
    fn string_order_is_tuple_string_order() {
        let mut t = TupleTable::new();
        let x = t.root("x");
        let ids = [
            t.append(x, "b"),
            t.root("a"),
            t.append(x, "a"),
            x,
            t.root("ILOC0"),
        ];
        let b = t.append(ids[2], "z");
        let order = t.string_order();
        let mut by_order: Vec<TupleId> = ids.iter().copied().chain([b]).collect();
        by_order.sort_by_key(|&id| order[id as usize]);
        let mut by_string = by_order.clone();
        by_string.sort_by_key(|&id| t.to_tuple(id));
        assert_eq!(by_order, by_string);
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
