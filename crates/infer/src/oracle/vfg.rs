//! The string-tuple value-flow-graph builder (§5.2.1): the oracle the
//! dense builder ([`crate::dense::build_dense_graphs`]) reproduces.
//!
//! Graphs are built per method, bottom-up over the call graph, with
//! callee flows summarized over interface nodes and translated through
//! call sites (the transfer functions of Figs 5.2/5.3). Every node is a
//! [`Tuple`] of strings and every edge set a `BTreeSet`.

use crate::graph::{FlowGraph, Tuple, RET};
use sjava_analysis::callgraph::{CallGraph, MethodRef};
use sjava_analysis::jtype::TypeEnv;
use sjava_syntax::ast::*;
use std::collections::{BTreeMap, BTreeSet};

/// The parts of [`FlowGraph`] only this builder uses.
impl FlowGraph {
    /// Fresh intermediate node (§5.2.1 ILOC).
    fn fresh_iloc(&mut self) -> Tuple {
        let t = Tuple::root(format!("ILOC{}", self.iloc_counter));
        self.iloc_counter += 1;
        self.nodes.insert(t.clone());
        t
    }

    /// Transitive reachability.
    fn reaches(&self, from: &Tuple, to: &Tuple) -> bool {
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if !seen.insert(x.clone()) {
                continue;
            }
            if let Some(ts) = self.edges.get(x) {
                stack.extend(ts.iter());
            }
        }
        false
    }

    /// The flows among *interface* tuples (rooted at parameters, `this`,
    /// `RET`): the method's summary used at call sites.
    fn interface_flows(&self, params: &BTreeSet<String>) -> Vec<(Tuple, Tuple)> {
        let is_iface = |t: &Tuple| {
            let r = t.root_name();
            r == "this" || r == RET || params.contains(r)
        };
        let ifaces: Vec<&Tuple> = self.nodes.iter().filter(|t| is_iface(t)).collect();
        let mut out = Vec::new();
        for a in &ifaces {
            for b in &ifaces {
                if a != b && self.reaches(a, b) {
                    out.push(((*a).clone(), (*b).clone()));
                }
            }
        }
        out
    }
}

/// Builds flow graphs for every reachable method, bottom-up.
pub fn build_flow_graphs(program: &Program, cg: &CallGraph) -> BTreeMap<MethodRef, FlowGraph> {
    let mut graphs: BTreeMap<MethodRef, FlowGraph> = BTreeMap::new();
    let mut summaries: BTreeMap<MethodRef, Vec<(Tuple, Tuple)>> = BTreeMap::new();
    for mref in &cg.topo {
        let Some((decl_class, method)) = program.resolve_method(&mref.0, &mref.1) else {
            continue;
        };
        if method.annots.trusted || decl_class.annots.trusted {
            graphs.insert(mref.clone(), FlowGraph::default());
            summaries.insert(mref.clone(), Vec::new());
            continue;
        }
        let mut b = Builder::new(program, &decl_class.name, method, &summaries);
        b.walk_block(&method.body);
        let g = b.finish();
        let params: BTreeSet<String> = method.params.iter().map(|p| p.name.clone()).collect();
        summaries.insert(mref.clone(), g.interface_flows(&params));
        graphs.insert(mref.clone(), g);
    }
    graphs
}

struct Builder<'p> {
    program: &'p Program,
    tenv: TypeEnv<'p>,
    graph: FlowGraph,
    /// Implicit-flow stack: condition source sets (Fig 5.2's `S`).
    implicit: Vec<BTreeSet<Tuple>>,
    summaries: &'p BTreeMap<MethodRef, Vec<(Tuple, Tuple)>>,
}

impl<'p> Builder<'p> {
    fn new(
        program: &'p Program,
        class: &str,
        method: &'p MethodDecl,
        summaries: &'p BTreeMap<MethodRef, Vec<(Tuple, Tuple)>>,
    ) -> Self {
        let mut tenv = TypeEnv::for_method(program, class, method);
        tenv.bind_block(&method.body);
        let mut graph = FlowGraph::default();
        for p in &method.params {
            graph.add_node(Tuple::root(&p.name));
        }
        if !method.is_static {
            graph.add_node(Tuple::root("this"));
        }
        Builder {
            program,
            tenv,
            graph,
            implicit: Vec::new(),
            summaries,
        }
    }

    fn finish(self) -> FlowGraph {
        // No PC node, as in the dense builder (see its §5.2.3 note).
        self.graph
    }

    fn implicit_sources(&self) -> BTreeSet<Tuple> {
        self.implicit.iter().flatten().cloned().collect()
    }

    fn is_local(&self, name: &str) -> bool {
        self.tenv.local(name).is_some()
    }

    /// Source tuples of an expression (the `R` mapping of Fig 5.2,
    /// computed syntactically — our AST keeps expressions nested instead
    /// of introducing temporaries).
    fn sources(&mut self, e: &Expr) -> BTreeSet<Tuple> {
        match e {
            Expr::Var { name, .. } => {
                if self.is_local(name) {
                    BTreeSet::from([Tuple::root(name)])
                } else if self.program.field(&self.tenv.class, name).is_some() {
                    BTreeSet::from([Tuple::root("this").append(name)])
                } else {
                    BTreeSet::new()
                }
            }
            Expr::This { .. } => BTreeSet::from([Tuple::root("this")]),
            Expr::Field { base, field, .. } => self
                .sources(base)
                .into_iter()
                .map(|t| t.append(field))
                .collect(),
            // Array reads flow both the element container and the index.
            Expr::Index { base, index, .. } => {
                let mut s = self.sources(base);
                s.extend(self.sources(index));
                s
            }
            Expr::Length { .. } => BTreeSet::new(),
            Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => self.sources(operand),
            Expr::Binary { lhs, rhs, .. } => {
                let mut s = self.sources(lhs);
                s.extend(self.sources(rhs));
                s
            }
            Expr::Call(_) => self.call_sources(e),
            // Literals, null, fresh allocations: top — no source node.
            _ => BTreeSet::new(),
        }
    }

    /// Handles a call: translates callee interface flows into this graph
    /// and returns the caller-side sources of the return value.
    fn call_sources(&mut self, e: &Expr) -> BTreeSet<Tuple> {
        let Expr::Call(call) = e else {
            return BTreeSet::new();
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
                "Device" => return BTreeSet::new(),
                "Out" | "System" => {
                    for a in args {
                        let _ = self.sources(a);
                    }
                    return BTreeSet::new();
                }
                "Math" => {
                    let mut s = BTreeSet::new();
                    for a in args {
                        s.extend(self.sources(a));
                    }
                    return s;
                }
                "SSJavaArray" => {
                    // insert(arr, v): v flows into arr's elements.
                    if name == "insert" && args.len() == 2 {
                        let dsts = self.sources(&args[0]);
                        let srcs = self.sources(&args[1]);
                        for d in &dsts {
                            for s in &srcs {
                                self.graph.add_edge(s.clone(), d.clone());
                            }
                            for s in self.implicit_sources() {
                                self.graph.add_edge(s, d.clone());
                            }
                        }
                    }
                    return BTreeSet::new();
                }
                _ => {}
            }
        }
        let Some(target) = self.tenv.call_target_class(e) else {
            return BTreeSet::new();
        };
        let Some((dc, callee)) = self.program.resolve_method(&target, name) else {
            return BTreeSet::new();
        };
        let key = (dc.name.clone(), callee.name.clone());
        // Argument source sets, indexed by callee root name.
        let mut roots: BTreeMap<String, BTreeSet<Tuple>> = BTreeMap::new();
        let recv_sources = match recv {
            Some(r) => self.sources(r),
            None => {
                if class_recv.is_none() {
                    BTreeSet::from([Tuple::root("this")])
                } else {
                    BTreeSet::new()
                }
            }
        };
        roots.insert("this".to_string(), recv_sources);
        for (p, a) in callee.params.iter().zip(args) {
            let asrc = self.sources(a);
            // The argument value flows into the parameter; record edges
            // from arg sources into each translated use later via the
            // summary. Implicit context also flows into the callee.
            roots.insert(p.name.clone(), asrc);
        }
        // Borrow the callee summary out of the shared map (`self.summaries`
        // is a `&'p` reference, so copying the reference out lets the loop
        // body take `&mut self` without cloning every flow pair per call
        // site).
        let summaries = self.summaries;
        let summary: &[(Tuple, Tuple)] = summaries.get(&key).map(Vec::as_slice).unwrap_or(&[]);
        let mut ret_sources = BTreeSet::new();
        for (from, to) in summary {
            let from_caller = self.translate(from, &roots);
            if to.root_name() == RET {
                ret_sources.extend(from_caller.clone());
                continue;
            }
            let to_caller = self.translate(to, &roots);
            for f in &from_caller {
                for t in &to_caller {
                    self.graph.add_edge(f.clone(), t.clone());
                }
            }
            // Implicit context flows into whatever the callee writes.
            for s in self.implicit_sources() {
                for t in &to_caller {
                    self.graph.add_edge(s.clone(), t.clone());
                }
            }
        }
        ret_sources
    }

    fn translate(&self, t: &Tuple, roots: &BTreeMap<String, BTreeSet<Tuple>>) -> BTreeSet<Tuple> {
        match roots.get(t.root_name()) {
            Some(bases) => bases.iter().map(|b| t.rebase(b)).collect(),
            None => BTreeSet::new(),
        }
    }

    /// Destination tuples of an lvalue.
    fn destinations(&mut self, lv: &LValue) -> BTreeSet<Tuple> {
        match lv {
            LValue::Var { name, .. } => {
                if self.is_local(name) {
                    BTreeSet::from([Tuple::root(name)])
                } else if self.program.field(&self.tenv.class, name).is_some() {
                    BTreeSet::from([Tuple::root("this").append(name)])
                } else {
                    BTreeSet::new()
                }
            }
            LValue::Field { base, field, .. } => self
                .sources(base)
                .into_iter()
                .map(|t| t.append(field))
                .collect(),
            LValue::Index { base, index, .. } => {
                // ARRAY_ASG: index flows into the array as well.
                let dsts: BTreeSet<Tuple> = self.sources(base);
                let idx = self.sources(index);
                for d in &dsts {
                    for i in &idx {
                        self.graph.add_edge(i.clone(), d.clone());
                    }
                }
                dsts
            }
            LValue::StaticField { .. } => BTreeSet::new(),
        }
    }

    /// Records an assignment's flows, inserting an ILOC intermediate when
    /// the source set is compound (§5.2.1).
    fn flow(&mut self, sources: BTreeSet<Tuple>, dsts: BTreeSet<Tuple>) {
        let mut all: BTreeSet<Tuple> = sources;
        all.extend(self.implicit_sources());
        if all.is_empty() {
            // Top-sourced write: still record the node so it appears in
            // the hierarchy.
            for d in dsts {
                self.graph.add_node(d);
            }
            return;
        }
        // Compound sources go through an intermediate ILOC node (§5.2.1)
        // so the checker's GLB of the operands has a home in the lattice —
        // unless the destination itself is among the sources (a shared
        // self-flow), which must stay direct.
        let self_flowing = dsts.iter().any(|d| all.contains(d));
        let effective: Vec<Tuple> = if all.len() > 1 && !self_flowing {
            let iloc = self.graph.fresh_iloc();
            for s in &all {
                self.graph.add_edge(s.clone(), iloc.clone());
            }
            vec![iloc]
        } else {
            all.into_iter().collect()
        };
        for d in &dsts {
            for s in &effective {
                self.graph.add_edge(s.clone(), d.clone());
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
                self.graph.add_node(Tuple::root(name));
                if let Some(e) = init {
                    let src = self.sources(e);
                    self.flow(src, BTreeSet::from([Tuple::root(name)]));
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
                    self.flow(src, BTreeSet::from([Tuple::root(RET)]));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PC;
    use sjava_analysis::callgraph;
    use sjava_syntax::diag::Diagnostics;
    use sjava_syntax::parse;

    fn graphs_of(src: &str) -> BTreeMap<MethodRef, FlowGraph> {
        let p = parse(src).expect("parses");
        let mut d = Diagnostics::new();
        let cg = callgraph::build(&p, &mut d).expect("cg");
        build_flow_graphs(&p, &cg)
    }

    #[test]
    fn direct_flows_are_recorded() {
        let gs = graphs_of(
            "class A { int f; void main() { SSJAVA: while (true) {
                int x = Device.read();
                f = x;
                Out.emit(f);
            } } }",
        );
        let g = &gs[&("A".to_string(), "main".to_string())];
        assert!(g.reaches(&Tuple::root("x"), &Tuple::root("this").append("f")));
    }

    #[test]
    fn implicit_flows_are_recorded() {
        let gs = graphs_of(
            "class A { int a; int b; void main() { SSJAVA: while (true) {
                a = Device.read();
                if (a > 0) { b = 1; } else { b = 0; }
                Out.emit(b);
            } } }",
        );
        let g = &gs[&("A".to_string(), "main".to_string())];
        assert!(g.reaches(
            &Tuple::root("this").append("a"),
            &Tuple::root("this").append("b")
        ));
    }

    #[test]
    fn self_flow_marks_shared() {
        let gs = graphs_of(
            "class A { void main() { SSJAVA: while (true) {
                int n = Device.read();
                int s = 0;
                s = s + n;
                Out.emit(s);
            } } }",
        );
        let g = &gs[&("A".to_string(), "main".to_string())];
        assert!(g.self_flows.contains(&Tuple::root("s")));
    }

    #[test]
    fn callee_flows_are_translated() {
        // The §5.2.2 parameters example: caller reads this.f into h,
        // passes to callee which stores into this.g.
        let gs = graphs_of(
            "class Foo { int f; int g;
                void main() { SSJAVA: while (true) { caller(); Out.emit(g); f = Device.read(); } }
                void caller() { int h = f; callee(h); }
                void callee(int i) { g = i; }
             }",
        );
        let g = &gs[&("Foo".to_string(), "caller".to_string())];
        // h flows into this.g through the call.
        assert!(
            g.reaches(&Tuple::root("h"), &Tuple::root("this").append("g")),
            "{:?}",
            g.edges
        );
    }

    #[test]
    fn return_flows_reach_ret_node() {
        let gs = graphs_of(
            "class A { int v;
               void main() { SSJAVA: while (true) { v = Device.read(); Out.emit(get()); } }
               int get() { return v; } }",
        );
        let g = &gs[&("A".to_string(), "get".to_string())];
        assert!(g.reaches(&Tuple::root("this").append("v"), &Tuple::root(RET)));
    }

    #[test]
    fn pc_node_flows_into_written_params() {
        let gs = graphs_of(
            "class A {
               void main() { SSJAVA: while (true) { int x = Device.read(); f(x); Out.emit(x); } }
               void f(int p) { p = p - 1; } }",
        );
        let g = &gs[&("A".to_string(), "f".to_string())];
        assert!(
            g.reaches(&Tuple::root(PC), &Tuple::root("p"))
                || g.self_flows.contains(&Tuple::root("p"))
        );
    }
}
