//! Decomposing string value flow graphs into method and field hierarchy
//! graphs (§5.2.5), with superfluous-cycle avoidance (§5.2.2): the oracle
//! the dense decomposition ([`crate::dense::decompose_dense`]) reproduces.
//!
//! Each value-flow edge is classified by the first position where its two
//! tuples differ: position 0 is a *method flow* (edge in the method
//! hierarchy), later positions are *field flows* (edges in the field
//! hierarchy of the class at that position). A cycle arising in a
//! hierarchy is eliminated by merging the nodes into a shared location —
//! unless it is a superfluous cycle through a local variable, which is
//! instead *relocated* into the object's field space (`⟨v⟩ → ⟨this,v⟩`).

use crate::graph::{FlowGraph, Tuple, PC, RET};
use crate::hierarchy::{cycle_between, resolve_alias, shared_name, Decomposition};
use sjava_analysis::callgraph::{CallGraph, MethodRef};
use sjava_analysis::jtype::TypeEnv;
use sjava_lattice::HierarchyGraph;
use sjava_syntax::ast::*;
use std::collections::{BTreeMap, BTreeSet};

/// Runs the decomposition over all reachable methods' flow graphs.
pub fn decompose(
    program: &Program,
    cg: &CallGraph,
    graphs: &BTreeMap<MethodRef, FlowGraph>,
) -> Decomposition {
    let mut d = Decomposition::default();
    // Field hierarchies are global across methods.
    for class in &program.classes {
        d.fields.insert(class.name.clone(), HierarchyGraph::new());
        d.field_alias.insert(class.name.clone(), BTreeMap::new());
    }

    for mref in &cg.topo {
        let Some((decl_class, method)) = program.resolve_method(&mref.0, &mref.1) else {
            continue;
        };
        if method.annots.trusted || decl_class.annots.trusted {
            continue;
        }
        let Some(graph) = graphs.get(mref) else {
            continue;
        };
        let mut tenv = TypeEnv::for_method(program, &decl_class.name, method);
        tenv.bind_block(&method.body);

        // Relocation fixpoint: try decomposing; on a superfluous cycle in
        // the method hierarchy through `this`, relocate the cycle's local
        // variables into the field space and retry.
        let mut relocated: BTreeSet<String> = BTreeSet::new();
        let mut var_tuples: BTreeMap<String, Tuple> = BTreeMap::new();
        for attempt in 0..16 {
            let g = apply_relocation(graph, &relocated, &decl_class.name);
            let mut mh = HierarchyGraph::new();
            let mut maliases: BTreeMap<String, String> = BTreeMap::new();
            let mut pending_field_edges: Vec<(String, String, String)> = Vec::new();
            let mut ok = true;
            for (from, to) in g.edge_pairs() {
                match classify(from, to, &tenv, &decl_class.name) {
                    Classified::Method(a, b) => {
                        if mh.would_cycle(&a, &b) {
                            // Superfluous cycle: relocate local variables
                            // on the cycle (not `this`, params stay too).
                            let cycle = cycle_between(&mh, &b, &a);
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
                                ok = false;
                                break;
                            }
                            // Cannot relocate: merge into a shared
                            // location.
                            let mut group = cycle_between(&mh, &b, &a);
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
                            mh.add_edge(a, b);
                        }
                    }
                    Classified::Field(class, a, b) => {
                        pending_field_edges.push((class, a, b));
                    }
                    Classified::Skip => {}
                }
            }
            if !ok {
                continue;
            }
            // Self-flows become shared.
            for t in &g.self_flows {
                match classify_node(t, &tenv, &decl_class.name) {
                    Classified::Method(a, _) => {
                        mh.add_node(a.clone());
                        mh.set_shared(&a);
                    }
                    Classified::Field(class, a, _) => {
                        let fh = d.fields.entry(class).or_default();
                        fh.add_node(a.clone());
                        fh.set_shared(&a);
                    }
                    Classified::Skip => {}
                }
            }
            // Also register isolated nodes so every variable gets a
            // location.
            for t in &g.nodes {
                if t.0.len() == 1 {
                    mh.add_node(t.root_name().to_string());
                } else if let Some(class) = class_of_prefix(t, t.0.len() - 1, &tenv) {
                    d.fields
                        .entry(class)
                        .or_default()
                        .add_node(t.0.last().expect("nonempty").clone());
                }
            }
            // Commit field edges globally, merging cycles into shared
            // locations.
            for (class, a, b) in pending_field_edges {
                let fh = d.fields.entry(class.clone()).or_default();
                let aliases = d.field_alias.entry(class).or_default();
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
            // Record variable tuples.
            for t in &g.nodes {
                if t.0.len() == 1 {
                    var_tuples.insert(t.root_name().to_string(), t.clone());
                }
            }
            for v in &relocated {
                var_tuples.insert(v.clone(), Tuple(vec!["this".to_string(), v.clone()]));
            }
            d.methods.insert(mref.clone(), mh);
            d.method_alias.insert(mref.clone(), maliases);
            break;
        }
        d.var_tuples.insert(mref.clone(), var_tuples);
    }
    d
}

fn apply_relocation(graph: &FlowGraph, relocated: &BTreeSet<String>, _class: &str) -> FlowGraph {
    if relocated.is_empty() {
        return graph.clone();
    }
    let fix = |t: &Tuple| -> Tuple {
        if relocated.contains(t.root_name()) {
            let mut v = vec!["this".to_string(), t.root_name().to_string()];
            v.extend(t.0.iter().skip(1).cloned());
            Tuple(v)
        } else {
            t.clone()
        }
    };
    let mut g = FlowGraph {
        iloc_counter: graph.iloc_counter,
        ..Default::default()
    };
    for t in &graph.nodes {
        g.add_node(fix(t));
    }
    for (a, b) in graph.edge_pairs() {
        g.add_edge(fix(a), fix(b));
    }
    for t in &graph.self_flows {
        let f = fix(t);
        g.self_flows.insert(f.clone());
        g.add_node(f);
    }
    g
}

enum Classified {
    Method(String, String),
    Field(String, String, String),
    Skip,
}

fn classify(from: &Tuple, to: &Tuple, tenv: &TypeEnv<'_>, class: &str) -> Classified {
    let n = from.0.len().min(to.0.len());
    for i in 0..n {
        if from.0[i] != to.0[i] {
            if i == 0 {
                return Classified::Method(from.0[0].clone(), to.0[0].clone());
            }
            let Some(c) = class_of_prefix(from, i, tenv) else {
                return Classified::Skip;
            };
            let _ = class;
            return Classified::Field(c, from.0[i].clone(), to.0[i].clone());
        }
    }
    // One tuple is a prefix of the other (e.g. ⟨v⟩ → ⟨v,f⟩): legal by
    // lexicographic ordering, no constraint needed.
    Classified::Skip
}

fn classify_node(t: &Tuple, tenv: &TypeEnv<'_>, class: &str) -> Classified {
    if t.0.len() == 1 {
        Classified::Method(t.0[0].clone(), t.0[0].clone())
    } else {
        let _ = class;
        match class_of_prefix(t, t.0.len() - 1, tenv) {
            Some(c) => Classified::Field(c, t.0.last().expect("nonempty").clone(), String::new()),
            None => Classified::Skip,
        }
    }
}

/// The class owning position `i` of a tuple: the Java type of the
/// reference denoted by elements `0..i`.
fn class_of_prefix(t: &Tuple, i: usize, tenv: &TypeEnv<'_>) -> Option<String> {
    let root = t.root_name();
    let mut class = if root == "this" {
        tenv.class.clone()
    } else {
        match tenv.local(root)? {
            Type::Class(c) => c.clone(),
            Type::Array(_) => return None,
            _ => return None,
        }
    };
    for k in 1..i {
        let field = &t.0[k];
        let fd = tenv.program.field(&class, field)?;
        match &fd.ty {
            Type::Class(c) => class = c.clone(),
            _ => return None,
        }
    }
    Some(class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::build_flow_graphs;
    use sjava_analysis::callgraph;
    use sjava_syntax::diag::Diagnostics;
    use sjava_syntax::parse;

    fn decompose_src(src: &str) -> (Decomposition, CallGraph) {
        let p = parse(src).expect("parses");
        let mut d = Diagnostics::new();
        let cg = callgraph::build(&p, &mut d).expect("cg");
        let graphs = build_flow_graphs(&p, &cg);
        (decompose(&p, &cg, &graphs), cg)
    }

    #[test]
    fn field_flows_land_in_field_hierarchy() {
        let (d, _) = decompose_src(
            "class W { int a; int b; void main() { SSJAVA: while (true) {
                a = Device.read();
                b = a;
                Out.emit(b);
            } } }",
        );
        let fh = &d.fields["W"];
        assert!(fh.has_edge("a", "b"), "{fh}");
    }

    #[test]
    fn method_flows_land_in_method_hierarchy() {
        let (d, cg) = decompose_src(
            "class W { void main() { SSJAVA: while (true) {
                int x = Device.read();
                int y = x;
                Out.emit(y);
            } } }",
        );
        let mh = &d.methods[&cg.entry];
        assert!(mh.has_edge("x", "y"), "{mh}");
    }

    #[test]
    fn superfluous_cycle_relocates_local() {
        // The §5.2.2 local-variable example: f3 reads this.curHum and
        // writes this.index — naive method locations would cycle
        // this → f3 → this.
        let (d, cg) = decompose_src(
            "class Weather { float curHum; float index;
               void main() { SSJAVA: while (true) {
                 curHum = Device.readHumidity();
                 float f3 = curHum * curHum;
                 index = f3;
                 Out.emit(index);
               } } }",
        );
        let mh = &d.methods[&cg.entry];
        assert!(
            mh.find_cycle().is_none(),
            "method hierarchy must be acyclic"
        );
        // f3 was relocated into the field space.
        let vt = &d.var_tuples[&cg.entry]["f3"];
        assert_eq!(vt.0, vec!["this".to_string(), "f3".to_string()]);
        let fh = &d.fields["Weather"];
        assert!(fh.reaches("curHum", "f3"), "{fh}");
        assert!(fh.reaches("f3", "index"), "{fh}");
    }

    #[test]
    fn interprocedural_cycle_is_removed() {
        // §5.2.2 Parameters example.
        let (d, _) = decompose_src(
            "class Foo { int f; int g;
                void main() { SSJAVA: while (true) { f = Device.read(); caller(); Out.emit(g); } }
                void caller() { int h = f; callee(h); }
                void callee(int i) { g = i; }
             }",
        );
        let mh = &d.methods[&("Foo".to_string(), "caller".to_string())];
        assert!(mh.find_cycle().is_none());
        let fh = &d.fields["Foo"];
        assert!(fh.reaches("f", "g"), "{fh}");
    }

    #[test]
    fn unavoidable_cycle_becomes_shared() {
        // Two fields feeding each other across iterations: a→b and b→a.
        let (d, _) = decompose_src(
            "class W { int a; int b; void main() { SSJAVA: while (true) {
                int t = Device.read();
                a = b + t;
                b = a;
                Out.emit(b);
            } } }",
        );
        let fh = &d.fields["W"];
        let merged: Vec<&str> = fh.shared_nodes().collect();
        assert!(
            !merged.is_empty(),
            "cycle a<->b must merge into a shared node: {fh}"
        );
    }

    #[test]
    fn self_flow_is_shared_in_hierarchy() {
        let (d, cg) = decompose_src(
            "class W { void main() { SSJAVA: while (true) {
                int n = Device.read();
                int s = 0;
                s = s + n;
                Out.emit(s);
            } } }",
        );
        let mh = &d.methods[&cg.entry];
        assert!(mh.is_shared("s"), "{mh}");
    }
}
