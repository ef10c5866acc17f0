//! Emission of inferred annotations back into the program (producing the
//! Fig 5.15-style annotated source).

use crate::graph::RET;
use crate::hierarchy::Decomposition;
use crate::lattgen::GenLattices;
use sjava_analysis::callgraph::CallGraph;
use sjava_lattice::{Lattice, BOTTOM, TOP};
use sjava_syntax::annot::{CompositeLocAnnot, LatticeDecl, LocElem};
use sjava_syntax::ast::*;
use sjava_syntax::span::Span;

/// Annotates a copy of `program` with the inferred lattices and locations.
pub fn annotate(
    program: &Program,
    cg: &CallGraph,
    d: &Decomposition,
    gen: &GenLattices,
) -> Program {
    let mut p = program.clone();
    for class in &mut p.classes {
        if let Some(lat) = gen.fields.get(&class.name) {
            if lat.named_len() > 0 {
                class.annots.lattice = Some(lattice_decl(lat));
            }
        }
        let class_name = class.name.clone();
        for field in &mut class.fields {
            if field.is_static && field.is_final {
                continue; // constants live at ⊤, no annotation needed
            }
            let node = d.field_name(&class_name, &field.name);
            let loc = gen
                .field_assign
                .get(&class_name)
                .and_then(|a| a.get(&node))
                .cloned()
                .unwrap_or(node);
            field.annots.loc = Some(CompositeLocAnnot::new(vec![LocElem::plain(loc)]));
        }
        for method in &mut class.methods {
            let mref = (class_name.clone(), method.name.clone());
            if !cg.topo.contains(&mref) {
                continue;
            }
            let Some(lat) = gen.methods.get(&mref) else {
                continue;
            };
            method.annots.lattice = Some(lattice_decl(lat));
            if !method.is_static {
                method.annots.this_loc = Some("this".to_string());
            }
            let massign = gen.method_assign.get(&mref);
            let resolve_m = |name: &str| -> String {
                let node = d.method_name(&mref, name);
                massign.and_then(|a| a.get(&node)).cloned().unwrap_or(node)
            };
            if method.ret != Type::Void {
                method.annots.return_loc =
                    Some(CompositeLocAnnot::new(vec![LocElem::plain(resolve_m(RET))]));
            }
            // Parameter and local locations from the variable tuples.
            let tuples = d.var_tuples.get(&mref);
            let var_annot = |var: &str| -> Option<CompositeLocAnnot> {
                let t = tuples.and_then(|m| m.get(var))?;
                if t.0.len() == 1 {
                    Some(CompositeLocAnnot::new(vec![LocElem::plain(resolve_m(var))]))
                } else {
                    // Relocated local: ⟨this, v⟩ with v a field location of
                    // the current class.
                    let node = d.field_name(&class_name, &t.0[1]);
                    let floc = gen
                        .field_assign
                        .get(&class_name)
                        .and_then(|a| a.get(&node))
                        .cloned()
                        .unwrap_or(node);
                    Some(CompositeLocAnnot::new(vec![
                        LocElem::plain("this"),
                        LocElem::qualified(class_name.clone(), floc),
                    ]))
                }
            };
            for param in &mut method.params {
                if let Some(a) = var_annot(&param.name) {
                    param.annots.loc = Some(a);
                }
            }
            annotate_block(&mut method.body, &var_annot);
        }
    }
    p
}

fn annotate_block(block: &mut Block, var_annot: &dyn Fn(&str) -> Option<CompositeLocAnnot>) {
    for s in &mut block.stmts {
        annotate_stmt(s, var_annot);
    }
}

fn annotate_stmt(stmt: &mut Stmt, var_annot: &dyn Fn(&str) -> Option<CompositeLocAnnot>) {
    match stmt {
        Stmt::VarDecl { annots, name, .. } => {
            if let Some(a) = var_annot(name) {
                annots.loc = Some(a);
            }
        }
        Stmt::If {
            then_blk, else_blk, ..
        } => {
            annotate_block(then_blk, var_annot);
            if let Some(e) = else_blk {
                annotate_block(e, var_annot);
            }
        }
        Stmt::While { body, .. } => annotate_block(body, var_annot),
        Stmt::For {
            init, update, body, ..
        } => {
            if let Some(i) = init {
                annotate_stmt(i, var_annot);
            }
            if let Some(u) = update {
                annotate_stmt(u, var_annot);
            }
            annotate_block(body, var_annot);
        }
        Stmt::Block(b) => annotate_block(b, var_annot),
        _ => {}
    }
}

/// Converts a lattice back into an annotation declaration.
pub fn lattice_decl(lat: &Lattice) -> LatticeDecl {
    let mut decl = LatticeDecl::default();
    let mut connected: std::collections::BTreeSet<String> = Default::default();
    for id in lat.ids() {
        if id == TOP || id == BOTTOM {
            continue;
        }
        for &hi in lat.directly_above(id) {
            if hi == TOP {
                continue;
            }
            decl.orders
                .push((lat.name(id).to_string(), lat.name(hi).to_string()));
            connected.insert(lat.name(id).to_string());
            connected.insert(lat.name(hi).to_string());
        }
    }
    for (id, name) in lat.named() {
        if lat.is_shared(id) {
            decl.shared.push(name.to_string());
            connected.insert(name.to_string());
        }
    }
    for (_, name) in lat.named() {
        if !connected.contains(name) {
            decl.isolated.push(name.to_string());
        }
    }
    decl.span = Span::dummy();
    decl
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_decl_round_trips_through_parser() {
        let lat = Lattice::from_decl(
            &[("A".into(), "B".into()), ("B".into(), "C".into())],
            &["I".into()],
            &["Z".into()],
        )
        .expect("ok");
        let decl = lattice_decl(&lat);
        let rebuilt = Lattice::from_decl(&decl.orders, &decl.shared, &decl.isolated).expect("ok");
        for (id, name) in lat.named() {
            let rid = rebuilt.get(name).expect("name preserved");
            assert_eq!(lat.is_shared(id), rebuilt.is_shared(rid));
        }
        let a = rebuilt.get("A").expect("a");
        let c = rebuilt.get("C").expect("c");
        assert!(rebuilt.lt(a, c));
    }
}
