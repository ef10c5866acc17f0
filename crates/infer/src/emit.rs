//! Emission of inferred annotations back into the program (producing the
//! Fig 5.15-style annotated source).

use crate::graph::RET;
use crate::hierarchy::{resolve_alias_str, Decomposition};
use crate::lattgen::GenLattices;
use sjava_analysis::callgraph::{CallGraph, MethodRef};
use sjava_lattice::{FnvHashMap, Lattice, BOTTOM, TOP};
use sjava_syntax::annot::{CompositeLocAnnot, LatticeDecl, LocElem};
use sjava_syntax::ast::*;
use sjava_syntax::span::Span;

/// Writes the inferred lattices and locations into `program`, which the
/// caller owns: the AST is annotated in place, not copied.
pub fn annotate(program: &mut Program, cg: &CallGraph, d: &Decomposition, gen: &GenLattices) {
    // Reachable methods by name, so that each method's lookup is one
    // hash probe and copies no name.
    let reachable: FnvHashMap<(&str, &str), &MethodRef> = cg
        .topo
        .iter()
        .map(|mref| ((mref.0.as_str(), mref.1.as_str()), mref))
        .collect();
    for class in &mut program.classes {
        let class_name: &str = &class.name;
        if let Some(lat) = gen.fields.get(class_name) {
            if lat.named_len() > 0 {
                class.annots.lattice = Some(lattice_decl(lat));
            }
        }
        let field_alias = d.field_alias.get(class_name);
        let field_assign = gen.field_assign.get(class_name);
        // The location a field-space node was assigned, through merges.
        let field_loc = |name: &str| -> String {
            let node = resolve_alias_str(field_alias, name);
            field_assign
                .and_then(|a| a.get(node))
                .map_or(node, String::as_str)
                .to_string()
        };
        for field in &mut class.fields {
            if field.is_static && field.is_final {
                continue; // constants live at ⊤, no annotation needed
            }
            field.annots.loc = Some(plain_loc(field_loc(&field.name)));
        }
        for method in &mut class.methods {
            let Some(&mref) = reachable.get(&(class_name, method.name.as_str())) else {
                continue;
            };
            let Some(lat) = gen.methods.get(mref) else {
                continue;
            };
            method.annots.lattice = Some(lattice_decl(lat));
            if !method.is_static {
                method.annots.this_loc = Some("this".to_string());
            }
            let method_alias = d.method_alias.get(mref);
            let massign = gen.method_assign.get(mref);
            let resolve_m = |name: &str| -> String {
                let node = resolve_alias_str(method_alias, name);
                massign
                    .and_then(|a| a.get(node))
                    .map_or(node, String::as_str)
                    .to_string()
            };
            if method.ret != Type::Void {
                method.annots.return_loc = Some(plain_loc(resolve_m(RET)));
            }
            // Parameter and local locations from the variable tuples.
            let tuples = d.var_tuples.get(mref);
            let var_annot = |var: &str| -> Option<CompositeLocAnnot> {
                let t = tuples.and_then(|m| m.get(var))?;
                if t.0.len() == 1 {
                    Some(plain_loc(resolve_m(var)))
                } else {
                    // Relocated local: ⟨this, v⟩ with v a field location of
                    // the current class.
                    Some(CompositeLocAnnot::new(vec![
                        LocElem::plain("this"),
                        LocElem::qualified(class_name, field_loc(&t.0[1])),
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
}

/// A one-element location annotation, `@LOC("name")`.
fn plain_loc(name: String) -> CompositeLocAnnot {
    CompositeLocAnnot::new(vec![LocElem::plain(name)])
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
    // Whether each location appears in an order or as shared, by id.
    let mut connected = vec![false; lat.len()];
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
            connected[id.0 as usize] = true;
            connected[hi.0 as usize] = true;
        }
    }
    for (id, name) in lat.named() {
        if lat.is_shared(id) {
            decl.shared.push(name.to_string());
            connected[id.0 as usize] = true;
        }
    }
    for (id, name) in lat.named() {
        if !connected[id.0 as usize] {
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
