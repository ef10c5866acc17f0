//! Explicit per-method checker inputs: interface summaries + bodies.
//!
//! The paper's per-method judgments (§4) depend only on the method's own
//! body plus *declared* facts about everything it references — class
//! lattices, field `@LOC`s, method signatures with their `@LOC` /
//! `@DELTA` / `@DELEGATE` annotations, and callee effect summaries. This
//! module makes that dependency explicit: the per-method checkers take a
//! [`ShardInput`] program view rather than a bare `Program`, and every
//! interface fact they consult about another class goes through its
//! content-addressed [`InterfaceSummary`] hash. That contract — a
//! per-method check reads no foreign method body — is what lets
//! `sjava-cache` key a method's cached result on its own body and its
//! callees' summary hashes alone; `crates/bench/tests/body_isolation.rs`
//! checks it on the paper apps and the adversarial stress corpus.
//!
//! Every interface summary is content-addressed: [`class_interface_hash`]
//! digests the body-stripped declaration (FNV-64, stable across processes
//! and platforms), so two sessions sharing an artifact store — or two CI
//! runs — agree on whether they checked against the same interface
//! without shipping the declaration itself.
//!
//! The digests are **position-free**: a span is hashed as an offset from
//! the start of the declaration that holds it (method header, field or
//! class header) plus its length, never as an absolute byte offset. Text
//! inserted before a declaration moves it without changing its digest;
//! text inserted inside it changes the digest. The same structural
//! hashers ([`hash_class_header`], [`hash_field`],
//! [`hash_method_header`], [`hash_method`]) key the incremental cache's
//! per-method entries and dependency facts, so "the declaration is
//! unchanged up to where it sits" is one judgment everywhere.

use sjava_lattice::Fnv64;
use sjava_syntax::annot::{ClassAnnots, CompositeLocAnnot, LatticeDecl, MethodAnnots, VarAnnots};
use sjava_syntax::ast::{
    Block, CallExpr, ClassDecl, Expr, FieldDecl, LValue, LoopKind, MethodDecl, Param, Program,
    Stmt, Type,
};
use sjava_syntax::span::Span;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A span as its offset from `anchor` (the start of the declaration that
/// holds it, wrapping for annotations written before it) and its length.
fn rel(s: Span, anchor: u32) -> u64 {
    (u64::from(s.start.wrapping_sub(anchor)) << 32) | u64::from(s.end.wrapping_sub(s.start))
}

/// Content hash of one class *interface*: the class header (name,
/// superclass, class annotations including `@LATTICE` and
/// `@METHODDEFAULT` declarations), every field (annotations, modifiers,
/// type, initializer), and every method's signature (annotations,
/// staticness, return type, parameters). Method bodies are excluded — by
/// construction, this is exactly the information a per-method check of
/// another class may depend on. Spans enter position-free (see the
/// module doc), each relative to its own declaration, so moving the class
/// keeps the hash and re-laying-out any declaration in it changes it.
pub fn class_interface_hash(class: &ClassDecl) -> u64 {
    let mut h = Fnv64::new();
    hash_class_header(&mut h, class);
    h.write_usize(class.fields.len());
    for f in &class.fields {
        hash_field(&mut h, f);
    }
    h.write_usize(class.methods.len());
    for m in &class.methods {
        hash_method_header(&mut h, m);
    }
    h.finish()
}

/// Folds a class header into `h`: name, superclass, class annotations
/// and the header span, spans relative to the header's start.
pub fn hash_class_header(h: &mut Fnv64, class: &ClassDecl) {
    let anchor = class.span.start;
    h.write_str(&class.name);
    match &class.superclass {
        Some(s) => {
            h.write_u64(1);
            h.write_str(s);
        }
        None => h.write_u64(0),
    }
    let ClassAnnots {
        lattice,
        method_default,
        trusted,
    } = &class.annots;
    hash_lattice_decl(h, lattice.as_ref(), anchor);
    match method_default {
        Some(md) => {
            h.write_u64(1);
            hash_method_annots(h, md, anchor);
        }
        None => h.write_u64(0),
    }
    h.write_u64(u64::from(*trusted));
    h.write_u64(rel(class.span, anchor));
}

/// Folds a lattice declaration into `h`: its orderings and markers, and
/// its span relative to `anchor`.
pub fn hash_lattice_decl(h: &mut Fnv64, decl: Option<&LatticeDecl>, anchor: u32) {
    match decl {
        Some(LatticeDecl {
            orders,
            shared,
            isolated,
            span,
        }) => {
            h.write_u64(1);
            h.write_usize(orders.len());
            for (lo, hi) in orders {
                h.write_str(lo);
                h.write_str(hi);
            }
            for names in [shared, isolated] {
                h.write_usize(names.len());
                for n in names {
                    h.write_str(n);
                }
            }
            h.write_u64(rel(*span, anchor));
        }
        None => h.write_u64(0),
    }
}

/// Folds method annotations into `h`, the lattice span relative to
/// `anchor`.
pub fn hash_method_annots(h: &mut Fnv64, annots: &MethodAnnots, anchor: u32) {
    let MethodAnnots {
        lattice,
        this_loc,
        global_loc,
        return_loc,
        pc_loc,
        trusted,
    } = annots;
    hash_lattice_decl(h, lattice.as_ref(), anchor);
    hash_opt_str(h, this_loc);
    hash_opt_str(h, global_loc);
    hash_loc(h, return_loc);
    hash_loc(h, pc_loc);
    h.write_u64(u64::from(*trusted));
}

/// Folds a field declaration into `h`, spans relative to its start.
pub fn hash_field(h: &mut Fnv64, field: &FieldDecl) {
    let FieldDecl {
        annots,
        is_static,
        is_final,
        ty,
        name,
        init,
        span,
    } = field;
    let anchor = span.start;
    hash_var_annots(h, annots);
    h.write_u64(u64::from(*is_static) | u64::from(*is_final) << 1);
    hash_type(h, ty);
    h.write_str(name);
    hash_opt_expr(h, init, anchor);
    h.write_u64(rel(*span, anchor));
}

/// Folds a method signature into `h` (name, staticness, annotations,
/// return type, parameters, header span), spans relative to the header's
/// start.
pub fn hash_method_header(h: &mut Fnv64, m: &MethodDecl) {
    let anchor = m.span.start;
    h.write_str(&m.name);
    h.write_u64(u64::from(m.is_static));
    hash_method_annots(h, &m.annots, anchor);
    hash_type(h, &m.ret);
    h.write_usize(m.params.len());
    for Param {
        annots,
        ty,
        name,
        span,
    } in &m.params
    {
        hash_var_annots(h, annots);
        hash_type(h, ty);
        h.write_str(name);
        h.write_u64(rel(*span, anchor));
    }
    h.write_u64(rel(m.span, anchor));
}

/// Folds a whole method declaration into `h`: the signature
/// ([`hash_method_header`]) and the body, every span relative to the
/// header's start. Bodies are hashed structurally (a direct walk of the
/// AST), not via `Debug` formatting — the formatter is an order of
/// magnitude slower on large unrolled methods, and the incremental cache
/// hashes every method on every check.
pub fn hash_method(h: &mut Fnv64, m: &MethodDecl) {
    hash_method_header(h, m);
    hash_block(h, &m.body, m.span.start);
}

/// A content-addressed, body-stripped class declaration: everything a
/// per-method check of some other class may learn about this one.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceSummary {
    /// The declaration with every method body emptied (spans retained).
    pub class: ClassDecl,
    /// [`class_interface_hash`] of the original declaration. Stripping
    /// only removes bodies, which the hash never covered, so hashing
    /// before or after stripping yields the same value.
    pub hash: u64,
}

/// Extracts the interface summary of a class declaration.
pub fn interface_of(class: &ClassDecl) -> InterfaceSummary {
    let hash = class_interface_hash(class);
    let mut stripped = class.clone();
    for m in &mut stripped.methods {
        m.body = Block {
            stmts: Vec::new(),
            span: m.body.span,
        };
    }
    InterfaceSummary {
        class: stripped,
        hash,
    }
}

/// The explicit input the per-method checkers run against: a program
/// view plus the content hashes of every class interface it exposes.
///
/// Per-method check paths (`check_method_flows`, `check_method_aliasing`,
/// `summarize`, `method_shared_summary`, `termination::check_method`)
/// take `&ShardInput` instead of `&Program`; the pipeline wraps its
/// program with [`ShardInput::whole`].
#[derive(Debug)]
pub struct ShardInput<'p> {
    program: &'p Program,
    /// Lazily-computed per-class interface hashes of the view.
    hashes: OnceLock<BTreeMap<String, u64>>,
}

impl<'p> ShardInput<'p> {
    /// The input view over a whole program.
    pub fn whole(program: &'p Program) -> Self {
        ShardInput {
            program,
            hashes: OnceLock::new(),
        }
    }

    /// The program view.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Content-addressed interface summary hashes per class name,
    /// computed on first use.
    pub fn summary_hashes(&self) -> &BTreeMap<String, u64> {
        self.hashes.get_or_init(|| {
            self.program
                .classes
                .iter()
                .map(|c| (c.name.clone(), class_interface_hash(c)))
                .collect()
        })
    }

    /// The interface summary hash of one class, if declared. This is a
    /// tracked read: inside a [`sjava_syntax::track::ReadScope`] it
    /// records a whole-interface dependency on `class`, since the summary
    /// hash covers every interface fact of the class.
    pub fn summary_hash(&self, class: &str) -> Option<u64> {
        sjava_syntax::track::record_iface(class);
        self.summary_hashes().get(class).copied()
    }
}

// The leaves below are hashed directly rather than through `Debug`
// formatting, which costs several times more and runs for every node of
// every method on every incremental check.

fn hash_opt_str(h: &mut Fnv64, s: &Option<String>) {
    match s {
        Some(s) => {
            h.write_u64(1);
            h.write_str(s);
        }
        None => h.write_u64(0),
    }
}

fn hash_type(h: &mut Fnv64, ty: &Type) {
    match ty {
        Type::Int => h.write_u64(1),
        Type::Float => h.write_u64(2),
        Type::Boolean => h.write_u64(3),
        Type::Str => h.write_u64(4),
        Type::Void => h.write_u64(5),
        Type::Class(c) => {
            h.write_u64(6);
            h.write_str(c);
        }
        Type::Array(e) => {
            h.write_u64(7);
            hash_type(h, e);
        }
    }
}

fn hash_loc(h: &mut Fnv64, loc: &Option<CompositeLocAnnot>) {
    match loc {
        Some(CompositeLocAnnot { delta, elems }) => {
            h.write_u64(1);
            h.write_usize(*delta);
            h.write_usize(elems.len());
            for e in elems {
                hash_opt_str(h, &e.class);
                h.write_str(&e.name);
            }
        }
        None => h.write_u64(0),
    }
}

fn hash_var_annots(h: &mut Fnv64, annots: &VarAnnots) {
    let VarAnnots { loc, delegate } = annots;
    hash_loc(h, loc);
    h.write_u64(u64::from(*delegate));
}

fn hash_loop_kind(h: &mut Fnv64, kind: &LoopKind) {
    match kind {
        LoopKind::Plain => h.write_u64(1),
        LoopKind::EventLoop => h.write_u64(2),
        LoopKind::Trusted(label) => {
            h.write_u64(3);
            h.write_str(label);
        }
        LoopKind::MaxLoop(n) => {
            h.write_u64(4);
            h.write_u64(*n);
        }
    }
}

fn hash_block(h: &mut Fnv64, b: &Block, anchor: u32) {
    h.write_u64(rel(b.span, anchor));
    h.write_usize(b.stmts.len());
    for s in &b.stmts {
        hash_stmt(h, s, anchor);
    }
}

fn hash_opt_expr(h: &mut Fnv64, e: &Option<Expr>, anchor: u32) {
    match e {
        Some(e) => {
            h.write_u64(1);
            hash_expr(h, e, anchor);
        }
        None => h.write_u64(0),
    }
}

fn hash_stmt(h: &mut Fnv64, s: &Stmt, anchor: u32) {
    match s {
        Stmt::VarDecl {
            annots,
            ty,
            name,
            init,
            span,
        } => {
            h.write_u64(1);
            hash_var_annots(h, annots);
            hash_type(h, ty);
            h.write_str(name);
            hash_opt_expr(h, init, anchor);
            h.write_u64(rel(*span, anchor));
        }
        Stmt::Assign { lhs, rhs, span } => {
            h.write_u64(2);
            hash_lvalue(h, lhs, anchor);
            hash_expr(h, rhs, anchor);
            h.write_u64(rel(*span, anchor));
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
            span,
        } => {
            h.write_u64(3);
            hash_expr(h, cond, anchor);
            hash_block(h, then_blk, anchor);
            match else_blk {
                Some(b) => {
                    h.write_u64(1);
                    hash_block(h, b, anchor);
                }
                None => h.write_u64(0),
            }
            h.write_u64(rel(*span, anchor));
        }
        Stmt::While {
            kind,
            cond,
            body,
            span,
        } => {
            h.write_u64(4);
            hash_loop_kind(h, kind);
            hash_expr(h, cond, anchor);
            hash_block(h, body, anchor);
            h.write_u64(rel(*span, anchor));
        }
        Stmt::For {
            kind,
            init,
            cond,
            update,
            body,
            span,
        } => {
            h.write_u64(5);
            hash_loop_kind(h, kind);
            match init {
                Some(s) => {
                    h.write_u64(1);
                    hash_stmt(h, s, anchor);
                }
                None => h.write_u64(0),
            }
            hash_opt_expr(h, cond, anchor);
            match update {
                Some(s) => {
                    h.write_u64(1);
                    hash_stmt(h, s, anchor);
                }
                None => h.write_u64(0),
            }
            hash_block(h, body, anchor);
            h.write_u64(rel(*span, anchor));
        }
        Stmt::Return { value, span } => {
            h.write_u64(6);
            hash_opt_expr(h, value, anchor);
            h.write_u64(rel(*span, anchor));
        }
        Stmt::Break { span } => {
            h.write_u64(7);
            h.write_u64(rel(*span, anchor));
        }
        Stmt::Continue { span } => {
            h.write_u64(8);
            h.write_u64(rel(*span, anchor));
        }
        Stmt::ExprStmt { expr, span } => {
            h.write_u64(9);
            hash_expr(h, expr, anchor);
            h.write_u64(rel(*span, anchor));
        }
        Stmt::Block(b) => {
            h.write_u64(10);
            hash_block(h, b, anchor);
        }
    }
}

fn hash_lvalue(h: &mut Fnv64, l: &LValue, anchor: u32) {
    match l {
        LValue::Var { name, span } => {
            h.write_u64(1);
            h.write_str(name);
            h.write_u64(rel(*span, anchor));
        }
        LValue::Field { base, field, span } => {
            h.write_u64(2);
            hash_expr(h, base, anchor);
            h.write_str(field);
            h.write_u64(rel(*span, anchor));
        }
        LValue::Index { base, index, span } => {
            h.write_u64(3);
            hash_expr(h, base, anchor);
            hash_expr(h, index, anchor);
            h.write_u64(rel(*span, anchor));
        }
        LValue::StaticField { class, field, span } => {
            h.write_u64(4);
            h.write_str(class);
            h.write_str(field);
            h.write_u64(rel(*span, anchor));
        }
    }
}

fn hash_expr(h: &mut Fnv64, e: &Expr, anchor: u32) {
    match e {
        Expr::IntLit { value, span } => {
            h.write_u64(1);
            h.write_u64(*value as u64);
            h.write_u64(rel(*span, anchor));
        }
        Expr::FloatLit { value, span } => {
            h.write_u64(2);
            h.write_u64(value.to_bits());
            h.write_u64(rel(*span, anchor));
        }
        Expr::BoolLit { value, span } => {
            h.write_u64(3);
            h.write_u64(*value as u64);
            h.write_u64(rel(*span, anchor));
        }
        Expr::StrLit { value, span } => {
            h.write_u64(4);
            h.write_str(value);
            h.write_u64(rel(*span, anchor));
        }
        Expr::Null { span } => {
            h.write_u64(5);
            h.write_u64(rel(*span, anchor));
        }
        Expr::This { span } => {
            h.write_u64(6);
            h.write_u64(rel(*span, anchor));
        }
        Expr::Var { name, span } => {
            h.write_u64(7);
            h.write_str(name);
            h.write_u64(rel(*span, anchor));
        }
        Expr::Field { base, field, span } => {
            h.write_u64(8);
            hash_expr(h, base, anchor);
            h.write_str(field);
            h.write_u64(rel(*span, anchor));
        }
        Expr::StaticField { class, field, span } => {
            h.write_u64(9);
            h.write_str(class);
            h.write_str(field);
            h.write_u64(rel(*span, anchor));
        }
        Expr::Index { base, index, span } => {
            h.write_u64(10);
            hash_expr(h, base, anchor);
            hash_expr(h, index, anchor);
            h.write_u64(rel(*span, anchor));
        }
        Expr::Length { base, span } => {
            h.write_u64(11);
            hash_expr(h, base, anchor);
            h.write_u64(rel(*span, anchor));
        }
        Expr::Call(call) => {
            let CallExpr {
                recv,
                class_recv,
                name,
                args,
                span,
            } = &**call;
            h.write_u64(12);
            match recv {
                Some(r) => {
                    h.write_u64(1);
                    hash_expr(h, r, anchor);
                }
                None => h.write_u64(0),
            }
            match class_recv {
                Some(c) => {
                    h.write_u64(1);
                    h.write_str(c);
                }
                None => h.write_u64(0),
            }
            h.write_str(name);
            h.write_usize(args.len());
            for a in args {
                hash_expr(h, a, anchor);
            }
            h.write_u64(rel(*span, anchor));
        }
        Expr::New { class, span } => {
            h.write_u64(13);
            h.write_str(class);
            h.write_u64(rel(*span, anchor));
        }
        Expr::NewArray { elem, len, span } => {
            h.write_u64(14);
            hash_type(h, elem);
            hash_expr(h, len, anchor);
            h.write_u64(rel(*span, anchor));
        }
        Expr::Unary { op, operand, span } => {
            h.write_u64(15);
            h.write_u64(*op as u64);
            hash_expr(h, operand, anchor);
            h.write_u64(rel(*span, anchor));
        }
        Expr::Binary { op, lhs, rhs, span } => {
            h.write_u64(16);
            h.write_u64(*op as u64);
            hash_expr(h, lhs, anchor);
            hash_expr(h, rhs, anchor);
            h.write_u64(rel(*span, anchor));
        }
        Expr::Cast { ty, operand, span } => {
            h.write_u64(17);
            hash_type(h, ty);
            hash_expr(h, operand, anchor);
            h.write_u64(rel(*span, anchor));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_syntax::parse;

    const SRC: &str = "class A {
        void main() { SSJAVA: while (true) { step(); other(); } }
        void step() { helper(); }
        void other() { int x = 1; }
        void helper() { int y = 2; }
     }";

    #[test]
    fn interface_hash_ignores_bodies_but_sees_signatures() {
        let p1 = parse(SRC).expect("parses");
        // Body edit of identical byte length: spans unchanged.
        let p2 = parse(&SRC.replace("int y = 2;", "int y = 7;")).expect("parses");
        assert_eq!(
            class_interface_hash(&p1.classes[0]),
            class_interface_hash(&p2.classes[0]),
        );
        let p3 = parse(&SRC.replace("void helper()", "int  helper()")).expect("parses");
        assert_ne!(
            class_interface_hash(&p1.classes[0]),
            class_interface_hash(&p3.classes[0]),
        );
    }

    #[test]
    fn interface_hash_is_position_free() {
        let p1 = parse(SRC).expect("parses");
        let hash = |src: &str| class_interface_hash(&parse(src).expect("parses").classes[0]);
        // Text before the class, or a longer body before `helper`'s
        // header, moves declarations without changing any of them.
        assert_eq!(
            class_interface_hash(&p1.classes[0]),
            hash(&format!("// c\n{SRC}"))
        );
        assert_eq!(
            class_interface_hash(&p1.classes[0]),
            hash(&SRC.replace("int x = 1;", "int x = 100;"))
        );
        // A space inside a signature re-lays-out that declaration.
        assert_ne!(
            class_interface_hash(&p1.classes[0]),
            hash(&SRC.replace("void helper()", "void helper( )"))
        );
    }

    #[test]
    fn interface_of_strips_bodies_and_keeps_hash() {
        let p = parse(SRC).expect("parses");
        let iface = interface_of(&p.classes[0]);
        assert!(iface.class.methods.iter().all(|m| m.body.stmts.is_empty()));
        assert_eq!(iface.hash, class_interface_hash(&p.classes[0]));
        // Hashing the stripped declaration reproduces the hash: the
        // interface digest never covered bodies.
        assert_eq!(iface.hash, class_interface_hash(&iface.class));
    }

    #[test]
    fn whole_view_exposes_every_summary_hash() {
        let p = parse(SRC).expect("parses");
        let shard = ShardInput::whole(&p);
        assert_eq!(
            shard.summary_hash("A"),
            Some(class_interface_hash(&p.classes[0])),
        );
        assert_eq!(shard.summary_hash("Nope"), None);
    }
}
