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

use sjava_lattice::{hash_debug, Fnv64};
use sjava_syntax::ast::{Block, ClassDecl, Program};
use sjava_syntax::span::Span;
use std::collections::BTreeMap;
use std::sync::OnceLock;

fn span_bits(s: Span) -> u64 {
    ((s.start as u64) << 32) | s.end as u64
}

/// Content hash of one class *interface*: name, superclass, class
/// annotations (including `@LATTICE` declarations), every field
/// (annotations, modifiers, type, initializer), and every method's
/// signature (annotations, staticness, return type, parameters, span).
/// Method bodies are excluded — by construction, this is exactly the
/// information a per-method check of another class may depend on. Spans are included because
/// diagnostics embed them: an interface whose text moved must re-key.
pub fn class_interface_hash(class: &ClassDecl) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&class.name);
    match &class.superclass {
        Some(s) => {
            h.write_u64(1);
            h.write_str(s);
        }
        None => h.write_u64(0),
    }
    h.write_u64(hash_debug(&class.annots));
    h.write_u64(span_bits(class.span));
    h.write_usize(class.fields.len());
    for f in &class.fields {
        h.write_u64(hash_debug(f));
    }
    h.write_usize(class.methods.len());
    for m in &class.methods {
        h.write_str(&m.name);
        h.write_u64(m.is_static as u64);
        h.write_u64(hash_debug(&m.annots));
        h.write_u64(hash_debug(&m.ret));
        h.write_u64(hash_debug(&m.params));
        h.write_u64(span_bits(m.span));
    }
    h.finish()
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
