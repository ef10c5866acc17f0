//! Content fingerprints for programs, methods, and the call graph.
//!
//! The invariant every cache key must uphold: **equal fingerprint ⇒
//! byte-identical analysis output**. Three layers compose:
//!
//! - [`iface_hash`] digests every class *interface* — name, superclass,
//!   class annotations (including `@LATTICE` declarations), all fields,
//!   and every method's signature (annotations, staticness, return type,
//!   parameters). Bodies are excluded. It keys the cached lattice model.
//!   Per-method entries and callee sets do not fold it: interface edits
//!   are handled by red-green revalidation of each one's recorded
//!   dependency facts ([`crate::deps`]), so a signature edit invalidates
//!   exactly the methods that *read* the changed declaration instead of
//!   the whole program.
//! - [`local_fp`] digests one method's resolved declaration. It keys the
//!   method's callee set and seeds its entry key.
//!
//! Every digest is **position-free**: a span is hashed as an offset from
//! the start of the declaration that holds it (method header, field or
//! class header) plus its length — never as an absolute byte offset (see
//! [`sjava_analysis::shard`], which owns the structural hashers). Text
//! inserted above a method therefore leaves its fingerprint, and its
//! cache entry, untouched. Cached diagnostics still embed spans, so the
//! cache stores them relative to the same declarations and rebases them
//! on replay (`crate::deps::Anchors`): an unchanged fingerprint means
//! every span inside the declaration sits at the same offset from its
//! start, so the rebased span is byte-right.
//! - [`method_fps`] folds, bottom-up over the call graph, each method's
//!   local fingerprint with `iface_hash` and the fingerprints of its
//!   (sorted) callees — the *coarse* dirty-cone judgment of the previous
//!   invalidation scheme. The cache no longer keys on it; it survives as
//!   the soundness oracle: the property suite asserts the fine-grained
//!   re-check set is always a subset of this coarse dirty set.
//!
//! All hashing is FNV-1a via [`sjava_lattice::fingerprint`]: stable
//! across processes and platforms, no randomness, no clocks.

use sjava_analysis::callgraph::{CallGraph, MethodRef};
use sjava_analysis::shard::hash_method;
use sjava_lattice::Fnv64;
use sjava_syntax::ast::Program;
use std::collections::{BTreeMap, HashMap};

/// Digest of every class interface in declaration order, folded from the
/// per-class [`sjava_analysis::shard::class_interface_hash`] summaries —
/// the same content addresses the per-method checkers read, so "the
/// interface summaries agree" and "the cache key matches" are one
/// judgment. Keys the cached lattice model and seeds the coarse
/// per-method fingerprints of [`method_fps`].
pub fn iface_hash(program: &Program) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(program.classes.len());
    for class in &program.classes {
        h.write_u64(sjava_analysis::shard::class_interface_hash(class));
    }
    h.finish()
}

/// Position-independent digest of a method's *name*: the key for
/// persisted per-method check-time measurements, which must survive body
/// and interface edits (a renamed method simply starts a fresh series).
pub fn name_hash(mref: &MethodRef) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&mref.0);
    h.write_str(&mref.1);
    h.finish()
}

/// Digest of one method reference's resolved declaration: the reference
/// itself, the declaring class it resolves to, and the full `MethodDecl`
/// (annotations, body, spans relative to the header's start — see
/// [`sjava_analysis::shard::hash_method`]). Unresolvable references hash
/// the reference alone.
pub fn local_fp(program: &Program, mref: &MethodRef) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&mref.0);
    h.write_str(&mref.1);
    if let Some((decl_class, method)) = program.resolve_method(&mref.0, &mref.1) {
        h.write_str(&decl_class.name);
        h.write_u64(decl_class.annots.trusted as u64);
        hash_method(&mut h, method);
    }
    h.finish()
}

/// Computes the content fingerprint of every reachable method, bottom-up
/// over `cg.topo` (callees first): `fp(m)` mixes `iface`, `local_fp(m)`,
/// and the fingerprints of `m`'s direct callees in sorted order. Because
/// callee fingerprints fold in transitively, "fingerprint has no cache
/// entry" is exactly the dirty-cone test — no separate propagation pass
/// is needed. `local` memoizes per-method local fingerprints so a caller
/// that already computed some (e.g. for callee-cache keys) never hashes
/// a method body twice in one check.
pub fn method_fps(
    program: &Program,
    cg: &CallGraph,
    iface: u64,
    local: &mut HashMap<MethodRef, u64>,
) -> BTreeMap<MethodRef, u64> {
    let mut fps: BTreeMap<MethodRef, u64> = BTreeMap::new();
    for mref in &cg.topo {
        let mut h = Fnv64::new();
        h.write_u64(iface);
        let lfp = *local
            .entry(mref.clone())
            .or_insert_with(|| local_fp(program, mref));
        h.write_u64(lfp);
        if let Some(cs) = cg.calls.get(mref) {
            h.write_usize(cs.len());
            for c in cs {
                // Topological order guarantees every callee is present.
                h.write_u64(*fps.get(c).unwrap_or(&0));
            }
        }
        fps.insert(mref.clone(), h.finish());
    }
    fps
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

    fn graph(p: &Program) -> CallGraph {
        let mut d = sjava_syntax::diag::Diagnostics::new();
        sjava_analysis::callgraph::build(p, &mut d).expect("cg")
    }

    fn fps(p: &Program) -> BTreeMap<MethodRef, u64> {
        method_fps(p, &graph(p), iface_hash(p), &mut HashMap::new())
    }

    #[test]
    fn fingerprints_are_reproducible() {
        let p1 = parse(SRC).expect("parses");
        let p2 = parse(SRC).expect("parses");
        assert_eq!(iface_hash(&p1), iface_hash(&p2));
        assert_eq!(fps(&p1), fps(&p2));
    }

    #[test]
    fn body_edit_dirties_exactly_the_caller_cone() {
        let p1 = parse(SRC).expect("parses");
        // Same shape, helper's body differs (only the call cone of
        // helper may change).
        let p2 = parse(&SRC.replace("int y = 2;", "int y = 3;")).expect("parses");
        assert_eq!(iface_hash(&p1), iface_hash(&p2));
        let (fps1, fps2) = (fps(&p1), fps(&p2));
        let m = |n: &str| ("A".to_string(), n.to_string());
        // helper, step (its caller), and main (transitive) are dirty...
        for n in ["helper", "step", "main"] {
            assert_ne!(fps1[&m(n)], fps2[&m(n)], "{n} should be dirty");
        }
        // ...but the unrelated leaf is untouched.
        assert_eq!(fps1[&m("other")], fps2[&m("other")]);
    }

    #[test]
    fn moving_a_method_keeps_its_local_fingerprint() {
        let p1 = parse(SRC).expect("parses");
        // `other`'s body grows, moving `helper`; a comment moves the class.
        let p2 = parse(&format!(
            "// c\n{}",
            SRC.replace("int x = 1;", "int x = 100;")
        ))
        .expect("parses");
        let m = |n: &str| ("A".to_string(), n.to_string());
        assert_eq!(local_fp(&p1, &m("helper")), local_fp(&p2, &m("helper")));
        assert_ne!(local_fp(&p1, &m("other")), local_fp(&p2, &m("other")));
    }

    #[test]
    fn lattice_annotation_edit_invalidates_everything() {
        let base = "@LATTICE(\"LO<HI\") class A { void main() { SSJAVA: while (true) { f(); } } void f() { } }";
        let edited = base.replace("LO<HI", "HI<LO");
        let p1 = parse(base).expect("parses");
        let p2 = parse(&edited).expect("parses");
        assert_ne!(iface_hash(&p1), iface_hash(&p2));
        let (fps1, fps2) = (fps(&p1), fps(&p2));
        for (m, fp) in &fps1 {
            assert_ne!(fp, &fps2[m], "{m:?} should be dirty after a lattice edit");
        }
    }

    #[test]
    fn structural_body_hash_sees_every_token() {
        // Pairs of programs differing in exactly one body token must get
        // different local fingerprints (guards against a walker that
        // forgets a field).
        let variants = [
            "class A { void f() { int x = 1; } }",
            "class A { void f() { int x = 2; } }",
            "class A { void f() { int y = 1; } }",
            "class A { void f() { if (true) { } } }",
            "class A { void f() { if (false) { } } }",
            "class A { void f() { return; } }",
        ];
        let mut seen = std::collections::BTreeSet::new();
        for v in variants {
            let p = parse(v).expect("parses");
            let fp = local_fp(&p, &("A".to_string(), "f".to_string()));
            assert!(seen.insert(fp), "collision for {v}");
        }
    }
}
