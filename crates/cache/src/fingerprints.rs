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
//!   dependency facts (the crate's `deps` module), so a signature edit
//!   invalidates exactly the methods that *read* the changed declaration
//!   instead of the whole program.
//! - [`local_fp`] digests one method's resolved declaration. It keys the
//!   method's callee set and seeds its entry key.
//!
//! Both fold per-declaration digests (a class interface, a method
//! declaration). A session memoizes those per declaration (`Digests`)
//! and, through `IncrementalChecker::check_source`, carries them across
//! checks for every class whose compilation unit did not change: an
//! unchanged class costs no hashing. `local_fp` still resolves the method
//! on every check and folds the declaring class it finds, so inheritance
//! stays exact.
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
use sjava_analysis::heappath::HeapPath;
use sjava_analysis::shard::{class_interface_hash, hash_method};
use sjava_analysis::written::MethodSummary;
use sjava_core::shared::SharedMember;
use sjava_lattice::Fnv64;
use sjava_syntax::ast::{ClassDecl, MethodDecl, Program};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::OnceLock;

/// Digest of every class interface in declaration order, folded from the
/// per-class [`sjava_analysis::shard::class_interface_hash`] summaries —
/// the same content addresses the per-method checkers read, so "the
/// interface summaries agree" and "the cache key matches" are one
/// judgment. Keys the cached lattice model and seeds the coarse
/// per-method fingerprints of [`method_fps`].
pub fn iface_hash(program: &Program) -> u64 {
    Digests::new(program).iface_hash(program)
}

/// The position-free digest of one method declaration
/// ([`sjava_analysis::shard::hash_method`]), the sub-digest [`local_fp`]
/// folds.
fn method_digest(method: &MethodDecl) -> u64 {
    let mut h = Fnv64::new();
    hash_method(&mut h, method);
    h.finish()
}

/// One memoized digest of a class: of the whole declaration or of one
/// facet of it. What each holds is up to the caller that fills it
/// ([`Digests::memo`]); every one is position-free.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// The class interface ([`class_interface_hash`]).
    Iface,
    /// The class header.
    Header,
    /// The class `@LATTICE` declaration.
    Lattice,
    /// Field `i`.
    Field(usize),
    /// The whole declaration of method `i` ([`method_digest`]).
    Method(usize),
    /// The signature of method `i`.
    MethodHeader(usize),
    /// The effective annotations of method `i`.
    MethodAnnots(usize),
}

/// Memoized digests of one class, indexed by [`Slot`].
#[derive(Debug, Default)]
struct ClassDigests {
    class: [OnceLock<u64>; 3],
    fields: Box<[OnceLock<u64>]>,
    methods: Box<[[OnceLock<u64>; 3]]>,
}

impl ClassDigests {
    fn of(class: &ClassDecl) -> Self {
        ClassDigests {
            class: Default::default(),
            fields: class.fields.iter().map(|_| OnceLock::new()).collect(),
            methods: class.methods.iter().map(|_| Default::default()).collect(),
        }
    }

    fn slot(&self, slot: Slot) -> &OnceLock<u64> {
        match slot {
            Slot::Iface => &self.class[0],
            Slot::Header => &self.class[1],
            Slot::Lattice => &self.class[2],
            Slot::Field(i) => &self.fields[i],
            Slot::Method(i) => &self.methods[i][0],
            Slot::MethodHeader(i) => &self.methods[i][1],
            Slot::MethodAnnots(i) => &self.methods[i][2],
        }
    }
}

/// Per-declaration digests of one program, computed on first use (from
/// any thread) and aligned with its classes. The digests are
/// position-free, so a class that only moved keeps them:
/// [`Digests::carry`] moves them to the classes of the next revision.
#[derive(Debug, Default)]
pub(crate) struct Digests {
    classes: Vec<ClassDigests>,
}

impl Digests {
    /// Empty memo slots for every declaration of `program`.
    pub(crate) fn new(program: &Program) -> Self {
        Digests {
            classes: program.classes.iter().map(ClassDigests::of).collect(),
        }
    }

    /// The memo for `program`, a later revision of the program these
    /// digests describe: class `i` of `program` keeps the digests of
    /// class `origins[i]` (which it equals up to position) and starts
    /// empty where that is `None`.
    pub(crate) fn carry(mut self, origins: &[Option<usize>], program: &Program) -> Self {
        let classes = origins
            .iter()
            .zip(&program.classes)
            .map(|(origin, class)| match origin {
                Some(i) => std::mem::take(&mut self.classes[*i]),
                None => ClassDigests::of(class),
            })
            .collect();
        Digests { classes }
    }

    /// The digest in `slot` of class `class`, computed by `compute` the
    /// first time it is asked for. `compute` must be a position-free
    /// function of that class alone.
    pub(crate) fn memo(&self, class: usize, slot: Slot, compute: impl FnOnce() -> u64) -> u64 {
        *self.classes[class].slot(slot).get_or_init(compute)
    }

    /// [`class_interface_hash`] of class `i` of `program`.
    pub(crate) fn class_iface(&self, program: &Program, i: usize) -> u64 {
        self.memo(i, Slot::Iface, || class_interface_hash(&program.classes[i]))
    }

    /// [`iface_hash`] of `program`, over the memoized class digests.
    pub(crate) fn iface_hash(&self, program: &Program) -> u64 {
        let mut h = Fnv64::new();
        h.write_usize(program.classes.len());
        for i in 0..program.classes.len() {
            h.write_u64(self.class_iface(program, i));
        }
        h.finish()
    }

    /// [`local_fp`] of `mref` in `program`, over the memoized method
    /// digests.
    pub(crate) fn local_fp(&self, program: &Program, mref: &MethodRef) -> u64 {
        let resolved = resolve_position(program, mref).map(|(c, m)| {
            let class = &program.classes[c];
            let digest = self.memo(c, Slot::Method(m), || method_digest(&class.methods[m]));
            (class, digest)
        });
        fold_local(mref, resolved)
    }
}

/// Where `mref` resolves, as [`Program::resolve_method`] resolves it: the
/// position of the declaring class and of the method within it.
fn resolve_position(program: &Program, mref: &MethodRef) -> Option<(usize, usize)> {
    let mut c = program.class_position(&mref.0)?;
    loop {
        let class = &program.classes[c];
        if let Some(m) = class.methods.iter().position(|m| m.name == mref.1) {
            return Some((c, m));
        }
        c = program.class_position(class.superclass.as_deref()?)?;
    }
}

/// Folds a method reference with the class its declaration resolves to
/// and the declaration's digest.
fn fold_local(mref: &MethodRef, resolved: Option<(&ClassDecl, u64)>) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&mref.0);
    h.write_str(&mref.1);
    if let Some((decl_class, digest)) = resolved {
        h.write_str(&decl_class.name);
        h.write_u64(decl_class.annots.trusted as u64);
        h.write_u64(digest);
    }
    h.finish()
}

/// Folds an eviction summary into `h`, set by set.
pub(crate) fn hash_summary(h: &mut Fnv64, summary: &MethodSummary) {
    let MethodSummary {
        reads,
        may_writes,
        must_writes,
    } = summary;
    for set in [reads, may_writes, must_writes] {
        h.write_usize(set.len());
        for HeapPath(path) in set {
            h.write_usize(path.len());
            for segment in path {
                h.write_str(segment);
            }
        }
    }
}

/// Folds a set of shared members into `h`.
pub(crate) fn hash_members(h: &mut Fnv64, members: &BTreeSet<SharedMember>) {
    h.write_usize(members.len());
    for (class, field) in members {
        h.write_str(class);
        h.write_str(field);
    }
}

/// Digest of one method reference's resolved declaration: the reference
/// itself, the declaring class it resolves to, and the digest of the full
/// `MethodDecl` (annotations, body, spans relative to the header's start
/// — see [`sjava_analysis::shard::hash_method`]). Unresolvable references
/// hash the reference alone.
pub fn local_fp(program: &Program, mref: &MethodRef) -> u64 {
    let resolved = program
        .resolve_method(&mref.0, &mref.1)
        .map(|(class, method)| (class, method_digest(method)));
    fold_local(mref, resolved)
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
