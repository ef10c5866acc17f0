//! Fact fingerprints, position-free diagnostics, and the `.deps` wire
//! codec behind red-green revalidation.
//!
//! The recording layer (`sjava_syntax::track`) captures *which* facts a
//! per-method check read as a list of [`DepKey`]s; this module answers
//! *what those facts were worth* on a concrete program. [`FactDb`]
//! evaluates one fingerprint per key — once at admission time against
//! the program the check actually ran on, and again at revalidation time
//! against the edited program. An entry is **green** (replayable without
//! rechecking) iff every recorded `(key, fingerprint)` pair re-evaluates
//! to the same fingerprint; any mismatch makes it **red**.
//!
//! Both sides use the same evaluation function, so the two can never
//! disagree about what a fact's fingerprint covers. The invariant each
//! per-key fingerprint must uphold mirrors the cache-key invariant:
//! *equal fingerprint ⇒ the fact reads back byte-identically, up to
//! where its declaration sits*. Fingerprints are position-free: spans
//! enter as offsets from the start of their declaration (method header,
//! field or class header), so text that only moves a declaration keeps
//! every fact about it green. Every fingerprint is tagged (present/miss)
//! so "the class disappeared" and "the class is empty" never collide.
//!
//! Because keys and facts ignore where declarations sit, cached
//! diagnostics cannot embed absolute spans. [`Relative`] stores each span
//! as an offset from an anchor — for a per-method entry, its own method
//! ([`Anchor::Method`]) or the `@METHODDEFAULT` lattice its
//! `DepKey::MethodFacts` covers ([`Anchor::DefaultLattice`]); for the
//! lattice model, the declaration holding it ([`DeclAnchor`]) — and
//! replay adds the anchor's current position back. An anchor is only
//! ever a declaration whose fingerprint the entry is revalidated on, so
//! green means every rebased span is byte-right. A span with no such
//! anchor leaves the result uncached.
//!
//! The wire form (`.deps` objects in the artifact store) pairs the dep
//! list with the FNV-64 checksum of the entry payload it was recorded
//! for. A reader adopts a persisted entry only when that pairing matches
//! the entry object it actually read — two independently-published
//! objects cannot be combined across a torn update.

use sjava_analysis::callgraph::MethodRef;
use sjava_analysis::shard::{
    class_interface_hash, hash_class_header, hash_field, hash_lattice_decl, hash_method_annots,
    hash_method_header,
};
use sjava_core::model::{effective_method_annots, Lattices};
use sjava_core::shared::SharedMember;
use sjava_lattice::{hash_debug, Fnv64};
use sjava_syntax::ast::{ClassDecl, MethodDecl, Program};
use sjava_syntax::diag::{Diagnostic, Diagnostics};
use sjava_syntax::span::Span;
use sjava_syntax::track::DepKey;
use sjava_syntax::wire::{self, Reader};
use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;

/// Evaluates fact fingerprints against one program snapshot, memoizing
/// per key — a wave of revalidations touching the same interface facts
/// hashes each fact once.
pub(crate) struct FactDb<'a> {
    program: &'a Program,
    lattices: &'a Lattices,
    members: &'a BTreeSet<SharedMember>,
    memo: Mutex<HashMap<DepKey, u64>>,
}

impl<'a> FactDb<'a> {
    /// A fact database over one `(program, lattice model, shared
    /// members)` snapshot.
    pub(crate) fn new(
        program: &'a Program,
        lattices: &'a Lattices,
        members: &'a BTreeSet<SharedMember>,
    ) -> Self {
        FactDb {
            program,
            lattices,
            members,
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// The fingerprint of one fact on this snapshot.
    pub(crate) fn fact_fp(&self, key: &DepKey) -> u64 {
        if let Some(&fp) = self.memo.lock().unwrap().get(key) {
            return fp;
        }
        let fp = self.compute(key);
        self.memo.lock().unwrap().insert(key.clone(), fp);
        fp
    }

    /// Whether every recorded `(key, fingerprint)` still evaluates to
    /// the same fingerprint on this snapshot.
    pub(crate) fn deps_green(&self, deps: &[(DepKey, u64)]) -> bool {
        deps.iter().all(|(k, fp)| self.fact_fp(k) == *fp)
    }

    /// Evaluates a read-set into `(key, fingerprint)` pairs for
    /// admission alongside a fresh entry.
    pub(crate) fn fingerprint(&self, keys: impl IntoIterator<Item = DepKey>) -> Vec<(DepKey, u64)> {
        keys.into_iter()
            .map(|k| {
                let fp = self.fact_fp(&k);
                (k, fp)
            })
            .collect()
    }

    fn compute(&self, key: &DepKey) -> u64 {
        let mut h = Fnv64::new();
        match key {
            DepKey::Iface(class) => match self.program.class_untracked(class) {
                Some(c) => {
                    h.write_u64(1);
                    h.write_u64(class_interface_hash(c));
                }
                None => h.write_u64(0),
            },
            DepKey::Resolve(class, method) => {
                // The walk itself is part of the fact: every visited class
                // name is hashed, so re-routing the chain (a superclass
                // edit) perturbs the fingerprint even when the eventual
                // declaration is unchanged.
                let mut cur = self.program.class_untracked(class);
                loop {
                    let Some(c) = cur else {
                        h.write_u64(0);
                        break;
                    };
                    h.write_str(&c.name);
                    if let Some(m) = c.methods.iter().find(|m| m.name == *method) {
                        h.write_u64(1);
                        hash_class_header(&mut h, c);
                        hash_method_header(&mut h, m);
                        break;
                    }
                    cur = c
                        .superclass
                        .as_deref()
                        .and_then(|s| self.program.class_untracked(s));
                }
            }
            DepKey::Field(class, field) => {
                let mut cur = self.program.class_untracked(class);
                loop {
                    let Some(c) = cur else {
                        h.write_u64(0);
                        break;
                    };
                    h.write_str(&c.name);
                    if let Some(f) = c.fields.iter().find(|f| f.name == *field) {
                        h.write_u64(1);
                        hash_field(&mut h, f);
                        break;
                    }
                    cur = c
                        .superclass
                        .as_deref()
                        .and_then(|s| self.program.class_untracked(s));
                }
            }
            DepKey::MethodFacts(class, method) => {
                match self
                    .program
                    .class_untracked(class)
                    .and_then(|c| c.methods.iter().find(|m| m.name == *method).map(|m| (c, m)))
                {
                    Some((c, m)) => {
                        h.write_u64(1);
                        // The effective annotations cover the method's own
                        // lattice/locations and the class @METHODDEFAULT;
                        // the resolved return/pc locations additionally
                        // cover cross-class unqualified-element resolution.
                        // The lattice span is measured from the declaration
                        // it sits on: the method header for its own
                        // `@LATTICE`, the class header for a default one —
                        // which is what lets a cached "method lattice
                        // declared here" label rebase (`Anchor::DefaultLattice`).
                        let own = m.annots.lattice.is_some();
                        h.write_u64(own as u64);
                        let anchor = if own { m.span.start } else { c.span.start };
                        hash_method_annots(&mut h, &effective_method_annots(c, m), anchor);
                        h.write_u64(c.annots.trusted as u64);
                        match self.lattices.methods.get(&(class.clone(), method.clone())) {
                            Some(info) => {
                                h.write_u64(1);
                                h.write_u64(hash_debug(&info.return_loc));
                                h.write_u64(hash_debug(&info.pc_loc));
                                h.write_u64(info.trusted as u64);
                            }
                            None => h.write_u64(0),
                        }
                    }
                    None => h.write_u64(0),
                }
            }
            DepKey::ClassLattice(class) => match self.program.class_untracked(class) {
                Some(c) => {
                    h.write_u64(1);
                    hash_lattice_decl(&mut h, c.annots.lattice.as_ref(), c.span.start);
                }
                None => h.write_u64(0),
            },
            DepKey::LocOwner(name) => {
                // Declaration order matters to the uniqueness rule, so the
                // fold is over class names in source order.
                for c in &self.program.classes {
                    let declares = c
                        .annots
                        .lattice
                        .as_ref()
                        .map(|l| l.names().iter().any(|n| n == name))
                        .unwrap_or(false);
                    if declares {
                        h.write_str(&c.name);
                    }
                }
            }
            DepKey::SharedMember(class, field) => {
                h.write_u64(self.members.contains(&(class.clone(), field.clone())) as u64);
            }
            DepKey::SharedGate => h.write_u64(self.members.is_empty() as u64),
            // Completion is a pure function of its canonical graph key:
            // the fact can never go stale, so its fingerprint is constant.
            DepKey::Completion(_) => h.write_u64(0),
        }
        h.finish()
    }
}

// ---- position-free diagnostics -----------------------------------------

/// Where a cached per-method span is measured from. Every anchor is a
/// declaration the entry's validity already covers, so an entry that
/// replays (green) has every span at the same offset from its anchor as
/// when it was computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Anchor {
    /// `Span::dummy()`, a synthesized span that no edit moves.
    Fixed,
    /// The entry's own method declaration, from its first span (its
    /// `@LATTICE` or its header) to the end of its body. The entry key
    /// folds the method's position-free fingerprint.
    Method,
    /// The `@METHODDEFAULT` lattice declaration of the class declaring
    /// the entry's method, in effect because the method declares none of
    /// its own. Only allowed when the read-set holds the method's
    /// `DepKey::MethodFacts`, whose fingerprint covers that declaration.
    DefaultLattice,
}

impl Anchor {
    fn tag(self) -> u8 {
        match self {
            Anchor::Fixed => 0,
            Anchor::Method => 1,
            Anchor::DefaultLattice => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Anchor> {
        Some(match tag {
            0 => Anchor::Fixed,
            1 => Anchor::Method,
            2 => Anchor::DefaultLattice,
            _ => return None,
        })
    }
}

/// The first byte of a method declaration: its own `@LATTICE`, if written
/// before the header, else the header.
fn method_start(m: &MethodDecl) -> u32 {
    m.annots
        .lattice
        .as_ref()
        .map_or(m.span.start, |l| l.span.start.min(m.span.start))
}

/// The first byte of a class header, class annotations included.
fn class_start(c: &ClassDecl) -> u32 {
    let default = c
        .annots
        .method_default
        .as_ref()
        .and_then(|d| d.lattice.as_ref());
    [c.annots.lattice.as_ref(), default]
        .into_iter()
        .flatten()
        .fold(c.span.start, |s, l| s.min(l.span.start))
}

/// The anchors of one method's entry on one program snapshot.
pub(crate) struct Anchors {
    /// The method's extent, from [`method_start`] to the end of its body.
    method: Option<Span>,
    /// The effective `@METHODDEFAULT` lattice declaration, if any.
    default_lattice: Option<Span>,
    /// The fact that covers `default_lattice`.
    facts: Option<DepKey>,
}

impl Anchors {
    /// Resolves `mref` exactly as its fingerprint does
    /// ([`crate::fingerprints::local_fp`]), so a green entry finds the
    /// declarations it was anchored to.
    pub(crate) fn of(program: &Program, mref: &MethodRef) -> Anchors {
        let Some((c, m)) = program.resolve_method(&mref.0, &mref.1) else {
            return Anchors {
                method: None,
                default_lattice: None,
                facts: None,
            };
        };
        let default_lattice = match &m.annots.lattice {
            Some(_) => None,
            None => c
                .annots
                .method_default
                .as_ref()
                .and_then(|d| d.lattice.as_ref())
                .map(|l| l.span),
        };
        Anchors {
            method: Some(Span::new(method_start(m), m.body.span.end.max(m.span.end))),
            default_lattice,
            facts: Some(DepKey::MethodFacts(c.name.clone(), m.name.clone())),
        }
    }

    /// The anchor holding `span` and its base offset, or `None` when no
    /// declaration covered by `read_set` (the facts the entry is
    /// revalidated on) holds it — the entry is then not cached.
    pub(crate) fn locate(&self, span: Span, read_set: &BTreeSet<DepKey>) -> Option<(Anchor, u32)> {
        let within = |outer: Span| outer.start <= span.start && span.end <= outer.end;
        if span == Span::dummy() {
            Some((Anchor::Fixed, 0))
        } else if let Some(m) = self.method.filter(|&m| within(m)) {
            Some((Anchor::Method, m.start))
        } else {
            let l = self.default_lattice.filter(|&l| within(l))?;
            let covered = self.facts.as_ref().is_some_and(|f| read_set.contains(f));
            covered.then_some((Anchor::DefaultLattice, l.start))
        }
    }

    /// The base offset of `anchor` on this snapshot. A green entry's
    /// anchors always resolve (its key covers the method's resolution and
    /// `MethodFacts` covers the default lattice); a missing one reads 0.
    pub(crate) fn base(&self, anchor: Anchor) -> u32 {
        match anchor {
            Anchor::Fixed => 0,
            Anchor::Method => self.method.map_or(0, |m| m.start),
            Anchor::DefaultLattice => self.default_lattice.map_or(0, |l| l.start),
        }
    }
}

/// Every span of a diagnostic: the primary span, each label, then the
/// suggestion.
fn spans_mut(d: &mut Diagnostic) -> impl Iterator<Item = &mut Span> {
    std::iter::once(&mut d.span)
        .chain(d.labels.iter_mut().map(|l| &mut l.span))
        .chain(d.suggestion.iter_mut().map(|s| &mut s.span))
}

/// Diagnostics stored position-free: every span is an offset from an
/// anchor of type `A`, recorded beside it in [`spans_mut`] order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Relative<A> {
    diags: Vec<Diagnostic>,
    anchors: Vec<A>,
}

impl<A> Default for Relative<A> {
    fn default() -> Self {
        Relative {
            diags: Vec::new(),
            anchors: Vec::new(),
        }
    }
}

impl<A: Copy> Relative<A> {
    /// Measures every span of `diags` from the anchor `locate` picks for
    /// it; `None` when some span has none.
    pub(crate) fn new<'d>(
        diags: impl IntoIterator<Item = &'d Diagnostic>,
        mut locate: impl FnMut(Span) -> Option<(A, u32)>,
    ) -> Option<Self> {
        let mut out = Relative::default();
        for d in diags {
            let mut d = d.clone();
            for span in spans_mut(&mut d) {
                let (anchor, base) = locate(*span)?;
                *span = Span::new(span.start - base, span.end - base);
                out.anchors.push(anchor);
            }
            out.diags.push(d);
        }
        Some(out)
    }

    /// Whether no diagnostic is stored.
    pub(crate) fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Appends the diagnostics to `out`, each span moved to its anchor's
    /// `base` on the snapshot being checked.
    pub(crate) fn rebase_into(&self, base: impl Fn(A) -> u32, out: &mut Diagnostics) {
        let mut anchors = self.anchors.iter();
        for d in &self.diags {
            let mut d = d.clone();
            for span in spans_mut(&mut d) {
                // Offsets read from a store object must not be able to
                // panic the replay: saturate, and skip `Span::new`'s order
                // assertion.
                let b = anchors.next().map_or(0, |&a| base(a));
                *span = Span {
                    start: span.start.saturating_add(b),
                    end: span.end.saturating_add(b),
                };
            }
            out.push(d);
        }
    }
}

impl Relative<Anchor> {
    /// Appends the wire form: the diagnostics, then one tag per span.
    pub(crate) fn put(&self, buf: &mut Vec<u8>) {
        wire::put_diags(buf, &self.diags);
        wire::put_u64(buf, self.anchors.len() as u64);
        buf.extend(self.anchors.iter().map(|a| a.tag()));
    }

    /// Reads [`Relative::put`]'s form; `None` on a bad tag or a tag count
    /// that does not match the spans.
    pub(crate) fn read(r: &mut Reader<'_>) -> Option<Self> {
        let mut diags = r.diags()?;
        let n = r.count()? as usize;
        let anchors = r
            .bytes(n)?
            .iter()
            .map(|&t| Anchor::from_tag(t))
            .collect::<Option<Vec<_>>>()?;
        let spans: usize = diags.iter_mut().map(|d| spans_mut(d).count()).sum();
        (spans == anchors.len()).then_some(Relative { diags, anchors })
    }
}

/// The anchor of a lattice-build diagnostic: a declaration by its place
/// in the program. Lattice building reports only on lattice
/// declarations and class and method headers. The model is cached under
/// the interface hash, which covers every class and method header
/// position-free, class by class and in order — so on a hit the same
/// places hold the same declarations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeclAnchor {
    /// `Span::dummy()`, never moved.
    Fixed,
    /// The header of class `i`, class annotations included.
    Class(usize),
    /// The header of method `j` of class `i`, its `@LATTICE` included.
    Method(usize, usize),
}

impl DeclAnchor {
    /// The declaration of `program` holding `span`, with its first byte.
    pub(crate) fn locate(program: &Program, span: Span) -> Option<(DeclAnchor, u32)> {
        if span == Span::dummy() {
            return Some((DeclAnchor::Fixed, 0));
        }
        let within = |start: u32, end: u32| start <= span.start && span.end <= end;
        for (i, c) in program.classes.iter().enumerate() {
            if within(class_start(c), c.span.end) {
                return Some((DeclAnchor::Class(i), class_start(c)));
            }
            for (j, m) in c.methods.iter().enumerate() {
                if within(method_start(m), m.span.end) {
                    return Some((DeclAnchor::Method(i, j), method_start(m)));
                }
            }
        }
        None
    }

    /// The first byte of the declaration on `program` (0 if it is gone,
    /// which a matching interface hash rules out).
    pub(crate) fn base(self, program: &Program) -> u32 {
        let class = |i: usize| program.classes.get(i);
        match self {
            DeclAnchor::Fixed => None,
            DeclAnchor::Class(i) => class(i).map(class_start),
            DeclAnchor::Method(i, j) => class(i).and_then(|c| c.methods.get(j)).map(method_start),
        }
        .unwrap_or(0)
    }
}

// ---- .deps wire codec --------------------------------------------------

fn tag_of(key: &DepKey) -> u8 {
    match key {
        DepKey::Iface(_) => 1,
        DepKey::Resolve(..) => 2,
        DepKey::Field(..) => 3,
        DepKey::MethodFacts(..) => 4,
        DepKey::ClassLattice(_) => 5,
        DepKey::LocOwner(_) => 6,
        DepKey::SharedMember(..) => 7,
        DepKey::SharedGate => 8,
        DepKey::Completion(_) => 9,
    }
}

/// Appends a recorded read-set: its length, then each `(key,
/// fingerprint)`.
pub(crate) fn put_dep_list(buf: &mut Vec<u8>, deps: &[(DepKey, u64)]) {
    wire::put_u64(buf, deps.len() as u64);
    for (key, fp) in deps {
        buf.push(tag_of(key));
        match key {
            DepKey::Iface(a) | DepKey::ClassLattice(a) | DepKey::LocOwner(a) => {
                wire::put_str(buf, a);
            }
            DepKey::Resolve(a, b)
            | DepKey::Field(a, b)
            | DepKey::MethodFacts(a, b)
            | DepKey::SharedMember(a, b) => {
                wire::put_str(buf, a);
                wire::put_str(buf, b);
            }
            DepKey::SharedGate => {}
            DepKey::Completion(k) => wire::put_u64(buf, *k),
        }
        wire::put_u64(buf, *fp);
    }
}

/// Reads [`put_dep_list`]'s form; `None` on truncation or a bad tag.
pub(crate) fn read_dep_list(r: &mut Reader<'_>) -> Option<Vec<(DepKey, u64)>> {
    let n = r.count()?;
    let mut deps = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let key = match r.u8()? {
            1 => DepKey::Iface(r.string()?),
            2 => DepKey::Resolve(r.string()?, r.string()?),
            3 => DepKey::Field(r.string()?, r.string()?),
            4 => DepKey::MethodFacts(r.string()?, r.string()?),
            5 => DepKey::ClassLattice(r.string()?),
            6 => DepKey::LocOwner(r.string()?),
            7 => DepKey::SharedMember(r.string()?, r.string()?),
            8 => DepKey::SharedGate,
            9 => DepKey::Completion(r.u64()?),
            _ => return None,
        };
        deps.push((key, r.u64()?));
    }
    Some(deps)
}

/// Deterministic encoding of an entry's recorded read-set: the checksum
/// of the entry payload it pairs with, then the read-set.
pub(crate) fn encode_deps(deps: &[(DepKey, u64)], entry_fp: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::put_u64(&mut buf, entry_fp);
    put_dep_list(&mut buf, deps);
    buf
}

/// Decodes a read-set payload into the dep list and the paired entry
/// checksum; `None` on any truncation, bad tag, or trailing garbage.
pub(crate) fn decode_deps(payload: &[u8]) -> Option<(Vec<(DepKey, u64)>, u64)> {
    let mut r = Reader::new(payload);
    let entry_fp = r.u64()?;
    let deps = read_dep_list(&mut r)?;
    r.is_exhausted().then_some((deps, entry_fp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_syntax::diag::Diagnostics;
    use sjava_syntax::parse;

    fn snapshot(src: &str) -> (Program, Lattices, BTreeSet<SharedMember>) {
        let p = parse(src).expect("parses");
        let mut d = Diagnostics::new();
        let l = Lattices::build(&p, &mut d);
        let m = sjava_core::shared::shared_members(&p, &l);
        (p, l, m)
    }

    #[test]
    fn deps_round_trip_through_the_codec() {
        let deps = vec![
            (DepKey::Iface("A".into()), 1),
            (DepKey::Resolve("A".into(), "m".into()), 2),
            (DepKey::Field("A".into(), "x".into()), 3),
            (DepKey::MethodFacts("A".into(), "m".into()), 4),
            (DepKey::ClassLattice("A".into()), 5),
            (DepKey::LocOwner("HI".into()), 6),
            (DepKey::SharedMember("A".into(), "x".into()), 7),
            (DepKey::SharedGate, 8),
            (DepKey::Completion(99), 9),
        ];
        let buf = encode_deps(&deps, 0xFEED);
        assert_eq!(decode_deps(&buf), Some((deps, 0xFEED)));
        // Any truncation reads as None.
        for cut in 0..buf.len() {
            assert_eq!(decode_deps(&buf[..cut]), None, "truncation at {cut}");
        }
        // Trailing garbage reads as None.
        let mut long = buf.clone();
        long.push(0);
        assert_eq!(decode_deps(&long), None);
    }

    #[test]
    fn unrelated_edit_keeps_facts_green() {
        let (p1, l1, m1) =
            snapshot(r#"@LATTICE("A<B") class W { @LOC("A") int x; void f() { } void g() { } }"#);
        let (p2, l2, m2) = snapshot(
            r#"@LATTICE("A<B") class W { @LOC("A") int x; void f() { int z = 1; } void g() { } }"#,
        );
        let db1 = FactDb::new(&p1, &l1, &m1);
        let db2 = FactDb::new(&p2, &l2, &m2);
        // Growing `f`'s body moves `g` and everything after it, but every
        // fact is position-free: not one goes red, not even the
        // whole-interface fact of `W`, which every client of `W` reads.
        for key in [
            DepKey::Field("W".into(), "x".into()),
            DepKey::ClassLattice("W".into()),
            DepKey::Resolve("W".into(), "f".into()),
            DepKey::Resolve("W".into(), "g".into()),
            DepKey::MethodFacts("W".into(), "f".into()),
            DepKey::MethodFacts("W".into(), "g".into()),
            DepKey::Iface("W".into()),
            DepKey::SharedGate,
        ] {
            assert_eq!(db1.fact_fp(&key), db2.fact_fp(&key), "{key:?} went red");
        }
    }

    #[test]
    fn text_inside_a_declaration_reds_its_facts() {
        let base = r#"@LATTICE("A<B") class W { @LOC("A") int x; void f(int p) { } void g() { } }"#;
        let (p1, l1, m1) = snapshot(base);
        let db1 = FactDb::new(&p1, &l1, &m1);
        // A space inside `f`'s signature moves its parameter within the
        // header; one inside the field declaration lengthens it.
        for (edited, red) in [
            (
                base.replace("f(int p)", "f( int p)"),
                DepKey::Resolve("W".into(), "f".into()),
            ),
            (
                base.replace("int x;", "int  x;"),
                DepKey::Field("W".into(), "x".into()),
            ),
        ] {
            let (p2, l2, m2) = snapshot(&edited);
            let db2 = FactDb::new(&p2, &l2, &m2);
            assert_ne!(db1.fact_fp(&red), db2.fact_fp(&red), "{red:?} stayed green");
            let g = DepKey::Resolve("W".into(), "g".into());
            assert_eq!(db1.fact_fp(&g), db2.fact_fp(&g), "{g:?} went red");
        }
    }

    #[test]
    fn loc_edit_reds_exactly_the_touched_field_fact() {
        let (p1, l1, m1) = snapshot(
            r#"@LATTICE("A<B") class W { @LOC("A") int x; @LOC("B") int y; void f() { } }"#,
        );
        let (p2, l2, m2) = snapshot(
            r#"@LATTICE("A<B") class W { @LOC("B") int x; @LOC("B") int y; void f() { } }"#,
        );
        let db1 = FactDb::new(&p1, &l1, &m1);
        let db2 = FactDb::new(&p2, &l2, &m2);
        assert_ne!(
            db1.fact_fp(&DepKey::Field("W".into(), "x".into())),
            db2.fact_fp(&DepKey::Field("W".into(), "x".into())),
            "the edited field's fact must go red"
        );
        assert_eq!(
            db1.fact_fp(&DepKey::Field("W".into(), "y".into())),
            db2.fact_fp(&DepKey::Field("W".into(), "y".into())),
            "the untouched field's fact stays green"
        );
        assert_eq!(
            db1.fact_fp(&DepKey::ClassLattice("W".into())),
            db2.fact_fp(&DepKey::ClassLattice("W".into()))
        );
    }

    #[test]
    fn missing_and_empty_never_collide() {
        let (p, l, m) = snapshot("class A { void f() { } }");
        let db = FactDb::new(&p, &l, &m);
        assert_ne!(
            db.fact_fp(&DepKey::Iface("A".into())),
            db.fact_fp(&DepKey::Iface("Ghost".into())),
        );
        assert_ne!(
            db.fact_fp(&DepKey::Resolve("A".into(), "f".into())),
            db.fact_fp(&DepKey::Resolve("A".into(), "ghost".into())),
        );
    }

    #[test]
    fn superclass_rerouting_perturbs_resolution_facts() {
        let (p1, l1, m1) = snapshot(
            "class P { void f() { } } class Q extends P { } class S extends Q { void g() { } }",
        );
        // Same declaration of f, but S now skips Q.
        let (p2, l2, m2) = snapshot(
            "class P { void f() { } } class Q extends P { } class S extends P { void g() { } }",
        );
        let db1 = FactDb::new(&p1, &l1, &m1);
        let db2 = FactDb::new(&p2, &l2, &m2);
        assert_ne!(
            db1.fact_fp(&DepKey::Resolve("S".into(), "f".into())),
            db2.fact_fp(&DepKey::Resolve("S".into(), "f".into())),
            "a re-routed inheritance chain is a different resolution fact"
        );
    }
}
