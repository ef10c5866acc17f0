//! Fact fingerprints, position-free diagnostics, and the read-set wire
//! codec behind red-green revalidation.
//!
//! The recording layer (`sjava_syntax::track`) captures *which* facts a
//! per-method check read as a list of [`DepKey`]s; this module interns
//! them once per session ([`FactTable`]) and answers *what those facts
//! were worth* on a concrete program. [`FactDb`] evaluates one
//! fingerprint per distinct fact — once at admission time against the
//! program the check actually ran on, and again at revalidation time
//! against the edited program. An entry is **green** (replayable without
//! rechecking) iff every recorded `(fact, fingerprint)` pair re-evaluates
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
//! In the artifact store a read-set travels inside the object it
//! validates ([`put_dep_list`] after an entry or a callee set), so one
//! atomic publish writes both and no reader can pair a result with a
//! read-set recorded for another.

use crate::fingerprints::{Digests, Slot};
use sjava_analysis::callgraph::MethodRef;
use sjava_analysis::shard::{
    hash_class_header, hash_field, hash_lattice_decl, hash_method_annots, hash_method_header,
};
use sjava_core::model::{effective_method_annots, Lattices};
use sjava_core::shared::SharedMember;
use sjava_lattice::{CompositeLoc, Elem, Fnv64, Space};
use sjava_syntax::ast::{ClassDecl, MethodDecl, Program};
use sjava_syntax::diag::{Diagnostic, Diagnostics};
use sjava_syntax::span::Span;
use sjava_syntax::track::DepKey;
use sjava_syntax::wire::{self, Reader};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Mutex, OnceLock};

/// A fact's identity within one session: its index in the session's
/// [`FactTable`]. Recorded read-sets hold `(FactId, fingerprint)` pairs,
/// so revalidating one costs an index per fact, not a hash of its names.
pub(crate) type FactId = u32;

/// The facts named by a session's recorded read-sets, each interned once.
/// Ids that no kept read-set references any more are freed
/// ([`FactTable::retain`]) and reused, so the table follows the session
/// bound rather than the length of the editing session.
#[derive(Debug, Default)]
pub(crate) struct FactTable {
    ids: HashMap<DepKey, FactId>,
    /// The key of each id; `None` while the id is free.
    keys: Vec<Option<DepKey>>,
    free: Vec<FactId>,
}

impl FactTable {
    /// The id of `key`, if it is interned.
    fn get(&self, key: &DepKey) -> Option<FactId> {
        self.ids.get(key).copied()
    }

    /// Interns `key`, which has no id yet.
    fn insert(&mut self, key: DepKey) -> FactId {
        let id = match self.free.pop() {
            Some(id) => {
                self.keys[id as usize] = Some(key.clone());
                id
            }
            None => {
                self.keys.push(Some(key.clone()));
                (self.keys.len() - 1) as FactId
            }
        };
        self.ids.insert(key, id);
        id
    }

    /// The key interned as `id`.
    fn key(&self, id: FactId) -> &DepKey {
        self.keys[id as usize]
            .as_ref()
            .expect("a recorded read-set names only interned facts")
    }

    /// Frees every id no read-set in `live` names.
    pub(crate) fn retain<'d>(&mut self, live: impl IntoIterator<Item = &'d [(FactId, u64)]>) {
        let mut keep = vec![false; self.keys.len()];
        for deps in live {
            for &(id, _) in deps {
                keep[id as usize] = true;
            }
        }
        for (id, slot) in self.keys.iter_mut().enumerate() {
            if !keep[id] {
                if let Some(key) = slot.take() {
                    self.ids.remove(&key);
                    self.free.push(id as FactId);
                }
            }
        }
    }

    /// The number of interned facts.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }
}

/// Evaluates fact fingerprints against one program snapshot, each
/// distinct fact once: a vector indexed by [`FactId`], filled on first
/// use from any thread. It interns into the session's [`FactTable`].
pub(crate) struct FactDb<'a> {
    program: &'a Program,
    /// The program's memoized declaration digests.
    digests: &'a Digests,
    lattices: &'a Lattices,
    members: &'a BTreeSet<SharedMember>,
    table: &'a mut FactTable,
    fps: Vec<OnceLock<u64>>,
    /// Fingerprints of facts not yet interned, read by the store probes
    /// that run on the worker pool, which cannot intern.
    loose: Mutex<HashMap<DepKey, u64>>,
}

impl<'a> FactDb<'a> {
    /// A fact database over one `(program, lattice model, shared
    /// members)` snapshot, with no fingerprint evaluated yet.
    pub(crate) fn new(
        table: &'a mut FactTable,
        program: &'a Program,
        digests: &'a Digests,
        lattices: &'a Lattices,
        members: &'a BTreeSet<SharedMember>,
    ) -> Self {
        FactDb {
            program,
            digests,
            lattices,
            members,
            fps: table.keys.iter().map(|_| OnceLock::new()).collect(),
            table,
            loose: Mutex::new(HashMap::new()),
        }
    }

    /// The fingerprint of fact `id` on this snapshot.
    fn fp(&self, id: FactId) -> u64 {
        *self.fps[id as usize].get_or_init(|| self.compute(self.table.key(id)))
    }

    /// The fingerprint of one fact on this snapshot, by its key.
    fn key_fp(&self, key: &DepKey) -> u64 {
        if let Some(id) = self.table.get(key) {
            return self.fp(id);
        }
        if let Some(&fp) = self
            .loose
            .lock()
            .expect("no fact evaluation panics")
            .get(key)
        {
            return fp;
        }
        let fp = self.compute(key);
        self.loose
            .lock()
            .expect("no fact evaluation panics")
            .insert(key.clone(), fp);
        fp
    }

    /// Whether every recorded `(fact, fingerprint)` still evaluates to
    /// the same fingerprint on this snapshot.
    pub(crate) fn deps_green(&self, deps: &[(FactId, u64)]) -> bool {
        deps.iter().all(|&(id, fp)| self.fp(id) == fp)
    }

    /// [`FactDb::deps_green`] for a read-set as stored on disk.
    pub(crate) fn keys_green(&self, deps: &[(DepKey, u64)]) -> bool {
        deps.iter().all(|(key, fp)| self.key_fp(key) == *fp)
    }

    /// Interns a read-set as stored on disk, keeping its fingerprints.
    pub(crate) fn intern(&mut self, deps: Vec<(DepKey, u64)>) -> Vec<(FactId, u64)> {
        deps.into_iter()
            .map(|(key, fp)| (self.id(key), fp))
            .collect()
    }

    /// Evaluates a read-set into `(fact, fingerprint)` pairs for
    /// admission alongside a fresh entry.
    pub(crate) fn fingerprint(
        &mut self,
        keys: impl IntoIterator<Item = DepKey>,
    ) -> Vec<(FactId, u64)> {
        keys.into_iter()
            .map(|key| {
                let id = self.id(key);
                (id, self.fp(id))
            })
            .collect()
    }

    /// A read-set in its on-disk form, by key.
    pub(crate) fn keyed(&self, deps: &[(FactId, u64)]) -> Vec<(DepKey, u64)> {
        deps.iter()
            .map(|&(id, fp)| (self.table.key(id).clone(), fp))
            .collect()
    }

    /// The id of `key`, interned with an empty fingerprint slot (or the
    /// one a store probe already evaluated) if it is new.
    fn id(&mut self, key: DepKey) -> FactId {
        if let Some(id) = self.table.get(&key) {
            return id;
        }
        let loose = self
            .loose
            .get_mut()
            .expect("no fact evaluation panics")
            .remove(&key);
        let id = self.table.insert(key);
        let slot = id as usize;
        if slot == self.fps.len() {
            self.fps.push(OnceLock::new());
        }
        if let Some(fp) = loose {
            let _ = self.fps[slot].set(fp);
        }
        id
    }

    /// The declaration at the end of the inheritance walk `Program::field`
    /// and `Program::resolve_method` take from `class`: the first class
    /// on it where `find` finds a member. Every class the walk visits is
    /// folded into `h` by name, so re-routing the chain (a superclass
    /// edit) perturbs the fingerprint even when the eventual declaration
    /// is unchanged.
    fn walk(
        &self,
        h: &mut Fnv64,
        class: &str,
        find: impl Fn(&ClassDecl) -> Option<usize>,
    ) -> Option<(usize, usize)> {
        let mut cur = self.program.class_position(class);
        while let Some(i) = cur {
            let c = &self.program.classes[i];
            h.write_str(&c.name);
            if let Some(j) = find(c) {
                return Some((i, j));
            }
            cur = c
                .superclass
                .as_deref()
                .and_then(|s| self.program.class_position(s));
        }
        None
    }

    fn compute(&self, key: &DepKey) -> u64 {
        let mut h = Fnv64::new();
        let classes = &self.program.classes;
        // Each declaration enters as its memoized position-free digest.
        let digest = |i: usize, slot: Slot, fold: &dyn Fn(&mut Fnv64)| {
            self.digests.memo(i, slot, || {
                let mut h = Fnv64::new();
                fold(&mut h);
                h.finish()
            })
        };
        match key {
            DepKey::Iface(class) => match self.program.class_position(class) {
                Some(i) => {
                    h.write_u64(1);
                    h.write_u64(self.digests.class_iface(self.program, i));
                }
                None => h.write_u64(0),
            },
            DepKey::Resolve(class, method) => {
                let found = self.walk(&mut h, class, |c| {
                    c.methods.iter().position(|m| m.name == *method)
                });
                match found {
                    Some((i, j)) => {
                        let c = &classes[i];
                        h.write_u64(1);
                        h.write_u64(digest(i, Slot::Header, &|h| hash_class_header(h, c)));
                        h.write_u64(digest(i, Slot::MethodHeader(j), &|h| {
                            hash_method_header(h, &c.methods[j])
                        }));
                    }
                    None => h.write_u64(0),
                }
            }
            DepKey::Field(class, field) => {
                let found = self.walk(&mut h, class, |c| {
                    c.fields.iter().position(|f| f.name == *field)
                });
                match found {
                    Some((i, j)) => {
                        h.write_u64(1);
                        h.write_u64(digest(i, Slot::Field(j), &|h| {
                            hash_field(h, &classes[i].fields[j])
                        }));
                    }
                    None => h.write_u64(0),
                }
            }
            DepKey::MethodFacts(class, method) => {
                let found = self.program.class_position(class).and_then(|i| {
                    let j = classes[i].methods.iter().position(|m| m.name == *method)?;
                    Some((i, j))
                });
                match found {
                    Some((i, j)) => {
                        let (c, m) = (&classes[i], &classes[i].methods[j]);
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
                        h.write_u64(digest(i, Slot::MethodAnnots(j), &|h| {
                            let own = m.annots.lattice.is_some();
                            h.write_u64(own as u64);
                            let anchor = if own { m.span.start } else { c.span.start };
                            hash_method_annots(h, &effective_method_annots(c, m), anchor);
                        }));
                        h.write_u64(c.annots.trusted as u64);
                        match self.lattices.methods.get(&(class.clone(), method.clone())) {
                            Some(info) => {
                                h.write_u64(1);
                                hash_composite(&mut h, info.return_loc.as_ref());
                                hash_composite(&mut h, info.pc_loc.as_ref());
                                h.write_u64(info.trusted as u64);
                            }
                            None => h.write_u64(0),
                        }
                    }
                    None => h.write_u64(0),
                }
            }
            DepKey::ClassLattice(class) => match self.program.class_position(class) {
                Some(i) => {
                    let c = &classes[i];
                    h.write_u64(1);
                    h.write_u64(digest(i, Slot::Lattice, &|h| {
                        hash_lattice_decl(h, c.annots.lattice.as_ref(), c.span.start)
                    }));
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

/// Folds a resolved composite location into `h`.
fn hash_composite(h: &mut Fnv64, loc: Option<&CompositeLoc>) {
    match loc {
        None => h.write_u64(0),
        Some(CompositeLoc::Top) => h.write_u64(1),
        Some(CompositeLoc::Bottom) => h.write_u64(2),
        Some(CompositeLoc::Path { elems, delta }) => {
            h.write_u64(3);
            h.write_usize(*delta);
            h.write_usize(elems.len());
            for Elem { space, name } in elems {
                match space {
                    Space::Method => h.write_u64(0),
                    Space::Field(class) => {
                        h.write_u64(1);
                        h.write_str(class);
                    }
                }
                h.write_str(name);
            }
        }
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

// ---- read-set wire codec -----------------------------------------------

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

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_syntax::diag::Diagnostics;
    use sjava_syntax::parse;

    /// One program snapshot and what a [`FactDb`] over it borrows.
    struct Snapshot {
        program: Program,
        digests: Digests,
        lattices: Lattices,
        members: BTreeSet<SharedMember>,
        facts: FactTable,
    }

    impl Snapshot {
        fn db(&mut self) -> FactDb<'_> {
            FactDb::new(
                &mut self.facts,
                &self.program,
                &self.digests,
                &self.lattices,
                &self.members,
            )
        }
    }

    fn snapshot(src: &str) -> Snapshot {
        let program = parse(src).expect("parses");
        let mut d = Diagnostics::new();
        let lattices = Lattices::build(&program, &mut d);
        let members = sjava_core::shared::shared_members(&program, &lattices);
        Snapshot {
            digests: Digests::new(&program),
            program,
            lattices,
            members,
            facts: FactTable::default(),
        }
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
        let mut buf = Vec::new();
        put_dep_list(&mut buf, &deps);
        let read = |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            read_dep_list(&mut r).filter(|_| r.is_exhausted())
        };
        assert_eq!(read(&buf), Some(deps));
        // Any truncation reads as None.
        for cut in 0..buf.len() {
            assert_eq!(read(&buf[..cut]), None, "truncation at {cut}");
        }
        // A tag outside the vocabulary reads as None.
        let mut bad = buf.clone();
        bad[8] = 0;
        assert_eq!(read(&bad), None);
    }

    #[test]
    fn fact_table_frees_unread_facts_and_reuses_their_ids() {
        let mut table = FactTable::default();
        let a = table.insert(DepKey::Iface("A".into()));
        let b = table.insert(DepKey::Field("B".into(), "x".into()));
        assert_eq!(table.get(&DepKey::Iface("A".into())), Some(a));
        table.retain([&[(b, 7)][..]]);
        assert_eq!(table.len(), 1);
        assert_eq!(table.get(&DepKey::Iface("A".into())), None);
        assert_eq!(table.key(b), &DepKey::Field("B".into(), "x".into()));
        let c = table.insert(DepKey::SharedGate);
        assert_eq!(c, a, "a freed id is reused");
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn unrelated_edit_keeps_facts_green() {
        let mut s1 =
            snapshot(r#"@LATTICE("A<B") class W { @LOC("A") int x; void f() { } void g() { } }"#);
        let mut s2 = snapshot(
            r#"@LATTICE("A<B") class W { @LOC("A") int x; void f() { int z = 1; } void g() { } }"#,
        );
        let db1 = s1.db();
        let db2 = s2.db();
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
            assert_eq!(db1.key_fp(&key), db2.key_fp(&key), "{key:?} went red");
        }
    }

    #[test]
    fn text_inside_a_declaration_reds_its_facts() {
        let base = r#"@LATTICE("A<B") class W { @LOC("A") int x; void f(int p) { } void g() { } }"#;
        let mut s1 = snapshot(base);
        let db1 = s1.db();
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
            let mut s2 = snapshot(&edited);
            let db2 = s2.db();
            assert_ne!(db1.key_fp(&red), db2.key_fp(&red), "{red:?} stayed green");
            let g = DepKey::Resolve("W".into(), "g".into());
            assert_eq!(db1.key_fp(&g), db2.key_fp(&g), "{g:?} went red");
        }
    }

    #[test]
    fn loc_edit_reds_exactly_the_touched_field_fact() {
        let mut s1 = snapshot(
            r#"@LATTICE("A<B") class W { @LOC("A") int x; @LOC("B") int y; void f() { } }"#,
        );
        let mut s2 = snapshot(
            r#"@LATTICE("A<B") class W { @LOC("B") int x; @LOC("B") int y; void f() { } }"#,
        );
        let db1 = s1.db();
        let db2 = s2.db();
        assert_ne!(
            db1.key_fp(&DepKey::Field("W".into(), "x".into())),
            db2.key_fp(&DepKey::Field("W".into(), "x".into())),
            "the edited field's fact must go red"
        );
        assert_eq!(
            db1.key_fp(&DepKey::Field("W".into(), "y".into())),
            db2.key_fp(&DepKey::Field("W".into(), "y".into())),
            "the untouched field's fact stays green"
        );
        assert_eq!(
            db1.key_fp(&DepKey::ClassLattice("W".into())),
            db2.key_fp(&DepKey::ClassLattice("W".into()))
        );
    }

    #[test]
    fn missing_and_empty_never_collide() {
        let mut s = snapshot("class A { void f() { } }");
        let db = s.db();
        assert_ne!(
            db.key_fp(&DepKey::Iface("A".into())),
            db.key_fp(&DepKey::Iface("Ghost".into())),
        );
        assert_ne!(
            db.key_fp(&DepKey::Resolve("A".into(), "f".into())),
            db.key_fp(&DepKey::Resolve("A".into(), "ghost".into())),
        );
    }

    #[test]
    fn superclass_rerouting_perturbs_resolution_facts() {
        let mut s1 = snapshot(
            "class P { void f() { } } class Q extends P { } class S extends Q { void g() { } }",
        );
        // Same declaration of f, but S now skips Q.
        let mut s2 = snapshot(
            "class P { void f() { } } class Q extends P { } class S extends P { void g() { } }",
        );
        let db1 = s1.db();
        let db2 = s2.db();
        assert_ne!(
            db1.key_fp(&DepKey::Resolve("S".into(), "f".into())),
            db2.key_fp(&DepKey::Resolve("S".into(), "f".into())),
            "a re-routed inheritance chain is a different resolution fact"
        );
    }
}
