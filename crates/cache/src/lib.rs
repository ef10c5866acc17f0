//! # sjava-cache
//!
//! Content-addressed incremental layer over the SJava whole-program
//! checker. An [`IncrementalChecker`] session memoizes every per-method
//! analysis result — flow diagnostics, eviction summaries, aliasing
//! diagnostics, shared-location summaries, and termination verdicts —
//! keyed on a stable, position-free 64-bit fingerprint of the method's
//! declaration and its callees' summary hashes (see [`fingerprints`]). A
//! re-check after an edit re-analyzes only the dirtied call-graph cone
//! and replays cached results for everything else, merged in the same
//! topological order as the full pipeline, so the diagnostics are
//! **byte-identical** to a cold [`sjava_core::check_program`] run at any
//! thread count.
//!
//! ## Position-free keys and rebased replay
//!
//! No key or fact fingerprint folds an absolute byte offset: a span is
//! hashed as an offset from the start of the declaration that holds it.
//! Text inserted above a method — a comment, a blank line, a longer
//! method before it — therefore leaves its entry valid. Cached
//! diagnostics are stored the same way: each span is measured from an
//! *anchor* (the entry's own method, or a declaration its recorded
//! read-set covers, such as the class `@METHODDEFAULT` lattice a flow
//! label points at) and moved to where that anchor sits on replay. A
//! green entry's anchors are unchanged up to position, so the rebased
//! bytes equal a cold check's. A diagnostic with a span no such anchor
//! holds leaves its method uncached rather than replayed wrong.
//!
//! ## Dependency-tracked invalidation (red-green revalidation)
//!
//! Interface facts — class interface summaries, field `@LOC`
//! declarations, lattice/completion facts, shared-membership probes —
//! are deliberately **not** folded into the entry key. Instead, every
//! fresh per-method computation runs inside a
//! [`sjava_syntax::track::ReadScope`], which records the exact set of
//! interface facts the analyses consulted (as
//! [`sjava_syntax::track::DepKey`]s). The read-set is fingerprinted
//! (`deps` module) and stored alongside the entry — in memory and, for
//! store-backed sessions, inside the entry's own store object, so one
//! atomic rename publishes both. On the next check, an
//! entry whose key matches is **green** (replayed) iff every recorded
//! fact re-fingerprints byte-identically on the new program, and **red**
//! (rechecked) otherwise. An interface edit therefore re-analyzes only
//! the methods that truly read the changed fact — O(true dependents)
//! instead of the previous whole-program `iface_hash` cutoff's
//! O(program).
//!
//! A session interns every fact its read-sets name, once: a recorded
//! read-set is a list of `(fact id, fingerprint)` pairs, and a check
//! evaluates each distinct fact once, into a vector indexed by id.
//! Per-method direct-callee sets are revalidated the same way, keyed on
//! the method's local fingerprint. The lattice model is cached under the
//! position-free interface hash, its diagnostics rebased onto their
//! declarations; a miss rebuilds it content-addressed
//! ([`sjava_core::Lattices::build`] builds each distinct lattice
//! declaration once), so an interface edit pays for its declarations,
//! not for its methods. Call-graph assembly, the eviction event-loop
//! check, and the shared-location event-loop check are always
//! recomputed (they read global state and are cheap relative to
//! per-method analysis).
//!
//! A session keeps only what its last two checks used (see
//! [`IncrementalChecker`]), so its memory follows the program, not the
//! length of the editing session.
//!
//! Source text is reused too: [`IncrementalChecker::check_source`] keeps
//! its last parse ([`sjava_syntax::UnitParse`]) and the memoized
//! per-declaration digests of its classes, so the next text re-parses
//! and re-hashes only the compilation units whose bytes changed.
//!
//! [`IncrementalChecker::with_dir`] backs the session with the concurrent
//! content-addressed [`store::ArtifactStore`] (`sjava check` does so when
//! `SJAVA_CACHE_DIR`, [`CACHE_DIR_ENV`], is set): each fresh per-method
//! result and callee set publishes as one object carrying its read-set,
//! with an atomic rename, so any number of processes — successive
//! `sjava check` runs, parallel CI jobs — can share one store directory,
//! and a fresh process starts warm from whatever an earlier one
//! published. Corrupt or foreign-format objects (and old monolithic
//! `cache.bin` files from format v3 and earlier) degrade to cache misses,
//! never to an error or a stale result. An unwritable cache directory or
//! a malformed `SJAVA_CACHE_MAX_BYTES` warns once on stderr and degrades
//! to an uncached session or an unbounded store.
//!
//! ```
//! let program = sjava_syntax::parse(
//!     "class A { void main() { SSJAVA: while (true) { Out.emit(1); } } }",
//! ).expect("parses");
//! let mut session = sjava_cache::IncrementalChecker::new();
//! let cold = session.check(&program);
//! let warm = session.check(&program);
//! assert_eq!(format!("{}", cold.diagnostics), format!("{}", warm.diagnostics));
//! assert_eq!(warm.cache.expect("incremental").misses, 0);
//! ```

#![warn(missing_docs)]

mod deps;
pub mod edit;
pub mod fingerprints;
pub mod store;

use sjava_analysis::callgraph::{self, MethodRef};
use sjava_analysis::shard::ShardInput;
use sjava_analysis::termination;
use sjava_analysis::written::{self, EvictionResult, MethodSummary, Summaries};
use sjava_core::shared::SharedMember;
use sjava_core::{
    checker, linear, shared, CacheStats, CheckReport, Lattices, ParseFailure, PhaseTimings,
};
use sjava_lattice::Fnv64;
use sjava_syntax::ast::Program;
use sjava_syntax::diag::Diagnostics;
use sjava_syntax::track::{DepKey, ReadScope};
use sjava_syntax::UnitParse;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use deps::{Anchor, Anchors, DeclAnchor, FactDb, FactId, FactTable, Relative};
use fingerprints::{hash_members, hash_summary, Digests};
pub use store::ArtifactStore;

/// Environment variable naming the on-disk cache directory: `sjava check`
/// with it set checks through [`IncrementalChecker::with_dir`] and serves
/// cross-process warm hits from the store under it.
pub const CACHE_DIR_ENV: &str = "SJAVA_CACHE_DIR";

/// One-time warning latches for environment misconfiguration (one per
/// concern, so a bad cache dir does not mask a bad byte budget).
static WARNED_CACHE_DIR: AtomicBool = AtomicBool::new(false);
static WARNED_MAX_BYTES: AtomicBool = AtomicBool::new(false);

/// Parses an environment override as a non-negative decimal integer;
/// `None` means "malformed" (empty is malformed, padding is trimmed).
fn parse_env_u64(raw: &str) -> Option<u64> {
    raw.trim().parse::<u64>().ok()
}

/// The store byte budget from `SJAVA_CACHE_MAX_BYTES`: `None` when unset
/// (unbounded); a malformed value warns once and leaves the store
/// unbounded.
fn max_bytes_budget() -> Option<u64> {
    match std::env::var(store::MAX_BYTES_ENV) {
        Ok(raw) => match parse_env_u64(&raw) {
            Some(v) => Some(v),
            None => {
                if !WARNED_MAX_BYTES.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "sjava-cache: warning: ignoring malformed {}={raw:?} \
                         (expected a non-negative integer); store stays unbounded",
                        store::MAX_BYTES_ENV
                    );
                }
                None
            }
        },
        Err(_) => None,
    }
}

/// Every cached per-method result, keyed (in the session maps and the
/// artifact store) by the method's content fingerprint. Diagnostics are
/// stored position-free and rebased on replay ([`Relative`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct MethodEntry {
    /// Eviction read/write summary (`written::summarize`), shared with the
    /// reports that replay it.
    pub summary: Arc<MethodSummary>,
    /// Flow-down checker diagnostics (`checker::check_method_flows`).
    pub flow: Relative<Anchor>,
    /// Aliasing diagnostics (`linear::check_method_aliasing`).
    pub alias: Relative<Anchor>,
    /// Whether a shared-location summary was computed for this method
    /// (false when the program has no shared members or the method has
    /// no lattice info — mirrored so replays rebuild the same maps).
    pub shared_present: bool,
    /// Shared members this method definitely clears.
    pub shared_clears: BTreeSet<SharedMember>,
    /// Shared members this method reads.
    pub shared_reads: BTreeSet<SharedMember>,
    /// Termination failure count (`termination::check_method`).
    pub term_failures: usize,
    /// Termination diagnostics, in source order.
    pub term: Relative<Anchor>,
}

/// A method's direct-callee set with the read-set it was computed under,
/// keyed (in the session and the artifact store) by the method's
/// position-free local fingerprint and reused while the read-set
/// revalidates green — a signature or field edit elsewhere recomputes
/// only the sets that read it. The store names each fact by its
/// [`DepKey`]; a session by its interned [`FactId`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Callees<F = DepKey> {
    /// The direct callees (`callgraph::method_callees`).
    pub set: BTreeSet<MethodRef>,
    /// The facts the computation read, fingerprinted.
    pub deps: Vec<(F, u64)>,
}

/// A per-method entry as a session holds it.
struct Cached {
    entry: MethodEntry,
    /// The recorded read-set, as `(fact, fingerprint)` pairs evaluated on
    /// the program the entry was computed against. The entry replays only
    /// while every pair re-evaluates identically.
    deps: Vec<(FactId, u64)>,
    /// The entry's [`wave_hash`], which its callers' keys fold.
    wave: u64,
}

impl Cached {
    fn new(entry: MethodEntry, deps: Vec<(FactId, u64)>) -> Self {
        let shared = entry
            .shared_present
            .then_some((&entry.shared_clears, &entry.shared_reads));
        let wave = wave_hash(Some(&entry.summary), shared);
        Cached { entry, deps, wave }
    }
}

/// The digest a caller's entry key folds for one callee: its eviction
/// summary and its shared-location summary, by value.
fn wave_hash(
    summary: Option<&MethodSummary>,
    shared: Option<(&BTreeSet<SharedMember>, &BTreeSet<SharedMember>)>,
) -> u64 {
    let mut h = Fnv64::new();
    match summary {
        Some(s) => {
            h.write_u64(1);
            hash_summary(&mut h, s);
        }
        None => h.write_u64(0),
    }
    match shared {
        Some((clears, reads)) => {
            h.write_u64(1);
            hash_members(&mut h, clears);
            hash_members(&mut h, reads);
        }
        None => h.write_u64(0),
    }
    h.finish()
}

/// The cached lattice model, valid while the interface hash matches. Its
/// diagnostics are stored relative to the declarations that hold them.
/// Reports share the model; a hit refreshes it in place unless a report
/// still holds it.
struct LatticeEntry {
    iface: u64,
    lattices: Arc<Lattices>,
    diags: Relative<DeclAnchor>,
}

/// The last successful unit-indexed parse of [`IncrementalChecker::check_source`]
/// and the memoized declaration digests of its program.
struct SourceState {
    parse: UnitParse,
    digests: Digests,
}

/// Re-reads every `MethodInfo::lattice_span` of a cached lattice model
/// from `program`, where the declarations may have moved since the model
/// was built: the span of the method's effective `@LATTICE`
/// (`effective_method_annots`), its own or the class `@METHODDEFAULT`.
/// Like [`Lattices::build`], it reads the first declaration of a repeated
/// class or method name.
fn refresh_lattice_spans(lattices: &mut Lattices, program: &Program) {
    for ((class, method), info) in &mut lattices.methods {
        let Some(c) = program.class_untracked(class) else {
            continue;
        };
        let Some(m) = c.methods.iter().find(|m| m.name == *method) else {
            continue;
        };
        let default = c
            .annots
            .method_default
            .as_ref()
            .and_then(|d| d.lattice.as_ref());
        info.lattice_span = m.annots.lattice.as_ref().or(default).map(|d| d.span);
    }
}

/// An incremental checking session.
///
/// Feed successive revisions of a program to [`IncrementalChecker::check`];
/// each call returns a [`CheckReport`] whose diagnostics are byte-identical
/// to a fresh [`sjava_core::check_program`] run, with
/// [`CheckReport::cache`] describing how much was replayed. Entries are
/// content-addressed and position-free: text inserted above a method
/// leaves its key, and its entry, untouched, and its cached diagnostics
/// are rebased onto the method's new position when they replay.
///
/// The session is bounded: after each check it keeps only the entries,
/// read-sets and callee sets that this check or the previous one used, so
/// a long editing session holds at most two revisions' worth (and an edit
/// that is reverted straight away still hits the old entries).
///
/// A store-backed session ([`IncrementalChecker::with_dir`]) additionally
/// probes the shared artifact store for every fingerprint it has not seen
/// in memory, so warm hits flow across processes — `sjava check` runs and
/// CI jobs sharing one `SJAVA_CACHE_DIR` replay each other's results. A
/// store entry is trusted exactly like an in-memory one: green only while
/// its recorded read-set revalidates, red (and re-checked) otherwise.
pub struct IncrementalChecker {
    entries: HashMap<u64, Cached>,
    callee_cache: HashMap<u64, Callees<FactId>>,
    /// Every fact the kept read-sets name, interned.
    facts: FactTable,
    /// The callee-set keys the most recent check used (the session bound
    /// keeps these and the current check's).
    last_callees: HashSet<u64>,
    lattice_cache: Option<LatticeEntry>,
    /// The entry key of every method the most recent check reached.
    last_keys: BTreeMap<MethodRef, u64>,
    /// The methods the most recent check actually re-analyzed (the miss
    /// set, in topological order). Observability only — results never
    /// depend on it; tests use it to prove the re-check set is a subset
    /// of the coarse fingerprint-dirty cone.
    last_rechecked: Vec<MethodRef>,
    /// The last text [`IncrementalChecker::check_source`] parsed through
    /// the unit-indexed front end, kept so the next text re-parses and
    /// re-hashes only the compilation units that changed.
    source: Option<SourceState>,
    store: Option<ArtifactStore>,
}

impl Default for IncrementalChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalChecker {
    /// An empty in-memory session (no disk persistence).
    pub fn new() -> Self {
        IncrementalChecker {
            entries: HashMap::new(),
            callee_cache: HashMap::new(),
            facts: FactTable::default(),
            last_callees: HashSet::new(),
            lattice_cache: None,
            last_keys: BTreeMap::new(),
            last_rechecked: Vec::new(),
            source: None,
            store: None,
        }
    }

    /// A session backed by the content-addressed artifact store under
    /// `dir`: fingerprints missing from memory are probed in the store
    /// during each check (lazily, per key — no up-front bulk load), and
    /// fresh results publish back after the check. An unwritable
    /// directory warns once on stderr and degrades to an uncached
    /// session; corrupt or old-format store contents degrade to misses.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        let store = match ArtifactStore::open(&dir) {
            Ok(s) => Some(s),
            Err(e) => {
                if !WARNED_CACHE_DIR.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "sjava-cache: warning: cache directory {} is unusable ({e}); \
                         running without a cache",
                        dir.display()
                    );
                }
                None
            }
        };
        Self {
            store,
            ..Self::new()
        }
    }

    /// The artifact store backing this session, if any.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// The methods the most recent check re-analyzed (its miss set, in
    /// topological order): the red entries plus the plain misses, i.e.
    /// everything that was *not* replayed. Observability for tests and
    /// tooling — results never depend on it.
    pub fn last_rechecked(&self) -> &[MethodRef] {
        &self.last_rechecked
    }

    /// Number of per-method entries held **in memory** (store objects are
    /// probed lazily and are not counted until replayed or computed). At
    /// most the reachable methods of the last two checks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of distinct facts the session's kept read-sets name. It
    /// follows the session bound: a fact no kept entry or callee set
    /// reads any more is dropped.
    pub fn fact_count(&self) -> usize {
        self.facts.len()
    }

    /// Whether the session holds no in-memory entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every in-memory entry. Store objects are untouched — they
    /// are content-addressed and remain valid for any future session.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.callee_cache.clear();
        self.facts = FactTable::default();
        self.last_callees.clear();
        self.lattice_cache = None;
        self.last_keys.clear();
        self.last_rechecked.clear();
        self.source = None;
    }

    /// Parses and checks source text incrementally, charging parse time
    /// to [`PhaseTimings::parse`].
    ///
    /// The session keeps its last successful parse ([`UnitParse`]): the
    /// next text re-lexes and re-parses only the compilation units whose
    /// bytes changed, moves every other unit's classes over with their
    /// spans shifted, and reuses their memoized declaration digests. Text
    /// the unit-indexed front end declines (the brace pre-scan refuses
    /// it, a unit reports a diagnostic, or the classes inherit
    /// cyclically) takes the whole-file
    /// [`sjava_syntax::parse`] path, and the last good parse stays for
    /// the next text. Either way the report equals a cold
    /// [`sjava_core::check_source`] of the same text.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseFailure`] when the source does not parse.
    // The Ok variant (`CheckReport`) is no smaller than the Err variant,
    // so boxing `ParseFailure` would not shrink the `Result`.
    #[allow(clippy::result_large_err)]
    pub fn check_source(&mut self, source: &str) -> Result<CheckReport, ParseFailure> {
        let t = Instant::now();
        if let Some(state) = self.reparse(source) {
            let parse = t.elapsed();
            let mut report = self.check_with(state.parse.program(), &state.digests);
            report.timings.parse = parse;
            self.source = Some(state);
            return Ok(report);
        }
        let parsed = sjava_syntax::parse(source);
        let parse = t.elapsed();
        match parsed {
            Ok(program) => {
                let mut report = self.check(&program);
                report.timings.parse = parse;
                Ok(report)
            }
            Err(diagnostics) => Err(ParseFailure {
                diagnostics,
                timings: PhaseTimings {
                    parse,
                    threads: sjava_par::num_threads(),
                    ..PhaseTimings::default()
                },
            }),
        }
    }

    /// The session's last unit-indexed parse moved to `source`, its
    /// digests carried over; `None`, keeping the last good parse, when
    /// the unit-indexed front end declines the text.
    fn reparse(&mut self, source: &str) -> Option<SourceState> {
        let Some(mut state) = self.source.take() else {
            let parse = UnitParse::new(source)?;
            let digests = Digests::new(parse.program());
            return Some(SourceState { parse, digests });
        };
        match state.parse.reparse(source) {
            Some(origins) => {
                state.digests = state.digests.carry(&origins, state.parse.program());
                Some(state)
            }
            None => {
                self.source = Some(state);
                None
            }
        }
    }

    /// Drops every fact that no kept entry or callee set reads.
    fn prune_facts(&mut self) {
        let entries = self.entries.values().map(|c| c.deps.as_slice());
        let callees = self.callee_cache.values().map(|c| c.deps.as_slice());
        self.facts.retain(entries.chain(callees));
    }

    /// Checks `program`, replaying cached per-method results wherever the
    /// content fingerprint matches (in memory first, then the artifact
    /// store) and re-analyzing only the dirtied call-graph cone.
    /// Diagnostics are byte-identical to [`sjava_core::check_program`] on
    /// the same program.
    pub fn check(&mut self, program: &Program) -> CheckReport {
        self.check_with(program, &Digests::new(program))
    }

    /// [`IncrementalChecker::check`] over `digests`, the memoized
    /// declaration digests of `program`.
    fn check_with(&mut self, program: &Program, digests: &Digests) -> CheckReport {
        // Global-phase diagnostics (lattice, call graph, eviction loop),
        // merged after the per-method ones.
        let mut global = Diagnostics::new();
        let mut stats = CacheStats::default();
        let mut timings = PhaseTimings {
            threads: sjava_par::num_threads(),
            ..PhaseTimings::default()
        };

        // Lattice model, keyed on the position-free interface hash
        // (replaying its diagnostics in build order, rebased onto where
        // their declarations sit now).
        let t = Instant::now();
        let iface = digests.iface_hash(program);
        let lattices = match &mut self.lattice_cache {
            Some(e) if e.iface == iface => {
                e.diags.rebase_into(|a| a.base(program), &mut global);
                // Copies the model only while a report still holds it.
                refresh_lattice_spans(Arc::make_mut(&mut e.lattices), program);
                Arc::clone(&e.lattices)
            }
            _ => {
                let mut ld = Diagnostics::new();
                let lattices = Arc::new(Lattices::build(program, &mut ld));
                // A diagnostic outside every declaration could not be
                // rebased, so such a model is rebuilt on every check.
                self.lattice_cache = Relative::new(ld.iter(), |s| DeclAnchor::locate(program, s))
                    .map(|diags| LatticeEntry {
                        iface,
                        lattices: Arc::clone(&lattices),
                        diags,
                    });
                global.extend(ld);
                lattices
            }
        };
        timings.lattice_build = t.elapsed();

        // Call graph: assembly is recomputed, per-method callee sets are
        // served from the session (or the store) keyed on the local
        // fingerprint — the set does not depend on callees — and reused
        // while the facts they read revalidate green, exactly like
        // entries. Local fingerprints are memoized for the whole check:
        // hashing a method body is the dominant fixed cost of a warm
        // check, so it must happen at most once per method. Fact
        // fingerprints are evaluated lazily and memoized across the whole
        // check: callee sets, entries and admission share one snapshot.
        let t = Instant::now();
        let members = shared::shared_members(program, &lattices);
        let mut factdb = FactDb::new(&mut self.facts, program, digests, &lattices, &members);
        let mut local_fps: HashMap<MethodRef, u64> = HashMap::new();
        let mut used_callees: HashSet<u64> = HashSet::new();
        // Callee sets computed by this check, the only ones to publish.
        let mut fresh_callees: Vec<u64> = Vec::new();
        let callee_cache = &mut self.callee_cache;
        let store = self.store.as_ref();
        let cg = callgraph::build_with(program, &mut global, |mref| {
            let lfp = *local_fps
                .entry(mref.clone())
                .or_insert_with(|| digests.local_fp(program, mref));
            used_callees.insert(lfp);
            if let Some(c) = callee_cache.get(&lfp) {
                if factdb.deps_green(&c.deps) {
                    return c.set.clone();
                }
            } else if let Some(Callees { set, deps }) = store.and_then(|s| s.get_callees(lfp)) {
                if factdb.keys_green(&deps) {
                    let deps = factdb.intern(deps);
                    callee_cache.insert(
                        lfp,
                        Callees {
                            set: set.clone(),
                            deps,
                        },
                    );
                    return set;
                }
            }
            let scope = ReadScope::begin();
            let set = callgraph::method_callees(program, mref);
            let deps = factdb.fingerprint(scope.finish());
            fresh_callees.push(lfp);
            callee_cache.insert(
                lfp,
                Callees {
                    set: set.clone(),
                    deps,
                },
            );
            set
        });
        timings.callgraph = t.elapsed();
        let last_callees = std::mem::replace(&mut self.last_callees, used_callees);
        self.callee_cache
            .retain(|k, _| self.last_callees.contains(k) || last_callees.contains(k));
        let Some(cg) = cg else {
            self.prune_facts();
            global.sort_stable();
            return CheckReport {
                diagnostics: global,
                lattices,
                eviction: None,
                termination_failures: 0,
                timings,
                cache: Some(stats),
            };
        };

        // Entry keys and summaries, bottom-up by wave. A method's key
        // folds its own body fingerprint and the *summary hashes* of its
        // direct callees — the eviction and shared-location summary
        // values, NOT the callee bodies. Interface facts are deliberately
        // absent from the key: they live in the entry's recorded
        // read-set, which is revalidated fact-by-fact (red-green) so an
        // interface edit invalidates only the methods that actually read
        // the changed fact. This is the early-cutoff property twice over: flow,
        // aliasing, and termination diagnostics depend only on a method's
        // own body, the interface facts it reads, and its callees'
        // summaries by value.
        let whole = ShardInput::whole(program);
        let t = Instant::now();
        let mut keys: BTreeMap<MethodRef, u64> = BTreeMap::new();
        let mut shashes: BTreeMap<MethodRef, u64> = BTreeMap::new();
        let mut summaries = Summaries::new();
        let mut shared_clears: BTreeMap<MethodRef, BTreeSet<SharedMember>> = BTreeMap::new();
        let mut shared_reads: BTreeMap<MethodRef, BTreeSet<SharedMember>> = BTreeMap::new();
        // Read-sets of freshly-computed wave results, awaiting the union
        // with the per-method pass read-sets at admission time.
        let mut wave_deps: BTreeMap<MethodRef, Vec<DepKey>> = BTreeMap::new();
        /// How one wave slot resolved against the cache.
        enum Outcome {
            /// In-memory entry, read-set verified green: replay, with its
            /// kept wave hash.
            MemGreen(u64),
            /// Store entry whose read-set verified green: adopt and
            /// replay. Boxed: an entry is ~200 bytes and this variant is
            /// rare relative to the green/fresh ones sized per wave slot.
            StoreGreen(Box<MethodEntry>, Vec<(DepKey, u64)>),
            /// Computed fresh; `red` distinguishes "had an entry whose
            /// read-set went stale" from a plain miss.
            Fresh { red: bool, deps: Vec<DepKey> },
        }
        // How each wave slot resolved: its summary, its shared-location
        // summary, and where they came from.
        type WaveResult = (
            Option<Arc<MethodSummary>>,
            Option<(BTreeSet<SharedMember>, BTreeSet<SharedMember>)>,
            Outcome,
        );
        for wave in cg.levels() {
            // Waves order callees strictly before callers, so every
            // callee's summary hash is final when its callers key.
            let wave_keys: Vec<u64> = wave
                .iter()
                .map(|mref| {
                    let mut h = Fnv64::new();
                    let lfp = local_fps
                        .get(mref)
                        .copied()
                        .unwrap_or_else(|| digests.local_fp(program, mref));
                    h.write_u64(lfp);
                    if let Some(cs) = cg.calls.get(mref) {
                        h.write_usize(cs.len());
                        for c in cs {
                            h.write_u64(*shashes.get(c).unwrap_or(&0));
                        }
                    }
                    h.finish()
                })
                .collect();
            // In-memory entries resolve here, one after another: replaying
            // one costs far less than waking the worker pool. Red-green
            // revalidation replays an entry only while every recorded fact
            // fingerprint is byte-unchanged. Store probes and fresh
            // computations fan out below.
            let mut results: Vec<Option<WaveResult>> = Vec::with_capacity(wave.len());
            let mut rest: Vec<usize> = Vec::new();
            for (i, key) in wave_keys.iter().enumerate() {
                let green = self.entries.get(key).filter(|c| factdb.deps_green(&c.deps));
                match green {
                    Some(Cached { entry: e, wave, .. }) => results.push(Some((
                        Some(Arc::clone(&e.summary)),
                        e.shared_present
                            .then(|| (e.shared_clears.clone(), e.shared_reads.clone())),
                        Outcome::MemGreen(*wave),
                    ))),
                    None => {
                        results.push(None);
                        rest.push(i);
                    }
                }
            }
            let computed = sjava_par::run_sparse(&rest, |i| {
                let mref = &wave[i];
                let key = wave_keys[i];
                // The fresh path, shared by misses and red entries: the
                // whole computation runs inside a recording scope so the
                // exact interface read-set lands in the entry's deps.
                let fresh = || {
                    let scope = ReadScope::begin();
                    // The has-any-shared-members gate is read here, before
                    // the branch it decides — it must be part of every
                    // entry's read-set or a program gaining its first
                    // shared member could replay a gate-skipped result.
                    sjava_syntax::track::record_shared_gate();
                    let summary = written::summarize(&whole, mref, &summaries).map(Arc::new);
                    let sh = if members.is_empty() {
                        None
                    } else {
                        shared::method_shared_summary(
                            &whole,
                            &lattices,
                            mref,
                            &members,
                            &shared_clears,
                            &shared_reads,
                        )
                    };
                    (summary, sh, scope.finish())
                };
                if self.entries.contains_key(&key) {
                    // An in-memory entry that went red above.
                    let (summary, sh, deps) = fresh();
                    return (summary, sh, Outcome::Fresh { red: true, deps });
                }
                // Cross-process warm path: another session (an earlier
                // `sjava check`, a parallel CI job) may have published this
                // fingerprint; one lock-free store read fetches the entry
                // with the read-set it was published with, and it replays
                // only after that read-set verifies green. A stale one is
                // red, exactly as an in-memory entry would be; an
                // unreadable object is a plain miss.
                let stored = self.store.as_ref().and_then(|s| s.get_entry(key));
                let red = stored.is_some();
                if let Some((e, deps)) = stored.filter(|(_, deps)| factdb.keys_green(deps)) {
                    let sh = e
                        .shared_present
                        .then(|| (e.shared_clears.clone(), e.shared_reads.clone()));
                    return (
                        Some(Arc::clone(&e.summary)),
                        sh,
                        Outcome::StoreGreen(Box::new(e), deps),
                    );
                }
                let (summary, sh, deps) = fresh();
                (summary, sh, Outcome::Fresh { red, deps })
            });
            for (i, result) in computed {
                results[i] = Some(result);
            }
            for ((mref, key), result) in wave.iter().zip(wave_keys).zip(results) {
                let (summary, sh, outcome) = result.expect("every wave slot resolves");
                let shash = match outcome {
                    Outcome::MemGreen(shash) => shash,
                    _ => wave_hash(summary.as_deref(), sh.as_ref().map(|(c, r)| (c, r))),
                };
                match outcome {
                    Outcome::MemGreen(_) => stats.green += 1,
                    Outcome::StoreGreen(entry, deps) => {
                        let deps = factdb.intern(deps);
                        let entry = *entry;
                        let wave = shash;
                        self.entries.insert(key, Cached { entry, deps, wave });
                        stats.green += 1;
                    }
                    Outcome::Fresh { red, deps } => {
                        if red {
                            // The stale entry must go before the miss set
                            // is computed below, so the method re-enters
                            // the per-method passes and is re-admitted
                            // with its new read-set.
                            self.entries.remove(&key);
                            stats.red += 1;
                        }
                        wave_deps.insert(mref.clone(), deps);
                    }
                }
                if let Some(s) = summary {
                    summaries.insert(mref.clone(), s);
                }
                if let Some((c, r)) = sh {
                    shared_clears.insert(mref.clone(), c);
                    shared_reads.insert(mref.clone(), r);
                }
                shashes.insert(mref.clone(), shash);
                keys.insert(mref.clone(), key);
            }
        }
        stats.revalidated = stats.green + stats.red;
        stats.invalidations = self
            .last_keys
            .iter()
            .filter(|(m, key)| keys.get(*m).is_some_and(|now| now != *key))
            .count();
        let missing: Vec<usize> = (0..cg.topo.len())
            .filter(|&i| !self.entries.contains_key(&keys[&cg.topo[i]]))
            .collect();
        stats.misses = missing.len();
        stats.hits = cg.topo.len() - missing.len();
        self.last_rechecked = missing.iter().map(|&i| cg.topo[i].clone()).collect();

        // Eviction event-loop check: always recomputed (it reads every
        // summary at once and is cheap relative to per-method analysis).
        let (stale_paths, stale_locals) = written::check_loop(program, &cg, &summaries);
        written::report(&stale_paths, &stale_locals, &mut global);
        timings.eviction = t.elapsed();
        let eviction = EvictionResult {
            summaries,
            stale_paths,
            stale_locals,
        };

        // Flow check: fan out over the dirty indices only, then merge
        // cached and fresh buffers in topological order — the same order
        // the full pipeline merges, so output bytes match. Work is ordered
        // by the same static cost model as the cold `check_flows`; it
        // orders the work queue, never the output.
        let mut diags = Diagnostics::new();
        let t = Instant::now();
        let cost: Vec<u64> = missing
            .iter()
            .map(|&i| checker::method_cost(&whole, &lattices, &cg.topo[i]))
            .collect();
        let mut flow_deps: BTreeMap<usize, Vec<DepKey>> = BTreeMap::new();
        let fresh_flow: BTreeMap<usize, Diagnostics> =
            sjava_par::run_sparse_weighted(&missing, &cost, |i| {
                let scope = ReadScope::begin();
                let d = checker::check_method_flows(
                    &whole,
                    &lattices,
                    &cg.topo[i],
                    &eviction.summaries,
                );
                (d, scope.finish())
            })
            .into_iter()
            .map(|(i, (d, deps))| {
                flow_deps.insert(i, deps);
                (i, d)
            })
            .collect();
        // Replayed diagnostics are rebased onto where their anchors sit in
        // this program; most entries carry none and skip the lookup.
        let replay = |rel: &Relative<Anchor>, mref: &MethodRef, out: &mut Diagnostics| {
            if !rel.is_empty() {
                let anchors = Anchors::of(program, mref);
                rel.rebase_into(|a| anchors.base(a), out);
            }
        };
        for (i, mref) in cg.topo.iter().enumerate() {
            match fresh_flow.get(&i) {
                Some(d) => diags.extend(d.clone()),
                None => replay(&self.entries[&keys[mref]].entry.flow, mref, &mut diags),
            }
        }
        timings.flow_check = t.elapsed();

        // Aliasing: same dirty-cone fan-out and topo-order merge.
        let t = Instant::now();
        let mut alias_deps: BTreeMap<usize, Vec<DepKey>> = BTreeMap::new();
        let fresh_alias: BTreeMap<usize, Diagnostics> = sjava_par::run_sparse(&missing, |i| {
            let scope = ReadScope::begin();
            let d = linear::check_method_aliasing(&whole, &lattices, &cg.topo[i]);
            (d, scope.finish())
        })
        .into_iter()
        .map(|(i, (d, deps))| {
            alias_deps.insert(i, deps);
            (i, d)
        })
        .collect();
        for (i, mref) in cg.topo.iter().enumerate() {
            match fresh_alias.get(&i) {
                Some(d) => diags.extend(d.clone()),
                None => replay(&self.entries[&keys[mref]].entry.alias, mref, &mut diags),
            }
        }
        timings.aliasing = t.elapsed();

        // Shared-location event-loop check: the per-method clears/reads
        // summaries were already assembled (replayed or recomputed)
        // alongside the keys; only the global loop walk runs here.
        let t = Instant::now();
        if !members.is_empty() {
            shared::check_shared_loop(
                program,
                &lattices,
                &cg,
                &members,
                &shared_clears,
                &shared_reads,
                &mut diags,
            );
        }
        timings.shared = t.elapsed();

        // Termination: verdicts depend only on the method body; replay or
        // recompute per method, merged in topological order.
        let t = Instant::now();
        let mut termination_failures = 0usize;
        let mut fresh_term: BTreeMap<usize, (usize, Diagnostics)> = BTreeMap::new();
        let mut term_deps: BTreeMap<usize, Vec<DepKey>> = BTreeMap::new();
        for (i, mref) in cg.topo.iter().enumerate() {
            match self.entries.get(&keys[mref]) {
                Some(Cached { entry: e, .. }) => {
                    termination_failures += e.term_failures;
                    replay(&e.term, mref, &mut diags);
                }
                None => {
                    let scope = ReadScope::begin();
                    let (n, d) = termination::check_method(&whole, mref);
                    term_deps.insert(i, scope.finish());
                    termination_failures += n;
                    diags.extend(d.clone());
                    fresh_term.insert(i, (n, d));
                }
            }
        }
        timings.termination = t.elapsed();

        // Admit the freshly-computed results into the cache, each paired
        // with the union of every read-set its phases recorded (wave
        // summary + shared, flow, aliasing, termination), fingerprinted
        // against *this* program — the admission side of red-green. The
        // revalidation `factdb` serves it: one snapshot, so a fact already
        // fingerprinted while revalidating is not hashed again.
        for &i in &missing {
            let mref = &cg.topo[i];
            let (term_failures, term) = fresh_term.remove(&i).unwrap_or_default();
            // BTreeSet union: deterministic read-set order regardless of
            // which phase recorded a fact first or on which thread.
            let mut read_set: BTreeSet<DepKey> = BTreeSet::new();
            read_set.extend(wave_deps.remove(mref).unwrap_or_default());
            read_set.extend(flow_deps.remove(&i).unwrap_or_default());
            read_set.extend(alias_deps.remove(&i).unwrap_or_default());
            read_set.extend(term_deps.remove(&i).unwrap_or_default());
            let anchors = Anchors::of(program, mref);
            let relative = |d: Option<&Diagnostics>| {
                let diags = d.into_iter().flat_map(|d| d.iter());
                Relative::new(diags, |span| anchors.locate(span, &read_set))
            };
            let (Some(flow), Some(alias), Some(term)) = (
                relative(fresh_flow.get(&i)),
                relative(fresh_alias.get(&i)),
                relative(Some(&term)),
            ) else {
                // A span outside the method and every declaration its
                // read-set covers could not be rebased on replay: the
                // method stays uncached and re-checks every time.
                continue;
            };
            let entry = MethodEntry {
                summary: eviction.summaries.get(mref).cloned().unwrap_or_default(),
                flow,
                alias,
                shared_present: shared_clears.contains_key(mref),
                shared_clears: shared_clears.get(mref).cloned().unwrap_or_default(),
                shared_reads: shared_reads.get(mref).cloned().unwrap_or_default(),
                term_failures,
                term,
            };
            let deps = factdb.fingerprint(read_set);
            self.entries.insert(keys[mref], Cached::new(entry, deps));
        }
        if let Some(store) = &self.store {
            // Publication is best-effort: an unwritable store must not
            // fail the check. Each object carries its read-set, so one
            // atomic rename publishes both.
            for &i in &missing {
                let key = keys[&cg.topo[i]];
                if let Some(c) = self.entries.get(&key) {
                    let _ = store.put_entry(key, &c.entry, &factdb.keyed(&c.deps));
                }
            }
            for lfp in &fresh_callees {
                let c = &self.callee_cache[lfp];
                let callees = Callees {
                    set: c.set.clone(),
                    deps: factdb.keyed(&c.deps),
                };
                let _ = store.put_callees(*lfp, &callees);
            }
            if let Some(max) = max_bytes_budget() {
                store.evict_to(max);
            }
        }
        // The session bound: keep only what this check and the previous
        // one used, by key.
        let live: HashSet<u64> = keys
            .values()
            .chain(self.last_keys.values())
            .copied()
            .collect();
        self.entries.retain(|k, _| live.contains(k));
        self.prune_facts();
        self.last_keys = keys;

        diags.extend(global);
        // Same stable total order as `sjava_core::check_program`, so
        // replayed and freshly-computed reports stay byte-identical.
        diags.sort_stable();
        CheckReport {
            diagnostics: diags,
            lattices,
            eviction: Some(eviction),
            termination_failures,
            timings,
            cache: Some(stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parse_rejects_malformed_values() {
        // The pure parser behind every env read: valid decimals parse,
        // padding is trimmed, anything else is rejected (not silently
        // zeroed) so the callers can warn and fall back.
        assert_eq!(parse_env_u64("256"), Some(256));
        assert_eq!(parse_env_u64("  0  "), Some(0));
        assert_eq!(parse_env_u64(""), None);
        assert_eq!(parse_env_u64("lots"), None);
        assert_eq!(parse_env_u64("-1"), None);
        assert_eq!(parse_env_u64("4k"), None);
        assert_eq!(parse_env_u64("1.5"), None);
    }

    #[test]
    fn unwritable_cache_dir_degrades_to_uncached_session() {
        // A path that cannot possibly become a directory: a component of
        // it is a regular file. `with_dir` must warn (once) and hand back
        // a working, uncached session instead of failing the check.
        let base = std::env::temp_dir().join("sjava-cache-unwritable");
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).expect("mkdir");
        let file = base.join("not-a-dir");
        std::fs::write(&file, b"x").expect("file");
        let mut session = IncrementalChecker::with_dir(file.join("cache"));
        assert!(session.store().is_none(), "store must be degraded away");
        let program = sjava_syntax::parse(
            "class A { void main() { SSJAVA: while (true) { Out.emit(1); } } }",
        )
        .expect("parses");
        let report = session.check(&program);
        assert!(report.is_ok(), "{}", report.diagnostics);
        assert_eq!(
            format!("{}", report.diagnostics),
            format!("{}", sjava_core::check_program(&program).diagnostics),
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn malformed_max_bytes_env_leaves_store_unbounded() {
        // The latch only suppresses the warning, never the fallback. This
        // test owns MAX_BYTES_ENV (no other test in this crate mutates
        // it), so the mutation cannot race.
        std::env::set_var(store::MAX_BYTES_ENV, "a-lot");
        assert_eq!(max_bytes_budget(), None);
        assert!(WARNED_MAX_BYTES.load(Ordering::Relaxed));
        std::env::set_var(store::MAX_BYTES_ENV, "1048576");
        assert_eq!(max_bytes_budget(), Some(1 << 20));
        std::env::remove_var(store::MAX_BYTES_ENV);
        assert_eq!(max_bytes_budget(), None);
    }
}
