//! Concurrent content-addressed artifact store — the disk layer behind
//! directory-backed [`crate::IncrementalChecker`] sessions. Any number
//! of `sjava check` processes may share one store directory.
//!
//! ## Layout (format v8)
//!
//! Earlier formats serialized the whole session into one monolithic
//! `cache.bin` rewritten after every check — a design that cannot be
//! shared by concurrent processes (last writer wins, dropping half of
//! each worker's entries) and that forces a full decode up front. Version
//! 4 introduced **one object per artifact** under a fan-out directory;
//! version 5 re-keyed entries for dependency-tracked revalidation (the
//! key no longer folds the whole-program interface hash) and paired each
//! entry with a recorded read-set; version 6 makes every key and fact
//! fingerprint position-free (spans hashed relative to their
//! declaration) and stores each entry's diagnostics relative to their
//! anchors, so one object serves a method wherever its text sits;
//! version 7 hashes callee summaries and resolved locations by value
//! instead of through their `Debug` text, and folds each method's
//! declaration digest into its local fingerprint as one sub-digest;
//! version 8 stores each cached result in one object that carries its
//! own read-set, and persists no timings:
//!
//! ```text
//! <dir>/v8/objects/<hh>/<16-hex-key>.<kind>
//! ```
//!
//! where `<hh>` is the first byte of the key in hex (256-way fan-out) and
//! `<kind>` is one of:
//!
//! - `entry` — a per-method analysis result (the crate's `MethodEntry`)
//!   and the read-set recorded while it was computed, keyed by the
//!   method's position-free content fingerprint (body + callee
//!   summaries; the interface facts it read are in the read-set). Each
//!   diagnostic span is stored as an offset from its anchor, with one
//!   anchor tag per span after each diagnostic list; a tag count that
//!   does not match the spans reads as corrupt;
//! - `callees` — a method's direct-callee set and the read-set it was
//!   computed under, keyed on the method's position-free `local_fp`.
//!
//! A read-set is a list of `(DepKey, fingerprint)` pairs, and an object
//! replays only while every pair re-evaluates identically on the program
//! being checked. One atomic rename publishes a result together with its
//! read-set, so no reader can combine halves from different publishes.
//!
//! Each object file is `MAGIC ‖ version ‖ FNV-64(payload) ‖ payload`.
//!
//! ## Concurrency contract
//!
//! - **Publishes are atomic**: writers encode into a unique temp file
//!   (pid + per-process counter) in the final directory, then `rename`
//!   it over the destination — readers never observe a partially-written
//!   object, even across processes racing on the same key.
//! - **Reads are lock-free**: a read is one `read()` of a complete file
//!   plus a checksum verification; no lock file, no header locks.
//! - **Corruption is tolerated**: a torn, truncated, bit-flipped, or
//!   foreign-format object fails the checksum/bounds checks, is
//!   best-effort deleted, and reads as a miss. The store never replays a
//!   plausibly-decodable-but-wrong artifact: diagnostics are content the
//!   checker trusts verbatim, so "mostly intact" is not good enough.
//! - **Size-bounded**: [`ArtifactStore::evict_to`] deletes
//!   oldest-modified objects first until the store fits a byte budget
//!   (`SJAVA_CACHE_MAX_BYTES` wires this to every store-backed check).
//!
//! Entries are content-addressed and valid forever, so eviction is purely
//! a disk-space policy, never a correctness event. A v3 (or older)
//! `cache.bin` in the same directory is ignored wholesale, and a v4–v7
//! object tree lives at a different path and is never read — old formats
//! degrade to clean misses.

use crate::deps::{put_dep_list, read_dep_list, Relative};
use crate::{Callees, MethodEntry};
use sjava_analysis::heappath::HeapPath;
use sjava_analysis::written::MethodSummary;
use sjava_core::shared::SharedMember;
use sjava_syntax::track::DepKey;
use sjava_syntax::wire::{self, Reader};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Object-file magic; anything else is ignored wholesale.
const MAGIC: &[u8; 10] = b"SJAVACACHE";
/// Store format version. Versions 1–3 were the monolithic `cache.bin`
/// formats; version 4 introduced the per-object content-addressed store;
/// version 5 re-keyed entries for dependency-tracked revalidation and
/// added the `deps` object kind; version 6 makes keys and fact
/// fingerprints position-free and stores diagnostics relative to their
/// anchors; version 7 hashes summaries and resolved locations by value
/// and folds method declaration digests as sub-digests, which changes
/// what every key means; version 8 folds each entry's read-set into the
/// entry object and drops the `deps` and `time` kinds. Old formats live
/// at different paths entirely and are never read — a v8 store opened
/// over an older directory starts from clean misses.
const VERSION: u32 = 8;

/// Environment variable bounding the store's total size in bytes. When
/// set, every store-backed check evicts oldest-modified objects until the
/// store fits. Malformed values warn once on stderr and leave the store
/// unbounded.
pub const MAX_BYTES_ENV: &str = "SJAVA_CACHE_MAX_BYTES";

/// Distinguishes the artifact kinds sharing one store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Per-method analysis result and its read-set, keyed by content
    /// fingerprint.
    Entry,
    /// Direct-callee set and its read-set, keyed by `local_fp`.
    Callees,
}

impl Kind {
    fn ext(self) -> &'static str {
        match self {
            Kind::Entry => "entry",
            Kind::Callees => "callees",
        }
    }
}

/// Monotone per-process counter making temp-file names unique even when
/// several threads publish concurrently.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A handle on one on-disk artifact store rooted at a cache directory.
/// Cloning is cheap; handles in different processes pointed at the same
/// directory share the store safely.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
}

impl ArtifactStore {
    /// Opens (and creates, if needed) the store under `dir`, verifying
    /// the object tree is writable.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the directory cannot be created —
    /// callers degrade to a no-cache session (see
    /// [`crate::IncrementalChecker::with_dir`]).
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ArtifactStore> {
        let root = dir.into().join(format!("v{VERSION}")).join("objects");
        std::fs::create_dir_all(&root)?;
        // `create_dir_all` succeeds on an existing but read-only tree;
        // probe writability explicitly so misconfiguration surfaces at
        // open time, not as silent per-object failures mid-check.
        let probe = root.join(format!(
            ".probe-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&probe, b"")?;
        let _ = std::fs::remove_file(&probe);
        Ok(ArtifactStore { root })
    }

    /// The object-tree root (`<dir>/v8/objects`), exposed for tests and
    /// maintenance tooling.
    pub fn objects_root(&self) -> &Path {
        &self.root
    }

    /// Path of the object holding `kind`/`key`.
    pub(crate) fn object_path(&self, kind: Kind, key: u64) -> PathBuf {
        let hex = format!("{key:016x}");
        self.root
            .join(&hex[..2])
            .join(format!("{hex}.{}", kind.ext()))
    }

    /// Reads and verifies an object's payload. A missing, torn,
    /// truncated, bit-flipped, or foreign-format file reads as `None`;
    /// verifiably corrupt files are best-effort deleted so the next
    /// writer republishes them.
    pub(crate) fn get(&self, kind: Kind, key: u64) -> Option<Vec<u8>> {
        let path = self.object_path(kind, key);
        let buf = std::fs::read(&path).ok()?;
        match decode_object(&buf) {
            Some(payload) => Some(payload.to_vec()),
            None => {
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Publishes `payload` under `kind`/`key` atomically (temp file +
    /// rename), replacing any object already there: no key folds the
    /// interface facts, so after an interface edit the same key can
    /// legitimately hold another result (its read-set tells them apart).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; callers treat persistence as best-effort.
    pub(crate) fn put(&self, kind: Kind, key: u64, payload: &[u8]) -> std::io::Result<()> {
        let path = self.object_path(kind, key);
        let dir = path.parent().expect("object path has a fan-out parent");
        std::fs::create_dir_all(dir)?;
        let mut buf = Vec::with_capacity(MAGIC.len() + 12 + payload.len());
        buf.extend_from_slice(MAGIC);
        wire::put_u32(&mut buf, VERSION);
        wire::put_u64(&mut buf, checksum(payload));
        buf.extend_from_slice(payload);
        // The temp file lives in the destination directory so the final
        // `rename` never crosses a filesystem boundary (which would turn
        // the atomic publish into a copy).
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &buf)?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Total bytes currently held by the store's objects.
    pub fn size_bytes(&self) -> u64 {
        self.walk().iter().map(|(_, len, _)| len).sum()
    }

    /// Number of objects currently in the store (any kind).
    pub fn object_count(&self) -> usize {
        self.walk().len()
    }

    /// Deletes oldest-modified objects until the store holds at most
    /// `max_bytes`, returning the number of objects evicted. Eviction is
    /// approximate LRU: publish time stands in for use time, which is
    /// conservative for content-addressed objects (old-but-hot ones may
    /// be evicted and will simply be recomputed and republished — a
    /// disk-space policy, never a correctness event).
    pub fn evict_to(&self, max_bytes: u64) -> usize {
        let mut objects = self.walk();
        let mut total: u64 = objects.iter().map(|(_, len, _)| len).sum();
        if total <= max_bytes {
            return 0;
        }
        // Oldest first; path tiebreak keeps the order total so racing
        // evictors delete the same prefix.
        objects.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.2.cmp(&b.2)));
        let mut evicted = 0;
        for (_, len, path) in objects {
            if total <= max_bytes {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                evicted += 1;
            }
        }
        evicted
    }

    /// Every object as `(mtime, len, path)`. Temp files and foreign names
    /// are skipped; a concurrently-deleted file is silently dropped.
    fn walk(&self) -> Vec<(std::time::SystemTime, u64, PathBuf)> {
        let mut out = Vec::new();
        let Ok(fanout) = std::fs::read_dir(&self.root) else {
            return out;
        };
        for sub in fanout.flatten() {
            let Ok(entries) = std::fs::read_dir(sub.path()) else {
                continue;
            };
            for f in entries.flatten() {
                let name = f.file_name();
                if name.to_string_lossy().starts_with('.') {
                    continue; // temp or probe file
                }
                if let Ok(meta) = f.metadata() {
                    if meta.is_file() {
                        let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                        out.push((mtime, meta.len(), f.path()));
                    }
                }
            }
        }
        out
    }

    // ---- typed helpers over the raw object API -------------------------

    /// Fetches and decodes a per-method entry with its recorded read-set.
    pub(crate) fn get_entry(&self, key: u64) -> Option<(MethodEntry, Vec<(DepKey, u64)>)> {
        decode_entry(&self.get(Kind::Entry, key)?)
    }

    /// Publishes a per-method entry with its recorded read-set.
    pub(crate) fn put_entry(
        &self,
        key: u64,
        entry: &MethodEntry,
        deps: &[(DepKey, u64)],
    ) -> std::io::Result<()> {
        self.put(Kind::Entry, key, &encode_entry(entry, deps))
    }

    /// Fetches and decodes a callee set with its recorded read-set.
    pub(crate) fn get_callees(&self, key: u64) -> Option<Callees> {
        decode_callees(&self.get(Kind::Callees, key)?)
    }

    /// Publishes a callee set with its read-set.
    pub(crate) fn put_callees(&self, key: u64, callees: &Callees) -> std::io::Result<()> {
        self.put(Kind::Callees, key, &encode_callees(callees))
    }
}

/// FNV-64 digest of the payload bytes, stored in the object header and
/// verified before any decoding happens.
fn checksum(payload: &[u8]) -> u64 {
    let mut h = sjava_lattice::Fnv64::new();
    h.write(payload);
    h.finish()
}

/// Validates an object file's header and checksum, returning the payload.
fn decode_object(buf: &[u8]) -> Option<&[u8]> {
    let mut r = Reader::new(buf);
    if r.bytes(MAGIC.len())? != MAGIC || r.u32()? != VERSION {
        return None;
    }
    let expected = r.u64()?;
    let payload = r.rest();
    (checksum(payload) == expected).then_some(payload)
}

// ---- payload codecs ----------------------------------------------------

fn put_paths(buf: &mut Vec<u8>, paths: &BTreeSet<HeapPath>) {
    wire::put_u64(buf, paths.len() as u64);
    for p in paths {
        wire::put_u64(buf, p.0.len() as u64);
        for seg in &p.0 {
            wire::put_str(buf, seg);
        }
    }
}

fn put_members(buf: &mut Vec<u8>, members: &BTreeSet<SharedMember>) {
    wire::put_u64(buf, members.len() as u64);
    for (class, field) in members {
        wire::put_str(buf, class);
        wire::put_str(buf, field);
    }
}

/// Deterministic encoding of one per-method entry and its read-set (equal
/// entries produce equal bytes — all sets are ordered).
fn encode_entry(e: &MethodEntry, deps: &[(DepKey, u64)]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_paths(&mut buf, &e.summary.reads);
    put_paths(&mut buf, &e.summary.may_writes);
    put_paths(&mut buf, &e.summary.must_writes);
    e.flow.put(&mut buf);
    e.alias.put(&mut buf);
    buf.push(e.shared_present as u8);
    put_members(&mut buf, &e.shared_clears);
    put_members(&mut buf, &e.shared_reads);
    wire::put_u64(&mut buf, e.term_failures as u64);
    e.term.put(&mut buf);
    put_dep_list(&mut buf, deps);
    buf
}

fn paths(r: &mut Reader<'_>) -> Option<BTreeSet<HeapPath>> {
    let n = r.count()?;
    let mut out = BTreeSet::new();
    for _ in 0..n {
        let segs = r.count()?;
        let mut path = Vec::new();
        for _ in 0..segs {
            path.push(r.string()?);
        }
        out.insert(HeapPath(path));
    }
    Some(out)
}

fn members(r: &mut Reader<'_>) -> Option<BTreeSet<SharedMember>> {
    let n = r.count()?;
    let mut out = BTreeSet::new();
    for _ in 0..n {
        out.insert((r.string()?, r.string()?));
    }
    Some(out)
}

/// Decodes one per-method entry and its read-set; `None` on any
/// truncation, bad tag, or trailing garbage.
fn decode_entry(payload: &[u8]) -> Option<(MethodEntry, Vec<(DepKey, u64)>)> {
    let mut r = Reader::new(payload);
    let entry = MethodEntry {
        summary: Arc::new(MethodSummary {
            reads: paths(&mut r)?,
            may_writes: paths(&mut r)?,
            must_writes: paths(&mut r)?,
        }),
        flow: Relative::read(&mut r)?,
        alias: Relative::read(&mut r)?,
        shared_present: match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        },
        shared_clears: members(&mut r)?,
        shared_reads: members(&mut r)?,
        term_failures: r.u64()? as usize,
        term: Relative::read(&mut r)?,
    };
    let deps = read_dep_list(&mut r)?;
    r.is_exhausted().then_some((entry, deps))
}

/// Deterministic encoding of a direct-callee set and its read-set.
fn encode_callees(callees: &Callees) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::put_u64(&mut buf, callees.set.len() as u64);
    for mref in &callees.set {
        wire::put_str(&mut buf, &mref.0);
        wire::put_str(&mut buf, &mref.1);
    }
    put_dep_list(&mut buf, &callees.deps);
    buf
}

/// Decodes a direct-callee set and its read-set.
fn decode_callees(payload: &[u8]) -> Option<Callees> {
    let mut r = Reader::new(payload);
    let n = r.count()?;
    let mut set = BTreeSet::new();
    for _ in 0..n {
        set.insert((r.string()?, r.string()?));
    }
    let deps = read_dep_list(&mut r)?;
    r.is_exhausted().then_some(Callees { set, deps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::Anchor;
    use sjava_syntax::diag::{Diag, Diagnostic};
    use sjava_syntax::span::Span;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sjava-store-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Diagnostics anchored as an entry's would be: spans before offset
    /// 3 on the default lattice, the rest on the method.
    fn relative(diags: &[Diagnostic]) -> Relative<Anchor> {
        Relative::new(diags, |s| {
            let anchor = if s.start < 3 {
                Anchor::DefaultLattice
            } else {
                Anchor::Method
            };
            Some((anchor, 0))
        })
        .expect("every span anchored")
    }

    fn sample_entry() -> MethodEntry {
        MethodEntry {
            summary: Arc::new(MethodSummary {
                reads: [HeapPath(vec!["a".into(), "b".into()])].into(),
                may_writes: [HeapPath::root("x")].into(),
                must_writes: BTreeSet::new(),
            }),
            flow: relative(&[Diag::flow_up("flow violation", Span::new(3, 9))
                .with_note("note")
                .with_label(Span::new(0, 2), "lattice declared here")
                .with_suggestion(Span::new(3, 3), "fix ", "insert fix")]),
            alias: Relative::default(),
            shared_present: true,
            shared_clears: [("C".to_string(), "f".to_string())].into(),
            shared_reads: BTreeSet::new(),
            term_failures: 2,
            term: relative(&[Diag::unprovable_loop(
                "loop may not terminate",
                Span::new(10, 20),
            )]),
        }
    }

    /// A read-set as an entry records one, with facts named by one name,
    /// by two, by none and by a number.
    fn sample_deps() -> Vec<(DepKey, u64)> {
        vec![
            (DepKey::Iface("A".into()), 11),
            (DepKey::MethodFacts("A".into(), "main".into()), 22),
            (DepKey::SharedGate, 33),
            (DepKey::Completion(44), 55),
        ]
    }

    #[test]
    fn objects_round_trip() {
        let dir = scratch("roundtrip");
        let store = ArtifactStore::open(&dir).expect("open");
        let (entry, deps) = (sample_entry(), sample_deps());
        store.put_entry(42, &entry, &deps).expect("put entry");
        assert_eq!(store.get_entry(42).expect("hit"), (entry, deps));
        assert_eq!(store.get_entry(43), None, "unrelated key misses");
        // A re-publish under the same key replaces result and read-set
        // together.
        let mut other = sample_entry();
        other.term_failures = 9;
        store.put_entry(42, &other, &[]).expect("re-put entry");
        assert_eq!(store.get_entry(42).expect("hit"), (other, Vec::new()));

        let callees = Callees {
            set: [("A".to_string(), "f".to_string())].into(),
            deps: vec![(DepKey::Resolve("A".into(), "f".into()), 5)],
        };
        store.put_callees(9, &callees).expect("put callees");
        assert_eq!(store.get_callees(9).expect("hit"), callees);
        assert_eq!(store.get_entry(9), None, "kinds do not share keys");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_flipped_bit_reads_as_a_miss() {
        let dir = scratch("bitflip");
        let store = ArtifactStore::open(&dir).expect("open");
        store
            .put_entry(1, &sample_entry(), &sample_deps())
            .expect("put");
        let path = store.object_path(Kind::Entry, 1);
        let clean = std::fs::read(&path).expect("read");
        for pos in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[pos] ^= 0x10;
            std::fs::write(&path, &corrupt).expect("write");
            assert_eq!(
                store.get_entry(1),
                None,
                "flipped byte at {pos} must invalidate the object"
            );
            // The corrupt object was deleted so a writer can republish.
            assert!(!path.exists(), "corrupt object at {pos} must be removed");
            std::fs::write(&path, &clean).expect("restore");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncations_and_foreign_files_read_as_misses() {
        let dir = scratch("truncate");
        let store = ArtifactStore::open(&dir).expect("open");
        store
            .put_entry(5, &sample_entry(), &sample_deps())
            .expect("put");
        let path = store.object_path(Kind::Entry, 5);
        let clean = std::fs::read(&path).expect("read");
        for cut in 0..clean.len() {
            std::fs::write(&path, &clean[..cut]).expect("truncate");
            assert_eq!(store.get_entry(5), None, "truncation at {cut} must miss");
        }
        std::fs::write(&path, b"NOTANOBJECT").expect("foreign");
        assert_eq!(store.get_entry(5), None);
        // Old monolithic formats (a `cache.bin` beside the object tree)
        // are ignored wholesale — the store never even opens them.
        std::fs::write(dir.join("cache.bin"), b"SJAVACACHE old format").expect("v3 file");
        assert_eq!(store.get_entry(5), None);
        assert_eq!(store.get_entry(6), None);
        // A well-formed v5 object (its entries keyed on absolute spans),
        // v6 object (its keys folding `Debug` text) or v7 object (its
        // read-set in a separate `deps` object) in its own tree beside
        // this one is never read: it lives at another path, and its
        // header names another version. The current payload stands in
        // for each old one, so only the version can reject it.
        let payload = encode_entry(&sample_entry(), &sample_deps());
        for old in [5u32, 6, 7] {
            let mut bytes = MAGIC.to_vec();
            wire::put_u32(&mut bytes, old);
            wire::put_u64(&mut bytes, checksum(&payload));
            bytes.extend_from_slice(&payload);
            let old_path = dir.join(format!("v{old}")).join("objects").join(
                store
                    .object_path(Kind::Entry, 6)
                    .strip_prefix(&store.root)
                    .expect("in tree"),
            );
            std::fs::create_dir_all(old_path.parent().expect("fan-out dir")).expect("old tree");
            std::fs::write(&old_path, &bytes).expect("old object");
            assert_eq!(store.get_entry(6), None, "a v{old} tree is never read");
            // Copied into the current tree it still misses, on its
            // version field.
            std::fs::write(store.object_path(Kind::Entry, 6), &bytes).expect("old bytes");
            assert_eq!(store.get_entry(6), None, "a v{old} header is rejected");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_is_oldest_first_and_bounded() {
        let dir = scratch("evict");
        let store = ArtifactStore::open(&dir).expect("open");
        // Three objects with strictly increasing mtimes.
        let entry = |n: u64| MethodEntry {
            term_failures: n as usize,
            ..sample_entry()
        };
        for key in 0..3u64 {
            store.put_entry(key, &entry(key), &[]).expect("put");
            let path = store.object_path(Kind::Entry, key);
            // Space the mtimes out explicitly — filesystem timestamp
            // granularity can be coarse.
            let t = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_000_000 + key * 1000);
            let f = std::fs::File::options()
                .append(true)
                .open(&path)
                .expect("open");
            f.set_modified(t).expect("set mtime");
        }
        let total = store.size_bytes();
        let per_object = total / 3;
        // Budget for two objects: the oldest (key 0) must go.
        let evicted = store.evict_to(per_object * 2);
        assert_eq!(evicted, 1);
        assert_eq!(store.get_entry(0), None, "oldest object evicted");
        assert_eq!(store.get_entry(1), Some((entry(1), Vec::new())));
        assert_eq!(store.get_entry(2), Some((entry(2), Vec::new())));
        // Already under budget: no-op.
        assert_eq!(store.evict_to(u64::MAX), 0);
        // Zero budget clears everything.
        store.evict_to(0);
        assert_eq!(store.object_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_on_one_key_never_tear_a_read() {
        // N writers race publishing the same key while readers poll: every
        // successful read must be one of the complete payloads, never a
        // torn mixture. (In real use content addressing makes all writers
        // agree on the payload; racing distinct payloads is strictly
        // harsher than production.)
        let dir = scratch("torn");
        let store = ArtifactStore::open(&dir).expect("open");
        let payloads: Vec<Vec<u8>> = (0..4u8)
            .map(|w| {
                // Large enough that a torn write would be observable.
                (0..64 * 1024).map(|i| w.wrapping_add(i as u8)).collect()
            })
            .collect();
        std::thread::scope(|s| {
            for p in &payloads {
                let store = &store;
                s.spawn(move || {
                    for _ in 0..50 {
                        store.put(Kind::Entry, 77, p).expect("put");
                    }
                });
            }
            for _ in 0..4 {
                let store = &store;
                let payloads = &payloads;
                s.spawn(move || {
                    for _ in 0..200 {
                        if let Some(got) = store.get(Kind::Entry, 77) {
                            assert!(payloads.contains(&got), "read returned a torn object");
                        }
                    }
                });
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
