//! Concurrent content-addressed artifact store — the disk layer behind
//! directory-backed [`crate::IncrementalChecker`] sessions. Any number
//! of `sjava check` processes may share one store directory.
//!
//! ## Layout (format v6)
//!
//! Earlier formats serialized the whole session into one monolithic
//! `cache.bin` rewritten after every check — a design that cannot be
//! shared by concurrent processes (last writer wins, droppings half of
//! each worker's entries) and that forces a full decode up front. Version
//! 4 introduced **one object per artifact** under a fan-out directory;
//! version 5 re-keyed entries for dependency-tracked revalidation (the
//! key no longer folds the whole-program interface hash) and paired each
//! entry with a recorded read-set; version 6 makes every key and fact
//! fingerprint position-free (spans hashed relative to their
//! declaration) and stores each entry's diagnostics relative to their
//! anchors, so one object serves a method wherever its text sits:
//!
//! ```text
//! <dir>/v6/objects/<hh>/<16-hex-key>.<kind>
//! ```
//!
//! where `<hh>` is the first byte of the key in hex (256-way fan-out) and
//! `<kind>` is one of:
//!
//! - `entry` — a per-method analysis result ([`crate::MethodEntry`]),
//!   keyed by the method's position-free content fingerprint (body +
//!   callee summaries; interface facts live in the paired `deps`
//!   object). Each diagnostic span is stored as an offset from its
//!   anchor, with one anchor tag per span after each diagnostic list;
//!   a tag count that does not match the spans reads as corrupt;
//! - `deps` — the read-set recorded while that entry was computed:
//!   `(DepKey, fingerprint)` pairs plus the checksum of the entry
//!   payload they were recorded for, so readers never combine an entry
//!   and a read-set from different publishes;
//! - `callees` — a method's direct-callee set with the read-set it was
//!   computed under, keyed on the method's position-free `local_fp` and
//!   revalidated like an entry;
//! - `time` — the method's last measured flow-check duration in
//!   nanoseconds, keyed by the *name* hash (stable across edits), feeding
//!   the fan-out cost model on warm runs.
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
//!   (`SJAVA_CACHE_MAX_BYTES` wires this to every persisting check).
//!
//! Entries are content-addressed and valid forever, so eviction is purely
//! a disk-space policy, never a correctness event. A v3 (or older)
//! `cache.bin` in the same directory is ignored wholesale, and a v4 or v5
//! object tree lives at a different path and is never read — old formats
//! degrade to clean misses.

use crate::deps::Relative;
use crate::{Callees, MethodEntry};
use sjava_analysis::heappath::HeapPath;
use sjava_analysis::written::MethodSummary;
use sjava_core::shared::SharedMember;
use sjava_syntax::wire::{self, Reader};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Object-file magic; anything else is ignored wholesale.
const MAGIC: &[u8; 10] = b"SJAVACACHE";
/// Store format version. Versions 1–3 were the monolithic `cache.bin`
/// formats; version 4 introduced the per-object content-addressed store;
/// version 5 re-keyed entries for dependency-tracked revalidation and
/// added the `deps` object kind; version 6 makes keys and fact
/// fingerprints position-free and stores diagnostics relative to their
/// anchors. Old formats live at different paths entirely and are never
/// read — a v6 store opened over an older directory starts from clean
/// misses.
const VERSION: u32 = 6;

/// Environment variable bounding the store's total size in bytes. When
/// set, every persisting check evicts oldest-modified objects until the
/// store fits. Malformed values warn once on stderr and leave the store
/// unbounded.
pub const MAX_BYTES_ENV: &str = "SJAVA_CACHE_MAX_BYTES";

/// Distinguishes the artifact kinds sharing one store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Per-method analysis result, keyed by content fingerprint.
    Entry,
    /// Recorded read-set of an entry, under the same key as the entry.
    Deps,
    /// Direct-callee set and its read-set, keyed by `local_fp`.
    Callees,
    /// Measured flow-check nanoseconds, keyed by method-name hash.
    Time,
}

impl Kind {
    fn ext(self) -> &'static str {
        match self {
            Kind::Entry => "entry",
            Kind::Deps => "deps",
            Kind::Callees => "callees",
            Kind::Time => "time",
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
    /// [`crate::IncrementalChecker::from_env`]).
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

    /// The object-tree root (`<dir>/v6/objects`), exposed for tests and
    /// maintenance tooling.
    pub fn objects_root(&self) -> &Path {
        &self.root
    }

    /// Path of the object holding `kind`/`key`.
    pub fn object_path(&self, kind: Kind, key: u64) -> PathBuf {
        let hex = format!("{key:016x}");
        self.root
            .join(&hex[..2])
            .join(format!("{hex}.{}", kind.ext()))
    }

    /// Reads and verifies an object's payload. A missing, torn,
    /// truncated, bit-flipped, or foreign-format file reads as `None`;
    /// verifiably corrupt files are best-effort deleted so the next
    /// writer republishes them.
    pub fn get(&self, kind: Kind, key: u64) -> Option<Vec<u8>> {
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
    /// rename). With `replace: false` an existing object is left
    /// untouched — entries are content-addressed, so the bytes on disk
    /// are already the right ones and skipping the write is the fast
    /// path. `replace: true` overwrites (used for `time` objects, whose
    /// measurements refresh on every run).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; callers treat persistence as best-effort.
    pub fn put(&self, kind: Kind, key: u64, payload: &[u8], replace: bool) -> std::io::Result<()> {
        let path = self.object_path(kind, key);
        if !replace && path.exists() {
            return Ok(());
        }
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
    /// exact for `time` objects (rewritten each run) and conservative for
    /// content-addressed entries (old-but-hot entries may be evicted and
    /// will simply be recomputed and republished — a disk-space policy,
    /// never a correctness event).
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

    /// Fetches and decodes a per-method entry together with the checksum
    /// of its raw payload — the handle that pairs it with a `deps`
    /// object published for the same bytes.
    pub(crate) fn get_entry_with_fp(&self, key: u64) -> Option<(MethodEntry, u64)> {
        let payload = self.get(Kind::Entry, key)?;
        Some((decode_entry(&payload)?, checksum(&payload)))
    }

    /// Publishes a per-method entry, returning the payload checksum to
    /// pair with its read-set. Always replaces: since the key no longer
    /// folds interface facts, the same key can legitimately hold a
    /// different result after an interface edit (the paired `deps`
    /// object is what distinguishes them).
    pub(crate) fn put_entry(&self, key: u64, entry: &MethodEntry) -> std::io::Result<u64> {
        let payload = encode_entry(entry);
        let fp = checksum(&payload);
        self.put(Kind::Entry, key, &payload, true)?;
        Ok(fp)
    }

    /// Fetches and decodes an entry's recorded read-set, returning the
    /// dep list and the entry-payload checksum it was recorded for.
    pub(crate) fn get_deps(
        &self,
        key: u64,
    ) -> Option<(Vec<(sjava_syntax::track::DepKey, u64)>, u64)> {
        crate::deps::decode_deps(&self.get(Kind::Deps, key)?)
    }

    /// Publishes an entry's recorded read-set, paired (via `entry_fp`)
    /// with the entry payload it was recorded alongside.
    pub(crate) fn put_deps(
        &self,
        key: u64,
        deps: &[(sjava_syntax::track::DepKey, u64)],
        entry_fp: u64,
    ) -> std::io::Result<()> {
        self.put(
            Kind::Deps,
            key,
            &crate::deps::encode_deps(deps, entry_fp),
            true,
        )
    }

    /// Fetches and decodes a callee set with its recorded read-set.
    pub(crate) fn get_callees(&self, key: u64) -> Option<Callees> {
        decode_callees(&self.get(Kind::Callees, key)?)
    }

    /// Publishes a callee set with its read-set. Always replaces: the
    /// key folds no interface fact, so after an interface edit the same
    /// key can hold another set (the read-set tells them apart).
    pub(crate) fn put_callees(&self, key: u64, callees: &Callees) -> std::io::Result<()> {
        self.put(Kind::Callees, key, &encode_callees(callees), true)
    }

    /// Fetches a recorded flow-check duration in nanoseconds.
    pub(crate) fn get_time(&self, key: u64) -> Option<u64> {
        let payload = self.get(Kind::Time, key)?;
        Reader::new(&payload).u64()
    }

    /// Publishes a flow-check duration (always replaces — measurements
    /// refresh every run).
    pub(crate) fn put_time(&self, key: u64, nanos: u64) -> std::io::Result<()> {
        let mut payload = Vec::with_capacity(8);
        wire::put_u64(&mut payload, nanos);
        self.put(Kind::Time, key, &payload, true)
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

/// Deterministic encoding of one per-method entry (equal entries produce
/// equal bytes — all sets are ordered).
pub(crate) fn encode_entry(e: &MethodEntry) -> Vec<u8> {
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

/// Decodes one per-method entry; `None` on any truncation, bad tag, or
/// trailing garbage.
pub(crate) fn decode_entry(payload: &[u8]) -> Option<MethodEntry> {
    let mut r = Reader::new(payload);
    let entry = MethodEntry {
        summary: MethodSummary {
            reads: paths(&mut r)?,
            may_writes: paths(&mut r)?,
            must_writes: paths(&mut r)?,
        },
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
    r.is_exhausted().then_some(entry)
}

/// Deterministic encoding of a direct-callee set and its read-set.
pub(crate) fn encode_callees(callees: &Callees) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::put_u64(&mut buf, callees.set.len() as u64);
    for mref in &callees.set {
        wire::put_str(&mut buf, &mref.0);
        wire::put_str(&mut buf, &mref.1);
    }
    crate::deps::put_dep_list(&mut buf, &callees.deps);
    buf
}

/// Decodes a direct-callee set and its read-set.
pub(crate) fn decode_callees(payload: &[u8]) -> Option<Callees> {
    let mut r = Reader::new(payload);
    let n = r.count()?;
    let mut set = BTreeSet::new();
    for _ in 0..n {
        set.insert((r.string()?, r.string()?));
    }
    let deps = crate::deps::read_dep_list(&mut r)?;
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
            summary: MethodSummary {
                reads: [HeapPath(vec!["a".into(), "b".into()])].into(),
                may_writes: [HeapPath::root("x")].into(),
                must_writes: BTreeSet::new(),
            },
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

    #[test]
    fn objects_round_trip() {
        let dir = scratch("roundtrip");
        let store = ArtifactStore::open(&dir).expect("open");
        let entry = sample_entry();
        let efp = store.put_entry(42, &entry).expect("put entry");
        assert_eq!(store.get_entry_with_fp(42).expect("hit"), (entry, efp));
        assert_eq!(store.get_entry_with_fp(43), None, "unrelated key misses");

        let deps = vec![
            (sjava_syntax::track::DepKey::Iface("A".into()), 11u64),
            (sjava_syntax::track::DepKey::SharedGate, 22u64),
        ];
        store.put_deps(42, &deps, efp).expect("put deps");
        assert_eq!(store.get_deps(42).expect("hit"), (deps, efp));

        let callees = Callees {
            set: [("A".to_string(), "f".to_string())].into(),
            deps: vec![(
                sjava_syntax::track::DepKey::Resolve("A".into(), "f".into()),
                5,
            )],
        };
        store.put_callees(9, &callees).expect("put callees");
        assert_eq!(store.get_callees(9).expect("hit"), callees);

        store.put_time(7, 123_456).expect("put time");
        assert_eq!(store.get_time(7), Some(123_456));
        store.put_time(7, 999).expect("replace time");
        assert_eq!(store.get_time(7), Some(999), "time objects replace");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_replace_repairs_the_pairing_checksum() {
        // The same key can hold a different result after an interface
        // edit; re-publishing must both rewrite the bytes and hand back
        // the new checksum so the paired deps object follows.
        let dir = scratch("replace");
        let store = ArtifactStore::open(&dir).expect("open");
        let fp1 = store.put_entry(3, &sample_entry()).expect("put");
        let mut other = sample_entry();
        other.term_failures = 9;
        let fp2 = store.put_entry(3, &other).expect("re-put");
        assert_ne!(fp1, fp2);
        assert_eq!(store.get_entry_with_fp(3).expect("hit"), (other, fp2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_flipped_bit_reads_as_a_miss() {
        let dir = scratch("bitflip");
        let store = ArtifactStore::open(&dir).expect("open");
        store.put_entry(1, &sample_entry()).expect("put");
        let path = store.object_path(Kind::Entry, 1);
        let clean = std::fs::read(&path).expect("read");
        for pos in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[pos] ^= 0x10;
            std::fs::write(&path, &corrupt).expect("write");
            assert_eq!(
                store.get_entry_with_fp(1),
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
        store.put_entry(5, &sample_entry()).expect("put");
        let path = store.object_path(Kind::Entry, 5);
        let clean = std::fs::read(&path).expect("read");
        for cut in 0..clean.len() {
            std::fs::write(&path, &clean[..cut]).expect("truncate");
            assert_eq!(
                store.get_entry_with_fp(5),
                None,
                "truncation at {cut} must miss"
            );
        }
        std::fs::write(&path, b"NOTANOBJECT").expect("foreign");
        assert_eq!(store.get_entry_with_fp(5), None);
        // Old monolithic formats (a `cache.bin` beside the object tree)
        // are ignored wholesale — the store never even opens them.
        std::fs::write(dir.join("cache.bin"), b"SJAVACACHE old format").expect("v3 file");
        assert_eq!(store.get_entry_with_fp(5), None);
        assert_eq!(store.get_entry_with_fp(6), None);
        // A well-formed v5 object (its entries keyed on absolute spans) in
        // the v5 tree beside this one is never read: it lives at another
        // path, and its header names another version.
        let payload = encode_entry(&sample_entry());
        let mut v5 = MAGIC.to_vec();
        wire::put_u32(&mut v5, 5);
        wire::put_u64(&mut v5, checksum(&payload));
        v5.extend_from_slice(&payload);
        let v5_path = dir.join("v5").join("objects").join(
            store
                .object_path(Kind::Entry, 6)
                .strip_prefix(&store.root)
                .expect("in tree"),
        );
        std::fs::create_dir_all(v5_path.parent().expect("fan-out dir")).expect("v5 tree");
        std::fs::write(&v5_path, &v5).expect("v5 object");
        assert_eq!(store.get_entry_with_fp(6), None, "a v5 tree is never read");
        // Copied into the v6 tree it still misses, on its version field.
        std::fs::write(store.object_path(Kind::Entry, 6), &v5).expect("v5 bytes in v6");
        assert_eq!(store.get_entry_with_fp(6), None, "a v5 header is rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn skip_if_exists_does_not_rewrite() {
        let dir = scratch("skip");
        let store = ArtifactStore::open(&dir).expect("open");
        // With `replace: false` an existing object keeps its bytes and
        // its mtime.
        store.put(Kind::Callees, 3, b"first", false).expect("put");
        let path = store.object_path(Kind::Callees, 3);
        let before = std::fs::metadata(&path).expect("meta").modified().ok();
        let marker = std::fs::read(&path).expect("read");
        store
            .put(Kind::Callees, 3, b"second", false)
            .expect("re-put");
        assert_eq!(std::fs::read(&path).expect("read"), marker);
        assert_eq!(
            std::fs::metadata(&path).expect("meta").modified().ok(),
            before
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_is_oldest_first_and_bounded() {
        let dir = scratch("evict");
        let store = ArtifactStore::open(&dir).expect("open");
        // Three objects with strictly increasing mtimes.
        for key in 0..3u64 {
            store.put_time(key, key).expect("put");
            let path = store.object_path(Kind::Time, key);
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
        assert_eq!(store.get_time(0), None, "oldest object evicted");
        assert_eq!(store.get_time(1), Some(1));
        assert_eq!(store.get_time(2), Some(2));
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
                        store.put(Kind::Entry, 77, p, true).expect("put");
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
