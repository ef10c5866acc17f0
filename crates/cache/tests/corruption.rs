//! Artifact-store corruption tolerance: every mangled object file —
//! truncated at any length, written by a different format version, or
//! with arbitrary payload bits flipped — must degrade to cache *misses*.
//! A corrupt object may never panic the loader, and (the reason every
//! object carries a checksum) may never be decoded into
//! plausible-but-wrong entries that a later check would replay as wrong
//! diagnostics under a still-matching fingerprint. Old monolithic
//! `cache.bin` files (store formats v3 and earlier) must likewise degrade
//! to clean misses, untouched.
//!
//! The probe program fails the checker on purpose: wrong replay of its
//! error list would be visible in the diagnostic bytes, so "diagnostics
//! byte-identical to a cache-less check" proves both halves (no panic,
//! no wrong replay) at once.

use sjava_cache::IncrementalChecker;
use std::path::{Path, PathBuf};

/// A deliberately failing program (one `@LOC` stripped from a clean
/// synthetic corpus would also do, but a hand-rolled probe keeps this
/// crate's dev-dependencies flat): flow-up plus an unprovable loop, so
/// the cached entries carry several error diagnostics with labels.
const PROBE: &str = r#"@LATTICE("LO<HI") @METHODDEFAULT("V<IN") @THISLOC("V")
class A {
    @LOC("HI") int hi; @LOC("LO") int lo;
    void main() {
        SSJAVA: while (true) {
            @LOC("IN") int x = Device.read();
            hi = x;
            lo = hi;
            hi = lo;
            while (x != 0) { x = Device.read(); }
            Out.emit(lo);
        }
    }
    @LATTICE("S<P") @THISLOC("S") @RETURNLOC("S")
    int helper(@LOC("P") int p) {
        @LOC("S") int r = p + 1;
        return r;
    }
}"#;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sjava-cache-corruption-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Renders the probe's diagnostics through a fresh directory-backed
/// session, asserting it does not panic whatever the store holds.
fn render_via_dir(dir: &Path) -> String {
    let mut session = IncrementalChecker::with_dir(dir);
    session.set_persist_min(0);
    let report = session.check_source(PROBE).expect("probe parses");
    format!("{}", report.diagnostics)
}

/// Populates the store with the probe's artifacts and returns every
/// `.entry` object path (the payloads a wrong replay would surface from).
fn seeded_entries(dir: &Path) -> Vec<PathBuf> {
    let mut session = IncrementalChecker::with_dir(dir);
    session.set_persist_min(0);
    let report = session.check_source(PROBE).expect("probe parses");
    assert!(
        report.diagnostics.has_errors(),
        "probe must fail so wrong replay would be visible"
    );
    let root = session
        .store()
        .expect("store opened")
        .objects_root()
        .to_path_buf();
    let mut entries = Vec::new();
    for fanout in std::fs::read_dir(root).expect("objects root").flatten() {
        for f in std::fs::read_dir(fanout.path())
            .expect("fanout dir")
            .flatten()
        {
            if f.path().extension().is_some_and(|e| e == "entry") {
                entries.push(f.path());
            }
        }
    }
    entries.sort();
    assert!(!entries.is_empty(), "probe must persist entry objects");
    entries
}

fn fresh_rendering() -> String {
    let report = sjava_core::check_source(PROBE).expect("probe parses");
    format!("{}", report.diagnostics)
}

#[test]
fn truncated_objects_degrade_to_misses() {
    let dir = scratch_dir("truncate");
    let entries = seeded_entries(&dir);
    let expected = fresh_rendering();
    let path = &entries[0];
    let clean = std::fs::read(path).expect("object bytes");
    // Every truncation length in a coarse sweep plus the interesting
    // boundaries (empty file, inside magic, inside version, inside
    // checksum, one byte short).
    let mut cuts: Vec<usize> = (0..clean.len()).step_by(13).collect();
    cuts.extend([0, 5, 12, 17, 21, clean.len().saturating_sub(1)]);
    for cut in cuts {
        std::fs::write(path, &clean[..cut]).expect("truncate");
        assert_eq!(
            render_via_dir(&dir),
            expected,
            "truncation at {cut} changed the diagnostics"
        );
        // The session deletes verifiably-corrupt objects and republishes;
        // restore the truncated state from scratch for the next cut.
        std::fs::write(path, &clean).expect("restore");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_format_versions_degrade_to_misses() {
    let dir = scratch_dir("versions");
    let entries = seeded_entries(&dir);
    let expected = fresh_rendering();
    // Every version but the current v7: the older formats (v5 keyed
    // entries on absolute spans, v6 folded `Debug` text into keys) and a
    // future one.
    for version in [0u32, 1, 2, 3, 4, 5, 6, 8, u32::MAX] {
        // Same payloads, forged version fields: every object must be
        // ignored wholesale.
        for path in &entries {
            let mut forged = std::fs::read(path).unwrap_or_default();
            if forged.len() >= 14 {
                forged[10..14].copy_from_slice(&version.to_le_bytes());
            }
            std::fs::write(path, &forged).expect("write forged version");
        }
        let mut session = IncrementalChecker::with_dir(&dir);
        session.set_persist_min(0);
        let report = session.check_source(PROBE).expect("probe parses");
        assert_eq!(
            format!("{}", report.diagnostics),
            expected,
            "version {version} changed the diagnostics"
        );
        assert_eq!(
            report.cache.expect("incremental").hits,
            0,
            "version {version} must produce only misses"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_payloads_degrade_to_misses() {
    let dir = scratch_dir("bitflip");
    let entries = seeded_entries(&dir);
    let expected = fresh_rendering();
    let path = &entries[entries.len() / 2];
    let clean = std::fs::read(path).expect("object bytes");
    let header = 10 + 4 + 8; // magic + version + checksum
                             // Flip one bit at a stride of positions across the payload (and a
                             // few inside the checksum itself): the loader must reject the object
                             // and the session must re-analyze that method, byte-identically.
    let mut positions: Vec<usize> = (header..clean.len()).step_by(7).collect();
    positions.extend(10 + 4..header); // corrupt the stored checksum too
    for (i, pos) in positions.into_iter().enumerate() {
        let mut corrupt = clean.clone();
        corrupt[pos] ^= 1 << (i % 8);
        std::fs::write(path, &corrupt).expect("write corrupt");
        assert_eq!(
            render_via_dir(&dir),
            expected,
            "flipped bit at byte {pos} changed the diagnostics"
        );
        std::fs::write(path, &clean).expect("restore");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_and_oversized_counts_never_panic() {
    let dir = scratch_dir("garbage");
    let entries = seeded_entries(&dir);
    let expected = fresh_rendering();
    let path = &entries[0];
    // Assorted hostile objects: random-ish noise, a giant count directly
    // after a forged (matching-checksum) v4 header, and an empty file.
    let noise: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
        .collect();
    let mut forged = b"SJAVACACHE".to_vec();
    forged.extend_from_slice(&4u32.to_le_bytes());
    let payload = u64::MAX.to_le_bytes(); // heap-path count ~1.8e19
    let mut h = {
        // Recompute the real checksum so decoding genuinely begins and
        // the MAX_ITEMS bound is what stops it.
        let mut h = 0xcbf29ce484222325u64;
        for &b in &payload {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
    .to_le_bytes()
    .to_vec();
    forged.append(&mut h);
    forged.extend_from_slice(&payload);
    for (tag, bytes) in [
        ("noise", noise.as_slice()),
        ("forged-count", forged.as_slice()),
        ("empty", &[][..]),
    ] {
        std::fs::write(path, bytes).expect("write");
        assert_eq!(
            render_via_dir(&dir),
            expected,
            "{tag} object changed the diagnostics"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v3_monolithic_cache_degrades_to_clean_misses() {
    // The explicit downgrade path: a cache directory populated by the old
    // monolithic format (v3 and earlier serialized the whole session into
    // one `cache.bin`). The v4 store lives under `v4/objects/` and never
    // opens the old file, so the session starts from clean misses — no
    // error, no wrong replay — and leaves the old bytes alone.
    let dir = scratch_dir("v3-downgrade");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let old = dir.join("cache.bin");
    let mut v3 = b"SJAVACACHE".to_vec();
    v3.extend_from_slice(&3u32.to_le_bytes());
    v3.extend_from_slice(&[0x5a; 256]); // checksum + stale v3 entries
    std::fs::write(&old, &v3).expect("write v3 file");

    let mut session = IncrementalChecker::with_dir(&dir);
    session.set_persist_min(0);
    let report = session.check_source(PROBE).expect("probe parses");
    assert_eq!(format!("{}", report.diagnostics), fresh_rendering());
    let stats = report.cache.expect("incremental");
    assert_eq!(stats.hits, 0, "v3 contents must never be read");
    assert!(stats.misses > 0);
    assert_eq!(
        std::fs::read(&old).expect("still present"),
        v3,
        "the old-format file must be left untouched"
    );

    // And the store it *did* open works: a second session over the same
    // directory serves everything warm.
    let mut second = IncrementalChecker::with_dir(&dir);
    second.set_persist_min(0);
    let warm = second.check_source(PROBE).expect("probe parses");
    assert_eq!(format!("{}", warm.diagnostics), fresh_rendering());
    assert_eq!(warm.cache.expect("incremental").misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
