//! Stable 64-bit content fingerprints.
//!
//! The incremental checking layer keys cached per-method analysis results
//! on content hashes, so the hash must be **stable**: identical input
//! bytes must fingerprint identically across processes, runs, and
//! platforms. `std::collections::hash_map::DefaultHasher` is randomly
//! seeded per process, so this module provides a plain FNV-1a 64-bit
//! hasher instead — deterministic, allocation-free, and fast enough for
//! whole-AST hashing. Values are folded structurally (field by field),
//! never through their `Debug` text.

/// FNV-1a offset basis.
const OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a prime.
const PRIME: u64 = 0x100000001b3;

/// A deterministic FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64(OFFSET)
    }

    /// Folds raw bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        self.0 = h;
    }

    /// Folds a `u64` (little-endian) into the state.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `usize` into the state.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds a string (length-prefixed, so `("ab","c")` and `("a","bc")`
    /// hash differently).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// The current 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Mixes two digests into one (order-sensitive).
pub fn mix(a: u64, b: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(a);
    h.write_u64(b);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable() {
        let mut h = Fnv64::new();
        h.write_str("hello");
        let a = h.finish();
        let mut h2 = Fnv64::new();
        h2.write_str("hello");
        assert_eq!(a, h2.finish());
        let mut h3 = Fnv64::new();
        h3.write_str("hellp");
        assert_ne!(a, h3.finish());
    }

    #[test]
    fn length_prefix_disambiguates_concatenation() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn mix_is_order_sensitive() {
        assert_ne!(mix(1, 2), mix(2, 1));
    }
}
