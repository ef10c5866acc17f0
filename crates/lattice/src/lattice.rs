//! The location lattice `⟨L_SET, ⊑⟩` of §3.2.
//!
//! A [`Lattice`] holds a finite set of named location types plus the
//! implicit ⊤ and ⊥, with an ordering relation generated from `lower <
//! higher` pairs. The structure is required to be acyclic; shared locations
//! (§4.1.8) are flagged. The reflexive ordering `⊑` ("may flow down to") and
//! the strict ordering `⊏` are both exposed, along with GLB/LUB.

use std::collections::HashMap;
use std::fmt;

/// Index of a location inside one [`Lattice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocId(pub u32);

/// The distinguished top location ⊤.
pub const TOP: LocId = LocId(0);
/// The distinguished bottom location ⊥.
pub const BOTTOM: LocId = LocId(1);

/// Error building or mutating a lattice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LatticeError {
    /// An ordering entry creates a cycle.
    Cycle {
        /// A location on the cycle.
        at: String,
    },
}

impl fmt::Display for LatticeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatticeError::Cycle { at } => write!(f, "ordering cycle through location `{at}`"),
        }
    }
}

impl std::error::Error for LatticeError {}

/// A finite location lattice with ⊤/⊥ and precomputed reachability.
#[derive(Debug, Clone, PartialEq)]
pub struct Lattice {
    names: Vec<String>,
    by_name: HashMap<String, LocId>,
    /// `higher[x]` = direct successors of `x` in the "is lower than"
    /// relation, i.e. locations immediately above `x`.
    above: Vec<Vec<LocId>>,
    /// Inverse adjacency: locations immediately below.
    below: Vec<Vec<LocId>>,
    /// Transitive reachability: `reach_up[x]` contains `y` iff `x ⊑ y`.
    reach_up: Vec<Vec<u64>>,
    /// The transpose: `reach_down[x]` contains `y` iff `y ⊑ x`. Having
    /// both directions lets GLB/LUB intersect candidate sets word-wise
    /// instead of scanning all pairs.
    reach_down: Vec<Vec<u64>>,
    shared: Vec<bool>,
}

/// The single bitset membership test every ⊑ query routes through.
#[inline]
fn bit(row: &[u64], idx: usize) -> bool {
    row[idx / 64] & (1 << (idx % 64)) != 0
}

/// Sets one bit in a closure row.
#[inline]
fn set_bit(row: &mut [u64], idx: usize) {
    row[idx / 64] |= 1 << (idx % 64);
}

impl Lattice {
    /// Creates a lattice containing only ⊤ and ⊥.
    pub fn new() -> Self {
        let mut l = Lattice {
            names: vec!["_TOP".into(), "_BOTTOM".into()],
            by_name: HashMap::new(),
            above: vec![Vec::new(), Vec::new()],
            below: vec![Vec::new(), Vec::new()],
            reach_up: Vec::new(),
            reach_down: Vec::new(),
            shared: vec![false, false],
        };
        l.by_name.insert("_TOP".into(), TOP);
        l.by_name.insert("_BOTTOM".into(), BOTTOM);
        l.recompute();
        l
    }

    /// Builds a lattice from `lower < higher` pairs, shared names, and
    /// isolated names.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::Cycle`] if the pairs are cyclic.
    pub fn from_decl(
        orders: &[(String, String)],
        shared: &[String],
        isolated: &[String],
    ) -> Result<Self, LatticeError> {
        let mut l = Lattice::new();
        for (lo, hi) in orders {
            let lo = l.ensure(lo);
            let hi = l.ensure(hi);
            l.add_order(lo, hi)?;
        }
        for s in shared {
            let id = l.ensure(s);
            l.shared[id.0 as usize] = true;
        }
        for s in isolated {
            l.ensure(s);
        }
        l.recompute();
        Ok(l)
    }

    /// Number of locations including ⊤ and ⊥.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the lattice has only ⊤ and ⊥.
    pub fn is_empty(&self) -> bool {
        self.names.len() == 2
    }

    /// Number of developer-visible locations (excluding ⊤ and ⊥).
    pub fn named_len(&self) -> usize {
        self.names.len() - 2
    }

    /// Iterates over all location ids.
    pub fn ids(&self) -> impl Iterator<Item = LocId> {
        (0..self.names.len() as u32).map(LocId)
    }

    /// The name of a location.
    pub fn name(&self, id: LocId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Looks up a location by name.
    pub fn get(&self, name: &str) -> Option<LocId> {
        self.by_name.get(name).copied()
    }

    /// Interns a location name, adding it if new. Call
    /// [`Lattice::recompute`] after a batch of mutations.
    pub fn ensure(&mut self, name: &str) -> LocId {
        if let Some(id) = self.by_name.get(name) {
            return *id;
        }
        let id = LocId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        self.above.push(Vec::new());
        self.below.push(Vec::new());
        self.shared.push(false);
        id
    }

    /// Adds an ordering entry `lo ⊏ hi`.
    ///
    /// # Errors
    ///
    /// Returns [`LatticeError::Cycle`] if this would order a location below
    /// itself.
    pub fn add_order(&mut self, lo: LocId, hi: LocId) -> Result<(), LatticeError> {
        if lo == hi {
            return Err(LatticeError::Cycle {
                at: self.name(lo).to_string(),
            });
        }
        // Reject cycles: hi must not already be (transitively) below lo.
        if self.reaches_up(hi, lo) {
            return Err(LatticeError::Cycle {
                at: self.name(lo).to_string(),
            });
        }
        if !self.above[lo.0 as usize].contains(&hi) {
            self.above[lo.0 as usize].push(hi);
            self.below[hi.0 as usize].push(lo);
        }
        self.recompute();
        Ok(())
    }

    /// Removes an explicit ordering edge `lo ⊏ hi` (used when splicing
    /// chain nodes along an existing edge, §5.3.5). The overall ordering
    /// may still hold transitively through other edges.
    pub fn remove_order(&mut self, lo: LocId, hi: LocId) {
        self.above[lo.0 as usize].retain(|&x| x != hi);
        self.below[hi.0 as usize].retain(|&x| x != lo);
        self.recompute();
    }

    /// Transitive reduction: removes every explicit edge whose ordering is
    /// already implied by another route, leaving the Hasse diagram. The
    /// ordering relation is unchanged.
    pub fn reduce(&mut self) {
        let edges: Vec<(LocId, LocId)> = self
            .ids()
            .flat_map(|lo| {
                self.above[lo.0 as usize]
                    .iter()
                    .map(move |&hi| (lo, hi))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (lo, hi) in edges {
            self.above[lo.0 as usize].retain(|&x| x != hi);
            self.below[hi.0 as usize].retain(|&x| x != lo);
            self.recompute();
            if !self.leq(lo, hi) {
                self.above[lo.0 as usize].push(hi);
                self.below[hi.0 as usize].push(lo);
                self.recompute();
            }
        }
    }

    /// Marks a location as shared (§4.1.8).
    pub fn set_shared(&mut self, id: LocId, shared: bool) {
        self.shared[id.0 as usize] = shared;
    }

    /// Whether a location is shared.
    pub fn is_shared(&self, id: LocId) -> bool {
        self.shared[id.0 as usize]
    }

    /// Recomputes the reachability closure. Must be called after direct
    /// mutation batches; `add_order`/`from_decl` call it automatically.
    pub fn recompute(&mut self) {
        let n = self.names.len();
        let words = n.div_ceil(64);
        let mut reach = vec![vec![0u64; words]; n];
        // Seed reflexivity and every element ⊑ ⊤, ⊥ ⊑ every element.
        for (i, row) in reach.iter_mut().enumerate() {
            set_bit(row, i);
            set_bit(row, TOP.0 as usize);
        }
        for i in 0..n {
            set_bit(&mut reach[BOTTOM.0 as usize], i);
        }
        // Propagate along `above` edges to a fixed point (graphs are small;
        // simple iteration is fine and easy to audit).
        let mut changed = true;
        while changed {
            changed = false;
            for x in 0..n {
                for &hi in &self.above[x] {
                    let (lo_row, hi_row) = if x < hi.0 as usize {
                        let (a, b) = reach.split_at_mut(hi.0 as usize);
                        (&mut a[x], &b[0])
                    } else {
                        let (a, b) = reach.split_at_mut(x);
                        (&mut b[0], &a[hi.0 as usize])
                    };
                    for w in 0..words {
                        let nv = lo_row[w] | hi_row[w];
                        if nv != lo_row[w] {
                            lo_row[w] = nv;
                            changed = true;
                        }
                    }
                }
            }
        }
        // Transpose into the downward closure so lower-bound queries are
        // also single word-indexed reads.
        let mut down = vec![vec![0u64; words]; n];
        for (x, row) in reach.iter().enumerate() {
            for (y, drow) in down.iter_mut().enumerate() {
                if bit(row, y) {
                    set_bit(drow, x);
                }
            }
        }
        self.reach_up = reach;
        self.reach_down = down;
    }

    /// Whether the closure matches the current node set (mutation batches
    /// may leave it stale until the next [`Lattice::recompute`]).
    fn closure_fresh(&self) -> bool {
        self.reach_up.len() == self.names.len()
    }

    fn reaches_up(&self, from: LocId, to: LocId) -> bool {
        if !self.closure_fresh() {
            // Closure stale (nodes added since last recompute): walk
            // directly.
            let mut stack = vec![from];
            let mut seen = vec![false; self.names.len()];
            while let Some(x) = stack.pop() {
                if x == to {
                    return true;
                }
                if std::mem::replace(&mut seen[x.0 as usize], true) {
                    continue;
                }
                stack.extend(self.above[x.0 as usize].iter().copied());
            }
            return false;
        }
        bit(&self.reach_up[from.0 as usize], to.0 as usize)
    }

    /// Reflexive ordering: `a ⊑ b` — values may flow from `b` down to `a`.
    pub fn leq(&self, a: LocId, b: LocId) -> bool {
        if a == BOTTOM || b == TOP {
            return true;
        }
        self.reaches_up(a, b)
    }

    /// Strict ordering `a ⊏ b`.
    pub fn lt(&self, a: LocId, b: LocId) -> bool {
        a != b && self.leq(a, b)
    }

    /// Compares two locations, returning `None` when incomparable.
    pub fn compare(&self, a: LocId, b: LocId) -> Option<std::cmp::Ordering> {
        use std::cmp::Ordering::*;
        if a == b {
            Some(Equal)
        } else if self.leq(a, b) {
            Some(Less)
        } else if self.leq(b, a) {
            Some(Greater)
        } else {
            None
        }
    }

    /// Greatest lower bound (the `⊓` meet operator).
    ///
    /// If the underlying partial order does not define a unique GLB for the
    /// pair (the manual annotations need not form a complete lattice) this
    /// conservatively returns ⊥, which is always a lower bound.
    pub fn glb(&self, a: LocId, b: LocId) -> LocId {
        if self.leq(a, b) {
            return a;
        }
        if self.leq(b, a) {
            return b;
        }
        // Common lower bounds: intersect the downward closures word-wise,
        // then keep the unique maximal one if it exists. A candidate `x`
        // is maximal when nothing else in the candidate set sits above it,
        // i.e. its upward closure meets the candidates only at `x` itself.
        if self.closure_fresh() {
            let da = &self.reach_down[a.0 as usize];
            let db = &self.reach_down[b.0 as usize];
            let cand: Vec<u64> = da.iter().zip(db).map(|(x, y)| x & y).collect();
            let mut maximal = None;
            for x in self.ids() {
                let xi = x.0 as usize;
                if !bit(&cand, xi) {
                    continue;
                }
                let above_in_cand =
                    self.reach_up[xi]
                        .iter()
                        .zip(&cand)
                        .enumerate()
                        .any(|(w, (up, c))| {
                            let mut hits = up & c;
                            if xi / 64 == w {
                                hits &= !(1 << (xi % 64)); // ignore x itself
                            }
                            hits != 0
                        });
                if !above_in_cand {
                    if maximal.is_some() {
                        return BOTTOM; // two maximal lower bounds: no unique GLB
                    }
                    maximal = Some(x);
                }
            }
            return maximal.unwrap_or(BOTTOM);
        }
        // Stale closure: fall back to the quadratic scan.
        let lower: Vec<LocId> = self
            .ids()
            .filter(|&x| self.leq(x, a) && self.leq(x, b))
            .collect();
        let maximal: Vec<LocId> = lower
            .iter()
            .copied()
            .filter(|&x| !lower.iter().any(|&y| y != x && self.lt(x, y)))
            .collect();
        if maximal.len() == 1 {
            maximal[0]
        } else {
            BOTTOM
        }
    }

    /// Least upper bound (join).
    ///
    /// Falls back to ⊤ when no unique LUB exists.
    pub fn lub(&self, a: LocId, b: LocId) -> LocId {
        if self.leq(a, b) {
            return b;
        }
        if self.leq(b, a) {
            return a;
        }
        // Mirror of `glb`: intersect upward closures, pick the unique
        // minimal element (nothing in the candidate set below it).
        if self.closure_fresh() {
            let ua = &self.reach_up[a.0 as usize];
            let ub = &self.reach_up[b.0 as usize];
            let cand: Vec<u64> = ua.iter().zip(ub).map(|(x, y)| x & y).collect();
            let mut minimal = None;
            for x in self.ids() {
                let xi = x.0 as usize;
                if !bit(&cand, xi) {
                    continue;
                }
                let below_in_cand =
                    self.reach_down[xi]
                        .iter()
                        .zip(&cand)
                        .enumerate()
                        .any(|(w, (down, c))| {
                            let mut hits = down & c;
                            if xi / 64 == w {
                                hits &= !(1 << (xi % 64));
                            }
                            hits != 0
                        });
                if !below_in_cand {
                    if minimal.is_some() {
                        return TOP;
                    }
                    minimal = Some(x);
                }
            }
            return minimal.unwrap_or(TOP);
        }
        let upper: Vec<LocId> = self
            .ids()
            .filter(|&x| self.leq(a, x) && self.leq(b, x))
            .collect();
        let minimal: Vec<LocId> = upper
            .iter()
            .copied()
            .filter(|&x| !upper.iter().any(|&y| y != x && self.lt(y, x)))
            .collect();
        if minimal.len() == 1 {
            minimal[0]
        } else {
            TOP
        }
    }

    /// Locations immediately above `id`.
    pub fn directly_above(&self, id: LocId) -> &[LocId] {
        &self.above[id.0 as usize]
    }

    /// Locations immediately below `id`.
    pub fn directly_below(&self, id: LocId) -> &[LocId] {
        &self.below[id.0 as usize]
    }

    /// Introduces a fresh *delta* location below `base` (§4.1.7): the new
    /// location is lower than `base` and higher than everything strictly
    /// below `base`.
    pub fn add_delta_below(&mut self, base: LocId) -> LocId {
        let fresh_name = {
            let mut i = 0usize;
            loop {
                let candidate = format!("{}_D{}", self.name(base), i);
                if self.get(&candidate).is_none() {
                    break candidate;
                }
                i += 1;
            }
        };
        let d = self.ensure(&fresh_name);
        let below_base: Vec<LocId> = self
            .ids()
            .filter(|&x| x != d && x != BOTTOM && self.lt(x, base))
            .collect();
        self.above[d.0 as usize].push(base);
        self.below[base.0 as usize].push(d);
        for lo in below_base {
            self.above[lo.0 as usize].push(d);
            self.below[d.0 as usize].push(lo);
        }
        self.recompute();
        d
    }

    /// The maximum distance (in edges) from ⊤ to any location — the lattice
    /// height, which bounds the self-stabilization period (Thm 4.5.3).
    pub fn height(&self) -> usize {
        // Longest explicit chain of named nodes (in node count), plus the
        // implicit ⊤→chain and chain→⊥ hops.
        let mut memo: HashMap<LocId, usize> = HashMap::new();
        fn depth(l: &Lattice, x: LocId, memo: &mut HashMap<LocId, usize>) -> usize {
            if let Some(&d) = memo.get(&x) {
                return d;
            }
            let d = 1 + l
                .directly_below(x)
                .iter()
                .filter(|&&y| y != BOTTOM)
                .map(|&y| depth(l, y, memo))
                .max()
                .unwrap_or(0);
            memo.insert(x, d);
            d
        }
        let longest = self
            .ids()
            .filter(|&x| x != TOP && x != BOTTOM)
            .map(|x| depth(self, x, &mut memo))
            .max()
            .unwrap_or(0);
        longest + 1
    }

    /// Every location `y` with `y ⊑ id`, in id order — the downward
    /// closure read straight out of the `reach_down` bitsets. Used by the
    /// property suite to cross-check the bitset closure against `leq`.
    pub fn downset(&self, id: LocId) -> Vec<LocId> {
        if !self.closure_fresh() {
            return self.ids().filter(|&y| self.leq(y, id)).collect();
        }
        let row = &self.reach_down[id.0 as usize];
        self.ids().filter(|y| bit(row, y.0 as usize)).collect()
    }

    /// A stable 64-bit content fingerprint of the lattice: names in id
    /// order, explicit ordering edges, and shared flags. Two lattices
    /// built from the same declarations (in the same order) fingerprint
    /// identically across processes; any ordering/shared/name change
    /// perturbs the digest.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::fingerprint::Fnv64::new();
        h.write_usize(self.names.len());
        for (i, name) in self.names.iter().enumerate() {
            h.write_str(name);
            h.write_u64(self.shared[i] as u64);
            h.write_usize(self.above[i].len());
            for hi in &self.above[i] {
                h.write_u64(hi.0 as u64);
            }
        }
        h.finish()
    }

    /// All declared names in insertion order (excluding ⊤/⊥).
    pub fn named(&self) -> impl Iterator<Item = (LocId, &str)> {
        self.names
            .iter()
            .enumerate()
            .skip(2)
            .map(|(i, n)| (LocId(i as u32), n.as_str()))
    }
}

impl Default for Lattice {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Lattice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for id in self.ids() {
            for &hi in self.directly_above(id) {
                if hi == TOP {
                    continue;
                }
                if !first {
                    write!(f, ",")?;
                }
                first = false;
                write!(f, "{}<{}", self.name(id), self.name(hi))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> Lattice {
        // DIR < TMP < BIN
        Lattice::from_decl(
            &[("DIR".into(), "TMP".into()), ("TMP".into(), "BIN".into())],
            &[],
            &[],
        )
        .expect("acyclic")
    }

    #[test]
    fn ordering_is_transitive() {
        let l = chain();
        let dir = l.get("DIR").expect("DIR");
        let bin = l.get("BIN").expect("BIN");
        assert!(l.lt(dir, bin));
        assert!(!l.lt(bin, dir));
        assert!(l.leq(dir, dir));
    }

    #[test]
    fn top_and_bottom_bound_everything() {
        let l = chain();
        for id in l.ids() {
            assert!(l.leq(id, TOP));
            assert!(l.leq(BOTTOM, id));
        }
    }

    #[test]
    fn cycles_are_rejected() {
        let err = Lattice::from_decl(
            &[("A".into(), "B".into()), ("B".into(), "A".into())],
            &[],
            &[],
        );
        assert!(matches!(err, Err(LatticeError::Cycle { .. })));
    }

    #[test]
    fn glb_of_comparable_is_lower() {
        let l = chain();
        let dir = l.get("DIR").expect("d");
        let tmp = l.get("TMP").expect("t");
        assert_eq!(l.glb(dir, tmp), dir);
        assert_eq!(l.lub(dir, tmp), tmp);
    }

    #[test]
    fn glb_of_incomparable_without_meet_is_bottom() {
        // A and B unrelated.
        let l = Lattice::from_decl(&[], &[], &["A".into(), "B".into()]).expect("ok");
        let a = l.get("A").expect("a");
        let b = l.get("B").expect("b");
        assert_eq!(l.glb(a, b), BOTTOM);
        assert_eq!(l.lub(a, b), TOP);
    }

    #[test]
    fn glb_uses_unique_maximal_lower_bound() {
        // diamond: M < A, M < B  (A and B incomparable, M below both)
        let l = Lattice::from_decl(
            &[("M".into(), "A".into()), ("M".into(), "B".into())],
            &[],
            &[],
        )
        .expect("ok");
        let a = l.get("A").expect("a");
        let b = l.get("B").expect("b");
        let m = l.get("M").expect("m");
        assert_eq!(l.glb(a, b), m);
    }

    #[test]
    fn shared_flag_round_trips() {
        let l = Lattice::from_decl(&[("A".into(), "B".into())], &["IDX".into()], &[]).expect("ok");
        assert!(l.is_shared(l.get("IDX").expect("idx")));
        assert!(!l.is_shared(l.get("A").expect("a")));
    }

    #[test]
    fn delta_sits_between() {
        let mut l = chain();
        let tmp = l.get("TMP").expect("t");
        let dir = l.get("DIR").expect("d");
        let d = l.add_delta_below(tmp);
        assert!(l.lt(d, tmp));
        assert!(l.lt(dir, d));
        // And a second delta goes below the first.
        let d2 = l.add_delta_below(d);
        assert!(l.lt(d2, d));
        assert!(l.lt(dir, d2));
    }

    #[test]
    fn height_counts_longest_chain() {
        let l = chain();
        // TOP > BIN > TMP > DIR > BOTTOM
        assert_eq!(l.height(), 4);
    }
}
