//! Dense, integer-interned sets for the eviction analysis
//! ([`crate::written`]) and the inference engine's value flow graphs.
//!
//! Names and heap paths are interned to dense `u32` ids once, so a set
//! of them is a [`BitSet`] (a `Vec<u64>` of machine words): union and
//! intersection are word-wise ORs and ANDs, and membership is one bit
//! test instead of a string compare.

use sjava_lattice::FnvHashMap;

// ---------------------------------------------------------------------
// BitSet
// ---------------------------------------------------------------------

const BITS: usize = u64::BITS as usize;

/// A growable bit set over dense ids. Equality ignores trailing zero
/// words, so sets that grew to different capacities still compare by
/// contents.
#[derive(Debug, Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set.
    pub fn new() -> Self {
        BitSet::default()
    }

    fn grow(&mut self, word: usize) {
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
    }

    /// Inserts `bit`; returns true when it was newly added.
    pub fn insert(&mut self, bit: usize) -> bool {
        let (w, m) = (bit / BITS, 1u64 << (bit % BITS));
        self.grow(w);
        let had = self.words[w] & m != 0;
        self.words[w] |= m;
        !had
    }

    /// Membership test.
    pub fn contains(&self, bit: usize) -> bool {
        let (w, m) = (bit / BITS, 1u64 << (bit % BITS));
        self.words.get(w).is_some_and(|x| x & m != 0)
    }

    /// `self ∪= other`; returns true when `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// `self ∩= other`; returns true when `self` changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (i, a) in self.words.iter_mut().enumerate() {
            let b = other.words.get(i).copied().unwrap_or(0);
            let next = *a & b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Removes every bit.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let tz = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * BITS + tz)
            })
        })
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        short == &long[..short.len()] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for BitSet {}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = BitSet::new();
        for b in iter {
            s.insert(b);
        }
        s
    }
}

// ---------------------------------------------------------------------
// Name interner
// ---------------------------------------------------------------------

/// Interned local-variable name (per method).
pub type VarId = u32;

/// String interner specialized for variable names: accepts `&str` keys
/// without allocating on lookup hits.
#[derive(Debug, Clone, Default)]
pub struct VarInterner {
    map: FnvHashMap<String, VarId>,
    names: Vec<String>,
}

impl VarInterner {
    /// An empty interner.
    pub fn new() -> Self {
        VarInterner::default()
    }

    /// Returns the id of `name`, interning it on first sight.
    pub fn intern(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.map.get(name) {
            return id;
        }
        let id = self.names.len() as VarId;
        self.names.push(name.to_string());
        self.map.insert(name.to_string(), id);
        id
    }

    /// The id of `name` when already interned.
    pub fn get(&self, name: &str) -> Option<VarId> {
        self.map.get(name).copied()
    }

    /// The name behind an id.
    pub fn resolve(&self, id: VarId) -> &str {
        &self.names[id as usize]
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

// ---------------------------------------------------------------------
// Heap-path interner
// ---------------------------------------------------------------------

/// Interned heap path (per analysis scope).
pub type PathId = u32;

/// Interns [`HeapPath`](crate::heappath::HeapPath)s into a tree of dense
/// ids: each node stores its parent and one component, so extending a
/// path by a field is a single hash probe and *prefix* queries walk the
/// parent chain instead of scanning a path set.
#[derive(Debug, Clone, Default)]
pub struct PathInterner {
    /// Component-name atoms (field names, roots).
    atoms: VarInterner,
    /// `node → (parent, component atom)`; roots have no parent.
    nodes: Vec<(Option<PathId>, VarId)>,
    roots: FnvHashMap<VarId, PathId>,
    children: FnvHashMap<(PathId, VarId), PathId>,
}

impl PathInterner {
    /// An empty interner.
    pub fn new() -> Self {
        PathInterner::default()
    }

    /// Interns a single-component root path.
    pub fn root(&mut self, name: &str) -> PathId {
        let atom = self.atoms.intern(name);
        if let Some(&id) = self.roots.get(&atom) {
            return id;
        }
        let id = self.nodes.len() as PathId;
        self.nodes.push((None, atom));
        self.roots.insert(atom, id);
        id
    }

    /// Interns `base.field`.
    pub fn append(&mut self, base: PathId, field: &str) -> PathId {
        let atom = self.atoms.intern(field);
        if let Some(&id) = self.children.get(&(base, atom)) {
            return id;
        }
        let id = self.nodes.len() as PathId;
        self.nodes.push((Some(base), atom));
        self.children.insert((base, atom), id);
        id
    }

    /// Interns a full path (root + components).
    pub fn intern_path(&mut self, path: &crate::heappath::HeapPath) -> PathId {
        let mut id = self.root(&path.0[0]);
        for comp in &path.0[1..] {
            id = self.append(id, comp);
        }
        id
    }

    /// Splices callee path components (everything after the callee's
    /// root) onto a caller base path — the `⊙` operator of Fig 4.4.
    pub fn splice(&mut self, base: PathId, callee: &crate::heappath::HeapPath) -> PathId {
        let mut id = base;
        for comp in &callee.0[1..] {
            id = self.append(id, comp);
        }
        id
    }

    /// Reconstructs the string form of a path.
    pub fn resolve(&self, id: PathId) -> crate::heappath::HeapPath {
        let mut comps = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let (parent, atom) = self.nodes[c as usize];
            comps.push(self.atoms.resolve(atom).to_string());
            cur = parent;
        }
        comps.reverse();
        crate::heappath::HeapPath(comps)
    }

    /// True when `set` contains `id` or any ancestor (proper prefix) of
    /// it — i.e. when some member of `set` is a prefix of `id`'s path.
    pub fn covered_by(&self, set: &BitSet, id: PathId) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            if set.contains(c as usize) {
                return true;
            }
            cur = self.nodes[c as usize].0;
        }
        false
    }

    /// Number of interned paths.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(130));
        assert!(s.contains(3) && s.contains(130) && !s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 130]);
        assert_eq!(s.count(), 2);
        s.clear();
        assert!(s.is_empty() && !s.contains(3));
    }

    #[test]
    fn equality_ignores_capacity() {
        let a: BitSet = [5].into_iter().collect();
        let mut b: BitSet = [5, 900].into_iter().collect();
        assert_ne!(a, b);
        // Intersecting clears the high word but keeps it allocated.
        b.intersect_with(&a);
        assert_eq!(a, b);
    }

    #[test]
    fn union_and_intersect() {
        let a: BitSet = [1, 2, 3, 200].into_iter().collect();
        let b: BitSet = [2, 3, 4].into_iter().collect();
        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 200]);
        assert!(!u.union_with(&b));
        let mut i = a.clone();
        assert!(i.intersect_with(&b));
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn interner_round_trips() {
        let mut vi = VarInterner::new();
        let a = vi.intern("alpha");
        let b = vi.intern("beta");
        assert_ne!(a, b);
        assert_eq!(vi.intern("alpha"), a);
        assert_eq!(vi.resolve(b), "beta");
        assert_eq!(vi.get("gamma"), None);
        assert_eq!(vi.len(), 2);
    }

    #[test]
    fn path_interner_round_trips_and_prefixes() {
        use crate::heappath::HeapPath;
        let mut pi = PathInterner::new();
        let this = pi.root("this");
        let bin = pi.append(this, "bin");
        let dir0 = pi.append(bin, "dir0");
        assert_eq!(pi.append(this, "bin"), bin);
        assert_eq!(pi.resolve(dir0).0, vec!["this", "bin", "dir0"]);

        let p = HeapPath(vec!["this".into(), "bin".into(), "dir0".into()]);
        assert_eq!(pi.intern_path(&p), dir0);

        // covered_by = "some set member is a prefix of the path".
        let set: BitSet = [bin as usize].into_iter().collect();
        assert!(pi.covered_by(&set, dir0));
        assert!(pi.covered_by(&set, bin));
        assert!(!pi.covered_by(&set, this));

        // splice drops the callee root, keeps the rest.
        let callee = HeapPath(vec!["r".into(), "v".into()]);
        let spliced = pi.splice(bin, &callee);
        assert_eq!(pi.resolve(spliced).0, vec!["this", "bin", "v"]);
        assert_eq!(pi.splice(bin, &HeapPath(vec!["r".into()])), bin);
    }
}
