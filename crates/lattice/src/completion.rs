//! Dedekind–MacNeille completion (§2.4.3, §5.2.6).
//!
//! Hierarchy graphs produced by inference are partial orders but not
//! necessarily lattices: GLB/LUB need not exist. The Dedekind–MacNeille
//! completion is the smallest complete lattice containing a partial order.
//! Following Nourine–Raynaud, we realize it as the closure system generated
//! by the principal down-sets under intersection: the normal ideals
//! `{Aˡ : A ⊆ P}` ordered by inclusion.

use crate::fingerprint::Fnv64;
use crate::fnv::FnvHashMap;
use crate::hierarchy::HierarchyGraph;
use crate::lattice::{Lattice, LatticeError};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on completion size, guarding against the (theoretical)
/// exponential blow-up of pathological orders.
const MAX_ELEMENTS: usize = 200_000;

/// The result of a completion: the lattice plus the mapping from each
/// original node to its lattice location name (identity for originals) and
/// the list of synthesized names.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The completed lattice.
    pub lattice: Lattice,
    /// Names synthesized for non-principal cuts (`LOC0`, `LOC1`, ...).
    pub synthesized: Vec<String>,
}

/// Computes the Dedekind–MacNeille completion of an acyclic hierarchy
/// graph.
///
/// # Errors
///
/// Returns [`LatticeError::Cycle`] when the graph is cyclic, and treats a
/// blow-up past an internal size cap as a cycle-class failure.
pub fn dedekind_macneille(g: &HierarchyGraph) -> Result<Completion, LatticeError> {
    if let Some(cycle) = g.find_cycle() {
        return Err(LatticeError::Cycle {
            at: cycle.into_iter().next().unwrap_or_default(),
        });
    }

    let nodes: Vec<String> = g.nodes().map(|s| s.to_string()).collect();

    // Principal down-sets: down(x) = {y : y reachable from x}, including x.
    let mut down: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for x in &nodes {
        let mut set = BTreeSet::new();
        let mut stack = vec![x.clone()];
        while let Some(v) = stack.pop() {
            if !set.insert(v.clone()) {
                continue;
            }
            for b in g.below(&v) {
                stack.push(b.to_string());
            }
        }
        down.insert(x.clone(), set);
    }

    // Closure of the generators under pairwise intersection. Closing each
    // discovered set against every generator suffices, because any
    // intersection of intersections is an intersection of generators.
    let generators: Vec<BTreeSet<String>> = down.values().cloned().collect();
    let full: BTreeSet<String> = nodes.iter().cloned().collect();
    let mut family: BTreeSet<BTreeSet<String>> = BTreeSet::new();
    family.insert(full.clone());
    let mut worklist: Vec<BTreeSet<String>> = Vec::new();
    for gset in &generators {
        if family.insert(gset.clone()) {
            worklist.push(gset.clone());
        }
    }
    while let Some(s) = worklist.pop() {
        for gset in &generators {
            let inter: BTreeSet<String> = s.intersection(gset).cloned().collect();
            if family.insert(inter.clone()) {
                if family.len() > MAX_ELEMENTS {
                    return Err(LatticeError::Cycle {
                        at: "<completion blow-up>".to_string(),
                    });
                }
                worklist.push(inter);
            }
        }
    }
    // The bottom of the completion is the empty set (mapped to ⊥).
    family.insert(BTreeSet::new());

    // Name every closed set: principal sets keep the generating node's
    // name, others get fresh `LOCn` names.
    let principal_of: BTreeMap<&BTreeSet<String>, &String> =
        down.iter().map(|(k, v)| (v, k)).collect();
    let mut sets: Vec<&BTreeSet<String>> = family.iter().collect();
    sets.sort_by_key(|s| (s.len(), *s));
    let mut names: BTreeMap<&BTreeSet<String>, String> = BTreeMap::new();
    let mut synthesized = Vec::new();
    let mut counter = 0usize;
    for s in &sets {
        if s.is_empty() {
            continue; // maps to ⊥
        }
        let name = if let Some(n) = principal_of.get(*s) {
            (*n).clone()
        } else {
            // Fresh LOCn name avoiding collisions with original node names.
            loop {
                let candidate = format!("LOC{counter}");
                counter += 1;
                if !g.has_node(&candidate) {
                    break candidate;
                }
            }
        };
        if !principal_of.contains_key(*s) {
            synthesized.push(name.clone());
        }
        names.insert(*s, name);
    }

    // Build the lattice with cover edges (the Hasse diagram): T covers S
    // when S ⊂ T with nothing strictly between.
    let mut lattice = Lattice::new();
    for s in &sets {
        if let Some(n) = names.get(*s) {
            lattice.ensure(n);
        }
    }
    for (i, s) in sets.iter().enumerate() {
        if s.is_empty() {
            continue;
        }
        // Proper supersets of s in the family.
        let supersets: Vec<&BTreeSet<String>> = sets
            .iter()
            .skip(i + 1)
            .filter(|t| t.len() > s.len() && s.is_subset(t))
            .copied()
            .collect();
        // Covers of s: supersets with no family member strictly between.
        let minimal: Vec<&BTreeSet<String>> = supersets
            .iter()
            .filter(|t| {
                !supersets
                    .iter()
                    .any(|u| u.len() < t.len() && u.is_subset(t))
            })
            .copied()
            .collect();
        let lo = lattice.ensure(&names[*s]);
        for t in minimal {
            let hi = lattice.ensure(&names[t]);
            lattice.add_order(lo, hi).map_err(|_| LatticeError::Cycle {
                at: names[*s].clone(),
            })?;
        }
    }
    lattice.recompute();

    // Carry shared flags over.
    for s in g.shared_nodes() {
        if let Some(id) = lattice.get(s) {
            lattice.set_shared(id, true);
        }
    }

    Ok(Completion {
        lattice,
        synthesized,
    })
}

/// Dense Dedekind–MacNeille completion: the same closure-system
/// construction as [`dedekind_macneille`], computed over interned node
/// indices with FNV-keyed closed-set deduplication instead of
/// `BTreeSet<BTreeSet<String>>`.
///
/// Nodes are indexed in their `BTreeSet` (sorted-name) order, so an
/// ascending index sequence compares exactly like the corresponding
/// `BTreeSet<String>`: the `(len, set)` sort, the `LOCn` naming counter,
/// and the `ensure`/`add_order` call sequence are all reproduced, making
/// the resulting lattice byte-identical to the string-based completion
/// (pinned by the `dense_matches_legacy_*` tests below).
///
/// # Errors
///
/// Identical to [`dedekind_macneille`]: rejects cyclic graphs, and treats
/// a closure blow-up past the size cap as a cycle-class failure (the
/// closure family is order-independent, so the cap fires on exactly the
/// same inputs).
pub fn dedekind_macneille_dense(g: &HierarchyGraph) -> Result<Completion, LatticeError> {
    if let Some(cycle) = g.find_cycle() {
        return Err(LatticeError::Cycle {
            at: cycle.into_iter().next().unwrap_or_default(),
        });
    }

    // Index nodes in sorted-name order; index order == name order.
    let nodes: Vec<String> = g.nodes().map(|s| s.to_string()).collect();
    let n = nodes.len();
    let index: FnvHashMap<&str, u32> = nodes
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_str(), i as u32))
        .collect();
    let succ: Vec<Vec<u32>> = nodes
        .iter()
        .map(|x| g.below(x).map(|b| index[b]).collect())
        .collect();

    // Principal down-sets as ascending index vectors.
    let mut down: Vec<Vec<u32>> = Vec::with_capacity(n);
    for x in 0..n {
        let mut seen = vec![false; n];
        let mut stack = vec![x as u32];
        while let Some(v) = stack.pop() {
            if std::mem::replace(&mut seen[v as usize], true) {
                continue;
            }
            stack.extend(succ[v as usize].iter().copied());
        }
        down.push(
            (0..n as u32)
                .filter(|i| seen[*i as usize])
                .collect::<Vec<u32>>(),
        );
    }

    // Closure of the generators under pairwise intersection, deduplicated
    // through an FNV-keyed family table (hash of the index vector, with
    // full-vector confirmation on collision).
    let hash_set = |s: &[u32]| -> u64 {
        let mut h = Fnv64::new();
        h.write_usize(s.len());
        for v in s {
            h.write_u64(*v as u64);
        }
        h.finish()
    };
    let mut sets: Vec<Vec<u32>> = Vec::new();
    let mut table: FnvHashMap<u64, Vec<usize>> = FnvHashMap::default();
    let insert = |sets: &mut Vec<Vec<u32>>,
                  table: &mut FnvHashMap<u64, Vec<usize>>,
                  s: Vec<u32>|
     -> Option<usize> {
        let h = hash_set(&s);
        let bucket = table.entry(h).or_default();
        if bucket.iter().any(|&i| sets[i] == s) {
            return None;
        }
        let id = sets.len();
        bucket.push(id);
        sets.push(s);
        Some(id)
    };
    let full: Vec<u32> = (0..n as u32).collect();
    insert(&mut sets, &mut table, full);
    let mut worklist: Vec<usize> = Vec::new();
    for gset in &down {
        if let Some(id) = insert(&mut sets, &mut table, gset.clone()) {
            worklist.push(id);
        }
    }
    while let Some(si) = worklist.pop() {
        for gset in &down {
            // Sorted-vector intersection.
            let s = &sets[si];
            let mut inter = Vec::with_capacity(s.len().min(gset.len()));
            let (mut i, mut j) = (0, 0);
            while i < s.len() && j < gset.len() {
                match s[i].cmp(&gset[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        inter.push(s[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            if let Some(id) = insert(&mut sets, &mut table, inter) {
                if sets.len() > MAX_ELEMENTS {
                    return Err(LatticeError::Cycle {
                        at: "<completion blow-up>".to_string(),
                    });
                }
                worklist.push(id);
            }
        }
    }
    insert(&mut sets, &mut table, Vec::new());

    // Same `(len, set)` order as the legacy sort: ascending index vectors
    // compare like the sorted-name `BTreeSet`s they encode.
    sets.sort_by(|a, b| (a.len(), a.as_slice()).cmp(&(b.len(), b.as_slice())));

    // Down-sets are distinct on acyclic inputs, so principal naming is
    // unambiguous.
    let mut principal_of: FnvHashMap<u64, Vec<(usize, u32)>> = FnvHashMap::default();
    for (x, d) in down.iter().enumerate() {
        principal_of
            .entry(hash_set(d))
            .or_default()
            .push((d.len(), x as u32));
    }
    let principal = |s: &[u32]| -> Option<u32> {
        principal_of
            .get(&hash_set(s))?
            .iter()
            .find(|(len, x)| *len == s.len() && down[*x as usize] == s)
            .map(|(_, x)| *x)
    };

    let mut names: Vec<String> = Vec::with_capacity(sets.len());
    let mut synthesized = Vec::new();
    let mut counter = 0usize;
    for s in &sets {
        if s.is_empty() {
            names.push(String::new()); // maps to ⊥
            continue;
        }
        let name = if let Some(x) = principal(s) {
            nodes[x as usize].clone()
        } else {
            let fresh = loop {
                let candidate = format!("LOC{counter}");
                counter += 1;
                if !g.has_node(&candidate) {
                    break candidate;
                }
            };
            synthesized.push(fresh.clone());
            fresh
        };
        names.push(name);
    }

    // Hasse diagram, in the identical ensure/add_order sequence.
    let mut lattice = Lattice::new();
    for name in &names {
        if !name.is_empty() {
            lattice.ensure(name);
        }
    }
    let is_subset = |s: &[u32], t: &[u32]| -> bool {
        let mut j = 0;
        for v in s {
            while j < t.len() && t[j] < *v {
                j += 1;
            }
            if j >= t.len() || t[j] != *v {
                return false;
            }
            j += 1;
        }
        true
    };
    for (i, s) in sets.iter().enumerate() {
        if s.is_empty() {
            continue;
        }
        let supersets: Vec<usize> = (i + 1..sets.len())
            .filter(|&t| sets[t].len() > s.len() && is_subset(s, &sets[t]))
            .collect();
        let minimal: Vec<usize> = supersets
            .iter()
            .filter(|&&t| {
                !supersets
                    .iter()
                    .any(|&u| sets[u].len() < sets[t].len() && is_subset(&sets[u], &sets[t]))
            })
            .copied()
            .collect();
        let lo = lattice.ensure(&names[i]);
        for t in minimal {
            let hi = lattice.ensure(&names[t]);
            lattice.add_order(lo, hi).map_err(|_| LatticeError::Cycle {
                at: names[i].clone(),
            })?;
        }
    }
    lattice.recompute();

    for s in g.shared_nodes() {
        if let Some(id) = lattice.get(s) {
            lattice.set_shared(id, true);
        }
    }

    Ok(Completion {
        lattice,
        synthesized,
    })
}

/// A memoized Dedekind–MacNeille completion, keyed on an FNV-64 hash of
/// the hierarchy graph's canonical encoding (nodes, edges, and shared
/// flags in sorted order) with full-key confirmation on collision — the
/// same shape as `intern.rs`'s GLB cache.
///
/// Hierarchy graphs repeat heavily across an inference run (structurally
/// identical methods and classes produce identical graphs, and naive mode
/// completes every hierarchy as-is), so a cache hit replaces the whole
/// closure computation with a clone of the finished [`Completion`].
///
/// The cache is `Sync`: lattice generation fans completions out across
/// worker threads. Entries live in a lock-striped [`crate::ShardedMemo`] (16
/// stripes selected by the canonical key's hash), so concurrent workers
/// only serialize when their hierarchies land in the same stripe — the
/// single-mutex layout this replaces made 8 workers queue behind one
/// lock on corpora where nearly every completion is a cache hit.
#[derive(Default)]
pub struct CompletionCache {
    entries: crate::shard::ShardedMemo<Completion>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl CompletionCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Completes `g`, reusing a previously computed completion when an
    /// identical hierarchy graph has been seen.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`dedekind_macneille`]; errors are not
    /// cached.
    pub fn complete(&self, g: &HierarchyGraph) -> Result<Completion, LatticeError> {
        let key = canonical_key(g);
        {
            // Completion is a pure function of the graph, so the tracked
            // fact can never go stale; recording it documents the read for
            // the dependency-tracked revalidation layer.
            let mut h = Fnv64::new();
            h.write_str(&key);
            sjava_syntax::track::record_completion(h.finish());
        }
        if let Some(c) = self.entries.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(c);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let completion = dedekind_macneille_dense(g)?;
        self.entries.insert(key, completion.clone());
        Ok(completion)
    }

    /// `(hits, misses)` counters for diagnostics and benchmarks.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// A canonical, injective string encoding of a hierarchy graph (node,
/// edge, and shared-flag sections separated by control characters that
/// cannot appear in node names). Two graphs share a key iff they are
/// equal, so the key is usable for any hierarchy-indexed memo table.
pub fn canonical_key(g: &HierarchyGraph) -> String {
    let mut key = String::new();
    for n in g.nodes() {
        key.push_str(n);
        key.push('\u{1}');
    }
    key.push('\u{2}');
    for (a, b) in g.edges() {
        key.push_str(a);
        key.push('\u{1}');
        key.push_str(b);
        key.push('\u{1}');
    }
    key.push('\u{2}');
    for s in g.shared_nodes() {
        key.push_str(s);
        key.push('\u{1}');
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_completes_to_itself() {
        let mut g = HierarchyGraph::new();
        g.add_edge("A", "B");
        g.add_edge("B", "C");
        let c = dedekind_macneille(&g).expect("acyclic");
        assert!(c.synthesized.is_empty(), "chain needs no new nodes");
        let a = c.lattice.get("A").expect("A");
        let ccc = c.lattice.get("C").expect("C");
        assert!(c.lattice.lt(ccc, a));
    }

    #[test]
    fn incomparable_pair_gains_no_nodes() {
        // Two isolated nodes: completion adds only top/bottom cuts, which
        // map onto ⊤/⊥ plus one synthesized top-cut for the full set.
        let mut g = HierarchyGraph::new();
        g.add_node("A");
        g.add_node("B");
        let c = dedekind_macneille(&g).expect("acyclic");
        // The full set {A,B} is not principal → synthesized.
        assert_eq!(c.synthesized.len(), 1);
    }

    #[test]
    fn n_shape_gets_meet_node() {
        // a -> x, a -> y, b -> y : the pair {x,y} has two maximal lower
        // bound candidates... actually test GLB well-definedness: after
        // completion glb(a, b) is a single element.
        let mut g = HierarchyGraph::new();
        g.add_edge("a", "x");
        g.add_edge("a", "y");
        g.add_edge("b", "y");
        let c = dedekind_macneille(&g).expect("acyclic");
        let a = c.lattice.get("a").expect("a");
        let b = c.lattice.get("b").expect("b");
        let y = c.lattice.get("y").expect("y");
        // glb(a,b) = down(a) ∩ down(b) = {y}.
        assert_eq!(c.lattice.glb(a, b), y);
    }

    #[test]
    fn merge_point_example_fig_5_12() {
        // Fields a,b,c,d flow into f and g: b,c -> f and b,c,d -> g with a
        // -> f too. The cut for {sources of f} ∩ {sources of g} style
        // meets must exist; here we check the classic 2x2 bipartite case
        // which famously requires a synthesized middle element.
        let mut g = HierarchyGraph::new();
        g.add_edge("b", "f");
        g.add_edge("b", "g");
        g.add_edge("c", "f");
        g.add_edge("c", "g");
        let c = dedekind_macneille(&g).expect("acyclic");
        let b = c.lattice.get("b").expect("b");
        let cc = c.lattice.get("c").expect("c");
        let f = c.lattice.get("f").expect("f");
        let gg = c.lattice.get("g").expect("g");
        let meet = c.lattice.glb(b, cc);
        // The meet of b and c must be a synthesized element strictly above
        // both f and g.
        assert_ne!(meet, f);
        assert_ne!(meet, gg);
        assert!(c.lattice.lt(f, meet));
        assert!(c.lattice.lt(gg, meet));
    }

    #[test]
    fn cyclic_input_is_rejected() {
        let mut g = HierarchyGraph::new();
        g.add_edge("A", "B");
        g.add_edge("B", "A");
        assert!(dedekind_macneille(&g).is_err());
        assert!(dedekind_macneille_dense(&g).is_err());
        assert!(CompletionCache::new().complete(&g).is_err());
    }

    fn sample_graphs() -> Vec<HierarchyGraph> {
        let mut out = Vec::new();
        let mut g = HierarchyGraph::new();
        g.add_edge("a", "x");
        g.add_edge("a", "y");
        g.add_edge("b", "y");
        g.add_edge("b", "z");
        g.set_shared("y");
        out.push(g);
        let mut g = HierarchyGraph::new();
        g.add_edge("b", "f");
        g.add_edge("b", "g");
        g.add_edge("c", "f");
        g.add_edge("c", "g");
        out.push(g);
        let mut g = HierarchyGraph::new();
        g.add_node("only");
        out.push(g);
        out.push(HierarchyGraph::new());
        let mut g = HierarchyGraph::new();
        for i in 0..6 {
            for j in 0..6 {
                if i < j && (i + j) % 3 != 0 {
                    g.add_edge(format!("n{i}"), format!("n{j}"));
                }
            }
        }
        out.push(g);
        out
    }

    #[test]
    fn dense_matches_legacy_on_samples() {
        for g in sample_graphs() {
            let legacy = dedekind_macneille(&g).expect("legacy");
            let dense = dedekind_macneille_dense(&g).expect("dense");
            assert_eq!(
                legacy.lattice.fingerprint(),
                dense.lattice.fingerprint(),
                "lattice mismatch on {g}"
            );
            assert_eq!(legacy.synthesized, dense.synthesized, "names on {g}");
        }
    }

    #[test]
    fn cache_hits_return_identical_completions() {
        let cache = CompletionCache::new();
        for g in sample_graphs() {
            let first = cache.complete(&g).expect("first");
            let again = cache.complete(&g).expect("again");
            assert_eq!(first.lattice.fingerprint(), again.lattice.fingerprint());
            assert_eq!(first.synthesized, again.synthesized);
        }
        let (hits, misses) = cache.stats();
        assert_eq!(misses, sample_graphs().len());
        assert_eq!(hits, sample_graphs().len());
    }

    #[test]
    fn cache_distinguishes_shared_flags() {
        // Same nodes and edges, different shared flags: must not collide.
        let cache = CompletionCache::new();
        let mut g1 = HierarchyGraph::new();
        g1.add_edge("a", "b");
        let mut g2 = HierarchyGraph::new();
        g2.add_edge("a", "b");
        g2.set_shared("b");
        let c1 = cache.complete(&g1).expect("plain");
        let c2 = cache.complete(&g2).expect("shared");
        let b1 = c1.lattice.get("b").expect("b");
        let b2 = c2.lattice.get("b").expect("b");
        assert!(!c1.lattice.is_shared(b1));
        assert!(c2.lattice.is_shared(b2));
    }

    #[test]
    fn completion_is_a_lattice_glb_total() {
        // Random-ish small order; check every pair has a well-defined GLB
        // (the `glb` fallback to ⊥ would still be *a* bound — instead we
        // check uniqueness via lub/glb consistency: glb(a,b) must be ≥ any
        // common lower bound).
        let mut g = HierarchyGraph::new();
        g.add_edge("p", "x");
        g.add_edge("q", "x");
        g.add_edge("p", "y");
        g.add_edge("q", "y");
        g.add_edge("x", "z");
        let c = dedekind_macneille(&g).expect("acyclic");
        let l = &c.lattice;
        for a in l.ids() {
            for b in l.ids() {
                let m = l.glb(a, b);
                for w in l.ids() {
                    if l.leq(w, a) && l.leq(w, b) {
                        assert!(
                            l.leq(w, m),
                            "glb({},{}) = {} not above common bound {}",
                            l.name(a),
                            l.name(b),
                            l.name(m),
                            l.name(w)
                        );
                    }
                }
            }
        }
    }
}
