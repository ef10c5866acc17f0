//! Hierarchy graphs (Definition 2, §5.2.5): directed graphs over named
//! locations where an edge `h1 → h2` records a flow from `h1` down to
//! `h2`. Used by the inference algorithm before lattice completion.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A directed graph over string-named location nodes. Edges point from the
/// *higher* (source of the flow) to the *lower* (destination) node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyGraph {
    nodes: BTreeSet<String>,
    /// `edges[x]` = nodes directly below `x` (flow targets).
    edges: BTreeMap<String, BTreeSet<String>>,
    /// Nodes that were merged into shared locations (§5.2.5 cycle
    /// elimination).
    shared: BTreeSet<String>,
}

impl HierarchyGraph {
    /// Creates an empty hierarchy graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node (idempotent).
    pub fn add_node(&mut self, name: impl Into<String>) {
        self.nodes.insert(name.into());
    }

    /// Whether the node exists.
    pub fn has_node(&self, name: &str) -> bool {
        self.nodes.contains(name)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(|s| s.len()).sum()
    }

    /// Iterates node names.
    pub fn nodes(&self) -> impl Iterator<Item = &str> {
        self.nodes.iter().map(|s| s.as_str())
    }

    /// Iterates `(higher, lower)` edges.
    pub fn edges(&self) -> impl Iterator<Item = (&str, &str)> {
        self.edges
            .iter()
            .flat_map(|(from, tos)| tos.iter().map(move |t| (from.as_str(), t.as_str())))
    }

    /// Marks a node as a shared location.
    pub fn set_shared(&mut self, name: &str) {
        self.shared.insert(name.to_string());
    }

    /// Whether a node is shared.
    pub fn is_shared(&self, name: &str) -> bool {
        self.shared.contains(name)
    }

    /// All shared nodes.
    pub fn shared_nodes(&self) -> impl Iterator<Item = &str> {
        self.shared.iter().map(|s| s.as_str())
    }

    /// Adds a flow edge from `higher` down to `lower`, creating nodes as
    /// needed. Self-edges are ignored.
    pub fn add_edge(&mut self, higher: impl Into<String>, lower: impl Into<String>) {
        let (h, l) = (higher.into(), lower.into());
        if h == l {
            self.add_node(h);
            return;
        }
        self.add_node(h.clone());
        self.add_node(l.clone());
        self.edges.entry(h).or_default().insert(l);
    }

    /// [`add_node`](Self::add_node) for a borrowed name, copied only when
    /// the node is new.
    pub fn ensure_node(&mut self, name: &str) {
        if !self.nodes.contains(name) {
            self.nodes.insert(name.to_string());
        }
    }

    /// [`add_edge`](Self::add_edge) for borrowed names, each copied only
    /// where the graph does not hold it yet.
    pub fn ensure_edge(&mut self, higher: &str, lower: &str) {
        self.ensure_node(higher);
        if higher == lower {
            return;
        }
        self.ensure_node(lower);
        match self.edges.get_mut(higher) {
            Some(tos) => {
                if !tos.contains(lower) {
                    tos.insert(lower.to_string());
                }
            }
            None => {
                self.edges
                    .insert(higher.to_string(), BTreeSet::from([lower.to_string()]));
            }
        }
    }

    /// Whether the edge `higher → lower` exists.
    pub fn has_edge(&self, higher: &str, lower: &str) -> bool {
        self.edges
            .get(higher)
            .map(|s| s.contains(lower))
            .unwrap_or(false)
    }

    /// Direct successors (nodes immediately below).
    pub fn below(&self, node: &str) -> impl Iterator<Item = &str> {
        self.edges
            .get(node)
            .into_iter()
            .flat_map(|s| s.iter().map(|x| x.as_str()))
    }

    /// Direct predecessors (nodes immediately above).
    pub fn above<'a>(&'a self, node: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.edges
            .iter()
            .filter(move |(_, tos)| tos.contains(node))
            .map(|(from, _)| from.as_str())
    }

    /// Whether `to` is reachable from `from` following edges downward.
    pub fn reaches(&self, from: &str, to: &str) -> bool {
        if from == to {
            return true;
        }
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(x) = stack.pop() {
            if !seen.insert(x) {
                continue;
            }
            if let Some(tos) = self.edges.get(x) {
                for t in tos {
                    if t == to {
                        return true;
                    }
                    stack.push(t);
                }
            }
        }
        false
    }

    /// Would adding `higher → lower` create a cycle?
    pub fn would_cycle(&self, higher: &str, lower: &str) -> bool {
        higher == lower || self.reaches(lower, higher)
    }

    /// Finds one cycle's node set if any exists (Tarjan SCC, returning the
    /// first non-trivial component).
    pub fn find_cycle(&self) -> Option<Vec<String>> {
        // Self-loops are prevented by `add_edge`.
        self.sccs().into_iter().find(|scc| scc.len() > 1)
    }

    /// Strongly connected components (each as a sorted node list).
    pub fn sccs(&self) -> Vec<Vec<String>> {
        // Iterative Tarjan.
        let idx_of: BTreeMap<&str, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let names: Vec<&str> = self.nodes.iter().map(|s| s.as_str()).collect();
        let n = names.len();
        let succ: Vec<Vec<usize>> = names
            .iter()
            .map(|name| self.below(name).map(|t| idx_of[t]).collect::<Vec<_>>())
            .collect();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut counter = 0usize;
        let mut out: Vec<Vec<String>> = Vec::new();

        #[derive(Clone)]
        struct Frame {
            v: usize,
            child: usize,
        }

        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut call = vec![Frame { v: start, child: 0 }];
            index[start] = counter;
            low[start] = counter;
            counter += 1;
            stack.push(start);
            on_stack[start] = true;
            while let Some(frame) = call.last_mut() {
                let v = frame.v;
                if frame.child < succ[v].len() {
                    let w = succ[v][frame.child];
                    frame.child += 1;
                    if index[w] == usize::MAX {
                        index[w] = counter;
                        low[w] = counter;
                        counter += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push(Frame { v: w, child: 0 });
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            on_stack[w] = false;
                            comp.push(names[w].to_string());
                            if w == v {
                                break;
                            }
                        }
                        comp.sort();
                        out.push(comp);
                    }
                    let done = call.pop().expect("frame");
                    if let Some(parent) = call.last_mut() {
                        low[parent.v] = low[parent.v].min(low[done.v]);
                    }
                }
            }
        }
        out
    }

    /// Merges a set of nodes into a single node named `merged`, rerouting
    /// edges and dropping resulting self-edges. Used both for cycle
    /// elimination into shared locations (§5.2.5) and for the SInfer
    /// same-neighbour merge (§5.3.2).
    pub fn merge_nodes(&mut self, group: &[String], merged: &str) {
        let group_set: BTreeSet<&str> = group.iter().map(|s| s.as_str()).collect();
        let mut new_edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (from, tos) in &self.edges {
            let f = if group_set.contains(from.as_str()) {
                merged.to_string()
            } else {
                from.clone()
            };
            for to in tos {
                let t = if group_set.contains(to.as_str()) {
                    merged.to_string()
                } else {
                    to.clone()
                };
                if f != t {
                    new_edges.entry(f.clone()).or_default().insert(t);
                }
            }
        }
        for g in group {
            self.nodes.remove(g);
            if self.shared.remove(g) {
                self.shared.insert(merged.to_string());
            }
        }
        self.nodes.insert(merged.to_string());
        self.edges = new_edges;
    }

    /// Removes redundant (transitively implied) edges: an edge `n → n'` is
    /// redundant when `n'` is reachable from `n` without it (§5.3.2).
    pub fn remove_redundant_edges(&mut self) {
        let all: Vec<(String, String)> = self
            .edges()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        for (from, to) in all {
            // Temporarily remove and test reachability.
            if let Some(tos) = self.edges.get_mut(&from) {
                tos.remove(&to);
            }
            if !self.reaches(&from, &to) {
                self.edges.entry(from).or_default().insert(to);
            }
        }
        self.edges.retain(|_, tos| !tos.is_empty());
    }

    /// Nodes with no incoming edges (the maxima).
    pub fn sources(&self) -> Vec<&str> {
        self.nodes()
            .filter(|n| self.above(n).next().is_none())
            .collect()
    }

    /// Nodes with no outgoing edges (the minima).
    pub fn sinks(&self) -> Vec<&str> {
        self.nodes()
            .filter(|n| self.below(n).next().is_none())
            .collect()
    }

    /// Renders the hierarchy as Graphviz DOT (edges drawn downward).
    pub fn to_dot(&self, title: &str) -> String {
        let mut s = format!("digraph \"{title}\" {{\n  rankdir=TB;\n");
        for n in self.nodes() {
            let shape = if self.is_shared(n) {
                " [shape=doublecircle]"
            } else {
                ""
            };
            s.push_str(&format!("  \"{n}\"{shape};\n"));
        }
        for (a, b) in self.edges() {
            s.push_str(&format!("  \"{a}\" -> \"{b}\";\n"));
        }
        s.push_str("}\n");
        s
    }
}

impl fmt::Display for HierarchyGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (a, b) in self.edges() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{a}->{b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachability_follows_edges() {
        let mut g = HierarchyGraph::new();
        g.add_edge("A", "B");
        g.add_edge("B", "C");
        assert!(g.reaches("A", "C"));
        assert!(!g.reaches("C", "A"));
        assert!(g.would_cycle("C", "A"));
    }

    #[test]
    fn sccs_find_cycles() {
        let mut g = HierarchyGraph::new();
        g.add_edge("A", "B");
        g.add_edge("B", "C");
        g.add_edge("C", "A");
        g.add_edge("C", "D");
        let cycle = g.find_cycle().expect("cycle exists");
        assert_eq!(cycle, vec!["A", "B", "C"]);
    }

    #[test]
    fn merge_collapses_cycle() {
        let mut g = HierarchyGraph::new();
        g.add_edge("A", "B");
        g.add_edge("B", "A");
        g.add_edge("B", "C");
        g.add_edge("X", "A");
        let cycle = g.find_cycle().expect("cycle");
        g.merge_nodes(&cycle, "AB");
        assert!(g.find_cycle().is_none());
        assert!(g.has_edge("AB", "C"));
        assert!(g.has_edge("X", "AB"));
        assert!(!g.has_node("A"));
    }

    #[test]
    fn redundant_edges_are_removed() {
        let mut g = HierarchyGraph::new();
        g.add_edge("A", "B");
        g.add_edge("B", "C");
        g.add_edge("A", "C"); // implied by A->B->C
        g.remove_redundant_edges();
        assert!(!g.has_edge("A", "C"));
        assert!(g.reaches("A", "C"));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn sources_and_sinks() {
        let mut g = HierarchyGraph::new();
        g.add_edge("A", "B");
        g.add_edge("A", "C");
        assert_eq!(g.sources(), vec!["A"]);
        let mut sinks = g.sinks();
        sinks.sort();
        assert_eq!(sinks, vec!["B", "C"]);
    }

    #[test]
    fn ensure_edge_builds_what_add_edge_builds() {
        let pairs = [("A", "B"), ("B", "C"), ("A", "B"), ("C", "C"), ("A", "C")];
        let (mut owned, mut borrowed) = (HierarchyGraph::new(), HierarchyGraph::new());
        for (h, l) in pairs {
            owned.add_edge(h, l);
            borrowed.ensure_edge(h, l);
        }
        owned.add_node("D");
        borrowed.ensure_node("D");
        assert_eq!(owned, borrowed);
    }

    #[test]
    fn merge_preserves_shared_flag() {
        let mut g = HierarchyGraph::new();
        g.add_edge("A", "B");
        g.set_shared("A");
        g.merge_nodes(&["A".to_string(), "B".to_string()], "S");
        assert!(g.is_shared("S"));
    }

    #[test]
    fn dot_contains_nodes_and_edges() {
        let mut g = HierarchyGraph::new();
        g.add_edge("Hi", "Lo");
        let dot = g.to_dot("t");
        assert!(dot.contains("\"Hi\" -> \"Lo\""));
    }
}
