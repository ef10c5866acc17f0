//! Value flow graphs (Definition 1, §5.2.1) in string form.
//!
//! A node is a tuple `⟨v, f1, …, fn⟩` — a variable (or `this`, a
//! parameter, `RET`, `PC`, or a compiler-introduced `ILOCn` intermediate)
//! followed by field names. An edge records an explicit or implicit value
//! flow. The dense engine ([`crate::dense`]) builds graphs over interned
//! ids; [`DenseFlowGraph::to_flow_graph`](crate::DenseFlowGraph::to_flow_graph)
//! converts one to this form, which `sjava vfg` prints as DOT and the
//! oracle ([`crate::oracle`]) builds directly.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A value-flow-graph node: variable root plus field path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(pub Vec<String>);

impl Tuple {
    /// A root-only tuple.
    pub fn root(name: impl Into<String>) -> Self {
        Tuple(vec![name.into()])
    }

    /// Appends a field name.
    pub fn append(&self, field: &str) -> Tuple {
        let mut v = Vec::with_capacity(self.0.len() + 1);
        v.extend_from_slice(&self.0);
        v.push(field.to_string());
        Tuple(v)
    }

    /// The root element.
    pub fn root_name(&self) -> &str {
        &self.0[0]
    }

    /// Replaces the root with another tuple (argument binding, `⊙`).
    pub fn rebase(&self, new_root: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(new_root.0.len() + self.0.len() - 1);
        v.extend_from_slice(&new_root.0);
        v.extend(self.0.iter().skip(1).cloned());
        Tuple(v)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}⟩", self.0.join(","))
    }
}

/// The special return-value node name.
pub const RET: &str = "RET";
/// The special program-counter node name.
pub const PC: &str = "PC";

/// A method's value flow graph.
#[derive(Debug, Clone, Default)]
pub struct FlowGraph {
    /// Edge map: source → destinations.
    pub edges: BTreeMap<Tuple, BTreeSet<Tuple>>,
    /// All nodes (including isolated ones).
    pub nodes: BTreeSet<Tuple>,
    /// Nodes involved in self-flows (must become shared locations).
    pub self_flows: BTreeSet<Tuple>,
    /// Count of generated intermediate (ILOC) nodes.
    pub iloc_counter: usize,
}

impl FlowGraph {
    /// Adds a node.
    pub fn add_node(&mut self, t: Tuple) {
        self.nodes.insert(t);
    }

    /// Adds a flow edge `from → to`; a self-edge marks the node shared.
    pub fn add_edge(&mut self, from: Tuple, to: Tuple) {
        if from == to {
            self.self_flows.insert(from.clone());
            self.nodes.insert(from);
            return;
        }
        self.nodes.insert(from.clone());
        self.nodes.insert(to.clone());
        self.edges.entry(from).or_default().insert(to);
    }

    /// Iterates `(from, to)` edges.
    pub fn edge_pairs(&self) -> impl Iterator<Item = (&Tuple, &Tuple)> {
        self.edges
            .iter()
            .flat_map(|(f, ts)| ts.iter().map(move |t| (f, t)))
    }

    /// Renders the value flow graph as Graphviz DOT (the Fig 5.5-style
    /// picture, useful for program understanding and for debugging
    /// non-self-stabilizing programs, §5.2.7).
    pub fn to_dot(&self, title: &str) -> String {
        let mut s = format!("digraph \"{title}\" {{\n  rankdir=TB;\n");
        for n in &self.nodes {
            let label = n.0.join(",");
            let shape = if self.self_flows.contains(n) {
                " shape=doublecircle"
            } else if n.root_name().starts_with("ILOC") {
                " shape=diamond"
            } else {
                ""
            };
            s.push_str(&format!("  \"{label}\" [label=\"⟨{label}⟩\"{shape}];\n"));
        }
        for (a, b) in self.edge_pairs() {
            s.push_str(&format!(
                "  \"{}\" -> \"{}\";\n",
                a.0.join(","),
                b.0.join(",")
            ));
        }
        s.push_str("}\n");
        s
    }
}
