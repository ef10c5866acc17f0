//! The method and field hierarchy graphs that decomposing value flow
//! graphs yields (§5.2.5), with the merge bookkeeping lattice generation
//! and annotation emission read.
//!
//! A cycle in a hierarchy that relocation cannot avoid (§5.2.2) is merged
//! into one shared location, `SH_` plus its first member's name; the
//! alias maps send every merged node to that name.

use crate::graph::Tuple;
use sjava_analysis::callgraph::MethodRef;
use sjava_lattice::HierarchyGraph;
use std::collections::BTreeMap;

/// The decomposed hierarchies plus bookkeeping for annotation emission.
#[derive(Debug, Clone, Default)]
pub struct Decomposition {
    /// Per-method hierarchy graphs.
    pub methods: BTreeMap<MethodRef, HierarchyGraph>,
    /// Per-class field hierarchy graphs.
    pub fields: BTreeMap<String, HierarchyGraph>,
    /// Final node tuple per variable per method (after relocation).
    pub var_tuples: BTreeMap<MethodRef, BTreeMap<String, Tuple>>,
    /// Per-method alias maps: original node name → merged shared name.
    pub method_alias: BTreeMap<MethodRef, BTreeMap<String, String>>,
    /// Per-class alias maps for field locations.
    pub field_alias: BTreeMap<String, BTreeMap<String, String>>,
}

impl Decomposition {
    /// Resolves a method-hierarchy node name through merges.
    pub fn method_name(&self, m: &MethodRef, name: &str) -> String {
        resolve_alias(self.method_alias.get(m), name)
    }

    /// Resolves a field-hierarchy node name through merges.
    pub fn field_name(&self, class: &str, name: &str) -> String {
        resolve_alias(self.field_alias.get(class), name)
    }
}

/// Follows `name` through an alias map to the shared name it was merged
/// into (itself when it was not merged).
pub(crate) fn resolve_alias(map: Option<&BTreeMap<String, String>>, name: &str) -> String {
    resolve_alias_str(map, name).to_string()
}

/// [`resolve_alias`], borrowed from the map or from `name` instead of
/// copied.
pub(crate) fn resolve_alias_str<'a>(
    map: Option<&'a BTreeMap<String, String>>,
    name: &'a str,
) -> &'a str {
    let Some(map) = map else {
        return name;
    };
    let mut cur = name;
    let mut hops = 0;
    while let Some(next) = map.get(cur) {
        if next == cur || hops > 64 {
            break;
        }
        cur = next;
        hops += 1;
    }
    cur
}

/// The deterministic name of a merged group: the lexicographically first
/// member plus a marker.
pub(crate) fn shared_name(group: &[String]) -> String {
    format!("SH_{}", group.first().cloned().unwrap_or_default())
}

/// Nodes on some path from `from` to `to` (used to extract a would-be
/// cycle's members).
pub(crate) fn cycle_between(g: &HierarchyGraph, from: &str, to: &str) -> Vec<String> {
    let mut out = Vec::new();
    for n in g.nodes() {
        if g.reaches(from, n) && g.reaches(n, to) {
            out.push(n.to_string());
        }
    }
    out
}
