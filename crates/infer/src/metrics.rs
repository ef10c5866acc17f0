//! Lattice complexity metrics for the Table 6.1 reproduction.

use crate::lattgen::GenLattices;
use sjava_lattice::{count_paths, is_complex, FnvHashMap, Lattice};
use std::sync::Arc;

/// Statistics of one lattice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatticeStat {
    /// Hierarchy name (`Class` or `Class.method`).
    pub name: String,
    /// Number of named locations.
    pub locations: usize,
    /// Number of ⊤→⊥ information paths.
    pub paths: u128,
    /// Whether the lattice is complex (> 5 locations).
    pub complex: bool,
}

/// Aggregated metrics over every generated lattice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Per-lattice statistics.
    pub lattices: Vec<LatticeStat>,
}

impl Metrics {
    /// Computes metrics from generated lattices. A lattice that several
    /// hierarchies share has its paths counted once.
    pub fn from_gen(gen: &GenLattices) -> Metrics {
        let mut paths: FnvHashMap<*const Lattice, u128> = FnvHashMap::default();
        let mut stat = |name: String, lat: &Arc<Lattice>| LatticeStat {
            name,
            locations: lat.named_len(),
            paths: *paths
                .entry(Arc::as_ptr(lat))
                .or_insert_with(|| count_paths(lat)),
            complex: is_complex(lat),
        };
        let mut lattices: Vec<LatticeStat> = gen
            .fields
            .iter()
            .filter(|(_, lat)| lat.named_len() > 0)
            .map(|(class, lat)| stat(class.clone(), lat))
            .collect();
        for ((class, method), lat) in &gen.methods {
            if lat.named_len() > 0 {
                lattices.push(stat(format!("{class}.{method}"), lat));
            }
        }
        Metrics { lattices }
    }

    /// Total locations in simple (≤5) lattices.
    pub fn simple_locations(&self) -> usize {
        self.lattices
            .iter()
            .filter(|l| !l.complex)
            .map(|l| l.locations)
            .sum()
    }

    /// Total paths in simple lattices.
    pub fn simple_paths(&self) -> u128 {
        self.lattices
            .iter()
            .filter(|l| !l.complex)
            .map(|l| l.paths)
            .fold(0u128, |a, b| a.saturating_add(b))
    }

    /// Total locations in complex (>5) lattices.
    pub fn complex_locations(&self) -> usize {
        self.lattices
            .iter()
            .filter(|l| l.complex)
            .map(|l| l.locations)
            .sum()
    }

    /// Total paths in complex lattices.
    pub fn complex_paths(&self) -> u128 {
        self.lattices
            .iter()
            .filter(|l| l.complex)
            .map(|l| l.paths)
            .fold(0u128, |a, b| a.saturating_add(b))
    }

    /// Total locations across all lattices.
    pub fn total_locations(&self) -> usize {
        self.lattices.iter().map(|l| l.locations).sum()
    }

    /// Total paths across all lattices.
    pub fn total_paths(&self) -> u128 {
        self.lattices
            .iter()
            .map(|l| l.paths)
            .fold(0u128, |a, b| a.saturating_add(b))
    }

    /// The single most complex lattice, by location count.
    pub fn most_complex(&self) -> Option<&LatticeStat> {
        self.lattices.iter().max_by_key(|l| l.locations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_lattice::Lattice;

    #[test]
    fn aggregates_split_by_complexity() {
        let mut gen = GenLattices::default();
        gen.fields.insert(
            "Small".into(),
            Arc::new(Lattice::from_decl(&[("A".into(), "B".into())], &[], &[]).expect("ok")),
        );
        gen.fields.insert(
            "Big".into(),
            Arc::new(
                Lattice::from_decl(
                    &[],
                    &[],
                    &(0..8).map(|i| format!("N{i}")).collect::<Vec<_>>(),
                )
                .expect("ok"),
            ),
        );
        let m = Metrics::from_gen(&gen);
        assert_eq!(m.simple_locations(), 2);
        assert_eq!(m.complex_locations(), 8);
        assert_eq!(m.total_locations(), 10);
        assert_eq!(m.most_complex().expect("some").name, "Big");
    }
}
