//! Error injection (§6.2): "randomly selects memory and mathematical
//! operations, and replaces the original value with a random value".
//!
//! The interpreter counts *steps* — one per value written and one per
//! arithmetic operation. An [`Injector`] fires at a chosen step, replacing
//! that step's value with a random one of the same Java type (type safety
//! is preserved, per the paper's error model §1.1.2).

use crate::value::{Heap, HeapEntry, ObjId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the injector corrupts when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectKind {
    /// The value produced by the current operation (a "mathematical
    /// operation" error).
    Op,
    /// A uniformly random heap cell (a "memory" error) — possibly a dead
    /// value, in which case the outputs never change, matching the
    /// paper's 534/1,000 non-corrupting trials.
    Heap,
}

/// A heap that error injection can scribble on.
///
/// Cells are addressed by their *rank* in a fixed total order that both
/// heap representations agree on: every array entry first (ascending
/// allocation index, elements ordered by the decimal string of their
/// index — `"10" < "2"`), then every object entry (ascending index,
/// fields ordered by name). This is exactly the order the legacy
/// `Heap::cells_mut` sort produced, so seeded injections pick the same
/// cell on the tree-walker's `HashMap` heap and the VM's flat heap.
pub trait InjectableHeap {
    /// Number of allocated entries.
    fn entry_count(&self) -> usize;
    /// `(is_array, cell_count)` for entry `i`.
    fn entry_cells(&self, i: usize) -> (bool, usize);
    /// Mutable access to the `rank`-th cell (in the order above) of
    /// entry `i`.
    fn cell_mut(&mut self, i: usize, rank: usize) -> Option<&mut Value>;
}

/// The index in `0..n` whose decimal string is `rank`-th in
/// lexicographic order (`0, 1, 10, 11, …, 2, 20, …` for `n = 100`).
pub(crate) fn lex_nth_index(n: usize, rank: usize) -> Option<usize> {
    if rank >= n {
        return None;
    }
    // Small arrays (the common case) are already lexicographically
    // ordered: for n <= 10 every index is a single digit.
    if n <= 10 {
        return Some(rank);
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| cmp_decimal(a, b));
    Some(order[rank])
}

/// Compares two indices by their decimal-string representations
/// without allocating.
fn cmp_decimal(a: usize, b: usize) -> std::cmp::Ordering {
    fn digits(buf: &mut [u8; 20], mut v: usize) -> usize {
        let mut i = 20;
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        i
    }
    let (mut ba, mut bb) = ([0u8; 20], [0u8; 20]);
    let (ia, ib) = (digits(&mut ba, a), digits(&mut bb, b));
    ba[ia..].cmp(&bb[ib..])
}

impl InjectableHeap for Heap {
    fn entry_count(&self) -> usize {
        self.len()
    }

    fn entry_cells(&self, i: usize) -> (bool, usize) {
        match self.get(ObjId(i)) {
            Some(HeapEntry::Array { data, .. }) => (true, data.len()),
            Some(HeapEntry::Object { fields, .. }) => (false, fields.len()),
            None => (false, 0),
        }
    }

    fn cell_mut(&mut self, i: usize, rank: usize) -> Option<&mut Value> {
        match self.get_mut(ObjId(i))? {
            HeapEntry::Array { data, .. } => {
                let ix = lex_nth_index(data.len(), rank)?;
                data.get_mut(ix)
            }
            HeapEntry::Object { fields, .. } => {
                let name = {
                    let mut names: Vec<&String> = fields.keys().collect();
                    names.sort_unstable();
                    names.get(rank)?.as_str().to_owned()
                };
                fields.get_mut(&name)
            }
        }
    }
}

/// An error injector firing at one or more chosen steps.
///
/// Self-stabilization holds for *any finite* corruption (§1.1.2), so the
/// harness also supports burst injections: every trigger step corrupts
/// independently, and recovery is bounded from the **last** one.
#[derive(Debug)]
pub struct Injector {
    rng: StdRng,
    /// Remaining steps at which to corrupt, stored descending so the
    /// next trigger is `last()` and firing is an O(1) `pop`.
    triggers: Vec<u64>,
    /// For heap injections: corrupt the cell with this rank in the
    /// global cell order (mod the live cell count) instead of drawing
    /// one at random — the campaign layer's heap-slot grid axis.
    target_cell: Option<usize>,
    /// What to corrupt.
    pub kind: InjectKind,
    /// The step at which the injector first fired, if it did.
    pub fired_at: Option<u64>,
    /// The step at which the injector last fired.
    pub last_fired_at: Option<u64>,
}

impl Injector {
    /// Creates an operation-corrupting injector firing at `trigger_step`,
    /// with corruption randomness drawn from `seed`.
    pub fn new(seed: u64, trigger_step: u64) -> Self {
        Self::with_kind(seed, trigger_step, InjectKind::Op)
    }

    /// Creates an injector of the given kind.
    pub fn with_kind(seed: u64, trigger_step: u64, kind: InjectKind) -> Self {
        Self::burst(seed, vec![trigger_step], kind)
    }

    /// Creates a burst injector corrupting at every step in `triggers`.
    pub fn burst(seed: u64, mut triggers: Vec<u64>, kind: InjectKind) -> Self {
        triggers.sort_unstable();
        triggers.dedup();
        triggers.reverse();
        Injector {
            rng: StdRng::seed_from_u64(seed),
            triggers,
            target_cell: None,
            kind,
            fired_at: None,
            last_fired_at: None,
        }
    }

    /// Creates a heap injector that corrupts the cell with the given
    /// rank in the global cell order (mod the live cell count at fire
    /// time) — campaigns use this to sweep *every* heap slot instead of
    /// sampling them.
    pub fn targeted_cell(seed: u64, trigger_step: u64, cell_rank: usize) -> Self {
        let mut inj = Self::with_kind(seed, trigger_step, InjectKind::Heap);
        inj.target_cell = Some(cell_rank);
        inj
    }

    /// The first configured trigger step (for reporting).
    pub fn trigger_step(&self) -> u64 {
        self.fired_at
            .or_else(|| self.triggers.last().copied())
            .unwrap_or(0)
    }

    /// Whether every trigger has fired: from here on the injector
    /// changes nothing.
    pub fn is_spent(&self) -> bool {
        self.triggers.is_empty()
    }

    fn due(&mut self, step: u64) -> bool {
        if self.triggers.last() == Some(&step) {
            self.triggers.pop();
            if self.fired_at.is_none() {
                self.fired_at = Some(step);
            }
            self.last_fired_at = Some(step);
            true
        } else {
            false
        }
    }

    /// Possibly corrupts `v` at `step`.
    pub fn filter(&mut self, step: u64, v: Value) -> Value {
        if self.kind != InjectKind::Op || !self.due(step) {
            return v;
        }
        match v {
            Value::Int(_) => Value::Int(self.rng.gen_range(-32768..=32767)),
            Value::Float(_) => Value::Float(self.rng.gen_range(-1.0e5..1.0e5)),
            Value::Bool(b) => Value::Bool(!b),
            // References, strings and null are left intact: the error
            // model preserves type/memory safety (§1.1.2).
            other => other,
        }
    }

    /// Possibly scribbles over one heap cell at `step`, mutating it in
    /// place (no key materialization, no value clones).
    pub fn corrupt_heap<H: InjectableHeap>(&mut self, step: u64, heap: &mut H) {
        if self.kind != InjectKind::Heap || !self.due(step) {
            return;
        }
        let n = heap.entry_count();
        let mut total = 0usize;
        for i in 0..n {
            total += heap.entry_cells(i).1;
        }
        if total == 0 {
            return;
        }
        let pick = match self.target_cell {
            Some(t) => t % total,
            None => self.rng.gen_range(0..total),
        };
        // Resolve the global rank: arrays first, then objects, each in
        // ascending entry order (see `InjectableHeap`).
        let mut k = pick;
        let mut found = None;
        'outer: for want_array in [true, false] {
            for i in 0..n {
                let (is_array, c) = heap.entry_cells(i);
                if is_array != want_array {
                    continue;
                }
                if k < c {
                    found = Some(i);
                    break 'outer;
                }
                k -= c;
            }
        }
        let Some(entry) = found else { return };
        if let Some(v) = heap.cell_mut(entry, k) {
            match v {
                Value::Int(_) => *v = Value::Int(self.rng.gen_range(-32768..=32767)),
                Value::Float(_) => *v = Value::Float(self.rng.gen_range(-1.0e5..1.0e5)),
                Value::Bool(b) => *v = Value::Bool(!*b),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_once_at_trigger() {
        let mut inj = Injector::new(1, 5);
        assert_eq!(inj.filter(4, Value::Int(1)), Value::Int(1));
        let corrupted = inj.filter(5, Value::Int(1));
        assert!(matches!(corrupted, Value::Int(_)));
        assert_eq!(inj.fired_at, Some(5));
        // Subsequent steps untouched.
        assert_eq!(inj.filter(5, Value::Int(9)), Value::Int(9));
        assert_eq!(inj.filter(6, Value::Int(9)), Value::Int(9));
    }

    #[test]
    fn references_are_not_corrupted() {
        let mut inj = Injector::new(1, 0);
        assert_eq!(inj.filter(0, Value::Null), Value::Null);
    }

    #[test]
    fn corruption_is_seed_deterministic() {
        let a = Injector::new(42, 0).filter(0, Value::Int(7));
        let b = Injector::new(42, 0).filter(0, Value::Int(7));
        assert_eq!(a, b);
    }

    #[test]
    fn burst_triggers_fire_in_ascending_order() {
        let mut inj = Injector::burst(1, vec![9, 3, 6, 3], InjectKind::Op);
        assert_eq!(inj.trigger_step(), 3);
        assert!(matches!(inj.filter(3, Value::Int(0)), Value::Int(_)));
        assert_eq!(inj.filter(4, Value::Int(4)), Value::Int(4));
        assert!(matches!(inj.filter(6, Value::Int(0)), Value::Int(_)));
        assert!(matches!(inj.filter(9, Value::Int(0)), Value::Int(_)));
        assert_eq!(inj.fired_at, Some(3));
        assert_eq!(inj.last_fired_at, Some(9));
    }

    #[test]
    fn lex_order_matches_decimal_strings() {
        // For n = 12 the decimal-string order is 0,1,10,11,2,3,...,9.
        let order: Vec<usize> = (0..12).map(|r| lex_nth_index(12, r).unwrap()).collect();
        let mut expect: Vec<usize> = (0..12).collect();
        expect.sort_by_key(|i| i.to_string());
        assert_eq!(order, expect);
        assert_eq!(lex_nth_index(12, 12), None);
        assert_eq!(lex_nth_index(7, 4), Some(4));
    }
}

#[cfg(test)]
mod heap_tests {
    use super::*;
    use sjava_syntax::ast::Type;
    use std::collections::HashMap;

    #[test]
    fn heap_injection_corrupts_one_cell() {
        let mut heap = Heap::new();
        let id = heap.alloc_object("A", HashMap::from([("x".to_string(), Value::Int(7))]));
        let mut inj = Injector::with_kind(3, 5, InjectKind::Heap);
        inj.corrupt_heap(4, &mut heap);
        assert_eq!(heap.read_field(id, "x"), Some(Value::Int(7)));
        inj.corrupt_heap(5, &mut heap);
        assert_eq!(inj.fired_at, Some(5));
        assert_ne!(heap.read_field(id, "x"), Some(Value::Int(7)));
        // Fires once only.
        let after = heap.read_field(id, "x");
        inj.corrupt_heap(5, &mut heap);
        assert_eq!(heap.read_field(id, "x"), after);
    }

    #[test]
    fn op_injector_never_touches_heap() {
        let mut heap = Heap::new();
        heap.alloc_object("A", HashMap::from([("x".to_string(), Value::Int(7))]));
        let mut inj = Injector::new(3, 5);
        inj.corrupt_heap(5, &mut heap);
        assert_eq!(inj.fired_at, None);
    }

    #[test]
    fn rank_selection_matches_legacy_cells_mut_order() {
        // Mixed heap exercising every ordering rule: arrays before
        // objects, entries ascending, array indices in decimal-string
        // order, object fields in name order.
        let build = || {
            let mut heap = Heap::new();
            heap.alloc_object(
                "A",
                HashMap::from([
                    ("beta".to_string(), Value::Int(1)),
                    ("alpha".to_string(), Value::Int(2)),
                ]),
            );
            heap.alloc_array(Type::Int, 12);
            heap.alloc_array(Type::Float, 3);
            heap.alloc_object("B", HashMap::from([("z".to_string(), Value::Bool(true))]));
            heap
        };
        for seed in 0..64u64 {
            // Legacy selection: sort all (kind, entry, key) descriptors
            // and index with the same single RNG draw.
            let mut legacy = build();
            let cells = legacy.cells_mut();
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, entry, key) = cells[rng.gen_range(0..cells.len())].clone();
            let mut inj = Injector::with_kind(seed, 1, InjectKind::Heap);
            let mut heap = build();
            inj.corrupt_heap(1, &mut heap);
            // Exactly the legacy-chosen cell changed (Bool always flips,
            // Int/Float redraws land outside the tiny initial values).
            let (reference, corrupted) = (build(), heap);
            for i in 0..reference.entry_count() {
                match (
                    reference.get(ObjId(i)).unwrap(),
                    corrupted.get(ObjId(i)).unwrap(),
                ) {
                    (HeapEntry::Object { fields: a, .. }, HeapEntry::Object { fields: b, .. }) => {
                        for (k, va) in a {
                            let changed = b.get(k) != Some(va);
                            assert_eq!(changed, i == entry && *k == key, "seed {seed}");
                        }
                    }
                    (HeapEntry::Array { data: a, .. }, HeapEntry::Array { data: b, .. }) => {
                        for (j, va) in a.iter().enumerate() {
                            let changed = b[j] != *va;
                            assert_eq!(changed, i == entry && j.to_string() == key, "seed {seed}");
                        }
                    }
                    _ => panic!("entry kind changed"),
                }
            }
        }
    }

    #[test]
    fn targeted_cell_sweeps_every_slot() {
        // Rank r must hit the r-th cell in the fixed order; ranks wrap.
        let build = || {
            let mut heap = Heap::new();
            heap.alloc_object(
                "A",
                HashMap::from([
                    ("b".to_string(), Value::Int(5)),
                    ("a".to_string(), Value::Int(6)),
                ]),
            );
            heap.alloc_array(Type::Int, 2);
            heap
        };
        // Order: arr[0], arr[1], A.a, A.b — then wrap.
        for (rank, expect_same) in [(0, 1), (1, 0), (2, 3), (3, 2), (4, 1)] {
            let mut heap = build();
            let mut inj = Injector::targeted_cell(9, 1, rank);
            inj.corrupt_heap(1, &mut heap);
            let r = build();
            let mut changed = Vec::new();
            if let (
                Some(HeapEntry::Array { data: a, .. }),
                Some(HeapEntry::Array { data: b, .. }),
            ) = (r.get(ObjId(1)), heap.get(ObjId(1)))
            {
                for j in 0..a.len() {
                    if a[j] != b[j] {
                        changed.push(j);
                    }
                }
            }
            for f in ["a", "b"] {
                if r.read_field(ObjId(0), f) != heap.read_field(ObjId(0), f) {
                    changed.push(2 + (f == "b") as usize);
                }
            }
            assert_eq!(changed.len(), 1, "rank {rank}");
            assert_ne!(changed[0], expect_same, "rank {rank}");
            assert_eq!(changed[0], rank % 4, "rank {rank}");
        }
    }
}
