//! Dataflow analyses over [`Cfg`]s: live variables (backward) and
//! reaching definitions (forward), used by the lint pass.
//!
//! Both analyses run on the dense bitset engine in [`crate::dense`]:
//! variable names and definition sites are interned to `u32` ids, the
//! per-block transfer collapses to precomputed gen/kill masks, and the
//! worklist visits blocks in (reverse) postorder. The public entry
//! points [`live_variables`] and [`reaching_defs`] convert the bitsets
//! back to `BTreeSet`s, so callers observe exactly the facts the
//! original string-keyed solver produced — a property the randomized
//! oracle test at the bottom of this file checks against the legacy
//! [`solve`] implementation, which is kept compiled unconditionally so
//! the differential fuzz harness (`sjava fuzz --oracle=check`) can pit
//! the two engines against each other on adversarial programs.

use crate::cfg::{BasicBlock, BlockId, Cfg, Instr};
use crate::dense::{solve_gen_kill, BitSet, Interner, VarInterner};
use sjava_syntax::ast::{CallExpr, Expr, LValue};
use std::collections::BTreeSet;

/// Per-block input/output facts after solving.
///
/// Orientation note: for backward problems `outputs[b]` is the fact at
/// block *entry* (the result of the block's transfer) and `inputs[b]`
/// is the meet over successors, mirroring the worklist's data layout.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Meet of facts flowing into the block's transfer.
    pub inputs: Vec<F>,
    /// Result of the block's transfer.
    pub outputs: Vec<F>,
}

// ---------------------------------------------------------------------
// Use/def extraction
// ---------------------------------------------------------------------

/// Visits every variable an expression reads.
pub fn expr_uses_with<F: FnMut(&str)>(e: &Expr, visit: &mut F) {
    match e {
        Expr::Var { name, .. } => visit(name),
        Expr::Field { base, .. } | Expr::Length { base, .. } => expr_uses_with(base, visit),
        Expr::Index { base, index, .. } => {
            expr_uses_with(base, visit);
            expr_uses_with(index, visit);
        }
        Expr::Call(call) => {
            let CallExpr { recv, args, .. } = &**call;
            if let Some(r) = recv {
                expr_uses_with(r, visit);
            }
            for a in args {
                expr_uses_with(a, visit);
            }
        }
        Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => expr_uses_with(operand, visit),
        Expr::Binary { lhs, rhs, .. } => {
            expr_uses_with(lhs, visit);
            expr_uses_with(rhs, visit);
        }
        Expr::NewArray { len, .. } => expr_uses_with(len, visit),
        _ => {}
    }
}

/// Variables read by an expression, collected into a set.
pub fn expr_uses(e: &Expr, out: &mut BTreeSet<String>) {
    expr_uses_with(e, &mut |name| {
        out.insert(name.to_string());
    });
}

fn instr_uses_with<F: FnMut(&str)>(i: &Instr, visit: &mut F) {
    match i {
        Instr::Decl { init, .. } => {
            if let Some(e) = init {
                expr_uses_with(e, visit);
            }
        }
        Instr::Assign { lhs, rhs } => {
            expr_uses_with(rhs, visit);
            match lhs {
                LValue::Field { base, .. } => expr_uses_with(base, visit),
                LValue::Index { base, index, .. } => {
                    expr_uses_with(base, visit);
                    expr_uses_with(index, visit);
                }
                _ => {}
            }
        }
        Instr::Cond(e) | Instr::Eval(e) => expr_uses_with(e, visit),
        Instr::Return(Some(e)) => expr_uses_with(e, visit),
        Instr::Return(None) => {}
    }
}

fn instr_uses(i: &Instr, out: &mut BTreeSet<String>) {
    instr_uses_with(i, &mut |name| {
        out.insert(name.to_string());
    });
}

/// The variable an instruction defines (kills), if any.
pub fn instr_def(i: &Instr) -> Option<&str> {
    match i {
        Instr::Decl {
            name,
            init: Some(_),
        } => Some(name),
        Instr::Assign {
            lhs: LValue::Var { name, .. },
            ..
        } => Some(name),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Live variables (dense)
// ---------------------------------------------------------------------

/// Backward liveness of local variable names over the whole CFG.
///
/// `outputs[b]` holds the variables live at entry to block `b`,
/// `inputs[b]` those live at its exit.
pub fn live_variables(cfg: &Cfg) -> Solution<BTreeSet<String>> {
    let n = cfg.len();
    let mut vars = VarInterner::new();
    let mut gen = vec![BitSet::new(); n];
    let mut kill = vec![BitSet::new(); n];
    for b in cfg.ids() {
        // Walking instructions backward folds the whole block into one
        // gen/kill pair: a use before (above) a kill re-gens the var.
        let (g, k) = (&mut gen[b.0], &mut kill[b.0]);
        for i in cfg.block(b).instrs.iter().rev() {
            if let Some(d) = instr_def(i) {
                let id = vars.intern(d) as usize;
                g.remove(id);
                k.insert(id);
            }
            instr_uses_with(i, &mut |name| {
                g.insert(vars.intern(name) as usize);
            });
        }
    }
    let sol = solve_gen_kill(cfg, false, &gen, &kill);
    let to_set = |s: &BitSet| -> BTreeSet<String> {
        s.iter()
            .map(|id| vars.resolve(id as u32).to_string())
            .collect()
    };
    Solution {
        inputs: sol.inputs.iter().map(to_set).collect(),
        outputs: sol.outputs.iter().map(to_set).collect(),
    }
}

/// Liveness *before* each instruction of a block, in instruction order —
/// for per-statement queries (dead-store detection).
pub fn liveness_per_instr(
    cfg: &Cfg,
    solution: &Solution<BTreeSet<String>>,
    block: BlockId,
) -> Vec<BTreeSet<String>> {
    // outputs[block] is the fact at block entry for backward problems; to
    // get per-instruction facts walk backward from the meet of succs.
    let mut live: BTreeSet<String> = BTreeSet::new();
    for &s in &cfg.block(block).succs {
        live.extend(solution.outputs[s.0].iter().cloned());
    }
    let instrs = &cfg.block(block).instrs;
    let mut after: Vec<BTreeSet<String>> = vec![BTreeSet::new(); instrs.len()];
    for (idx, i) in instrs.iter().enumerate().rev() {
        after[idx] = live.clone();
        if let Some(d) = instr_def(i) {
            live.remove(d);
        }
        instr_uses(i, &mut live);
    }
    after
}

// ---------------------------------------------------------------------
// Reaching definitions (dense)
// ---------------------------------------------------------------------

/// A definition site: `(block, instruction index, variable)`.
pub type DefSite = (usize, usize, String);

/// Forward reaching-definitions over local variables.
///
/// `inputs[b]` holds the definitions reaching entry of block `b`,
/// `outputs[b]` those reaching its exit.
pub fn reaching_defs(cfg: &Cfg) -> Solution<BTreeSet<DefSite>> {
    let n = cfg.len();
    let mut vars = VarInterner::new();
    let mut sites: Interner<(usize, usize, u32)> = Interner::new();
    // sites_of[var] = every definition site of that variable, for kill.
    let mut sites_of: Vec<BitSet> = Vec::new();
    for b in cfg.ids() {
        for (idx, i) in cfg.block(b).instrs.iter().enumerate() {
            if let Some(d) = instr_def(i) {
                let v = vars.intern(d);
                let s = sites.intern(&(b.0, idx, v));
                if vars.len() > sites_of.len() {
                    sites_of.resize(vars.len(), BitSet::new());
                }
                sites_of[v as usize].insert(s as usize);
            }
        }
    }
    let mut gen = vec![BitSet::new(); n];
    let mut kill = vec![BitSet::new(); n];
    for b in cfg.ids() {
        for (idx, i) in cfg.block(b).instrs.iter().enumerate() {
            if let Some(d) = instr_def(i) {
                let v = vars.intern(d);
                let s = sites.get(&(b.0, idx, v)).expect("site interned above");
                // A later definition in the same block kills earlier
                // in-block gens of the same variable.
                gen[b.0].subtract(&sites_of[v as usize]);
                gen[b.0].insert(s as usize);
                kill[b.0].union_with(&sites_of[v as usize]);
            }
        }
    }
    let sol = solve_gen_kill(cfg, true, &gen, &kill);
    let to_set = |s: &BitSet| -> BTreeSet<DefSite> {
        s.iter()
            .map(|id| {
                let &(blk, idx, v) = sites.resolve(id as u32);
                (blk, idx, vars.resolve(v).to_string())
            })
            .collect()
    };
    Solution {
        inputs: sol.inputs.iter().map(to_set).collect(),
        outputs: sol.outputs.iter().map(to_set).collect(),
    }
}

// ---------------------------------------------------------------------
// Legacy string-keyed solver — the oracle for the dense engine
// ---------------------------------------------------------------------

/// Analysis direction of the legacy generic solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow along control-flow edges.
    Forward,
    /// Facts flow against control-flow edges.
    Backward,
}

/// A dataflow problem over per-block facts (legacy oracle interface).
pub trait Problem {
    /// The lattice of facts (sets with union meet here).
    type Fact: Clone + PartialEq + Default;

    /// Analysis direction.
    fn direction(&self) -> Direction;

    /// Meet of facts flowing into a block.
    fn meet(&self, facts: &[&Self::Fact]) -> Self::Fact;

    /// Transfer function over a whole block.
    fn transfer(&self, id: BlockId, block: &BasicBlock, input: &Self::Fact) -> Self::Fact;
}

/// Runs the legacy worklist algorithm to a fixed point. Retained as the
/// executable specification the dense engine is property-tested against.
pub fn solve<P: Problem>(cfg: &Cfg, problem: &P) -> Solution<P::Fact> {
    use std::collections::VecDeque;
    let n = cfg.len();
    let mut inputs: Vec<P::Fact> = vec![Default::default(); n];
    let mut outputs: Vec<P::Fact> = vec![Default::default(); n];
    let mut work: VecDeque<BlockId> = cfg.ids().collect();
    while let Some(b) = work.pop_front() {
        let block = cfg.block(b);
        let incoming: &[BlockId] = match problem.direction() {
            Direction::Forward => &block.preds,
            Direction::Backward => &block.succs,
        };
        let facts: Vec<&P::Fact> = incoming.iter().map(|&p| &outputs[p.0]).collect();
        let input = problem.meet(&facts);
        let output = problem.transfer(b, block, &input);
        inputs[b.0] = input;
        if output != outputs[b.0] {
            outputs[b.0] = output;
            let dependents: &[BlockId] = match problem.direction() {
                Direction::Forward => &block.succs,
                Direction::Backward => &block.preds,
            };
            for &d in dependents {
                if !work.contains(&d) {
                    work.push_back(d);
                }
            }
        }
    }
    Solution { inputs, outputs }
}

/// Backward liveness of local variable names (legacy oracle).
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveVariables;

impl Problem for LiveVariables {
    type Fact = BTreeSet<String>;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn meet(&self, facts: &[&Self::Fact]) -> Self::Fact {
        let mut out = BTreeSet::new();
        for f in facts {
            out.extend((*f).iter().cloned());
        }
        out
    }

    fn transfer(&self, _id: BlockId, block: &BasicBlock, input: &Self::Fact) -> Self::Fact {
        // Backward: walk instructions in reverse.
        let mut live = input.clone();
        for i in block.instrs.iter().rev() {
            if let Some(d) = instr_def(i) {
                live.remove(d);
            }
            instr_uses(i, &mut live);
        }
        live
    }
}

/// Forward reaching-definitions over local variables (legacy oracle).
#[derive(Debug, Clone, Default)]
pub struct ReachingDefs {
    /// All definition sites per variable (precomputed).
    pub defs_of: std::collections::BTreeMap<String, BTreeSet<DefSite>>,
}

impl ReachingDefs {
    /// Precomputes definition sites from a CFG.
    pub fn prepare(cfg: &Cfg) -> Self {
        let mut defs_of: std::collections::BTreeMap<String, BTreeSet<DefSite>> = Default::default();
        for b in cfg.ids() {
            for (idx, i) in cfg.block(b).instrs.iter().enumerate() {
                if let Some(d) = instr_def(i) {
                    defs_of
                        .entry(d.to_string())
                        .or_default()
                        .insert((b.0, idx, d.to_string()));
                }
            }
        }
        ReachingDefs { defs_of }
    }
}

impl Problem for ReachingDefs {
    type Fact = BTreeSet<DefSite>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn meet(&self, facts: &[&Self::Fact]) -> Self::Fact {
        let mut out = BTreeSet::new();
        for f in facts {
            out.extend((*f).iter().cloned());
        }
        out
    }

    fn transfer(&self, id: BlockId, block: &BasicBlock, input: &Self::Fact) -> Self::Fact {
        let mut out = input.clone();
        for (idx, i) in block.instrs.iter().enumerate() {
            if let Some(d) = instr_def(i) {
                out.retain(|(_, _, v)| v != d);
                out.insert((id.0, idx, d.to_string()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_syntax::parse;

    fn cfg_of(body_src: &str) -> Cfg {
        let src = format!("class A {{ void f(int p) {{ {body_src} }} }}");
        let p = parse(&src).expect("parses");
        Cfg::build(&p.method("A", "f").expect("m").body)
    }

    #[test]
    fn liveness_sees_loop_carried_values() {
        // `acc` is written at the end of the body and read at the top of
        // the next iteration: it must be live across the back edge.
        let c = cfg_of("int acc = 0; while (p > 0) { p = p - acc; acc = acc + 1; }");
        let sol = live_variables(&c);
        // At the loop-head block's entry, acc is live.
        let live_anywhere = sol.outputs.iter().any(|f| f.contains("acc"));
        assert!(live_anywhere);
    }

    #[test]
    fn dead_value_is_not_live() {
        let c = cfg_of("int dead = 5; p = 1;");
        let sol = live_variables(&c);
        for f in &sol.outputs {
            assert!(!f.contains("dead"));
        }
    }

    #[test]
    fn per_instr_liveness_orders_correctly() {
        let c = cfg_of("int x = 1; int y = x + 1; p = y;");
        let sol = live_variables(&c);
        let per = liveness_per_instr(&c, &sol, c.entry);
        // After `int x = 1`, x is live (read by y's init).
        assert!(per[0].contains("x"));
        // After `int y = ...`, x is dead, y live.
        assert!(!per[1].contains("x"));
        assert!(per[1].contains("y"));
        // After `p = y`, nothing is live.
        assert!(per[2].is_empty());
    }

    #[test]
    fn reaching_defs_prepare_finds_sites() {
        let c = cfg_of("int x = 1; if (p > 0) { x = 2; } p = x;");
        let rd = ReachingDefs::prepare(&c);
        assert_eq!(rd.defs_of["x"].len(), 2);
    }

    #[test]
    fn both_definitions_reach_the_join() {
        let c = cfg_of("int x = 1; if (p > 0) { x = 2; } p = x;");
        let sol = reaching_defs(&c);
        // At some block, two distinct definitions of x reach together.
        let merged = sol
            .inputs
            .iter()
            .any(|f| f.iter().filter(|(_, _, v)| v == "x").count() == 2);
        assert!(
            merged,
            "the conditional redefinition must merge at the join"
        );
    }

    #[test]
    fn redefinition_kills_the_earlier_site() {
        let c = cfg_of("int x = 1; x = 2; p = x;");
        let sol = reaching_defs(&c);
        // After the entry block, only the second definition survives.
        let entry_out = &sol.outputs[c.entry.0];
        assert_eq!(entry_out.iter().filter(|(_, _, v)| v == "x").count(), 1);
    }

    /// Renders a random structured method body from a seed: straight-line
    /// assignments and declarations over a fixed variable pool, nested
    /// `if`/`while`/`for` up to depth 3, and `break`/`continue` inside
    /// loops — every control shape `Cfg::build` can produce.
    fn gen_body(seed: u64) -> String {
        fn next(s: &mut u64) -> u64 {
            *s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = *s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
        fn gen(s: &mut u64, depth: usize, budget: &mut usize, in_loop: bool, out: &mut String) {
            while *budget > 0 && !next(s).is_multiple_of(4) {
                *budget -= 1;
                let (i, j, k) = (next(s) % 5, next(s) % 5, next(s) % 5);
                match next(s) % 8 {
                    0 | 1 => out.push_str(&format!("x{i} = x{j} + x{k};")),
                    2 => out.push_str(&format!("int x{i} = x{j} * 2;")),
                    3 => out.push_str(&format!("x{i} = x{i} + 1;")),
                    4 if depth > 0 => {
                        out.push_str(&format!("if (x{j} > 0) {{"));
                        gen(s, depth - 1, budget, in_loop, out);
                        out.push('}');
                        if next(s).is_multiple_of(2) {
                            out.push_str("else {");
                            gen(s, depth - 1, budget, in_loop, out);
                            out.push('}');
                        }
                    }
                    5 if depth > 0 => {
                        out.push_str(&format!("while (x{j} > 0) {{ x{j} = x{j} - 1;"));
                        gen(s, depth - 1, budget, true, out);
                        out.push('}');
                    }
                    6 if depth > 0 => {
                        out.push_str(&format!(
                            "for (int t{depth} = 0; t{depth} < 7; t{depth}++) {{"
                        ));
                        gen(s, depth - 1, budget, true, out);
                        out.push('}');
                    }
                    7 if in_loop => {
                        let exit = if next(s).is_multiple_of(2) {
                            "break"
                        } else {
                            "continue"
                        };
                        out.push_str(&format!("if (x{k} > 3) {{ {exit}; }}"));
                    }
                    _ => out.push_str(&format!("x{i} = x{j} - x{k};")),
                }
            }
        }
        let mut s = seed;
        let mut out = String::from("int x0 = p; int x1 = p + 1;");
        let mut budget = 24;
        gen(&mut s, 3, &mut budget, false, &mut out);
        out.push_str("p = x0;");
        out
    }

    proptest::proptest! {
        /// The dense bitset engine must agree exactly with the legacy
        /// string-keyed solver on randomized CFGs — both the liveness and
        /// the reaching-definitions instances, inputs and outputs alike.
        #[test]
        fn dense_engine_matches_legacy_oracle(seed in 0u64..1_000_000_000) {
            let body = gen_body(seed);
            let c = cfg_of(&body);

            let dense = live_variables(&c);
            let legacy = solve(&c, &LiveVariables);
            proptest::prop_assert_eq!(&dense.inputs, &legacy.inputs, "live-in mismatch: {}", body);
            proptest::prop_assert_eq!(&dense.outputs, &legacy.outputs, "live-out mismatch: {}", body);

            let dense_rd = reaching_defs(&c);
            let legacy_rd = solve(&c, &ReachingDefs::prepare(&c));
            proptest::prop_assert_eq!(&dense_rd.inputs, &legacy_rd.inputs, "rd-in mismatch: {}", body);
            proptest::prop_assert_eq!(&dense_rd.outputs, &legacy_rd.outputs, "rd-out mismatch: {}", body);
        }
    }

    #[test]
    fn dense_matches_legacy_on_structured_sources() {
        for body in [
            "int x = 1; int y = x + 1; p = y;",
            "int acc = 0; while (p > 0) { p = p - acc; acc = acc + 1; }",
            "int x = 1; if (p > 0) { x = 2; } else { int z = x; x = z + 3; } p = x;",
            "int i = 0; for (int k = 0; k < 9; k++) { if (k > 2) { i = i + k; continue; } i = 0; } p = i;",
            "int a = 1; while (p > 0) { if (a > 5) { break; } a = a + 1; } p = a;",
        ] {
            let c = cfg_of(body);
            let dense = live_variables(&c);
            let legacy = solve(&c, &LiveVariables);
            assert_eq!(dense.inputs, legacy.inputs, "live-in mismatch: {body}");
            assert_eq!(dense.outputs, legacy.outputs, "live-out mismatch: {body}");

            let dense_rd = reaching_defs(&c);
            let legacy_rd = solve(&c, &ReachingDefs::prepare(&c));
            assert_eq!(dense_rd.inputs, legacy_rd.inputs, "rd-in mismatch: {body}");
            assert_eq!(
                dense_rd.outputs, legacy_rd.outputs,
                "rd-out mismatch: {body}"
            );
        }
    }
}
