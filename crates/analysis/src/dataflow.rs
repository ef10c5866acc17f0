//! Live variables over [`Cfg`]s, the dataflow analysis the lint pass
//! reads to find dead stores: which local variable names each block may
//! still read from its entry on. Facts are sets of names, and a worklist
//! over blocks solves them to the least fixed point.

use crate::cfg::{BlockId, Cfg, Instr};
use sjava_syntax::ast::{CallExpr, Expr, LValue};
use std::collections::{BTreeSet, VecDeque};

/// Adds every variable an expression reads to `out`.
pub fn expr_uses(e: &Expr, out: &mut BTreeSet<String>) {
    match e {
        Expr::Var { name, .. } if !out.contains(name) => {
            out.insert(name.clone());
        }
        Expr::Field { base, .. } | Expr::Length { base, .. } => expr_uses(base, out),
        Expr::Index { base, index, .. } => {
            expr_uses(base, out);
            expr_uses(index, out);
        }
        Expr::Call(call) => {
            let CallExpr { recv, args, .. } = &**call;
            if let Some(r) = recv {
                expr_uses(r, out);
            }
            for a in args {
                expr_uses(a, out);
            }
        }
        Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => expr_uses(operand, out),
        Expr::Binary { lhs, rhs, .. } => {
            expr_uses(lhs, out);
            expr_uses(rhs, out);
        }
        Expr::NewArray { len, .. } => expr_uses(len, out),
        _ => {}
    }
}

/// Adds every variable an instruction reads to `out`.
pub fn instr_uses(i: &Instr, out: &mut BTreeSet<String>) {
    match i {
        Instr::Decl { init, .. } => {
            if let Some(e) = init {
                expr_uses(e, out);
            }
        }
        Instr::Assign { lhs, rhs } => {
            expr_uses(rhs, out);
            match lhs {
                LValue::Field { base, .. } => expr_uses(base, out),
                LValue::Index { base, index, .. } => {
                    expr_uses(base, out);
                    expr_uses(index, out);
                }
                _ => {}
            }
        }
        Instr::Cond(e) | Instr::Eval(e) => expr_uses(e, out),
        Instr::Return(Some(e)) => expr_uses(e, out),
        Instr::Return(None) => {}
    }
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

/// Backward liveness of local variable names over the whole CFG: the
/// variables live at the entry of each block, indexed by [`BlockId`].
pub fn live_variables(cfg: &Cfg) -> Vec<BTreeSet<String>> {
    let n = cfg.len();
    let mut live_in = vec![BTreeSet::new(); n];
    // Blocks are numbered roughly in program order, so visiting the last
    // first lets most facts settle in one sweep.
    let mut work: VecDeque<BlockId> = (0..n).rev().map(BlockId).collect();
    let mut queued = vec![true; n];
    while let Some(b) = work.pop_front() {
        queued[b.0] = false;
        let block = cfg.block(b);
        let mut live = live_out(cfg, &live_in, b);
        for i in block.instrs.iter().rev() {
            if let Some(d) = instr_def(i) {
                live.remove(d);
            }
            instr_uses(i, &mut live);
        }
        if live != live_in[b.0] {
            live_in[b.0] = live;
            for &p in &block.preds {
                if !queued[p.0] {
                    queued[p.0] = true;
                    work.push_back(p);
                }
            }
        }
    }
    live_in
}

/// The variables live at the exit of `block`: those live at the entry of
/// any of its successors.
fn live_out(cfg: &Cfg, live_in: &[BTreeSet<String>], block: BlockId) -> BTreeSet<String> {
    let mut live = BTreeSet::new();
    for &s in &cfg.block(block).succs {
        live.extend(live_in[s.0].iter().cloned());
    }
    live
}

/// Liveness *after* each instruction of a block, in instruction order,
/// from the per-block facts of [`live_variables`] — for per-statement
/// queries (dead-store detection).
pub fn liveness_per_instr(
    cfg: &Cfg,
    live_in: &[BTreeSet<String>],
    block: BlockId,
) -> Vec<BTreeSet<String>> {
    let mut live = live_out(cfg, live_in, block);
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
        let live_in = live_variables(&c);
        assert!(live_in.iter().any(|f| f.contains("acc")));
    }

    #[test]
    fn dead_value_is_not_live() {
        let c = cfg_of("int dead = 5; p = 1;");
        for f in &live_variables(&c) {
            assert!(!f.contains("dead"));
        }
    }

    #[test]
    fn per_instr_liveness_orders_correctly() {
        let c = cfg_of("int x = 1; int y = x + 1; p = y;");
        let live_in = live_variables(&c);
        let per = liveness_per_instr(&c, &live_in, c.entry);
        // After `int x = 1`, x is live (read by y's init).
        assert!(per[0].contains("x"));
        // After `int y = ...`, x is dead, y live.
        assert!(!per[1].contains("x"));
        assert!(per[1].contains("y"));
        // After `p = y`, nothing is live.
        assert!(per[2].is_empty());
    }

    #[test]
    fn a_branch_keeps_what_either_arm_reads_live() {
        // Only the else arm reads `z`, only the then arm reads `w`: both
        // are live where the branch starts, and neither after the join.
        let c = cfg_of("int z = p; int w = p; if (p > 0) { p = w; } else { p = z; } p = 1;");
        let live_in = live_variables(&c);
        let per = liveness_per_instr(&c, &live_in, c.entry);
        let before_branch = per.last().expect("entry ends with the condition");
        assert!(before_branch.contains("z") && before_branch.contains("w"));
        assert!(live_in[c.exit.0].is_empty());
    }
}
