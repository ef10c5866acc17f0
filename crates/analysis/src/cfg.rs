//! Control-flow graphs over method bodies.
//!
//! The eviction and termination analyses are syntax-directed (the paper's
//! transfer functions are given per statement form), but a classic
//! dataflow problem — the lint pass's liveness — wants an explicit CFG. This
//! module lowers structured control flow (including `break`/`continue`
//! and the labeled loop kinds) into basic blocks of flat instructions
//! that reference the original AST expressions.

use sjava_syntax::ast::*;
use std::fmt;

/// Index of a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub usize);

/// A flat instruction inside a basic block.
#[derive(Debug, Clone)]
pub enum Instr {
    /// Local declaration (with optional initializer).
    Decl {
        /// Variable name.
        name: String,
        /// Initializer.
        init: Option<Expr>,
    },
    /// Assignment.
    Assign {
        /// Target.
        lhs: LValue,
        /// Source.
        rhs: Expr,
    },
    /// A branch condition evaluated at the end of the block.
    Cond(Expr),
    /// Return.
    Return(Option<Expr>),
    /// Expression evaluated for effect.
    Eval(Expr),
}

/// A basic block: straight-line instructions plus successor edges.
#[derive(Debug, Clone, Default)]
pub struct BasicBlock {
    /// Instructions in order.
    pub instrs: Vec<Instr>,
    /// Successor blocks.
    pub succs: Vec<BlockId>,
    /// Predecessor blocks (computed at the end of construction).
    pub preds: Vec<BlockId>,
}

/// A method's control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Blocks, indexed by [`BlockId`].
    pub blocks: Vec<BasicBlock>,
    /// The entry block.
    pub entry: BlockId,
    /// The single exit block (every return edge leads here).
    pub exit: BlockId,
}

impl Cfg {
    /// Builds the CFG of a method body.
    pub fn build(body: &Block) -> Cfg {
        let mut b = Builder {
            blocks: vec![BasicBlock::default(), BasicBlock::default()],
            current: BlockId(0),
            loop_stack: Vec::new(),
            exit: BlockId(1),
        };
        b.lower_block(body);
        // Fall-through to exit.
        let cur = b.current;
        b.edge(cur, b.exit);
        let mut cfg = Cfg {
            blocks: b.blocks,
            entry: BlockId(0),
            exit: b.exit,
        };
        cfg.compute_preds();
        cfg
    }

    fn compute_preds(&mut self) {
        let edges: Vec<(BlockId, BlockId)> = self
            .blocks
            .iter()
            .enumerate()
            .flat_map(|(i, b)| b.succs.iter().map(move |&s| (BlockId(i), s)))
            .collect();
        for b in &mut self.blocks {
            b.preds.clear();
        }
        for (from, to) in edges {
            self.blocks[to.0].preds.push(from);
        }
    }

    /// Iterates block ids.
    pub fn ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len()).map(BlockId)
    }

    /// The block for an id.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0]
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the CFG has only the entry and exit.
    pub fn is_empty(&self) -> bool {
        self.blocks.len() <= 2
    }
}

impl fmt::Display for Cfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, b) in self.blocks.iter().enumerate() {
            let succs: Vec<String> = b.succs.iter().map(|s| format!("B{}", s.0)).collect();
            writeln!(
                f,
                "B{i} -> [{}] ({} instrs)",
                succs.join(","),
                b.instrs.len()
            )?;
        }
        Ok(())
    }
}

struct LoopFrame {
    head: BlockId,
    after: BlockId,
}

struct Builder {
    blocks: Vec<BasicBlock>,
    current: BlockId,
    loop_stack: Vec<LoopFrame>,
    exit: BlockId,
}

impl Builder {
    fn new_block(&mut self) -> BlockId {
        self.blocks.push(BasicBlock::default());
        BlockId(self.blocks.len() - 1)
    }

    fn edge(&mut self, from: BlockId, to: BlockId) {
        if !self.blocks[from.0].succs.contains(&to) {
            self.blocks[from.0].succs.push(to);
        }
    }

    fn push(&mut self, i: Instr) {
        let cur = self.current;
        self.blocks[cur.0].instrs.push(i);
    }

    fn lower_block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.lower_stmt(s);
        }
    }

    fn lower_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::VarDecl { name, init, .. } => self.push(Instr::Decl {
                name: name.clone(),
                init: init.clone(),
            }),
            Stmt::Assign { lhs, rhs, .. } => self.push(Instr::Assign {
                lhs: lhs.clone(),
                rhs: rhs.clone(),
            }),
            Stmt::ExprStmt { expr, .. } => self.push(Instr::Eval(expr.clone())),
            Stmt::Return { value, .. } => {
                self.push(Instr::Return(value.clone()));
                let cur = self.current;
                self.edge(cur, self.exit);
                // Continue in a fresh unreachable block.
                self.current = self.new_block();
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                self.push(Instr::Cond(cond.clone()));
                let head = self.current;
                let then_b = self.new_block();
                let join = self.new_block();
                self.edge(head, then_b);
                self.current = then_b;
                self.lower_block(then_blk);
                let then_end = self.current;
                self.edge(then_end, join);
                if let Some(e) = else_blk {
                    let else_b = self.new_block();
                    self.edge(head, else_b);
                    self.current = else_b;
                    self.lower_block(e);
                    let else_end = self.current;
                    self.edge(else_end, join);
                } else {
                    self.edge(head, join);
                }
                self.current = join;
            }
            Stmt::While { cond, body, .. } => {
                let head = self.new_block();
                let body_b = self.new_block();
                let after = self.new_block();
                let cur = self.current;
                self.edge(cur, head);
                self.current = head;
                self.push(Instr::Cond(cond.clone()));
                self.edge(head, body_b);
                self.edge(head, after);
                self.loop_stack.push(LoopFrame { head, after });
                self.current = body_b;
                self.lower_block(body);
                let body_end = self.current;
                self.edge(body_end, head);
                self.loop_stack.pop();
                self.current = after;
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
                ..
            } => {
                if let Some(i) = init {
                    self.lower_stmt(i);
                }
                let head = self.new_block();
                let body_b = self.new_block();
                let after = self.new_block();
                let cur = self.current;
                self.edge(cur, head);
                self.current = head;
                if let Some(c) = cond {
                    self.push(Instr::Cond(c.clone()));
                }
                self.edge(head, body_b);
                self.edge(head, after);
                self.loop_stack.push(LoopFrame { head, after });
                self.current = body_b;
                self.lower_block(body);
                if let Some(u) = update {
                    self.lower_stmt(u);
                }
                let body_end = self.current;
                self.edge(body_end, head);
                self.loop_stack.pop();
                self.current = after;
            }
            Stmt::Break { .. } => {
                if let Some(frame) = self.loop_stack.last() {
                    let after = frame.after;
                    let cur = self.current;
                    self.edge(cur, after);
                }
                self.current = self.new_block();
            }
            Stmt::Continue { .. } => {
                if let Some(frame) = self.loop_stack.last() {
                    let head = frame.head;
                    let cur = self.current;
                    self.edge(cur, head);
                }
                self.current = self.new_block();
            }
            Stmt::Block(b) => self.lower_block(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_syntax::parse;

    fn cfg_of(body_src: &str) -> Cfg {
        let src = format!("class A {{ void f(int p) {{ {body_src} }} }}");
        let p = parse(&src).expect("parses");
        Cfg::build(&p.method("A", "f").expect("method").body)
    }

    #[test]
    fn straight_line_is_two_blocks_plus_exit() {
        let c = cfg_of("int x = 1; x = x + 1;");
        assert_eq!(c.block(c.entry).instrs.len(), 2);
        assert_eq!(c.block(c.entry).succs, vec![c.exit]);
    }

    #[test]
    fn if_produces_diamond() {
        let c = cfg_of("int x = 0; if (p > 0) { x = 1; } else { x = 2; } x = x + 1;");
        // entry branches to then and else; both join.
        assert_eq!(c.block(c.entry).succs.len(), 2);
        let join_targets: Vec<_> = c
            .block(c.entry)
            .succs
            .iter()
            .map(|&s| c.block(s).succs.clone())
            .collect();
        assert_eq!(join_targets[0], join_targets[1]);
    }

    #[test]
    fn while_has_back_edge() {
        let c = cfg_of("int i = 0; while (i < p) { i = i + 1; }");
        // Some block must have a successor with a smaller id (the back
        // edge to the loop head).
        let has_back = c
            .ids()
            .any(|b| c.block(b).succs.iter().any(|s| s.0 < b.0 && s != &c.entry));
        assert!(has_back, "{c}");
    }

    #[test]
    fn break_exits_the_loop() {
        let c = cfg_of("int i = 0; while (true) { if (i > p) { break; } i = i + 1; } i = 0;");
        // The loop's after-block is reachable from inside the body.
        assert!(c.len() > 4);
        // All blocks' preds/succs are consistent.
        for id in c.ids() {
            for &s in &c.block(id).succs {
                assert!(c.block(s).preds.contains(&id));
            }
        }
    }

    #[test]
    fn return_edges_to_exit() {
        let c = cfg_of("if (p > 0) { return; } p = 1;");
        let returns: Vec<_> = c
            .ids()
            .filter(|&b| {
                c.block(b)
                    .instrs
                    .iter()
                    .any(|i| matches!(i, Instr::Return(_)))
            })
            .collect();
        assert_eq!(returns.len(), 1);
        assert!(c.block(returns[0]).succs.contains(&c.exit));
    }
}
