//! Register-bytecode dispatch loop.
//!
//! Executes [`crate::bytecode::Module`]s with *exactly* the observable
//! semantics of [`crate::interp::Interpreter`]: the same §4.4
//! crash-avoidance behaviour (soft errors log-and-default in ignore
//! mode, the event loop catches hard body errors), the same step
//! counting, and — with the same seeded [`Injector`] — the same
//! corruptions of the same cells. Output traces are byte-identical to
//! the tree-walker (enforced by the differential tests and the
//! `bench_vm --gate` CI step).
//!
//! Unlike the interpreter, a `Vm` is built once per compiled module and
//! reused across runs: [`Vm::run`] resets the flat heap and register
//! file in place, and [`Vm::prepare`]/[`Vm::snapshot`]/[`Vm::restore`]/
//! [`Vm::resume`] skip re-instantiating the entry object per run.
//!
//! Campaigns go further. [`Vm::record`] takes the golden run and keeps a
//! checkpoint of the whole machine at the start of every event-loop
//! iteration; [`Vm::replay`] starts a trial from the last checkpoint
//! before its trigger and stops it at the first later iteration start
//! where, the injector spent, the machine equals the golden checkpoint
//! again. That stop is exact: the VM is deterministic and a spent
//! injector does nothing, so from an equal state the trial would repeat
//! the golden run to the end.

use crate::bytecode::{FlatHeap, FlatHeapSnapshot};
use crate::bytecode::{Module, Op, StoreFallback, VarFallback};
use crate::inject::Injector;
use crate::input::InputProvider;
use crate::interp::{ExecOptions, RunResult, RuntimeError};
use crate::value::{identical_values, ObjId, Value};

/// Why the dispatch loop stopped executing ops.
enum OpStop {
    /// A hard runtime error (or a soft one in strict mode).
    Err(RuntimeError),
    /// The event loop finished its scheduled iterations.
    LoopDone,
    /// An iteration started while `Vm::watch` was set.
    Pause,
}

fn stop(msg: impl Into<String>) -> OpStop {
    OpStop::Err(RuntimeError {
        message: msg.into(),
    })
}

/// One activation record. Registers live in the shared `Vm::regs`
/// arena at `base .. base + chunk.n_regs`.
#[derive(Debug, Clone, PartialEq)]
struct VmFrame {
    chunk: u32,
    pc: usize,
    base: usize,
    /// Absolute register receiving the return value (0 = discard).
    dst: usize,
    this: Option<usize>,
    iterations_left: usize,
    /// Field/static-initializer frames: an event loop unwinding
    /// through one is the interpreter's `unreachable!` panic.
    init: bool,
}

/// A virtual call between `VPrep` (receiver resolved) and `VCallGo`
/// (arguments evaluated): `k` is the zip-truncated argument count.
#[derive(Debug, Clone, PartialEq)]
struct Pending {
    chunk: u32,
    k: u16,
}

/// The active event loop: where to re-enter on a caught iteration
/// abort, and how much machine state to unwind.
#[derive(Debug, Clone, PartialEq)]
struct ElCtx {
    frame: usize,
    head_pc: usize,
    regs_len: usize,
    pending_len: usize,
    /// Armed only while a body iteration runs — condition errors and
    /// `LoopDone` are never caught.
    armed: bool,
}

/// An entry prepared by [`Vm::prepare`]: the instantiated receiver and
/// the resolved entry chunk, valid for this VM until the next
/// `prepare`/`run` (and again after [`Vm::restore`] of a snapshot taken
/// in the prepared state).
#[derive(Debug, Clone, Copy)]
pub struct Prepared {
    class: u32,
    obj: usize,
    entry: u32,
    /// Steps consumed by instantiation — a trial whose trigger lies
    /// beyond this can resume from a post-`prepare` snapshot.
    pub steps: u64,
}

/// Full restorable VM state (heap, statics, step counter, error log,
/// input cursor) captured between runs — campaigns snapshot once after
/// [`Vm::prepare`] and [`Vm::restore`] per trial.
#[derive(Debug, Clone)]
pub struct VmSnapshot<I> {
    heap: FlatHeapSnapshot,
    statics: Vec<Option<Value>>,
    steps: u64,
    log: Vec<String>,
    inputs: I,
}

/// The whole machine at the start of one event-loop iteration — after
/// its condition, before its body — as [`Vm::record`] saw it.
#[derive(Debug, Clone)]
struct Checkpoint<I> {
    heap: FlatHeapSnapshot,
    statics: Vec<Option<Value>>,
    regs: Vec<Value>,
    defined: Vec<bool>,
    frames: Vec<VmFrame>,
    pending: Vec<Pending>,
    el: Option<ElCtx>,
    /// Steps so far; the iteration's step budget starts here too.
    steps: u64,
    inputs: I,
}

/// A golden run recorded by [`Vm::record`]: its result, and the states
/// [`Vm::replay`] starts trials from.
#[derive(Debug, Clone)]
pub struct Recording<I> {
    /// The run's result, the same as [`Vm::run`] gives.
    pub result: RunResult,
    iterations: usize,
    /// Before instantiation, for triggers before the first checkpoint.
    fresh: VmSnapshot<I>,
    prep: Prepared,
    /// One per iteration, in order.
    checkpoints: Vec<Checkpoint<I>>,
}

impl<I> Recording<I> {
    /// The golden step count at which a trial whose first trigger is
    /// `trigger` starts executing: the last checkpoint before the
    /// trigger, or 0 (a re-run of instantiation) when none is.
    pub fn start_step(&self, trigger: u64) -> u64 {
        self.start_checkpoint(trigger)
            .map_or(0, |j| self.checkpoints[j].steps)
    }

    fn start_checkpoint(&self, trigger: u64) -> Option<usize> {
        // Steps only grow, so the checkpoints are sorted by them.
        self.checkpoints
            .partition_point(|c| c.steps < trigger)
            .checked_sub(1)
    }
}

/// One trial run by [`Vm::replay`]: the iterations it executed, and
/// where its outputs rejoin the golden run's.
#[derive(Debug, Clone)]
pub struct TrialRun {
    /// The first iteration the trial executed; before it the outputs
    /// are the golden run's.
    pub first: usize,
    /// Outputs of iterations `first .. first + outputs.len()`.
    pub outputs: Vec<Vec<Value>>,
    /// Whether the machine re-matched the golden checkpoint at the start
    /// of iteration `first + outputs.len()`; from there on the outputs
    /// are the golden run's. `false` when the trial ran to the end.
    pub converged: bool,
    /// The step at which the injector first fired, if it did.
    pub injected_at: Option<u64>,
}

/// The bytecode virtual machine. Generic over the input provider, like
/// the interpreter; borrows the compiled [`Module`].
pub struct Vm<'m, I: InputProvider> {
    module: &'m Module,
    options: ExecOptions,
    heap: FlatHeap<'m>,
    statics: Vec<Option<Value>>,
    regs: Vec<Value>,
    defined: Vec<bool>,
    frames: Vec<VmFrame>,
    pending: Vec<Pending>,
    outputs: Vec<Vec<Value>>,
    log: Vec<String>,
    steps: u64,
    iter_start_step: u64,
    inputs: I,
    injector: Option<Injector>,
    el: Option<ElCtx>,
    /// Pause the dispatch loop at every iteration start.
    watch: bool,
}

impl<'m, I: InputProvider> Vm<'m, I> {
    /// Creates a VM over a compiled module.
    pub fn new(module: &'m Module, inputs: I, options: ExecOptions) -> Self {
        Vm {
            module,
            options,
            heap: FlatHeap::new(module),
            statics: vec![None; module.statics.len()],
            regs: Vec::new(),
            defined: Vec::new(),
            frames: Vec::new(),
            pending: Vec::new(),
            outputs: Vec::new(),
            log: Vec::new(),
            steps: 0,
            iter_start_step: 0,
            inputs,
            injector: None,
            el: None,
            watch: false,
        }
    }

    /// Arms an error injector for the next run (builder style, matching
    /// [`crate::interp::Interpreter::with_injector`]).
    pub fn with_injector(mut self, injector: Injector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Replaces the injector for the next run.
    pub fn set_injector(&mut self, injector: Option<Injector>) {
        self.injector = injector;
    }

    /// Replaces the input provider for the next run.
    pub fn set_inputs(&mut self, inputs: I) {
        self.inputs = inputs;
    }

    /// Runs `class.method` for at most `iterations` event-loop
    /// iterations — same contract and same results as
    /// [`crate::interp::Interpreter::run`], but reusing this VM's
    /// allocations.
    ///
    /// # Errors
    ///
    /// Strict mode propagates runtime failures; ignore-errors mode only
    /// fails on hard errors outside the event body (unknown
    /// method/static, budget exhaustion before the first iteration).
    pub fn run(
        &mut self,
        class: &str,
        method: &str,
        iterations: usize,
    ) -> Result<RunResult, RuntimeError> {
        let prep = self.prepare(class, method)?;
        self.start_entry(&prep, iterations);
        self.finish_run()
    }

    /// Resets the VM and instantiates `class` (running its field
    /// initializers), resolving `method`; the returned token feeds
    /// [`Vm::resume`]. A snapshot taken now can be restored before
    /// every later `resume` to skip re-instantiation — valid for any
    /// injector whose first trigger lies beyond `Prepared::steps`,
    /// since an injector is inert before its trigger.
    ///
    /// # Errors
    ///
    /// Propagates instantiation failures and unknown entry points.
    pub fn prepare(&mut self, class: &str, method: &str) -> Result<Prepared, RuntimeError> {
        let no_method = || RuntimeError {
            message: format!("no method `{class}.{method}`"),
        };
        let Some(cid) = self.module.class_id(class) else {
            self.reset();
            return Err(no_method());
        };
        let obj = self.instantiate(cid)?;
        let entry = self
            .module
            .name_id(method)
            .and_then(|nid| self.module.entry_chunk(cid, nid))
            .ok_or_else(no_method)?;
        Ok(Prepared {
            class: cid,
            obj,
            entry,
            steps: self.steps,
        })
    }

    /// Resets the VM and allocates an instance of class `cid`, running
    /// its field initializers.
    fn instantiate(&mut self, cid: u32) -> Result<usize, RuntimeError> {
        self.reset();
        self.regs.push(Value::Null);
        self.defined.push(true);
        let obj = self.heap.alloc_object(cid);
        if let Some(ic) = self.module.classes[cid as usize].init_chunk {
            self.push_frame(ic, Some(obj), 0, None, 0, true);
            self.dispatch()?;
        }
        Ok(obj)
    }

    /// Runs the prepared entry method to completion. Combined with
    /// [`Vm::restore`], this is the campaign fast path: no re-parse, no
    /// re-compile, no re-instantiation per trial.
    ///
    /// # Errors
    ///
    /// Same as [`Vm::run`].
    pub fn resume(
        &mut self,
        prep: &Prepared,
        iterations: usize,
        injector: Option<Injector>,
    ) -> Result<RunResult, RuntimeError> {
        self.injector = injector;
        if self.regs.is_empty() {
            self.regs.push(Value::Null);
            self.defined.push(true);
        }
        self.start_entry(prep, iterations);
        self.finish_run()
    }

    /// Captures restorable state (requires cloneable inputs).
    pub fn snapshot(&self) -> VmSnapshot<I>
    where
        I: Clone,
    {
        VmSnapshot {
            heap: self.heap.snapshot(),
            statics: self.statics.clone(),
            steps: self.steps,
            log: self.log.clone(),
            inputs: self.inputs.clone(),
        }
    }

    /// Restores a [`Vm::snapshot`], reusing this VM's allocations.
    pub fn restore(&mut self, snap: &VmSnapshot<I>)
    where
        I: Clone,
    {
        self.heap.restore(&snap.heap);
        self.statics.clone_from(&snap.statics);
        self.steps = snap.steps;
        self.iter_start_step = 0;
        self.log.clone_from(&snap.log);
        self.inputs = snap.inputs.clone();
        self.outputs.clear();
        self.regs.clear();
        self.regs.push(Value::Null);
        self.defined.clear();
        self.defined.push(true);
        self.frames.clear();
        self.pending.clear();
        self.el = None;
        self.injector = None;
    }

    /// [`Vm::run`] without an injector, keeping a checkpoint of the
    /// whole machine at the start of every event-loop iteration; the input cursor is taken
    /// as it is now. The result is exactly [`Vm::run`]'s.
    ///
    /// # Errors
    ///
    /// Same as [`Vm::run`].
    pub fn record(
        &mut self,
        class: &str,
        method: &str,
        iterations: usize,
    ) -> Result<Recording<I>, RuntimeError>
    where
        I: Clone,
    {
        self.injector = None;
        let fresh = self.snapshot();
        let prep = self.prepare(class, method)?;
        self.start_entry(&prep, iterations);
        let mut checkpoints = Vec::new();
        self.watch = true;
        let r = loop {
            match self.dispatch() {
                Ok(true) => checkpoints.push(self.checkpoint()),
                other => break other,
            }
        };
        self.watch = false;
        r?;
        Ok(Recording {
            result: RunResult {
                iteration_outputs: std::mem::take(&mut self.outputs),
                steps: self.steps,
                error_log: std::mem::take(&mut self.log),
                injected_at: None,
            },
            iterations,
            fresh,
            prep,
            checkpoints,
        })
    }

    /// Runs one injected trial of a recorded golden run, with the same
    /// outputs and fire step as [`Vm::run`] with `injector` gives, but
    /// executing only part of the run:
    ///
    /// - it starts from the last checkpoint before the injector's first
    ///   trigger (with none, it re-runs instantiation);
    /// - once the injector is spent, it compares the machine with the
    ///   golden checkpoint at each iteration start, and stops at the
    ///   first match.
    ///
    /// Heap, statics, live registers, frames, pending calls and the
    /// event-loop context must match exactly, floats by bit pattern;
    /// inputs by [`InputProvider::same_cursor`]. The step counter is
    /// left out: past a spent injector it only feeds the per-iteration
    /// budget, which every iteration restarts.
    ///
    /// # Errors
    ///
    /// Same as [`Vm::run`].
    pub fn replay(
        &mut self,
        rec: &Recording<I>,
        injector: Injector,
    ) -> Result<TrialRun, RuntimeError>
    where
        I: Clone,
    {
        let first = match rec.start_checkpoint(injector.trigger_step()) {
            Some(j) => {
                self.restore_checkpoint(&rec.checkpoints[j]);
                self.injector = Some(injector);
                j
            }
            None => {
                self.restore(&rec.fresh);
                self.injector = Some(injector);
                self.instantiate(rec.prep.class)?;
                self.start_entry(&rec.prep, rec.iterations);
                0
            }
        };
        self.watch = true;
        let r = loop {
            match self.dispatch() {
                Ok(true) => {
                    // Paused at the start of iteration `first + len - 1`.
                    let k = first + self.outputs.len() - 1;
                    let spent = self.injector.as_ref().is_some_and(Injector::is_spent);
                    if spent && rec.checkpoints.get(k).is_some_and(|cp| self.matches(cp)) {
                        self.outputs.pop();
                        break Ok(true);
                    }
                }
                Ok(false) => break Ok(false),
                Err(e) => break Err(e),
            }
        };
        self.watch = false;
        let injected_at = self.injector.take().and_then(|i| i.fired_at);
        let converged = r?;
        Ok(TrialRun {
            first,
            outputs: std::mem::take(&mut self.outputs),
            converged,
            injected_at,
        })
    }

    fn checkpoint(&self) -> Checkpoint<I>
    where
        I: Clone,
    {
        Checkpoint {
            heap: self.heap.snapshot(),
            statics: self.statics.clone(),
            regs: self.regs.clone(),
            defined: self.defined.clone(),
            frames: self.frames.clone(),
            pending: self.pending.clone(),
            el: self.el.clone(),
            steps: self.steps,
            inputs: self.inputs.clone(),
        }
    }

    /// Puts the machine back at a checkpoint, paused at the start of its
    /// iteration with nothing emitted yet.
    fn restore_checkpoint(&mut self, cp: &Checkpoint<I>)
    where
        I: Clone,
    {
        self.heap.restore(&cp.heap);
        self.statics.clone_from(&cp.statics);
        self.regs.clone_from(&cp.regs);
        self.defined.clone_from(&cp.defined);
        self.frames.clone_from(&cp.frames);
        self.pending.clone_from(&cp.pending);
        self.el.clone_from(&cp.el);
        self.steps = cp.steps;
        self.iter_start_step = cp.steps;
        self.inputs.clone_from(&cp.inputs);
        self.log.clear();
        self.outputs.clear();
        self.outputs.push(Vec::new());
    }

    /// Whether the machine, paused at an iteration start, equals `cp`
    /// in everything the rest of the run can read.
    ///
    /// The loop frame's temporaries are left out: the lowering allocates
    /// them per statement, so every one is written before it is read
    /// again, and iteration starts are statement boundaries.
    fn matches(&self, cp: &Checkpoint<I>) -> bool {
        let Some(top) = self.frames.last() else {
            return false;
        };
        let live = top.base + self.module.chunks[top.chunk as usize].n_named as usize;
        self.frames == cp.frames
            && self.pending == cp.pending
            && self.el == cp.el
            && self
                .statics
                .iter()
                .zip(&cp.statics)
                .all(|(a, b)| match (a, b) {
                    (Some(a), Some(b)) => a.identical(b),
                    (a, b) => a.is_none() && b.is_none(),
                })
            && self.inputs.same_cursor(&cp.inputs)
            && self.defined[..live] == cp.defined[..live]
            && identical_values(&self.regs[..live], &cp.regs[..live])
            && self.heap.matches(&cp.heap)
    }

    /// Total mutable heap cells in the current state (the heap-slot
    /// grid axis of a campaign).
    pub fn heap_cells(&self) -> usize {
        self.heap.cell_count()
    }

    fn reset(&mut self) {
        self.heap.reset();
        for s in &mut self.statics {
            *s = None;
        }
        self.regs.clear();
        self.defined.clear();
        self.frames.clear();
        self.pending.clear();
        self.outputs.clear();
        self.log.clear();
        self.steps = 0;
        self.iter_start_step = 0;
        self.el = None;
    }

    fn start_entry(&mut self, prep: &Prepared, iterations: usize) {
        // The interpreter's entry frame: `this` bound to the fresh
        // instance and the queried class as context even for static
        // entry methods.
        self.push_frame(prep.entry, Some(prep.obj), 0, None, iterations, false);
    }

    fn finish_run(&mut self) -> Result<RunResult, RuntimeError> {
        let r = self.dispatch();
        let injected_at = self.injector.take().and_then(|i| i.fired_at);
        r?;
        Ok(RunResult {
            iteration_outputs: std::mem::take(&mut self.outputs),
            steps: self.steps,
            error_log: std::mem::take(&mut self.log),
            injected_at,
        })
    }

    // ---- machine plumbing -------------------------------------------

    fn push_frame(
        &mut self,
        chunk: u32,
        this: Option<usize>,
        dst: usize,
        args: Option<(usize, u16)>,
        iterations: usize,
        init: bool,
    ) {
        let ch = &self.module.chunks[chunk as usize];
        debug_assert!(ch.n_named <= ch.n_regs, "named slots within register file");
        let base = self.regs.len();
        self.regs.resize(base + ch.n_regs as usize, Value::Null);
        self.defined.resize(base + ch.n_regs as usize, false);
        if let Some((astart, k)) = args {
            for j in 0..k as usize {
                self.regs[base + j] = self.regs[astart + j].clone();
                self.defined[base + j] = true;
            }
        }
        self.frames.push(VmFrame {
            chunk,
            pc: 0,
            base,
            dst,
            this,
            iterations_left: iterations,
            init,
        });
    }

    /// Counts one step: budget check, then the injector's chance to
    /// corrupt the heap and/or this value (the interpreter's `step`).
    fn step(&mut self, v: Value) -> Result<Value, OpStop> {
        self.steps += 1;
        if self.steps - self.iter_start_step > self.options.max_steps_per_iter {
            return Err(stop("per-iteration step budget exhausted (runaway loop?)"));
        }
        if let Some(inj) = self.injector.as_mut() {
            inj.corrupt_heap(self.steps, &mut self.heap);
            return Ok(inj.filter(self.steps, v));
        }
        Ok(v)
    }

    fn soft(&mut self, msg: &str, default: Value) -> Result<Value, OpStop> {
        if self.options.ignore_errors {
            self.log.push(msg.to_string());
            Ok(default)
        } else {
            Err(stop(msg))
        }
    }

    /// Runs ops until the machine stops: `Ok(true)` when it paused at
    /// an iteration start (only while `watch` is set), `Ok(false)` when
    /// the event loop completed its iterations or the frame stack
    /// drained (entry returned before/without an event loop).
    fn dispatch(&mut self) -> Result<bool, RuntimeError> {
        loop {
            if self.frames.is_empty() {
                return Ok(false);
            }
            match self.exec_next() {
                Ok(()) => {}
                Err(OpStop::Pause) => return Ok(true),
                Err(OpStop::LoopDone) => {
                    // The interpreter's `instantiate`/`static_value`
                    // hit `unreachable!` when a LoopDone unwinds into
                    // an initializer.
                    if self.frames.iter().any(|f| f.init) {
                        unreachable!("no loop in initializer");
                    }
                    self.frames.clear();
                    return Ok(false);
                }
                Err(OpStop::Err(e)) => {
                    let catch = self
                        .el
                        .as_ref()
                        .filter(|el| el.armed && self.options.ignore_errors)
                        .map(|el| (el.frame, el.head_pc, el.regs_len, el.pending_len));
                    match catch {
                        Some((frame, head_pc, regs_len, pending_len)) => {
                            // §4.4: log and continue into the next
                            // iteration, unwinding callee frames.
                            self.log.push(format!("iteration aborted: {e}"));
                            self.frames.truncate(frame + 1);
                            self.regs.truncate(regs_len);
                            self.defined.truncate(regs_len);
                            self.pending.truncate(pending_len);
                            self.frames[frame].pc = head_pc;
                        }
                        None => return Err(e),
                    }
                }
            }
        }
    }

    /// Fetch–decode–execute for one op.
    #[allow(clippy::too_many_lines)]
    fn exec_next(&mut self) -> Result<(), OpStop> {
        let module = self.module;
        let fi = self.frames.len() - 1;
        let (cid, pc, base, this) = {
            let f = &self.frames[fi];
            (f.chunk, f.pc, f.base, f.this)
        };
        let chunk = &module.chunks[cid as usize];
        let op = chunk.ops[pc];
        self.frames[fi].pc = pc + 1;
        let r = |x: u16| base + x as usize;
        match op {
            Op::Const { dst, c } => {
                self.regs[r(dst)] = chunk.consts[c as usize].clone();
            }
            Op::LoadThis { dst } => {
                let v = match this {
                    Some(id) => Value::Ref(ObjId(id)),
                    None => self.soft("`this` in static context", Value::Null)?,
                };
                self.regs[r(dst)] = v;
            }
            Op::LoadLocal { dst, slot, fb } => {
                if self.defined[r(slot)] {
                    self.regs[r(dst)] = self.regs[r(slot)].clone();
                } else {
                    self.load_fallback(fb, this, r(dst))?;
                }
            }
            Op::StoreLocal { slot, src } => {
                self.regs[r(slot)] = self.regs[r(src)].clone();
                self.defined[r(slot)] = true;
            }
            Op::StoreLocalOrField { slot, src, fb } => {
                if self.defined[r(slot)] {
                    self.regs[r(slot)] = self.regs[r(src)].clone();
                } else if let Some(id) = this {
                    let v = self.regs[r(src)].clone();
                    match module.store_fbs[fb as usize] {
                        // Dropped silently when `this` is an array,
                        // like the legacy `write_field`.
                        StoreFallback::Field { off } => {
                            self.heap.layout_write(id, off, v);
                        }
                        StoreFallback::Overflow { name } => {
                            self.heap.write_field(id, name, v);
                        }
                    }
                } else {
                    self.regs[r(slot)] = self.regs[r(src)].clone();
                    self.defined[r(slot)] = true;
                }
            }
            Op::InitField { off, src } => {
                let id = this.expect("initializer has this");
                let v = self.regs[r(src)].clone();
                self.heap.layout_write(id, off, v);
            }
            Op::Arith { dst, a, b, op } => {
                let v = match crate::value::binop_values(op, &self.regs[r(a)], &self.regs[r(b)]) {
                    Ok(v) => v,
                    Err(sf) => self.soft(&sf.msg, sf.default)?,
                };
                let v = self.step(v)?;
                self.regs[r(dst)] = v;
            }
            Op::Cmp { dst, a, b, op } => {
                let v = match crate::value::binop_values(op, &self.regs[r(a)], &self.regs[r(b)]) {
                    Ok(v) => v,
                    Err(sf) => self.soft(&sf.msg, sf.default)?,
                };
                self.regs[r(dst)] = v;
            }
            Op::EqCmp { dst, a, b, ne } => {
                let eq = self.regs[r(a)] == self.regs[r(b)];
                self.regs[r(dst)] = Value::Bool(eq != ne);
            }
            Op::Neg { dst, src } => {
                let v = match &self.regs[r(src)] {
                    Value::Int(i) => Value::Int(i.wrapping_neg()),
                    Value::Float(f) => Value::Float(-f),
                    _ => self.soft("negation of non-number", Value::Int(0))?,
                };
                let v = self.step(v)?;
                self.regs[r(dst)] = v;
            }
            Op::Not { dst, src } => {
                let b = self.regs[r(src)].as_bool().unwrap_or(false);
                self.regs[r(dst)] = Value::Bool(!b);
            }
            Op::CastInt { dst, src } => {
                let v = match &self.regs[r(src)] {
                    Value::Float(f) => Value::Int(*f as i64),
                    other => other.clone(),
                };
                self.regs[r(dst)] = v;
            }
            Op::CastFloat { dst, src } => {
                let v = match &self.regs[r(src)] {
                    Value::Int(i) => Value::Float(*i as f64),
                    other => other.clone(),
                };
                self.regs[r(dst)] = v;
            }
            Op::StepVal { r: x } => {
                let v = self.regs[r(x)].clone();
                let v = self.step(v)?;
                self.regs[r(x)] = v;
            }
            Op::Jump { to } => self.frames[fi].pc = to as usize,
            Op::JumpIfFalse { c, to } => {
                if !self.regs[r(c)].as_bool().unwrap_or(false) {
                    self.frames[fi].pc = to as usize;
                }
            }
            Op::BranchCond { c, to } => {
                let b = match self.regs[r(c)].as_bool() {
                    Some(b) => b,
                    None => self
                        .soft("non-boolean condition", Value::Bool(false))?
                        .as_bool()
                        .unwrap_or(false),
                };
                if !b {
                    self.frames[fi].pc = to as usize;
                }
            }
            Op::SetCounter { r: x } => self.regs[r(x)] = Value::Int(0),
            Op::IncCounter { r: x } => {
                if let Value::Int(i) = &self.regs[r(x)] {
                    self.regs[r(x)] = Value::Int(i.wrapping_add(1));
                }
            }
            Op::JumpCounterGe { r: x, bound, to } => {
                if let Value::Int(i) = &self.regs[r(x)] {
                    if *i >= 0 && (*i as u64) >= bound {
                        self.frames[fi].pc = to as usize;
                    }
                }
            }
            Op::NewObj { dst, class } => {
                let id = self.heap.alloc_object(class);
                self.regs[r(dst)] = Value::Ref(ObjId(id));
                if let Some(ic) = module.classes[class as usize].init_chunk {
                    // Return value (null) discarded into the scratch
                    // register.
                    self.push_frame(ic, Some(id), 0, None, 0, true);
                }
            }
            Op::NewArr { dst, len, c } => {
                let n = self.regs[r(len)].as_i64().unwrap_or(0).max(0) as usize;
                let id = self.heap.alloc_array(&chunk.consts[c as usize], n);
                self.regs[r(dst)] = Value::Ref(ObjId(id));
            }
            Op::LoadField { dst, obj, name } => {
                let v = match self.regs[r(obj)] {
                    Value::Ref(ObjId(id)) => match self.heap.read_field(id, name) {
                        Some(v) => v.clone(),
                        None => {
                            let d = self.field_miss_default(id, name);
                            let msg = format!("missing field `{}`", module.names[name as usize]);
                            self.soft(&msg, d)?
                        }
                    },
                    _ => self.soft("null dereference on field read", Value::Null)?,
                };
                self.regs[r(dst)] = v;
            }
            Op::StoreField { obj, src, name } => match self.regs[r(obj)] {
                Value::Ref(ObjId(id)) => {
                    let v = self.regs[r(src)].clone();
                    self.heap.write_field(id, name, v);
                }
                _ => {
                    self.soft("null dereference on field store", Value::Null)?;
                }
            },
            Op::LoadIndex { dst, arr, idx } => {
                let target = match (&self.regs[r(arr)], self.regs[r(idx)].as_i64()) {
                    (Value::Ref(ObjId(id)), Some(ix)) => Some((*id, ix)),
                    _ => None,
                };
                let v = match target {
                    None => self.soft("bad array read", Value::Int(0))?,
                    Some((id, ix)) => match self.heap.entry(id) {
                        Some(e) if e.is_array() => {
                            if ix >= 0 && (ix as usize) < e.len as usize {
                                self.heap
                                    .array_get(id, ix as usize)
                                    .expect("bounds")
                                    .clone()
                            } else {
                                let d = e.array_default().expect("array").clone();
                                self.soft("array read out of bounds", d)?
                            }
                        }
                        _ => self.soft("array read on non-array", Value::Int(0))?,
                    },
                };
                self.regs[r(dst)] = v;
            }
            Op::StoreIndex { arr, idx, src } => {
                let target = match (&self.regs[r(arr)], self.regs[r(idx)].as_i64()) {
                    (Value::Ref(ObjId(id)), Some(ix)) => Some((*id, ix)),
                    _ => None,
                };
                match target {
                    None => {
                        self.soft("bad array store target", Value::Null)?;
                    }
                    Some((id, ix)) => match self.heap.entry(id) {
                        Some(e) if e.is_array() => {
                            if ix >= 0 && (ix as usize) < e.len as usize {
                                let v = self.regs[r(src)].clone();
                                self.heap.array_set(id, ix as usize, v);
                            } else {
                                self.soft("array store out of bounds", Value::Null)?;
                            }
                        }
                        _ => {
                            self.soft("array store on non-array", Value::Null)?;
                        }
                    },
                }
            }
            Op::ArrLen { dst, arr } => {
                let v = match &self.regs[r(arr)] {
                    Value::Ref(ObjId(id)) => match self.heap.entry(*id) {
                        Some(e) if e.is_array() => Value::Int(e.len as i64),
                        _ => self.soft("length of non-array", Value::Int(0))?,
                    },
                    _ => self.soft("length of null", Value::Int(0))?,
                };
                self.regs[r(dst)] = v;
            }
            Op::LoadStatic { dst, slot } => self.load_static(slot, r(dst))?,
            Op::CacheStatic { slot, src } => {
                self.statics[slot as usize] = Some(self.regs[r(src)].clone());
            }
            Op::StoreStatic { slot, src } => {
                // Unconditional, declaration or not — a later read of
                // an undeclared static then succeeds from the cache,
                // exactly like the interpreter's `statics` map.
                self.statics[slot as usize] = Some(self.regs[r(src)].clone());
            }
            Op::CallDirect {
                dst,
                chunk: target,
                argbase,
                argc,
                pass_this,
            } => {
                let callee_this = if pass_this { this } else { None };
                self.push_frame(
                    target,
                    callee_this,
                    r(dst),
                    Some((r(argbase), argc)),
                    0,
                    false,
                );
            }
            Op::VPrep {
                recv,
                dst,
                name,
                argc,
                end,
            } => {
                match self.regs[r(recv)] {
                    Value::Ref(ObjId(id)) => {
                        // Arrays have no class: dispatch falls back to
                        // the caller's context class, like the
                        // interpreter.
                        let dyn_cid = self.heap.obj_class(id).unwrap_or(chunk.ctx);
                        let ci = &module.classes[dyn_cid as usize];
                        match ci.vtable.binary_search_by_key(&name, |&(n, _)| n) {
                            Ok(i) => {
                                let target = ci.vtable[i].1;
                                let k = module.chunks[target as usize].n_params.min(argc);
                                self.pending.push(Pending { chunk: target, k });
                            }
                            Err(_) => {
                                // Soft error *before* argument
                                // evaluation.
                                let msg = format!(
                                    "unknown method `{}.{}`",
                                    ci.name, module.names[name as usize]
                                );
                                let v = self.soft(&msg, Value::Null)?;
                                self.regs[r(dst)] = v;
                                self.frames[fi].pc = end as usize;
                            }
                        }
                    }
                    _ => {
                        let v = self.soft("virtual call on null receiver", Value::Null)?;
                        self.regs[r(dst)] = v;
                        self.frames[fi].pc = end as usize;
                    }
                }
            }
            Op::ArgSkip { j, to } => {
                let k = self.pending.last().expect("pending call").k;
                if j >= k {
                    self.frames[fi].pc = to as usize;
                }
            }
            Op::VCallGo { recv, dst, argbase } => {
                let p = self.pending.pop().expect("pending call");
                let Value::Ref(ObjId(id)) = self.regs[r(recv)] else {
                    unreachable!("VPrep checked the receiver");
                };
                let callee_this = if module.chunks[p.chunk as usize].is_static {
                    None
                } else {
                    Some(id)
                };
                self.push_frame(
                    p.chunk,
                    callee_this,
                    r(dst),
                    Some((r(argbase), p.k)),
                    0,
                    false,
                );
            }
            Op::Ret { src } => {
                let f = self.frames.pop().expect("frame");
                let v = std::mem::replace(&mut self.regs[f.base + src as usize], Value::Null);
                self.regs.truncate(f.base);
                self.defined.truncate(f.base);
                if !self.frames.is_empty() {
                    self.regs[f.dst] = v;
                }
            }
            Op::DeviceRead { dst, chan } => {
                let v = self.inputs.next(&module.names[chan as usize]);
                let v = self.step(v)?;
                self.regs[r(dst)] = v;
            }
            Op::Emit { dst, argbase, argc } => {
                let s = r(argbase);
                let vals = self.regs[s..s + argc as usize].to_vec();
                // Emissions outside any iteration are dropped, like
                // `outputs.last_mut()` on an empty vec.
                if let Some(last) = self.outputs.last_mut() {
                    last.extend(vals);
                }
                self.regs[r(dst)] = Value::Null;
            }
            Op::MathCall {
                dst,
                name,
                argbase,
                argc,
            } => {
                let s = r(argbase);
                let v = match crate::value::math_values(
                    &module.names[name as usize],
                    &self.regs[s..s + argc as usize],
                ) {
                    Ok(v) => v,
                    Err(sf) => self.soft(&sf.msg, sf.default)?,
                };
                let v = self.step(v)?;
                self.regs[r(dst)] = v;
            }
            Op::SSInsert { dst, arr, val } => {
                let v = match self.regs[r(arr)] {
                    Value::Ref(ObjId(id)) => {
                        // The inserted value is stepped (and possibly
                        // corrupted) before the shift.
                        let v = self.regs[r(val)].clone();
                        let v = self.step(v)?;
                        self.heap.ss_insert(id, v);
                        Value::Null
                    }
                    _ => self.soft("bad SSJavaArray intrinsic `insert`", Value::Null)?,
                };
                self.regs[r(dst)] = v;
            }
            Op::SSClear { dst, arr } => {
                let v = match self.regs[r(arr)] {
                    Value::Ref(ObjId(id)) => {
                        self.heap.ss_clear(id);
                        Value::Null
                    }
                    _ => self.soft("bad SSJavaArray intrinsic `clear`", Value::Null)?,
                };
                self.regs[r(dst)] = v;
            }
            Op::SoftNull { dst, msg } => {
                let m = module.msgs[msg as usize].clone();
                let v = self.soft(&m, Value::Null)?;
                self.regs[r(dst)] = v;
            }
            Op::ElHead => {
                let f = &mut self.frames[fi];
                if f.iterations_left == 0 {
                    return Err(OpStop::LoopDone);
                }
                f.iterations_left -= 1;
                self.el = Some(ElCtx {
                    frame: fi,
                    head_pc: pc,
                    regs_len: self.regs.len(),
                    pending_len: self.pending.len(),
                    armed: false,
                });
            }
            Op::ElCond { c } => {
                if !self.regs[r(c)].as_bool().unwrap_or(true) {
                    return Err(OpStop::LoopDone);
                }
            }
            Op::IterStart => {
                self.outputs.push(Vec::new());
                self.iter_start_step = self.steps;
                if let Some(el) = &mut self.el {
                    el.armed = true;
                }
                if self.watch {
                    return Err(OpStop::Pause);
                }
            }
            Op::LoopDone => return Err(OpStop::LoopDone),
        }
        Ok(())
    }

    /// Reads an undefined local via its compile-time fallback (the
    /// interpreter's `Expr::Var` miss path).
    fn load_fallback(&mut self, fb: u32, this: Option<usize>, dst: usize) -> Result<(), OpStop> {
        match &self.module.var_fbs[fb as usize] {
            VarFallback::Unbound { msg } => {
                let m = self.module.msgs[*msg as usize].clone();
                let v = self.soft(&m, Value::Null)?;
                self.regs[dst] = v;
            }
            VarFallback::ThisField {
                off,
                miss_msg,
                unbound_msg,
                miss_default,
            } => match this {
                // A field fallback needs a bound `this` — even a
                // static field read goes unbound without one.
                None => {
                    let m = self.module.msgs[*unbound_msg as usize].clone();
                    let v = self.soft(&m, Value::Null)?;
                    self.regs[dst] = v;
                }
                Some(id) => match self.heap.layout_read(id, *off) {
                    Some(v) => self.regs[dst] = v.clone(),
                    // Reachable when `this` is an array (virtual call
                    // on an array reference).
                    None => {
                        let (m, d) = (
                            self.module.msgs[*miss_msg as usize].clone(),
                            miss_default.clone(),
                        );
                        let v = self.soft(&m, d)?;
                        self.regs[dst] = v;
                    }
                },
            },
            VarFallback::StaticRead { slot, unbound_msg } => {
                if this.is_some() {
                    self.load_static(*slot, dst)?;
                } else {
                    let m = self.module.msgs[*unbound_msg as usize].clone();
                    let v = self.soft(&m, Value::Null)?;
                    self.regs[dst] = v;
                }
            }
        }
        Ok(())
    }

    /// Reads a static slot, scheduling its lazy initializer chunk when
    /// uncached (the interpreter's `static_value`).
    fn load_static(&mut self, slot: u32, dst: usize) -> Result<(), OpStop> {
        if let Some(v) = &self.statics[slot as usize] {
            self.regs[dst] = v.clone();
            return Ok(());
        }
        let s = &self.module.statics[slot as usize];
        match (s.init_chunk, &s.default) {
            (Some(ic), _) => {
                // The chunk ends with CacheStatic + Ret into `dst`.
                self.push_frame(ic, None, dst, None, 0, true);
                Ok(())
            }
            (None, Some(d)) => {
                let d = d.clone();
                self.statics[slot as usize] = Some(d.clone());
                self.regs[dst] = d;
                Ok(())
            }
            // Hard error in both modes, like the interpreter.
            (None, None) => Err(stop(self.module.msgs[s.err as usize].clone())),
        }
    }

    /// The default for a missing dynamic field read: the first
    /// chain-matching declaration's type default when that match is
    /// static, else null (the interpreter's `field_default`).
    fn field_miss_default(&self, id: usize, name: u32) -> Value {
        match self.heap.obj_class(id) {
            Some(cid) => {
                let ci = &self.module.classes[cid as usize];
                ci.static_defaults
                    .binary_search_by_key(&name, |&(n, _)| n)
                    .ok()
                    .map(|i| ci.static_defaults[i].1.clone())
                    .unwrap_or(Value::Null)
            }
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compile;
    use crate::inject::InjectKind;
    use crate::input::ScriptedInput;
    use crate::interp::Interpreter;
    use sjava_syntax::parse;

    /// Runs both engines and demands byte-identical Debug renderings of
    /// the full result (outputs, steps, error log, injection step, or
    /// the error) — the differential oracle for everything below.
    fn diff_with(
        src: &str,
        entry: (&str, &str),
        inputs: &ScriptedInput,
        iters: usize,
        opts: &ExecOptions,
        inj: Option<(u64, u64, InjectKind)>,
    ) -> Result<RunResult, RuntimeError> {
        let p = parse(src).expect("parses");
        let mut interp = Interpreter::new(&p, inputs.clone(), opts.clone());
        if let Some((s, t, k)) = inj {
            interp = interp.with_injector(Injector::with_kind(s, t, k));
        }
        let a = interp.run(entry.0, entry.1, iters);
        let module = compile(&p);
        let mut vm = Vm::new(&module, inputs.clone(), opts.clone());
        if let Some((s, t, k)) = inj {
            vm.set_injector(Some(Injector::with_kind(s, t, k)));
        }
        let b = vm.run(entry.0, entry.1, iters);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "tree-walker and VM diverged on:\n{src}"
        );
        b
    }

    fn diff(src: &str, inputs: ScriptedInput, iters: usize) -> RunResult {
        diff_with(
            src,
            ("A", "main"),
            &inputs,
            iters,
            &ExecOptions::default(),
            None,
        )
        .expect("runs")
    }

    #[test]
    fn event_loop_emits_per_iteration() {
        let r = diff(
            "class A { void main() { SSJAVA: while (true) {
                int x = Device.read();
                Out.emit(x * 2);
            } } }",
            ScriptedInput::new().channel("read", vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
            3,
        );
        assert_eq!(
            r.outputs(),
            vec![Value::Int(2), Value::Int(4), Value::Int(6)]
        );
    }

    #[test]
    fn fields_persist_across_iterations() {
        let r = diff(
            "class A { int prev; void main() { SSJAVA: while (true) {
                int x = Device.read();
                Out.emit(prev);
                prev = x;
            } } }",
            ScriptedInput::new().channel("read", vec![Value::Int(5), Value::Int(7)]),
            3,
        );
        assert_eq!(
            r.outputs(),
            vec![Value::Int(0), Value::Int(5), Value::Int(7)]
        );
    }

    #[test]
    fn objects_and_methods_work() {
        let r = diff(
            "class A { R rec; void main() { rec = new R(); SSJAVA: while (true) {
                rec.set(Device.read());
                Out.emit(rec.get());
            } } }
             class R { int v; void set(int x) { v = x + 1; } int get() { return v; } }",
            ScriptedInput::new().channel("read", vec![Value::Int(10)]),
            1,
        );
        assert_eq!(r.outputs(), vec![Value::Int(11)]);
    }

    #[test]
    fn arrays_and_for_loops() {
        let r = diff(
            "class A { float[] buf; void main() { buf = new float[4]; SSJAVA: while (true) {
                for (int i = 0; i < 4; i++) { buf[i] = Device.readFloat(); }
                float s = 0.0;
                for (int j = 0; j < 4; j++) { s = s + buf[j]; }
                Out.emit(s);
            } } }",
            ScriptedInput::new().channel(
                "readFloat",
                vec![
                    Value::Float(1.0),
                    Value::Float(2.0),
                    Value::Float(3.0),
                    Value::Float(4.0),
                ],
            ),
            1,
        );
        assert_eq!(r.outputs(), vec![Value::Float(10.0)]);
    }

    #[test]
    fn ssjava_insert_shifts_down() {
        let r = diff(
            "class A { int[] h; void main() { h = new int[3]; SSJAVA: while (true) {
                SSJavaArray.insert(h, Device.read());
                Out.emit(h[0]); Out.emit(h[1]); Out.emit(h[2]);
            } } }",
            ScriptedInput::new().channel("read", vec![Value::Int(1), Value::Int(2)]),
            2,
        );
        assert_eq!(
            r.iteration_outputs[1],
            vec![Value::Int(0), Value::Int(1), Value::Int(2)]
        );
    }

    #[test]
    fn null_deref_is_ignored_in_crash_avoidance_mode() {
        let r = diff(
            "class A { R rec; void main() { SSJAVA: while (true) {
                Out.emit(rec.v);
            } } }
             class R { int v; }",
            ScriptedInput::new(),
            2,
        );
        assert!(!r.error_log.is_empty());
    }

    #[test]
    fn strict_mode_propagates_errors() {
        let opts = ExecOptions {
            ignore_errors: false,
            ..Default::default()
        };
        let r = diff_with(
            "class A { R rec; void main() { SSJAVA: while (true) { Out.emit(rec.v); } } }
             class R { int v; }",
            ("A", "main"),
            &ScriptedInput::new(),
            1,
            &opts,
            None,
        );
        assert!(r.is_err());
    }

    #[test]
    fn division_by_zero_yields_zero_when_ignoring() {
        let r = diff(
            "class A { void main() { SSJAVA: while (true) {
                int x = Device.read();
                Out.emit(100 / x);
            } } }",
            ScriptedInput::new().channel("read", vec![Value::Int(0), Value::Int(4)]),
            2,
        );
        assert_eq!(r.outputs(), vec![Value::Int(0), Value::Int(25)]);
    }

    #[test]
    fn maxloop_bound_is_enforced() {
        let r = diff(
            "class A { void main() { SSJAVA: while (true) {
                int x = Device.read();
                int n = 0;
                MAXLOOP_5: while (true) { n = n + 1; }
                Out.emit(n);
            } } }",
            ScriptedInput::new(),
            1,
        );
        assert_eq!(r.outputs(), vec![Value::Int(5)]);
    }

    #[test]
    fn inheritance_dispatch() {
        let r = diff(
            "class A { B b; void main() { b = new C(); SSJAVA: while (true) {
                Out.emit(b.f());
            } } }
             class B { int f() { return 1; } }
             class C extends B { int f() { return 2; } }",
            ScriptedInput::new(),
            1,
        );
        assert_eq!(r.outputs(), vec![Value::Int(2)]);
    }

    #[test]
    fn statics_casts_strings_and_math() {
        diff(
            "class A {
                static int counter;
                void main() { SSJAVA: while (true) {
                    counter = counter + 1;
                    A.counter = A.counter + 10;
                    float f = (float) counter;
                    int i = (int) (f * 1.5);
                    Out.emit(\"n=\" + i + \" sqrt=\" + Math.sqrt(f));
                    Out.emit(Math.max(counter, 3));
                } }
             }",
            ScriptedInput::new(),
            3,
        );
    }

    #[test]
    fn logic_ops_and_branches() {
        diff(
            "class A { void main() { SSJAVA: while (true) {
                int x = Device.read();
                boolean a = x > 1 && x < 10;
                boolean b = x == 0 || !a;
                if (a) { Out.emit(1); } else { Out.emit(0); }
                while (x > 0) { x = x - 1; }
                Out.emit(b); Out.emit(x);
            } } }",
            ScriptedInput::new().channel("read", vec![Value::Int(5), Value::Int(0)]),
            2,
        );
    }

    #[test]
    fn break_continue_and_nested_loops() {
        diff(
            "class A { void main() { SSJAVA: while (true) {
                int s = 0;
                for (int i = 0; i < 10; i++) {
                    if (i == 3) { continue; }
                    if (i == 7) { break; }
                    s = s + i;
                }
                Out.emit(s);
            } } }",
            ScriptedInput::new(),
            2,
        );
    }

    #[test]
    fn soft_error_corners_match() {
        // Unknown method, unknown Math intrinsic, array misuse, length
        // of null, negation of non-number — every §4.4 default path.
        diff(
            "class A { int[] arr; R r; void main() { SSJAVA: while (true) {
                Out.emit(r.nope());
                Out.emit(Math.frobnicate(1.0));
                Out.emit(arr[5]);
                arr = new int[2];
                arr[9] = 1;
                Out.emit(arr.length);
                Out.emit(r.length);
                Out.emit(-\"x\");
            } } }
             class R { }",
            ScriptedInput::new(),
            2,
        );
    }

    #[test]
    fn event_loop_catches_body_errors() {
        // Strict-hard error inside the body: iteration aborts, loop
        // continues (§4.4) — identical logs in both engines.
        let r = diff(
            "class A { void main() { SSJAVA: while (true) {
                int x = Device.read();
                int y = C.missing;
                Out.emit(x + y);
            } } }
             class C { }",
            ScriptedInput::new().channel("read", vec![Value::Int(1)]),
            3,
        );
        assert_eq!(r.iteration_outputs.len(), 3);
        assert!(r.error_log.iter().any(|e| e.contains("iteration aborted")));
    }

    #[test]
    fn recursion_and_call_arg_truncation() {
        diff(
            "class A { void main() { SSJAVA: while (true) {
                Out.emit(fib(10));
                Out.emit(two(1));
            } }
              int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
              int two(int a, int b) { return a + b; }
             }",
            ScriptedInput::new(),
            1,
        );
    }

    #[test]
    fn injection_matches_tree_walker_both_kinds() {
        let src = "class A { int prev; int[] h; void main() { h = new int[4];
            SSJAVA: while (true) {
                int x = Device.read();
                SSJavaArray.insert(h, x + prev);
                Out.emit(h[0] + h[3] * 2);
                prev = x;
            } } }";
        let inputs = ScriptedInput::new().channel("read", vec![Value::Int(3), Value::Int(4)]);
        for seed in 0..24u64 {
            for trigger in [1, 2, 5, 9, 17, 33] {
                let kind = if seed % 2 == 0 {
                    InjectKind::Op
                } else {
                    InjectKind::Heap
                };
                let r = diff_with(
                    src,
                    ("A", "main"),
                    &inputs,
                    6,
                    &ExecOptions::default(),
                    Some((seed, trigger, kind)),
                )
                .expect("runs");
                drop(r);
            }
        }
    }

    #[test]
    fn snapshot_resume_equals_full_run() {
        let src = "class A { int acc; int[] h; void main() { h = new int[3];
            SSJAVA: while (true) {
                int x = Device.read();
                acc = acc + x;
                SSJavaArray.insert(h, acc);
                Out.emit(acc + h[0]);
            } } }";
        let p = parse(src).expect("parses");
        let module = compile(&p);
        let inputs = ScriptedInput::new().channel("read", vec![Value::Int(2), Value::Int(9)]);
        let mut vm = Vm::new(&module, inputs.clone(), ExecOptions::default());
        let prep = vm.prepare("A", "main").expect("prepares");
        let snap = vm.snapshot();
        for seed in 0..8u64 {
            let trigger = prep.steps + 1 + seed * 3;
            let mut fresh = Vm::new(&module, inputs.clone(), ExecOptions::default());
            fresh.set_injector(Some(Injector::with_kind(seed, trigger, InjectKind::Heap)));
            let full = fresh.run("A", "main", 5).expect("runs");
            vm.restore(&snap);
            let fast = vm
                .resume(
                    &prep,
                    5,
                    Some(Injector::with_kind(seed, trigger, InjectKind::Heap)),
                )
                .expect("runs");
            assert_eq!(format!("{full:?}"), format!("{fast:?}"), "seed {seed}");
        }
    }

    #[test]
    fn unknown_entry_is_an_error_in_both() {
        let r = diff_with(
            "class A { void main() { } }",
            ("A", "nope"),
            &ScriptedInput::new(),
            1,
            &ExecOptions::default(),
            None,
        );
        assert!(r.is_err());
        let r = diff_with(
            "class A { void main() { } }",
            ("Nope", "main"),
            &ScriptedInput::new(),
            1,
            &ExecOptions::default(),
            None,
        );
        assert!(r.is_err());
    }

    #[test]
    fn plain_method_without_event_loop() {
        let r = diff_with(
            "class A { int main() { int s = 0;
                for (int i = 0; i < 5; i++) { s = s + i; }
                Out.emit(s);
                return s; } }",
            ("A", "main"),
            &ScriptedInput::new(),
            3,
            &ExecOptions::default(),
            None,
        )
        .expect("runs");
        // Emissions outside any iteration are dropped in both engines.
        assert!(r.iteration_outputs.is_empty());
    }

    #[test]
    fn field_initializers_and_defaults() {
        diff(
            "class A { int x = 41; R r = new R(); void main() { SSJAVA: while (true) {
                Out.emit(x + 1);
                Out.emit(r.bump());
            } } }
             class R { int n = 5; int bump() { n = n + 1; return n; } }",
            ScriptedInput::new(),
            2,
        );
    }
}
