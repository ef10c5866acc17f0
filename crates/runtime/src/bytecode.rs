//! Register-bytecode compiler and flat heap for the runtime.
//!
//! [`compile`] lowers a checked [`Program`] to a [`Module`]: one
//! register-file `Chunk` per `(context class, method)` pair (so every
//! field offset and unqualified-call target is resolved at compile
//! time), plus synthesized chunks for field initializers and lazy
//! static initializers. The dispatch loop lives in [`crate::vm`].
//!
//! The companion [`FlatHeap`] replaces the interpreter's
//! `HashMap`-field [`crate::value::Heap`] with a single `Vec<Value>`
//! slot arena plus typed per-entry metadata (class layout or array
//! element default). It implements [`crate::inject::InjectableHeap`]
//! with exactly the legacy cell ordering, so seeded fault injection
//! picks the same cell on either heap representation.

use crate::inject::{lex_nth_index, InjectableHeap};
use crate::value::{identical_values, Value};
use sjava_syntax::ast::{
    BinOp, Block, CallExpr, ClassDecl, Expr, LValue, LoopKind, MethodDecl, Program, Stmt, Type,
    UnOp,
};
use std::collections::HashMap;

/// One bytecode instruction. Registers are frame-relative `u16`
/// indices; `u32` fields index module-level tables (names, messages,
/// fallbacks, chunks, static slots) or chunk-level constants.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// `dst = consts[c]`.
    Const {
        dst: u16,
        c: u32,
    },
    /// `dst = this` (soft error when unbound).
    LoadThis {
        dst: u16,
    },
    /// Read a local; falls back per `var_fbs[fb]` when undefined.
    LoadLocal {
        dst: u16,
        slot: u16,
        fb: u32,
    },
    /// Define/overwrite a local.
    StoreLocal {
        slot: u16,
        src: u16,
    },
    /// Count a step on the value in `src` (budget + injector), then
    /// store the result as [`Op::StoreLocal`] does: an assignment to a
    /// local in one op. `src` keeps the value from before the step.
    StepStore {
        slot: u16,
        src: u16,
    },
    /// Count a step on the value in `src`, then a bare-name assign:
    /// local if defined, else `store_fbs[fb]` when `this` is bound, else
    /// define a local (§interp `assign`).
    StepStoreOrField {
        slot: u16,
        src: u16,
        fb: u32,
    },
    /// Field-initializer store `this.<layout[off]> = src` (no step).
    InitField {
        off: u16,
        src: u16,
    },
    /// Non-comparison binary op via the shared kernel, then a step.
    Arith {
        dst: u16,
        a: u16,
        b: u16,
        op: BinOp,
    },
    /// [`Op::Arith`] with a literal right operand `consts[k]`.
    ArithK {
        dst: u16,
        a: u16,
        k: u32,
        op: BinOp,
    },
    /// Comparison via the shared kernel (no step).
    Cmp {
        dst: u16,
        a: u16,
        b: u16,
        op: BinOp,
    },
    /// [`Op::Cmp`] with a literal right operand `consts[k]`.
    CmpK {
        dst: u16,
        a: u16,
        k: u32,
        op: BinOp,
    },
    /// [`Op::CmpK`] then [`Op::JumpIfFalse`] on its result, which is
    /// never stored: a plain-loop or `&&`/`||` condition.
    JumpCmpK {
        a: u16,
        k: u32,
        op: BinOp,
        to: u32,
    },
    /// `==` / `!=` over any values (no step).
    EqCmp {
        dst: u16,
        a: u16,
        b: u16,
        ne: bool,
    },
    /// Arithmetic negation, then a step.
    Neg {
        dst: u16,
        src: u16,
    },
    /// Boolean not (no step).
    Not {
        dst: u16,
        src: u16,
    },
    /// `(int)` cast: floats truncate, everything else unchanged.
    CastInt {
        dst: u16,
        src: u16,
    },
    /// `(float)` cast: ints widen, everything else unchanged.
    CastFloat {
        dst: u16,
        src: u16,
    },
    /// Count a step on the value in `r` (budget + injector).
    StepVal {
        r: u16,
    },
    Jump {
        to: u32,
    },
    /// Plain-loop condition: jump when not truthy (no soft error).
    JumpIfFalse {
        c: u16,
        to: u32,
    },
    /// `if` condition: soft "non-boolean condition" on non-bools.
    BranchCond {
        c: u16,
        to: u32,
    },
    /// `r = 0` (MAXLOOP counter).
    SetCounter {
        r: u16,
    },
    IncCounter {
        r: u16,
    },
    JumpCounterGe {
        r: u16,
        bound: u64,
        to: u32,
    },
    /// Allocate + default-init an object, then run its init chunk.
    NewObj {
        dst: u16,
        class: u32,
    },
    /// `dst = new elem[len]`; `c` holds the element default.
    NewArr {
        dst: u16,
        len: u16,
        c: u32,
    },
    /// Dynamic (by-name) field read on any object.
    LoadField {
        dst: u16,
        obj: u16,
        name: u32,
    },
    /// Dynamic field store; silently dropped on arrays.
    StoreField {
        obj: u16,
        src: u16,
        name: u32,
    },
    LoadIndex {
        dst: u16,
        arr: u16,
        idx: u16,
    },
    StoreIndex {
        arr: u16,
        idx: u16,
        src: u16,
    },
    ArrLen {
        dst: u16,
        arr: u16,
    },
    /// Read a static slot, running its lazy initializer chunk if needed.
    LoadStatic {
        dst: u16,
        slot: u32,
    },
    /// End of a static-initializer chunk: cache the computed value.
    CacheStatic {
        slot: u32,
        src: u16,
    },
    StoreStatic {
        slot: u32,
        src: u16,
    },
    /// Compile-time-resolved call; args are `argbase..argbase+argc`.
    CallDirect {
        dst: u16,
        chunk: u32,
        argbase: u16,
        argc: u16,
        pass_this: bool,
    },
    /// Virtual-call dispatch: resolve receiver's vtable, push a pending
    /// call (recording the zip-truncated arg count), or soft-fail to
    /// `end`.
    VPrep {
        recv: u16,
        dst: u16,
        name: u32,
        argc: u16,
        end: u32,
    },
    /// Skip evaluating arg `j` if the pending call binds fewer params.
    ArgSkip {
        j: u16,
        to: u32,
    },
    /// Enter the pending virtual call.
    VCallGo {
        recv: u16,
        dst: u16,
        argbase: u16,
    },
    Ret {
        src: u16,
    },
    /// `Device.<chan>()`: pull an input, then a step.
    DeviceRead {
        dst: u16,
        chan: u32,
    },
    /// `Out.*`/`System.*`: append args to the current iteration output.
    Emit {
        dst: u16,
        argbase: u16,
        argc: u16,
    },
    /// `Math.<name>` via the shared kernel, then a step.
    MathCall {
        dst: u16,
        name: u32,
        argbase: u16,
        argc: u16,
    },
    /// `SSJavaArray.insert(arr, v)`: step the value, shift down, place
    /// at the top index.
    SSInsert {
        dst: u16,
        arr: u16,
        val: u16,
    },
    /// `SSJavaArray.clear(arr)`: refill with the element default.
    SSClear {
        dst: u16,
        arr: u16,
    },
    /// Log a precomputed soft error and produce null.
    SoftNull {
        dst: u16,
        msg: u32,
    },
    /// Event-loop head: stop (`LoopDone`) when out of iterations, else
    /// decrement and disarm the iteration catch for the condition.
    ElHead,
    /// Event-loop condition: stop unless truthy (non-bools are truthy).
    ElCond {
        c: u16,
    },
    /// Start an iteration: new output group, reset the step budget, arm
    /// the §4.4 iteration catch.
    IterStart,
    /// End the run successfully from inside an event loop.
    LoopDone,
}

/// Fallback behaviour for reading an undefined local (§interp
/// `Expr::Var`): unbound, an instance field of `this`, or a static of
/// the context class.
#[derive(Debug, Clone)]
pub(crate) enum VarFallback {
    Unbound {
        msg: u32,
    },
    ThisField {
        off: u16,
        miss_msg: u32,
        unbound_msg: u32,
        miss_default: Value,
    },
    StaticRead {
        slot: u32,
        unbound_msg: u32,
    },
}

/// Where a bare-name store lands when the name is not a defined local
/// but the context class declares a matching field.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StoreFallback {
    /// Instance-layout slot.
    Field { off: u16 },
    /// The first matching declaration is static-only: the interpreter
    /// still writes an *instance* field of that name (overflow slot).
    Overflow { name: u32 },
}

/// A compiled function body.
#[derive(Debug, Default)]
pub(crate) struct Chunk {
    pub(crate) ops: Vec<Op>,
    pub(crate) consts: Vec<Value>,
    pub(crate) n_regs: u16,
    pub(crate) n_named: u16,
    pub(crate) n_params: u16,
    pub(crate) is_static: bool,
    pub(crate) ctx: u32,
}

/// Per-class compile-time metadata: instance layout, lookup indices,
/// vtable, and the synthesized field-initializer chunk.
#[derive(Debug)]
pub(crate) struct ClassInfo {
    pub(crate) name: String,
    /// Instance slots in declaration-chain order: `(name id, default)`.
    /// The default is the most-derived declaration's type default.
    pub(crate) layout: Vec<(u32, Value)>,
    /// `(name id, offset)` sorted by name id, for dynamic field ops.
    pub(crate) field_index: Vec<(u32, u16)>,
    /// Offsets ordered by field-name *string* (the injection rank
    /// order fixed by [`InjectableHeap`]).
    pub(crate) lex_order: Vec<u16>,
    /// Defaults for names whose first chain match is a static field
    /// (reachable as instance-miss defaults), sorted by name id.
    pub(crate) static_defaults: Vec<(u32, Value)>,
    /// `(method name id, chunk)` sorted by name id.
    pub(crate) vtable: Vec<(u32, u32)>,
    pub(crate) init_chunk: Option<u32>,
}

/// A lazily-initialized static field slot.
#[derive(Debug)]
pub(crate) struct StaticSlot {
    pub(crate) init_chunk: Option<u32>,
    /// Cached-on-first-read default when there is no initializer.
    pub(crate) default: Option<Value>,
    /// "unknown static `C.f`" — a hard error when the slot is neither
    /// declared nor previously written.
    pub(crate) err: u32,
}

/// A compiled program: chunks, class metadata, and interned tables.
#[derive(Debug)]
pub struct Module {
    pub(crate) chunks: Vec<Chunk>,
    pub(crate) classes: Vec<ClassInfo>,
    pub(crate) names: Vec<String>,
    pub(crate) msgs: Vec<String>,
    pub(crate) statics: Vec<StaticSlot>,
    pub(crate) var_fbs: Vec<VarFallback>,
    pub(crate) store_fbs: Vec<StoreFallback>,
    name_ids: HashMap<String, u32>,
    class_ids: HashMap<String, u32>,
    /// `(class id, method name id) -> chunk` for every resolvable pair.
    entries: HashMap<(u32, u32), u32>,
}

impl Module {
    pub(crate) fn name_id(&self, s: &str) -> Option<u32> {
        self.name_ids.get(s).copied()
    }

    pub(crate) fn class_id(&self, s: &str) -> Option<u32> {
        self.class_ids.get(s).copied()
    }

    pub(crate) fn entry_chunk(&self, class: u32, name: u32) -> Option<u32> {
        self.entries.get(&(class, name)).copied()
    }
}

/// Compiles a program to register bytecode. Infallible: unresolvable
/// constructs lower to the same soft/hard errors the interpreter
/// raises at runtime.
pub fn compile(program: &Program) -> Module {
    let c = Compiler {
        program,
        names: Vec::new(),
        name_ids: HashMap::new(),
        msgs: Vec::new(),
        msg_ids: HashMap::new(),
        classes: Vec::new(),
        class_ids: HashMap::new(),
        chunks: Vec::new(),
        chunk_keys: HashMap::new(),
        statics: Vec::new(),
        static_keys: HashMap::new(),
        var_fbs: Vec::new(),
        store_fbs: Vec::new(),
        jobs: Vec::new(),
    };
    c.run()
}

enum Job {
    Method {
        chunk: u32,
        ctx: u32,
        decl: Box<MethodDecl>,
    },
    Init {
        chunk: u32,
        class: u32,
    },
    StaticInit {
        chunk: u32,
        ctx: u32,
        slot: u32,
        init: Expr,
    },
}

struct Compiler<'p> {
    program: &'p Program,
    names: Vec<String>,
    name_ids: HashMap<String, u32>,
    msgs: Vec<String>,
    msg_ids: HashMap<String, u32>,
    classes: Vec<ClassInfo>,
    class_ids: HashMap<String, u32>,
    chunks: Vec<Chunk>,
    chunk_keys: HashMap<(u32, u32), u32>,
    statics: Vec<StaticSlot>,
    static_keys: HashMap<(u32, u32), u32>,
    var_fbs: Vec<VarFallback>,
    store_fbs: Vec<StoreFallback>,
    jobs: Vec<Job>,
}

impl<'p> Compiler<'p> {
    fn run(mut self) -> Module {
        // Pass 1: class metadata (first declaration wins on duplicate
        // names, matching `Program::class_untracked`).
        let class_names: Vec<String> = self
            .program
            .classes
            .iter()
            .map(|c| c.name.clone())
            .collect();
        for name in &class_names {
            self.class_id_or_synth(name);
        }
        // Pass 2: reserve one chunk per resolvable (class, method) and
        // build vtables.
        for cid in 0..self.classes.len() as u32 {
            let cname = self.classes[cid as usize].name.clone();
            let mut vtable = Vec::new();
            for mname in self.resolve_set(&cname) {
                let nid = self.name(&mname);
                // Entry/receiver chunk: context = this class.
                let own = self.chunk_for(cid, &mname).expect("resolvable");
                // Dynamic-dispatch target: statics run in their
                // declaring class's context with `this` unbound.
                let (decl_name, is_static) = {
                    let (d, m) = self
                        .program
                        .resolve_method(&cname, &mname)
                        .expect("resolvable");
                    (d.name.clone(), m.is_static)
                };
                let target = if is_static {
                    let did = self.class_id_or_synth(&decl_name);
                    self.chunk_for(did, &mname).expect("resolvable")
                } else {
                    own
                };
                vtable.push((nid, target));
            }
            vtable.sort_unstable_by_key(|&(n, _)| n);
            self.classes[cid as usize].vtable = vtable;
        }
        // Pass 3: field-initializer chunks.
        for cid in 0..self.classes.len() as u32 {
            let cname = self.classes[cid as usize].name.clone();
            let has_init = self
                .chain(&cname)
                .iter()
                .any(|c| c.fields.iter().any(|f| !f.is_static && f.init.is_some()));
            if has_init {
                let chunk = self.reserve_chunk();
                self.classes[cid as usize].init_chunk = Some(chunk);
                self.jobs.push(Job::Init { chunk, class: cid });
            }
        }
        // Pass 4: drain compile jobs (which may enqueue more).
        while let Some(job) = self.jobs.pop() {
            match job {
                Job::Method { chunk, ctx, decl } => {
                    let compiled = self.compile_method(ctx, &decl);
                    self.chunks[chunk as usize] = compiled;
                }
                Job::Init { chunk, class } => {
                    let compiled = self.compile_init(class);
                    self.chunks[chunk as usize] = compiled;
                }
                Job::StaticInit {
                    chunk,
                    ctx,
                    slot,
                    init,
                } => {
                    let compiled = self.compile_static_init(ctx, slot, &init);
                    self.chunks[chunk as usize] = compiled;
                }
            }
        }
        Module {
            chunks: self.chunks,
            classes: self.classes,
            names: self.names,
            msgs: self.msgs,
            statics: self.statics,
            var_fbs: self.var_fbs,
            store_fbs: self.store_fbs,
            name_ids: self.name_ids,
            class_ids: self.class_ids,
            entries: self.chunk_keys,
        }
    }

    fn name(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(s) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(s.to_string());
        self.name_ids.insert(s.to_string(), id);
        id
    }

    fn msg(&mut self, s: String) -> u32 {
        if let Some(&id) = self.msg_ids.get(&s) {
            return id;
        }
        let id = self.msgs.len() as u32;
        self.msgs.push(s.clone());
        self.msg_ids.insert(s, id);
        id
    }

    /// The inheritance chain derived→root (cycle-guarded).
    fn chain(&self, class: &str) -> Vec<ClassDecl> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut cur = self.program.class_untracked(class);
        while let Some(c) = cur {
            if !seen.insert(c.name.clone()) {
                break;
            }
            out.push(c.clone());
            cur = c
                .superclass
                .as_deref()
                .and_then(|s| self.program.class_untracked(s));
        }
        out
    }

    /// Registers (or finds) a class id, synthesizing empty metadata for
    /// names the program does not declare (`new Unknown()` targets).
    fn class_id_or_synth(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.class_ids.get(name) {
            return id;
        }
        let id = self.classes.len() as u32;
        self.class_ids.insert(name.to_string(), id);
        // Instance layout: every non-static field on the chain, one
        // slot per name; root fields are inserted first and derived
        // declarations override the default (HashMap-insert order of
        // `instantiate`).
        let chain = self.chain(name);
        let mut layout: Vec<(u32, Value)> = Vec::new();
        for cd in chain.iter().rev() {
            for f in &cd.fields {
                if f.is_static {
                    continue;
                }
                let nid = self.name(&f.name);
                let d = Value::default_for(&f.ty);
                if let Some(s) = layout.iter_mut().find(|(n, _)| *n == nid) {
                    s.1 = d;
                } else {
                    layout.push((nid, d));
                }
            }
        }
        let mut field_index: Vec<(u32, u16)> = layout
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (*n, i as u16))
            .collect();
        field_index.sort_unstable_by_key(|&(n, _)| n);
        let mut lex: Vec<(String, u16)> = layout
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (self.names[*n as usize].clone(), i as u16))
            .collect();
        lex.sort_unstable();
        let lex_order = lex.into_iter().map(|(_, i)| i).collect();
        // Names whose first chain match is static: the default an
        // instance-field miss falls back to (interp `field_default`).
        let mut static_defaults: Vec<(u32, Value)> = Vec::new();
        let mut seen_first = std::collections::HashSet::new();
        for cd in &chain {
            for f in &cd.fields {
                if !seen_first.insert(f.name.clone()) {
                    continue;
                }
                if f.is_static {
                    let nid = self.name(&f.name);
                    static_defaults.push((nid, Value::default_for(&f.ty)));
                }
            }
        }
        static_defaults.sort_unstable_by_key(|&(n, _)| n);
        self.classes.push(ClassInfo {
            name: name.to_string(),
            layout,
            field_index,
            lex_order,
            static_defaults,
            vtable: Vec::new(),
            init_chunk: None,
        });
        id
    }

    fn reserve_chunk(&mut self) -> u32 {
        self.chunks.push(Chunk::default());
        self.chunks.len() as u32 - 1
    }

    /// All method names resolvable from `class` (its chain's union).
    fn resolve_set(&self, class: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for cd in self.chain(class) {
            for m in &cd.methods {
                if seen.insert(m.name.clone()) {
                    out.push(m.name.clone());
                }
            }
        }
        out
    }

    /// The chunk executing method `name` in the context of class `ctx`
    /// (reserving + scheduling compilation on first request).
    fn chunk_for(&mut self, ctx: u32, name: &str) -> Option<u32> {
        let nid = self.name(name);
        if let Some(&c) = self.chunk_keys.get(&(ctx, nid)) {
            return Some(c);
        }
        let cname = self.classes[ctx as usize].name.clone();
        let (_, m) = self.program.resolve_method(&cname, name)?;
        let decl = Box::new(m.clone());
        let chunk = self.reserve_chunk();
        self.chunk_keys.insert((ctx, nid), chunk);
        self.jobs.push(Job::Method { chunk, ctx, decl });
        Some(chunk)
    }

    /// The static slot for `Class.field` (queried-class keyed, exactly
    /// like the interpreter's `statics` map).
    fn static_slot(&mut self, class: &str, field: &str) -> u32 {
        let cid = self.class_id_or_synth(class);
        let nid = self.name(field);
        if let Some(&s) = self.static_keys.get(&(cid, nid)) {
            return s;
        }
        let slot = self.statics.len() as u32;
        self.static_keys.insert((cid, nid), slot);
        let err = self.msg(format!("unknown static `{class}.{field}`"));
        let (init_chunk, default) = match self.program.field(class, field) {
            None => (None, None),
            Some(fd) => match &fd.init {
                Some(init) => {
                    let init = init.clone();
                    let chunk = self.reserve_chunk();
                    self.jobs.push(Job::StaticInit {
                        chunk,
                        ctx: cid,
                        slot,
                        init,
                    });
                    (Some(chunk), None)
                }
                None => (None, Some(Value::default_for(&fd.ty))),
            },
        };
        self.statics.push(StaticSlot {
            init_chunk,
            default,
            err,
        });
        slot
    }

    fn layout_off(&self, class: u32, name_id: u32) -> Option<u16> {
        self.classes[class as usize]
            .layout
            .iter()
            .position(|&(n, _)| n == name_id)
            .map(|i| i as u16)
    }

    fn compile_method(&mut self, ctx: u32, decl: &MethodDecl) -> Chunk {
        let mut fc = FnCompiler::new(self, ctx);
        for p in &decl.params {
            fc.touch(&p.name);
        }
        fc.n_params = decl.params.len().min(u16::MAX as usize) as u16;
        fc.collect_block(&decl.body);
        fc.seal_names();
        fc.compile_block(&decl.body);
        fc.epilogue(Value::default_for(&decl.ret));
        fc.finish(decl.is_static)
    }

    fn compile_init(&mut self, class: u32) -> Chunk {
        let cname = self.classes[class as usize].name.clone();
        let chain = self.chain(&cname);
        let mut fc = FnCompiler::new(self, class);
        for cd in chain.iter().rev() {
            for f in &cd.fields {
                if !f.is_static {
                    if let Some(init) = &f.init {
                        fc.collect_expr(init);
                    }
                }
            }
        }
        fc.seal_names();
        for cd in chain.iter().rev() {
            for f in &cd.fields {
                if f.is_static {
                    continue;
                }
                let Some(init) = &f.init else { continue };
                let mark = fc.tmp;
                let t = fc.expr(init);
                let nid = fc.c.name(&f.name);
                let off = fc.c.layout_off(class, nid).expect("layout field");
                fc.emit(Op::InitField { off, src: t });
                fc.tmp = mark;
            }
        }
        fc.epilogue(Value::Null);
        fc.finish(false)
    }

    fn compile_static_init(&mut self, ctx: u32, slot: u32, init: &Expr) -> Chunk {
        let mut fc = FnCompiler::new(self, ctx);
        fc.collect_expr(init);
        fc.seal_names();
        let t = fc.expr(init);
        fc.emit(Op::CacheStatic { slot, src: t });
        fc.emit(Op::Ret { src: t });
        fc.finish(true)
    }
}

/// Loop context for break/continue patching.
enum LoopCtx {
    Plain { brks: Vec<usize>, conts: Vec<usize> },
    Event { head: u32 },
}

struct FnCompiler<'a, 'p> {
    c: &'a mut Compiler<'p>,
    ctx: u32,
    ops: Vec<Op>,
    consts: Vec<Value>,
    named: HashMap<String, u16>,
    order: Vec<String>,
    n_named: u16,
    n_params: u16,
    tmp: u16,
    max_reg: u16,
    loops: Vec<LoopCtx>,
    epilogue_jumps: Vec<usize>,
}

impl<'a, 'p> FnCompiler<'a, 'p> {
    fn new(c: &'a mut Compiler<'p>, ctx: u32) -> Self {
        FnCompiler {
            c,
            ctx,
            ops: Vec::new(),
            consts: Vec::new(),
            named: HashMap::new(),
            order: Vec::new(),
            n_named: 0,
            n_params: 0,
            tmp: 0,
            max_reg: 0,
            loops: Vec::new(),
            epilogue_jumps: Vec::new(),
        }
    }

    // ---- name collection (register slots for every referenced name) --

    fn touch(&mut self, name: &str) {
        if !self.named.contains_key(name) {
            let slot = self.named.len() as u16;
            self.named.insert(name.to_string(), slot);
            self.order.push(name.to_string());
        }
    }

    fn seal_names(&mut self) {
        self.n_named = self.named.len() as u16;
        self.tmp = self.n_named;
        self.max_reg = self.n_named;
    }

    fn collect_block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.collect_stmt(s);
        }
    }

    fn collect_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::VarDecl { name, init, .. } => {
                self.touch(name);
                if let Some(e) = init {
                    self.collect_expr(e);
                }
            }
            Stmt::Assign { lhs, rhs, .. } => {
                match lhs {
                    LValue::Var { name, .. } => self.touch(name),
                    LValue::Field { base, .. } => self.collect_expr(base),
                    LValue::Index { base, index, .. } => {
                        self.collect_expr(base);
                        self.collect_expr(index);
                    }
                    LValue::StaticField { .. } => {}
                }
                self.collect_expr(rhs);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                self.collect_expr(cond);
                self.collect_block(then_blk);
                if let Some(e) = else_blk {
                    self.collect_block(e);
                }
            }
            Stmt::While { cond, body, .. } => {
                self.collect_expr(cond);
                self.collect_block(body);
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
                ..
            } => {
                if let Some(i) = init {
                    self.collect_stmt(i);
                }
                if let Some(c) = cond {
                    self.collect_expr(c);
                }
                if let Some(u) = update {
                    self.collect_stmt(u);
                }
                self.collect_block(body);
            }
            Stmt::Return { value, .. } => {
                if let Some(e) = value {
                    self.collect_expr(e);
                }
            }
            Stmt::Break { .. } | Stmt::Continue { .. } => {}
            Stmt::ExprStmt { expr, .. } => self.collect_expr(expr),
            Stmt::Block(b) => self.collect_block(b),
        }
    }

    fn collect_expr(&mut self, e: &Expr) {
        match e {
            Expr::Var { name, .. } => self.touch(name),
            Expr::Field { base, .. } | Expr::Length { base, .. } => self.collect_expr(base),
            Expr::Index { base, index, .. } => {
                self.collect_expr(base);
                self.collect_expr(index);
            }
            Expr::Call(call) => {
                let CallExpr { recv, args, .. } = &**call;
                if let Some(r) = recv {
                    self.collect_expr(r);
                }
                for a in args {
                    self.collect_expr(a);
                }
            }
            Expr::NewArray { len, .. } => self.collect_expr(len),
            Expr::Unary { operand, .. } | Expr::Cast { operand, .. } => self.collect_expr(operand),
            Expr::Binary { lhs, rhs, .. } => {
                self.collect_expr(lhs);
                self.collect_expr(rhs);
            }
            _ => {}
        }
    }

    // ---- emission helpers -------------------------------------------

    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn alloc(&mut self) -> u16 {
        let r = self.tmp;
        self.tmp += 1;
        if self.tmp > self.max_reg {
            self.max_reg = self.tmp;
        }
        r
    }

    fn alloc_n(&mut self, n: u16) -> u16 {
        let r = self.tmp;
        self.tmp += n;
        if self.tmp > self.max_reg {
            self.max_reg = self.tmp;
        }
        r
    }

    fn konst(&mut self, v: Value) -> u32 {
        self.consts.push(v);
        self.consts.len() as u32 - 1
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::Jump { to }
            | Op::JumpIfFalse { to, .. }
            | Op::BranchCond { to, .. }
            | Op::JumpCmpK { to, .. }
            | Op::JumpCounterGe { to, .. }
            | Op::ArgSkip { to, .. } => *to = target,
            Op::VPrep { end, .. } => *end = target,
            other => unreachable!("patched non-jump {other:?}"),
        }
    }

    fn epilogue(&mut self, ret_default: Value) {
        let epi = self.here();
        for j in std::mem::take(&mut self.epilogue_jumps) {
            self.patch(j, epi);
        }
        let t = self.alloc();
        let c = self.konst(ret_default);
        self.emit(Op::Const { dst: t, c });
        self.emit(Op::Ret { src: t });
    }

    fn finish(self, is_static: bool) -> Chunk {
        Chunk {
            ops: self.ops,
            consts: self.consts,
            n_regs: self.max_reg.max(self.n_named),
            n_named: self.n_named,
            n_params: self.n_params,
            is_static,
            ctx: self.ctx,
        }
    }

    fn ctx_name(&self) -> String {
        self.c.classes[self.ctx as usize].name.clone()
    }

    /// `true` when a lexically-enclosing `SSJAVA:` loop exists in this
    /// frame (Flow::Return propagates through plain loops to it).
    fn in_event(&self) -> bool {
        self.loops
            .iter()
            .any(|l| matches!(l, LoopCtx::Event { .. }))
    }

    // ---- statements -------------------------------------------------

    fn compile_block(&mut self, b: &Block) {
        for s in &b.stmts {
            let mark = self.tmp;
            self.compile_stmt(s);
            self.tmp = mark;
        }
    }

    fn compile_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::VarDecl { ty, name, init, .. } => {
                let slot = self.named[name];
                match init {
                    Some(e) => {
                        let t = self.expr(e);
                        self.emit(Op::StepStore { slot, src: t });
                    }
                    None => {
                        let t = self.alloc();
                        let c = self.konst(Value::default_for(ty));
                        self.emit(Op::Const { dst: t, c });
                        self.emit(Op::StoreLocal { slot, src: t });
                    }
                }
            }
            Stmt::Assign { lhs, rhs, .. } => {
                let t = self.expr(rhs);
                self.compile_assign(lhs, t);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let mark = self.tmp;
                let cr = self.expr(cond);
                let j = self.emit(Op::BranchCond {
                    c: cr,
                    to: u32::MAX,
                });
                self.tmp = mark;
                self.compile_block(then_blk);
                if let Some(eb) = else_blk {
                    let j2 = self.emit(Op::Jump { to: u32::MAX });
                    let t = self.here();
                    self.patch(j, t);
                    self.compile_block(eb);
                    let t2 = self.here();
                    self.patch(j2, t2);
                } else {
                    let t = self.here();
                    self.patch(j, t);
                }
            }
            Stmt::While {
                kind, cond, body, ..
            } => {
                if *kind == LoopKind::EventLoop {
                    self.compile_event_loop(cond, body);
                    return;
                }
                let bound = match kind {
                    LoopKind::MaxLoop(n) => Some(*n),
                    _ => None,
                };
                let ctr = if bound.is_some() {
                    let r = self.alloc();
                    self.emit(Op::SetCounter { r });
                    Some(r)
                } else {
                    None
                };
                let head = self.here();
                let jg = bound.map(|b| {
                    self.emit(Op::JumpCounterGe {
                        r: ctr.expect("bounded"),
                        bound: b,
                        to: u32::MAX,
                    })
                });
                let jf = self.jump_unless(cond);
                self.loops.push(LoopCtx::Plain {
                    brks: Vec::new(),
                    conts: Vec::new(),
                });
                self.compile_block(body);
                let Some(LoopCtx::Plain { brks, conts }) = self.loops.pop() else {
                    unreachable!("loop ctx");
                };
                let inc = self.here();
                if let Some(r) = ctr {
                    self.emit(Op::IncCounter { r });
                }
                self.emit(Op::Jump { to: head });
                let end = self.here();
                if let Some(j) = jg {
                    self.patch(j, end);
                }
                self.patch(jf, end);
                for b in brks {
                    self.patch(b, end);
                }
                for cjump in conts {
                    self.patch(cjump, inc);
                }
            }
            Stmt::For {
                kind,
                init,
                cond,
                update,
                body,
                ..
            } => {
                if let Some(i) = init {
                    let mark = self.tmp;
                    self.compile_stmt(i);
                    self.tmp = mark;
                }
                let bound = match kind {
                    LoopKind::MaxLoop(n) => Some(*n),
                    _ => None,
                };
                let ctr = if bound.is_some() {
                    let r = self.alloc();
                    self.emit(Op::SetCounter { r });
                    Some(r)
                } else {
                    None
                };
                let head = self.here();
                let jg = bound.map(|b| {
                    self.emit(Op::JumpCounterGe {
                        r: ctr.expect("bounded"),
                        bound: b,
                        to: u32::MAX,
                    })
                });
                let jf = cond.as_ref().map(|cexpr| self.jump_unless(cexpr));
                self.loops.push(LoopCtx::Plain {
                    brks: Vec::new(),
                    conts: Vec::new(),
                });
                self.compile_block(body);
                let Some(LoopCtx::Plain { brks, conts }) = self.loops.pop() else {
                    unreachable!("loop ctx");
                };
                let upd = self.here();
                if let Some(u) = update {
                    let mark = self.tmp;
                    self.compile_stmt(u);
                    self.tmp = mark;
                }
                if let Some(r) = ctr {
                    self.emit(Op::IncCounter { r });
                }
                self.emit(Op::Jump { to: head });
                let end = self.here();
                if let Some(j) = jg {
                    self.patch(j, end);
                }
                if let Some(j) = jf {
                    self.patch(j, end);
                }
                for b in brks {
                    self.patch(b, end);
                }
                for cjump in conts {
                    self.patch(cjump, upd);
                }
            }
            Stmt::Return { value, .. } => {
                if self.in_event() {
                    // Flow::Return inside the event-loop body ends the
                    // run (the loop breaks, then LoopDone).
                    if let Some(e) = value {
                        self.expr(e);
                    }
                    self.emit(Op::LoopDone);
                } else {
                    let t = match value {
                        Some(e) => self.expr(e),
                        None => {
                            let t = self.alloc();
                            let c = self.konst(Value::Null);
                            self.emit(Op::Const { dst: t, c });
                            t
                        }
                    };
                    self.emit(Op::Ret { src: t });
                }
            }
            Stmt::Break { .. } => {
                let j = self.emit(Op::Jump { to: u32::MAX });
                match self.loops.last_mut() {
                    Some(LoopCtx::Plain { brks, .. }) => brks.push(j),
                    // Break directly in the event body ends the run.
                    Some(LoopCtx::Event { .. }) => self.ops[j] = Op::LoopDone,
                    // Outside any loop: the method returns its default.
                    None => self.epilogue_jumps.push(j),
                }
            }
            Stmt::Continue { .. } => {
                let j = self.emit(Op::Jump { to: u32::MAX });
                match self.loops.last_mut() {
                    Some(LoopCtx::Plain { conts, .. }) => conts.push(j),
                    Some(LoopCtx::Event { head }) => {
                        let h = *head;
                        self.ops[j] = Op::Jump { to: h };
                    }
                    None => self.epilogue_jumps.push(j),
                }
            }
            Stmt::ExprStmt { expr, .. } => {
                self.expr(expr);
            }
            Stmt::Block(b) => self.compile_block(b),
        }
    }

    fn compile_event_loop(&mut self, cond: &Expr, body: &Block) {
        let head = self.here();
        self.emit(Op::ElHead);
        let mark = self.tmp;
        let cr = self.expr(cond);
        self.emit(Op::ElCond { c: cr });
        self.tmp = mark;
        self.emit(Op::IterStart);
        self.loops.push(LoopCtx::Event { head });
        self.compile_block(body);
        self.loops.pop();
        self.emit(Op::Jump { to: head });
    }

    /// Steps the assigned value in `src`, then stores it to `lhs`.
    fn compile_assign(&mut self, lhs: &LValue, src: u16) {
        if !matches!(lhs, LValue::Var { .. }) {
            // The step comes before the target's own base and index
            // are evaluated.
            self.emit(Op::StepVal { r: src });
        }
        match lhs {
            LValue::Var { name, .. } => {
                let slot = self.named[name];
                let cname = self.ctx_name();
                if self.c.program.field(&cname, name).is_some() {
                    let nid = self.c.name(name);
                    let fb = match self.c.layout_off(self.ctx, nid) {
                        Some(off) => StoreFallback::Field { off },
                        None => StoreFallback::Overflow { name: nid },
                    };
                    let fbi = self.c.store_fbs.len() as u32;
                    self.c.store_fbs.push(fb);
                    self.emit(Op::StepStoreOrField { slot, src, fb: fbi });
                } else {
                    self.emit(Op::StepStore { slot, src });
                }
            }
            LValue::Field { base, field, .. } => {
                let b = self.expr(base);
                let name = self.c.name(field);
                self.emit(Op::StoreField { obj: b, src, name });
            }
            LValue::Index { base, index, .. } => {
                let b = self.expr(base);
                let i = self.expr(index);
                self.emit(Op::StoreIndex {
                    arr: b,
                    idx: i,
                    src,
                });
            }
            LValue::StaticField { class, field, .. } => {
                let slot = self.c.static_slot(class, field);
                self.emit(Op::StoreStatic { slot, src });
            }
        }
    }

    // ---- expressions ------------------------------------------------

    fn expr(&mut self, e: &Expr) -> u16 {
        let dst = self.alloc();
        self.expr_into(e, dst);
        dst
    }

    fn const_into(&mut self, dst: u16, v: Value) {
        let c = self.konst(v);
        self.emit(Op::Const { dst, c });
    }

    /// Evaluates `cond` and emits a jump (to be patched) taken unless
    /// it is `true`; an ordering comparison with a literal right operand
    /// jumps on its own result.
    fn jump_unless(&mut self, cond: &Expr) -> usize {
        let mark = self.tmp;
        let fused = match cond {
            Expr::Binary { op, lhs, rhs, .. }
                if op.is_comparison() && !matches!(op, BinOp::Eq | BinOp::Ne) =>
            {
                literal(rhs).map(|v| (*op, lhs, v))
            }
            _ => None,
        };
        let j = match fused {
            Some((op, lhs, v)) => {
                let (a, to) = (self.expr(lhs), u32::MAX);
                let k = self.konst(v);
                self.emit(Op::JumpCmpK { a, k, op, to })
            }
            None => {
                let c = self.expr(cond);
                self.emit(Op::JumpIfFalse { c, to: u32::MAX })
            }
        };
        self.tmp = mark;
        j
    }

    fn expr_into(&mut self, e: &Expr, dst: u16) {
        match e {
            Expr::IntLit { .. }
            | Expr::FloatLit { .. }
            | Expr::BoolLit { .. }
            | Expr::StrLit { .. }
            | Expr::Null { .. } => {
                let v = literal(e).expect("a literal");
                self.const_into(dst, v);
            }
            Expr::This { .. } => {
                self.emit(Op::LoadThis { dst });
            }
            Expr::Var { name, .. } => {
                let slot = self.named[name];
                let fb = self.var_fallback(name);
                let fbi = self.c.var_fbs.len() as u32;
                self.c.var_fbs.push(fb);
                self.emit(Op::LoadLocal { dst, slot, fb: fbi });
            }
            Expr::Field { base, field, .. } => {
                let b = self.expr(base);
                let name = self.c.name(field);
                self.emit(Op::LoadField { dst, obj: b, name });
                self.tmp = b;
            }
            Expr::StaticField { class, field, .. } => {
                let slot = self.c.static_slot(class, field);
                self.emit(Op::LoadStatic { dst, slot });
            }
            Expr::Index { base, index, .. } => {
                let b = self.expr(base);
                let i = self.expr(index);
                self.emit(Op::LoadIndex {
                    dst,
                    arr: b,
                    idx: i,
                });
                self.tmp = b;
            }
            Expr::Length { base, .. } => {
                let b = self.expr(base);
                self.emit(Op::ArrLen { dst, arr: b });
                self.tmp = b;
            }
            Expr::Call(_) => self.compile_call(e, dst),
            Expr::New { class, .. } => {
                let cid = self.c.class_id_or_synth(class);
                self.emit(Op::NewObj { dst, class: cid });
            }
            Expr::NewArray { elem, len, .. } => {
                let l = self.expr(len);
                let c = self.konst(Value::default_for(elem));
                self.emit(Op::NewArr { dst, len: l, c });
                self.tmp = l;
            }
            Expr::Unary { op, operand, .. } => {
                let s = self.expr(operand);
                match op {
                    UnOp::Neg => self.emit(Op::Neg { dst, src: s }),
                    UnOp::Not => self.emit(Op::Not { dst, src: s }),
                };
                self.tmp = s;
            }
            Expr::Binary { op, lhs, rhs, .. } => match op {
                BinOp::And => {
                    let jf = self.jump_unless(lhs);
                    self.expr_into(rhs, dst);
                    let j2 = self.emit(Op::Jump { to: u32::MAX });
                    let f = self.here();
                    self.patch(jf, f);
                    self.const_into(dst, Value::Bool(false));
                    let end = self.here();
                    self.patch(j2, end);
                }
                BinOp::Or => {
                    let jf = self.jump_unless(lhs);
                    self.const_into(dst, Value::Bool(true));
                    let j2 = self.emit(Op::Jump { to: u32::MAX });
                    let f = self.here();
                    self.patch(jf, f);
                    self.expr_into(rhs, dst);
                    let end = self.here();
                    self.patch(j2, end);
                }
                BinOp::Eq | BinOp::Ne => {
                    let a = self.expr(lhs);
                    let b = self.expr(rhs);
                    self.emit(Op::EqCmp {
                        dst,
                        a,
                        b,
                        ne: *op == BinOp::Ne,
                    });
                    self.tmp = a;
                }
                _ => {
                    let (op, cmp) = (*op, op.is_comparison());
                    let a = self.expr(lhs);
                    let ins = match literal(rhs) {
                        Some(v) => {
                            let k = self.konst(v);
                            if cmp {
                                Op::CmpK { dst, a, k, op }
                            } else {
                                Op::ArithK { dst, a, k, op }
                            }
                        }
                        None => {
                            let b = self.expr(rhs);
                            if cmp {
                                Op::Cmp { dst, a, b, op }
                            } else {
                                Op::Arith { dst, a, b, op }
                            }
                        }
                    };
                    self.emit(ins);
                    self.tmp = a;
                }
            },
            Expr::Cast { ty, operand, .. } => match ty {
                Type::Int => {
                    let s = self.expr(operand);
                    self.emit(Op::CastInt { dst, src: s });
                    self.tmp = s;
                }
                Type::Float => {
                    let s = self.expr(operand);
                    self.emit(Op::CastFloat { dst, src: s });
                    self.tmp = s;
                }
                _ => self.expr_into(operand, dst),
            },
        }
    }

    fn var_fallback(&mut self, name: &str) -> VarFallback {
        let cname = self.ctx_name();
        let unbound_msg = self.c.msg(format!("unbound variable `{name}`"));
        match self.c.program.field(&cname, name) {
            None => VarFallback::Unbound { msg: unbound_msg },
            Some(fd) if fd.is_static => {
                let slot = self.c.static_slot(&cname, name);
                VarFallback::StaticRead { slot, unbound_msg }
            }
            Some(fd) => {
                let miss_default = Value::default_for(&fd.ty);
                let nid = self.c.name(name);
                let off = self.c.layout_off(self.ctx, nid).expect("non-static field");
                let miss_msg = self.c.msg(format!("missing field `{name}`"));
                VarFallback::ThisField {
                    off,
                    miss_msg,
                    unbound_msg,
                    miss_default,
                }
            }
        }
    }

    fn compile_call(&mut self, e: &Expr, dst: u16) {
        let Expr::Call(call) = e else {
            self.const_into(dst, Value::Null);
            return;
        };
        let CallExpr {
            recv,
            class_recv,
            name,
            args,
            ..
        } = &**call;
        // Intrinsic class receivers (checked before user classes).
        if let Some(cr) = class_recv {
            match cr.as_str() {
                "Device" => {
                    let chan = self.c.name(name);
                    self.emit(Op::DeviceRead { dst, chan });
                    return;
                }
                "Out" | "System" => {
                    let argbase = self.alloc_n(args.len() as u16);
                    for (j, a) in args.iter().enumerate() {
                        let mark = self.tmp;
                        self.expr_into(a, argbase + j as u16);
                        self.tmp = mark;
                    }
                    self.emit(Op::Emit {
                        dst,
                        argbase,
                        argc: args.len() as u16,
                    });
                    self.tmp = argbase;
                    return;
                }
                "Math" => {
                    let argbase = self.alloc_n(args.len() as u16);
                    for (j, a) in args.iter().enumerate() {
                        let mark = self.tmp;
                        self.expr_into(a, argbase + j as u16);
                        self.tmp = mark;
                    }
                    let nid = self.c.name(name);
                    self.emit(Op::MathCall {
                        dst,
                        name: nid,
                        argbase,
                        argc: args.len() as u16,
                    });
                    self.tmp = argbase;
                    return;
                }
                "SSJavaArray" => {
                    let argbase = self.alloc_n(args.len() as u16);
                    for (j, a) in args.iter().enumerate() {
                        let mark = self.tmp;
                        self.expr_into(a, argbase + j as u16);
                        self.tmp = mark;
                    }
                    if name == "insert" && args.len() == 2 {
                        self.emit(Op::SSInsert {
                            dst,
                            arr: argbase,
                            val: argbase + 1,
                        });
                    } else if name == "clear" && args.len() == 1 {
                        self.emit(Op::SSClear { dst, arr: argbase });
                    } else {
                        let m = self.c.msg(format!("bad SSJavaArray intrinsic `{name}`"));
                        self.emit(Op::SoftNull { dst, msg: m });
                    }
                    self.tmp = argbase;
                    return;
                }
                _ => {}
            }
        }
        match (recv, class_recv) {
            // Virtual call: receiver class known only at runtime.
            (Some(r), _) => {
                let rr = self.expr(r);
                let argbase = self.alloc_n(args.len() as u16);
                let nid = self.c.name(name);
                let vp = self.emit(Op::VPrep {
                    recv: rr,
                    dst,
                    name: nid,
                    argc: args.len() as u16,
                    end: u32::MAX,
                });
                let mut skips = Vec::new();
                for (j, a) in args.iter().enumerate() {
                    skips.push(self.emit(Op::ArgSkip {
                        j: j as u16,
                        to: u32::MAX,
                    }));
                    let mark = self.tmp;
                    self.expr_into(a, argbase + j as u16);
                    self.tmp = mark;
                }
                let go = self.here();
                for sjump in skips {
                    self.patch(sjump, go);
                }
                self.emit(Op::VCallGo {
                    recv: rr,
                    dst,
                    argbase,
                });
                let end = self.here();
                self.patch(vp, end);
                self.tmp = rr;
            }
            // Statically-addressed call (explicit class or unqualified).
            (None, cr) => {
                let (target_class, pass_this) = match cr {
                    Some(cn) => (cn.clone(), false),
                    None => (self.ctx_name(), true),
                };
                match self.c.program.resolve_method(&target_class, name) {
                    None => {
                        // Unknown method: soft error *before* any
                        // argument evaluation.
                        let m = self
                            .c
                            .msg(format!("unknown method `{target_class}.{name}`"));
                        self.emit(Op::SoftNull { dst, msg: m });
                    }
                    Some((decl, m)) => {
                        let is_static = m.is_static;
                        let k = m.params.len().min(args.len());
                        let decl_name = decl.name.clone();
                        let chunk = if is_static {
                            let did = self.c.class_id_or_synth(&decl_name);
                            self.c.chunk_for(did, name).expect("resolvable")
                        } else {
                            let tid = self.c.class_id_or_synth(&target_class);
                            self.c.chunk_for(tid, name).expect("resolvable")
                        };
                        let argbase = self.alloc_n(k as u16);
                        for (j, a) in args.iter().take(k).enumerate() {
                            let mark = self.tmp;
                            self.expr_into(a, argbase + j as u16);
                            self.tmp = mark;
                        }
                        self.emit(Op::CallDirect {
                            dst,
                            chunk,
                            argbase,
                            argc: k as u16,
                            pass_this: pass_this && !is_static,
                        });
                        self.tmp = argbase;
                    }
                }
            }
        }
    }
}

/// The value of a literal expression, which evaluates to a constant
/// without a step.
fn literal(e: &Expr) -> Option<Value> {
    Some(match e {
        Expr::IntLit { value, .. } => Value::Int(*value),
        Expr::FloatLit { value, .. } => Value::Float(*value),
        Expr::BoolLit { value, .. } => Value::Bool(*value),
        Expr::StrLit { value, .. } => Value::Str(value.clone()),
        Expr::Null { .. } => Value::Null,
        _ => return None,
    })
}

// ---- flat heap ------------------------------------------------------

/// Typed metadata for one flat-heap entry.
#[derive(Debug, Clone)]
pub(crate) enum FlatKind {
    /// A class instance: layout slots plus (rare) overflow fields
    /// written under names the class does not declare.
    Object {
        class: u32,
        /// `(name id, absolute slot)` pairs, unsorted (tiny).
        overflow: Vec<(u32, u32)>,
    },
    /// An array; `default` is the element-type default (out-of-bounds
    /// reads and `SSJavaArray.clear`).
    Array { default: Value },
}

#[derive(Debug, Clone)]
pub(crate) struct FlatEntry {
    pub(crate) base: u32,
    pub(crate) len: u32,
    pub(crate) kind: FlatKind,
}

/// Why an indexed access found no element.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ArrayMiss {
    /// The index is outside the array.
    OutOfBounds,
    /// The reference is not to an array.
    NotArray,
}

/// A copy of a [`FlatHeap`]'s state, for O(live-cells) per-trial reset
/// in campaigns (no re-compile, no re-parse, no re-instantiation).
#[derive(Debug, Clone)]
pub struct FlatHeapSnapshot {
    slots: Vec<Value>,
    entries: Vec<FlatEntry>,
}

/// The VM heap: one flat `Vec<Value>` slot arena plus typed per-entry
/// metadata. Entry indices coincide with the tree-walker's `ObjId`s
/// (allocation order is identical), so `Value::Ref` displays match.
#[derive(Debug)]
pub struct FlatHeap<'m> {
    module: &'m Module,
    slots: Vec<Value>,
    entries: Vec<FlatEntry>,
}

impl<'m> FlatHeap<'m> {
    pub(crate) fn new(module: &'m Module) -> Self {
        FlatHeap {
            module,
            slots: Vec::new(),
            entries: Vec::new(),
        }
    }

    pub(crate) fn reset(&mut self) {
        self.slots.clear();
        self.entries.clear();
    }

    /// Captures the current slots + metadata.
    pub fn snapshot(&self) -> FlatHeapSnapshot {
        FlatHeapSnapshot {
            slots: self.slots.clone(),
            entries: self.entries.clone(),
        }
    }

    /// Restores a previous [`FlatHeap::snapshot`], reusing allocations.
    pub fn restore(&mut self, snap: &FlatHeapSnapshot) {
        self.slots.clear();
        self.slots.extend_from_slice(&snap.slots);
        self.entries.clear();
        self.entries.extend_from_slice(&snap.entries);
    }

    /// Whether the heap equals `snap`, values by [`Value::identical`].
    pub(crate) fn matches(&self, snap: &FlatHeapSnapshot) -> bool {
        self.entries.len() == snap.entries.len()
            && self.entries.iter().zip(&snap.entries).all(|(a, b)| {
                a.base == b.base
                    && a.len == b.len
                    && match (&a.kind, &b.kind) {
                        (
                            FlatKind::Object { class, overflow },
                            FlatKind::Object {
                                class: c,
                                overflow: o,
                            },
                        ) => class == c && overflow == o,
                        (FlatKind::Array { default }, FlatKind::Array { default: d }) => {
                            default.identical(d)
                        }
                        _ => false,
                    }
            })
            && identical_values(&self.slots, &snap.slots)
    }

    /// Total mutable cells (the injection address space).
    pub fn cell_count(&self) -> usize {
        (0..self.entries.len()).map(|i| self.entry_cells(i).1).sum()
    }

    pub(crate) fn alloc_object(&mut self, class: u32) -> usize {
        let ci = &self.module.classes[class as usize];
        let base = self.slots.len() as u32;
        self.slots.extend(ci.layout.iter().map(|(_, d)| d.clone()));
        self.entries.push(FlatEntry {
            base,
            len: ci.layout.len() as u32,
            kind: FlatKind::Object {
                class,
                overflow: Vec::new(),
            },
        });
        self.entries.len() - 1
    }

    pub(crate) fn alloc_array(&mut self, default: &Value, n: usize) -> usize {
        let base = self.slots.len() as u32;
        self.slots
            .extend(std::iter::repeat_with(|| default.clone()).take(n));
        self.entries.push(FlatEntry {
            base,
            len: n as u32,
            kind: FlatKind::Array {
                default: default.clone(),
            },
        });
        self.entries.len() - 1
    }

    /// The dynamic class of an object entry (`None` for arrays).
    pub(crate) fn obj_class(&self, id: usize) -> Option<u32> {
        match self.entries.get(id)?.kind {
            FlatKind::Object { class, .. } => Some(class),
            FlatKind::Array { .. } => None,
        }
    }

    /// Field read by (interned) name: layout first, then overflow.
    pub(crate) fn read_field(&self, id: usize, name: u32) -> Option<&Value> {
        let e = self.entries.get(id)?;
        let FlatKind::Object { class, overflow } = &e.kind else {
            return None;
        };
        let ci = &self.module.classes[*class as usize];
        if let Ok(i) = ci.field_index.binary_search_by_key(&name, |&(n, _)| n) {
            let off = ci.field_index[i].1;
            return self.slots.get(e.base as usize + off as usize);
        }
        overflow
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, s)| &self.slots[s as usize])
    }

    /// Field write by name; returns `false` (dropped) on arrays.
    pub(crate) fn write_field(&mut self, id: usize, name: u32, v: Value) -> bool {
        let Some(e) = self.entries.get(id) else {
            return false;
        };
        let FlatKind::Object { class, overflow } = &e.kind else {
            return false;
        };
        let ci = &self.module.classes[*class as usize];
        if let Ok(i) = ci.field_index.binary_search_by_key(&name, |&(n, _)| n) {
            let slot = e.base as usize + ci.field_index[i].1 as usize;
            self.slots[slot] = v;
            return true;
        }
        if let Some(&(_, s)) = overflow.iter().find(|&&(n, _)| n == name) {
            self.slots[s as usize] = v;
            return true;
        }
        // New overflow slot at the end of the arena.
        let slot = self.slots.len() as u32;
        self.slots.push(v);
        let Some(FlatEntry {
            kind: FlatKind::Object { overflow, .. },
            ..
        }) = self.entries.get_mut(id)
        else {
            unreachable!("checked above");
        };
        overflow.push((name, slot));
        true
    }

    /// Direct layout-slot read (`this`-field fast path).
    pub(crate) fn layout_read(&self, id: usize, off: u16) -> Option<&Value> {
        let e = self.entries.get(id)?;
        if !matches!(e.kind, FlatKind::Object { .. }) || off as u32 >= e.len {
            return None;
        }
        self.slots.get(e.base as usize + off as usize)
    }

    /// Direct layout-slot write.
    pub(crate) fn layout_write(&mut self, id: usize, off: u16, v: Value) -> bool {
        let Some(e) = self.entries.get(id) else {
            return false;
        };
        if !matches!(e.kind, FlatKind::Object { .. }) || off as u32 >= e.len {
            return false;
        }
        self.slots[e.base as usize + off as usize] = v;
        true
    }

    /// The arena slot of element `ix` of array `id`: one entry lookup.
    #[inline(always)]
    fn array_slot(&self, id: usize, ix: i64) -> Result<usize, ArrayMiss> {
        match self.entries.get(id) {
            Some(FlatEntry {
                base,
                len,
                kind: FlatKind::Array { .. },
            }) => match usize::try_from(ix) {
                Ok(ix) if ix < *len as usize => Ok(*base as usize + ix),
                _ => Err(ArrayMiss::OutOfBounds),
            },
            _ => Err(ArrayMiss::NotArray),
        }
    }

    #[inline(always)]
    pub(crate) fn array_get(&self, id: usize, ix: i64) -> Result<&Value, ArrayMiss> {
        self.array_slot(id, ix).map(|s| &self.slots[s])
    }

    /// Stores element `ix` of array `id`; on a miss `v` is dropped.
    #[inline(always)]
    pub(crate) fn array_set(&mut self, id: usize, ix: i64, v: Value) -> Result<(), ArrayMiss> {
        let s = self.array_slot(id, ix)?;
        self.slots[s] = v;
        Ok(())
    }

    /// The length of array `id` (`None` when `id` is no array).
    pub(crate) fn array_len(&self, id: usize) -> Option<u32> {
        match self.entries.get(id)? {
            FlatEntry {
                len,
                kind: FlatKind::Array { .. },
                ..
            } => Some(*len),
            _ => None,
        }
    }

    /// The element default of array `id` (out-of-bounds reads).
    pub(crate) fn array_default(&self, id: usize) -> Option<&Value> {
        match &self.entries.get(id)?.kind {
            FlatKind::Array { default } => Some(default),
            FlatKind::Object { .. } => None,
        }
    }

    /// `SSJavaArray.insert`: shift elements one index down and place
    /// `v` at the top (no-op on empty/non-array entries).
    pub(crate) fn ss_insert(&mut self, id: usize, v: Value) {
        if let Some(e) = self.entries.get(id) {
            if matches!(e.kind, FlatKind::Array { .. }) && e.len > 0 {
                let (b, l) = (e.base as usize, e.len as usize);
                self.slots[b..b + l].rotate_left(1);
                self.slots[b + l - 1] = v;
            }
        }
    }

    /// `SSJavaArray.clear`: refill with the element default.
    pub(crate) fn ss_clear(&mut self, id: usize) {
        if let Some(e) = self.entries.get(id) {
            if let FlatKind::Array { default } = &e.kind {
                let (b, l, d) = (e.base as usize, e.len as usize, default.clone());
                for s in &mut self.slots[b..b + l] {
                    *s = d.clone();
                }
            }
        }
    }
}

impl InjectableHeap for FlatHeap<'_> {
    fn entry_count(&self) -> usize {
        self.entries.len()
    }

    fn entry_cells(&self, i: usize) -> (bool, usize) {
        match &self.entries[i].kind {
            FlatKind::Array { .. } => (true, self.entries[i].len as usize),
            FlatKind::Object { overflow, .. } => {
                (false, self.entries[i].len as usize + overflow.len())
            }
        }
    }

    fn cell_mut(&mut self, i: usize, rank: usize) -> Option<&mut Value> {
        let e = self.entries.get(i)?;
        let slot = match &e.kind {
            FlatKind::Array { .. } => {
                let ix = lex_nth_index(e.len as usize, rank)?;
                e.base as usize + ix
            }
            FlatKind::Object { class, overflow } => {
                let ci = &self.module.classes[*class as usize];
                if overflow.is_empty() {
                    let off = *ci.lex_order.get(rank)?;
                    e.base as usize + off as usize
                } else {
                    // Cold path: merge layout + overflow names in
                    // string order (the legacy HashMap-key sort).
                    let mut cells: Vec<(&str, usize)> =
                        ci.lex_order
                            .iter()
                            .map(|&off| {
                                let nid = ci.layout[off as usize].0;
                                (
                                    self.module.names[nid as usize].as_str(),
                                    e.base as usize + off as usize,
                                )
                            })
                            .chain(overflow.iter().map(|&(n, s)| {
                                (self.module.names[n as usize].as_str(), s as usize)
                            }))
                            .collect();
                    cells.sort_unstable();
                    cells.get(rank)?.1
                }
            }
        };
        self.slots.get_mut(slot)
    }
}
