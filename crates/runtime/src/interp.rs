//! Tree-walking interpreter with the paper's §4.4 crash-avoidance
//! semantics.
//!
//! In *ignore-errors* mode (the paper's code-generation option), failing
//! operations get defined behaviour: a null-pointer dereference yields the
//! field type's default, out-of-bounds reads yield defaults, out-of-bounds
//! writes are dropped, and division by zero yields zero — each logged.
//! In strict mode the same events abort execution with a runtime error.

use crate::inject::Injector;
use crate::input::InputProvider;
use crate::value::{Heap, HeapEntry, ObjId, Value};
use sjava_syntax::ast::*;
use std::collections::HashMap;
use std::fmt;

/// A runtime failure (strict mode only).
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for RuntimeError {}

fn err<T>(msg: impl Into<String>) -> Result<T, RuntimeError> {
    Err(RuntimeError {
        message: msg.into(),
    })
}

/// Execution options.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// §4.4 crash avoidance: log-and-continue on errors.
    pub ignore_errors: bool,
    /// Per-iteration step budget (guards runaway inner loops).
    pub max_steps_per_iter: u64,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            ignore_errors: true,
            max_steps_per_iter: 50_000_000,
        }
    }
}

/// Result of executing an event loop for a number of iterations.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// `Out.*` values grouped by event-loop iteration.
    pub iteration_outputs: Vec<Vec<Value>>,
    /// Total steps executed (writes + arithmetic ops).
    pub steps: u64,
    /// Crash-avoidance log entries.
    pub error_log: Vec<String>,
    /// The step at which the injector fired, if any.
    pub injected_at: Option<u64>,
}

impl RunResult {
    /// All outputs flattened in order.
    pub fn outputs(&self) -> Vec<Value> {
        self.iteration_outputs.iter().flatten().cloned().collect()
    }
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// The interpreter.
pub struct Interpreter<'p, I: InputProvider> {
    program: &'p Program,
    heap: Heap,
    statics: HashMap<(String, String), Value>,
    inputs: I,
    options: ExecOptions,
    injector: Option<Injector>,
    steps: u64,
    iter_start_step: u64,
    outputs: Vec<Vec<Value>>,
    log: Vec<String>,
}

impl<'p, I: InputProvider> Interpreter<'p, I> {
    /// Creates an interpreter over `program` drawing inputs from `inputs`.
    pub fn new(program: &'p Program, inputs: I, options: ExecOptions) -> Self {
        Interpreter {
            program,
            heap: Heap::new(),
            statics: HashMap::new(),
            inputs,
            options,
            injector: None,
            steps: 0,
            iter_start_step: 0,
            outputs: Vec::new(),
            log: Vec::new(),
        }
    }

    /// Arms an error injector.
    pub fn with_injector(mut self, injector: Injector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Runs `class.method` (instantiating `class`), executing the
    /// `SSJAVA:` event loop for at most `iterations` iterations.
    ///
    /// # Errors
    ///
    /// Strict mode propagates runtime failures; ignore-errors mode only
    /// fails on budget exhaustion.
    pub fn run(
        mut self,
        class: &str,
        method: &str,
        iterations: usize,
    ) -> Result<RunResult, RuntimeError> {
        let this = self.instantiate(class)?;
        let decl = self
            .program
            .resolve_method(class, method)
            .map(|(_, m)| m.clone());
        let Some(mdecl) = decl else {
            return err(format!("no method `{class}.{method}`"));
        };
        let mut frame = Frame {
            this: Some(this),
            locals: HashMap::new(),
            class: class.to_string(),
            iterations_left: iterations,
        };
        match self.exec_block(&mdecl.body, &mut frame) {
            Ok(_) | Err(StopKind::LoopDone) => {}
            Err(StopKind::Error(e)) => return Err(e),
        }
        Ok(RunResult {
            iteration_outputs: self.outputs,
            steps: self.steps,
            error_log: self.log,
            injected_at: self.injector.and_then(|i| i.fired_at),
        })
    }

    fn instantiate(&mut self, class: &str) -> Result<ObjId, RuntimeError> {
        // Collect fields along the inheritance chain, defaults first.
        let mut fields = HashMap::new();
        let mut chain = Vec::new();
        let mut cur = self.program.class(class);
        while let Some(c) = cur {
            chain.push(c.name.clone());
            cur = c.superclass.as_deref().and_then(|s| self.program.class(s));
        }
        for cname in chain.iter().rev() {
            let cd = self.program.class(cname).expect("collected above").clone();
            for f in &cd.fields {
                if f.is_static {
                    continue;
                }
                fields.insert(f.name.clone(), Value::default_for(&f.ty));
            }
        }
        let id = self.heap.alloc_object(class, fields);
        // Run initializers with `this` bound.
        for cname in chain.iter().rev() {
            let cd = self.program.class(cname).expect("collected above").clone();
            for f in &cd.fields {
                if f.is_static {
                    continue;
                }
                if let Some(init) = &f.init {
                    let mut frame = Frame {
                        this: Some(id),
                        locals: HashMap::new(),
                        class: class.to_string(),
                        iterations_left: 0,
                    };
                    let v = match self.eval(init, &mut frame) {
                        Ok(v) => v,
                        Err(StopKind::Error(e)) => return Err(e),
                        Err(StopKind::LoopDone) => unreachable!("no loop in initializer"),
                    };
                    self.heap.write_field(id, &f.name, v);
                }
            }
        }
        Ok(id)
    }

    fn static_value(&mut self, class: &str, field: &str) -> Result<Value, RuntimeError> {
        let key = (class.to_string(), field.to_string());
        if let Some(v) = self.statics.get(&key) {
            return Ok(v.clone());
        }
        let Some(fd) = self.program.field(class, field) else {
            return err(format!("unknown static `{class}.{field}`"));
        };
        let fd = fd.clone();
        let v = if let Some(init) = &fd.init {
            let mut frame = Frame {
                this: None,
                locals: HashMap::new(),
                class: class.to_string(),
                iterations_left: 0,
            };
            match self.eval(init, &mut frame) {
                Ok(v) => v,
                Err(StopKind::Error(e)) => return Err(e),
                Err(StopKind::LoopDone) => unreachable!("no loop in static initializer"),
            }
        } else {
            Value::default_for(&fd.ty)
        };
        self.statics.insert(key, v.clone());
        Ok(v)
    }

    /// One interpreter step: counts, checks the budget, and gives the
    /// injector its chance (corrupting either this value or a heap cell).
    fn step(&mut self, v: Value) -> Result<Value, StopKind> {
        self.steps += 1;
        if self.steps - self.iter_start_step > self.options.max_steps_per_iter {
            return Err(StopKind::Error(RuntimeError {
                message: "per-iteration step budget exhausted (runaway loop?)".to_string(),
            }));
        }
        match &mut self.injector {
            Some(inj) => {
                inj.corrupt_heap(self.steps, &mut self.heap);
                Ok(inj.filter(self.steps, v))
            }
            None => Ok(v),
        }
    }

    fn soft_error(&mut self, msg: &str, default: Value) -> Result<Value, StopKind> {
        if self.options.ignore_errors {
            self.log.push(msg.to_string());
            Ok(default)
        } else {
            Err(StopKind::Error(RuntimeError {
                message: msg.to_string(),
            }))
        }
    }

    // ---- statements -------------------------------------------------------

    fn exec_block(&mut self, block: &Block, frame: &mut Frame) -> Result<Flow, StopKind> {
        for s in &block.stmts {
            match self.exec_stmt(s, frame)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, frame: &mut Frame) -> Result<Flow, StopKind> {
        match stmt {
            Stmt::VarDecl { ty, name, init, .. } => {
                let v = match init {
                    Some(e) => {
                        let v = self.eval(e, frame)?;
                        self.step(v)?
                    }
                    None => Value::default_for(ty),
                };
                frame.locals.insert(name.clone(), v);
                Ok(Flow::Normal)
            }
            Stmt::Assign { lhs, rhs, .. } => {
                let v = self.eval(rhs, frame)?;
                let v = self.step(v)?;
                self.assign(lhs, v, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let c = self.eval(cond, frame)?;
                let b = match c.as_bool() {
                    Some(b) => b,
                    None => self
                        .soft_error("non-boolean condition", Value::Bool(false))?
                        .as_bool()
                        .unwrap_or(false),
                };
                if b {
                    self.exec_block(then_blk, frame)
                } else if let Some(e) = else_blk {
                    self.exec_block(e, frame)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While {
                kind, cond, body, ..
            } => {
                if *kind == LoopKind::EventLoop {
                    return self.run_event_loop(cond, body, frame);
                }
                let bound = match kind {
                    LoopKind::MaxLoop(n) => Some(*n),
                    _ => None,
                };
                let mut count = 0u64;
                loop {
                    if let Some(b) = bound {
                        if count >= b {
                            break;
                        }
                    }
                    let c = self.eval(cond, frame)?;
                    if !c.as_bool().unwrap_or(false) {
                        break;
                    }
                    match self.exec_block(body, frame)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    count += 1;
                }
                Ok(Flow::Normal)
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
                    self.exec_stmt(i, frame)?;
                }
                let bound = match kind {
                    LoopKind::MaxLoop(n) => Some(*n),
                    _ => None,
                };
                let mut count = 0u64;
                loop {
                    if let Some(b) = bound {
                        if count >= b {
                            break;
                        }
                    }
                    if let Some(c) = cond {
                        let cv = self.eval(c, frame)?;
                        if !cv.as_bool().unwrap_or(false) {
                            break;
                        }
                    }
                    match self.exec_block(body, frame)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(u) = update {
                        self.exec_stmt(u, frame)?;
                    }
                    count += 1;
                }
                Ok(Flow::Normal)
            }
            Stmt::Return { value, .. } => {
                let v = match value {
                    Some(e) => self.eval(e, frame)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break { .. } => Ok(Flow::Break),
            Stmt::Continue { .. } => Ok(Flow::Continue),
            Stmt::ExprStmt { expr, .. } => {
                self.eval(expr, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::Block(b) => self.exec_block(b, frame),
        }
    }

    fn run_event_loop(
        &mut self,
        cond: &Expr,
        body: &Block,
        frame: &mut Frame,
    ) -> Result<Flow, StopKind> {
        while frame.iterations_left > 0 {
            frame.iterations_left -= 1;
            let c = self.eval(cond, frame)?;
            if !c.as_bool().unwrap_or(true) {
                break;
            }
            self.outputs.push(Vec::new());
            self.iter_start_step = self.steps;
            match self.exec_block(body, frame) {
                Ok(Flow::Break) => break,
                Ok(Flow::Return(_)) => break,
                Ok(_) => {}
                Err(StopKind::Error(e)) if self.options.ignore_errors => {
                    // §4.4: log and continue into the next iteration.
                    self.log.push(format!("iteration aborted: {e}"));
                }
                Err(e) => return Err(e),
            }
        }
        Err(StopKind::LoopDone)
    }

    fn assign(&mut self, lhs: &LValue, v: Value, frame: &mut Frame) -> Result<(), StopKind> {
        match lhs {
            LValue::Var { name, .. } => {
                if frame.locals.contains_key(name) {
                    frame.locals.insert(name.clone(), v);
                } else if frame.this.is_some() && self.program.field(&frame.class, name).is_some() {
                    let this = frame.this.expect("checked");
                    self.heap.write_field(this, name, v);
                } else {
                    frame.locals.insert(name.clone(), v);
                }
                Ok(())
            }
            LValue::Field { base, field, .. } => {
                let b = self.eval(base, frame)?;
                match b {
                    Value::Ref(id) => {
                        self.heap.write_field(id, field, v);
                        Ok(())
                    }
                    _ => {
                        self.soft_error("null dereference on field store", Value::Null)?;
                        Ok(())
                    }
                }
            }
            LValue::Index { base, index, .. } => {
                let b = self.eval(base, frame)?;
                let i = self.eval(index, frame)?;
                let (Value::Ref(id), Some(ix)) = (b, i.as_i64()) else {
                    self.soft_error("bad array store target", Value::Null)?;
                    return Ok(());
                };
                match self.heap.get_mut(id) {
                    Some(HeapEntry::Array { data, .. }) => {
                        if ix >= 0 && (ix as usize) < data.len() {
                            data[ix as usize] = v;
                            Ok(())
                        } else {
                            self.soft_error("array store out of bounds", Value::Null)?;
                            Ok(())
                        }
                    }
                    _ => {
                        self.soft_error("array store on non-array", Value::Null)?;
                        Ok(())
                    }
                }
            }
            LValue::StaticField { class, field, .. } => {
                self.statics.insert((class.clone(), field.clone()), v);
                Ok(())
            }
        }
    }

    // ---- expressions ------------------------------------------------------

    fn eval(&mut self, e: &Expr, frame: &mut Frame) -> Result<Value, StopKind> {
        match e {
            Expr::IntLit { value, .. } => Ok(Value::Int(*value)),
            Expr::FloatLit { value, .. } => Ok(Value::Float(*value)),
            Expr::BoolLit { value, .. } => Ok(Value::Bool(*value)),
            Expr::StrLit { value, .. } => Ok(Value::Str(value.clone())),
            Expr::Null { .. } => Ok(Value::Null),
            Expr::This { .. } => match frame.this {
                Some(id) => Ok(Value::Ref(id)),
                None => self.soft_error("`this` in static context", Value::Null),
            },
            Expr::Var { name, .. } => {
                if let Some(v) = frame.locals.get(name) {
                    Ok(v.clone())
                } else if let (Some(this), Some(_)) =
                    (frame.this, self.program.field(&frame.class, name))
                {
                    let fd = self
                        .program
                        .field(&frame.class, name)
                        .expect("checked")
                        .clone();
                    if fd.is_static {
                        let cv = self.static_value(&frame.class, name);
                        return cv.map_err(StopKind::Error);
                    }
                    match self.heap.read_field(this, name) {
                        Some(v) => Ok(v),
                        None => self.soft_error(
                            &format!("missing field `{name}`"),
                            Value::default_for(&fd.ty),
                        ),
                    }
                } else {
                    self.soft_error(&format!("unbound variable `{name}`"), Value::Null)
                }
            }
            Expr::Field { base, field, .. } => {
                let b = self.eval(base, frame)?;
                match b {
                    Value::Ref(id) => match self.heap.read_field(id, field) {
                        Some(v) => Ok(v),
                        None => {
                            let d = self.field_default(id, field);
                            self.soft_error(&format!("missing field `{field}`"), d)
                        }
                    },
                    _ => {
                        // §4.4: reading a reference field of null yields
                        // the type's default (null/zero).
                        let d = self.null_read_default(base, field, frame);
                        self.soft_error("null dereference on field read", d)
                    }
                }
            }
            Expr::StaticField { class, field, .. } => {
                self.static_value(class, field).map_err(StopKind::Error)
            }
            Expr::Index { base, index, .. } => {
                let b = self.eval(base, frame)?;
                let i = self.eval(index, frame)?;
                let (Value::Ref(id), Some(ix)) = (b, i.as_i64()) else {
                    return self.soft_error("bad array read", Value::Int(0));
                };
                match self.heap.get(id) {
                    Some(HeapEntry::Array { data, elem }) => {
                        if ix >= 0 && (ix as usize) < data.len() {
                            Ok(data[ix as usize].clone())
                        } else {
                            let d = Value::default_for(&elem.clone());
                            self.soft_error("array read out of bounds", d)
                        }
                    }
                    _ => self.soft_error("array read on non-array", Value::Int(0)),
                }
            }
            Expr::Length { base, .. } => {
                let b = self.eval(base, frame)?;
                match b {
                    Value::Ref(id) => match self.heap.get(id) {
                        Some(HeapEntry::Array { data, .. }) => Ok(Value::Int(data.len() as i64)),
                        _ => self.soft_error("length of non-array", Value::Int(0)),
                    },
                    _ => self.soft_error("length of null", Value::Int(0)),
                }
            }
            Expr::Call(_) => self.eval_call(e, frame),
            Expr::New { class, .. } => {
                let id = self.instantiate(class).map_err(StopKind::Error)?;
                Ok(Value::Ref(id))
            }
            Expr::NewArray { elem, len, .. } => {
                let l = self.eval(len, frame)?;
                let n = l.as_i64().unwrap_or(0).max(0) as usize;
                let id = self.heap.alloc_array(elem.clone(), n);
                Ok(Value::Ref(id))
            }
            Expr::Unary { op, operand, .. } => {
                let v = self.eval(operand, frame)?;
                match op {
                    UnOp::Neg => {
                        let r = match v {
                            Value::Int(i) => Value::Int(i.wrapping_neg()),
                            Value::Float(f) => Value::Float(-f),
                            _ => self.soft_error("negation of non-number", Value::Int(0))?,
                        };
                        self.step(r)
                    }
                    UnOp::Not => Ok(Value::Bool(!v.as_bool().unwrap_or(false))),
                }
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                // Short-circuit logicals.
                if *op == BinOp::And {
                    let l = self.eval(lhs, frame)?;
                    if !l.as_bool().unwrap_or(false) {
                        return Ok(Value::Bool(false));
                    }
                    return self.eval(rhs, frame);
                }
                if *op == BinOp::Or {
                    let l = self.eval(lhs, frame)?;
                    if l.as_bool().unwrap_or(false) {
                        return Ok(Value::Bool(true));
                    }
                    return self.eval(rhs, frame);
                }
                let l = self.eval(lhs, frame)?;
                let r = self.eval(rhs, frame)?;
                let v = self.binop(*op, l, r)?;
                if op.is_comparison() {
                    Ok(v)
                } else {
                    self.step(v)
                }
            }
            Expr::Cast { ty, operand, .. } => {
                let v = self.eval(operand, frame)?;
                Ok(match (ty, v) {
                    (Type::Int, Value::Float(f)) => Value::Int(f as i64),
                    (Type::Int, v) => v,
                    (Type::Float, Value::Int(i)) => Value::Float(i as f64),
                    (Type::Float, v) => v,
                    (_, v) => v,
                })
            }
        }
    }

    fn field_default(&self, id: ObjId, field: &str) -> Value {
        self.heap
            .class_of(id)
            .and_then(|c| self.program.field(c, field))
            .map(|f| Value::default_for(&f.ty))
            .unwrap_or(Value::Null)
    }

    fn null_read_default(&self, _base: &Expr, _field: &str, _frame: &Frame) -> Value {
        Value::Null
    }

    fn binop(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value, StopKind> {
        match crate::value::binop_values(op, &l, &r) {
            Ok(v) => Ok(v),
            Err(sf) => self.soft_error(&sf.msg, sf.default),
        }
    }

    fn eval_call(&mut self, e: &Expr, frame: &mut Frame) -> Result<Value, StopKind> {
        let Expr::Call(call) = e else {
            return Ok(Value::Null);
        };
        let CallExpr {
            recv,
            class_recv,
            name,
            args,
            ..
        } = &**call;
        // Intrinsics.
        if let Some(c) = class_recv {
            match c.as_str() {
                "Device" => {
                    let v = self.inputs.next(name);
                    return self.step(v);
                }
                "Out" | "System" => {
                    let mut vals = Vec::new();
                    for a in args {
                        vals.push(self.eval(a, frame)?);
                    }
                    if let Some(last) = self.outputs.last_mut() {
                        last.extend(vals);
                    }
                    return Ok(Value::Null);
                }
                "Math" => {
                    let mut vals = Vec::new();
                    for a in args {
                        vals.push(self.eval(a, frame)?);
                    }
                    let v = self.math_intrinsic(name, &vals)?;
                    return self.step(v);
                }
                "SSJavaArray" => {
                    let mut vals = Vec::new();
                    for a in args {
                        vals.push(self.eval(a, frame)?);
                    }
                    return self.ssjava_array(name, &vals);
                }
                _ => {}
            }
        }
        // Resolve target object and class.
        let (this, dyn_class) = match (recv, class_recv) {
            (Some(r), _) => {
                let rv = self.eval(r, frame)?;
                match rv {
                    Value::Ref(id) => {
                        let c = self
                            .heap
                            .class_of(id)
                            .map(|s| s.to_string())
                            .unwrap_or_else(|| frame.class.clone());
                        (Some(id), c)
                    }
                    _ => {
                        // §4.4: virtual call on null — pick the statically
                        // known target and run it on a fresh receiver
                        // substitute? We log and return a default.
                        return self.soft_error("virtual call on null receiver", Value::Null);
                    }
                }
            }
            (None, Some(c)) => (None, c.clone()),
            (None, None) => (frame.this, frame.class.clone()),
        };
        let Some((decl_class, mdecl)) = self.program.resolve_method(&dyn_class, name) else {
            return self.soft_error(&format!("unknown method `{dyn_class}.{name}`"), Value::Null);
        };
        let mdecl = mdecl.clone();
        let decl_class_name = decl_class.name.clone();
        let mut locals = HashMap::new();
        for (p, a) in mdecl.params.iter().zip(args) {
            let v = self.eval(a, frame)?;
            locals.insert(p.name.clone(), v);
        }
        let mut callee_frame = Frame {
            this: if mdecl.is_static { None } else { this },
            locals,
            class: if mdecl.is_static {
                decl_class_name
            } else {
                dyn_class
            },
            iterations_left: 0,
        };
        match self.exec_block(&mdecl.body, &mut callee_frame)? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::default_for(&mdecl.ret)),
        }
    }

    fn math_intrinsic(&mut self, name: &str, vals: &[Value]) -> Result<Value, StopKind> {
        match crate::value::math_values(name, vals) {
            Ok(v) => Ok(v),
            Err(sf) => self.soft_error(&sf.msg, sf.default),
        }
    }

    fn ssjava_array(&mut self, name: &str, vals: &[Value]) -> Result<Value, StopKind> {
        match (name, vals) {
            // insert(arr, v): shift all elements one index down (towards
            // 0) and place the new value at the highest index (§4.1.3).
            ("insert", [Value::Ref(id), v]) => {
                let v = self.step(v.clone())?;
                if let Some(HeapEntry::Array { data, .. }) = self.heap.get_mut(*id) {
                    let n = data.len();
                    if n > 0 {
                        for i in 0..n - 1 {
                            data[i] = data[i + 1].clone();
                        }
                        data[n - 1] = v;
                    }
                }
                Ok(Value::Null)
            }
            ("clear", [Value::Ref(id)]) => {
                if let Some(HeapEntry::Array { data, elem }) = self.heap.get_mut(*id) {
                    let d = Value::default_for(&elem.clone());
                    for x in data.iter_mut() {
                        *x = d.clone();
                    }
                }
                Ok(Value::Null)
            }
            _ => self.soft_error(&format!("bad SSJavaArray intrinsic `{name}`"), Value::Null),
        }
    }
}

enum StopKind {
    Error(RuntimeError),
    /// The event loop finished its scheduled iterations.
    LoopDone,
}

struct Frame {
    this: Option<ObjId>,
    locals: HashMap<String, Value>,
    class: String,
    iterations_left: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::ScriptedInput;
    use sjava_syntax::parse;

    fn run_src(src: &str, inputs: ScriptedInput, iters: usize) -> RunResult {
        let p = parse(src).expect("parses");
        let interp = Interpreter::new(&p, inputs, ExecOptions::default());
        interp.run("A", "main", iters).expect("runs")
    }

    #[test]
    fn event_loop_emits_per_iteration() {
        let r = run_src(
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
        assert_eq!(r.iteration_outputs.len(), 3);
    }

    #[test]
    fn fields_persist_across_iterations() {
        let r = run_src(
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
        let r = run_src(
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
        let r = run_src(
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
        let r = run_src(
            "class A { int[] h; void main() { h = new int[3]; SSJAVA: while (true) {
                SSJavaArray.insert(h, Device.read());
                Out.emit(h[0]); Out.emit(h[1]); Out.emit(h[2]);
            } } }",
            ScriptedInput::new().channel("read", vec![Value::Int(1), Value::Int(2)]),
            2,
        );
        assert_eq!(
            r.iteration_outputs[0],
            vec![Value::Int(0), Value::Int(0), Value::Int(1)]
        );
        assert_eq!(
            r.iteration_outputs[1],
            vec![Value::Int(0), Value::Int(1), Value::Int(2)]
        );
    }

    #[test]
    fn null_deref_is_ignored_in_crash_avoidance_mode() {
        let r = run_src(
            "class A { R rec; void main() { SSJAVA: while (true) {
                Out.emit(rec.v);
            } } }
             class R { int v; }",
            ScriptedInput::new(),
            2,
        );
        // Null field read yields null (logged); program keeps running.
        assert_eq!(r.iteration_outputs.len(), 2);
        assert!(!r.error_log.is_empty());
    }

    #[test]
    fn strict_mode_propagates_errors() {
        let p = parse(
            "class A { R rec; void main() { SSJAVA: while (true) { Out.emit(rec.v); } } }
             class R { int v; }",
        )
        .expect("parses");
        let interp = Interpreter::new(
            &p,
            ScriptedInput::new(),
            ExecOptions {
                ignore_errors: false,
                ..Default::default()
            },
        );
        assert!(interp.run("A", "main", 1).is_err());
    }

    #[test]
    fn division_by_zero_yields_zero_when_ignoring() {
        let r = run_src(
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
        let r = run_src(
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
        let r = run_src(
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
    fn injection_changes_then_recovers() {
        use crate::inject::Injector;
        let src = "class A { int prev; void main() { SSJAVA: while (true) {
            int x = Device.read();
            Out.emit(prev + x);
            prev = x;
        } } }";
        let p = parse(src).expect("parses");
        let inputs = || ScriptedInput::new().channel("read", vec![Value::Int(1)]);
        let golden = Interpreter::new(&p, inputs(), ExecOptions::default())
            .run("A", "main", 10)
            .expect("golden");
        let injected = Interpreter::new(&p, inputs(), ExecOptions::default())
            .with_injector(Injector::new(99, 7))
            .run("A", "main", 10)
            .expect("injected");
        assert!(injected.injected_at.is_some());
        assert_ne!(golden.outputs(), injected.outputs());
        // Eventually identical again: the last iterations must match.
        assert_eq!(
            golden.iteration_outputs.last(),
            injected.iteration_outputs.last()
        );
    }
}
