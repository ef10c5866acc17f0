//! Runtime values, the heap, and the shared semantic kernels for
//! operators and intrinsics (used by both the tree-walking
//! interpreter and the bytecode VM so the two engines cannot drift).

use sjava_syntax::ast::{BinOp, Type};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a heap object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjId(pub usize);

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer (covers the dialect's `int`).
    Int(i64),
    /// Double-precision float (covers `float`).
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// Reference to a heap object or array.
    Ref(ObjId),
    /// The null reference.
    Null,
}

impl Value {
    /// The default (zero) value for a declared type — also what
    /// crash-avoidance mode substitutes for failed reads (§4.4).
    pub fn default_for(ty: &Type) -> Value {
        match ty {
            Type::Int => Value::Int(0),
            Type::Float => Value::Float(0.0),
            Type::Boolean => Value::Bool(false),
            Type::Str => Value::Str(String::new()),
            Type::Void | Type::Class(_) | Type::Array(_) => Value::Null,
        }
    }

    /// Truthiness for conditions; non-bool values are errors handled by
    /// the caller.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric view as f64 (ints widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// Equality that no later computation can tell apart: floats by bit
    /// pattern, so `-0.0` differs from `0.0` (`Math.pow(x, -1.0)` and
    /// string concatenation tell them apart) and a NaN equals itself.
    pub(crate) fn identical(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }
}

/// [`Value::identical`] over two slices.
pub(crate) fn identical_values(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.identical(y))
}

/// A recoverable (§4.4) evaluation failure: the message that goes to
/// the crash-avoidance log and the default value that stands in for
/// the result when errors are ignored.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftFail {
    /// Log message.
    pub msg: String,
    /// Crash-avoidance substitute value.
    pub default: Value,
}

impl SoftFail {
    fn new(msg: impl Into<String>, default: Value) -> Self {
        SoftFail {
            msg: msg.into(),
            default,
        }
    }
}

/// Applies a binary operator to two values. This is the single source
/// of truth for operator semantics — the interpreter and the VM both
/// delegate here and only differ in how they report the `SoftFail`.
/// The numeric cases go through [`int_binop`] and [`float_binop`],
/// which the VM's dispatch loop also calls directly.
pub(crate) fn binop_values(op: BinOp, l: &Value, r: &Value) -> Result<Value, SoftFail> {
    use BinOp::*;
    // String concatenation.
    if op == Add {
        if let (Value::Str(a), b) = (l, r) {
            return Ok(Value::Str(format!("{a}{b}")));
        }
        if let (a, Value::Str(b)) = (l, r) {
            return Ok(Value::Str(format!("{a}{b}")));
        }
    }
    // Equality works across all values.
    if op == Eq {
        return Ok(Value::Bool(l == r));
    }
    if op == Ne {
        return Ok(Value::Bool(l != r));
    }
    let float_mode = matches!(l, Value::Float(_)) || matches!(r, Value::Float(_));
    if float_mode {
        let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
            return Err(SoftFail::new(
                "arithmetic on non-numbers",
                Value::Float(0.0),
            ));
        };
        float_binop(op, a, b).ok_or_else(|| {
            let msg = match op {
                Div => "float division by zero",
                Rem => "float modulo by zero",
                _ => "bitwise op on floats",
            };
            SoftFail::new(msg, Value::Float(0.0))
        })
    } else {
        let (Some(a), Some(b)) = (l.as_i64(), r.as_i64()) else {
            return Err(SoftFail::new("arithmetic on non-numbers", Value::Int(0)));
        };
        int_binop(op, a, b).ok_or_else(|| {
            let msg = match op {
                Div => "division by zero",
                Rem => "modulo by zero",
                _ => unreachable!("only a zero divisor fails on ints"),
            };
            SoftFail::new(msg, Value::Int(0))
        })
    }
}

/// `op` on two ints: wrapping arithmetic, shift counts masked to 6
/// bits. `None` for a zero divisor, which [`binop_values`] reports.
#[inline(always)]
pub(crate) fn int_binop(op: BinOp, a: i64, b: i64) -> Option<Value> {
    use BinOp::*;
    Some(match op {
        Add => Value::Int(a.wrapping_add(b)),
        Sub => Value::Int(a.wrapping_sub(b)),
        Mul => Value::Int(a.wrapping_mul(b)),
        Div if b != 0 => Value::Int(a.wrapping_div(b)),
        Rem if b != 0 => Value::Int(a.wrapping_rem(b)),
        Div | Rem => return None,
        Lt => Value::Bool(a < b),
        Le => Value::Bool(a <= b),
        Gt => Value::Bool(a > b),
        Ge => Value::Bool(a >= b),
        BitAnd => Value::Int(a & b),
        BitOr => Value::Int(a | b),
        BitXor => Value::Int(a ^ b),
        Shl => Value::Int(a.wrapping_shl((b & 63) as u32)),
        Shr => Value::Int(a.wrapping_shr((b & 63) as u32)),
        And | Or | Eq | Ne => unreachable!("lowered apart from arithmetic"),
    })
}

/// `op` on two floats. `None` for a zero divisor or a bitwise
/// operator, which [`binop_values`] reports.
#[inline(always)]
pub(crate) fn float_binop(op: BinOp, a: f64, b: f64) -> Option<Value> {
    use BinOp::*;
    Some(match op {
        Add => Value::Float(a + b),
        Sub => Value::Float(a - b),
        Mul => Value::Float(a * b),
        Div if b != 0.0 => Value::Float(a / b),
        Rem if b != 0.0 => Value::Float(a % b),
        Lt => Value::Bool(a < b),
        Le => Value::Bool(a <= b),
        Gt => Value::Bool(a > b),
        Ge => Value::Bool(a >= b),
        _ => return None,
    })
}

/// Evaluates a `Math.*` intrinsic over already-evaluated arguments.
/// Shared by interpreter and VM (see [`binop_values`]).
pub(crate) fn math_values(name: &str, vals: &[Value]) -> Result<Value, SoftFail> {
    let f = |v: &Value| v.as_f64().unwrap_or(0.0);
    Ok(match (name, vals) {
        ("abs", [v]) => match v {
            Value::Int(i) => Value::Int(i.wrapping_abs()),
            other => Value::Float(f(other).abs()),
        },
        ("sqrt", [v]) => Value::Float(f(v).max(0.0).sqrt()),
        ("sin", [v]) => Value::Float(f(v).sin()),
        ("cos", [v]) => Value::Float(f(v).cos()),
        ("tanh", [v]) => Value::Float(f(v).tanh()),
        ("floor", [v]) => Value::Float(f(v).floor()),
        ("pow", [a, b]) => Value::Float(f(a).powf(f(b))),
        ("max", [a, b]) => match (a, b) {
            (Value::Int(x), Value::Int(y)) => Value::Int(*x.max(y)),
            _ => Value::Float(f(a).max(f(b))),
        },
        ("min", [a, b]) => match (a, b) {
            (Value::Int(x), Value::Int(y)) => Value::Int(*x.min(y)),
            _ => Value::Float(f(a).min(f(b))),
        },
        _ => {
            return Err(SoftFail::new(
                format!("unknown Math intrinsic `{name}`"),
                Value::Float(0.0),
            ))
        }
    })
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Ref(o) => write!(f, "@{}", o.0),
            Value::Null => write!(f, "null"),
        }
    }
}

/// A heap entry: an object with named fields, or an array.
#[derive(Debug, Clone)]
pub enum HeapEntry {
    /// A class instance.
    Object {
        /// Runtime class name (for dynamic dispatch).
        class: String,
        /// Field values.
        fields: HashMap<String, Value>,
    },
    /// An array of values.
    Array {
        /// Element type (for default values).
        elem: Type,
        /// Contents.
        data: Vec<Value>,
    },
}

/// The interpreter heap: a growable arena of entries.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    entries: Vec<HeapEntry>,
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of allocated entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Allocates an object with the given fields.
    pub fn alloc_object(&mut self, class: &str, fields: HashMap<String, Value>) -> ObjId {
        self.entries.push(HeapEntry::Object {
            class: class.to_string(),
            fields,
        });
        ObjId(self.entries.len() - 1)
    }

    /// Allocates an array of `len` default-initialized elements.
    pub fn alloc_array(&mut self, elem: Type, len: usize) -> ObjId {
        let v = Value::default_for(&elem);
        self.entries.push(HeapEntry::Array {
            elem,
            data: vec![v; len],
        });
        ObjId(self.entries.len() - 1)
    }

    /// Immutable access to an entry.
    pub fn get(&self, id: ObjId) -> Option<&HeapEntry> {
        self.entries.get(id.0)
    }

    /// Mutable access to an entry.
    pub fn get_mut(&mut self, id: ObjId) -> Option<&mut HeapEntry> {
        self.entries.get_mut(id.0)
    }

    /// Reads a field of an object.
    pub fn read_field(&self, id: ObjId, field: &str) -> Option<Value> {
        match self.get(id)? {
            HeapEntry::Object { fields, .. } => fields.get(field).cloned(),
            HeapEntry::Array { .. } => None,
        }
    }

    /// Writes a field of an object.
    pub fn write_field(&mut self, id: ObjId, field: &str, value: Value) -> bool {
        match self.get_mut(id) {
            Some(HeapEntry::Object { fields, .. }) => {
                fields.insert(field.to_string(), value);
                true
            }
            _ => false,
        }
    }

    /// The dynamic class of an object.
    pub fn class_of(&self, id: ObjId) -> Option<&str> {
        match self.get(id)? {
            HeapEntry::Object { class, .. } => Some(class),
            HeapEntry::Array { .. } => None,
        }
    }

    /// Iterates over every mutable cell in the heap (for error injection).
    pub fn cells_mut(&mut self) -> Vec<(&'static str, usize, String)> {
        // Returns (kind, entry index, field-or-index key) descriptors.
        let mut out = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            match e {
                HeapEntry::Object { fields, .. } => {
                    for k in fields.keys() {
                        out.push(("field", i, k.clone()));
                    }
                }
                HeapEntry::Array { data, .. } => {
                    for j in 0..data.len() {
                        out.push(("elem", i, j.to_string()));
                    }
                }
            }
        }
        // `fields` is a HashMap, so the raw order varies per RandomState
        // (i.e. per process and per allocating thread). Seeded injection
        // must pick the same cell for the same seed everywhere, so fix a
        // total order before anyone indexes into this.
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_round_trip() {
        let mut h = Heap::new();
        let id = h.alloc_object("A", HashMap::from([("x".to_string(), Value::Int(3))]));
        assert_eq!(h.read_field(id, "x"), Some(Value::Int(3)));
        assert!(h.write_field(id, "x", Value::Int(7)));
        assert_eq!(h.read_field(id, "x"), Some(Value::Int(7)));
        assert_eq!(h.class_of(id), Some("A"));
    }

    #[test]
    fn array_defaults() {
        let mut h = Heap::new();
        let id = h.alloc_array(Type::Float, 3);
        let HeapEntry::Array { data, .. } = h.get(id).expect("entry") else {
            panic!()
        };
        assert_eq!(data, &vec![Value::Float(0.0); 3]);
    }

    #[test]
    fn operator_kernel_edges() {
        let ok = |op, l, r| binop_values(op, &l, &r).expect("computes");
        let fail = |op, l, r| binop_values(op, &l, &r).expect_err("fails").msg;
        use BinOp::*;
        use Value::{Float, Int};
        assert_eq!(ok(Add, Int(i64::MAX), Int(1)), Int(i64::MIN));
        assert_eq!(ok(Div, Int(i64::MIN), Int(-1)), Int(i64::MIN));
        assert_eq!(ok(Rem, Int(i64::MIN), Int(-1)), Int(0));
        assert_eq!(ok(Shl, Int(1), Int(64)), Int(1));
        assert_eq!(ok(Shl, Int(1), Int(63)), Int(i64::MIN));
        assert_eq!(ok(Shr, Int(i64::MIN), Int(-1)), Int(-1));
        assert_eq!(ok(Add, Int(1), Float(0.5)), Float(1.5));
        assert_eq!(fail(Div, Int(5), Int(0)), "division by zero");
        assert_eq!(fail(Rem, Int(5), Int(0)), "modulo by zero");
        assert_eq!(fail(Div, Float(1.0), Float(-0.0)), "float division by zero");
        assert_eq!(fail(Rem, Int(1), Float(0.0)), "float modulo by zero");
        assert_eq!(fail(BitAnd, Float(1.0), Int(1)), "bitwise op on floats");
        assert_eq!(fail(Add, Value::Null, Int(1)), "arithmetic on non-numbers");
        assert_eq!(
            ok(Add, Value::Null, Value::Str("s".into())),
            Value::Str("nulls".into())
        );
    }

    #[test]
    fn default_values_match_types() {
        assert_eq!(Value::default_for(&Type::Int), Value::Int(0));
        assert_eq!(Value::default_for(&Type::Boolean), Value::Bool(false));
        assert_eq!(Value::default_for(&Type::Class("X".into())), Value::Null);
    }
}
