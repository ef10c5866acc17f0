//! Every binary operator and unary `-` over every pair of operand kinds,
//! on the VM against the tree-walking interpreter.
//!
//! The VM computes int×int and float×float operations inline and sends
//! every other pair to the shared kernel; the interpreter always calls
//! the kernel. Each case is a one-statement event-loop program whose
//! operands come from input channels (so any value can be one, the int
//! extremes, NaN and the infinities included) or, for the constant-operand
//! ops, from a literal. Both engines run it in ignore and strict modes,
//! plain and with an op injector firing at each step of the iteration,
//! and the full outcomes (outputs, error log, step count, fire step, or
//! the error) must be equal.

use sjava_runtime::{compile, ExecOptions, Injector, Interpreter, ObjId, ScriptedInput, Value, Vm};
use sjava_syntax::ast::Program;

const BINARY: [&str; 18] = [
    "+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||", "&", "|", "^", "<<",
    ">>",
];

const ORDERING: [&str; 4] = ["<", "<=", ">", ">="];

/// The operand values, each with its literal spelling when it has one.
fn operands() -> Vec<(Value, Option<&'static str>)> {
    vec![
        (Value::Int(0), Some("0")),
        (Value::Int(1), Some("1")),
        (Value::Int(-1), None),
        (Value::Int(i64::MAX), Some("9223372036854775807")),
        (Value::Int(i64::MIN), None),
        (Value::Int(63), Some("63")),
        (Value::Int(64), Some("64")),
        (Value::Float(0.0), Some("0.0")),
        (Value::Float(-0.0), None),
        (Value::Float(1.0), Some("1.0")),
        (Value::Float(-1.0), None),
        (Value::Float(1.5), Some("1.5")),
        (Value::Float(f64::NAN), None),
        (Value::Float(f64::INFINITY), None),
        (Value::Float(f64::NEG_INFINITY), None),
        (Value::Bool(true), Some("true")),
        (Value::Bool(false), Some("false")),
        (Value::Str("s".into()), Some("\"s\"")),
        (Value::Str(String::new()), Some("\"\"")),
        (Value::Null, Some("null")),
        // The entry instance: object 0 on either heap.
        (Value::Ref(ObjId(0)), None),
    ]
}

fn program(stmt: &str) -> Program {
    let src = format!("class A {{ void main() {{ SSJAVA: while (true) {{ {stmt} }} }} }}");
    sjava_syntax::parse(&src).unwrap_or_else(|e| panic!("`{stmt}` parses: {e:?}"))
}

/// Runs `program` on both engines in both modes, plain and with an op
/// injector at every step the plain run takes, and demands equal
/// outcomes. Returns how many engine pairs it compared.
fn assert_engines_agree(stmt: &str, program: &Program, inputs: &ScriptedInput) -> usize {
    let module = compile(program);
    let mut compared = 0;
    for ignore_errors in [true, false] {
        let opts = ExecOptions {
            ignore_errors,
            ..ExecOptions::default()
        };
        let run = |trigger: Option<u64>| {
            let mut interp = Interpreter::new(program, inputs.clone(), opts.clone());
            let mut vm = Vm::new(&module, inputs.clone(), opts.clone());
            if let Some(t) = trigger {
                interp = interp.with_injector(Injector::new(t, t));
                vm.set_injector(Some(Injector::new(t, t)));
            }
            let a = interp.run("A", "main", 1);
            let b = vm.run("A", "main", 1);
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "engines differ on `{stmt}` with inputs {inputs:?} \
                 (ignore_errors {ignore_errors}, injector at {trigger:?})"
            );
            a.map_or(0, |r| r.steps)
        };
        let steps = run(None);
        for t in 1..=steps.max(3) {
            run(Some(t));
        }
        compared += 1 + steps.max(3) as usize;
    }
    compared
}

fn channels(a: &Value, b: &Value) -> ScriptedInput {
    ScriptedInput::new()
        .channel("a", vec![a.clone()])
        .channel("b", vec![b.clone()])
}

#[test]
fn every_binary_operator_agrees_on_every_operand_pair() {
    let values = operands();
    let mut compared = 0;
    for op in BINARY {
        // Both operands in registers.
        let stmt = format!("Out.emit(Device.a() {op} Device.b());");
        let p = program(&stmt);
        for (l, _) in &values {
            for (r, _) in &values {
                compared += assert_engines_agree(&stmt, &p, &channels(l, r));
            }
        }
        // A literal right operand: the constant-operand ops.
        for (_, lit) in &values {
            let Some(lit) = lit else { continue };
            let stmt = format!("Out.emit(Device.a() {op} {lit});");
            let p = program(&stmt);
            for (l, _) in &values {
                compared += assert_engines_agree(&stmt, &p, &channels(l, &Value::Null));
            }
        }
    }
    assert!(compared > 100_000, "{compared} engine pairs compared");
}

#[test]
fn compare_and_jump_agrees_on_every_operand_pair() {
    // An ordering comparison as the left side of `||` is only branched
    // on, never stored: `JumpCmpK` with a literal right operand, `Cmp`
    // then `JumpIfFalse` with a register one.
    let values = operands();
    for op in ORDERING {
        let stmt = format!("Out.emit(Device.a() {op} Device.b() || false);");
        let p = program(&stmt);
        for (l, _) in &values {
            for (r, _) in &values {
                assert_engines_agree(&stmt, &p, &channels(l, r));
            }
        }
        for (_, lit) in &values {
            let Some(lit) = lit else { continue };
            let stmt = format!("Out.emit(Device.a() {op} {lit} || false);");
            let p = program(&stmt);
            for (l, _) in &values {
                assert_engines_agree(&stmt, &p, &channels(l, &Value::Null));
            }
        }
    }
}

#[test]
fn negation_agrees_on_every_operand_kind() {
    let stmt = "Out.emit(-Device.a());";
    let p = program(stmt);
    for (v, _) in operands() {
        assert_engines_agree(stmt, &p, &channels(&v, &Value::Null));
    }
}
