//! Every place where control leaves the VM's frame loop, in one program.
//!
//! The dispatch loop keeps the running frame's `pc` in a local and writes
//! it back only where control leaves the frame and comes back: a frame
//! push (a direct or virtual call, an object's field initializers, a
//! static's lazy initializer, reached through a `Class.field` read or a
//! bare-name read) and the pause at each iteration start that
//! `Vm::record` and `Vm::replay` take. The other exits discard it: a
//! return pops the frame, a virtual call on `null` fails softly without
//! one, and an error ends the run or is caught at the event loop's head.
//! One iteration of the program below passes through each of them. Each
//! push follows output or a step since the frame's last write-back, so a
//! stale `pc` anywhere repeats them: the outcome would differ from the
//! interpreter's, or a replayed trial from a full run.

use sjava_runtime::inject::InjectKind;
use sjava_runtime::{
    compile, ExecOptions, Injector, Interpreter, RunResult, RuntimeError, ScriptedInput, TrialRun,
    Value, Vm,
};
use sjava_syntax::ast::Program;

const SOURCE: &str = "
class A {
    static int base = seed();
    static int extra = 5 * 2;
    int n;
    void main() {
        SSJAVA: while (true) {
            int x = Device.read();
            int y = twice(x);
            Box b = new Box();
            Out.emit(y + b.get() + b.w[1]);
            Out.emit(A.extra);
            if (x % 2 == 1) {
                R none = null;
                Out.emit(none.f(x));
                Out.emit(x / n);
            }
            Out.emit(base + x);
            if (x > 5) { boom(x); }
            Out.emit(x);
        }
    }
    int twice(int v) { return inc(v) + inc(v + 1); }
    int inc(int v) { return deep(v) + 1; }
    int deep(int v) { return v * 3; }
    static int seed() { return 7; }
    void boom(int v) { int q = C.missing + v; }
}
class Box { int v = 3 + 4; int[] w = new int[2]; int get() { return v; } }
class R { int f(int a) { return a; } }
class C { }
";

const ITERATIONS: usize = 8;

fn program() -> Program {
    sjava_syntax::parse(SOURCE).expect("parses")
}

fn inputs() -> ScriptedInput {
    ScriptedInput::new().channel("read", [2, 4, 1, 6, 3, 8, 5, 10].map(Value::Int).to_vec())
}

/// An iteration takes under 100 steps; the small budget ends a frame
/// that a stale `pc` sends round in a loop within milliseconds.
fn options(ignore_errors: bool) -> ExecOptions {
    ExecOptions {
        ignore_errors,
        max_steps_per_iter: 10_000,
    }
}

fn interpret(
    program: &Program,
    ignore_errors: bool,
    inj: Option<Injector>,
) -> Result<RunResult, RuntimeError> {
    let mut interp = Interpreter::new(program, inputs(), options(ignore_errors));
    if let Some(inj) = inj {
        interp = interp.with_injector(inj);
    }
    interp.run("A", "main", ITERATIONS)
}

#[test]
fn one_iteration_passes_every_frame_exit() {
    let program = program();
    let r = interpret(&program, true, None).expect("runs");
    let log = r.error_log.join("\n");
    for expected in [
        "virtual call on null receiver",
        "division by zero",
        "iteration aborted: unknown static `C.missing`",
    ] {
        assert!(log.contains(expected), "no `{expected}` in:\n{log}");
    }
    // 2 → twice = (2·3+1) + (3·3+1) = 17, plus the field initializer's 7
    // and the array's 0; then the statics, 10 and 7 + x; then x itself.
    assert_eq!(
        r.iteration_outputs[0],
        [24, 10, 9, 2].map(Value::Int).to_vec(),
        "first iteration"
    );
}

#[test]
fn engines_agree_in_ignore_and_strict_modes() {
    let program = program();
    let module = compile(&program);
    for ignore_errors in [true, false] {
        let golden = interpret(&program, ignore_errors, None);
        let steps = golden.as_ref().map_or(60, |r| r.steps);
        let mut injectors = vec![None];
        for trigger in (1..=steps).step_by(5) {
            for kind in [InjectKind::Op, InjectKind::Heap] {
                injectors.push(Some((trigger, kind)));
            }
        }
        for inj in injectors {
            let make = || inj.map(|(t, k)| Injector::with_kind(t, t, k));
            let a = interpret(&program, ignore_errors, make());
            let mut vm = Vm::new(&module, inputs(), options(ignore_errors));
            vm.set_injector(make());
            let b = vm.run("A", "main", ITERATIONS);
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "ignore_errors {ignore_errors}, injector {inj:?}"
            );
        }
        if !ignore_errors {
            assert!(golden.is_err(), "strict mode stops at the first soft error");
        }
    }
}

/// A trial's whole output stream: the golden run's, with the executed
/// iterations in place.
fn stitched(trial: &TrialRun, golden: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut out = golden[..trial.first].to_vec();
    out.extend(trial.outputs.iter().cloned());
    if trial.converged {
        out.extend_from_slice(&golden[trial.first + trial.outputs.len()..]);
    }
    out
}

#[test]
fn replay_from_every_checkpoint_equals_a_full_run() {
    let program = program();
    let module = compile(&program);
    let mut vm = Vm::new(&module, inputs(), options(true));
    let rec = vm.record("A", "main", ITERATIONS).expect("records");
    let plain = interpret(&program, true, None).expect("runs");
    assert_eq!(format!("{:?}", rec.result), format!("{plain:?}"));
    let mut starts = std::collections::BTreeSet::new();
    for trigger in 1..=rec.result.steps + 1 {
        starts.insert(rec.start_step(trigger));
        for kind in [InjectKind::Op, InjectKind::Heap] {
            let inj = || Injector::with_kind(trigger, trigger, kind);
            let trial = vm.replay(&rec, inj()).expect("replays");
            let mut full_vm = Vm::new(&module, inputs(), options(true));
            full_vm.set_injector(Some(inj()));
            let full = full_vm.run("A", "main", ITERATIONS).expect("full run");
            assert_eq!(
                trial.injected_at, full.injected_at,
                "trigger {trigger} {kind:?}"
            );
            assert_eq!(
                format!("{:?}", stitched(&trial, &rec.result.iteration_outputs)),
                format!("{:?}", full.iteration_outputs),
                "trigger {trigger} {kind:?}"
            );
        }
    }
    // `A` has no field initializers, so the first checkpoint sits at
    // step 0: one start per iteration.
    assert_eq!(starts.len(), ITERATIONS, "every checkpoint starts a trial");
}
