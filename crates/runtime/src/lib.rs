//! # sjava-runtime
//!
//! Execution substrate for the Self-Stabilizing Java reproduction: a
//! register-bytecode VM for the SJava dialect ([`compile`] once, then run
//! a [`Vm`]) with the paper's §4.4 crash-avoidance semantics,
//! deterministic input channels (`Device.*`), output recording
//! (`Out.*`), seeded error injection (§6.2), golden-run recovery
//! measurement and checkpointed fault-injection [`Campaign`]s. The
//! tree-walking [`Interpreter`] runs the same semantics on the AST and is
//! kept as the VM's test oracle: the same program, inputs and injector
//! give byte-identical results on both.
//!
//! The original system generated crash-avoiding Java bytecode and ran on a
//! JVM; this VM provides the same observable contract (run the event
//! loop, corrupt state, watch outputs reconverge) without a managed
//! runtime — see DESIGN.md for the substitution argument.
//!
//! ```
//! use sjava_runtime::{compile, ExecOptions, ScriptedInput, Value, Vm};
//!
//! let program = sjava_syntax::parse(
//!     "class A { void main() { SSJAVA: while (true) {
//!          int x = Device.read(); Out.emit(x + 1); } } }",
//! ).expect("parses");
//! let module = compile(&program);
//! let inputs = ScriptedInput::new().channel("read", vec![Value::Int(41)]);
//! let result = Vm::new(&module, inputs, ExecOptions::default())
//!     .run("A", "main", 1)
//!     .expect("runs");
//! assert_eq!(result.outputs(), vec![Value::Int(42)]);
//! ```

#![warn(missing_docs)]

pub mod bytecode;
pub mod campaign;
pub mod driver;
pub mod inject;
pub mod input;
pub mod interp;
pub mod value;
pub mod vm;

pub use bytecode::{compile, FlatHeapSnapshot, Module};
pub use campaign::{Campaign, CampaignOutcome, Grid, RecoveryHistogram, TrialOutcome};
pub use driver::{compare_runs, compare_window, RecoveryStats};
pub use inject::Injector;
pub use input::{FnInput, InputProvider, ScriptedInput, SeededInput};
pub use interp::{ExecOptions, Interpreter, RunResult, RuntimeError};
pub use value::{Heap, HeapEntry, ObjId, Value};
pub use vm::{Prepared, Recording, TrialRun, Vm, VmSnapshot};
