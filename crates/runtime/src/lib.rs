//! # sjava-runtime
//!
//! Execution substrate for the Self-Stabilizing Java reproduction: a
//! tree-walking interpreter for the SJava dialect with the paper's §4.4
//! crash-avoidance semantics, deterministic input channels (`Device.*`),
//! output recording (`Out.*`), seeded error injection (§6.2), and
//! golden-run recovery measurement.
//!
//! The original system generated crash-avoiding Java bytecode and ran on a
//! JVM; this interpreter provides the same observable contract (run the
//! event loop, corrupt state, watch outputs reconverge) without a managed
//! runtime — see DESIGN.md for the substitution argument.
//!
//! ```
//! use sjava_runtime::{Interpreter, ExecOptions, ScriptedInput, Value};
//!
//! let program = sjava_syntax::parse(
//!     "class A { void main() { SSJAVA: while (true) {
//!          int x = Device.read(); Out.emit(x + 1); } } }",
//! ).expect("parses");
//! let inputs = ScriptedInput::new().channel("read", vec![Value::Int(41)]);
//! let result = Interpreter::new(&program, inputs, ExecOptions::default())
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
