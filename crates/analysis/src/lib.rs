//! # sjava-analysis
//!
//! Static analyses of Self-Stabilizing Java (PLDI 2012) that complement
//! the flow-down type system:
//!
//! - [`callgraph`]: methods reachable from the `SSJAVA:` event loop, with
//!   recursion prohibited (§4.3);
//! - [`written`]: the definitely-written (eviction) analysis over heap
//!   paths (§4.2) ensuring stale values cannot survive an iteration;
//! - [`termination`]: the loop-termination analysis (§4.3.1) with
//!   `MAXLOOP_n:` / `TERMINATE_x:` escape hatches (§4.3.2);
//! - [`jtype`]: plain Java-type resolution used by the other phases.
//!
//! ```
//! use sjava_syntax::parse;
//! use sjava_syntax::diag::Diagnostics;
//!
//! let program = parse(
//!     "class A { int v; void main() { SSJAVA: while (true) {
//!          v = Device.read(); Out.emit(v); } } }",
//! ).expect("parses");
//! let mut diags = Diagnostics::new();
//! let cg = sjava_analysis::callgraph::build(&program, &mut diags).expect("event loop found");
//! let eviction = sjava_analysis::written::analyze(&program, &cg, &mut diags);
//! assert!(eviction.is_ok());
//! ```

#![warn(missing_docs)]

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod dense;
pub mod heappath;
pub mod jtype;
pub mod lifetime;
pub mod lint;
pub mod shard;
pub mod termination;
pub mod written;

pub use callgraph::{build as build_callgraph, CallGraph, MethodRef};
pub use cfg::{BasicBlock, BlockId, Cfg, Instr};
pub use dataflow::{live_variables, liveness_per_instr};
pub use dense::{BitSet, VarId, VarInterner};
pub use heappath::HeapPath;
pub use jtype::TypeEnv;
pub use lifetime::{analyze_lifetimes, AllocationSite, Escape};
pub use lint::lint_program;
pub use shard::ShardInput;
pub use written::{analyze as analyze_eviction, EvictionResult, MethodSummary};
