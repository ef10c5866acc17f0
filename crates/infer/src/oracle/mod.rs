//! The legacy inference pipeline, kept as the test oracle for the dense
//! engine and run by no command.
//!
//! It builds value flow graphs over string [`Tuple`](crate::Tuple)s on
//! one thread ([`build_flow_graphs`]), decomposes them edge by edge
//! ([`decompose`]) and completes every hierarchy from scratch. The
//! dense engine behind [`crate::infer`] must print the same annotations,
//! lattices and diagnostics; the property tests, the golden suite, the
//! engine pin, the fuzz `infer` oracle and `bench infer` compare the two
//! through [`infer`].

mod decompose;
mod vfg;

pub use decompose::decompose;
pub use vfg::build_flow_graphs;

use crate::{lattgen, FlowGraph, InferenceResult, Mode, Stages};
use sjava_analysis::callgraph::MethodRef;
use sjava_syntax::ast::Program;
use sjava_syntax::diag::Diagnostics;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Infers SJava annotations for `program` on the legacy pipeline, one
/// thread throughout.
///
/// # Errors
///
/// Same conditions as [`crate::infer`].
pub fn infer(program: &Program, mode: Mode) -> Result<InferenceResult, Diagnostics> {
    crate::run(Cow::Borrowed(program), mode, stages())
}

/// [`infer`] on a program the caller owns, annotated in place like
/// [`crate::infer_owned`]: what `bench infer` times against the engine.
///
/// # Errors
///
/// Same conditions as [`crate::infer`].
pub fn infer_owned(program: Program, mode: Mode) -> Result<InferenceResult, Diagnostics> {
    crate::run(Cow::Owned(program), mode, stages())
}

/// The legacy stages, one thread throughout.
fn stages() -> Stages<BTreeMap<MethodRef, FlowGraph>> {
    Stages {
        threads: 1,
        graphs: build_flow_graphs,
        decompose,
        lattices: lattgen::generate_exact,
    }
}
