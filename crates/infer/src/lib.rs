//! # sjava-infer
//!
//! SInfer — the annotation-inference engine of Self-Stabilizing Java
//! (§5; published separately as the ISSRE'13 *SInfer* paper). Given an
//! unannotated program with an `SSJAVA:` event loop, it:
//!
//! 1. builds per-method **value flow graphs** (Figs 5.2/5.3, with ILOC
//!    intermediates and implicit flows);
//! 2. avoids **superfluous cycles** by relocating locals into field
//!    spaces (§5.2.2) and merging genuine cycles into shared locations;
//! 3. decomposes flows into **method/field hierarchy graphs** (§5.2.5);
//! 4. converts hierarchies into lattices via the **Dedekind–MacNeille
//!    completion** — either naively (maximal precision, §5.2.6) or with
//!    the **SInfer simplification** (§5.3: interface graphs, node merges,
//!    merge points, chained local insertion);
//! 5. emits the annotations back into the source.
//!
//! ```
//! use sjava_infer::{infer, Mode};
//!
//! let program = sjava_syntax::parse(
//!     "class A { int cur; int prev;
//!        void main() { SSJAVA: while (true) {
//!            int x = Device.read();
//!            prev = cur; cur = x; Out.emit(prev); } } }",
//! ).expect("parses");
//! let result = infer(&program, Mode::SInfer).expect("inference succeeds");
//! // The inferred field lattice orders prev below cur.
//! let annotated = result.annotated;
//! let lattice = annotated.classes[0].annots.lattice.as_ref().expect("lattice");
//! assert!(lattice.orders.contains(&("prev".to_string(), "cur".to_string())));
//! ```

#![warn(missing_docs)]

pub mod dense;
pub mod emit;
pub mod graph;
pub mod hierarchy;
pub mod lattgen;
pub mod metrics;
pub mod oracle;

use sjava_analysis::callgraph::{self, CallGraph, MethodRef};
use sjava_lattice::LatticeError;
use sjava_syntax::ast::Program;
use sjava_syntax::diag::{Diag, Diagnostics};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub use dense::{
    build_dense_graphs, decompose_dense, DenseFlowGraph, DenseMethodGraph, TupleId, TupleTable,
};
pub use graph::{FlowGraph, Tuple};
pub use hierarchy::Decomposition;
pub use lattgen::{GenLattices, Mode};
pub use metrics::{LatticeStat, Metrics};

/// Per-phase wall-clock breakdown of one inference run.
#[derive(Debug, Clone, Copy, Default)]
pub struct InferTimings {
    /// Value-flow-graph construction (per-method, wave-parallel).
    pub vfg: Duration,
    /// Hierarchy decomposition (classification, relocation, merges).
    pub decompose: Duration,
    /// Lattice generation (Dedekind–MacNeille / SInfer simplification).
    pub lattgen: Duration,
    /// Annotation emission.
    pub emit: Duration,
    /// Worker threads available to the run.
    pub threads: usize,
}

impl InferTimings {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.vfg + self.decompose + self.lattgen + self.emit
    }

    /// `(name, duration)` pairs in pipeline order.
    pub fn phases(&self) -> [(&'static str, Duration); 4] {
        [
            ("vfg", self.vfg),
            ("decompose", self.decompose),
            ("lattgen", self.lattgen),
            ("emit", self.emit),
        ]
    }
}

/// Outcome of annotation inference.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// The program with inferred annotations.
    pub annotated: Program,
    /// The generated lattices.
    pub lattices: GenLattices,
    /// Complexity metrics (Table 6.1).
    pub metrics: Metrics,
    /// Wall-clock inference time.
    pub elapsed: Duration,
    /// Per-phase breakdown.
    pub timings: InferTimings,
}

/// Infers SJava annotations for `program` in the given mode.
///
/// Value flow graphs are built over interned tuple ids, one call-graph
/// wave at a time across the worker pool; decomposition condenses
/// cycles with one SCC pass; and lattice generation memoizes
/// completions and fans out. The result is byte-identical at any pool
/// width, and to the legacy pipeline kept in [`oracle`].
///
/// The annotations go into a copy of `program`, made when emission
/// starts; [`infer_owned`] annotates a program the caller gives up
/// instead, with the same result.
///
/// # Errors
///
/// Returns diagnostics when the program has no event loop, is recursive,
/// or exhibits flows that cannot be represented (§5.2.7).
pub fn infer(program: &Program, mode: Mode) -> Result<InferenceResult, Diagnostics> {
    run(Cow::Borrowed(program), mode, dense_stages())
}

/// [`infer`] on a program the caller owns: the annotations are written
/// into `program` itself, which comes back as
/// [`InferenceResult::annotated`]. `sjava infer` runs this on the program
/// it parsed and stripped, so no copy of the AST is made.
///
/// # Errors
///
/// Same conditions as [`infer`].
pub fn infer_owned(program: Program, mode: Mode) -> Result<InferenceResult, Diagnostics> {
    run(Cow::Owned(program), mode, dense_stages())
}

/// The dense engine's stages, at the pool's width.
fn dense_stages() -> Stages<BTreeMap<MethodRef, DenseMethodGraph>> {
    Stages {
        threads: sjava_par::num_threads(),
        graphs: build_dense_graphs,
        decompose: decompose_dense,
        lattices: lattgen::generate_with,
    }
}

/// One pipeline's stages from the call graph to lattices: the dense ones
/// for [`infer`], the legacy ones for [`oracle::infer`].
struct Stages<G> {
    /// Worker threads the stages may use, as reported in the timings.
    threads: usize,
    /// Builds every reachable method's value flow graph.
    graphs: fn(&Program, &CallGraph) -> G,
    /// Decomposes the graphs into method and field hierarchies.
    decompose: fn(&Program, &CallGraph, &G) -> Decomposition,
    /// Turns every hierarchy into a lattice.
    lattices: fn(&Decomposition, Mode, &Program) -> Result<GenLattices, LatticeError>,
}

/// Runs `stages` between the call graph and the emitted annotations,
/// timing each phase. A borrowed `program` is copied when emission
/// starts, inside the timed emit phase; an owned one is annotated in
/// place.
fn run<G>(
    program: Cow<'_, Program>,
    mode: Mode,
    stages: Stages<G>,
) -> Result<InferenceResult, Diagnostics> {
    let start = Instant::now();
    let mut timings = InferTimings {
        threads: stages.threads,
        ..Default::default()
    };
    let mut diags = Diagnostics::new();
    let Some(cg) = callgraph::build(&program, &mut diags) else {
        return Err(diags);
    };
    let phase = Instant::now();
    let graphs = (stages.graphs)(&program, &cg);
    timings.vfg = phase.elapsed();
    let phase = Instant::now();
    let d = (stages.decompose)(&program, &cg, &graphs);
    timings.decompose = phase.elapsed();
    // Nothing after decomposition reads the graphs: freeing them here
    // keeps them out of the peak memory of lattice generation.
    drop(graphs);
    let phase = Instant::now();
    let gen = match (stages.lattices)(&d, mode, &program) {
        Ok(g) => g,
        Err(e) => {
            diags.push(Diag::infer(
                format!("inference failed to build lattices: {e} (the program may not be self-stabilizing, §5.2.7)"),
                cg.event_loop_span,
            ));
            return Err(diags);
        }
    };
    timings.lattgen = phase.elapsed();
    let metrics = Metrics::from_gen(&gen);
    let phase = Instant::now();
    let mut annotated = program.into_owned();
    emit::annotate(&mut annotated, &cg, &d, &gen);
    timings.emit = phase.elapsed();
    Ok(InferenceResult {
        annotated,
        lattices: gen,
        metrics,
        elapsed: start.elapsed(),
        timings,
    })
}
