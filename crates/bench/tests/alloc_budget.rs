//! Allocation budget of `sjava infer`'s inference path.
//!
//! A counting global allocator counts the heap allocations each thread
//! makes (`alloc`, `alloc_zeroed` and `realloc` calls), so tests that run
//! in parallel in this binary do not mix their counts. The test pins the
//! pool to one worker, runs the owned inference path that `sjava infer`
//! runs on the 201-method stress corpus (`sjava stress --preset=large`,
//! stripped of its annotations), and asserts a ceiling on the count.
//!
//! It also prints the count per phase. To re-pin the ceiling after a
//! change that moves it, run
//!
//! ```text
//! cargo test --release -p sjava-bench --test alloc_budget -- --nocapture
//! ```
//!
//! and set [`CEILING`] to the printed total plus 10%.

use sjava_analysis::callgraph;
use sjava_bench::stressgen::{generate, StressConfig};
use sjava_infer::{dense, emit, lattgen, Metrics, Mode};
use sjava_syntax::diag::Diagnostics;
use sjava_syntax::strip::strip_in_place;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The most allocations one owned inference run of the corpus may make:
/// the count measured when the ceiling was last pinned, plus 10%.
const CEILING: u64 = 132_500;

struct Counting;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread's last frees may run after its locals are gone.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialized thread local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread has made so far.
fn count() -> u64 {
    COUNT.with(Cell::get)
}

/// Runs `f` and returns its result with the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = count();
    let r = f();
    (r, count() - before)
}

#[test]
fn owned_inference_of_the_large_corpus_stays_under_its_allocation_ceiling() {
    // One worker: every fan-out runs on this thread, where it is counted.
    std::env::set_var(sjava_par::THREADS_ENV, "1");
    let mut program =
        sjava_syntax::parse(&generate(&StressConfig::large())).expect("the corpus parses");
    strip_in_place(&mut program);

    // The stages one by one, for the per-phase table.
    let mut diags = Diagnostics::new();
    let (cg, n_cg) = counted(|| callgraph::build(&program, &mut diags).expect("call graph"));
    let (graphs, n_vfg) = counted(|| dense::build_dense_graphs(&program, &cg));
    let (d, n_decompose) = counted(|| dense::decompose_dense(&program, &cg, &graphs));
    drop(graphs);
    let (gen, n_lattgen) =
        counted(|| lattgen::generate_with(&d, Mode::SInfer, &program).expect("lattices"));
    let (_, n_metrics) = counted(|| Metrics::from_gen(&gen));
    let mut copy = program.clone();
    let (_, n_emit) = counted(|| emit::annotate(&mut copy, &cg, &d, &gen));
    drop((cg, d, gen, copy));

    let (result, total) = counted(|| sjava_infer::infer_owned(program, Mode::SInfer));
    result.expect("the corpus infers");
    println!("allocations per phase, one owned inference of the 201-method corpus:");
    for (phase, n) in [
        ("call graph", n_cg),
        ("vfg", n_vfg),
        ("decompose", n_decompose),
        ("lattgen", n_lattgen),
        ("metrics", n_metrics),
        ("emit", n_emit),
    ] {
        println!("  {phase:<10} {n:>8}");
    }
    println!("  {:<10} {total:>8} (ceiling {CEILING})", "total");
    assert!(
        total <= CEILING,
        "one owned inference made {total} allocations, over the ceiling of {CEILING}; \
         if the rise is intended, re-pin the ceiling as this file's header says"
    );
}
