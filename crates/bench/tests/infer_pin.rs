//! Engine-pin sweep: the dense inference engine (interned value-flow
//! graphs, parallel decomposition, memoized completion) must be
//! observationally identical to the string-keyed oracle
//! (`sjava_infer::oracle`) on the
//! synthetic stress corpus, across a sweep of generator configurations
//! and both inference modes. Compared per run: the re-annotated program
//! bytes, the generated lattice orders (keys + structural
//! fingerprints), and the location assignments.
//!
//! This lives in its own test file — a separate process — so it cannot
//! race the `SJAVA_THREADS` mutation in `determinism.rs`; it runs at
//! whatever width the environment provides.

use sjava_bench::stressgen::{generate, StressConfig};
use sjava_infer::{infer, oracle, Mode};
use sjava_syntax::pretty::print_program;
use sjava_syntax::strip::strip_location_annotations;

/// Generator configurations chosen to stress different axes: call-graph
/// depth, heap-field fan-out, loop nesting, and seed-perturbed literal
/// and field-read choices.
fn sweep() -> Vec<(&'static str, StressConfig)> {
    vec![
        ("small", StressConfig::small()),
        ("default", StressConfig::default()),
        (
            "deep_calls",
            StressConfig {
                classes: 3,
                methods: 10,
                fields: 2,
                loop_depth: 1,
                stmts: 2,
                seed: 7,
                ..StressConfig::default()
            },
        ),
        (
            "wide_heap",
            StressConfig {
                classes: 4,
                methods: 3,
                fields: 8,
                loop_depth: 2,
                stmts: 3,
                seed: 11,
                ..StressConfig::default()
            },
        ),
        (
            "nested_loops",
            StressConfig {
                classes: 2,
                methods: 4,
                fields: 3,
                loop_depth: 4,
                stmts: 2,
                seed: 23,
                ..StressConfig::default()
            },
        ),
        ("adversarial", StressConfig::adversarial()),
    ]
}

fn pin(name: &str, cfg: &StressConfig) {
    let source = generate(cfg);
    let program = sjava_syntax::parse(&source).expect("stress corpus parses");
    let stripped = strip_location_annotations(&program);
    for mode in [Mode::Naive, Mode::SInfer] {
        let legacy = oracle::infer(&stripped, mode);
        let dense = infer(&stripped, mode);
        match (legacy, dense) {
            (Ok(l), Ok(d)) => {
                assert_eq!(
                    print_program(&l.annotated),
                    print_program(&d.annotated),
                    "{name} {mode:?}: annotated programs diverged"
                );
                let lm: Vec<_> = l
                    .lattices
                    .methods
                    .iter()
                    .map(|(k, lat)| (k.clone(), lat.fingerprint()))
                    .collect();
                let dm: Vec<_> = d
                    .lattices
                    .methods
                    .iter()
                    .map(|(k, lat)| (k.clone(), lat.fingerprint()))
                    .collect();
                assert_eq!(lm, dm, "{name} {mode:?}: method lattices diverged");
                let lf: Vec<_> = l
                    .lattices
                    .fields
                    .iter()
                    .map(|(k, lat)| (k.clone(), lat.fingerprint()))
                    .collect();
                let df: Vec<_> = d
                    .lattices
                    .fields
                    .iter()
                    .map(|(k, lat)| (k.clone(), lat.fingerprint()))
                    .collect();
                assert_eq!(lf, df, "{name} {mode:?}: field lattices diverged");
                assert_eq!(
                    l.lattices.method_assign, d.lattices.method_assign,
                    "{name} {mode:?}: method assignments diverged"
                );
                assert_eq!(
                    l.lattices.field_assign, d.lattices.field_assign,
                    "{name} {mode:?}: field assignments diverged"
                );
            }
            (Err(l), Err(d)) => {
                assert_eq!(
                    l.to_string(),
                    d.to_string(),
                    "{name} {mode:?}: engines failed with different diagnostics"
                );
            }
            (l, d) => panic!(
                "{name} {mode:?}: engines disagree on success: legacy ok={}, dense ok={}",
                l.is_ok(),
                d.is_ok()
            ),
        }
    }
}

#[test]
fn dense_engine_pins_to_legacy_across_stress_sweep() {
    for (name, cfg) in sweep() {
        pin(name, &cfg);
    }
}
