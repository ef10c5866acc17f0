//! The inference engine's headline property, tested on *generated*
//! programs: for any program that is self-stabilizing by construction
//! (every field overwritten each iteration, dataflow a DAG over fields),
//! inference must succeed in both modes and the inferred annotations must
//! pass the full checker.

use proptest::prelude::*;
use sjava_core::check_program;
use sjava_infer::{infer, infer_owned, oracle, Mode};
use sjava_syntax::pretty::print_program;

/// Generates an event loop over `n` fields where field `i`'s new value
/// depends only on fresh input and fields with *smaller* index (written
/// earlier in the same iteration), plus optional locals and conditionals
/// — a family that is always self-stabilizing.
fn arb_program() -> impl Strategy<Value = String> {
    let n = 2usize..6;
    n.prop_flat_map(|n| {
        let deps = prop::collection::vec(
            (0..n, prop::collection::vec(0..n, 0..3), any::<bool>(), any::<bool>()),
            n..n * 2,
        );
        deps.prop_map(move |specs| {
            let mut body = String::from("int inp = Device.read();\n");
            let mut written = vec![false; n];
            let mut stmts = String::new();
            let mut local_counter = 0usize;
            for (target, reads, use_local, conditional) in specs {
                // Expression over input + already-written smaller fields.
                let mut expr = String::from("inp");
                for r in reads {
                    if r < target && written[r] {
                        expr.push_str(&format!(" + f{r}"));
                    }
                }
                if use_local {
                    let l = format!("t{local_counter}");
                    local_counter += 1;
                    stmts.push_str(&format!("int {l} = {expr} * 2;\n"));
                    expr = l;
                }
                if conditional && written[target] {
                    // Conditional REwrite of an already-written field is
                    // fine (it stays definitely written this iteration).
                    stmts.push_str(&format!(
                        "if (inp > 3) {{ f{target} = {expr}; }}\n"
                    ));
                } else {
                    stmts.push_str(&format!("f{target} = {expr};\n"));
                    written[target] = true;
                }
            }
            // Ensure every field is definitely written.
            for (i, w) in written.iter().enumerate() {
                if !w {
                    stmts.push_str(&format!("f{i} = inp;\n"));
                }
            }
            body.push_str(&stmts);
            let emit: Vec<String> = (0..n).map(|i| format!("f{i}")).collect();
            let fields: String = (0..n).map(|i| format!("int f{i}; ")).collect();
            format!(
                "class G {{ {fields} void main() {{ SSJAVA: while (true) {{\n{body}Out.emit({});\n}} }} }}",
                emit.join(" + ")
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn inference_round_trips_on_generated_programs(src in arb_program()) {
        let program = sjava_syntax::parse(&src).expect("generated source parses");
        for mode in [Mode::Naive, Mode::SInfer] {
            let result = infer(&program, mode);
            let result = match result {
                Ok(r) => r,
                Err(d) => return Err(TestCaseError::fail(format!("{mode:?} inference failed: {d}\n{src}"))),
            };
            let printed = print_program(&result.annotated);
            let reparsed = sjava_syntax::parse(&printed).expect("printed source parses");
            let report = check_program(&reparsed);
            prop_assert!(
                report.is_ok(),
                "{mode:?} annotations fail to check:\n{}\noriginal:\n{src}\nannotated:\n{printed}",
                report.diagnostics
            );
            // Metrics are consistent.
            prop_assert!(result.metrics.total_locations() >= 1);
            prop_assert!(result.metrics.total_paths() >= 1);
        }
    }

    /// `infer` leaves the program it borrows unchanged, and prints the
    /// same annotations, lattices and diagnostics as `infer_owned`, which
    /// annotates the program it is given.
    #[test]
    fn borrowed_inference_leaves_its_input_unchanged(src in arb_program()) {
        let program = sjava_syntax::parse(&src).expect("generated source parses");
        let before = program.clone();
        for mode in [Mode::Naive, Mode::SInfer] {
            let render = |r: Result<sjava_infer::InferenceResult, _>| match r {
                Ok(r) => Ok((print_program(&r.annotated), r.metrics)),
                Err(d) => Err(format!("{d}")),
            };
            let borrowed = render(infer(&program, mode));
            prop_assert!(program == before, "{:?}: infer changed its input:\n{}", mode, src);
            let owned = render(infer_owned(program.clone(), mode));
            prop_assert_eq!(borrowed, owned, "{:?}: borrowed and owned inference differ", mode);
        }
    }

    /// The dense interned pipeline is byte-identical to the legacy string
    /// pipeline: same annotations, same lattices (names *and* orders, via
    /// the structural fingerprint), same assignments, same diagnostics.
    #[test]
    fn dense_engine_matches_legacy(src in arb_program()) {
        let program = sjava_syntax::parse(&src).expect("generated source parses");
        for mode in [Mode::Naive, Mode::SInfer] {
            let legacy = oracle::infer(&program, mode);
            let dense = infer(&program, mode);
            match (legacy, dense) {
                (Ok(l), Ok(d)) => {
                    prop_assert_eq!(
                        print_program(&l.annotated),
                        print_program(&d.annotated),
                        "{:?}: annotated output diverges on:\n{}",
                        mode,
                        src
                    );
                    let lm: Vec<_> = l.lattices.methods.iter()
                        .map(|(k, lat)| (k.clone(), lat.fingerprint())).collect();
                    let dm: Vec<_> = d.lattices.methods.iter()
                        .map(|(k, lat)| (k.clone(), lat.fingerprint())).collect();
                    prop_assert_eq!(lm, dm, "{:?}: method lattices diverge", mode);
                    let lf: Vec<_> = l.lattices.fields.iter()
                        .map(|(k, lat)| (k.clone(), lat.fingerprint())).collect();
                    let df: Vec<_> = d.lattices.fields.iter()
                        .map(|(k, lat)| (k.clone(), lat.fingerprint())).collect();
                    prop_assert_eq!(lf, df, "{:?}: field lattices diverge", mode);
                    prop_assert_eq!(&l.lattices.method_assign, &d.lattices.method_assign);
                    prop_assert_eq!(&l.lattices.field_assign, &d.lattices.field_assign);
                }
                (Err(l), Err(d)) => {
                    prop_assert_eq!(l.to_string(), d.to_string(),
                        "{:?}: diagnostics diverge on:\n{}", mode, src);
                }
                (l, d) => {
                    return Err(TestCaseError::fail(format!(
                        "{mode:?}: engines disagree on success: legacy={} dense={}\n{src}",
                        l.is_ok(), d.is_ok()
                    )));
                }
            }
        }
    }
}
