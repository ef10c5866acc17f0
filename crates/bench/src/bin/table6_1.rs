//! Table 6.1: inference evaluation — lattice complexity (locations and
//! ⊤→⊥ paths, split into simple ≤5 and complex >5 lattices) for the
//! manual annotations, the naive inference, and SInfer; plus inference
//! time and lines of code. The inferred annotations are re-checked, which
//! reproduces the correctness claim of §6.3.1.
//!
//! Usage: `cargo run --release -p sjava-bench --bin table6_1`

use sjava_bench::{assert_clean, write_result};
use sjava_core::check_program;
use sjava_infer::{infer, Metrics, Mode};
use sjava_lattice::Lattice;
use sjava_syntax::ast::Program;
use sjava_syntax::pretty::print_program;
use sjava_syntax::strip::strip_location_annotations;

struct Row {
    benchmark: String,
    variant: &'static str,
    simple_locs: usize,
    simple_paths: u128,
    complex_locs: usize,
    complex_paths: u128,
    time_ms: f64,
    /// Per-phase inference breakdown `[vfg, decompose, lattgen, emit]`
    /// in milliseconds (NaN for the manual rows, which infer nothing).
    phases_ms: [f64; 4],
    loc: usize,
}

fn manual_metrics(program: &Program) -> Metrics {
    // Build the lattices declared by the manual annotations and measure
    // them with the same metric.
    let mut diags = sjava_syntax::diag::Diagnostics::new();
    let lattices = sjava_core::Lattices::build(program, &mut diags);
    let mut gen = sjava_infer::GenLattices::default();
    for (class, lat) in &lattices.fields {
        gen.fields.insert(class.clone(), Lattice::clone(lat));
    }
    for (mref, info) in &lattices.methods {
        gen.methods
            .insert(mref.clone(), Lattice::clone(&info.lattice));
    }
    Metrics::from_gen(&gen)
}

fn rows_for(name: &str, source: &str, out: &mut Vec<Row>) {
    let loc = source
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim().starts_with("//"))
        .count();
    let program = sjava_syntax::parse(source).expect("benchmark parses");

    let manual = manual_metrics(&program);
    out.push(Row {
        benchmark: name.to_string(),
        variant: "manual",
        simple_locs: manual.simple_locations(),
        simple_paths: manual.simple_paths(),
        complex_locs: manual.complex_locations(),
        complex_paths: manual.complex_paths(),
        time_ms: f64::NAN,
        phases_ms: [f64::NAN; 4],
        loc,
    });

    let stripped = strip_location_annotations(&program);
    for (mode, label) in [(Mode::Naive, "naive"), (Mode::SInfer, "SInfer")] {
        let result = infer(&stripped, mode).unwrap_or_else(|d| panic!("{name} {label}: {d}"));
        // Correctness: the inferred annotations must pass the checker.
        let printed = print_program(&result.annotated);
        let reparsed = sjava_syntax::parse(&printed).expect("inferred source parses");
        let report = check_program(&reparsed);
        assert_clean(&format!("{name} {label} (inferred)"), &report.diagnostics);
        out.push(Row {
            benchmark: name.to_string(),
            variant: label,
            simple_locs: result.metrics.simple_locations(),
            simple_paths: result.metrics.simple_paths(),
            complex_locs: result.metrics.complex_locations(),
            complex_paths: result.metrics.complex_paths(),
            time_ms: result.elapsed.as_secs_f64() * 1000.0,
            phases_ms: {
                let mut p = [0.0; 4];
                for (slot, (_, d)) in p.iter_mut().zip(result.timings.phases()) {
                    *slot = d.as_secs_f64() * 1000.0;
                }
                p
            },
            loc,
        });
    }
}

fn main() {
    let mut rows = Vec::new();
    rows_for("MP3", sjava_apps::mp3dec::source(), &mut rows);
    rows_for("Eye", sjava_apps::eyetrack::SOURCE, &mut rows);
    rows_for("Robot", sjava_apps::sumobot::SOURCE, &mut rows);

    println!("Table 6.1 — Inference Evaluation");
    println!(
        "{:<8}{:<8}{:>14}{:>14}{:>15}{:>15}{:>10}{:>9}{:>9}{:>9}{:>9}{:>7}",
        "Bench",
        "Variant",
        "Simple locs",
        "Simple paths",
        "Complex locs",
        "Complex paths",
        "Time ms",
        "vfg",
        "decomp",
        "lattgen",
        "emit",
        "LoC"
    );
    let mut csv = String::from(
        "benchmark,variant,simple_locs,simple_paths,complex_locs,complex_paths,time_ms,\
         vfg_ms,decompose_ms,lattgen_ms,emit_ms,loc\n",
    );
    let fmt_ms = |ms: f64| {
        if ms.is_nan() {
            "n/a".to_string()
        } else {
            format!("{ms:.1}")
        }
    };
    for r in &rows {
        let time = fmt_ms(r.time_ms);
        let [vfg, decompose, lattgen, emit] = r.phases_ms.map(fmt_ms);
        println!(
            "{:<8}{:<8}{:>14}{:>14}{:>15}{:>15}{:>10}{:>9}{:>9}{:>9}{:>9}{:>7}",
            r.benchmark,
            r.variant,
            r.simple_locs,
            r.simple_paths,
            r.complex_locs,
            r.complex_paths,
            time,
            vfg,
            decompose,
            lattgen,
            emit,
            r.loc
        );
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{}\n",
            r.benchmark,
            r.variant,
            r.simple_locs,
            r.simple_paths,
            r.complex_locs,
            r.complex_paths,
            time,
            vfg,
            decompose,
            lattgen,
            emit,
            r.loc
        ));
    }
    println!("\nChecker phase timings (one cold check per benchmark)");
    println!("{:<8}{:>8}  phase breakdown", "Bench", "threads");
    for (name, source) in [
        ("MP3", sjava_apps::mp3dec::source()),
        ("Eye", sjava_apps::eyetrack::SOURCE),
        ("Robot", sjava_apps::sumobot::SOURCE),
    ] {
        let report = sjava_core::check_source(source).expect("benchmark parses");
        assert_clean(name, &report.diagnostics);
        let t = &report.timings;
        let breakdown: Vec<String> = t
            .phases()
            .iter()
            .map(|(phase, d)| format!("{phase} {:.2}ms", d.as_secs_f64() * 1000.0))
            .collect();
        println!(
            "{:<8}{:>8}  {} (total {:.2}ms)",
            name,
            t.threads,
            breakdown.join(", "),
            t.total().as_secs_f64() * 1000.0
        );
    }

    println!(
        "\nAll inferred annotations re-checked successfully (the paper's correctness result)."
    );
    println!(
        "Expected shape (Table 6.1): SInfer produces no more complex-lattice locations/paths than"
    );
    println!(
        "the naive approach, at some extra inference time; manual annotations are the smallest."
    );
    let path = write_result("table6_1.csv", &csv);
    println!("table written to {}", path.display());
}
