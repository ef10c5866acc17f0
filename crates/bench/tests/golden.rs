//! Golden-diagnostic snapshot suite: every `sjava-apps` benchmark and a
//! set of deliberately-broken probe programs are checked, and the
//! rendered report (ok flag, termination-failure count, and every
//! diagnostic line) is compared byte-for-byte against checked-in
//! fixtures under `tests/golden/`.
//!
//! Each source is also run through `sjava_cache::IncrementalChecker`
//! twice — a cold check and a warm replay — and both must render the
//! same bytes as the cache-less `check_source`, so the fixtures pin the
//! incremental pipeline too.
//!
//! To regenerate after an intentional diagnostic change:
//!
//! ```text
//! SJAVA_REGEN_GOLDEN=1 cargo test -p sjava-bench --test golden
//! ```

use std::fs;
use std::path::PathBuf;

/// Set to `1` to rewrite the fixtures instead of comparing against them.
const REGEN_ENV: &str = "SJAVA_REGEN_GOLDEN";

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Renders a report the same way for the full and incremental checkers.
fn render(result: Result<sjava_core::CheckReport, sjava_core::ParseFailure>) -> String {
    match result {
        Ok(report) => format!(
            "ok={} termination_failures={}\n{}",
            report.is_ok(),
            report.termination_failures,
            report.diagnostics
        ),
        Err(failure) => format!("parse error\n{failure}"),
    }
}

fn assert_matches_fixture(name: &str, rendered: &str) {
    let path = fixture_dir().join(format!("{name}.txt"));
    if std::env::var(REGEN_ENV).as_deref() == Ok("1") {
        fs::create_dir_all(fixture_dir()).expect("create fixture dir");
        fs::write(&path, rendered).expect("write fixture");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with {REGEN_ENV}=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "golden mismatch for `{name}`; if the new output is intended, \
         regenerate with {REGEN_ENV}=1 and review the fixture diff"
    );
}

/// Snapshots one source and pins the incremental checker to the same
/// bytes, cold and warm.
fn golden(name: &str, source: &str) {
    let rendered = render(sjava_core::check_source(source));
    assert_matches_fixture(name, &rendered);

    let mut session = sjava_cache::IncrementalChecker::new();
    let cold = render(session.check_source(source));
    assert_eq!(cold, rendered, "{name}: incremental cold check diverged");
    let warm = render(session.check_source(source));
    assert_eq!(warm, rendered, "{name}: incremental warm replay diverged");
}

/// Snapshots the inferred annotations for one source: the location
/// annotations are stripped and both inference modes are run, pinning
/// the exact bytes `sjava infer` would print plus the Table 6.1
/// metrics line. The legacy (sequential, string-keyed) engine must
/// produce the same bytes as the dense default, so the fixtures also
/// pin the oracle equivalence.
fn golden_infer(name: &str, source: &str) {
    let program = sjava_syntax::parse(source).expect("benchmark parses");
    let stripped = sjava_syntax::strip::strip_location_annotations(&program);
    let mut rendered = String::new();
    for (mode, label) in [
        (sjava_infer::Mode::Naive, "naive"),
        (sjava_infer::Mode::SInfer, "SInfer"),
    ] {
        let dense = sjava_infer::infer(&stripped, mode)
            .unwrap_or_else(|d| panic!("{name} {label}: inference failed: {d}"));
        let legacy = sjava_infer::infer_with(&stripped, mode, sjava_infer::Engine::Legacy)
            .unwrap_or_else(|d| panic!("{name} {label}: legacy inference failed: {d}"));
        let printed = sjava_syntax::pretty::print_program(&dense.annotated);
        assert_eq!(
            printed,
            sjava_syntax::pretty::print_program(&legacy.annotated),
            "{name} {label}: dense and legacy engines emitted different annotations"
        );
        let m = &dense.metrics;
        rendered.push_str(&format!(
            "== {label}: locations={} paths={} ==\n{printed}",
            m.simple_locations() + m.complex_locations(),
            m.simple_paths() + m.complex_paths(),
        ));
    }
    assert_matches_fixture(&format!("infer_{name}"), &rendered);
}

#[test]
fn windsensor_matches_golden() {
    golden("windsensor", sjava_apps::windsensor::SOURCE);
}

#[test]
fn eyetrack_matches_golden() {
    golden("eyetrack", sjava_apps::eyetrack::SOURCE);
}

#[test]
fn sumobot_matches_golden() {
    golden("sumobot", sjava_apps::sumobot::SOURCE);
}

#[test]
fn mp3dec_matches_golden() {
    golden("mp3dec", sjava_apps::mp3dec::source());
}

#[test]
fn weather_matches_golden() {
    // The unannotated weather source fails the checker; its long error
    // list pins the merge order of the parallel per-method buffers.
    golden("weather", sjava_apps::weather::SOURCE);
}

#[test]
fn probe_flow_up_matches_golden() {
    golden(
        "probe_flow_up",
        r#"@LATTICE("LO<HI") @METHODDEFAULT("V<IN") @THISLOC("V")
           class A {
               @LOC("HI") int hi; @LOC("LO") int lo;
               void main() {
                   SSJAVA: while (true) {
                       @LOC("IN") int x = Device.read();
                       hi = x;
                       lo = hi;
                       hi = lo;
                       Out.emit(lo);
                   }
               }
           }"#,
    );
}

#[test]
fn probe_implicit_flow_matches_golden() {
    golden(
        "probe_implicit_flow",
        r#"@LATTICE("A<B") @METHODDEFAULT("V<IN") @THISLOC("V")
           class A {
               @LOC("A") int a; @LOC("B") int b;
               void main() {
                   SSJAVA: while (true) {
                       @LOC("IN") int x = Device.read();
                       b = x;
                       a = b;
                       if (a > 0) { b = 1; } else { b = 0; }
                       Out.emit(a);
                   }
               }
           }"#,
    );
}

#[test]
fn probe_unprovable_loop_matches_golden() {
    golden(
        "probe_unprovable_loop",
        "class A { void main() { SSJAVA: while (true) {
            int i = Device.read();
            while (i != 3) { i = Device.read(); }
            Out.emit(i);
        } } }",
    );
}

#[test]
fn probe_stale_heap_matches_golden() {
    // The windsensor example with the `dir2` shift made conditional:
    // `bin.dir2` is still read by `calculate` every iteration but is no
    // longer definitely overwritten, so the eviction analysis (§4.2)
    // must flag the stale heap location.
    golden(
        "probe_stale_heap",
        r#"@LATTICE("DIR<TMP,TMP<BIN")
           class WDSensor {
               @LOC("BIN") WindRec bin;
               @LOC("DIR") int dir;

               @LATTICE("STR<WDOBJ,WDOBJ<IN") @THISLOC("WDOBJ")
               void windDirection() {
                   bin = new WindRec();
                   SSJAVA: while (true) {
                       @LOC("IN") int inDir = Device.readSensor();
                       if (inDir > 0) {
                           bin.dir2 = bin.dir1;
                       }
                       bin.dir1 = bin.dir0;
                       bin.dir0 = inDir;
                       @LOC("STR") int outDir = calculate();
                       Out.emit(outDir);
                   }
               }

               @LATTICE("OUT<TMPD,TMPD<CAOBJ") @THISLOC("CAOBJ") @RETURNLOC("OUT")
               int calculate() {
                   @LOC("CAOBJ,TMP") int majorDir = bin.dir0;
                   if (bin.dir1 == bin.dir2) {
                       majorDir = bin.dir1;
                   }
                   this.dir = majorDir;
                   @LOC("OUT") int strDir = majorDir;
                   return strDir;
               }
           }
           @LATTICE("DIR2<DIR1,DIR1<DIR0")
           class WindRec {
               @LOC("DIR0") int dir0;
               @LOC("DIR1") int dir1;
               @LOC("DIR2") int dir2;
           }"#,
    );
}

#[test]
fn probe_unshared_accumulation_matches_golden() {
    // Accumulating into a non-shared location carries state across
    // iterations, which the flow/eviction rules reject without `ACC*`.
    golden(
        "probe_unshared_accumulation",
        r#"@METHODDEFAULT("ACC<IN,V<ACC") @THISLOC("V")
           class A {
               void main() {
                   SSJAVA: while (true) {
                       @LOC("IN") int n = Device.read();
                       @LOC("ACC") int s = 0;
                       s = s + n;
                       Out.emit(s);
                   }
               }
           }"#,
    );
}

#[test]
fn probe_invalid_lattice_matches_golden() {
    // An invalid `@METHODDEFAULT` inherited by two methods, and a
    // method-level `@LATTICE` with the same content. The lattice model
    // builds each distinct declaration once, yet reports SJ0004 at every
    // use, each at that use's span: twice at the default, once at the
    // method's own declaration. The JSON pins the spans byte for byte.
    let source = r#"@METHODDEFAULT("LO<HI,HI<LO") @THISLOC("LO")
           class A {
               void main() {
                   SSJAVA: while (true) { helper(); Out.emit(1); }
               }
               void helper() { }
               @LATTICE("LO<HI,HI<LO") @THISLOC("LO")
               void other() { }
           }"#;
    golden("probe_invalid_lattice", source);
    let report = sjava_core::check_source(source).expect("parses");
    let file = sjava_syntax::SourceFile::new("probe_invalid_lattice.sj", source);
    let json = sjava_syntax::emit::to_json(&file, &report.diagnostics);
    assert_matches_fixture("probe_invalid_lattice_json", &json);
}

#[test]
fn probe_parse_error_matches_golden() {
    golden("probe_parse_error", "class A { void main( { } }");
}

#[test]
fn stress_small_matches_golden() {
    // The synthetic corpus generator is a pure function of its config,
    // so its checked report can be pinned like any hand-written app:
    // byte-identical source in, byte-identical (clean) report out,
    // fresh and from the cold/warm incremental cache.
    let src = sjava_bench::stressgen::generate(&sjava_bench::stressgen::StressConfig::small());
    golden("stress_small", &src);
}

#[test]
fn stress_adversarial_matches_golden() {
    // The adversarial preset: deep @DELTA chain, chain-plus-antichain
    // degenerate lattice, and a @DELEGATE ownership relay ring — all
    // reachable from the event loop, all checking cleanly, pinned fresh
    // and through the cold/warm incremental cache.
    let src =
        sjava_bench::stressgen::generate(&sjava_bench::stressgen::StressConfig::adversarial());
    golden("stress_adversarial", &src);
}

#[test]
fn infer_stress_adversarial_matches_golden() {
    // Annotations stripped and re-inferred over the adversarial shapes:
    // pins how both engines re-annotate reference-typed @DELEGATE relay
    // parameters and the degenerate lattice's chain/antichain fields.
    let src =
        sjava_bench::stressgen::generate(&sjava_bench::stressgen::StressConfig::adversarial());
    golden_infer("stress_adversarial", &src);
}

#[test]
fn infer_windsensor_matches_golden() {
    golden_infer("windsensor", sjava_apps::windsensor::SOURCE);
}

#[test]
fn infer_eyetrack_matches_golden() {
    golden_infer("eyetrack", sjava_apps::eyetrack::SOURCE);
}

#[test]
fn infer_sumobot_matches_golden() {
    golden_infer("sumobot", sjava_apps::sumobot::SOURCE);
}

#[test]
fn infer_mp3dec_matches_golden() {
    golden_infer("mp3dec", sjava_apps::mp3dec::source());
}

#[test]
fn infer_stress_small_matches_golden() {
    // The small synthetic corpus, annotations stripped and re-inferred:
    // a machine-scale fixture that pins the dense engine's emission
    // order (and the legacy oracle's agreement) beyond the paper apps.
    let src = sjava_bench::stressgen::generate(&sjava_bench::stressgen::StressConfig::small());
    golden_infer("stress_small", &src);
}

#[test]
fn stress_missing_loc_matches_golden() {
    // The same corpus with one class's first @LOC stripped: a dense,
    // machine-generated error list whose order the fixture pins.
    let src = sjava_bench::stressgen::generate(&sjava_bench::stressgen::StressConfig::small());
    let broken = src.replacen("@LOC(\"F0\") ", "", 1);
    assert_ne!(src, broken, "strip must remove an annotation");
    golden("stress_missing_loc", &broken);
}
