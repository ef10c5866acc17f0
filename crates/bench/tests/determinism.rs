//! Determinism regression: the parallel checking pipeline must produce
//! byte-for-byte identical diagnostics at any worker count. Every
//! benchmark program in `sjava-apps` is checked with 1 worker and with
//! several wider pools, and the rendered [`Diagnostics`] are compared as
//! strings. The unannotated `weather` source is included deliberately —
//! it fails the checker, so its (many) error diagnostics exercise the
//! merge order of the per-method buffers.
//!
//! Everything runs in ONE `#[test]` because the worker count is taken
//! from the `SJAVA_THREADS` environment variable, and the test harness
//! runs tests concurrently — a second test mutating the variable would
//! race.

fn apps() -> Vec<(&'static str, String)> {
    // The synthetic stress corpus rides along with the paper apps: its
    // default preset (49 methods) is wide enough to clear the adaptive
    // sequential threshold, so the thread sweep genuinely fans out. A
    // second copy with every @LOC annotation stripped from one class
    // fails the checker, pinning the merge order of a *dense* error list
    // at production scale.
    let stress = sjava_bench::stressgen::generate(&sjava_bench::stressgen::StressConfig::default());
    let broken = stress.replacen("@LOC(\"F0\") ", "", 1);
    assert_ne!(stress, broken, "strip must remove an annotation");
    // The adversarial preset adds the shapes the workers never produce:
    // a deep @DELTA chain, a chain-plus-antichain degenerate lattice,
    // and a @DELEGATE ownership relay ring.
    let adversarial =
        sjava_bench::stressgen::generate(&sjava_bench::stressgen::StressConfig::adversarial());
    vec![
        ("windsensor", sjava_apps::windsensor::SOURCE.to_string()),
        ("eyetrack", sjava_apps::eyetrack::SOURCE.to_string()),
        ("sumobot", sjava_apps::sumobot::SOURCE.to_string()),
        ("mp3dec", sjava_apps::mp3dec::source().to_string()),
        ("weather", sjava_apps::weather::SOURCE.to_string()),
        ("stress_default", stress),
        ("stress_missing_loc", broken),
        ("stress_adversarial", adversarial),
    ]
}

fn render_all(threads: usize) -> String {
    // SAFETY-free in edition 2021: std::env::set_var is a plain fn.
    std::env::set_var(sjava_par::THREADS_ENV, threads.to_string());
    assert_eq!(sjava_par::num_threads(), threads);
    let mut out = String::new();
    for (name, source) in apps() {
        match sjava_core::check_source(&source) {
            Ok(report) => {
                // The merged report must already be in the stable total
                // order on (file, span, code) — downstream consumers
                // (cache replay, JSON/SARIF emitters) rely on it.
                assert!(
                    report.diagnostics.is_sorted(),
                    "{name}: merged diagnostics are not in stable sorted order"
                );
                out.push_str(&format!(
                    "== {name}: ok={} ==\n{}\n",
                    report.is_ok(),
                    report.diagnostics
                ));
            }
            Err(failure) => {
                assert!(
                    failure.diagnostics.is_sorted(),
                    "{name}: parse diagnostics not sorted"
                );
                out.push_str(&format!("== {name}: parse error ==\n{failure}\n"));
            }
        }
    }
    std::env::remove_var(sjava_par::THREADS_ENV);
    out
}

/// Renders every app's diagnostics through the JSON and SARIF emitters,
/// once from a fresh check and once each from a cold and a warm
/// incremental-cache session. All three must serialize to the same bytes
/// at any worker count.
fn render_emitters(threads: usize) -> String {
    std::env::set_var(sjava_par::THREADS_ENV, threads.to_string());
    let mut out = String::new();
    for (name, source) in apps() {
        let file = sjava_syntax::SourceFile::new(format!("{name}.sj"), source.clone());
        let fresh = match sjava_core::check_source(&source) {
            Ok(report) => report.diagnostics,
            Err(failure) => failure.diagnostics,
        };
        let mut session = sjava_cache::IncrementalChecker::new();
        let mut replay = |label: &str| match session.check_source(&source) {
            Ok(report) => {
                let json = sjava_syntax::emit::to_json(&file, &report.diagnostics);
                let sarif = sjava_syntax::emit::to_sarif(&file, &report.diagnostics);
                assert_eq!(
                    json,
                    sjava_syntax::emit::to_json(&file, &fresh),
                    "{name}: {label} cache JSON diverged from fresh check"
                );
                assert_eq!(
                    sarif,
                    sjava_syntax::emit::to_sarif(&file, &fresh),
                    "{name}: {label} cache SARIF diverged from fresh check"
                );
                (json, sarif)
            }
            Err(failure) => (
                sjava_syntax::emit::to_json(&file, &failure.diagnostics),
                sjava_syntax::emit::to_sarif(&file, &failure.diagnostics),
            ),
        };
        let (cold_json, cold_sarif) = replay("cold");
        let (warm_json, warm_sarif) = replay("warm");
        assert_eq!(cold_json, warm_json, "{name}: warm JSON diverged");
        assert_eq!(cold_sarif, warm_sarif, "{name}: warm SARIF diverged");
        out.push_str(&format!("== {name} ==\n{cold_json}{cold_sarif}"));
    }
    std::env::remove_var(sjava_par::THREADS_ENV);
    out
}

/// Runs the dense inference engine over every annotatable app (location
/// annotations stripped first) plus the small stress corpus, in both
/// modes, and renders the re-annotated programs. The dense engine fans
/// its per-method VFG construction and per-class decomposition out over
/// `SJAVA_THREADS` workers, so this string must be byte-identical at
/// any width.
fn render_infer(threads: usize) -> String {
    std::env::set_var(sjava_par::THREADS_ENV, threads.to_string());
    assert_eq!(sjava_par::num_threads(), threads);
    let stress = sjava_bench::stressgen::generate(&sjava_bench::stressgen::StressConfig::small());
    let adversarial =
        sjava_bench::stressgen::generate(&sjava_bench::stressgen::StressConfig::adversarial());
    let sources = [
        ("windsensor", sjava_apps::windsensor::SOURCE),
        ("eyetrack", sjava_apps::eyetrack::SOURCE),
        ("sumobot", sjava_apps::sumobot::SOURCE),
        ("mp3dec", sjava_apps::mp3dec::source()),
        ("stress_small", &stress),
        ("stress_adversarial", &adversarial),
    ];
    let mut out = String::new();
    for (name, source) in sources {
        let program = sjava_syntax::parse(source).expect("parses");
        let stripped = sjava_syntax::strip::strip_location_annotations(&program);
        for mode in [sjava_infer::Mode::Naive, sjava_infer::Mode::SInfer] {
            let result = sjava_infer::infer(&stripped, mode)
                .unwrap_or_else(|d| panic!("{name} {mode:?}: inference failed: {d}"));
            assert_eq!(result.timings.threads, threads);
            out.push_str(&format!(
                "== {name} {mode:?} ==\n{}",
                sjava_syntax::pretty::print_program(&result.annotated)
            ));
        }
    }
    std::env::remove_var(sjava_par::THREADS_ENV);
    out
}

/// Seeded fault-injection trials, run as a campaign whose batches fan
/// out over `SJAVA_THREADS` workers.
fn render_trials(threads: usize) -> String {
    std::env::set_var(sjava_par::THREADS_ENV, threads.to_string());
    let program = sjava_syntax::parse(sjava_apps::windsensor::SOURCE).expect("parses");
    let campaign = sjava_runtime::Campaign {
        trials: 12,
        ..sjava_runtime::Campaign::new(&program, sjava_apps::windsensor::ENTRY, 20)
    };
    let out = campaign
        .run(|| sjava_apps::windsensor::inputs(1))
        .expect("campaign entry resolves")
        .trials
        .iter()
        .map(|t| {
            format!(
                "{},{},{}\n",
                t.seed, t.stats.diverged, t.stats.recovery_iterations
            )
        })
        .collect();
    std::env::remove_var(sjava_par::THREADS_ENV);
    out
}

#[test]
fn diagnostics_identical_at_any_thread_count() {
    let baseline = render_all(1);
    // The verified benchmarks contribute empty diagnostics; weather and
    // the stripped stress corpus contribute long error lists. Both kinds
    // must be stable.
    assert!(baseline.contains("weather"));
    assert!(baseline.contains("== stress_default: ok=true =="));
    assert!(baseline.contains("== stress_missing_loc: ok=false =="));
    assert!(baseline.contains("== stress_adversarial: ok=true =="));
    for threads in [2, 4, 8] {
        let wide = render_all(threads);
        assert_eq!(
            baseline, wide,
            "diagnostics changed between 1 and {threads} worker threads"
        );
    }

    // The structured emitters must be byte-identical at any worker
    // count, and the incremental cache (cold and warm) must serialize
    // to the same bytes as a fresh check — `render_emitters` asserts
    // the cache half internally.
    let emitted = render_emitters(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            emitted,
            render_emitters(threads),
            "JSON/SARIF output changed between 1 and {threads} worker threads"
        );
    }

    // The dense inference engine re-annotates every app byte-identically
    // at any fan-out width (ISSUE 5 acceptance: SJAVA_THREADS=1/4/max).
    let inferred = render_infer(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            inferred,
            render_infer(threads),
            "inferred annotations changed between 1 and {threads} worker threads"
        );
    }

    // Seeded error-injection trials must also be independent of the
    // fan-out width (and of HashMap iteration order — see
    // `Heap::cells_mut`).
    let trials = render_trials(1);
    for threads in [4, 8] {
        assert_eq!(
            trials,
            render_trials(threads),
            "trial outcomes changed between 1 and {threads} worker threads"
        );
    }

    // Parallel front-end sweep (ISSUE 6): forcing the unit threshold to 0
    // sends every multi-class source down the split-lex-parse path at any
    // pool width >= 2 (the paper apps are far below the default
    // threshold, so the sweeps above never reached it). Text diagnostics,
    // the JSON/SARIF emitters, and the inferred annotations — whose SH_*
    // shared-lattice names appear in the pretty-printed programs — must
    // all match the sequential front-end byte for byte.
    std::env::set_var(sjava_par::THRESHOLD_ENV, "0");
    assert_eq!(sjava_par::par_threshold(), 0);
    for threads in [2, 4, 8] {
        assert_eq!(
            baseline,
            render_all(threads),
            "parallel front-end changed diagnostics at {threads} threads"
        );
        assert_eq!(
            emitted,
            render_emitters(threads),
            "parallel front-end changed JSON/SARIF at {threads} threads"
        );
        assert_eq!(
            inferred,
            render_infer(threads),
            "parallel front-end changed inferred annotations at {threads} threads"
        );
    }
    std::env::remove_var(sjava_par::THRESHOLD_ENV);
}
