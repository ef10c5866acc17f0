//! The `sjava` command-line tool, end to end.

use std::process::Command;

fn sjava(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sjava"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sjava-cli-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write");
    path
}

#[test]
fn check_accepts_good_program() {
    let path = write_temp("good.sj", sjava::apps::windsensor::SOURCE);
    let out = sjava(&["check", path.to_str().expect("utf8")]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("self-stabilizing"), "{stdout}");
}

#[test]
fn check_rejects_bad_program() {
    let path = write_temp(
        "bad.sj",
        r#"@LATTICE("A<B") @METHODDEFAULT("V<IN") @THISLOC("V")
           class C {
               @LOC("A") int a; @LOC("B") int b;
               void main() { SSJAVA: while (true) { @LOC("IN") int x = Device.read(); a = x; b = a; Out.emit(b); } }
           }"#,
    );
    let out = sjava(&["check", path.to_str().expect("utf8")]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("flow-down"), "{stderr}");
}

#[test]
fn infer_emits_checkable_source() {
    let path = write_temp("weather.sj", sjava::apps::weather::SOURCE);
    let out = sjava(&["infer", path.to_str().expect("utf8")]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let annotated = String::from_utf8_lossy(&out.stdout);
    assert!(annotated.contains("@LATTICE"), "{annotated}");
    // The printed source checks.
    let reparsed = sjava::parse(&annotated).expect("parses");
    assert!(sjava::check(&reparsed).is_ok());
}

/// What `sjava run` prints for `source`, rendered from an in-process
/// tree-walker run with the same inputs: stdout, and the error-count
/// line if any error was ignored.
fn interpreted(source: &str, entry: (&str, &str), iterations: usize) -> (String, Option<String>) {
    let program = sjava::parse(source).expect("parses");
    let inputs = sjava::runtime::SeededInput::new(0);
    let result = sjava::runtime::Interpreter::new(&program, inputs, sjava::ExecOptions::default())
        .run(entry.0, entry.1, iterations)
        .expect("runs");
    let stdout = result
        .iteration_outputs
        .iter()
        .enumerate()
        .map(|(i, outs)| {
            let rendered: Vec<String> = outs.iter().map(|v| v.to_string()).collect();
            format!("iter {i}: {}\n", rendered.join(" "))
        })
        .collect();
    let errors = (!result.error_log.is_empty()).then(|| {
        format!(
            "// {} errors ignored (crash avoidance)",
            result.error_log.len()
        )
    });
    (stdout, errors)
}

#[test]
fn run_executes_iterations() {
    // The second program hits an out-of-bounds index and a division by
    // zero in some iterations, so the error-count line is exercised too.
    let faulty = "class A { int[] buf; void main() { buf = new int[2]; SSJAVA: while (true) {
        int x = Device.read(); Out.emit(buf[x % 5] + 100 / (x % 3)); } } }";
    for (name, source, entry, iterations) in [
        (
            "sensor.sj",
            sjava::apps::windsensor::SOURCE,
            ("WDSensor", "windDirection"),
            3,
        ),
        ("faulty.sj", faulty, ("A", "main"), 6),
    ] {
        let path = write_temp(name, source);
        let out = sjava(&[
            "run",
            path.to_str().expect("utf8"),
            &format!("{}.{}", entry.0, entry.1),
            &iterations.to_string(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout.lines().count(), iterations, "{name}: {stdout}");
        let (expected, errors) = interpreted(source, entry, iterations);
        assert_eq!(
            stdout, expected,
            "{name}: output differs from the interpreter"
        );
        match errors {
            Some(line) => assert!(stderr.contains(&line), "{name}: want `{line}` in {stderr}"),
            None => assert!(!stderr.contains("errors ignored"), "{name}: {stderr}"),
        }
        if name == "faulty.sj" {
            assert!(
                stderr.contains("errors ignored"),
                "the faulty program must log errors"
            );
        }
    }
}

#[test]
fn lattice_prints_dot() {
    let path = write_temp("dot.sj", sjava::apps::windsensor::SOURCE);
    let out = sjava(&["lattice", path.to_str().expect("utf8")]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("digraph"), "{stdout}");
    assert!(stdout.contains("DIR1"), "{stdout}");
}

#[test]
fn usage_on_bad_args() {
    let out = sjava(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn lifetimes_reports_allocation_bounds() {
    let path = write_temp("life.sj", sjava::apps::windsensor::SOURCE);
    let out = sjava(&["lifetimes", path.to_str().expect("utf8")]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("whole run"), "{stdout}");
}

#[test]
fn vfg_prints_flow_graphs() {
    let path = write_temp("vfg.sj", sjava::apps::weather::SOURCE);
    let out = sjava(&["vfg", path.to_str().expect("utf8")]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("digraph"), "{stdout}");
    assert!(stdout.contains("prevTemp"), "{stdout}");
}

#[test]
fn lint_reports_dead_stores() {
    let path = write_temp(
        "lint.sj",
        "class A { void f(int p) { int x = p * 2; x = p * 3; p = x; } }",
    );
    let out = sjava(&["lint", path.to_str().expect("utf8")]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("dead store"), "{stderr}");
}

#[test]
fn removed_shard_flags_are_unknown() {
    let path = write_temp("noshard.sj", sjava::apps::windsensor::SOURCE);
    let path = path.to_str().expect("utf8");
    for args in [
        vec!["check", path, "--shards=2"],
        vec!["check", path, "--shard=0/2", "--out=o"],
    ] {
        let out = sjava(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
    }
}

#[test]
fn extra_arguments_are_usage_errors_before_any_work() {
    // Each of these used to run: `check` and `infer` took the last file
    // and never read the first, the fixed-arity commands ignored the
    // tail, and `stress` ran only the inference.
    let ok = write_temp("extra-ok.sj", sjava::apps::windsensor::SOURCE);
    let bad = write_temp("extra-bad.sj", "class {");
    let (ok, bad) = (ok.to_str().expect("utf8"), bad.to_str().expect("utf8"));
    for args in [
        vec!["check", bad, ok],
        vec!["check", ok, ok],
        vec!["check", "--explain", "SJ0101", ok],
        vec!["infer", bad, ok],
        vec!["lattice", ok, "--bogus"],
        vec!["lifetimes", ok, ok],
        vec!["lint", ok, bad],
        vec!["vfg", ok, ok],
        vec!["run", ok, "WDSensor.windDirection", "2", "--bogus"],
        vec!["stress", "--preset=small", "--check", "--infer"],
    ] {
        let out = sjava(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: ran before rejecting");
    }
}

#[test]
fn unreadable_input_is_an_io_error_for_every_command() {
    let missing = std::env::temp_dir().join("sjava-cli-tests-missing.sj");
    let _ = std::fs::remove_file(&missing);
    let missing = missing.to_str().expect("utf8");
    for args in [
        vec!["check", missing],
        vec!["infer", missing],
        vec!["lattice", missing],
        vec!["lifetimes", missing],
        vec!["lint", missing],
        vec!["vfg", missing],
        vec!["run", missing, "A.main", "3"],
    ] {
        let out = sjava(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cannot read"), "{args:?}: {stderr}");
    }
}

#[test]
fn run_rejects_malformed_entry_and_iterations() {
    let path = write_temp("runargs.sj", sjava::apps::windsensor::SOURCE);
    let path = path.to_str().expect("utf8");
    for args in [
        ["run", path, "WDSensor", "3"],
        ["run", path, "WDSensor.", "3"],
        ["run", path, "WDSensor.windDirection", "three"],
        ["run", path, "WDSensor.windDirection", "-1"],
    ] {
        let out = sjava(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: ran before rejecting");
    }
}

#[test]
fn campaign_rejects_bad_out_flags_before_running() {
    let target = std::env::temp_dir().join("sjava-cli-tests-hist.csv");
    let _ = std::fs::remove_file(&target);
    let outfile = format!("--outfile={}", target.display());
    for bad in [outfile.as_str(), "--out", "--out="] {
        let out = sjava(&["campaign", "--app=windsensor", "--trials=4", bad]);
        assert_eq!(out.status.code(), Some(2), "{bad}");
        assert!(
            out.stdout.is_empty(),
            "{bad}: campaign ran before rejecting"
        );
    }
    assert!(!target.exists(), "`--outfile` must not be taken as `--out`");
}

#[test]
fn campaign_rejects_bad_window_eps_and_iters_before_running() {
    // A window past 1 put every trigger after the end of the run and
    // reported a clean campaign; NaN and negative windows clamped every
    // trigger to step 1; `--iters=0` ran an empty campaign.
    for bad in [
        "--window=5",
        "--window=1.01",
        "--window=0",
        "--window=-1",
        "--window=nan",
        "--eps=-1",
        "--eps=nan",
        "--eps=inf",
        "--iters=0",
    ] {
        let out = sjava(&["campaign", "--app=eyetrack", "--trials=40", bad]);
        assert_eq!(out.status.code(), Some(2), "{bad}");
        assert!(
            out.stdout.is_empty(),
            "{bad}: campaign ran before rejecting"
        );
    }
    for good in ["--window=1", "--eps=0", "--iters=1"] {
        let out = sjava(&["campaign", "--app=eyetrack", "--trials=4", good]);
        assert!(out.status.success(), "{good}");
    }
}

#[test]
fn check_processes_share_one_store() {
    // Cross-process warm hits: a first `sjava check` with SJAVA_CACHE_DIR
    // publishes per-method objects; a second process over the same
    // directory replays them and must print identical bytes — which are
    // also the bytes of an uncached check. The unannotated weather app
    // fails with dozens of diagnostics, so there are real bytes to replay.
    let path = write_temp("store-shared.sj", sjava::apps::weather::SOURCE);
    let dir = std::env::temp_dir().join("sjava-cli-tests-store");
    let _ = std::fs::remove_dir_all(&dir);
    let run = |store: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_sjava"));
        cmd.arg("check").arg(&path);
        if store {
            cmd.env("SJAVA_CACHE_DIR", &dir);
        }
        let out = cmd.output().expect("binary runs");
        (out.status.code(), out.stdout, out.stderr)
    };
    let cold = run(true);
    let store = sjava::cache::ArtifactStore::open(&dir).expect("store opens");
    assert!(
        store.object_count() > 0,
        "the first process must publish store objects"
    );
    let warm = run(true);
    assert_eq!(warm, cold, "store-warm output differs from the first run");
    assert_eq!(
        run(false),
        cold,
        "store-backed output differs from uncached"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_holds_one_entry_and_one_callee_set_per_method() {
    // A store-backed `sjava check` of the 201-method stress corpus writes
    // one object per cached result: each reachable method's entry (which
    // carries its read-set) and its callee set, and nothing else.
    use sjava_bench::stressgen::{generate, StressConfig};
    let source = generate(&StressConfig::large());
    let path = write_temp("store-layout.sj", &source);
    let program = sjava::parse(&source).expect("the corpus parses");
    let stats = sjava::cache::IncrementalChecker::new()
        .check(&program)
        .cache
        .expect("incremental stats");
    let reachable = stats.hits + stats.misses;
    assert!(reachable >= 200, "{reachable} reachable methods");
    let dir = std::env::temp_dir().join("sjava-cli-tests-layout");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_sjava"))
        .arg("check")
        .arg(&path)
        .env("SJAVA_CACHE_DIR", &dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let store = sjava::cache::ArtifactStore::open(&dir).expect("store opens");
    let mut kinds = std::collections::BTreeMap::<String, usize>::new();
    for fanout in std::fs::read_dir(store.objects_root()).expect("objects root") {
        for object in std::fs::read_dir(fanout.expect("fan-out").path()).expect("fan-out dir") {
            let name = object.expect("object").file_name();
            let name = name.to_string_lossy();
            let kind = name.rsplit_once('.').map_or(&*name, |(_, ext)| ext);
            *kinds.entry(kind.to_string()).or_default() += 1;
        }
    }
    let expected: std::collections::BTreeMap<String, usize> = [
        ("callees".to_string(), reachable),
        ("entry".to_string(), reachable),
    ]
    .into();
    assert_eq!(kinds, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_rejects_cyclic_inheritance_in_bounded_time() {
    // A superclass chain that leads back to where it started sends every
    // chain walk round the cycle for ever; `sjava check` must instead
    // report SJ0005 at the header of each class on the cycle, and exit 1.
    let cases: [(&str, &str, &[&str]); 2] = [
        (
            "cycle.sj",
            "class A extends B { }\nclass B extends A { }\n",
            &["A extends B extends A", "B extends A extends B"],
        ),
        (
            "self_cycle.sj",
            "class A extends A { void main() { SSJAVA: while (true) { Out.emit(1); } } }\n",
            &["A extends A"],
        ),
    ];
    for (name, source, cycles) in cases {
        let path = write_temp(name, source);
        let mut child = Command::new(env!("CARGO_BIN_EXE_sjava"))
            .args(["check", path.to_str().expect("utf8")])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary runs");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while child.try_wait().expect("child status").is_none() {
            if std::time::Instant::now() > deadline {
                let _ = child.kill();
                panic!("`sjava check {name}` still running after 20 s");
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let out = child.wait_with_output().expect("child output");
        assert_eq!(out.status.code(), Some(1), "{name}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for cycle in cycles {
            let want = format!("error[SJ0005]: cyclic inheritance: {cycle}");
            assert!(
                stderr.contains(&want),
                "{name}: missing `{want}` in\n{stderr}"
            );
        }
    }
}

/// `sjava` with `SJAVA_THREADS` set to `threads`.
fn sjava_at(threads: &str, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sjava"))
        .env("SJAVA_THREADS", threads)
        .args(args)
        .output()
        .expect("binary runs")
}

/// A file of 24 small classes, enough units for the front end to parse
/// them on the worker pool at two threads, and a class `Deep` whose event
/// loop calls each of them and three methods. Each method's deepest node
/// sits as many nesting levels down as `levels` gives for its shape:
/// parentheses, blocks and an `if` chain.
fn nested_program([parens, blocks, ifs]: [u32; 3]) -> String {
    let n = |levels: u32, outer: u32| (levels - outer) as usize;
    let mut src = String::new();
    let mut calls = String::new();
    for k in 0..24 {
        src.push_str(&format!(
            "class K{k} {{\n  static int step{k}(int v) {{ int r = v + {k}; return r; }}\n}}\n"
        ));
        calls.push_str(&format!("      s = K{k}.step{k}(s);\n"));
    }
    src.push_str(&format!(
        "class Deep {{\n  int total;\n  void main() {{\n    SSJAVA: while (true) {{\n      \
         int s = Device.read();\n{calls}      s = parens(s);\n      s = blocks(s);\n      \
         s = ifs(s);\n      total = s;\n      Out.emit(total);\n    }}\n  }}\n"
    ));
    // The body and the initializer take two levels.
    let p = n(parens, 2);
    src.push_str(&format!(
        "  int parens(int v) {{\n    int r = {}v{};\n    return r;\n  }}\n",
        "(".repeat(p),
        ")".repeat(p)
    ));
    // The body takes one.
    let b = n(blocks, 1);
    src.push_str(&format!(
        "  int blocks(int v) {{\n    int r = v;\n    {}{}\n    return r;\n  }}\n",
        "{ ".repeat(b),
        "} ".repeat(b)
    ));
    // The body and the innermost statement's expressions take two.
    src.push_str(&format!(
        "  int ifs(int v) {{\n    int r = 0;\n    boolean p = v > 0;\n    {}r = v;\n    \
         return r;\n  }}\n}}\n",
        "if (p) ".repeat(n(ifs, 2))
    ));
    src
}

#[test]
fn nesting_at_the_limit_checks_infers_and_runs_at_every_width() {
    let limit = sjava::syntax::parser::MAX_NESTING;
    let path = write_temp("nested_at_limit.sj", &nested_program([limit; 3]));
    let path = path.to_str().expect("utf8");
    let inferred = write_temp("nested_at_limit_inferred.sj", "");
    let inferred = inferred.to_str().expect("utf8");
    let mut first: Option<Vec<Vec<u8>>> = None;
    for threads in ["1", "2"] {
        // Unannotated, so rejected, but checked to the end.
        let check = sjava_at(threads, &["check", "--format=json", path]);
        assert_eq!(check.status.code(), Some(1), "{threads} threads");
        assert!(!String::from_utf8_lossy(&check.stdout).contains("SJ0002"));
        let infer = sjava_at(threads, &["infer", path]);
        assert!(infer.status.success(), "{threads} threads");
        // The printed annotations parse, at the same depths, and check.
        std::fs::write(inferred, &infer.stdout).expect("write");
        let recheck = sjava_at(threads, &["check", inferred]);
        assert!(
            recheck.status.success(),
            "{threads} threads: {}",
            String::from_utf8_lossy(&recheck.stderr)
        );
        let run = sjava_at(threads, &["run", path, "Deep.main", "3"]);
        assert!(run.status.success(), "{threads} threads");
        let outputs = vec![check.stdout, infer.stdout, recheck.stdout, run.stdout];
        match &first {
            None => first = Some(outputs),
            Some(at_one) => assert!(*at_one == outputs, "output differs at {threads} threads"),
        }
    }
}

#[test]
fn nesting_past_the_limit_is_one_sj0002_at_every_width() {
    let limit = sjava::syntax::parser::MAX_NESTING;
    let report = format!("error[SJ0002]: nesting exceeds the limit of {limit} levels");
    for (shape, name) in ["parens", "blocks", "ifs"].into_iter().enumerate() {
        let mut levels = [limit; 3];
        levels[shape] += 1;
        let path = write_temp(&format!("nested_{name}.sj"), &nested_program(levels));
        let path = path.to_str().expect("utf8");
        let mut first: Option<Vec<Vec<u8>>> = None;
        for threads in ["1", "2"] {
            let text = sjava_at(threads, &["check", path]);
            let json = sjava_at(threads, &["check", "--format=json", path]);
            assert_eq!(text.status.code(), Some(1), "{name} at {threads} threads");
            assert_eq!(json.status.code(), Some(1), "{name} at {threads} threads");
            let stderr = String::from_utf8_lossy(&text.stderr);
            assert_eq!(stderr.matches("error[").count(), 1, "{name}: {stderr}");
            assert!(stderr.contains(&report), "{name}: {stderr}");
            let stdout = String::from_utf8_lossy(&json.stdout);
            assert!(
                stdout.contains("\"errors\":1,") && stdout.contains("\"code\":\"SJ0002\""),
                "{name}: {stdout}"
            );
            let outputs = vec![text.stdout, text.stderr, json.stdout];
            match &first {
                None => first = Some(outputs),
                Some(at_one) => {
                    assert!(
                        *at_one == outputs,
                        "{name}: output differs at {threads} threads"
                    )
                }
            }
        }
    }
}

#[test]
fn switches_take_no_value() {
    // Both used to run: `--minimize=false` switched the minimizer on and
    // `--check=no` ran the check.
    for args in [
        ["fuzz", "--cases=1", "--minimize=false"],
        ["stress", "--preset=small", "--check=no"],
    ] {
        let out = sjava(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: ran before rejecting");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("takes no value"), "{args:?}: {stderr}");
    }
}

#[test]
fn preset_applies_before_size_flags_in_any_order() {
    // `--preset` used to reset the size flags given before it.
    let before = sjava(&["stress", "--classes=5", "--preset=small"]);
    let after = sjava(&["stress", "--preset=small", "--classes=5"]);
    assert!(before.status.success() && after.status.success());
    assert!(before.stdout == after.stdout, "the two orders differ");
    let stderr = String::from_utf8_lossy(&before.stderr);
    assert!(stderr.contains(": 21 methods,"), "{stderr}");
}

#[test]
fn format_takes_its_value_after_an_equals_sign() {
    let path = write_temp("format.sj", sjava::apps::weather::SOURCE);
    let path = path.to_str().expect("utf8");
    let spaced = sjava(&["check", "--format", "json", path]);
    assert_eq!(spaced.status.code(), Some(2));
    assert!(spaced.stdout.is_empty(), "ran before rejecting");
    let joined = sjava(&["check", "--format=json", path]);
    assert_eq!(joined.status.code(), Some(1));
    let file = sjava::syntax::SourceFile::new(path, sjava::apps::weather::SOURCE.to_string());
    let program = sjava::parse(&file.text).expect("parses");
    let expected = sjava::syntax::emit::to_json(&file, &sjava::check(&program).diagnostics);
    assert_eq!(String::from_utf8_lossy(&joined.stdout), expected);
}

#[test]
fn missing_operands_and_flags_are_named() {
    let path = write_temp("missing.sj", sjava::apps::windsensor::SOURCE);
    let path = path.to_str().expect("utf8");
    for (args, missing) in [
        (vec!["campaign", "--trials=4"], "--app="),
        (vec!["run", path, "WDSensor.windDirection"], "<iterations>"),
        (vec!["check"], "<file.sj>"),
    ] {
        let out = sjava(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: ran before rejecting");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let error = stderr.lines().next().unwrap_or_default();
        assert!(error.starts_with("error:"), "{args:?}: {stderr}");
        assert!(error.contains(missing), "{args:?}: {stderr}");
    }
}

#[test]
fn bare_sjava_prints_the_usage_of_every_command() {
    let out = sjava(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for command in [
        "check <file.sj>",
        "check --explain",
        "infer",
        "run",
        "lattice",
        "lifetimes",
        "lint",
        "vfg",
        "stress",
        "fuzz",
        "campaign",
    ] {
        assert!(
            stderr.contains(&format!("  sjava {command} ")),
            "{command}: {stderr}"
        );
    }
}

#[test]
fn every_listed_oracle_and_preset_is_accepted() {
    for oracle in ["all", "check", "infer", "cache", "parse", "emit"] {
        let out = sjava(&["fuzz", "--cases=0", &format!("--oracle={oracle}")]);
        assert!(out.status.success(), "--oracle={oracle}");
    }
    for preset in ["small", "default", "large", "adversarial"] {
        let out = sjava(&["stress", &format!("--preset={preset}")]);
        assert!(out.status.success(), "--preset={preset}");
    }
}

#[test]
fn lattice_prints_the_same_bytes_in_a_fixed_order() {
    // Field lattices by class, then method lattices by (class, method).
    use sjava_bench::stressgen::{generate, StressConfig};
    let path = write_temp("lattice-order.sj", &generate(&StressConfig::large()));
    let path = path.to_str().expect("utf8");
    let first = sjava(&["lattice", path]);
    let second = sjava(&["lattice", path]);
    assert!(first.status.success());
    assert!(
        first.stdout == second.stdout,
        "two runs printed different bytes"
    );
    let stdout = String::from_utf8_lossy(&first.stdout);
    let titles: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("digraph \"")?.strip_suffix("\" {"))
        .collect();
    let fields = titles.iter().take_while(|t| !t.contains('.')).count();
    assert!(fields > 1 && titles.len() > fields + 1, "{titles:?}");
    assert!(titles[..fields].is_sorted(), "field lattices out of order");
    let methods: Vec<(&str, &str)> = titles[fields..]
        .iter()
        .map(|t| {
            t.split_once('.')
                .expect("a method lattice is titled Class.method")
        })
        .collect();
    assert!(methods.is_sorted(), "method lattices out of order");
}

/// The golden fixtures of `crates/bench/tests/golden.rs`, which pin what
/// `sjava lint` and `sjava vfg` print.
fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/tests/golden")
}

/// Runs `sjava <command> <name>.sj` in `dir` at pool width `threads`,
/// and renders what it printed as the golden fixtures hold it: stdout,
/// then stderr, each under a header line.
fn transcript(dir: &std::path::Path, threads: &str, command: &str, name: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sjava"))
        .current_dir(dir)
        .env("SJAVA_THREADS", threads)
        .args([command, &format!("{name}.sj")])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{command} {name}: {stderr}");
    format!(
        "== stdout ==\n{}== stderr ==\n{stderr}",
        String::from_utf8_lossy(&out.stdout)
    )
}

#[test]
fn lint_and_vfg_print_their_golden_bytes() {
    use sjava_bench::stressgen::{generate, StressConfig};
    let golden = golden_dir();
    let fixture = |name: String| {
        std::fs::read_to_string(golden.join(&name)).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let apps_dir = std::env::temp_dir()
        .join("sjava-cli-tests")
        .join("golden-inputs");
    std::fs::create_dir_all(&apps_dir).expect("mkdir");
    let mut apps: Vec<(&str, String)> = sjava_bench::paper_apps()
        .into_iter()
        .chain([("weather", sjava::apps::weather::SOURCE)])
        .map(|(name, source)| (name, source.to_string()))
        .collect();
    for (name, source) in &apps {
        std::fs::write(apps_dir.join(format!("{name}.sj")), source).expect("write");
    }

    let fuzz_dir = golden.join("fuzz");
    let mut near_misses: Vec<String> = std::fs::read_dir(&fuzz_dir)
        .expect("fuzz fixtures")
        .filter_map(|entry| {
            let name = entry.expect("dir entry").file_name().into_string().ok()?;
            name.strip_suffix(".sj").map(str::to_string)
        })
        .collect();
    near_misses.sort();
    assert_eq!(near_misses.len(), 6, "{near_misses:?}");
    for name in &near_misses {
        let printed = transcript(&fuzz_dir, "1", "lint", name);
        assert_eq!(printed, fixture(format!("lint_{name}.txt")), "lint {name}");
    }
    for (name, _) in &apps {
        let printed = transcript(&apps_dir, "1", "lint", name);
        assert_eq!(printed, fixture(format!("lint_{name}.txt")), "lint {name}");
    }

    // `sjava vfg` builds its graphs on the worker pool, so it is pinned
    // at two widths.
    let stress = generate(&StressConfig::small());
    std::fs::write(apps_dir.join("stress_small.sj"), &stress).expect("write");
    apps.push(("stress_small", stress));
    for (name, _) in &apps {
        let expected = fixture(format!("vfg_{name}.txt"));
        for threads in ["1", "2"] {
            let printed = transcript(&apps_dir, threads, "vfg", name);
            assert_eq!(printed, expected, "vfg {name} at {threads} threads");
        }
    }
}

#[test]
fn a_closed_stdout_ends_the_output_without_a_panic() {
    // `sjava vfg big.sj | head -1`: each command prints far more than a
    // pipe buffer holds, so it is still writing when the reader leaves.
    use sjava_bench::stressgen::{generate, StressConfig};
    use std::io::BufRead;
    let path = write_temp("closed-stdout.sj", &generate(&StressConfig::large()));
    let path = path.to_str().expect("utf8");
    for args in [
        vec!["vfg", path],
        vec!["stress", "--preset=large"],
        vec!["infer", path],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sjava"))
            .args(&args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary runs");
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("reads a line");
        assert!(!line.is_empty(), "{args:?} printed nothing");
        drop(stdout);
        let out = child.wait_with_output().expect("exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
}

#[test]
fn a_closed_stderr_ends_the_diagnostics_without_a_panic() {
    // `sjava check big.sj 2>&1 >/dev/null | head -1`: the unannotated
    // 201-method corpus draws far more diagnostics than a pipe buffer
    // holds, so the checker is still reporting when the reader leaves.
    use sjava_bench::stressgen::{generate, StressConfig};
    use std::io::BufRead;
    let program = sjava::parse(&generate(&StressConfig::large())).expect("parses");
    let bare = sjava::syntax::strip::strip_location_annotations(&program);
    let path = write_temp(
        "closed-stderr.sj",
        &sjava::syntax::pretty::print_program(&bare),
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_sjava"))
        .args(["check", path.to_str().expect("utf8")])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stderr = std::io::BufReader::new(child.stderr.take().expect("piped"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("reads a line");
    assert!(line.contains("SJ0"), "printed {line:?} first");
    drop(stderr);
    let status = child.wait().expect("exits");
    assert_eq!(
        status.code(),
        Some(1),
        "the check did not end with its own status"
    );
}

#[test]
fn infer_prints_what_the_library_infers_at_every_width() {
    // `sjava infer` annotates the program it parsed in place; the library
    // call annotates a copy. Both must print the same bytes.
    use sjava::apps::{eyetrack, mp3dec, sumobot, weather, windsensor};
    use sjava_bench::stressgen::{generate, StressConfig};
    let corpora = [
        ("windsensor", windsensor::SOURCE.to_string()),
        ("weather", weather::SOURCE.to_string()),
        ("sumobot", sumobot::SOURCE.to_string()),
        ("eyetrack", eyetrack::SOURCE.to_string()),
        ("mp3dec", mp3dec::source().to_string()),
        ("stress_small", generate(&StressConfig::small())),
        ("stress_large", generate(&StressConfig::large())),
    ];
    for (name, source) in corpora {
        let program = sjava::parse(&source).expect("parses");
        let bare = sjava::syntax::strip::strip_location_annotations(&program);
        let result = sjava::infer_annotations(&bare, sjava::Mode::SInfer).expect("infers");
        let expected = sjava::syntax::pretty::print_program(&result.annotated);
        let path = write_temp(&format!("identity-{name}.sj"), &source);
        for threads in ["1", "2"] {
            let out = Command::new(env!("CARGO_BIN_EXE_sjava"))
                .args(["infer", path.to_str().expect("utf8")])
                .env("SJAVA_THREADS", threads)
                .output()
                .expect("binary runs");
            assert!(out.status.success(), "{name} at width {threads}");
            assert!(
                out.stdout == expected.as_bytes(),
                "{name}: `sjava infer` at width {threads} differs from the library"
            );
        }
    }
}
