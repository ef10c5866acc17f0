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

#[test]
fn run_executes_iterations() {
    let path = write_temp("sensor.sj", sjava::apps::windsensor::SOURCE);
    let out = sjava(&[
        "run",
        path.to_str().expect("utf8"),
        "WDSensor.windDirection",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 3, "{stdout}");
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
            cmd.env("SJAVA_CACHE_DIR", &dir)
                .env("SJAVA_CACHE_PERSIST_MIN", "0");
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
