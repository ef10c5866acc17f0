//! The fixed correctness set of the `cold` workload: the four annotated
//! paper apps, the reviewed fuzz near-miss fixtures and the `infer_*`
//! goldens, each compared byte for byte with the checked-in answer.

use crate::cold::clean_json;
use crate::report::Checks;
use crate::{sys, Ctx};
use sjava_apps::{eyetrack, mp3dec, sumobot, windsensor};
use sjava_bench::stressgen::{generate, StressConfig};
use std::path::Path;

fn golden(ctx: &Ctx, rel: &str) -> Option<String> {
    std::fs::read_to_string(ctx.root.join("crates/bench/tests/golden").join(rel)).ok()
}

/// `(locations, paths)` from the `// inferred N locations, M paths` line
/// `sjava infer` writes to stderr.
fn inferred_counts(stderr: &str) -> Option<(String, String)> {
    let line = stderr.lines().find(|l| l.starts_with("// inferred "))?;
    let mut words = line.split_whitespace().skip(2);
    let locations = words.next()?.to_string();
    let paths = words.nth(1)?.to_string();
    Some((locations, paths))
}

/// What the `infer_*` goldens hold: both modes' printed programs, each
/// under a header with its metrics.
fn infer_transcript(ctx: &Ctx, dir: &Path, file: &str) -> Option<String> {
    let mut out = String::new();
    for (flags, label) in [
        (&["infer", "--naive"][..], "naive"),
        (&["infer"][..], "SInfer"),
    ] {
        let mut args = flags.to_vec();
        args.push(file);
        let run = sys::sjava(&ctx.exe, dir, &args, None);
        if run.code != Some(0) {
            return None;
        }
        let (locations, paths) = inferred_counts(&run.stderr)?;
        out.push_str(&format!(
            "== {label}: locations={locations} paths={paths} ==\n{}",
            run.stdout
        ));
    }
    Some(out)
}

pub fn check_all(ctx: &Ctx, checks: &mut Checks) {
    let dir = sys::fresh_dir(&ctx.work, "answers");
    let apps = [
        ("windsensor", windsensor::SOURCE.to_string()),
        ("eyetrack", eyetrack::SOURCE.to_string()),
        ("sumobot", sumobot::SOURCE.to_string()),
        ("mp3dec", mp3dec::source().to_string()),
    ];
    for (name, src) in &apps {
        let file = format!("{name}.sj");
        sys::write(&dir.join(&file), src);
        let rendered = match sjava_core::check_source(src) {
            Ok(r) => format!(
                "ok={} termination_failures={}\n{}",
                r.is_ok(),
                r.termination_failures,
                r.diagnostics
            ),
            Err(f) => format!("parse error\n{f}"),
        };
        checks.check(
            golden(ctx, &format!("{name}.txt")) == Some(rendered),
            || format!("{name}: report differs from golden/{name}.txt"),
        );
        let run = sys::sjava(&ctx.exe, &dir, &["check", "--format=json", &file], None);
        checks.check(
            run.code == Some(0) && run.stdout == clean_json(&file),
            || format!("{name}: sjava check did not verify the paper app"),
        );
    }

    let stress = [
        ("stress_small", generate(&StressConfig::small())),
        ("stress_adversarial", generate(&StressConfig::adversarial())),
    ];
    for (name, src) in &stress {
        sys::write(&dir.join(format!("{name}.sj")), src);
    }
    for name in apps.iter().map(|a| a.0).chain(stress.iter().map(|s| s.0)) {
        let got = infer_transcript(ctx, &dir, &format!("{name}.sj"));
        checks.check(
            got.is_some() && got == golden(ctx, &format!("infer_{name}.txt")),
            || format!("{name}: sjava infer differs from golden/infer_{name}.txt"),
        );
    }

    let fuzz_dir = ctx.root.join("crates/bench/tests/golden/fuzz");
    let mut fixtures: Vec<String> = std::fs::read_dir(&fuzz_dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.file_name().into_string().ok())
                .filter_map(|n| n.strip_suffix(".sj").map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    fixtures.sort();
    checks.check(!fixtures.is_empty(), || "no fuzz fixtures found".into());
    for name in fixtures {
        let file = format!("{name}.sj");
        let pinned = golden(ctx, &format!("fuzz/{file}")).unwrap_or_default();
        // The first line records the fixture's provenance; the checked
        // program is the rest.
        let program = pinned.split_once('\n').map_or("", |(_, rest)| rest);
        sys::write(&dir.join(&file), program);
        for format in ["json", "sarif"] {
            let run = sys::sjava(
                &ctx.exe,
                &dir,
                &["check", &format!("--format={format}"), &file],
                None,
            );
            let expected = golden(ctx, &format!("fuzz/{name}.{format}"));
            checks.check(run.code == Some(1) && Some(run.stdout) == expected, || {
                format!("{name}: sjava check --format={format} differs from its fixture")
            });
        }
    }
}
