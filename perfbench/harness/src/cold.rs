//! `cold`: `sjava check --format=json` (no store) and `sjava infer` as
//! processes, on a seeded draw of generated programs.

use crate::gen::{cold_draw, ColdProgram};
use crate::probe::Probe;
use crate::report::{mean, quantile, wall, Checks, Digest, Metrics};
use crate::sys::{self, Run};
use crate::trace::Recorder;
use crate::{answers, Ctx};
use sjava_analysis::shard::ShardInput;
use sjava_analysis::{callgraph, termination, written};
use sjava_core::{checker, linear, shared, Lattices};
use sjava_syntax::diag::Diagnostics;
use sjava_syntax::{emit, SourceFile};
use std::path::Path;
use std::time::Instant;

/// The JSON `sjava check --format=json` prints for a verified program.
pub fn clean_json(name: &str) -> String {
    format!("{{\"file\":\"{name}\",\"errors\":0,\"warnings\":0,\"diagnostics\":[]}}\n")
}

/// Generates the draw and writes every input file.
fn setup(ctx: &Ctx, dir: &Path) -> (Vec<ColdProgram>, Digest) {
    let draw = cold_draw(ctx.seed, ctx.scale);
    let mut digest = Digest::default();
    for p in &draw {
        sys::write(&dir.join(&p.name), &p.source);
        sys::write(&dir.join(bare_name(p)), &p.bare);
        digest.add(p.source.as_bytes());
        digest.add(p.bare.as_bytes());
    }
    (draw, digest)
}

fn bare_name(p: &ColdProgram) -> String {
    format!("bare_{}", p.name)
}

/// Checks a spawned `sjava check` against the program's known answer:
/// verified (exit 0, no diagnostics), or — with a stripped `@LOC` —
/// rejected (exit 1) with an SJ0007 naming the stripped field. `sabotage`
/// expects a wrong file name or a wrong field, whichever the program has.
fn check_verdict(checks: &mut Checks, p: &ColdProgram, run: &Run, sabotage: bool) {
    match &p.stripped_field {
        None => {
            let name = if sabotage {
                "not_this_file.sj"
            } else {
                &p.name
            };
            checks.check(
                run.code == Some(0) && run.stdout == clean_json(name),
                || {
                    format!(
                        "{}: expected a clean verdict, got exit {:?}",
                        p.name, run.code
                    )
                },
            );
        }
        Some(field) => {
            let field = if sabotage { "W0.nonexistent" } else { field };
            let named = format!(
                "\"code\":\"SJ0007\",\"name\":\"missing-location\",\"severity\":\"error\",\
                 \"message\":\"field `{field}` is missing a @LOC annotation\""
            );
            checks.check(run.code == Some(1) && run.stdout.contains(&named), || {
                format!(
                    "{}: expected SJ0007 naming `{field}`, got exit {:?}",
                    p.name, run.code
                )
            });
        }
    }
}

/// Checks a spawned `sjava infer`: the first output of each program must
/// re-parse and re-check clean (the §5.1.1 round trip); later outputs
/// must repeat it byte for byte.
fn check_inferred(checks: &mut Checks, p: &ColdProgram, run: &Run, first: &mut Option<String>) {
    let ok = run.code == Some(0)
        && match first {
            Some(prev) => *prev == run.stdout,
            None => {
                let clean = sjava_core::check_source(&run.stdout).is_ok_and(|r| r.is_ok());
                if clean {
                    *first = Some(run.stdout.clone());
                }
                clean
            }
        };
    checks.check(ok, || {
        format!("{}: inferred annotations do not re-check", p.name)
    });
}

pub fn run(ctx: &Ctx, checks: &mut Checks) -> Metrics {
    let dir = sys::fresh_dir(&ctx.work, "cold");
    let ((draw, digest), setup_s) = ctx.setup(|| setup(ctx, &dir));
    let mut inferred: Vec<Option<String>> = vec![None; draw.len()];
    let (mut check_ms, mut infer_ms) = (Vec::new(), Vec::new());
    let mut probe = Probe::new(ctx.width);
    let t0 = Instant::now();
    let mut i = 0;
    while i < draw.len() || ctx.time_left(t0) {
        let k = i % draw.len();
        let p = &draw[k];
        let run = sys::sjava(&ctx.exe, &dir, &["check", "--format=json", &p.name], None);
        check_ms.push((run.wall_ms, probe.next()));
        check_verdict(checks, p, &run, ctx.sabotage && i == 0);
        let run = sys::sjava(&ctx.exe, &dir, &["infer", &bare_name(p)], None);
        infer_ms.push((run.wall_ms, probe.next()));
        probe.sample();
        // The round trip re-checks the inferred text in process.
        checks.guarded(
            || format!("{}: re-checking inferred annotations", p.name),
            |checks| check_inferred(checks, p, &run, &mut inferred[k]),
        );
        i += 1;
    }
    let peak = sys::children_peak_mb();
    checks.guarded(
        || "cold: the fixed correctness set".into(),
        |checks| answers::check_all(ctx, checks),
    );

    println!("# inputs digest {:016x}", digest.0);
    let (check_wall, infer_wall) = (wall(&check_ms), wall(&infer_ms));
    println!(
        "# wall: check_ms_p50 {:.3} check_ms_p90 {:.3} infer_ms_p50 {:.3} infer_ms_p90 {:.3} (n={} each, {} programs)",
        quantile(&check_wall, 0.5),
        quantile(&check_wall, 0.9),
        quantile(&infer_wall, 0.5),
        quantile(&infer_wall, 0.9),
        check_ms.len(),
        draw.len()
    );
    println!("{}", probe.describe());
    let (check_ms, infer_ms) = (probe.read(&check_ms), probe.read(&infer_ms));
    let h = probe.factor();
    let mut m = Metrics::default();
    m.set("latency_ms_p50", quantile(&check_ms, 0.5), "ms");
    m.set("latency_ms_p90", quantile(&check_ms, 0.9), "ms");
    m.set("latency2_ms_p50", quantile(&infer_ms, 0.5), "ms");
    m.set("latency2_ms_p90", quantile(&infer_ms, 0.9), "ms");
    m.set("throughput_per_s", 1e3 / mean(&check_ms), "1/s");
    m.set("throughput2_per_s", 1e3 / mean(&infer_ms), "1/s");
    m.set("peak_rss_mb", peak, "MB");
    m.set("setup_s", setup_s / h, "s");
    m
}

/// `check_program`'s pipeline, one span per public call when `rec` is
/// given; without it, the same calls untraced.
fn pipeline(mut rec: Option<&mut Recorder>, program: &sjava_syntax::Program) -> Diagnostics {
    let mut span = |name, f: &mut dyn FnMut()| match rec.as_deref_mut() {
        Some(r) => r.span(name, f),
        None => f(),
    };
    let mut diags = Diagnostics::new();
    let mut lattices = None;
    span("lattice.build", &mut || {
        lattices = Some(Lattices::build(program, &mut diags))
    });
    let lattices = lattices.expect("lattices built");
    let mut cg = None;
    span("analysis.callgraph", &mut || {
        cg = callgraph::build(program, &mut diags)
    });
    if let Some(cg) = cg {
        let mut eviction = None;
        span("analysis.eviction", &mut || {
            eviction = Some(written::analyze(program, &cg, &mut diags))
        });
        let eviction = eviction.expect("eviction analysed");
        let shard = ShardInput::whole(program);
        span("core.flow", &mut || {
            checker::check_flows(&shard, &lattices, &cg, &eviction.summaries, &mut diags)
        });
        span("core.aliasing", &mut || {
            linear::check_aliasing(&shard, &lattices, &cg, &mut diags)
        });
        span("core.shared", &mut || {
            shared::check_shared(&shard, &lattices, &cg, &mut diags)
        });
        span("analysis.termination", &mut || {
            termination::check(&shard, &cg, &mut diags);
        });
    }
    diags.sort_stable();
    diags
}

pub fn traced(ctx: &Ctx, checks: &mut Checks, rec: &mut Recorder) -> Metrics {
    let dir = sys::fresh_dir(&ctx.work, "cold");
    let (draw, digest) = setup(ctx, &dir);
    let mut seen = vec![false; draw.len()];
    let (mut diagnostics, mut locations, mut paths) = (0usize, 0usize, 0u128);
    let mut bytes = 0usize;
    let (mut check_cpu, mut check_cap, mut infer_cpu, mut infer_cap) = (0.0, 0.0, 0.0, 0.0);
    let (mut traced_s, mut untraced_s) = (0.0f64, 0.0f64);
    let t0 = Instant::now();
    let mut i = 0;
    while i < draw.len() || ctx.time_left(t0) {
        let k = i % draw.len();
        let p = &draw[k];
        checks.guarded(
            || format!("{}: traced check and inference", p.name),
            |checks| {
                rec.begin_op("cli.startup");
                let run = sys::sjava(&ctx.exe, &dir, &["check", "--explain", "SJ0101"], None);
                rec.end();
                checks.check(
                    run.code == Some(0) && run.stdout.starts_with("SJ0101"),
                    || "sjava check --explain SJ0101 failed".into(),
                );

                // The same parse, check and emit untraced, first on odd rounds and
                // last on even ones, so warm memo tables favour neither side of
                // the overhead.
                let file = SourceFile::new(p.name.clone(), p.source.clone());
                let untraced = || {
                    let t = Instant::now();
                    let program = sjava_syntax::parse(&p.source).expect("generated programs parse");
                    let diags = pipeline(None, &program);
                    let json = emit::to_json(&file, &diags);
                    (t.elapsed().as_secs_f64(), json)
                };
                let before = (i % 2 == 1).then(untraced);
                rec.begin_op("cold.check");
                let parsed = rec.span("syntax.parse", || sjava_syntax::parse(&p.source));
                let program = parsed.expect("generated programs parse");
                let diags = pipeline(Some(rec), &program);
                let json = rec.span("syntax.emit", || emit::to_json(&file, &diags));
                traced_s += rec.end().as_secs_f64();
                let after = (i % 2 == 0).then(untraced);
                let (untraced_run, untraced_json) = before.or(after).expect("one untraced run");
                untraced_s += untraced_run;
                bytes += p.source.len();

                let run = sys::sjava(&ctx.exe, &dir, &["check", "--format=json", &p.name], None);
                check_cpu += run.cpu_s;
                check_cap += run.wall_ms / 1e3 * ctx.width as f64;
                check_verdict(checks, p, &run, ctx.sabotage && i == 0);
                checks.check(run.stdout == json && untraced_json == json, || {
                    format!("{}: in-process pipeline and CLI disagree", p.name)
                });

                rec.begin_op("cold.infer");
                let stripped = rec.span("infer.strip", || {
                    sjava_syntax::strip::strip_location_annotations(&program)
                });
                rec.begin("infer.infer");
                let result = sjava_infer::infer(&stripped, sjava_infer::Mode::SInfer);
                rec.end();
                let result = result.expect("generated programs infer");
                let t = &result.timings;
                rec.phases(
                    "infer.infer",
                    &[
                        ("infer.vfg", t.vfg),
                        ("infer.decompose", t.decompose),
                        ("infer.lattgen", t.lattgen),
                        ("infer.emit", t.emit),
                    ],
                );
                let printed = rec.span("infer.print", || {
                    sjava_syntax::pretty::print_program(&result.annotated)
                });
                rec.end();

                let run = sys::sjava(&ctx.exe, &dir, &["infer", &bare_name(p)], None);
                infer_cpu += run.cpu_s;
                infer_cap += run.wall_ms / 1e3 * ctx.width as f64;
                checks.check(run.code == Some(0) && run.stdout == printed, || {
                    format!("{}: in-process inference and CLI disagree", p.name)
                });

                if !seen[k] {
                    seen[k] = true;
                    if p.stripped_field.is_some() {
                        diagnostics += diags.len();
                    }
                    locations += result.metrics.total_locations();
                    paths += result.metrics.total_paths();
                    checks.check(
                        sjava_core::check_source(&printed).is_ok_and(|r| r.is_ok()),
                        || format!("{}: inferred annotations do not re-check", p.name),
                    );
                }
            },
        );
        i += 1;
    }
    checks.guarded(
        || "cold: the fixed correctness set".into(),
        |checks| answers::check_all(ctx, checks),
    );

    println!("# inputs digest {:016x}", digest.0);
    // Inference phases are the child spans `InferTimings` gave; the
    // `infer.infer` span's self time is what no phase covers.
    let layer = rec.self_ms();
    let mut m = Metrics::default();
    for (metric, span) in [
        ("cli.startup_ms", "cli.startup"),
        ("syntax.parse_ms", "syntax.parse"),
        ("lattice.build_ms", "lattice.build"),
        ("analysis.callgraph_ms", "analysis.callgraph"),
        ("analysis.eviction_ms", "analysis.eviction"),
        ("analysis.termination_ms", "analysis.termination"),
        ("core.flow_ms", "core.flow"),
        ("core.aliasing_ms", "core.aliasing"),
        ("core.shared_ms", "core.shared"),
        ("syntax.emit_ms", "syntax.emit"),
        ("infer.strip_ms", "infer.strip"),
        ("infer.vfg_ms", "infer.vfg"),
        ("infer.decompose_ms", "infer.decompose"),
        ("infer.lattgen_ms", "infer.lattgen"),
        ("infer.emit_ms", "infer.emit"),
        ("infer.other_ms", "infer.infer"),
        ("infer.print_ms", "infer.print"),
    ] {
        m.set(metric, layer.get(span).copied().unwrap_or(0.0), "ms");
    }
    let parse_ms = layer.get("syntax.parse").copied().unwrap_or(0.0);
    m.set(
        "syntax.parse_mb_per_s",
        bytes as f64 / i as f64 / 1e3 / parse_ms,
        "MB/s",
    );
    m.set("core.diagnostics", diagnostics as f64, "count");
    m.set("infer.locations", locations as f64, "count");
    m.set("infer.paths", paths as f64, "count");
    m.set("par.check_util", check_cpu / check_cap, "ratio");
    m.set("par.infer_util", infer_cpu / infer_cap, "ratio");
    m.set(
        "trace.remainder_ms",
        layer.get("cold.check").copied().unwrap_or(0.0),
        "ms",
    );
    m.set(
        "trace.overhead_pct",
        (traced_s - untraced_s) / untraced_s * 100.0,
        "%",
    );
    m
}
