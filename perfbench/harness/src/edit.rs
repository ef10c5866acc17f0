//! `edit`: a seeded, cumulative stream of source-text edits to a large
//! generated program. After each edit, `IncrementalChecker::check_source`
//! re-checks on one warm in-memory session, then `sjava check
//! --format=json` re-checks as a process against a warm store.

use crate::gen::{apply_edit, edit_base, edit_block, EditStep, EDIT_KINDS};
use crate::probe::Probe;
use crate::report::{mean, quantile, wall, Checks, Digest, Metrics};
use crate::sys;
use crate::trace::Recorder;
use crate::Ctx;
use sjava_cache::{ArtifactStore, IncrementalChecker};
use sjava_core::{CheckReport, ParseFailure, PhaseTimings};
use sjava_syntax::{emit, SourceFile};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const FILE: &str = "edit.sj";

/// The edited program and both legs' warm state.
struct State {
    text: String,
    session: IncrementalChecker,
    store: PathBuf,
}

/// Generates the program and primes both legs with a full check of it.
/// The store is primed by the CLI itself, as a user's first `sjava check`
/// would.
fn setup(ctx: &Ctx, dir: &Path, checks: &mut Checks) -> (State, Digest) {
    let text = edit_base(ctx.seed, ctx.scale);
    let mut digest = Digest::default();
    digest.add(text.as_bytes());
    for step in edit_block(ctx.seed, ctx.scale, 0) {
        digest.add(format!("{} {} {}", step.kind, step.at, step.salt).as_bytes());
    }
    let mut session = IncrementalChecker::new();
    let primed = session.check_source(&text).is_ok_and(|r| r.is_ok());
    checks.check(primed, || "edit: the base program does not verify".into());
    // A new store per set-up, so no set-up pays to delete the last one.
    static STORES: AtomicUsize = AtomicUsize::new(0);
    let n = STORES.fetch_add(1, Ordering::Relaxed);
    let store = sys::fresh_dir(dir, &format!("store-{n}"));
    sys::write(&dir.join(FILE), &text);
    let run = sys::sjava(
        &ctx.exe,
        dir,
        &["check", "--format=json", FILE],
        Some(&store),
    );
    checks.check(run.code == Some(0), || {
        "edit: priming the store failed".into()
    });
    (
        State {
            text,
            session,
            store,
        },
        digest,
    )
}

/// Walks the endless stream: the whole first block always, then on until
/// `ctx.seconds` have passed since the end of the first block. `f` gets
/// each step with its index.
fn for_each_step(ctx: &Ctx, mut f: impl FnMut(usize, &EditStep)) {
    let mut t0 = Instant::now();
    let mut n = 0;
    for b in 0.. {
        if b == 1 {
            t0 = Instant::now();
        }
        for step in edit_block(ctx.seed, ctx.scale, b) {
            if b > 0 && !ctx.time_left(t0) {
                return;
            }
            f(n, &step);
            n += 1;
        }
    }
}

/// The answer every step must reproduce: a cold, cache-free check of the
/// same text, which must verify (every edit keeps the program
/// self-stabilizing).
fn cold_json(text: &str, checks: &mut Checks, sabotage: bool) -> String {
    let file = SourceFile::new(FILE, text.to_string());
    match sjava_core::check_source(text) {
        Ok(r) => {
            checks.check(r.is_ok() != sabotage && r.termination_failures == 0, || {
                "edit: an edited program no longer verifies".into()
            });
            emit::to_json(&file, &r.diagnostics)
        }
        Err(f) => {
            checks.check(false, || "edit: an edited program no longer parses".into());
            emit::to_json(&file, &f.diagnostics)
        }
    }
}

fn report_json(text: &str, got: &Result<CheckReport, ParseFailure>) -> String {
    let file = SourceFile::new(FILE, text.to_string());
    match got {
        Ok(r) => emit::to_json(&file, &r.diagnostics),
        Err(f) => emit::to_json(&file, &f.diagnostics),
    }
}

pub fn run(ctx: &Ctx, checks: &mut Checks) -> Metrics {
    let dir = sys::fresh_dir(&ctx.work, "edit");
    let ((mut st, digest), setup_s) = ctx.setup(|| setup(ctx, &dir, checks));
    sys::flush_disks();
    let (mut mem_ms, mut cli_ms) = (Vec::new(), Vec::new());
    // The first block warms both legs and is not timed: per-object store
    // writes cost several times more while a new store's first ~10k
    // objects go in. Memory is read at its end, because the session and
    // the store keep growing with every edit, so a later reading would
    // depend on how many steps the run's time allowed.
    let block = edit_block(ctx.seed, ctx.scale, 0).len();
    let mut by_kind: [(Vec<f64>, Vec<f64>); 5] = Default::default();
    let mut peak = 0.0;
    let mut probe = Probe::new(ctx.width);
    for_each_step(ctx, |n, step| {
        apply_edit(&mut st.text, step, n);
        sys::write(&dir.join(FILE), &st.text);
        let text = &st.text;
        let session = &mut st.session;
        let got = checks.guarded(
            || format!("edit step {n}: in-memory check_source"),
            |_| {
                let t = Instant::now();
                let got = session.check_source(text);
                (got, t.elapsed().as_secs_f64() * 1e3)
            },
        );
        let run = sys::sjava(
            &ctx.exe,
            &dir,
            &["check", "--format=json", FILE],
            Some(&st.store),
        );
        if let (Some((_, mem)), true) = (&got, n >= block) {
            mem_ms.push((*mem, probe.next()));
            cli_ms.push((run.wall_ms, probe.next()));
            by_kind[step.kind].0.push(*mem);
            by_kind[step.kind].1.push(run.wall_ms);
            probe.sample();
        }
        // Write the store's new objects back between timed steps, so the
        // kernel's periodic writeback does not land inside one.
        sys::flush_disks();

        checks.guarded(
            || format!("edit step {n}: the cold check it is compared with"),
            |checks| {
                let expected = cold_json(text, checks, ctx.sabotage && n == 0);
                if let Some((got, _)) = &got {
                    checks.check(report_json(text, got) == expected, || {
                        format!("edit step {n}: incremental check differs from a cold check")
                    });
                }
                checks.check(run.code == Some(0) && run.stdout == expected, || {
                    format!("edit step {n}: store-backed sjava check differs from a cold check")
                });
            },
        );
        if n + 1 == block {
            peak = sys::children_peak_mb().max(sys::self_peak_mb());
        }
    });

    println!("# inputs digest {:016x}", digest.0);
    let (mem_wall, cli_wall) = (wall(&mem_ms), wall(&cli_ms));
    println!(
        "# wall: edit_ms_p50 {:.3} edit_ms_p90 {:.3} edit_cli_ms_p50 {:.3} edit_cli_ms_p90 {:.3} (n={} each)",
        quantile(&mem_wall, 0.5),
        quantile(&mem_wall, 0.9),
        quantile(&cli_wall, 0.5),
        quantile(&cli_wall, 0.9),
        mem_ms.len(),
    );
    // Per kind, so that a reader can re-weight the figures for another
    // mix of edits.
    for (kind, (mem, cli)) in EDIT_KINDS.iter().zip(&by_kind) {
        println!(
            "# wall, {kind}: edit_ms_p50 {:.3} edit_ms_p90 {:.3} edit_cli_ms_p50 {:.3} edit_cli_ms_p90 {:.3} (n={})",
            quantile(mem, 0.5),
            quantile(mem, 0.9),
            quantile(cli, 0.5),
            quantile(cli, 0.9),
            mem.len(),
        );
    }
    println!("{}", probe.describe());
    let (mem_ms, cli_ms) = (probe.read(&mem_ms), probe.read(&cli_ms));
    let h = probe.factor();
    let mut m = Metrics::default();
    m.set("latency_ms_p50", quantile(&mem_ms, 0.5), "ms");
    m.set("latency_ms_p90", quantile(&mem_ms, 0.9), "ms");
    m.set("latency2_ms_p50", quantile(&cli_ms, 0.5), "ms");
    m.set("latency2_ms_p90", quantile(&cli_ms, 0.9), "ms");
    m.set("throughput_per_s", 1e3 / mean(&mem_ms), "1/s");
    m.set("throughput2_per_s", 1e3 / mean(&cli_ms), "1/s");
    m.set("peak_rss_mb", peak, "MB");
    m.set("setup_s", setup_s / h, "s");
    m
}

/// The phases `check_source` reports, as child spans named `names`.
fn phase_spans(t: &PhaseTimings, names: [&'static str; 5]) -> [(&'static str, Duration); 5] {
    [
        (names[0], t.parse),
        (names[1], t.lattice_build),
        (names[2], t.callgraph),
        (names[3], t.eviction),
        (
            names[4],
            t.flow_check + t.aliasing + t.shared + t.termination,
        ),
    ]
}

const MEMORY_PHASES: [&str; 5] = [
    "syntax.parse",
    "cache.lattice",
    "cache.callgraph",
    "cache.revalidate",
    "cache.recheck",
];
const STORE_PHASES: [&str; 5] = [
    "store.parse",
    "store.lattice",
    "store.callgraph",
    "store.revalidate",
    "store.recheck",
];

/// Counters over the first block of the stream, which repeat exactly for
/// one seed.
#[derive(Default)]
struct Counts {
    /// `(misses, hits + misses)` per edit kind.
    recheck: [(usize, usize); 5],
    red: usize,
    green: usize,
    steps: usize,
    writes: usize,
    objects: usize,
    bytes: u64,
}

pub fn traced(ctx: &Ctx, checks: &mut Checks, rec: &mut Recorder) -> Metrics {
    let dir = sys::fresh_dir(&ctx.work, "edit");
    let (mut st, digest) = setup(ctx, &dir, checks);
    // A twin in-memory session checks every step untraced, first on odd
    // steps and second on even ones, for the tracing overhead.
    let mut twin = IncrementalChecker::new();
    let _ = twin.check_source(&st.text);
    let block = edit_block(ctx.seed, ctx.scale, 0).len();
    let mut counts = Counts::default();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    for_each_step(ctx, |n, step| {
        checks.guarded(
            || format!("edit step {n}: traced re-checks"),
            |checks| {
                if n % 20 == 0 {
                    rec.begin_op("cli.startup");
                    let run = sys::sjava(&ctx.exe, &dir, &["check", "--explain", "SJ0101"], None);
                    rec.end();
                    checks.check(run.code == Some(0), || {
                        "sjava check --explain failed".into()
                    });
                }
                apply_edit(&mut st.text, step, n);
                let text = &st.text;
                let expected = cold_json(text, checks, false);

                let mut untraced = |twin: &mut IncrementalChecker| {
                    let t = Instant::now();
                    let got = twin.check_source(text);
                    untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    got
                };
                let before = (n % 2 == 1).then(|| untraced(&mut twin));
                rec.begin_op("edit.memory");
                let got = st.session.check_source(text);
                traced_ms.push(rec.end().as_secs_f64() * 1e3);
                let after = (n % 2 == 0).then(|| untraced(&mut twin));
                let twin_got = before.or(after).expect("one untraced check");
                checks.check(
                    report_json(text, &got) == expected && report_json(text, &twin_got) == expected,
                    || format!("edit step {n}: incremental check differs from a cold check"),
                );
                let Ok(report) = got else { return };
                rec.phases("edit.memory", &phase_spans(&report.timings, MEMORY_PHASES));

                // The store leg: a fresh store-backed session per step, as each
                // `sjava check` process opens one.
                rec.begin_op("edit.store");
                let mut session =
                    rec.span("store.open", || IncrementalChecker::with_dir(&st.store));
                let before = session.store().map_or(0, ArtifactStore::object_count);
                let stored = rec.span("store.check", || session.check_source(text));
                rec.end();
                checks.check(report_json(text, &stored) == expected, || {
                    format!("edit step {n}: store-backed check differs from a cold check")
                });
                if let Ok(r) = &stored {
                    rec.phases("store.check", &phase_spans(&r.timings, STORE_PHASES));
                }
                if n < block {
                    let cache = report.cache.unwrap_or_default();
                    let slot = &mut counts.recheck[step.kind];
                    slot.0 += cache.misses;
                    slot.1 += cache.hits + cache.misses;
                    counts.red += cache.red;
                    counts.green += cache.green;
                    counts.steps += 1;
                    if let Some(store) = session.store() {
                        let after = store.object_count();
                        counts.writes += after.saturating_sub(before);
                        counts.objects = after;
                        counts.bytes = store.size_bytes();
                    }
                }
            },
        );
    });

    println!("# inputs digest {:016x}", digest.0);
    let layer = rec.self_ms();
    let span = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    let mut m = Metrics::default();
    for (metric, name) in [
        ("cli.startup_ms", "cli.startup"),
        ("syntax.parse_ms", "syntax.parse"),
        ("cache.lattice_ms", "cache.lattice"),
        ("cache.callgraph_ms", "cache.callgraph"),
        ("cache.revalidate_ms", "cache.revalidate"),
        ("cache.recheck_ms", "cache.recheck"),
        ("cache.admit_ms", "edit.memory"),
        ("store.open_ms", "store.open"),
        ("store.lattice_ms", "store.lattice"),
        ("store.callgraph_ms", "store.callgraph"),
        ("store.revalidate_ms", "store.revalidate"),
        ("store.admit_ms", "store.check"),
    ] {
        m.set(metric, span(name), "ms");
    }
    for (kind, &(misses, total)) in EDIT_KINDS.iter().zip(&counts.recheck) {
        let ratio = if total == 0 {
            0.0
        } else {
            misses as f64 / total as f64
        };
        m.set(format!("cache.recheck_ratio.{kind}"), ratio, "ratio");
    }
    let steps = counts.steps.max(1) as f64;
    m.set("cache.red_per_step", counts.red as f64 / steps, "count");
    m.set("cache.green_per_step", counts.green as f64 / steps, "count");
    m.set("store.objects", counts.objects as f64, "count");
    m.set("store.mb", counts.bytes as f64 / 1e6, "MB");
    m.set(
        "store.writes_per_step",
        counts.writes as f64 / steps,
        "count",
    );
    m.set("trace.remainder_ms", span("edit.memory"), "ms");
    m.set(
        "trace.overhead_pct",
        (mean(&traced_ms) / mean(&untraced_ms) - 1.0) * 100.0,
        "%",
    );
    m
}
