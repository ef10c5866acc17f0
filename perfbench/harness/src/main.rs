//! The SJava benchmark harness.
//!
//! `perfbench --workload cold|edit|campaign --seed N --seconds S --trace 0|1
//! --sjava PATH [--scale full|tiny] [--sabotage]`
//!
//! Runs one closed-loop workload with one client for `S` seconds on
//! inputs drawn from seed `N`, checks every result against a known
//! answer, and prints a result object as its last stdout line. With
//! `--trace 0` the object holds the end-to-end metrics; with `--trace 1`
//! a separate traced run measures each layer from outside, around the
//! public calls into it, and writes the spans as Chrome trace JSON.
//! `--scale tiny` shrinks every input for the self-test; `--sabotage`
//! swaps one expected answer for a wrong one, which must count as a
//! failure.

// `check_source` returns the repository's `ParseFailure` by value; the
// harness passes it on as it comes.
#![allow(clippy::result_large_err)]

mod answers;
mod campaign;
mod cold;
mod edit;
mod gen;
mod probe;
mod report;
mod sys;
mod trace;

use gen::Scale;
use report::Checks;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What a workload needs to run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub sabotage: bool,
    /// The `sjava` binary under test.
    pub exe: PathBuf,
    /// The checkout root (where the repository's fixtures live).
    pub root: PathBuf,
    /// This run's scratch directory.
    pub work: PathBuf,
    /// Worker threads every operation runs with (the program default).
    pub width: usize,
    started: Instant,
}

impl Ctx {
    /// Whether the timed loop may start another operation.
    pub fn time_left(&self, loop_start: Instant) -> bool {
        loop_start.elapsed() < Duration::from_secs_f64(self.seconds)
    }

    /// Runs a workload's set-up at least five times (once at the tiny
    /// scale), repeating while they total under two seconds, and returns
    /// the last result with the median set-up time in seconds.
    pub fn setup<T>(&self, mut f: impl FnMut() -> T) -> (T, f64) {
        let (min, max) = match self.scale {
            Scale::Full => (5, 200),
            Scale::Tiny => (1, 1),
        };
        let mut times = Vec::new();
        loop {
            // Each set-up starts with no writes of the last one pending.
            sys::flush_disks();
            let t = Instant::now();
            let out = f();
            times.push(t.elapsed().as_secs_f64());
            let total: f64 = times.iter().sum();
            if times.len() >= max || (times.len() >= min && total >= 2.0) {
                return (out, report::quantile(&times, 0.5));
            }
        }
    }
}

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 8] = [
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("latency2_ms_p50", "ms"),
    ("latency2_ms_p90", "ms"),
    ("throughput_per_s", "1/s"),
    ("throughput2_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced run. A workload reports 0 for the
/// layers it does not run.
const PER_LAYER: &[(&str, &str)] = &[
    ("cli.startup_ms", "ms"),
    ("syntax.parse_ms", "ms"),
    ("syntax.parse_mb_per_s", "MB/s"),
    ("lattice.build_ms", "ms"),
    ("analysis.callgraph_ms", "ms"),
    ("analysis.eviction_ms", "ms"),
    ("analysis.termination_ms", "ms"),
    ("core.flow_ms", "ms"),
    ("core.aliasing_ms", "ms"),
    ("core.shared_ms", "ms"),
    ("syntax.emit_ms", "ms"),
    ("core.diagnostics", "count"),
    ("infer.strip_ms", "ms"),
    ("infer.print_ms", "ms"),
    ("infer.vfg_ms", "ms"),
    ("infer.decompose_ms", "ms"),
    ("infer.lattgen_ms", "ms"),
    ("infer.emit_ms", "ms"),
    ("infer.other_ms", "ms"),
    ("infer.locations", "count"),
    ("infer.paths", "count"),
    ("par.check_util", "ratio"),
    ("par.infer_util", "ratio"),
    ("cache.lattice_ms", "ms"),
    ("cache.callgraph_ms", "ms"),
    ("cache.revalidate_ms", "ms"),
    ("cache.recheck_ms", "ms"),
    ("cache.admit_ms", "ms"),
    ("cache.recheck_ratio.body-same-len", "ratio"),
    ("cache.recheck_ratio.body-insert", "ratio"),
    ("cache.recheck_ratio.header", "ratio"),
    ("cache.recheck_ratio.field", "ratio"),
    ("cache.recheck_ratio.resave", "ratio"),
    ("cache.red_per_step", "count"),
    ("cache.green_per_step", "count"),
    ("store.open_ms", "ms"),
    ("store.lattice_ms", "ms"),
    ("store.callgraph_ms", "ms"),
    ("store.revalidate_ms", "ms"),
    ("store.admit_ms", "ms"),
    ("store.objects", "count"),
    ("store.mb", "MB"),
    ("store.writes_per_step", "count"),
    ("runtime.compile_ms.mc", "ms"),
    ("runtime.golden_ms.mc", "ms"),
    ("runtime.restore_us.mc", "us"),
    ("runtime.compare_us.mc", "us"),
    ("runtime.resume_ms.mc", "ms"),
    ("runtime.msteps_per_s.mc", "Msteps/s"),
    ("runtime.steps_per_trial.mc", "count"),
    ("runtime.trial_ms_p50.mc", "ms"),
    ("runtime.trial_ms_p90.mc", "ms"),
    ("runtime.overhead_ms.mc", "ms"),
    ("par.campaign_util.mc", "ratio"),
    ("runtime.diverged_share.mc", "ratio"),
    ("runtime.recovery_iters_max.mc", "count"),
    ("runtime.compile_ms.grid", "ms"),
    ("runtime.golden_ms.grid", "ms"),
    ("runtime.restore_us.grid", "us"),
    ("runtime.compare_us.grid", "us"),
    ("runtime.resume_ms.grid", "ms"),
    ("runtime.msteps_per_s.grid", "Msteps/s"),
    ("runtime.steps_per_trial.grid", "count"),
    ("runtime.trial_ms_p50.grid", "ms"),
    ("runtime.trial_ms_p90.grid", "ms"),
    ("runtime.overhead_ms.grid", "ms"),
    ("par.campaign_util.grid", "ratio"),
    ("runtime.diverged_share.grid", "ratio"),
    ("runtime.recovery_iters_max.grid", "count"),
    ("par.width", "count"),
    ("trace.remainder_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    exe: PathBuf,
    scale: Scale,
    sabotage: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut exe) = (None, None, None, None, None);
    let mut scale = Scale::Full;
    let mut sabotage = false;
    while let Some(flag) = it.next() {
        if flag == "--sabotage" {
            sabotage = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{v}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)? as f64),
            "--trace" => trace = Some(num(&value)? != 0),
            "--sjava" => exe = Some(PathBuf::from(value)),
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale: expected full or tiny, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        exe: exe.ok_or("--sjava is required")?,
        scale,
        sabotage,
    })
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--probe") {
        let threads = std::env::args().nth(2).and_then(|n| n.parse().ok());
        probe::work(threads.unwrap_or(1));
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !matches!(args.workload.as_str(), "cold" | "edit" | "campaign") {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        std::process::exit(2);
    }
    // Every operation runs at the program's default pool width.
    for var in ["SJAVA_THREADS", "SJAVA_PAR_THRESHOLD", "SJAVA_CACHE_DIR"] {
        std::env::remove_var(var);
    }
    let root = std::env::current_dir().expect("cwd is readable");
    // Spawns run in scratch directories, so the binary path must not be
    // relative.
    let Ok(exe) = std::fs::canonicalize(&args.exe) else {
        eprintln!("perfbench: no sjava binary at {}", args.exe.display());
        std::process::exit(2);
    };
    let work = root
        .join(".perfbench")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).expect("work directory is writable");
    sys::set_budget(Duration::from_secs(150));
    sys::flush_disks();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        sabotage: args.sabotage,
        exe,
        root: root.clone(),
        work: work.clone(),
        width: sjava_par::num_threads(),
        started: Instant::now(),
    };
    let mut checks = Checks::default();
    let mut rec = trace::Recorder::new();
    // A crash outside any one operation (in set-up, say) still ends the
    // run with its result object, counted as one more failed operation.
    let measured = checks.guarded(
        || format!("the {} workload", args.workload),
        |checks| match (args.workload.as_str(), args.trace) {
            ("cold", false) => cold::run(&ctx, checks),
            ("cold", true) => cold::traced(&ctx, checks, &mut rec),
            ("edit", false) => edit::run(&ctx, checks),
            ("edit", true) => edit::traced(&ctx, checks, &mut rec),
            ("campaign", false) => campaign::run(&ctx, checks),
            _ => campaign::traced(&ctx, checks, &mut rec),
        },
    );
    let crashed = measured.is_none();
    let mut metrics = measured.unwrap_or_default();
    let _ = std::fs::remove_dir_all(&work);
    // The deletions are written back here, not in the next run's set-up.
    sys::flush_disks();

    let declared: &[(&str, &str)] = if args.trace { PER_LAYER } else { &END_TO_END };
    for entry in metrics.entries() {
        assert!(
            declared.contains(&entry),
            "workload reported undeclared metric `{}` ({})",
            entry.0,
            entry.1
        );
    }
    for &(name, unit) in declared {
        if metrics.get(name).is_none() {
            assert!(
                args.trace || crashed,
                "end-to-end metric `{name}` not measured"
            );
            metrics.set(name, 0.0, unit);
        }
    }
    if args.trace {
        metrics.set("par.width", ctx.width as f64, "count");
        let path = root
            .join(".perfbench")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match rec.write_chrome(&path) {
            Ok(()) => println!("# spans: {} ops written to {}", rec.ops(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "# workload={} seed={} pool_width={} run_s={:.1}",
        args.workload,
        args.seed,
        ctx.width,
        ctx.started.elapsed().as_secs_f64()
    );
    println!("{}", metrics.result_line(&checks));
}
