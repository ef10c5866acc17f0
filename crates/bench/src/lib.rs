//! # sjava-bench
//!
//! Harness for the Self-Stabilizing Java evaluation (chapter 6). Each
//! paper table and figure has a binary (`fig6_1`–`fig6_4`, `table6_1`,
//! `eval_eye`, `eval_robot`, `ablation_sticky`); their fault-injection
//! trials run as [`sjava_runtime::Campaign`]s. The timing legs and CI
//! gates live in one binary, `bench [check|infer|edit|vm] [--gate]`,
//! over the core below: the paper-app list, [`Sample`], the
//! [`Mode`]-aware results writer and the [`Gate`].

#![warn(missing_docs)]

pub mod fuzz;
pub mod stressgen;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The four annotated paper apps, `(name, source)`, in report order.
pub fn paper_apps() -> [(&'static str, &'static str); 4] {
    [
        ("windsensor", sjava_apps::windsensor::SOURCE),
        ("eyetrack", sjava_apps::eyetrack::SOURCE),
        ("sumobot", sjava_apps::sumobot::SOURCE),
        ("mp3dec", sjava_apps::mp3dec::source()),
    ]
}

/// Which sizes a `bench` leg runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--gate`: the CI sizes; nothing is written.
    Gate,
    /// The report sizes; each leg rewrites its `results/BENCH_*.json`.
    Report,
}

impl Mode {
    /// `gate` in gate mode, `report` in report mode.
    pub fn pick<T>(self, gate: T, report: T) -> T {
        match self {
            Mode::Gate => gate,
            Mode::Report => report,
        }
    }

    /// Writes `report` to `results/{file}` in report mode; gate mode
    /// writes nothing.
    pub fn write(self, file: &str, report: Obj) {
        if self == Mode::Report {
            let path = write_result(file, &Json::from(report).render());
            println!("written to {}", path.display());
        }
    }
}

/// A value in a `results/BENCH_*.json` report, hand-emitted like the
/// checker's JSON and SARIF output.
#[derive(Debug, Clone)]
pub enum Json {
    /// A rendered number, flag or string.
    Leaf(String),
    /// A list.
    Arr(Vec<Json>),
    /// An object.
    Obj(Obj),
}

/// A JSON object, members in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Obj(Vec<(&'static str, Json)>);

impl Obj {
    /// Appends the member `key: value`.
    pub fn f(mut self, key: &'static str, value: impl Into<Json>) -> Obj {
        self.0.push((key, value.into()));
        self
    }
}

/// Builds an [`Obj`] from `"key" => value` pairs, in order.
#[macro_export]
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::Obj::default()$(.f($key, $value))*
    };
}

macro_rules! json_leaf {
    ($($t:ty),*) => {
        $(impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Leaf(v.to_string())
            }
        })*
    };
}
json_leaf!(usize, u64, bool);

/// Measurements print with four decimals; a non-finite one as `null`.
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Leaf(if v.is_finite() {
            format!("{v:.4}")
        } else {
            "null".into()
        })
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Leaf(format!("{v:?}"))
    }
}

impl From<Obj> for Json {
    fn from(v: Obj) -> Json {
        Json::Obj(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Pretty-prints the value: arrays and the objects in the top two
    /// levels put one item per line; anything deeper stays on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, items): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Leaf(s) => return out.push_str(s),
            Json::Arr(v) => ('[', ']', v.iter().map(|j| (None, j)).collect()),
            Json::Obj(Obj(m)) => ('{', '}', m.iter().map(|(k, j)| (Some(*k), j)).collect()),
        };
        let multiline = matches!(self, Json::Arr(_)) || depth < 2;
        let gap = |d: usize| {
            if multiline {
                format!("\n{}", "  ".repeat(d))
            } else {
                " ".to_string()
            }
        };
        out.push(open);
        for (i, (key, item)) in items.into_iter().enumerate() {
            out.push_str(if i == 0 { "" } else { "," });
            out.push_str(&gap(depth + 1));
            if let Some(key) = key {
                out.push_str(&format!("\"{key}\": "));
            }
            item.write(out, depth + 1);
        }
        out.push_str(&gap(depth));
        out.push(close);
    }
}

/// Timed reps of one configuration: wall-clock milliseconds, plus the
/// per-phase breakdown each rep reported (`PhaseTimings::phases`,
/// `InferTimings::phases`), if any.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    wall: Vec<f64>,
    phases: Vec<Vec<(&'static str, Duration)>>,
}

impl Sample {
    /// Times `reps` calls of `rep`, keeping the phases each call returns.
    pub fn time<P>(reps: usize, mut rep: impl FnMut() -> P) -> Sample
    where
        P: IntoIterator<Item = (&'static str, Duration)>,
    {
        Sample::time_each(reps, || (), |()| rep())
    }

    /// [`Sample::time`] with an untimed `setup` before each rep, whose
    /// output the rep consumes.
    pub fn time_each<I, P>(
        reps: usize,
        mut setup: impl FnMut() -> I,
        mut rep: impl FnMut(I) -> P,
    ) -> Sample
    where
        P: IntoIterator<Item = (&'static str, Duration)>,
    {
        let mut s = Sample::default();
        for _ in 0..reps {
            let input = setup();
            let t = Instant::now();
            let phases = rep(input);
            s.wall.push(ms(t.elapsed()));
            s.phases.push(phases.into_iter().collect());
        }
        s
    }

    /// Records one rep the caller timed, with no phase breakdown.
    pub fn push(&mut self, wall: Duration) {
        self.wall.push(ms(wall));
    }

    /// The fastest rep, in ms.
    pub fn min(&self) -> f64 {
        self.wall.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The median rep, in ms.
    pub fn median(&self) -> f64 {
        median(self.wall.clone())
    }

    /// The mean rep, in ms.
    pub fn mean(&self) -> f64 {
        self.wall.iter().sum::<f64>() / self.wall.len().max(1) as f64
    }

    /// Per-phase medians across reps, as a `{ "phase": ms }` object.
    pub fn phases(&self) -> Obj {
        let mut obj = Obj::default();
        for (i, (name, _)) in self.phases.first().into_iter().flatten().enumerate() {
            obj = obj.f(
                name,
                median(self.phases.iter().map(|p| ms(p[i].1)).collect()),
            );
        }
        obj
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Runs `f` with the worker pool pinned to `threads` (`SJAVA_THREADS`),
/// then puts the variable back as it was, so a leg leaves the process
/// as it found it.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let saved = std::env::var_os(sjava_par::THREADS_ENV);
    std::env::set_var(sjava_par::THREADS_ENV, threads.to_string());
    let out = f();
    match saved {
        Some(v) => std::env::set_var(sjava_par::THREADS_ENV, v),
        None => std::env::remove_var(sjava_par::THREADS_ENV),
    }
    out
}

/// A fresh, empty directory under the system temp dir, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Creates `sjava-bench-<pid>-<label>`, emptying any leftover.
    pub fn new(label: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("sjava-bench-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Collects every check the `bench` legs make. Failures and skip notices
/// print as they happen; [`Gate::finish`] lists them again and turns
/// them into the exit code.
#[derive(Debug, Default)]
pub struct Gate {
    passed: usize,
    failures: Vec<String>,
    skipped: Vec<String>,
}

impl Gate {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            let what = what();
            eprintln!("GATE FAIL: {what}");
            self.failures.push(what);
        }
    }

    /// Records `value ≥ floor` for the ratio `name`, or, when `skip`
    /// gives a reason the host cannot measure it, a skip notice instead.
    pub fn floor(&mut self, name: &str, value: f64, floor: f64, skip: Option<&str>) {
        match skip {
            Some(why) => {
                let notice = format!("{name} ≥ {floor:.2}x ({why})");
                println!("gate: skipped {notice}");
                self.skipped.push(notice);
            }
            None => self.check(value >= floor, || {
                format!("{name} {value:.2}x < {floor:.2}x")
            }),
        }
    }

    /// Prints the summary; the exit code fails if any check did.
    pub fn finish(self) -> ExitCode {
        println!();
        for notice in &self.skipped {
            println!("gate: skipped {notice}");
        }
        if self.failures.is_empty() {
            println!("gate: all {} checks passed", self.passed);
            return ExitCode::SUCCESS;
        }
        for what in &self.failures {
            eprintln!("GATE FAIL: {what}");
        }
        eprintln!(
            "gate: {} of {} checks failed",
            self.failures.len(),
            self.failures.len() + self.passed
        );
        ExitCode::FAILURE
    }
}

/// Writes experiment output under `results/`, creating the directory.
pub fn write_result(name: &str, contents: &str) -> PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write result file");
    path
}

/// Reads a figure binary's scaling setting (`SJAVA_TRIALS`,
/// `SJAVA_GRANULE`, ...): `default` when unset; a value that does not
/// parse exits 2 before any work, naming the variable.
pub fn env_usize(name: &str, default: usize) -> usize {
    let Some(raw) = std::env::var_os(name) else {
        return default;
    };
    match raw.to_str().and_then(|v| v.parse().ok()) {
        Some(n) => n,
        None => {
            eprintln!("error: {name}={raw:?} is not a non-negative integer");
            std::process::exit(2);
        }
    }
}

/// Panics when `diags` contains errors, so benchmark runs fail loudly
/// instead of silently counting new diagnostics into their numbers.
pub fn assert_clean(name: &str, diags: &sjava_syntax::diag::Diagnostics) {
    assert!(!diags.has_errors(), "{name} must check cleanly: {diags}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_reports_min_median_mean_and_phase_medians() {
        let mut reps = [3u64, 1, 2].into_iter();
        let s = Sample::time(3, || {
            let n = reps.next().expect("three reps");
            [
                ("parse", Duration::from_millis(n)),
                ("flow", Duration::ZERO),
            ]
        });
        assert!(s.min() <= s.median() && s.wall.len() == 3);
        let mut pushed = Sample::default();
        for n in [4, 1, 2] {
            pushed.push(Duration::from_millis(n));
        }
        assert_eq!(
            (pushed.min(), pushed.median(), pushed.mean()),
            (1.0, 2.0, 7.0 / 3.0)
        );
        let phases = Json::from(s.phases()).render();
        assert_eq!(phases, "{\n  \"parse\": 2.0000,\n  \"flow\": 0.0000\n}\n");
    }

    #[test]
    fn json_nests_two_levels_and_keeps_rows_on_one_line() {
        let row = |name: &str| obj! { "name" => name, "ok" => true, "n" => 3usize };
        let report = obj! {
            "rows" => vec![row("a"), row("b")],
            "inner" => obj! { "x" => 0.5, "deep" => obj! { "y" => f64::NAN } },
        };
        assert_eq!(
            Json::from(report).render(),
            "{\n  \"rows\": [\n    { \"name\": \"a\", \"ok\": true, \"n\": 3 },\n    \
             { \"name\": \"b\", \"ok\": true, \"n\": 3 }\n  ],\n  \"inner\": {\n    \
             \"x\": 0.5000,\n    \"deep\": { \"y\": null }\n  }\n}\n"
        );
    }

    #[test]
    fn gate_fails_on_any_failed_check_and_skips_do_not_count() {
        let mut gate = Gate::default();
        gate.check(true, String::new);
        gate.floor("ratio", 0.5, 2.0, Some("narrow host"));
        assert_eq!(gate.finish(), ExitCode::SUCCESS);
        let mut gate = Gate::default();
        gate.floor("ratio", 1.5, 2.0, None);
        assert_eq!(gate.failures, ["ratio 1.50x < 2.00x"]);
        assert_eq!(gate.finish(), ExitCode::FAILURE);
    }
}
