//! Structure-aware differential fuzzing harness.
//!
//! The repo carries several paths that must agree observationally — the
//! checker at one and at several worker threads, the inference engine
//! vs. its legacy oracle, cold vs. warm (and disk-replayed) cache,
//! parallel vs. sequential front-end — plus emitters whose output must
//! stay sorted and parseable. Nothing
//! but hand-picked apps and the well-behaved `stressgen` shapes
//! exercised them before this module: per "Ideal Stabilization", every
//! state — including faulty ones — must yield specified behavior, so
//! the diagnostic path gets the same adversarial pressure as the happy
//! path.
//!
//! Each fuzz case is generated by [`gen::case`] — a seeded AST-level
//! generator (adversarial `stressgen` knobs: deep `@DELTA` chains,
//! degenerate lattices, `@DELEGATE` relays) composed with the
//! `mutate` operators (annotation swaps, body truncation, span
//! perturbation, brace/comment/string torture) so valid, near-miss, and
//! outright broken programs all appear. Every case runs through the
//! [`Oracle`]s selected in [`FuzzConfig`]; a mismatch becomes a
//! [`Finding`], optionally shrunk by the [`minimize`] delta-debugger
//! and written out as a golden fixture.
//!
//! Everything is a pure function of `(seed, case index)` — no wall
//! clock, no global RNG — so `sjava fuzz --seed=S --cases=N` is
//! byte-reproducible (same findings, same order) across machines.
//!
//! **Environment caveat:** the check oracle sweeps `SJAVA_THREADS`
//! (saving and restoring the previous value), so [`run`] must not race
//! other threads that read or write that variable — call it from the
//! CLI process or from a single-`#[test]` harness, the same convention
//! the determinism suite uses.

pub mod gen;
pub mod minimize;
pub(crate) mod mutate;
pub mod oracles;

use std::path::PathBuf;

/// One differential oracle: runs that must agree on every input (or a
/// set of output invariants that must hold on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Oracle {
    /// `check_source` at `SJAVA_THREADS=1/2/4` byte-identical: worker
    /// counts only, with one engine.
    Check,
    /// The inference engine vs. its legacy oracle
    /// (`sjava_infer::oracle`), both modes: agreement on
    /// success/failure, re-annotated bytes, lattice keys and structural
    /// fingerprints (including generated `SH_*` names), and location
    /// assignments.
    Infer,
    /// Fresh check vs. in-memory cold/warm replay vs. an on-disk
    /// persist-and-reload session: all byte-identical.
    Cache,
    /// Adaptive and forced-parallel front-ends against the sequential
    /// parser: byte-identical programs and diagnostics.
    Parse,
    /// Emitter invariants: stable diagnostic sort, strictly parseable
    /// JSON and SARIF, consistent header counts, re-render determinism.
    Emit,
}

impl Oracle {
    /// Every oracle, in the fixed order findings are reported in.
    pub const ALL: [Oracle; 5] = [
        Oracle::Check,
        Oracle::Infer,
        Oracle::Cache,
        Oracle::Parse,
        Oracle::Emit,
    ];

    /// The CLI name of this oracle.
    pub fn name(self) -> &'static str {
        match self {
            Oracle::Check => "check",
            Oracle::Infer => "infer",
            Oracle::Cache => "cache",
            Oracle::Parse => "parse",
            Oracle::Emit => "emit",
        }
    }

    /// Parses an `--oracle=` value: `all` or one oracle name.
    pub fn parse_set(value: &str) -> Option<Vec<Oracle>> {
        if value == "all" {
            return Some(Oracle::ALL.to_vec());
        }
        Oracle::ALL
            .into_iter()
            .find(|o| o.name() == value)
            .map(|o| vec![o])
    }
}

/// Test-only fault injection: the named oracle reports a mismatch on
/// any source containing `needle`, regardless of what the engines say.
/// This proves end to end that a genuinely broken oracle is *caught*
/// and that the minimizer shrinks its witness — the harness's own
/// false-negative check.
#[derive(Debug, Clone)]
pub struct Fault {
    /// The oracle to sabotage.
    pub oracle: Oracle,
    /// Substring that triggers the injected mismatch.
    pub needle: String,
}

/// Configuration of one fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Base seed; every case derives its own splitmix64 stream from
    /// `(seed, index)`.
    pub seed: u64,
    /// Number of cases to generate and run.
    pub cases: usize,
    /// Oracles to run on each case.
    pub oracles: Vec<Oracle>,
    /// Shrink each finding with the delta-debugging minimizer.
    pub minimize: bool,
    /// When set, write each (minimized, if enabled) finding as a
    /// fixture `fuzz_<seed>_<case>_<oracle>.sj` under this directory.
    pub fixtures_dir: Option<PathBuf>,
    /// Test-only fault injection; `None` in production runs.
    pub fault: Option<Fault>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0x534a_465a, // "SJFZ"
            cases: 100,
            oracles: Oracle::ALL.to_vec(),
            minimize: false,
            fixtures_dir: None,
            fault: None,
        }
    }
}

/// One oracle mismatch: which case, which oracle, what disagreed, and
/// the witness program (plus its minimized form when requested).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Index of the generated case (0-based).
    pub case: usize,
    /// The oracle that disagreed.
    pub oracle: Oracle,
    /// One-line description of the mismatch.
    pub detail: String,
    /// The full generated source that triggered it.
    pub source: String,
    /// The delta-debugged witness, when minimization ran.
    pub minimized: Option<String>,
    /// Where the fixture was written, when a fixtures dir was set.
    pub fixture: Option<PathBuf>,
}

/// The outcome of a fuzzing run. `PartialEq` so reproducibility can be
/// asserted structurally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: usize,
    /// Oracles that ran on each case.
    pub oracles: Vec<Oracle>,
    /// Every mismatch, in (case, oracle) order.
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    /// Human-readable run summary, one line per finding.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fuzz: {} cases x {} oracles, {} finding(s)\n",
            self.cases,
            self.oracles.len(),
            self.findings.len()
        );
        for f in &self.findings {
            out.push_str(&format!(
                "  case {} [{}]: {}{}\n",
                f.case,
                f.oracle.name(),
                f.detail,
                match (&f.minimized, &f.fixture) {
                    (Some(m), Some(p)) => format!(
                        " (minimized to {} statement(s), fixture {})",
                        minimize::statement_count(m),
                        p.display()
                    ),
                    (Some(m), None) => format!(
                        " (minimized to {} statement(s))",
                        minimize::statement_count(m)
                    ),
                    (None, Some(p)) => format!(" (fixture {})", p.display()),
                    (None, None) => String::new(),
                }
            ));
        }
        out
    }
}

/// Runs one oracle over one source, honoring the fault hook. `Some` is
/// the mismatch description.
fn check_case(
    oracle: Oracle,
    src: &str,
    fault: Option<&Fault>,
    scratch: &std::path::Path,
) -> Option<String> {
    if let Some(f) = fault {
        if f.oracle == oracle && src.contains(&f.needle) {
            return Some(format!("injected fault: source contains {:?}", f.needle));
        }
    }
    match oracle {
        Oracle::Check => oracles::check(src),
        Oracle::Infer => oracles::infer(src),
        Oracle::Cache => oracles::cache(src, scratch),
        Oracle::Parse => oracles::parse(src),
        Oracle::Emit => oracles::emit(src),
    }
}

/// Runs the configured fuzzing campaign. Deterministic per
/// [`FuzzConfig`]: same seed and case count ⇒ same findings in the same
/// order, byte for byte.
pub fn run(cfg: &FuzzConfig) -> FuzzReport {
    let mut findings = Vec::new();
    // The cache oracle needs a scratch directory for its persist/reload
    // session; the path never appears in the report, so the pid suffix
    // (collision safety between concurrent runs) keeps determinism.
    let scratch_root = std::env::temp_dir().join(format!(
        "sjava-fuzz-{:016x}-{}",
        cfg.seed,
        std::process::id()
    ));
    for case in 0..cfg.cases {
        let src = gen::case(cfg.seed, case as u64);
        for &oracle in &cfg.oracles {
            let scratch = scratch_root.join(format!("case{case}"));
            let Some(detail) = check_case(oracle, &src, cfg.fault.as_ref(), &scratch) else {
                continue;
            };
            let minimized = cfg.minimize.then(|| {
                minimize::minimize(&src, &mut |cand| {
                    check_case(oracle, cand, cfg.fault.as_ref(), &scratch).is_some()
                })
            });
            let fixture = cfg.fixtures_dir.as_ref().map(|dir| {
                let path = dir.join(format!(
                    "fuzz_{:016x}_{}_{}.sj",
                    cfg.seed,
                    case,
                    oracle.name()
                ));
                let body = minimized.as_deref().unwrap_or(&src);
                let _ = std::fs::create_dir_all(dir);
                let _ = std::fs::write(&path, body);
                path
            });
            findings.push(Finding {
                case,
                oracle,
                detail,
                source: src.clone(),
                minimized,
                fixture,
            });
        }
    }
    let _ = std::fs::remove_dir_all(&scratch_root);
    FuzzReport {
        cases: cfg.cases,
        oracles: cfg.oracles.clone(),
        findings,
    }
}
