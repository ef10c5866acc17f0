//! # sjava-core
//!
//! The Self-Stabilizing Java checker (PLDI 2012): the location type
//! system with the flow-down rule, implicit flows via program-counter
//! locations, lattice-merging call-site checks, linear-type alias
//! restrictions, shared locations, and the driver that combines typing
//! with the eviction and termination analyses into a single
//! self-stabilization verdict.
//!
//! ```
//! let report = sjava_core::check_program(&sjava_syntax::parse(
//!     r#"@LATTICE("LO<HI") @METHODDEFAULT("V<IN") @THISLOC("V")
//!        class A {
//!            @LOC("HI") int cur; @LOC("LO") int prev;
//!            void main() {
//!                SSJAVA: while (true) {
//!                    @LOC("IN") int x = Device.read();
//!                    prev = cur;
//!                    cur = x;
//!                    Out.emit(prev);
//!                }
//!            }
//!        }"#,
//! ).expect("parses"));
//! assert!(report.is_ok(), "{}", report.diagnostics);
//! ```

#![warn(missing_docs)]

pub mod checker;
pub mod linear;
pub mod model;
pub mod shared;

use sjava_analysis::callgraph;
use sjava_analysis::shard::ShardInput;
use sjava_analysis::written::{self, EvictionResult};
use sjava_syntax::ast::Program;
use sjava_syntax::diag::Diagnostics;
use std::time::{Duration, Instant};

pub use checker::{block_weight, MethodChecker};
pub use model::{FieldInfo, Lattices, MethodInfo, ModelCtx};

/// Wall-clock time spent in each phase of the checking pipeline.
///
/// `parse` is only populated by [`check_source`] (callers that hand
/// [`check_program`] an already-parsed AST have no parse phase to
/// charge). `threads` records the fan-out width the parallel phases ran
/// with, so emitted timing artifacts are self-describing.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimings {
    /// Lexing + parsing (only via [`check_source`]).
    pub parse: Duration,
    /// Building method/field lattices from annotations.
    pub lattice_build: Duration,
    /// Call-graph construction from the event loop.
    pub callgraph: Duration,
    /// The definitely-written (eviction) analysis.
    pub eviction: Duration,
    /// Flow-down type checking (the parallel method fan-out).
    pub flow_check: Duration,
    /// Linear-type aliasing checks.
    pub aliasing: Duration,
    /// Shared-location extension checks.
    pub shared: Duration,
    /// Loop termination analysis.
    pub termination: Duration,
    /// Worker threads used by the parallel phases.
    pub threads: usize,
}

impl PhaseTimings {
    /// Sum of all phase durations.
    pub fn total(&self) -> Duration {
        self.parse
            + self.lattice_build
            + self.callgraph
            + self.eviction
            + self.flow_check
            + self.aliasing
            + self.shared
            + self.termination
    }

    /// `(name, duration)` pairs in pipeline order, for tabular output.
    pub fn phases(&self) -> [(&'static str, Duration); 8] {
        [
            ("parse", self.parse),
            ("lattice_build", self.lattice_build),
            ("callgraph", self.callgraph),
            ("eviction", self.eviction),
            ("flow_check", self.flow_check),
            ("aliasing", self.aliasing),
            ("shared", self.shared),
            ("termination", self.termination),
        ]
    }
}

/// Hit/miss counters from the incremental analysis cache (`sjava-cache`).
///
/// `None` on [`CheckReport::cache`] means the check ran the plain
/// whole-program pipeline; `Some` means an incremental session served it
/// and these counters describe how much work was replayed versus redone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Method results replayed from cache (fingerprint matched).
    pub hits: usize,
    /// Method results computed fresh (no entry for the fingerprint).
    pub misses: usize,
    /// Previously-cached methods whose fingerprint changed since the
    /// session's last check — the dirtied call-graph cone.
    pub invalidations: usize,
    /// Entries that went through dependency revalidation and replayed:
    /// every fact in the recorded read-set re-fingerprinted identically.
    pub green: usize,
    /// Entries that went through dependency revalidation and were
    /// rechecked: at least one recorded fact changed since admission.
    pub red: usize,
    /// Entries that went through dependency revalidation at all
    /// (`green + red`).
    pub revalidated: usize,
}

impl CacheStats {
    /// Fraction of per-method results served from cache (`0.0` when
    /// nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Outcome of checking a program for self-stabilization.
#[derive(Debug)]
pub struct CheckReport {
    /// All diagnostics from every phase.
    pub diagnostics: Diagnostics,
    /// The lattice model (available even on failure).
    pub lattices: Lattices,
    /// Eviction analysis result, when the call graph could be built.
    pub eviction: Option<EvictionResult>,
    /// Number of loops the termination analysis could not verify.
    pub termination_failures: usize,
    /// Per-phase wall-clock timings of this check.
    pub timings: PhaseTimings,
    /// Cache counters when the check ran through the incremental layer.
    pub cache: Option<CacheStats>,
}

impl CheckReport {
    /// Whether the program was verified self-stabilizing.
    pub fn is_ok(&self) -> bool {
        !self.diagnostics.has_errors()
    }
}

/// Checks that `program` self-stabilizes: flow-down typing (§4.1),
/// aliasing (§4.1.6), eviction (§4.2) with the shared-location extension
/// (§4.2.2), and loop termination (§4.3).
pub fn check_program(program: &Program) -> CheckReport {
    let mut diags = Diagnostics::new();
    let mut timings = PhaseTimings {
        threads: sjava_par::num_threads(),
        ..PhaseTimings::default()
    };
    let t = Instant::now();
    let lattices = Lattices::build(program, &mut diags);
    timings.lattice_build = t.elapsed();
    let t = Instant::now();
    let cg = callgraph::build(program, &mut diags);
    timings.callgraph = t.elapsed();
    let Some(cg) = cg else {
        diags.sort_stable();
        return CheckReport {
            diagnostics: diags,
            lattices,
            eviction: None,
            termination_failures: 0,
            timings,
            cache: None,
        };
    };
    let t = Instant::now();
    let eviction = written::analyze(program, &cg, &mut diags);
    timings.eviction = t.elapsed();
    // The per-method passes read the program through its interface-
    // summary view (see `sjava_analysis::shard`).
    let shard = ShardInput::whole(program);
    let t = Instant::now();
    checker::check_flows(&shard, &lattices, &cg, &eviction.summaries, &mut diags);
    timings.flow_check = t.elapsed();
    let t = Instant::now();
    linear::check_aliasing(&shard, &lattices, &cg, &mut diags);
    timings.aliasing = t.elapsed();
    let t = Instant::now();
    shared::check_shared(&shard, &lattices, &cg, &mut diags);
    timings.shared = t.elapsed();
    let t = Instant::now();
    let termination_failures = sjava_analysis::termination::check(&shard, &cg, &mut diags);
    timings.termination = t.elapsed();
    // The merged report is presented in the stable total order on
    // (file, span, code) regardless of phase or thread interleaving.
    diags.sort_stable();
    CheckReport {
        diagnostics: diags,
        lattices,
        eviction: Some(eviction),
        termination_failures,
        timings,
        cache: None,
    }
}

/// A failed parse from [`check_source`]: the parser's diagnostics plus
/// the phase timings accumulated before the failure, so failed runs stay
/// measurable (previously the parse-phase timing was silently dropped).
#[derive(Debug)]
pub struct ParseFailure {
    /// The parser's diagnostics.
    pub diagnostics: Diagnostics,
    /// Timings with [`PhaseTimings::parse`] charged for the failed parse.
    pub timings: PhaseTimings,
}

impl std::fmt::Display for ParseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.diagnostics)
    }
}

/// Parses and checks source text, charging parse time to
/// [`PhaseTimings::parse`].
///
/// # Errors
///
/// Returns a [`ParseFailure`] carrying the parser's diagnostics and the
/// parse-phase timing when the source does not parse.
// The Ok variant (`CheckReport`) is no smaller than the Err variant, so
// boxing `ParseFailure` would not shrink the `Result`.
#[allow(clippy::result_large_err)]
pub fn check_source(source: &str) -> Result<CheckReport, ParseFailure> {
    let t = Instant::now();
    let parsed = sjava_syntax::parse(source);
    let parse = t.elapsed();
    match parsed {
        Ok(program) => {
            let mut report = check_program(&program);
            report.timings.parse = parse;
            Ok(report)
        }
        Err(diagnostics) => Err(ParseFailure {
            diagnostics,
            timings: PhaseTimings {
                parse,
                threads: sjava_par::num_threads(),
                ..PhaseTimings::default()
            },
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_syntax::parse;

    /// The paper's running example (Fig 2.1), completed with a concrete
    /// median computation.
    pub const WIND_SENSOR: &str = r#"
        @LATTICE("DIR<TMP,TMP<BIN")
        class WDSensor {
            @LOC("BIN") WindRec bin;
            @LOC("DIR") int dir;

            @LATTICE("STR<WDOBJ,WDOBJ<IN") @THISLOC("WDOBJ")
            void windDirection() {
                bin = new WindRec();
                SSJAVA: while (true) {
                    @LOC("IN") int inDir = Device.readSensor();
                    bin.dir2 = bin.dir1;
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
        }
    "#;

    #[test]
    fn wind_sensor_checks() {
        let p = parse(WIND_SENSOR).expect("parses");
        let report = check_program(&p);
        assert!(report.is_ok(), "{}", report.diagnostics);
    }

    #[test]
    fn flow_up_is_rejected() {
        let p = parse(
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
        )
        .expect("parses");
        let report = check_program(&p);
        assert!(!report.is_ok());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("flow-down")));
    }

    #[test]
    fn implicit_flow_is_rejected() {
        // Branch on low `a`, assign high `b`.
        let p = parse(
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
        )
        .expect("parses");
        let report = check_program(&p);
        assert!(!report.is_ok());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("implicit flow")));
    }

    #[test]
    fn shared_location_allows_accumulation() {
        let p = parse(
            r#"@METHODDEFAULT("V<IN,ACC*,ACC<IN,V<ACC") @THISLOC("V")
               class A {
                   void main() {
                       SSJAVA: while (true) {
                           @LOC("IN") int n = Device.read();
                           @LOC("ACC") int s = 0;
                           for (@LOC("ACC") int i = 0; i < 10; i++) {
                               s = s + 1;
                           }
                           Out.emit(s);
                       }
                   }
               }"#,
        )
        .expect("parses");
        let report = check_program(&p);
        assert!(report.is_ok(), "{}", report.diagnostics);
    }

    #[test]
    fn accumulation_without_shared_is_rejected() {
        let p = parse(
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
        )
        .expect("parses");
        let report = check_program(&p);
        assert!(!report.is_ok());
    }

    #[test]
    fn missing_annotation_is_completeness_error() {
        let p = parse(
            r#"@METHODDEFAULT("V<IN") @THISLOC("V")
               class A {
                   void main() {
                       SSJAVA: while (true) {
                           int x = Device.read();
                           Out.emit(x);
                       }
                   }
               }"#,
        )
        .expect("parses");
        let report = check_program(&p);
        assert!(!report.is_ok());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("missing a @LOC")));
    }

    #[test]
    fn call_site_ordering_is_enforced() {
        // Callee requires arg(lowp) ⊑ arg(highp); caller passes them the
        // other way around.
        let p = parse(
            r#"@METHODDEFAULT("LO<HI,V<LO") @THISLOC("V")
               class A {
                   void main() {
                       SSJAVA: while (true) {
                           @LOC("HI") int h = Device.read();
                           @LOC("LO") int l = h;
                           @LOC("V") int r = f(h, l);
                           Out.emit(r);
                       }
                   }
                   @LATTICE("S<R,R<B,B<T") @THISLOC("S") @RETURNLOC("R")
                   int f(@LOC("B") int lowp, @LOC("T") int highp) {
                       @LOC("R") int out = lowp + highp;
                       return out;
                   }
               }"#,
        )
        .expect("parses");
        let report = check_program(&p);
        assert!(!report.is_ok());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("parameter ordering")));
    }

    #[test]
    fn call_site_correct_ordering_passes() {
        let p = parse(
            r#"@METHODDEFAULT("LO<HI,V<LO") @THISLOC("V")
               class A {
                   void main() {
                       SSJAVA: while (true) {
                           @LOC("HI") int h = Device.read();
                           @LOC("LO") int l = h;
                           @LOC("V") int r = f(l, h);
                           Out.emit(r);
                       }
                   }
                   @LATTICE("S<R,R<B,B<T") @THISLOC("S") @RETURNLOC("R")
                   int f(@LOC("B") int lowp, @LOC("T") int highp) {
                       @LOC("R") int out = lowp + highp;
                       return out;
                   }
               }"#,
        )
        .expect("parses");
        let report = check_program(&p);
        assert!(report.is_ok(), "{}", report.diagnostics);
    }

    #[test]
    fn aliasing_with_different_locations_is_rejected() {
        let p = parse(
            r#"@LATTICE("F<G")
               class A {
                   @LOC("G") R r;
                   @LATTICE("LO<HI,V<LO") @THISLOC("V")
                   void main() {
                       r = new R();
                       SSJAVA: while (true) {
                           @LOC("HI") R x = r;
                           @LOC("LO") R y = x;
                           y.v = Device.read();
                           Out.emit(x.v);
                       }
                   }
               }
               @LATTICE("W") class R { @LOC("W") int v; }"#,
        )
        .expect("parses");
        let report = check_program(&p);
        assert!(!report.is_ok());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("aliasing")));
    }

    #[test]
    fn second_heap_alias_is_rejected() {
        let p = parse(
            r#"@LATTICE("A<B")
               class H {
                   @LOC("B") R f; @LOC("A") R g;
                   @LATTICE("V<IN") @THISLOC("V")
                   void main() {
                       f = new R();
                       SSJAVA: while (true) {
                           @LOC("V") R t = f;
                           g = t;
                           f.v = Device.read();
                           Out.emit(g.v);
                       }
                   }
               }
               @LATTICE("W") class R { @LOC("W") int v; }"#,
        )
        .expect("parses");
        let report = check_program(&p);
        assert!(!report.is_ok());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("heap alias")));
    }

    #[test]
    fn delegate_transfer_kills_the_variable() {
        let p = parse(
            r#"@METHODDEFAULT("V<IN") @THISLOC("V")
               class A {
                   void main() {
                       SSJAVA: while (true) {
                           @LOC("IN") R t = new R();
                           sink(t);
                           Out.emit(t.v);
                       }
                   }
                   @LATTICE("S<P") @THISLOC("S") @PCLOC("P")
                   void sink(@DELEGATE @LOC("P") R q) { q.v = 1; }
               }
               @LATTICE("W") class R { @LOC("W") int v; }"#,
        )
        .expect("parses");
        let report = check_program(&p);
        assert!(!report.is_ok());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("after its ownership")));
    }

    #[test]
    fn parse_failure_keeps_parse_timing() {
        // Regression: a failed parse used to drop the parse-phase timing
        // entirely, making failed runs unmeasurable.
        let err = check_source("class A { this is not sjava").expect_err("must not parse");
        assert!(err.diagnostics.has_errors());
        assert!(err.timings.parse > Duration::ZERO);
        assert_eq!(err.timings.total(), err.timings.parse);
        assert!(err.timings.threads >= 1);
        // Display renders the diagnostics, as the old Err(Diagnostics) did.
        assert_eq!(format!("{err}"), format!("{}", err.diagnostics));
    }

    #[test]
    fn termination_failure_is_reported() {
        let p = parse(
            r#"@METHODDEFAULT("V<IN") @THISLOC("V")
               class A {
                   void main() {
                       SSJAVA: while (true) {
                           @LOC("IN") int x = Device.read();
                           while (x != 0) { x = Device.read(); }
                           Out.emit(x);
                       }
                   }
               }"#,
        )
        .expect("parses");
        let report = check_program(&p);
        assert!(!report.is_ok());
        assert!(report.termination_failures > 0);
    }
}
