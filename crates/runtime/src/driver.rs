//! Golden-run comparison and recovery measurement (§6.2 methodology).
//!
//! The evaluation injects one error into an execution and measures how
//! many output samples pass until the program resumes producing exactly
//! the golden run's outputs.

use crate::value::Value;

/// Result of comparing an injected run against the golden run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryStats {
    /// Whether any output differed at all.
    pub diverged: bool,
    /// Global sample index (in the golden stream) of the first differing
    /// output.
    pub first_bad_sample: Option<usize>,
    /// Global sample index of the last differing output.
    pub last_bad_sample: Option<usize>,
    /// First iteration whose outputs differ.
    pub first_bad_iteration: Option<usize>,
    /// Last iteration whose outputs differ.
    pub last_bad_iteration: Option<usize>,
    /// Number of output samples from the first divergence until normal
    /// output resumed (the Fig 6.1 metric).
    pub recovery_samples: usize,
    /// Number of iterations from first divergence until recovery.
    pub recovery_iterations: usize,
}

/// Tolerance-aware value comparison: floats within `eps` are equal (the
/// decoder pipeline is float-heavy and bit-exact equality is what we get
/// from a deterministic interpreter, so `eps = 0.0` is also valid).
fn value_eq(a: &Value, b: &Value, eps: f64) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            if eps == 0.0 {
                x == y || (x.is_nan() && y.is_nan())
            } else {
                (x - y).abs() <= eps || (x.is_nan() && y.is_nan())
            }
        }
        _ => a == b,
    }
}

/// Compares two runs' per-iteration outputs and computes recovery
/// statistics.
///
/// Sample indices are positions in the *golden* output stream — the
/// paper's "number of output samples" is playback time, so an injected
/// iteration that emits extra garbage samples counts as (at most) that
/// whole iteration being bad, not as an unbounded divergence.
pub fn compare_runs(golden: &[Vec<Value>], injected: &[Vec<Value>], eps: f64) -> RecoveryStats {
    compare_window(golden, 0, injected, false, eps)
}

/// [`compare_runs`] against an injected run that is known to equal the
/// golden run outside a window: before iteration `first`, and — when
/// `rejoined` — from iteration `first + window.len()` on. Only `window`
/// (the injected run's iterations from `first`) is compared; sample and
/// iteration indices are the whole run's, so the result is exactly
/// [`compare_runs`] on the stitched run.
pub fn compare_window(
    golden: &[Vec<Value>],
    first: usize,
    window: &[Vec<Value>],
    rejoined: bool,
    eps: f64,
) -> RecoveryStats {
    let mut first_bad_sample = None;
    let mut last_bad_sample = None;
    let mut first_bad_iter = None;
    let mut last_bad_iter = None;
    let end = first + window.len();
    let iters = if rejoined { end } else { end.max(golden.len()) };
    let mut sample_base: usize = golden.iter().take(first).map(Vec::len).sum();
    for i in first..iters {
        let g = golden.get(i).map(|v| v.as_slice()).unwrap_or(&[]);
        let j = window.get(i - first).map(|v| v.as_slice()).unwrap_or(&[]);
        let n = g.len().max(j.len());
        let mut iter_bad = false;
        for k in 0..n {
            let same = match (g.get(k), j.get(k)) {
                (Some(a), Some(b)) => value_eq(a, b, eps),
                _ => false,
            };
            if !same {
                // Clamp to the golden iteration's sample range.
                let idx = sample_base + k.min(g.len().saturating_sub(1));
                if first_bad_sample.is_none() {
                    first_bad_sample = Some(idx);
                }
                last_bad_sample = Some(last_bad_sample.map_or(idx, |l: usize| l.max(idx)));
                iter_bad = true;
            }
        }
        if iter_bad {
            if first_bad_iter.is_none() {
                first_bad_iter = Some(i);
            }
            last_bad_iter = Some(i);
        }
        sample_base += g.len();
    }
    let recovery_samples = match (first_bad_sample, last_bad_sample) {
        (Some(f), Some(l)) => l - f + 1,
        _ => 0,
    };
    let recovery_iterations = match (first_bad_iter, last_bad_iter) {
        (Some(f), Some(l)) => l - f + 1,
        _ => 0,
    };
    RecoveryStats {
        diverged: first_bad_sample.is_some(),
        first_bad_sample,
        last_bad_sample,
        first_bad_iteration: first_bad_iter,
        last_bad_iteration: last_bad_iter,
        recovery_samples,
        recovery_iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn identical_runs_do_not_diverge() {
        let g = vec![iv(&[1, 2]), iv(&[3])];
        let s = compare_runs(&g, &g, 0.0);
        assert!(!s.diverged);
        assert_eq!(s.recovery_samples, 0);
    }

    #[test]
    fn single_bad_window_is_measured() {
        let g = vec![iv(&[1, 2]), iv(&[3, 4]), iv(&[5, 6])];
        let j = vec![iv(&[1, 2]), iv(&[9, 9]), iv(&[5, 6])];
        let s = compare_runs(&g, &j, 0.0);
        assert!(s.diverged);
        assert_eq!(s.first_bad_sample, Some(2));
        assert_eq!(s.last_bad_sample, Some(3));
        assert_eq!(s.recovery_samples, 2);
        assert_eq!(s.recovery_iterations, 1);
        assert_eq!(s.first_bad_iteration, Some(1));
    }

    #[test]
    fn length_mismatch_counts_as_bad() {
        let g = vec![iv(&[1, 2])];
        let j = vec![iv(&[1])];
        let s = compare_runs(&g, &j, 0.0);
        assert!(s.diverged);
        assert_eq!(s.first_bad_sample, Some(1));
    }

    #[test]
    fn window_compare_equals_stitched_compare() {
        let g = vec![iv(&[1, 2]), iv(&[3, 4]), iv(&[5, 6]), iv(&[7])];
        for (first, window, rejoined) in [
            (1, vec![iv(&[9, 4])], true),
            (1, vec![iv(&[9, 4]), iv(&[5])], false),
            (2, vec![iv(&[5, 6])], true),
            (0, vec![], false),
            (3, vec![iv(&[7]), iv(&[8])], false),
        ] {
            let mut stitched = g[..first].to_vec();
            stitched.extend(window.iter().cloned());
            if rejoined {
                stitched.extend_from_slice(&g[first + window.len()..]);
            }
            assert_eq!(
                compare_window(&g, first, &window, rejoined, 0.0),
                compare_runs(&g, &stitched, 0.0),
                "first {first}"
            );
        }
    }

    #[test]
    fn float_tolerance() {
        let g = vec![vec![Value::Float(1.0)]];
        let j = vec![vec![Value::Float(1.0 + 1e-12)]];
        assert!(!compare_runs(&g, &j, 1e-9).diverged);
        assert!(compare_runs(&g, &j, 0.0).diverged);
    }
}
