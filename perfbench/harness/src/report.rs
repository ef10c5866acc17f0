//! Sample statistics, known-answer accounting and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The wall times of samples timed with a probe index (`Probe::read`).
pub fn wall(timed: &[(f64, usize)]) -> Vec<f64> {
    timed.iter().map(|s| s.0).collect()
}

/// Every known-answer check of a run: one operation each.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one operation; a failed one is reported on stderr (the
    /// first few in full, the rest only counted).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: FAILED: {}", what());
            }
        }
    }

    /// Runs one in-process operation, handing it the checks. If it
    /// panics (the code under test crashed, or returned an error where an
    /// answer was due), that counts as one failed operation and gives
    /// `None`; the run goes on.
    pub fn guarded<T>(
        &mut self,
        what: impl FnOnce() -> String,
        f: impl FnOnce(&mut Checks) -> T,
    ) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(|| f(self))) {
            Ok(out) => Some(out),
            Err(_) => {
                self.check(false, || format!("{}: crashed", what()));
                None
            }
        }
    }
}

/// Named metrics, each with its unit, kept sorted by name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// `(name, unit)` of every metric set.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &str)> {
        self.values.iter().map(|(n, v)| (n.as_str(), v.1))
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, checks: &Checks) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            checks.failed == 0 && checks.attempted > 0,
            checks.attempted,
            checks.failed
        );
        for (i, (name, (value, unit))) in self.values.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push_str("}}");
        out
    }
}

/// FNV-1a over every generated input, so two runs can show they drew
/// byte-identical inputs from one seed.
#[derive(Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
