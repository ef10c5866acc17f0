//! Input providers: the `Device.*` intrinsic channels.
//!
//! Every `Device.xyz()` call inside the event loop pulls the next value
//! from channel `xyz`. Providers must be deterministic given their seed so
//! golden and error-injected runs see identical inputs.

use crate::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A source of input values per named channel.
pub trait InputProvider {
    /// The next value of `channel` (the intrinsic method name).
    fn next(&mut self, channel: &str) -> Value;

    /// Whether `self` and `other`, two clones of one provider, stand at
    /// the same position, so that they yield the same values from here
    /// on. Campaigns use it to see a trial's state re-match the golden
    /// run's. The default, `false`, means "cannot tell": such trials run
    /// to the end.
    fn same_cursor(&self, other: &Self) -> bool
    where
        Self: Sized,
    {
        let _ = other;
        false
    }
}

/// Scripted inputs: fixed per-channel queues, cycling when exhausted.
#[derive(Debug, Clone)]
pub struct ScriptedInput {
    channels: HashMap<String, (Vec<Value>, usize)>,
    /// Fallback when a channel has no script.
    pub fallback: Value,
}

impl Default for ScriptedInput {
    fn default() -> Self {
        Self::new()
    }
}

impl ScriptedInput {
    /// Creates an empty provider with `Int(0)` fallback.
    pub fn new() -> Self {
        ScriptedInput {
            channels: HashMap::new(),
            fallback: Value::Int(0),
        }
    }

    /// Sets the script of one channel.
    pub fn channel(mut self, name: &str, values: Vec<Value>) -> Self {
        self.channels.insert(name.to_string(), (values, 0));
        self
    }
}

impl InputProvider for ScriptedInput {
    fn next(&mut self, channel: &str) -> Value {
        match self.channels.get_mut(channel) {
            Some((values, pos)) if !values.is_empty() => {
                let v = values[*pos % values.len()].clone();
                *pos += 1;
                v
            }
            _ => self.fallback.clone(),
        }
    }

    fn same_cursor(&self, other: &Self) -> bool {
        self.channels.len() == other.channels.len()
            && self
                .channels
                .iter()
                .all(|(name, (_, pos))| other.channels.get(name).is_some_and(|(_, p)| p == pos))
    }
}

/// Deterministic pseudo-random inputs: ints in a range, floats in
/// `[-1, 1]`, chosen by the channel's name suffix conventions used across
/// the benchmarks.
#[derive(Debug, Clone)]
pub struct SeededInput {
    rng: StdRng,
    /// Range for integer channels.
    pub int_range: (i64, i64),
}

impl SeededInput {
    /// Creates a provider from a seed.
    pub fn new(seed: u64) -> Self {
        SeededInput {
            rng: StdRng::seed_from_u64(seed),
            int_range: (0, 16),
        }
    }
}

impl InputProvider for SeededInput {
    fn next(&mut self, channel: &str) -> Value {
        if channel.contains("Float") || channel.contains("Temp") || channel.contains("Hum") {
            Value::Float(self.rng.gen_range(-1.0..1.0))
        } else {
            Value::Int(self.rng.gen_range(self.int_range.0..self.int_range.1))
        }
    }
}

/// A provider computed by a closure `(channel, call-index) → value`; the
/// most flexible option for benchmark workload generators. The closure
/// is `Fn`, so the call index is the whole cursor: `Clone` (when the
/// closure is) captures the stream position, and two clones at the same
/// index yield the same values.
#[derive(Clone)]
pub struct FnInput<F: Fn(&str, u64) -> Value> {
    f: F,
    count: u64,
}

impl<F: Fn(&str, u64) -> Value> FnInput<F> {
    /// Wraps a closure.
    pub fn new(f: F) -> Self {
        FnInput { f, count: 0 }
    }
}

impl<F: Fn(&str, u64) -> Value> InputProvider for FnInput<F> {
    fn next(&mut self, channel: &str) -> Value {
        let v = (self.f)(channel, self.count);
        self.count += 1;
        v
    }

    fn same_cursor(&self, other: &Self) -> bool {
        self.count == other.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_cycles() {
        let mut s = ScriptedInput::new().channel("read", vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(s.next("read"), Value::Int(1));
        assert_eq!(s.next("read"), Value::Int(2));
        assert_eq!(s.next("read"), Value::Int(1));
        assert_eq!(s.next("other"), Value::Int(0));
    }

    #[test]
    fn seeded_is_deterministic() {
        let mut a = SeededInput::new(7);
        let mut b = SeededInput::new(7);
        for _ in 0..10 {
            assert_eq!(a.next("readSensor"), b.next("readSensor"));
        }
    }

    #[test]
    fn fn_input_sees_indices() {
        let mut f = FnInput::new(|_, i| Value::Int(i as i64 * 10));
        assert_eq!(f.next("x"), Value::Int(0));
        assert_eq!(f.next("x"), Value::Int(10));
    }

    #[test]
    fn cursors_compare_by_position() {
        let mut a = ScriptedInput::new()
            .channel("read", vec![Value::Int(1)])
            .channel("other", vec![Value::Int(2)]);
        let mut b = a.clone();
        assert!(a.same_cursor(&b));
        a.next("read");
        assert!(!a.same_cursor(&b));
        b.next("read");
        assert!(a.same_cursor(&b));

        let mut f = FnInput::new(|_, i| Value::Int(i as i64));
        let g = f.clone();
        assert!(f.same_cursor(&g));
        f.next("x");
        assert!(!f.same_cursor(&g));

        // Not comparable: the default answer.
        let s = SeededInput::new(1);
        assert!(!s.same_cursor(&s.clone()));
    }
}
