//! Seeded case generation: adversarial `stressgen` shapes, pathological
//! trivia appendices, and a mutation budget.
//!
//! A case starts from a *valid* program — the stress generator with its
//! adversarial knobs dialed randomly, so deep `@DELTA` chains, wide and
//! degenerate lattices, and `@DELEGATE` relay rings all appear — then
//! optionally gains hostile-but-inert appendix classes (braces hiding
//! in comments, strings, and annotation payloads; deep brace nesting)
//! and finally passes through `0..=3` `crate::fuzz::mutate` operators
//! that may push it anywhere from "still clean" through "near-miss flow
//! violation" to "does not parse". The oracles must hold on all of it.

use crate::stressgen::{self, Mix, StressConfig};

/// Hostile-but-valid classes appended verbatim: every brace the pre-scan
/// might miscount lives inside a comment, a string literal, or deep
/// legal nesting. They are unreachable from the event loop, so they
/// perturb only the front-end and the per-method analyses.
const APPENDICES: &[&str] = &[
    "class FzCommentTorture { /* } { \" */ void g() { int y = 0; } } // }{",
    "class FzStringTorture { void s() { Out.log(\"}{ /* not a comment */ \\\"}\"); } }",
    "class FzDeepNest { void d() { { { { { int z = 1; } } } } } }",
    "@LATTICE(\"A<B\")\n// annotation payloads with ordering noise\nclass FzAnnot { @LOC(\"A\") int a; @LOC(\"B\") int b; }",
    "class FzEmpty { }",
];

/// Generates case `index` of the stream rooted at `seed`. Pure function
/// of its arguments: no process state, no wall clock.
pub fn case(seed: u64, index: u64) -> String {
    // Decorrelate per-case streams: cases are independent of each other
    // and of the order they run in.
    let mut rng = Mix(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x465a_5a43); // "FZZC"
    let cfg = StressConfig {
        classes: 1 + (rng.next() % 3) as usize,
        methods: 1 + (rng.next() % 3) as usize,
        fields: 2 + (rng.next() % 3) as usize,
        loop_depth: 1 + (rng.next() % 2) as usize,
        stmts: 1 + (rng.next() % 3) as usize,
        seed: rng.next(),
        delta_depth: (rng.next() % 7) as usize,
        degenerate: match rng.next() % 3 {
            0 => 0,
            _ => 2 + (rng.next() % 6) as usize,
        },
        cyclic_delegates: match rng.next() % 3 {
            0 => 0,
            _ => 2 + (rng.next() % 3) as usize,
        },
    };
    let mut src = stressgen::generate(&cfg);
    // Pathological appendices, sometimes.
    if rng.next().is_multiple_of(3) {
        let appendix = APPENDICES[rng.next() as usize % APPENDICES.len()];
        src.push_str(appendix);
        src.push('\n');
    }
    // Mutation budget: 0 keeps the valid program (the oracles' happy
    // path also deserves coverage), 1-3 layers in near-miss violations,
    // annotation damage, or outright parse breakage.
    let ops = rng.next() % 4;
    for _ in 0..ops {
        src = super::mutate::mutate(&src, &mut rng);
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_and_seed_sensitive() {
        assert_eq!(case(7, 3), case(7, 3));
        assert_ne!(case(7, 3), case(8, 3));
        assert_ne!(case(7, 3), case(7, 4));
    }

    #[test]
    fn stream_mixes_valid_and_broken_programs() {
        let (mut ok, mut broken) = (0usize, 0usize);
        for i in 0..40 {
            match sjava_syntax::parse(&case(0x5eed, i)) {
                Ok(_) => ok += 1,
                Err(_) => broken += 1,
            }
        }
        assert!(ok > 0, "no case parsed — generator collapsed to garbage");
        assert!(
            broken > 0,
            "every case parsed — mutations never break anything"
        );
    }
}
