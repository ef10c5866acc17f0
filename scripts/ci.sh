#!/usr/bin/env bash
# Tier-1 gate for the workspace. Run from the repository root:
#
#   ./scripts/ci.sh
#
# Steps:
#   1. rustfmt check over the whole workspace
#   2. release build of every crate
#   3. the full test suite (includes the 1-vs-N worker determinism
#      regression in crates/bench/tests/determinism.rs)
#   4. clippy with warnings denied
#   5. rustdoc over the workspace crates with warnings denied (broken or
#      private intra-doc links fail the build)
#   6. an explicit release-mode run of the determinism regression, so
#      the parallel pipeline is exercised with optimizations on
#   7. the golden-diagnostic snapshot suite (regenerate fixtures with
#      SJAVA_REGEN_GOLDEN=1 after an intentional diagnostic change),
#      followed by a freshness gate: the fixtures are regenerated into
#      place and any drift from the checked-in bytes fails the build
#   8. the incremental-cache correctness suite, with the worker pool
#      pinned to 1 and then 4 threads so cached replay is proven
#      deterministic across fan-out widths
#   9. the benchmark gates (`bench --gate`): all four legs at CI sizes,
#      writing nothing under results/ —
#      - check: stress speedup ≥2.5x at 4 workers (skipped below 4
#        workers) and small-app parallel tax ≥0.95x (skipped at 1 worker);
#      - infer: dense == legacy-oracle annotations at every width and in
#        both modes, dense ≥1.5x the oracle at 1 worker, and dense at max
#        width ≥1.0x dense at 1 (skipped below 4 workers);
#      - edit: every incremental output byte-identical to a full check,
#        warm ≤1.10x cold (min of 10 reps) over an on-disk store the leg
#        creates, a one-literal edit on mp3dec_w512 ≥5x faster than cold,
#        a storm edit re-checking at most half of a ≥10-method corpus, an
#        interface edit re-checking ≤25% of the 201-method stress corpus
#        at 1 and 4 threads and through the store (which must agree with
#        the in-memory session), a source-text edit re-checked through
#        `check_source` at 1 thread in ≤0.25x a cold `check_source`, and
#        an unused field re-checking nothing;
#      - vm: byte-identical VM and tree-walker traces on the five apps and
#        three stress presets (plain and fault-injected), the first 48
#        mp3dec campaign trials equal to the interpreter replaying each
#        trial's injector, and the VM ≥5x the tree-walker on mp3dec
#        (skipped below 4 cores)
#  10. a fixed-seed differential fuzz smoke: 500 generated cases
#      (adversarial stress shapes + mutations) through all five oracles;
#      any mismatch fails the build. Each compares:
#      - check: the checker's output at 1, 2 and 4 worker threads;
#      - infer: the inference engine against its legacy oracle
#        (`sjava_infer::oracle`), in both modes;
#      - cache: a fresh check against cold, warm and disk-replayed cache
#        sessions, then seeded edits under one session;
#      - parse: the adaptive and forced-parallel front ends against the
#        sequential parser;
#      - emit: the JSON and SARIF emitters' invariants
#  11. the repository benchmark's self-test (`perfbench/run.py
#      --self-test`): builds the CLI and the benchmark harness against the
#      workspace crates, runs every workload at a tiny size, and checks
#      every metric and answer. It is the one step that builds the
#      harness, so a change to an API the harness uses fails here rather
#      than in the benchmark
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt =="
cargo fmt --all --check

echo "== build (release) =="
cargo build --release --workspace

echo "== test =="
cargo test -q --workspace

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== determinism: identical diagnostics at 1..8 worker threads =="
cargo test --release -q -p sjava-bench --test determinism

echo "== golden diagnostics (apps + violation probes, cold and cached) =="
cargo test --release -q -p sjava-bench --test golden

echo "== golden fixtures are fresh (regenerate + diff, incl. fuzz near-miss corpus) =="
golden_dir=crates/bench/tests/golden
backup_dir=$(mktemp -d)
cp -r "$golden_dir"/. "$backup_dir"/
SJAVA_REGEN_GOLDEN=1 cargo test --release -q -p sjava-bench --test golden
SJAVA_REGEN_GOLDEN=1 cargo test --release -q -p sjava-bench --test fuzz_fixtures
if ! diff -ru "$backup_dir" "$golden_dir" >/dev/null; then
    diff -ru "$backup_dir" "$golden_dir" || true
    cp -r "$backup_dir"/. "$golden_dir"/
    rm -rf "$backup_dir"
    echo "golden fixtures are stale: regenerating them produced different bytes." >&2
    echo "Run SJAVA_REGEN_GOLDEN=1 cargo test -p sjava-bench --test golden --test fuzz_fixtures and commit the diff." >&2
    exit 1
fi
rm -rf "$backup_dir"

echo "== incremental cache correctness at 1 and 4 worker threads =="
SJAVA_THREADS=1 cargo test --release -q -p sjava-cache --test correctness
SJAVA_THREADS=4 cargo test --release -q -p sjava-cache --test correctness

echo "== bench gates (check, infer, edit, vm) =="
# One process runs every leg at CI sizes and exits non-zero if any
# identity check or floor failed; it writes nothing under results/, and
# the edit leg makes its own on-disk store in a temp dir.
target/release/bench --gate

echo "== differential fuzz smoke (seed 1, 500 cases, all oracles) =="
# Byte-reproducible: the same seed and case count generate the same
# stream on every machine, so a failure here is a real disagreement
# between the runs an oracle compares, not flakiness. Re-run a failing case interactively with
#   target/release/sjava fuzz --seed=1 --cases=500 --minimize --fixtures-dir=findings/
target/release/sjava fuzz --seed=1 --cases=500

echo "== benchmark self-test (builds the perfbench harness, tiny workloads) =="
# Builds into the workspace target directory, which already holds the
# release CLI, so only the harness is compiled here.
CARGO_TARGET_DIR=target python3 perfbench/run.py --self-test

echo "CI green"
