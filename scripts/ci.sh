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
#   5. an explicit release-mode run of the determinism regression, so
#      the parallel pipeline is exercised with optimizations on
#   6. the golden-diagnostic snapshot suite (regenerate fixtures with
#      SJAVA_REGEN_GOLDEN=1 after an intentional diagnostic change),
#      followed by a freshness gate: the fixtures are regenerated into
#      place and any drift from the checked-in bytes fails the build
#   7. the incremental-cache correctness suite, with the worker pool
#      pinned to 1 and then 4 threads so cached replay is proven
#      deterministic across fan-out widths
#   8. the benchmark harness in gate mode on the small stress preset,
#      enforcing the parallel-speedup and small-app-tax floors. With the
#      work-stealing scheduler and parallel front-end the stress floor
#      is raised to 2.5x at 4 workers (skipped on machines with <4
#      cores, where the measurement is meaningless)
#   9. the inference benchmark in gate mode on the small stress preset,
#      enforcing the dense-vs-legacy speedup floor (≥1.5x at 1 worker)
#      and, on machines with ≥4 cores, the parallel-scaling floor
#      (dense at max workers must not lose to dense at 1, ≥1.0x); the
#      byte-identity oracle check (dense == legacy annotations at every
#      width) runs first inside the binary
#  10. the incremental benchmark in gate mode with an on-disk cache
#      directory: a warm re-check must never be slower than a cold
#      check on any benchmark (min-of-reps), which pins the fix for
#      the small-app persistence regression
#  11. a fixed-seed differential fuzz smoke: 500 generated cases
#      (adversarial stress shapes + mutations) through all five
#      engine-pair oracles; any mismatch fails the build
#  12. the edit-storm gate (bench_edit): red-green revalidation must
#      re-check ≤ 25% of methods after a single-method interface edit
#      on the large stress corpus (at 1 and 4 worker threads, and
#      through a fresh session over a primed artifact store, which must
#      red and replay exactly what the in-memory session does), an
#      unused-field edit must re-check zero, and every incremental
#      output must be byte-identical to a fresh full check of the same
#      mutated AST; the ratio floor auto-skips only when the corpus has
#      < 50 methods
#  13. the VM gate (bench_vm): the register-bytecode VM must produce
#      byte-identical traces to the tree-walking interpreter on the
#      four paper apps + mp3dec and across the stress corpus (plain
#      and fault-injected, both kinds), the first 48 mp3dec campaign
#      trials (checkpoint restore, convergence stop) must equal the
#      interpreter running each seed from scratch, and the VM must beat
#      the interpreter by ≥5x on mp3dec (the throughput floor
#      auto-skips on machines with <4 cores, where the measurement is
#      too noisy; identity always gates)
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

echo "== bench smoke gate (small stress preset, 3 reps) =="
# Exercises the full harness end to end and enforces the perf floors:
# stress speedup ≥ SJAVA_GATE_STRESS at ≥4 workers and small-app
# parallel tax ≥ SJAVA_GATE_SMALL (each skipped on machines too narrow
# to measure it). The small preset keeps this a smoke test, not a
# benchmark run; it runs from a scratch directory so the smoke JSON
# does not overwrite the committed results/BENCH_checker.json.
gate_bin=$PWD/target/release/bench_checker
gate_dir=$(mktemp -d)
(cd "$gate_dir" && SJAVA_STRESS_PRESET=small SJAVA_REPS=3 SJAVA_GATE_STRESS=2.5 "$gate_bin" --gate)
rm -rf "$gate_dir"

echo "== inference bench gate (small stress preset, 5 reps) =="
# Same pattern for the inference engine: dense must beat legacy by
# ≥ SJAVA_GATE_INFER (default 1.5x) at 1 worker even on the small
# preset, and annotations must be byte-identical across engines and
# worker counts. bench_infer clamps reps to ≥5 for stable minima.
infer_bin=$PWD/target/release/bench_infer
infer_dir=$(mktemp -d)
(cd "$infer_dir" && SJAVA_STRESS_PRESET=small SJAVA_REPS=5 "$infer_bin" --gate)
rm -rf "$infer_dir"

echo "== incremental warm-cache gate (on-disk cache, 10 reps) =="
# A directory-backed warm re-check must never be slower than a cold
# check — the disk round-trip is skipped for programs too small to
# amortize it, and this gate is what keeps that true.
inc_bin=$PWD/target/release/bench_incremental
inc_dir=$(mktemp -d)
(cd "$inc_dir" && SJAVA_CACHE_DIR="$inc_dir/cache" SJAVA_REPS=10 "$inc_bin" --gate)
rm -rf "$inc_dir"

echo "== differential fuzz smoke (seed 1, 500 cases, all oracles) =="
# Byte-reproducible: the same seed and case count generate the same
# stream on every machine, so a failure here is a real engine-pair
# disagreement, not flakiness. Re-run a failing case interactively with
#   target/release/sjava fuzz --seed=1 --cases=500 --minimize --fixtures-dir=findings/
target/release/sjava fuzz --seed=1 --cases=500

echo "== edit-storm gate (dependency-tracked invalidation) =="
# Every storm step asserts byte-identity against a fresh full check of
# the same mutated AST before any ratio counts. The interface-edit leg
# runs on the 201-method large stress corpus, so the < 50-method
# ratio-skip never triggers here. Runs from the repo root: the
# re-checked/green/red counters in results/BENCH_edit.json are
# deterministic, so refreshing the committed file is intentional (only
# the warm-time fields vary by machine).
target/release/bench_edit --gate

echo "== VM gate (trace + campaign-trial identity, mp3dec speedup floor) =="
# Trace identity between the register-bytecode VM and the tree-walking
# interpreter, and campaign trials equal to from-scratch interpreter
# runs, are the precondition for every campaign number; the ≥5x
# mp3dec floor is what justifies the 100k-trial fig 6.1 default. Runs
# from a scratch directory so the smoke JSON does not overwrite the
# committed results/BENCH_vm.json.
vm_bin=$PWD/target/release/bench_vm
vm_dir=$(mktemp -d)
(cd "$vm_dir" && "$vm_bin" --gate)
rm -rf "$vm_dir"

echo "CI green"
