#!/usr/bin/env python3
"""Builds and runs the SJava benchmark from the root of a checkout.

    python3 perfbench/run.py --workload cold|edit|campaign --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds the `sjava` CLI and the harness in release mode
(into `$CARGO_TARGET_DIR`, default `.bench_build`), runs one workload and
passes the harness output through: its last line is the result object.
`--self-test` runs every workload at a tiny size and checks that every
metric named in BENCHMARK.json is emitted, that one seed gives identical
inputs and counts, and that a wrong expected answer counts as a failure.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold", "edit", "campaign")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Builds both binaries; returns (sjava, harness) paths."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        fail(f"{ROOT} is not an SJava checkout (no Cargo.toml and crates/)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "harness", "Cargo.toml")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "sjava"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", manifest],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return (os.path.join(target, "release", "sjava"),
            os.path.join(target, "release", "perfbench"))


def harness(exe, args, quiet=False, timeout=170):
    """Runs the harness; returns (exit code, stdout lines). `quiet`
    swallows its stderr. The harness runs in a process group of its own,
    so that a timeout kills it and every `sjava` it has started."""
    proc = subprocess.Popen([exe[1], "--sjava", exe[0], *args], cwd=ROOT,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL if quiet else None,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"harness timed out: {' '.join(args)}")
    return proc.returncode, out.splitlines()


def result(lines):
    return json.loads(lines[-1]) if lines else None


def self_test(exe):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    counts = [m for m in names[1] if m.startswith((
        "cache.recheck_ratio.", "store.objects", "runtime.steps_per_trial.",
        "infer.locations", "infer.paths", "runtime.diverged_share."))]
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            runs = []
            for _ in range(2):
                code, lines = harness(exe, [
                    "--workload", w, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--scale", "tiny"])
                res = result(lines)
                if code != 0 or not res or not res["correct"]:
                    problems.append(f"{w}/trace={trace}: run failed ({code})")
                    break
                digest = [l for l in lines if l.startswith("# inputs digest")]
                runs.append((res, digest))
            if len(runs) < 2:
                continue
            (a, da), (b, db) = runs
            if set(a["metrics"]) != names[trace]:
                problems.append(f"{w}/trace={trace}: metrics differ from "
                                f"BENCHMARK.json: "
                                f"{sorted(set(a['metrics']) ^ names[trace])}")
            if not da or da != db:
                problems.append(f"{w}/trace={trace}: inputs differ for one seed")
            for m in counts if trace else []:
                if a["metrics"][m]["value"] != b["metrics"][m]["value"]:
                    problems.append(f"{w}: count {m} differs for one seed")
        code, lines = harness(exe, [
            "--workload", w, "--seed", "7", "--seconds", "1", "--trace", "0",
            "--scale", "tiny", "--sabotage"], quiet=True)
        res = result(lines)
        if code != 0 or not res or res["correct"] or res["failed"] < 1:
            problems.append(f"{w}: a wrong expected answer was not counted")
    for p in problems:
        print(f"self-test: {p}")
    print("self-test:", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    exe = build()
    if args.self_test:
        sys.exit(self_test(exe))
    code, lines = harness(exe, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    print("\n".join(lines), flush=True)
    if code != 0 or result(lines) is None:
        fail(f"harness exited with {code}", code or 1)


if __name__ == "__main__":
    main()
