#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in its own process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The Rust package in this directory is
built with `cargo build --release --offline` into `$CARGO_TARGET_DIR`
(default `.bench_build`), then started as a child process, so peak memory
and I/O counters belong to that one workload. The last line of standard
output is the child's result object: `correct`, `attempted`, `failed`,
`metrics`. Any failure to build or run exits non-zero without a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figures", "serve_hot", "serve_swap")
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("no crates/ next to perfbench/: run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def source_digest():
    """SHA-256 over the program and benchmark sources (the checkout is not
    a git repository, so this stands in for the revision)."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench/src", "Cargo.toml", "perfbench/Cargo.toml"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    # Never report the revision of a repository that merely contains ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    binary = build()
    out = os.path.join(ROOT, ".bench_out")
    work = os.path.join(out, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work", work, "--out", out]
    try:
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {child.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last line of the workload's output is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    want = declared_metrics(args.trace == "1")
    if set(result["metrics"]) != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(want ^ set(result['metrics']))}")

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"stamp": {"git_rev": git_rev(), "source_digest": source_digest()}}))
    print(lines[-1])


if __name__ == "__main__":
    main()
