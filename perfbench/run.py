#!/usr/bin/env python3
"""Builds the `intentmatch` binary and the benchmark runner from source, then
runs one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload build|serve|ingest_mixed \
        --seed N --seconds S --trace 0|1

Build output goes to $CARGO_TARGET_DIR (default `.bench_build`). The last
line of standard output is the run's JSON result; the exit code is non-zero
when a build fails or a correctness check does not hold.
"""

import os
import subprocess
import sys


def build(cmd, env):
    # Cargo's progress goes to stderr so that stdout carries only results.
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        print("perfbench: run from the repository root (no Cargo.toml here)", file=sys.stderr)
        return 2
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "forum-ingest", "--bin", "intentmatch"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        if not build(cmd, env):
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    runner = os.path.join(release, "perfbench")
    program = os.path.join(release, "intentmatch")
    work = os.path.join(target, "perfbench-work")
    cmd = [runner, "--intentmatch", program, "--work-dir", work] + sys.argv[1:]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
