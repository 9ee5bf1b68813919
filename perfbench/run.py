#!/usr/bin/env python3
"""Builds the benchmark and the binaries it drives, then runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload planes-linear --seed 1 --seconds 40 --trace 0

`--workload all` runs the three workloads in turn on one seed.

Builds `svm-train`, `svm-predict` and `svm-serve` from the repository's
workspace and the `perfbench` binary from `perfbench/Cargo.toml`, both in
release mode into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs
that binary with the given arguments. Build output goes to stderr; the
last stdout line is its JSON result. Exits non-zero without a
result when the sources are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo(*args):
    """Runs one offline release build; returns True on success."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no Cargo.toml at the repository root", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    built = cargo(
        "-p", "plssvm-cli",
        "--bin", "svm-train", "--bin", "svm-predict", "--bin", "svm-serve",
    ) and cargo("--manifest-path", os.path.join(HERE, "Cargo.toml"))
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    bench = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1 :][:1] == ["all"]:
        # every workload in turn on the same seed; exits non-zero if any fails
        at = args.index("--workload") + 1
        status = 0
        for name in ("planes-linear", "sat6-rbf", "serve-tiny"):
            print(f"== {name}", flush=True)
            args[at] = name
            status = subprocess.run([bench, *args], cwd=ROOT).returncode or status
        return status
    return subprocess.run([bench, *args], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
