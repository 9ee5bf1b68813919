#!/usr/bin/env python3
"""Smoke-size check of the benchmark's output contract.

Usage (from the repository root):

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced, at
smoke size (`--smoke`: an eighth of the train workloads' rows, 2-second
runs), and checks that each run passes its correctness checks and emits
exactly the metrics BENCHMARK.json names, each with its declared unit.
Exits 1 on the first mismatch.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in bench["workloads"]:
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            cmd = [*bench["command"], "--workload", workload["name"], "--seed", "1",
                   "--seconds", "2", "--trace", trace, "--smoke"]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload['name']} --trace {trace}"
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{label}: exit {run.returncode}\n{run.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                print(f"{label}: result keys {sorted(result)}")
                return 1
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                print(f"{label}: checks failed\n{run.stderr[-2000:]}")
                return 1
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                print(f"{label}: missing {missing}, unexpected {extra}, wrong unit {units}")
                return 1
            print(f"{label}: {len(got)} metrics ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
