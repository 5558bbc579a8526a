#!/usr/bin/env python3
"""Quick self-check of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json once at test scale (`run.py --quick`),
untraced and traced, and asserts that each run reports correct outputs and
emits every metric BENCHMARK.json names for that mode, finite and with its
unit. Exits 1 on the first broken run.
"""

import json
import math
import subprocess
import sys


def check(spec, workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--quick"]
    r = subprocess.run(argv, capture_output=True, text=True)
    if r.returncode != 0:
        return [f"exit status {r.returncode}: {r.stderr.strip()[-500:]}"]
    result = json.loads(r.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        failed = [line for line in r.stdout.splitlines() if line.startswith("FAILED")]
        problems.append(f"outputs not correct: {failed}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ: {sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        v = got.get(m["name"])
        if v is None:
            continue
        if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            problems.append(f"{m['name']}: value {v.get('value')!r} is not finite")
        if v.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {v.get('unit')!r}, want {m['unit']!r}")
    return problems


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check(spec, w["name"], trace)
            print(f"{w['name']:14} trace={trace}: {'ok' if not problems else 'FAILED'}")
            for p in problems:
                print(f"  {p}")
            ok = ok and not problems
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
