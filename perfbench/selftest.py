#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

Builds the driver, then runs every workload that BENCHMARK.json names at the
driver's --small size, once untraced and once traced. Each run must be
correct (the driver's output checks, the same-seed fingerprint repeat, and
traced fingerprints equal to untraced ones), must emit exactly the metrics
BENCHMARK.json lists for its mode with the listed units, and every value must
be finite. Prints one line per check and exits non-zero if any fails.
"""

import json
import sys

import run


def check_run(workload, trace, listed):
    """Problems found in one reduced run of `workload`."""
    mode = "traced" if trace else "untraced"
    result = run.measure(workload, seed=1, seconds=0, trace=trace, small=True)
    if result is None:
        return [f"{workload} {mode}: every experiment failed"]
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{workload} {mode}: {result['failed']} of "
                        f"{result['attempted']} experiments failed")
    emitted = result["metrics"]
    if set(emitted) != set(listed):
        problems.append(f"{workload} {mode}: emits {sorted(emitted)}, "
                        f"BENCHMARK.json lists {sorted(listed)}")
    for name, unit in listed.items():
        metric = emitted.get(name)
        if metric is None:
            continue
        if metric["unit"] != unit:
            problems.append(f"{workload} {mode}: {name} in {metric['unit']}, listed in {unit}")
        if not run.finite(metric["value"]):
            problems.append(f"{workload} {mode}: {name} = {metric['value']} is not finite")
    return problems


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if not run.build():
        print("selftest: build failed", file=sys.stderr)
        return 1
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((False, end_to_end), (True, per_layer)):
            found = check_run(workload, trace, listed)
            mode = "traced" if trace else "untraced"
            print(f"selftest {workload} {mode}: {'FAIL' if found else 'ok'}")
            problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
