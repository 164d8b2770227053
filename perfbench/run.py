#!/usr/bin/env python3
"""TopoSense simulator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench_driver (perfbench/CMakeLists.txt, Release, from ../src) into
.bench_build/perfbench, then runs the workload as a batch of experiments, each
in a process of its own, so that peak RSS belongs to one experiment alone.
Experiment i gets seed `seed * 1000 + i`; the last experiment repeats the
first seed and must reproduce its fingerprint.

With --trace 0 it prints the end-to-end metrics (medians of the host
measurements, means of the paper-fidelity metrics over the distinct seeds).
With --trace 1 it runs each experiment untraced and then traced, requires equal
fingerprints, and prints the per-layer metrics (medians over the traced runs).
A human-readable table goes to stderr; the last line of stdout is the JSON
result. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"
# A run must end within 180 s; experiments still running at this point after
# its start are killed and count as failed.
RUN_LIMIT_S = 160

# Experiments per 30 s of --seconds. They are constants, not measured, so
# the seed and --seconds alone decide the inputs. An experiment takes about
# 2.5 s, 11.5 s and 1.1 s on a 4-core 2.1 GHz x86 host. star_packet_10k gets
# the most seeds, because its loss_pct varies most from seed to seed: every
# receiver sits behind an identical link, so one seed is one sample.
EXPERIMENTS_PER_30_S = {
    "star_packet_10k": 16,
    "star_fluid_100k": 2,
    "tiered_1k": 20,
}

# name -> unit; the order is the order of the stderr table.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rel_dev": "ratio",
    "changes_per_rcv_min": "1/min",
    "loss_pct": "%",
}
HOST_METRICS = ("run_s", "setup_s", "peak_rss_mb")
FIDELITY_METRICS = ("rel_dev", "changes_per_rcv_min", "loss_pct")

# Per-layer metrics the driver reports itself, and the ones derived here from
# the untraced and traced runs of the same seed.
DRIVER_LAYERS = {
    "sim.events": "count",
    "sim.pending_peak": "count",
    "sim.heap_growth_mb_per_sim_s": "MB/s",
    "sim.self_ns_per_event": "ns",
    "net.pkts_enqueued": "count",
    "net.drop_frac": "ratio",
    "mcast.route.calls": "count",
    "mcast.route.ns_per_call": "ns",
    "mcast.route.fanout": "count",
    "mcast.route.s": "s",
    "transport.deliver.calls": "count",
    "transport.deliver.ns_per_call": "ns",
    "transport.deliver.s": "s",
    "control.report.calls": "count",
    "control.report.ns_per_call": "ns",
    "control.interval.calls": "count",
    "control.interval.s_mean": "s",
    "control.interval.s": "s",
    "control.suggestions": "count",
    "core.run_interval.s_mean": "s",
    "core.share_of_interval": "ratio",
    "traffic.fluid.steps": "count",
    "traffic.fluid.self_us_per_step": "us",
}
DERIVED_LAYERS = {
    "sim.events_per_s": "1/s",
    "trace.overhead": "ratio",
}
PER_LAYER = {**DRIVER_LAYERS, **DERIVED_LAYERS}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; returns False on failure."""
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
        # At most four compilers: an -O3 compile of a large unit takes
        # hundreds of MB.
        ["cmake", "--build", str(BUILD_DIR), "-j", str(min(os.cpu_count() or 2, 4))],
    ]
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return DRIVER.exists()


def experiment_seeds(seed, count):
    """Distinct seeds for all but the last experiment, which repeats the first."""
    distinct = [seed * 1000 + i for i in range(max(1, count - 1))]
    return distinct + [distinct[0]]


def run_driver(workload, seed, trace, small, deadline):
    """One experiment in its own process: the driver's JSON, or None on failure."""
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if small:
        cmd.append("--small")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        log(f"{workload} seed {seed}: not started, the run is out of time")
        return None
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining,
                              check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: timed out")
        return None
    if done.returncode != 0:
        log(f"{workload} seed {seed}: exit {done.returncode}: {done.stderr.strip()}")
        return None
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"{workload} seed {seed}: no result on stdout")
        return None
    if result["check_failures"]:
        log(f"{workload} seed {seed}: output checks failed: {result['check_failures']}")
        return None
    return result


def finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def experiment_count(workload, seconds):
    return max(2, round(seconds / 30 * EXPERIMENTS_PER_30_S[workload]))


def end_to_end(workload, seed, seconds, small, deadline):
    """Untraced experiments; returns (attempted, failed, metrics)."""
    seeds = experiment_seeds(seed, experiment_count(workload, seconds))
    runs = [run_driver(workload, s, False, small, deadline) for s in seeds]
    failed = sum(r is None for r in runs)
    first, repeat = runs[0], runs[-1]
    if first is not None and repeat is not None and first["fingerprint"] != repeat["fingerprint"]:
        log(f"{workload}: seed {seeds[0]} is not deterministic: "
            f"{first['fingerprint']} then {repeat['fingerprint']}")
        failed += 1
    ok = [r for r in runs if r is not None]
    if not ok:
        return len(runs), failed, None
    metrics = {name: statistics.median(r[name] for r in ok) for name in HOST_METRICS}
    distinct = [r for r in runs[:-1] if r is not None] or ok  # the repeat adds no input
    for name in FIDELITY_METRICS:
        metrics[name] = statistics.fmean(r[name] for r in distinct)
    return len(runs), failed, metrics


def per_layer(workload, seed, seconds, small, deadline):
    """Untraced then traced run of each seed; returns (attempted, failed, metrics)."""
    # A traced pair costs about two experiments, so a quarter as many pairs
    # keeps a traced run about half as long as an untraced one.
    pairs = max(1, experiment_count(workload, seconds) // 4)
    attempted = failed = 0
    traced, ratios, rates = [], [], []
    for i in range(pairs):
        s = seed * 1000 + i
        plain = run_driver(workload, s, False, small, deadline)
        layered = run_driver(workload, s, True, small, deadline)
        attempted += 2
        failed += (plain is None) + (layered is None)
        if plain is None or layered is None:
            continue
        if plain["fingerprint"] != layered["fingerprint"]:
            log(f"{workload} seed {s}: traced fingerprint {layered['fingerprint']} "
                f"differs from untraced {plain['fingerprint']}")
            failed += 1
        traced.append(layered["layers"])
        ratios.append(layered["run_s"] / plain["run_s"] - 1.0)
        rates.append(plain["events"] / plain["run_s"])
    if not traced:
        return attempted, failed, None
    metrics = {name: statistics.median(t[name] for t in traced) for name in DRIVER_LAYERS}
    metrics["sim.events_per_s"] = statistics.median(rates)
    metrics["trace.overhead"] = statistics.median(ratios)
    return attempted, failed, metrics


def measure(workload, seed, seconds, trace, small=False):
    """Runs one benchmark run; returns the result object, or None."""
    deadline = time.monotonic() + RUN_LIMIT_S
    attempted, failed, metrics = (per_layer if trace else end_to_end)(workload, seed, seconds,
                                                                     small, deadline)
    if metrics is None:
        return None
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0 and all(finite(v) for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXPERIMENTS_PER_30_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    if not build():
        log("perfbench: cannot build the simulator; is this a full checkout?")
        return 1
    log(f"perfbench: build ready after {time.monotonic() - start:.1f} s")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        log(f"perfbench: every experiment of {args.workload} failed")
        return 1
    for name, metric in result["metrics"].items():
        log(f"  {args.workload:16s} {name:32s} {metric['value']:16.6g} {metric['unit']}")
    log(f"  attempted {result['attempted']}, failed {result['failed']}, "
        f"correct {result['correct']}, {time.monotonic() - start:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
