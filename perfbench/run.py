"""Benchmark entry point for the supercrystals library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It starts one fresh interpreter per pass (perfbench/rep.py), one at a time,
until ``--seconds`` are used, and prints the medians over the passes.  With
``--trace 0`` the last line carries every end-to-end metric; with
``--trace 1`` it alternates untraced and traced passes and carries every
per-layer metric.  Exits with code 2, printing no result, when the library
sources are missing or a pass fails to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("crystal-sweeps", "wt-linkage", "pbw-verma", "api-queries")
PASS_TIMEOUT_S = 120
MIN_PASSES = 3  # untraced passes per --trace 0 run


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def lpt_makespan(durations, workers=2):
    """Longest-processing-time-first schedule of the shards on ``workers``."""
    loads = [0.0] * workers
    for d in sorted(durations, reverse=True):
        loads[loads.index(min(loads))] += d
    return max(loads)


def loadavg():
    with open("/proc/loadavg") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def run_pass(workload, seed, traced):
    cmd = [
        sys.executable,
        os.path.join(HERE, "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(traced)),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload, seed, seconds, trace):
    """Passes until the budget is spent; at least MIN_PASSES, or one of each kind traced."""
    start = time.monotonic()
    passes = []
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        t = time.monotonic()
        passes.append((traced, run_pass(workload, seed, traced)))
        took = time.monotonic() - t
        done_min = len(passes) >= (2 if trace else MIN_PASSES)
        if done_min and time.monotonic() - start + took > seconds:
            return passes


def end_to_end(plain):
    med = statistics.median

    def per_pass(fn):
        return med(fn(r) for r in plain)

    focus = [ns for r in plain for ns in _focus(r)]

    return {
        "wall_s": (per_pass(lambda r: r["wall_s"]), "s"),
        "checks_per_s": (
            per_pass(
                lambda r: r["checks"] / r["sweep_s"]
                if r["checks"]
                else r["query_checks"] / r["query_s"]
            ),
            "1/s",
        ),
        "setup_s": (per_pass(lambda r: r["setup_s"]), "s"),
        "peak_rss_mb": (per_pass(lambda r: r["peak_rss_kb"] / 1024), "MB"),
        # the query metrics pool the focus calls of all passes
        "queries_per_s": (len(focus) / (sum(focus) / 1e9), "1/s"),
        "query_p50_us": (percentile(focus, 0.50) / 1e3, "us"),
        "query_p99_us": (percentile(focus, 0.99) / 1e3, "us"),
    }


def _focus(r):
    """Latencies of the call types under the workload's ROADMAP item."""
    return [ns for call_type in r["focus"] for ns in r["latency_ns"][call_type]]


def _flat_count(r):
    return sum(len(values) for values in r["latency_ns"].values())


def per_layer(plain, traced):
    med = statistics.median
    tr = [r["trace"] for r in traced]
    first = tr[0]
    calls = first["calls"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    for layer in LAYERS:
        put(f"{layer}.self_s", med(t["self_s"].get(layer, 0.0) for t in tr), "s")
    put("sweeps.checks", traced[0]["checks"] + traced[0]["verify_checks"], "count")
    put("sweeps.shards", len(first["worker_s"]), "count")
    put("sweeps.shard_max_s", med(max(t["worker_s"]) for t in tr), "s")
    put("sweeps.lpt2_makespan_s", med(lpt_makespan(t["worker_s"]) for t in tr), "s")
    for layer in ("crystal", "tensorrule", "weights"):
        put(f"{layer}.calls", first["layer_calls"][layer], "count")
    for name in (
        "crystal.downarrow",
        "crystal.classify_index",
        "affine.wt_of",
        "affine.AffineWeight.add",
        "affine.ab_counts",
        "linkage.g_series",
        "linkage.TruncatedSeries.mul",
        "linkage.z_scalar",
        "pbw.normalize_word",
        "pbw.SuperElt.mul",
        "pbw.verma_scalar",
        "weights.build_context",
    ):
        put(f"{name}.calls", calls.get(name, 0), "count")
    put("affine.gamma_of.hit_ratio", first["gamma_of_hits"] / max(1, first["gamma_of_lookups"]), "ratio")
    put("pbw.normalize_cache.hit_ratio", first["normalize_hits"] / max(1, first["normalize_calls"]), "ratio")
    put("pbw.normalize_cache.entries", first["normalize_entries"], "count")
    put("pbw.lowering_cache.entries", first["lowering_entries"], "count")
    # per-type latency from the untraced passes, pooled
    types = plain[0]["latency_ns"].keys()
    for call_type in types:
        pooled = [ns for r in plain for ns in r["latency_ns"][call_type]]
        put(f"query.{call_type}.p50_us", percentile(pooled, 0.50) / 1e3, "us")
        put(f"query.{call_type}.p99_us", percentile(pooled, 0.99) / 1e3, "us")
    put(
        "trace.overhead_s",
        med(r["wall_s"] for r in traced) - med(r["wall_s"] for r in plain),
        "s",
    )
    return metrics


def consistency(passes):
    """Problems that make the run incorrect: failures, or passes that disagree."""
    problems = []
    keys = ("checks", "failures", "query_checks", "query_failures", "verify_checks", "inputs", "answers")
    ref = passes[0][1]
    for traced, r in passes:
        if r["failures"] or r["query_failures"]:
            problems.append(r["counterexample"] or r["query_counterexample"])
        for key in keys:
            if r[key] != ref[key]:
                problems.append(f"{key} differs between passes ({'traced' if traced else 'untraced'}): {r[key]} vs {ref[key]}")
    traced = [r["trace"]["calls"] for t, r in passes if t]
    if any(calls != traced[0] for calls in traced):
        problems.append("traced call counts differ between passes")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "supercrystals", "__init__.py")):
        print("error: run from the repository root; src/supercrystals is missing", file=sys.stderr)
        return 2
    load_start = loadavg()
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plain = [r for traced, r in passes if not traced]
    traced = [r for is_traced, r in passes if is_traced]
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    problems = consistency(passes)
    ref = plain[0]
    attempted = sum(r["checks"] + _flat_count(r) for _, r in passes)
    failed = sum(r["failures"] + r["query_failures"] for _, r in passes)

    conditions = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "inputs_digest": ref["inputs"],
        "answers_digest": ref["answers"],
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
        "passes_untraced": len(plain),
        "passes_traced": len(traced),
        "speed_factor": [round(r["speed"], 4) for r in plain],
        "raw_wall_s": [round(r["raw_wall_s"], 4) for r in plain],
        "raw_setup_s": [round(r["raw_setup_s"], 4) for r in plain],
        "sweep_checks_per_pass": ref["checks"],
        "queries_per_pass": _flat_count(ref),
        "focus_samples_per_pass": len(_focus(ref)),
        "query_samples": {t: len(v) for t, v in ref["latency_ns"].items()},
        "fail_ratio": failed / attempted,
        "problems": problems[:5],
    }
    print(json.dumps({"conditions": conditions}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:15s} {name:40s} {value:14.6g} {unit}")
    print(f"{args.workload:15s} {'fail_ratio':40s} {failed / attempted:14.6g} ratio")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
