"""One pass of a workload in a fresh interpreter; prints one JSON line.

Run from the root of a checkout:

    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1 --t0 T

``--t0`` is the parent's ``time.monotonic()`` just before it started this
interpreter, so ``setup_s`` covers interpreter start, import and input
generation.  Every time is scaled to the reference speed (calibrate.py);
the raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from calibrate import Speed, factor


def _import_package():
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import supercrystals

    if not os.path.abspath(supercrystals.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: supercrystals imported from {supercrystals.__file__}, not {src}")


# The first call after a shard or a kernel sample finds cold caches.  Few
# chunks keep those calls far below 1 % of the calls, out of the p99.
QUERY_CHUNKS = 8


def _part(seq, j, n):
    """The j-th of n nearly equal consecutive parts of seq."""
    return seq[j * len(seq) // n : (j + 1) * len(seq) // n]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()
    speed = Speed()
    first = speed.sample()

    _import_package()
    from supercrystals import affine, pbw, sweeps

    import tracer as tracing
    import workloads

    gamma_of = affine.gamma_of  # the lru-cached original, before any wrapping
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    plan = workloads.sweep_plan(args.workload, args.seed)
    items = workloads.make_queries(args.workload, args.seed)
    inputs = workloads.describe_inputs(plan, items)
    setup_raw = time.monotonic() - args.t0 - first.total
    before = speed.sample()
    setup_s = setup_raw * factor(first, before)

    # the queries run in chunks between groups of shards, so that they sample
    # the same stretch of machine time as the sweep
    checks = failures = 0
    counterexample = None
    sweep_raw = sweep_s = query_raw = query_s = 0.0
    queries = workloads.QueryPass()
    chunks = min(len(plan), QUERY_CHUNKS) or 1
    for j in range(chunks):
        for worker, job in _part(plan, j, chunks):
            start = time.perf_counter()
            reports = getattr(sweeps, worker)(job)
            took = time.perf_counter() - start
            after = speed.sample()
            sweep_s += took * factor(before, after)
            sweep_raw += took
            before = after
            for rep in reports:
                checks += rep.checks
                failures += rep.failures
                counterexample = counterexample or rep.counterexample
        raw, scaled, before = queries.run(_part(items, j, chunks), speed, before)
        query_raw += raw
        query_s += scaled

    result = {
        "setup_s": setup_s,
        "wall_s": sweep_s + query_s,
        "sweep_s": sweep_s,
        "query_s": query_s,
        "raw_setup_s": setup_raw,
        "raw_wall_s": sweep_raw + query_raw,
        "speed": speed.mean_factor(),
        "checks": checks,
        "failures": failures,
        "focus": list(workloads.FOCUS.get(args.workload, workloads.CALL_TYPES)),
        "counterexample": counterexample,
        "query_checks": queries.checks,
        "query_failures": queries.failures,
        "query_counterexample": queries.first_failure,
        "verify_checks": queries.verify_checks,
        "latency_ns": queries.latency_ns,
        "inputs": inputs,
        "answers": queries.answers_digest(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        info = gamma_of.cache_info()
        normalize_calls = tracer.calls["pbw.normalize_word"]
        result["trace"] = {
            "calls": dict(tracer.calls),
            "layer_calls": {layer: tracer.layer_calls(layer) for layer in tracing.LAYERS},
            # spans are not bracketed by kernel samples: scale by the pass mean
            "self_s": {k: v * speed.mean_factor() for k, v in tracer.self_s.items()},
            "worker_s": [d * speed.mean_factor() for d in tracer.shard_s],
            "gamma_of_hits": info.hits,
            "gamma_of_lookups": info.hits + info.misses,
            # each normalize_word miss adds exactly one cache entry
            "normalize_calls": normalize_calls,
            "normalize_hits": normalize_calls - len(pbw._NORMALIZE_CACHE),
            "normalize_entries": len(pbw._NORMALIZE_CACHE),
            "lowering_entries": len(pbw._LOWERING_CACHE),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
