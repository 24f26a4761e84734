"""The benchmark's hooks into the library resolve against this tree.

perfbench/ drives the library from outside: its workload plans name sweep
workers, its tracer wraps the public functions of every layer, and a
``--trace 1`` pass reads three caches.  A renamed worker drops out of a plan
silently, a renamed cache breaks only a traced benchmark pass, and a dunder
the tracer no longer reaches reads 0 calls, so this
test resolves every hook in a fresh interpreter with perfbench/ and src/ on
the path.  It reads perfbench/ and edits nothing there.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# what perfbench/rep.py reads, in the order it reads it
HOOKS = """
import json
import sys

from supercrystals import affine, linkage, pbw, sweeps
import tracer
import workloads

gamma_of = affine.gamma_of  # taken before the tracer wraps it
planned = set()
for name in json.loads(sys.argv[1]):
    planned.update(worker for worker, _ in workloads.sweep_plan(name, 0))
    workloads.make_queries(name, 0)
sliced = {w for suites in workloads.SWEEP_SLICES.values() for caps in suites.values() for w in caps}
assert planned == sliced, sorted(planned ^ sliced)
for worker in sorted(planned):
    assert callable(getattr(sweeps, worker)), worker
# operands built before the install, so only the two dunder calls count
weights = affine.AffineWeight(3, (), 1, (0, 1, -1)), affine.AffineWeight(3, (), -2, (2, 0, 1))
series = linkage.TruncatedSeries((1, 2, 3)), linkage.TruncatedSeries((1, -1, 4))
traced = tracer.Tracer()
traced.install()
weights[0] + weights[1]
series[0] * series[1]
for counter in ("affine.AffineWeight.add", "linkage.TruncatedSeries.mul"):
    assert traced.calls[counter] == 1, (counter, dict(traced.calls))
gamma_of.cache_info(), len(pbw._NORMALIZE_CACHE), len(pbw._LOWERING_CACHE)
print(json.dumps(sorted(planned)))
"""


def test_the_benchmark_hooks_resolve_against_this_tree():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    paths = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", HOOKS, json.dumps(names)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "pbw_worker" in json.loads(done.stdout)
