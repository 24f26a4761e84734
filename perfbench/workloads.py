"""Workload inputs: sweep shard plans and seeded public-API query passes.

Every workload runs a *pass* in a fresh interpreter.  A pass is an optional
slice of the acceptance sweeps followed by a closed loop with one client that
calls the public functions one at a time.  See README.md for why each
workload exists and which ROADMAP item it should move.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import re
import time

from calibrate import SEGMENT_S, factor, latency_factor
from supercrystals import cli, crystal, graph, linkage, pbw, sweeps, tensorrule, weights
from supercrystals import affine

# the parameters of the acceptance gate (tests/test_acceptance.py)
ACCEPTANCE = dict(max_rank=4, coeff_window=4, p_list=(0, 2, 3, 5), processes=1)

# workload -> suite -> {worker: highest rank of the shards kept}
SWEEP_SLICES = {
    "crystal-sweeps": {
        "oracle-equivalence": {"oracle_worker": 3},
        "crystal-axioms": {"axioms_worker": 3},
        "normal-criteria": {"normal_worker": 3},
    },
    "wt-linkage": {
        "odd-reflection": {"oddrefl_worker": 3},
        "linkage": {"linkage_worker": 3},
    },
    "pbw-verma": {
        "pbw-identities": {"pbw_worker": 4, "central_worker": 2},
        "verma-scalars": {
            "verma_z_worker": 3,
            "lowering_scalar_worker": 2,
            "witness_worker": 2,
        },
    },
    "api-queries": {},
}

# items per pass.  Every item kind appears in every mix, so every layer and
# every call type is measured on every workload.
MIXES = {
    "crystal-sweeps": dict(
        star=960, normal=960, wt=16, series=16, zscalar=16, component=16, slookup=16, cli=12
    ),
    "wt-linkage": dict(
        star=16, normal=16, wt=2112, series=1056, zscalar=16, component=16, slookup=16, cli=12
    ),
    "pbw-verma": dict(
        star=16, normal=16, wt=16, series=16, zscalar=640, component=16, slookup=320, cli=12
    ),
    "api-queries": dict(
        star=400, normal=400, wt=400, series=240, zscalar=240, component=128, slookup=300, cli=120
    ),
}

# the call types under each workload's ROADMAP item: the end-to-end query
# metrics cover these; the per-type metrics cover every type
FOCUS = {
    "crystal-sweeps": (
        "reduced_signature",
        "e_star",
        "f_star",
        "dual_oracle",
        "classify_index",
        "normal_by_matching",
    ),
    "wt-linkage": ("wt_of", "g_series"),
    "pbw-verma": ("z_scalar", "verma_scalar", "s_element"),
}

# cold builds: (rank, r) for z_element, (rank, i, j, |A|) for s_element,
# each shape with four seeded parity sequences.  The probes build z_element
# for r = 1, 2 and every rank-5 parity sequence, so that the cost of their
# verma_scalar calls does not depend on the seed.  Rank 5 lies outside every
# sweep, so the probes' builds are cold in every pass.
PROBE_Z_R = (1, 2)
PROBE_S = ((5, 1, 5, 1), (5, 2, 5, 1)) * 4
API_Z = ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)) * 4
API_S = ((3, 1, 3, 1), (4, 1, 4, 2), (5, 1, 5, 1), (5, 1, 5, 2), (5, 2, 5, 1)) * 4

CALL_TYPES = (
    "reduced_signature",
    "e_star",
    "f_star",
    "dual_oracle",
    "classify_index",
    "normal_by_matching",
    "wt_of",
    "g_series",
    "z_scalar",
    "verma_scalar",
    "crystal_component",
    "z_element",
    "s_element_cold",
    "s_element",
    "cli",
)

# Calls that change no state the next call sees (an lru_cache aside) run twice
# back to back, and the faster run is their latency.  On a shared host a
# 10-100 us call is often hit by a stall of its own size: the slowest 1 % of
# two runs of one pass shared only 3-5 of 31 calls.  The faster of two runs
# drops most stalls, so the tail shows which inputs are expensive.
ONCE = ("z_element", "s_element_cold", "cli")

CLI_KINDS = ("apply", "classify", "signature", "graph", "verma", "verify")
CLI_SUITES = ("oracle-equivalence", "crystal-axioms", "normal-criteria", "odd-reflection", "linkage")
_VERIFY_COUNT = re.compile(r": (\d+) checks, \d+ failures")
P_LIST = (0, 2, 3, 5)
# every (rank, p) cell gets the same share of each kind of query, so the cost
# mix of a pass does not depend on the seed
CELLS = tuple((rank, p) for rank in range(2, 6) for p in P_LIST)
COEFF = 7  # query coefficients lie in [-7, 7] ...
OUTSIDE = 5  # ... with at least one of absolute value >= 5, outside the sweep window


def _value(option: str) -> int:
    return int(option.split("=", 1)[1])


def _rank_of(job) -> int:
    head = job[0]
    if len(head) == 4 and isinstance(head[2], tuple):
        return head[0] + head[1]  # (m, n, parities, p)
    return len(head)  # a bare parity sequence


def acceptance_jobs(suite: str, seed: int):
    """(worker name, job) pairs, exactly as the unpinned run_suite builds them."""
    recorded = []

    def record(worker, jobs, processes):
        recorded.extend((worker.__name__, job) for job in jobs)
        return []

    real = sweeps._run_sharded
    sweeps._run_sharded = record
    try:
        sweeps.run_suite(suite, seed=seed, **ACCEPTANCE)
    finally:
        sweeps._run_sharded = real
    return recorded


def sweep_plan(workload: str, seed: int):
    """The shards of a pass: suite order fixed, shard order seeded per worker.

    The shard *set* is fixed so that every seed does the same work; see
    README.md.  Shards come from the unpinned run_suite, never from
    ``parities_pin``.
    """
    rng = random.Random(seed)
    plan = []
    for suite, caps in SWEEP_SLICES[workload].items():
        groups = {}
        for worker, job in acceptance_jobs(suite, seed):
            if worker in caps and _rank_of(job) <= caps[worker]:
                groups.setdefault(worker, []).append(job)
        for worker, jobs in groups.items():
            rng.shuffle(jobs)
            plan.extend((worker, job) for job in jobs)
    return plan


# ---------------------------------------------------------------------------
# query passes


def _context(rng, rank, p):
    parities = tuple(rng.randrange(2) for _ in range(rank))
    m = parities.count(0)
    return weights.build_context(m, rank - m, parities, p)


def _weight(rng, rank):
    while True:
        lam = tuple(rng.randint(-COEFF, COEFF) for _ in range(rank))
        if max(abs(c) for c in lam) >= OUTSIDE:
            return lam


def _random_point(rng, cell=None):
    rank, p = cell or (rng.randint(2, 5), rng.choice(P_LIST))
    ctx = _context(rng, rank, p)
    return ctx, _weight(rng, ctx.rank)


def _pool(rng, shapes, kind):
    keys = []
    for shape in shapes:
        ctx = _context(rng, shape[0], 0)
        if kind == "z":
            keys.append((ctx, shape[1]))
        else:
            _, i, j, size = shape
            keys.append((ctx, i, j, frozenset(rng.sample(range(i + 1, j), size))))
    return keys


def _every_rank5_z():
    keys = []
    for parities in itertools.product((0, 1), repeat=5):
        m = parities.count(0)
        ctx = weights.build_context(m, 5 - m, parities, 0)
        keys.extend((ctx, r) for r in PROBE_Z_R)
    return keys


def _spread(rng, pool, count):
    """count picks from pool, each key at least once when count >= len(pool)."""
    picks = [pool[k % len(pool)] for k in range(count)]
    rng.shuffle(picks)
    return picks


def _cli_item(rng, kind):
    ctx, lam = _random_point(rng)
    if kind == "verma":
        ctx = _context(rng, rng.randint(2, 4), 0)
        lam = _weight(rng, ctx.rank)
    if kind == "verify":
        ctx = _context(rng, 2, rng.choice(P_LIST))
    head = ["--p", str(ctx.p), "--parities", ",".join(map(str, ctx.parities))]
    text = ",".join(map(str, lam))
    i = rng.randint(1, ctx.rank)
    r = weights.residue_int(ctx, lam, i) + rng.choice((0, ctx.sign(i)))
    # "--weight=-3,1": a value that starts with "-" must be attached
    argv = {
        "apply": ["apply", "--op", rng.choice(("estar", "fstar")), f"--r={r}", f"--weight={text}"],
        "classify": ["classify", f"--weight={text}", f"--i={i}"],
        "signature": ["signature", f"--weight={text}", f"--r={r}"],
        "graph": ["graph", f"--weight={text}", "--depth=1"],
        "verma": ["pbw", "verma-scalar", f"--weight={text}", f"--r={rng.randint(1, 2)}"],
        "verify": ["verify", rng.choice(CLI_SUITES), "--pin-parities", "--processes=1"],
    }[kind]
    return ("cli", ctx, lam, head + argv)


def make_queries(workload: str, seed: int):
    """The seeded item list of one query pass."""
    rng = random.Random(seed * 7919 + 1)
    mix = MIXES[workload]
    api = workload == "api-queries"
    z_pool = _pool(rng, API_Z, "z") if api else _every_rank5_z()
    z_keys = _spread(rng, z_pool, mix["zscalar"])
    s_keys = _spread(rng, _pool(rng, API_S if api else PROBE_S, "s"), mix["slookup"])
    # the heavy calls come in fixed proportions, so the tail does not depend on the seed
    cli_kinds = _spread(rng, CLI_KINDS, mix["cli"])
    depths = _spread(rng, (1, 2), mix["component"])
    cells = {kind: _spread(rng, CELLS, count) for kind, count in mix.items()}
    kinds = [kind for kind, count in mix.items() for _ in range(count)]
    rng.shuffle(kinds)
    items = []
    built = set()
    for kind in kinds:
        if kind == "zscalar":
            ctx, r = z_keys.pop()
            if (ctx.parities, r) not in built:
                built.add((ctx.parities, r))
                items.append(("zbuild", ctx, r))
            items.append(("zscalar", ctx, _weight(rng, ctx.rank), r))
        elif kind == "slookup":
            items.append(("slookup",) + s_keys.pop())
        elif kind == "cli":
            items.append(_cli_item(rng, cli_kinds.pop()))
        else:
            ctx, lam = _random_point(rng, cells[kind].pop())
            if kind == "star":
                i = rng.randint(1, ctx.rank)
                r = weights.residue_int(ctx, lam, i) + rng.choice((0, ctx.sign(i)))
                items.append(("star", ctx, lam, r))
            elif kind == "normal":
                items.append(("normal", ctx, lam, rng.randint(1, ctx.rank)))
            elif kind == "component":
                items.append(("component", ctx, lam, depths.pop()))
            else:
                items.append((kind, ctx, lam))
    return items


def describe_inputs(plan, items) -> str:
    """Digest of the generated inputs of a pass."""
    h = hashlib.sha256()
    h.update(repr(plan).encode())
    for item in items:
        h.update(repr(tuple((a.parities, a.p) if isinstance(a, weights.ParityContext) else a for a in item)).encode())
    return h.hexdigest()[:16]


class QueryPass:
    """Runs items one call at a time; records latency per call type.

    Latencies are scaled to the reference speed (see calibrate.py) segment
    by segment.
    """

    def __init__(self):
        self.latency_ns = {t: [] for t in CALL_TYPES}
        self._pending = []
        self.checks = 0
        self.failures = 0
        self.first_failure = None
        self.verify_checks = 0
        self._answers = hashlib.sha256()
        self._z = {}
        self._s_seen = set()

    def _call(self, call_type, fn, *args):
        start = time.perf_counter_ns()
        out = fn(*args)
        took = time.perf_counter_ns() - start
        if call_type not in ONCE:
            start = time.perf_counter_ns()
            fn(*args)
            took = min(took, time.perf_counter_ns() - start)
        self._pending.append((call_type, took))
        return out

    def _expect(self, ok, item):
        self.checks += 1
        if not ok:
            self._fail(item, "answer mismatch")

    def _fail(self, item, why):
        self.failures += 1
        if self.first_failure is None:
            self.first_failure = f"{why}: {item[0]} {item[1].parities} p={item[1].p} {item[2:]}"

    def answers_digest(self) -> str:
        return self._answers.hexdigest()[:16]

    def run(self, items, speed, before):
        """Runs the items; ``before`` is the kernel sample just taken.

        Returns (raw, scaled, last kernel sample): kernel time is excluded.
        """
        raw = scaled = 0.0
        start = time.perf_counter()
        for n, item in enumerate(items, 1):
            try:
                answer = self._run_item(item)
            except Exception as exc:  # a raising public call is a failed query
                self._fail(item, f"{type(exc).__name__}: {exc}")
                answer = "error"
            self._answers.update(repr(answer).encode())
            took = time.perf_counter() - start
            if took >= SEGMENT_S or n == len(items):
                after = speed.sample()
                raw += took
                scaled += took * factor(before, after)
                scale = latency_factor(before, after)
                for call_type, ns in self._pending:
                    self.latency_ns[call_type].append(ns * scale)
                self._pending.clear()
                before = after
                start = time.perf_counter()
        return raw, scaled, before

    def _run_item(self, item):
        kind, ctx = item[0], item[1]
        call = self._call
        if kind == "star":
            _, _, lam, r = item
            sig = call("reduced_signature", crystal.reduced_signature, ctx, lam, r)
            e = call("e_star", crystal.e_star, ctx, lam, r)
            f = call("f_star", crystal.f_star, ctx, lam, r)
            de = call("dual_oracle", tensorrule.dual_oracle, ctx, lam, r, "e")
            df = call("dual_oracle", tensorrule.dual_oracle, ctx, lam, r, "f")
            self._expect(e == de and f == df, item)
            return str(sig), e, f
        if kind == "normal":
            _, _, lam, i = item
            r = weights.residue_int(ctx, lam, i)
            cls = call("classify_index", crystal.classify_index, ctx, lam, i, r)
            match = call("normal_by_matching", crystal.normal_by_matching, ctx, lam, i)
            self._expect(cls.is_normal == match, item)
            return cls.kind, match
        if kind == "wt":
            return call("wt_of", affine.wt_of, ctx, item[2]).to_json()
        if kind == "series":
            lam = item[2]
            return call("g_series", linkage.g_series, ctx, lam, linkage.default_order(ctx)).coeffs
        if kind == "component":
            _, _, lam, depth = item
            return call("crystal_component", graph.crystal_component, ctx, lam, depth).to_json()
        if kind == "zbuild":
            r = item[2]
            z = call("z_element", lambda: pbw.z_element(ctx, r).reduce_mod_J())
            self._z[(ctx.parities, r)] = z
            return len(z.terms)
        if kind == "zscalar":
            _, _, lam, r = item
            want = call("z_scalar", linkage.z_scalar, ctx, lam, r)
            got = call("verma_scalar", pbw.verma_scalar, self._z[(ctx.parities, r)], lam)
            self._expect(got == want, item)
            return want
        if kind == "slookup":
            key = (ctx.parities,) + item[2:]
            call_type = "s_element" if key in self._s_seen else "s_element_cold"
            self._s_seen.add(key)
            elt = call(call_type, pbw.s_element, ctx, *item[2:])
            self._expect(all(c.denominator == 1 for c in elt.terms.values()), item)
            return len(elt.terms)
        if kind == "cli":
            return self._run_cli(item)
        raise ValueError(f"unknown item kind {kind!r}")

    def _run_cli(self, item):
        _, ctx, lam, argv = item
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = self._call("cli", cli.main, argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
        out = buf.getvalue().strip()
        command = argv[4]
        if command == "apply":
            op = crystal.e_star if argv[6] == "estar" else crystal.f_star
            want = op(ctx, lam, _value(argv[7]))
            text = "undefined" if want is None else ",".join(map(str, want))
        elif command == "classify":
            i = _value(argv[6])
            cls = crystal.classify_index(ctx, lam, i, weights.residue_int(ctx, lam, i))
            text = f"{cls.kind} (r={cls.r})"
        elif command == "signature":
            r = _value(argv[6])
            raw = crystal.r_signature(ctx, lam, r)
            text = f"{raw} / {crystal.reduce_signature(raw)}"
        elif command == "graph":
            text = json.dumps(graph.crystal_component(ctx, lam, 1).to_json())
        elif command == "pbw":
            want = linkage.z_scalar(ctx, lam, _value(argv[-1]))
            text = f"{want} (predicted {want}): pass"
        else:  # verify
            lines = out.splitlines()
            self.verify_checks += sum(int(n) for n in _VERIFY_COUNT.findall(out))
            text = out if lines and all(line.startswith("[pass]") for line in lines) else None
        self._expect(code == 0 and out == text, item)
        return code, out
