"""Property-based tests for the core combinatorics."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from supercrystals import crystal, tensorrule
from supercrystals.affine import (
    AffineWeight,
    ab_counts,
    ab_key,
    gamma_of,
    wt_key,
    wt_of,
)
from supercrystals.crystal import Signature, greedy_match, reduce_signature
from supercrystals.linkage import TruncatedSeries, series_coeffs
from supercrystals.weights import (
    build_context,
    eps,
    flip_map,
    iter_window,
    residue_int,
    residue_vectors,
    weight_add,
)

signatures = st.lists(st.sampled_from("+-0"), min_size=1, max_size=12).map(
    lambda xs: Signature(tuple(xs))
)


@given(signatures)
def test_reduce_signature_idempotent(sig):
    red = reduce_signature(sig)
    assert reduce_signature(red).entries == red.entries


@given(signatures)
def test_reduce_signature_preserves_count_difference(sig):
    red = reduce_signature(sig)
    assert sig.entries.count("+") - sig.entries.count("-") == (
        red.entries.count("+") - red.entries.count("-")
    )
    # in the reduced word all pluses precede all minuses
    word = [e for e in red.entries if e != "0"]
    assert word == sorted(word, key=lambda e: e == "-")


subsets = st.sets(st.integers(min_value=1, max_value=10), max_size=6)


def _injects_down(a, b):
    """Brute force: some injection of a into b sends every x to a y <= x."""
    xs = sorted(a)
    return any(
        all(y <= x for x, y in zip(xs, image))
        for image in itertools.permutations(sorted(b), len(xs))
    )


def _check_matching(a, b):
    """greedy_match finds an injection exactly when the brute-force search does."""
    picks = greedy_match(a, b)
    assert (picks is not None) == _injects_down(a, b)
    if picks is not None:
        assert len(set(picks)) == len(picks) == len(a)
        assert set(picks) <= b
        assert all(y <= x for x, y in zip(sorted(a), picks))


@given(subsets, subsets)
def test_greedy_match_agrees_with_brute_force(a, b):
    _check_matching(a, b)


def test_greedy_match_agrees_with_brute_force_on_all_small_subsets():
    universe = range(1, 7)
    small = [
        set(c) for k in range(len(universe) + 1) for c in itertools.combinations(universe, k)
    ]
    for a in small:
        for b in small:
            _check_matching(a, b)


@given(subsets, subsets)
def test_greedy_match_is_monotone_in_targets(a, b):
    if greedy_match(a, b) is not None:
        assert greedy_match(a, b | {1}) is not None


def _contexts():
    out = []
    for parities in ((0, 1), (1, 0), (1, 0, 0), (0, 1, 1)):
        m = parities.count(0)
        for p in (0, 2, 3):
            out.append(build_context(m, len(parities) - m, parities, p))
    return out


CONTEXTS = _contexts()
ctx_strategy = st.sampled_from(CONTEXTS)
coeff = st.integers(min_value=-4, max_value=4)


@st.composite
def ctx_and_weight(draw):
    ctx = draw(ctx_strategy)
    lam = tuple(draw(coeff) for _ in range(ctx.rank))
    return ctx, lam


@given(ctx_and_weight())
def test_flip_is_an_involution(cw):
    ctx, lam = cw
    fctx, flam = flip_map(ctx, lam)
    ctx2, lam2 = flip_map(fctx, flam)
    assert ctx2.parities == ctx.parities and lam2 == lam


@given(ctx_and_weight(), st.integers(min_value=1, max_value=3))
def test_wt_changes_by_a_gamma_difference(cw, i):
    ctx, lam = cw
    if i > ctx.rank:
        i = ctx.rank
    # the gamma letter of position i is (lam+rho, eps_i): the residue shifted
    # by one at even positions
    b = residue_int(ctx, lam, i) + (1 if ctx.parity(i) == 0 else 0)
    s = ctx.sign(i)
    delta = wt_of(ctx, weight_add(lam, eps(ctx, i))) - wt_of(ctx, lam)
    assert delta == (gamma_of(ctx.p, b + s) - gamma_of(ctx.p, b)).scale(s)


@given(ctx_and_weight(), st.integers(min_value=-3, max_value=6))
@settings(max_examples=60)
def test_star_operators_are_mutually_inverse(cw, r):
    ctx, lam = cw
    up = crystal.e_star(ctx, lam, r)
    if up is not None:
        assert crystal.f_star(ctx, up, r) == lam
    dn = crystal.f_star(ctx, lam, r)
    if dn is not None:
        assert crystal.e_star(ctx, dn, r) == lam


@given(ctx_and_weight(), st.integers(min_value=-3, max_value=6))
@settings(max_examples=60)
def test_counters_count_operator_strings(cw, r):
    ctx, lam = cw
    e_count, f_count = crystal.eps_phi_star(ctx, lam, r)
    w = lam
    for _ in range(e_count):
        w = crystal.e_star(ctx, w, r)
        assert w is not None
    assert crystal.e_star(ctx, w, r) is None
    w = lam
    for _ in range(f_count):
        w = crystal.f_star(ctx, w, r)
        assert w is not None
    assert crystal.f_star(ctx, w, r) is None


small_series = st.lists(
    st.integers(min_value=-5, max_value=5), min_size=3, max_size=3
).map(lambda c: TruncatedSeries(tuple(c)))


@given(small_series, small_series, small_series)
def test_series_multiplication_commutes_and_associates(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------------------
# the flat-integer kernels of affine and linkage against independent routes

KERNEL_PRIMES = (0, 2, 3, 5, 7)


def _wt_by_gamma_sum(ctx, lam):
    """wt(lam) summed letter by letter in AffineWeight arithmetic."""
    out = AffineWeight(ctx.p, lambdas=(0,) * ctx.p)
    for i in range(1, ctx.rank + 1):
        s = ctx.sign(i)
        term = gamma_of(ctx.p, s * (lam[i - 1] + ctx.rho[i - 1]))
        out = out + (term if s == 1 else -term)
    return out


def _linear_factor(a, n):
    """1 - a*u as a truncated series in u."""
    return TruncatedSeries((1, -a) + (0,) * (n - 1))


def _geometric_factor(b, n):
    """1 / (1 - b*u) = sum_k b^k u^k as a truncated series in u."""
    return TruncatedSeries(tuple(b**k for k in range(n + 1)))


def _check_kernels(ctx, lam):
    p = ctx.p
    down, up = residue_vectors(ctx, lam)
    assert AffineWeight.from_key(p, wt_key(p, ctx.signs, down)) == _wt_by_gamma_sum(
        ctx, lam
    )
    n = 2 * ctx.rank + 2
    series = TruncatedSeries((1,) + (0,) * n)
    for d, a in zip(down, up):
        series = series * _linear_factor(a, n) * _geometric_factor(d, n)
    assert tuple(series_coeffs(down, up, n)) == series.coeffs
    key = ab_key(p, down, up)
    if p:
        rs = range(p)
        diffs = dict(enumerate(key))
    else:
        rs = range(min(down + up) - 1, max(down + up) + 2)
        diffs = dict(key)
        assert all(diffs.values())
    for r in rs:
        a, b = ab_counts(ctx, lam, r)
        assert diffs.get(r, 0) == a - b, r


@st.composite
def kernel_inputs(draw):
    parities = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=5)))
    m = parities.count(0)
    ctx = build_context(m, len(parities) - m, parities, draw(st.sampled_from(KERNEL_PRIMES)))
    lam = tuple(draw(st.integers(-9, 9)) for _ in parities)
    return ctx, lam


@given(kernel_inputs())
@settings(max_examples=300)
def test_kernels_agree_with_independent_routes(cw):
    _check_kernels(*cw)


def test_kernels_agree_with_independent_routes_on_a_small_window():
    for rank, window in ((1, 9), (2, 4), (3, 2), (4, 1)):
        for parities in itertools.product((0, 1), repeat=rank):
            m = parities.count(0)
            for p in KERNEL_PRIMES:
                ctx = build_context(m, rank - m, parities, p)
                for lam in iter_window(rank, window):
                    _check_kernels(ctx, lam)


@st.composite
def table_inputs(draw):
    parities = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=7)))
    m = parities.count(0)
    ctx = build_context(m, len(parities) - m, parities, draw(st.sampled_from((7, 11))))
    lam = tuple(draw(st.integers(-12, 12)) for _ in parities)
    return ctx, lam


@given(table_inputs())
@settings(max_examples=200)
def test_residue_tables_agree_with_the_per_residue_kernels(cw):
    ctx, lam = cw
    p = ctx.p
    down, up = residue_vectors(ctx, lam)
    letters = tensorrule.letters_of(ctx, lam)
    table = crystal.reduced_table(p, down, up)
    dual = tensorrule.dual_table(p, ctx.signs, lam, letters)
    for r in range(p):
        minus, plus = table.get(r, crystal.VACUOUS)
        assert (list(minus), list(plus)) == crystal.reduced_positions(p, down, up, r), r
        want = tensorrule.dual_moves(p, ctx.signs, lam, letters, r)
        assert dual.get(r, (None, None, (0, 0))) == want, r


@st.composite
def residue_inputs(draw):
    # residue vectors: up_i - down_i = +-1 at every position
    down = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=8))
    up = [d + draw(st.sampled_from((-1, 1))) for d in down]
    return draw(st.sampled_from(KERNEL_PRIMES)), down, up


@given(residue_inputs())
@settings(max_examples=300)
def test_matching_flags_agree_with_the_per_position_routes(pdu):
    p, down, up = pdu
    normal = [crystal.matching_normal(p, down, up, i) for i in range(1, len(down) + 1)]
    good = [crystal.matching_good(p, down, normal, i) for i in range(1, len(down) + 1)]
    assert crystal.matching_flags(p, down, up) == (normal, good)
