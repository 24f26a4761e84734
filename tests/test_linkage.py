"""Tests for central-character scalars, residue series, and block partitions."""

import itertools
import random
from math import prod

import pytest
from helpers import PAPER_LAM, paper_ctx

from supercrystals.affine import ab_counts, ab_key, wt_key, wt_of
from supercrystals.linkage import (
    TruncatedSeries,
    default_order,
    g_series,
    g_series_presented,
    parity_term,
    partition_blocks,
    series_coeffs,
    z_scalar,
    z_scalars,
)
from supercrystals.weights import build_context, iter_window, length, residue_vectors


def exponential_z(ctx, lam, r):
    """Z_r(lam) by its definition, the oracle of the closed form in z_scalar.

    Sum over s = 1..r, index tuples k_1 < ... < k_s, and nonnegative
    compositions a_1 + ... + a_s = r - s + 1 of
    (-1)**(s-1) (-1)**(parity sum) r_{k_1}^{a_1} ... r_{k_s}^{a_s}.
    """
    res = residue_vectors(ctx, lam)[0]
    total = 0
    for s in range(1, r + 1):
        for combo in itertools.combinations(range(1, ctx.rank + 1), s):
            base = (-1) ** (s - 1) * (-1) ** sum(ctx.parity(k) for k in combo)
            for comp in _compositions(r - s + 1, s):
                total += base * prod(res[k - 1] ** a for k, a in zip(combo, comp))
    return total


def _compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def test_z1_worked_example():
    # Z_1 = sum of signed residues: -1 - 4 + 3 + 8 + 5 = 11
    assert z_scalar(paper_ctx(), PAPER_LAM, 1) == 11


def test_z1_single_odd_index():
    ctx = build_context(0, 1, (1,), 0)
    for lam in ((0,), (3,), (-2,)):
        assert z_scalar(ctx, lam, 1) == -residue_vectors(ctx, lam)[0][0]


def test_z_scalar_matches_the_exponential_sum_at_p_and_wide_weights():
    # the closed form is a polynomial identity, so p and the size of lam
    # do not matter; z_scalars reads every r <= R off one series
    for p in (0, 3):
        ctx = paper_ctx(p)
        for lam in (PAPER_LAM, (-7, 0, 6, -5, 2), (9, 9, -9, 0, 1)):
            want = [exponential_z(ctx, lam, r) for r in range(1, 6)]
            for r in range(1, 6):
                assert z_scalar(ctx, lam, r) == want[r - 1]
            for big_r in range(1, 6):
                every = z_scalars(ctx, lam, big_r)
                assert every == want[:big_r], (p, lam, big_r)
                assert every == [z_scalar(ctx, lam, r) for r in range(1, big_r + 1)]


def test_z_scalar_rejects_bad_r():
    for r in (0, -1):
        for scalars in (z_scalar, z_scalars):
            with pytest.raises(ValueError) as exc:
                scalars(paper_ctx(), PAPER_LAM, r)
            assert str(exc.value) == "r must be >= 1"


def test_both_series_reject_an_order_below_1():
    for n in (0, -1):
        for series in (g_series, g_series_presented):
            with pytest.raises(ValueError, match="truncation order"):
                series(paper_ctx(), PAPER_LAM, n)


def test_presented_series_reads_z_scalar_from_order_1():
    # n = 1 has no Z term; each later coefficient is -Z_r of the one-r route
    ctx = paper_ctx()
    assert g_series_presented(ctx, PAPER_LAM, 1).coeffs == (1, 0)
    for n in range(2, 7):
        coeffs = g_series_presented(ctx, PAPER_LAM, n).coeffs
        want = tuple(-z_scalar(ctx, PAPER_LAM, r) for r in range(1, n))
        assert coeffs == (1, 0) + want, n


def test_parity_term_is_the_signed_elementary_symmetric_sum():
    # (-1)^{r+1} e_{r+1}(s) by brute force over subsets, 0 once r + 1 > rank;
    # z_scalar and pbw.z_element both read parity_term, so the Verma suite
    # cannot see a defect in it and this test must
    for rank in range(1, 5):
        for signs in itertools.product((1, -1), repeat=rank):
            for r in range(6):
                subsets = itertools.combinations(signs, r + 1)
                want = (-1) ** (r + 1) * sum(prod(c) for c in subsets)
                assert parity_term(signs, r) == want, (signs, r)
    with pytest.raises(ValueError):
        parity_term((1, -1), -1)


def test_truncated_series_multiplication():
    # (1 - a u) * (1 + a u + a^2 u^2 + ...) = 1
    a = 7
    n = 5
    lin = TruncatedSeries((1, -a, 0, 0, 0, 0))
    geo = TruncatedSeries(tuple(a**k for k in range(n + 1)))
    assert lin * geo == TruncatedSeries((1,) + (0,) * n)


def test_g_series_vs_presented_u1_discrepancy():
    # the two presentations of G_lam(t) disagree at u^1 by exactly -(m-n);
    # the discrepancy is documented, not patched
    for parities in ((0, 1), (1, 0, 0), (1, 1, 0)):
        m = parities.count(0)
        ctx = build_context(m, len(parities) - m, parities, 0)
        n = default_order(ctx)
        for lam in iter_window(ctx.rank, 1):
            a = g_series(ctx, lam, n)
            b = g_series_presented(ctx, lam, n)
            assert a.coeffs[0] == b.coeffs[0] == 1
            assert a.coeffs[1] - b.coeffs[1] == -(ctx.m - ctx.n), (parities, lam)


def test_z_scalar_is_the_g_series_coefficient_less_the_parity_term():
    # [u^{r+1}] G_lam = -Z_r(lam) - (-1)^r e_{r+1}(s), s_i = (-1)^{parity_i};
    # the exponential sum is the oracle of both the identity and z_scalar
    for rank in (2, 3, 4):
        for parities in itertools.product((0, 1), repeat=rank):
            m = parities.count(0)
            ctx = build_context(m, rank - m, parities, 0)
            elementary = [
                sum(prod(c) for c in itertools.combinations(ctx.signs, k))
                for k in range(6)
            ]
            for lam in iter_window(rank, 2):
                g = g_series(ctx, lam, 5).coeffs
                for r in range(1, 5):
                    want = -g[r + 1] - (-1) ** r * elementary[r + 1]
                    assert exponential_z(ctx, lam, r) == want, (parities, lam, r)
                    assert z_scalar(ctx, lam, r) == want, (parities, lam, r)


def test_default_order_is_at_least_the_pade_bound():
    # 2k coefficients of the series fix its reduced divisor at rank k
    for rank in range(1, 9):
        ctx = build_context(rank, 0, (0,) * rank, 0)
        assert default_order(ctx) >= 2 * ctx.rank, rank


def _product_series(down, up, n):
    """prod_i (1 - up_i u) * sum_k down_i^k u^k, each product cut at u^n."""
    coeffs = [1] + [0] * n
    for d, a in zip(down, up):
        factor = [1, -a] + [0] * (n - 1)
        geometric = [d**k for k in range(n + 1)]
        for series in (factor, geometric):
            coeffs = [sum(coeffs[t] * series[k - t] for t in range(k + 1)) for k in range(n + 1)]
    return coeffs


def test_wt_ab_data_and_series_agree_on_seeded_weights_far_outside_the_window():
    # C6's keys as functions of lam alone, so these decide the linkage
    # statement for every weight: with X = sum_i s_i [b_i] the signed letters
    # (b_i = down_i + [s_i > 0]) and base = length + m + sum(theta),
    # - p > 0: wt_key[1:] is ab_key, and p * delta = F(ab) - base, where
    #   F(ab) = sum_t (t + 1) c(t + 1 mod p) for the c with
    #   c(r) - c(r + 1) = ab_r and sum(c) = m - n;
    # - p = 0: ab_key is X(r) - X(r + 1) and sum_b b X(b) = base;
    # and series_coeffs is the product expansion of its series
    rng = random.Random(14)
    for _ in range(500):
        rank = rng.randint(2, 7)
        parities = tuple(rng.randint(0, 1) for _ in range(rank))
        m = parities.count(0)
        lam = tuple(rng.randint(-40, 40) for _ in range(rank))
        for p in (0, 2, 3, 5, 7, 11):
            ctx = build_context(m, rank - m, parities, p)
            down, up = residue_vectors(ctx, lam)
            key, ab = wt_key(p, ctx.signs, down), ab_key(p, down, up)
            base = length(lam) + m + sum(ctx.theta)
            where = (parities, lam, p)
            if p:
                assert key[1:] == ab, where
                c = [0]  # c(r) - c(0), then shifted so that sum(c) = m - n
                for r in range(p - 1):
                    c.append(c[-1] - ab[r])
                c0, rest = divmod(m - (rank - m) - sum(c), p)
                assert rest == 0, where
                c = [c0 + x for x in c]
                assert p * key[0] == sum((t + 1) * c[(t + 1) % p] for t in range(p)) - base, where
            else:
                x = dict(key)
                rs = {b - d for b in x for d in (0, 1)}
                diff = ((r, x.get(r, 0) - x.get(r + 1, 0)) for r in sorted(rs))
                assert ab == tuple((r, v) for r, v in diff if v), where
                assert sum(b * v for b, v in x.items()) == base, where
        n = default_order(ctx)
        assert series_coeffs(down, up, n) == _product_series(down, up, n), (parities, lam)


def test_blocks_match_ab_data_in_small_window():
    ctx = build_context(1, 1, (0, 1), 2)
    window = list(iter_window(2, 1))
    blocks = partition_blocks(ctx, window)
    # weights in the same block share (length, A_r - B_r for all r) and
    # conversely
    def key(lam):
        return (
            length(lam),
            tuple(
                ab_counts(ctx, lam, r)[0] - ab_counts(ctx, lam, r)[1]
                for r in range(2)
            ),
        )

    seen = {}
    for wt_key, members in blocks:
        kinds = {key(lam) for lam in members}
        assert len(kinds) == 1, members
        k = kinds.pop()
        assert k not in seen, "distinct wt blocks share the combinatorial key"
        seen[k] = wt_key
    assert sum(len(ws) for _, ws in blocks) == len(window)


def test_same_block_consistency():
    ctx = build_context(1, 1, (0, 1), 2)
    window = list(iter_window(2, 1))
    block_of = {lam: n for n, (_, members) in enumerate(partition_blocks(ctx, window))
                for lam in members}
    for lam in window:
        for mu in window:
            assert (block_of[lam] == block_of[mu]) == (wt_of(ctx, lam) == wt_of(ctx, mu))
