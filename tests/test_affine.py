"""Tests for the affine lattice: wt values, pairings, A/B counts."""

import itertools
from fractions import Fraction

import pytest
from helpers import PAPER_LAM, paper_ctx

from supercrystals.affine import (
    ab_counts,
    alpha_of,
    alpha_pairing,
    delta_of,
    gamma_of,
    gram_matrix,
    lambda_of,
    pair_P,
    wt_key,
    wt_of,
)
from supercrystals.weights import build_context, iter_window, residue_vectors


def test_affine_arithmetic_p0():
    a = gamma_of(0, 1) + gamma_of(0, 1) - gamma_of(0, 3)
    assert a.gamma == ((1, 2), (3, -1))
    assert (a - a).gamma == ()
    assert a.scale(2).gamma == ((1, 4), (3, -2))


def test_affine_json_roundtrip():
    a = gamma_of(0, 2) - gamma_of(0, 5).scale(3)
    assert a.to_json() == {"gamma": {"2": 1, "5": -3}}
    assert wt_of(paper_ctx(3), PAPER_LAM).to_json() == {"delta": -3, "lambda": [3, -1, -2]}


def test_wt_worked_example_p3():
    w = wt_of(paper_ctx(3), PAPER_LAM)
    assert w.delta == -3
    assert w.lambdas == (3, -1, -2)


def test_wt_worked_example_p0():
    w = wt_of(paper_ctx(0), PAPER_LAM)
    assert dict(w.gamma) == {1: -1, 6: 1, 9: 1}


def test_gram_matrix_symmetric():
    for p in (2, 3, 5, 7, 11, 13):
        g = gram_matrix(p)
        for i in range(len(g)):
            for j in range(len(g)):
                assert g[i][j] == g[j][i]


def test_dual_basis_pairings():
    # (delta, Lambda_0..Lambda_{p-1}) and (Lambda_0, alpha_0..alpha_{p-1})
    # are dual bases of the affine lattice
    for p in (2, 3, 5, 7, 11, 13):
        d = delta_of(p)
        assert pair_P(d, lambda_of(p, 0)) == 1
        for r in range(p):
            assert pair_P(d, alpha_of(p, r)) == 0
            assert pair_P(lambda_of(p, r), lambda_of(p, 0)) == 0
            for s in range(p):
                assert pair_P(lambda_of(p, r), alpha_of(p, s)) == (
                    1 if r == s else 0
                )
    # neither basis exists at p = 0
    with pytest.raises(ValueError, match="^delta exists only in positive characteristic$"):
        delta_of(0)
    for r in (0, 1):
        with pytest.raises(ValueError, match="^Lambda_r exists only in positive characteristic$"):
            lambda_of(0, r)


def test_gamma_alpha_pairing_against_form():
    # <gamma_b, alpha_r> through the bilinear form matches the residue rule
    for p in (0, 3, 5):
        for b in range(-2, 6):
            for r in range(-1, 5):
                val = pair_P(gamma_of(p, b), alpha_of(p, r))
                expect = 0
                if (b - r) % p == 0 if p else b == r:
                    expect += 1
                if (b - r - 1) % p == 0 if p else b == r + 1:
                    expect -= 1
                assert val == expect, (p, b, r)


def test_ab_counts_worked_example():
    ctx = paper_ctx(3)
    assert ab_counts(ctx, PAPER_LAM, 0) == (4, 1)
    assert ab_counts(ctx, PAPER_LAM, 1) == (1, 2)
    assert ab_counts(ctx, PAPER_LAM, 2) == (0, 2)
    assert sum(ab_counts(ctx, PAPER_LAM, r)[0] for r in range(3)) == 5
    assert sum(ab_counts(ctx, PAPER_LAM, r)[1] for r in range(3)) == 5


def test_wt_pairing_equals_ab_difference():
    ctx = build_context(1, 1, (0, 1), 3)
    for lam in iter_window(2, 2):
        w = wt_of(ctx, lam)
        for r in range(3):
            a = alpha_of(3, r)
            coroot = pair_P(w, a) * Fraction(2) / pair_P(a, a)
            aa, bb = ab_counts(ctx, lam, r)
            assert coroot == aa - bb, (lam, r)


def test_alpha_pairing_reads_the_form_off_wt_key():
    # the Gram matrix behind pair_P is the oracle for the int kernel
    for rank in (2, 3):
        for parities in itertools.product((0, 1), repeat=rank):
            m = parities.count(0)
            for p in (0, 2, 3, 5):
                ctx = build_context(m, rank - m, parities, p)
                for lam in iter_window(rank, 1):
                    down, _ = residue_vectors(ctx, lam)
                    key = wt_key(p, ctx.signs, down)
                    w = wt_of(ctx, lam)
                    rs = range(-1, p + 1) if p else range(min(down) - 2, max(down) + 3)
                    for r in rs:
                        want = pair_P(w, alpha_of(p, r))
                        assert alpha_pairing(p, key, r) == want, (parities, p, lam, r)
