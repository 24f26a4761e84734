"""The value types the public kernels return, and the answers of those kernels.

``AffineWeight``, ``Signature``, ``IndexClass`` and ``TruncatedSeries`` are
compared and hashed by value: equal fields give equal objects, and no
instance equals a plain tuple or an instance of another of the four.  The
per-call kernels behind them are pinned by one digest over seeded inputs,
and none of them is memoised, so a timed call is a call, not a lookup.
"""

import dataclasses
import hashlib
import pickle
import random
import types

import pytest
from helpers import PAPER_LAM, paper_ctx, residue_classes

from supercrystals import affine, crystal, graph, linkage, pbw, tensorrule
from supercrystals.affine import AffineWeight, wt_of
from supercrystals.crystal import (
    IndexClass,
    Signature,
    classify_index,
    e_star,
    f_star,
    reduced_signature,
)
from supercrystals.linkage import TruncatedSeries, default_order, g_series
from supercrystals.tensorrule import dual_oracle
from supercrystals.weights import build_context, residue_vectors


def _instances():
    """(instance from a public call, the same fields built by hand, one field changed)."""
    ctx = paper_ctx(3)
    ctx0 = paper_ctx(0)
    return [
        (wt_of(ctx, PAPER_LAM), AffineWeight(3, (), -3, (3, -1, -2)),
         AffineWeight(3, (), -2, (3, -1, -2))),
        (wt_of(ctx0, PAPER_LAM), AffineWeight(0, ((1, -1), (6, 1), (9, 1))),
         AffineWeight(0, ())),
        (reduced_signature(ctx, PAPER_LAM, 0), Signature(("+", "+", "0", "0", "+")),
         Signature(("+", "+", "0", "0", "-"))),
        (classify_index(ctx, PAPER_LAM, 1, 1), IndexClass("good", 1), IndexClass("normal", 1)),
        (g_series(ctx, PAPER_LAM, 3), TruncatedSeries((1, -1, -13, -89)),
         TruncatedSeries((1, -1, -13, -88))),
    ]


def test_the_value_types_compare_and_hash_by_value():
    made = _instances()
    for got, same, other in made:
        assert got == same and hash(got) == hash(same), got
        assert got != other and not got == other, got
        fields = tuple(getattr(got, f.name) for f in dataclasses.fields(got))
        assert got != fields and fields != got, got
        for x, _, _ in made:
            if type(x) is not type(got):
                assert got != x, (got, x)
        table = {got: 1}
        table[same] = 2
        assert table == {got: 2} and other not in table
        assert {got, same, other} == {same, other}
        back = pickle.loads(pickle.dumps(got))
        assert back == got and hash(back) == hash(got) and type(back) is type(got)


def test_the_value_types_have_pinned_reprs():
    ctx = paper_ctx(3)
    assert repr(wt_of(ctx, PAPER_LAM)) == (
        "AffineWeight(p=3, gamma=(), delta=-3, lambdas=(3, -1, -2))"
    )
    assert repr(reduced_signature(ctx, PAPER_LAM, 0)) == (
        "Signature(entries=('+', '+', '0', '0', '+'))"
    )
    assert repr(classify_index(ctx, PAPER_LAM, 1, 1)) == "IndexClass(kind='good', r=1)"
    assert repr(g_series(ctx, PAPER_LAM, 3)) == "TruncatedSeries(coeffs=(1, -1, -13, -89))"


def test_the_per_call_kernels_are_pinned():
    # seeded weights at ranks 2-5, p in {0, 2, 3, 5}, coefficients in [-7, 7];
    # every residue class the weight can see and every position
    rng = random.Random(34)
    digest = hashlib.sha256()
    for rank in (2, 3, 4, 5):
        for p in (0, 2, 3, 5):
            for _ in range(20):
                parities = tuple(rng.randrange(2) for _ in range(rank))
                ctx = build_context(parities.count(0), parities.count(1), parities, p)
                lam = tuple(rng.randint(-7, 7) for _ in range(rank))
                down, up = residue_vectors(ctx, lam)
                out = [wt_of(ctx, lam).to_json(), g_series(ctx, lam, default_order(ctx)).coeffs]
                for r in residue_classes(p, down + up):
                    out.append((
                        r,
                        str(reduced_signature(ctx, lam, r)),
                        [classify_index(ctx, lam, i, r) for i in range(1, rank + 1)],
                        e_star(ctx, lam, r),
                        f_star(ctx, lam, r),
                        dual_oracle(ctx, lam, r, "e"),
                        dual_oracle(ctx, lam, r, "f"),
                    ))
                digest.update(repr((parities, p, lam, out)).encode())
    assert digest.hexdigest()[:16] == "95dcbadb3856aa09"


@pytest.mark.parametrize(
    "fn",
    [
        crystal.reduced_signature,
        crystal.e_star,
        crystal.f_star,
        tensorrule.dual_oracle,
        crystal.classify_index,
        crystal.normal_by_matching,
        affine.wt_of,
        linkage.g_series,
        linkage.z_scalar,
        pbw.verma_scalar,
        graph.crystal_component,
    ],
    ids=lambda fn: fn.__name__,
)
def test_no_per_call_kernel_is_memoised(fn):
    # a benchmark that keeps the faster of two back-to-back calls would time
    # a memo's own hit, not the call
    assert isinstance(fn, types.FunctionType), fn
    assert not hasattr(fn, "cache_info") and not hasattr(fn, "__wrapped__"), fn


def test_the_value_types_are_slotted_and_the_shared_specs_stay_frozen():
    for got, _, _ in _instances():
        assert not hasattr(got, "__dict__"), got
    # built once per spec or kind and shared by every caller
    with pytest.raises(dataclasses.FrozenInstanceError):
        paper_ctx(3).p = 5
