"""Tests for the weight lattice: contexts, residues, flips, parsing."""

import pytest
from helpers import PAPER_LAM, paper_ctx

from supercrystals.crystal import s_i_map
from supercrystals.weights import (
    ContextError,
    build_context,
    eps,
    flip_map,
    form_pair,
    iter_window,
    length,
    parse_weight,
    residue_int,
    residue_vectors,
    weight_add,
    weight_sub,
)


def test_build_context_basic():
    ctx = paper_ctx()
    assert ctx.rank == 5
    assert ctx.m == 3 and ctx.n == 2
    assert [ctx.sign(i) for i in range(1, 6)] == [-1, -1, 1, 1, 1]
    assert [ctx.parity(i) for i in range(1, 6)] == [1, 1, 0, 0, 0]


def raises_every_time(spec, message):
    """build_context(*spec) raises ContextError(message) on a first and a second call."""
    for _ in range(2):
        with pytest.raises(ContextError) as info:
            build_context(*spec)
        assert str(info.value) == message


def test_build_context_rejects_composite_characteristic():
    for p in (4, 6, 9, 15):
        raises_every_time((1, 1, (0, 1), p), f"characteristic must be 0 or prime, got {p}")


def test_build_context_rejects_mismatched_parities():
    # two odd entries, n says one
    raises_every_time((2, 1, (0, 1, 1), 0), "parity counts (1 even, 2 odd) do not match (m=2, n=1)")
    raises_every_time((2, 1, (0, 1), 0), "parity sequence has length 2, expected 3")
    raises_every_time((2, 1, (0, 2, 1), 0), "parities must consist of 0 (even) and 1 (odd)")


def test_build_context_returns_one_shared_context_per_spec():
    ctx = build_context(2, 1, (0, 1, 0), 3)
    assert build_context(2, 1, [0, 1, 0], 3) is ctx
    assert build_context(2, 1, (x for x in (0, 1, 0)), 3) is ctx
    # another characteristic or parity sequence gets a context of its own spec
    specs = [(2, 1, (0, 1, 0), p) for p in (3, 0, 2, 5)]
    specs += [(2, 1, (1, 0, 0), 3), (2, 1, (0, 0, 1), 3), (1, 2, (1, 0, 1), 3)]
    contexts = [build_context(*spec) for spec in specs]
    assert len({id(c) for c in contexts}) == len(specs)
    assert [(c.m, c.n, c.parities, c.p) for c in contexts] == specs


def test_flips_and_odd_reflections_return_the_shared_context():
    ctx = paper_ctx()
    assert flip_map(*flip_map(ctx, PAPER_LAM))[0] is ctx
    # positions 2 and 3 of the paper's parities (1, 1, 0, 0, 0) differ
    assert s_i_map(*s_i_map(ctx, PAPER_LAM, 2), 2)[0] is ctx


def test_congruence_and_reduce():
    ctx = paper_ctx(3)
    assert ctx.reduce(8) == 2
    assert ctx.congruent(8, 2) and not ctx.congruent(8, 1)
    ctx0 = paper_ctx(0)
    assert ctx0.reduce(8) == 8
    assert ctx0.congruent(5, 5) and not ctx0.congruent(5, 2)


def test_residues_worked_example():
    ctx = paper_ctx()
    down = tuple(residue_vectors(ctx, PAPER_LAM)[0])
    assert down == (1, 4, 3, 8, 5)
    assert tuple(v % 3 for v in down) == (1, 1, 0, 2, 2)
    # residue of lam + eps_i shifts by the sign of the position
    up = tuple(residue_vectors(ctx, PAPER_LAM)[1])
    assert up == tuple(d + ctx.sign(i + 1) for i, d in enumerate(down))


def test_residue_int_matches_residues():
    ctx = paper_ctx()
    for j in range(1, 6):
        assert residue_int(ctx, PAPER_LAM, j) == residue_vectors(ctx, PAPER_LAM)[0][j - 1]


def test_residue_vectors_returns_fresh_lists_the_caller_owns():
    # the C3 and C4 sweeps patch a weight's own vectors in place for one
    # read of a moved weight; that is sound only if no call shares a list
    ctx = paper_ctx()
    first = residue_vectors(ctx, PAPER_LAM)
    second = residue_vectors(ctx, PAPER_LAM)
    lists = [*first, *second]
    assert all(type(v) is list for v in lists)
    assert len({id(v) for v in lists}) == 4
    want = tuple(list(v) for v in second)
    for vec in first:
        vec[0] += 7
        vec.append(0)
    assert residue_vectors(ctx, PAPER_LAM) == want
    assert second == want


def test_form_pair_diagonal():
    ctx = paper_ctx(0)
    for i in range(1, 6):
        for j in range(1, 6):
            expect = ctx.sign(i) if i == j else 0
            assert form_pair(ctx, eps(ctx, i), eps(ctx, j)) == expect


def test_weight_arithmetic():
    a, b = (1, 2, 3), (0, -1, 4)
    assert weight_add(a, b) == (1, 1, 7)
    assert weight_sub(a, b) == (1, 3, -1)
    assert length(PAPER_LAM) == 13


def test_flip_map_worked_example():
    ctx = paper_ctx()
    fctx, flam = flip_map(ctx, PAPER_LAM)
    assert fctx.parities == (1, 1, 1, 0, 0)
    assert flam == (-5, -7, -1, 1, -1)


def test_flip_map_is_involutive():
    ctx = paper_ctx()
    fctx, flam = flip_map(ctx, PAPER_LAM)
    ctx2, lam2 = flip_map(fctx, flam)
    assert ctx2.parities == ctx.parities and lam2 == PAPER_LAM


def test_parse_weight():
    ctx = paper_ctx()
    assert parse_weight("1,-1,1,7,5", ctx) == PAPER_LAM
    with pytest.raises(ValueError):
        parse_weight("1,x,3", ctx)
    with pytest.raises(ValueError):
        parse_weight("1,2", ctx)


def test_iter_window_order_and_size():
    window = list(iter_window(2, 1))
    assert len(window) == 9
    assert window[0] == (0, 0)  # max-norm 0 first
    norms = [max(abs(c) for c in w) if w else 0 for w in window]
    assert norms == sorted(norms)
    # built once per (rank, bound) and shared as an immutable tuple
    assert isinstance(iter_window(2, 1), tuple)
    assert iter_window(2, 1) is iter_window(2, 1)
