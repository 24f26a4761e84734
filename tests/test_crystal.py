"""Tests for signatures, star operators, classifications, odd reflections."""

import itertools

import pytest
from helpers import PAPER_LAM, paper_ctx, residue_classes

from supercrystals import crystal
from supercrystals.weights import (
    build_context,
    eps,
    form_pair,
    iter_window,
    residue_vectors,
    weight_add,
    weight_sub,
)


def test_signatures_worked_example():
    ctx = paper_ctx()
    assert str(crystal.r_signature(ctx, PAPER_LAM, 0)) == "++-++"
    assert str(crystal.r_signature(ctx, PAPER_LAM, 1)) == "--+00"
    assert str(crystal.r_signature(ctx, PAPER_LAM, 2)) == "000--"


def test_reduced_signatures_worked_example():
    ctx = paper_ctx()
    assert str(crystal.reduced_signature(ctx, PAPER_LAM, 0)) == "++00+"
    assert str(crystal.reduced_signature(ctx, PAPER_LAM, 1)) == "-0000"
    assert str(crystal.reduced_signature(ctx, PAPER_LAM, 2)) == "000--"


def test_relevant_residues_are_the_nonzero_signatures():
    assert crystal.relevant_residues(paper_ctx(), PAPER_LAM) == (0, 1, 2)
    for p in (0, 2, 3, 5):
        ctx = build_context(2, 2, (0, 1, 1, 0), p)
        for lam in itertools.product(range(-3, 4), repeat=4):
            candidates = range(p) if p else range(-12, 13)
            want = tuple(
                r
                for r in candidates
                if not set(crystal.r_signature(ctx, lam, r).entries) <= {"0"}
            )
            assert crystal.relevant_residues(ctx, lam) == want, (p, lam)


def test_reduce_signature_idempotent():
    ctx = paper_ctx()
    for r in range(3):
        red = crystal.reduced_signature(ctx, PAPER_LAM, r)
        again = crystal.reduce_signature(red)
        assert str(again) == str(red)
        raw = crystal.r_signature(ctx, PAPER_LAM, r)
        assert raw.entries.count("+") - raw.entries.count("-") == (
            red.entries.count("+") - red.entries.count("-")
        )


def test_star_operators_worked_example():
    ctx = paper_ctx()
    # 1 is 1-good: e*_1 removes eps_1
    assert crystal.e_star(ctx, PAPER_LAM, 1) == weight_sub(PAPER_LAM, eps(ctx, 1))
    # 4 is 2-good: e*_2 removes eps_4
    assert crystal.e_star(ctx, PAPER_LAM, 2) == weight_sub(PAPER_LAM, eps(ctx, 4))
    # 5 is 0-cogood: f*_0 adds eps_5
    assert crystal.f_star(ctx, PAPER_LAM, 0) == weight_add(PAPER_LAM, eps(ctx, 5))
    # no plus in the reduced 2-signature, so f*_2 is undefined
    assert crystal.f_star(ctx, PAPER_LAM, 2) is None
    # no minus in the reduced 0-signature... there are none, e*_0 undefined
    assert crystal.e_star(ctx, PAPER_LAM, 0) is None


def test_counters_worked_example():
    ctx = paper_ctx()
    assert crystal.eps_phi_star(ctx, PAPER_LAM, 0) == (0, 3)
    assert crystal.eps_phi_star(ctx, PAPER_LAM, 1) == (1, 0)
    assert crystal.eps_phi_star(ctx, PAPER_LAM, 2) == (2, 0)


def test_classify_worked_example():
    ctx = paper_ctx()
    assert crystal.classify_index(ctx, PAPER_LAM, 1, 1).kind == "good"
    assert crystal.classify_index(ctx, PAPER_LAM, 4, 2).kind == "good"
    assert crystal.classify_index(ctx, PAPER_LAM, 5, 2).kind == "normal"
    assert crystal.classify_index(ctx, PAPER_LAM, 1, 0).kind == "conormal"
    assert crystal.classify_index(ctx, PAPER_LAM, 2, 0).kind == "conormal"
    assert crystal.classify_index(ctx, PAPER_LAM, 5, 0).kind == "cogood"


def test_bc_sets_worked_example():
    ctx = paper_ctx()
    c_set, b_set = crystal.bc_sets(ctx, PAPER_LAM, 1, 5)
    assert c_set == {2} and b_set == {2}
    for i, j in ((2, 2), (3, 2)):
        with pytest.raises(IndexError) as exc:
            crystal.bc_sets(ctx, PAPER_LAM, i, j)
        assert str(exc.value) == f"need 1 <= i < j <= 5, got ({i}, {j})"


def test_c_scalar_is_residue_difference():
    ctx = paper_ctx()
    from supercrystals.weights import residue_vectors

    down, up = residue_vectors(ctx, PAPER_LAM)
    for i in range(1, 6):
        for j in range(i + 1, 6):
            assert crystal.c_scalar(ctx, PAPER_LAM, i, j) == down[i - 1] - down[j - 1]
    for i in range(1, 5):
        assert crystal.b_scalar(ctx, PAPER_LAM, i, i) == down[i - 1] - up[i]


def test_greedy_match_finds_the_downward_injection():
    # greedy_match decides "X injects down into Y" and returns the injection
    assert crystal.greedy_match({2}, {1}) == [1]
    assert crystal.greedy_match({1}, {2}) is None
    assert crystal.greedy_match({1, 3}, {1, 3}) == [1, 3]
    assert crystal.greedy_match({2, 3}, {1, 2}) == [2, 1]
    assert crystal.greedy_match(set(), {4}) == []
    assert crystal.greedy_match({4}, set()) is None


def test_matching_criteria_agree_with_signatures():
    ctx = paper_ctx()
    for i in range(1, 6):
        from supercrystals.weights import residue_int

        r = residue_int(ctx, PAPER_LAM, i)
        cls = crystal.classify_index(ctx, PAPER_LAM, i, r)
        assert crystal.normal_by_matching(ctx, PAPER_LAM, i) == cls.is_normal
        assert crystal.good_by_matching(ctx, PAPER_LAM, i) == (cls.kind == "good")


def test_odd_reflection_worked_example():
    ctx = paper_ctx()
    octx, olam = crystal.s_i_map(ctx, PAPER_LAM, 2)
    assert octx.parities == (1, 0, 1, 0, 0)
    assert olam == (1, 1, -1, 7, 5)
    with pytest.raises(ValueError):
        crystal.s_i_map(ctx, PAPER_LAM, 3)  # both parities even
    for i in (0, 5):  # no position i + 1 to swap with i
        with pytest.raises(IndexError) as exc:
            crystal.s_i_map(ctx, PAPER_LAM, i)
        assert str(exc.value) == f"position {i} out of range 1..4"


def test_odd_reflection_nonzero_pairing():
    ctx = build_context(1, 1, (0, 1), 0)
    octx, olam = crystal.s_i_map(ctx, (1, 0), 1)
    assert octx.parities == (1, 0)
    assert olam == (1, 0)


def test_conormal_via_flip_agrees_with_classify():
    ctx = paper_ctx()
    for i in range(1, 6):
        for r in range(3):
            direct = crystal.classify_index(ctx, PAPER_LAM, i, r).kind in crystal.CONORMAL_KINDS
            assert crystal.conormal_via_flip(ctx, PAPER_LAM, i, r) == direct


def test_bc_positions_match_the_scalar_definitions():
    # the kernel against the weight-arithmetic reference c_scalar / b_scalar
    for rank in (2, 3, 4):
        for parities in itertools.product((0, 1), repeat=rank):
            m = parities.count(0)
            for p in (0, 2, 3, 5):
                ctx = build_context(m, rank - m, parities, p)
                for lam in iter_window(rank, 2):
                    down, up = residue_vectors(ctx, lam)
                    for i in range(1, rank):
                        for j in range(i + 1, rank + 1):
                            c_want = {
                                h for h in range(i + 1, j + 1)
                                if ctx.congruent(crystal.c_scalar(ctx, lam, i, h), 0)
                            }
                            b_want = {
                                h for h in range(i, j)
                                if ctx.congruent(crystal.b_scalar(ctx, lam, i, h), 0)
                            }
                            got = crystal.bc_positions(p, down, up, i, j)
                            assert got == (c_want, b_want), (parities, p, lam, i, j)


def _cancel_oracle(word):
    """(minus, plus) of a +/-/0 word: drop the zeros, then adjacent -+ pairs."""
    rest = [(q, e) for q, e in enumerate(word) if e != "0"]
    dropped = True
    while dropped:
        dropped = False
        for t in range(len(rest) - 1):
            if rest[t][1] == "-" and rest[t + 1][1] == "+":
                del rest[t : t + 2]
                dropped = True
                break
    return [q for q, e in rest if e == "-"], [q for q, e in rest if e == "+"]


def test_reduced_positions_match_the_cancellation_oracle():
    # at residue r, + is up = r and - is down = r; other values are off r
    for k in range(8):
        for word in itertools.product("+-0", repeat=k):
            minus, plus = _cancel_oracle(word)
            for p, r, off in ((0, 0, 1), (3, 2, 4), (5, 1, 13)):
                down = [r + p * q if e == "-" else off for q, e in enumerate(word)]
                up = [r - p * q if e == "+" else off for q, e in enumerate(word)]
                got = crystal.reduced_positions(p, down, up, r)
                assert got == (minus, plus), (word, p)
            assert all(a < b for a in plus for b in minus), word
            assert minus == sorted(minus) and plus == sorted(plus)


def test_classify_index_marks_where_the_star_operators_act():
    # good is the one position e* lowers, cogood the one f* raises
    for rank in range(1, 5):
        for parities in itertools.product((0, 1), repeat=rank):
            m = parities.count(0)
            for p in (0, 2, 3, 5):
                ctx = build_context(m, rank - m, parities, p)
                for lam in iter_window(rank, 1):
                    residues = list(crystal.relevant_residues(ctx, lam))
                    # plus one residue whose signature is all zero
                    vacuous = [r for r in range(p) if r not in residues] if p else []
                    for r in residues + (vacuous[:1] if p else [residues[-1] + 2]):
                        kinds = [
                            crystal.classify_index(ctx, lam, i, r).kind
                            for i in range(1, rank + 1)
                        ]
                        for kind, op in (
                            (crystal.GOOD, crystal.e_star),
                            (crystal.COGOOD, crystal.f_star),
                        ):
                            moved = op(ctx, lam, r) or lam
                            want = [q for q in range(rank) if moved[q] != lam[q]]
                            got = [q for q in range(rank) if kinds[q] == kind]
                            assert got == want, (parities, p, lam, r, kind)


def test_reduced_table_matches_reduced_positions_at_every_residue():
    # one pass gives every class; a class that is not a key is the vacuous pair
    for rank in range(1, 6):
        window = 1 if rank == 5 else 2
        for parities in itertools.product((0, 1), repeat=rank):
            m = parities.count(0)
            for p in (0, 2, 3, 5, 7):
                ctx = build_context(m, rank - m, parities, p)
                for lam in iter_window(rank, window):
                    down, up = residue_vectors(ctx, lam)
                    table = crystal.reduced_table(p, down, up)
                    keys = crystal.signature_residues(p, down, up)
                    assert sorted(table) == list(keys), (parities, p, lam)
                    for r in residue_classes(p, keys):
                        minus, plus = table.get(r, crystal.VACUOUS)
                        want = crystal.reduced_positions(p, down, up, r)
                        assert (list(minus), list(plus)) == want, (parities, p, lam, r)
                        assert crystal.read_moves(lam, minus, plus) == crystal.star_moves(
                            p, lam, down, up, r
                        ), (parities, p, lam, r)


def test_the_weight_builders_match_weight_arithmetic():
    # read_moves and odd_weight build lam +- eps_q on a list copy of lam;
    # check them against the tuple arithmetic of weights, not against a
    # route that reads through them
    for rank in range(1, 5):
        for parities in itertools.product((0, 1), repeat=rank):
            m = parities.count(0)
            for p in (0, 3):
                ctx = build_context(m, rank - m, parities, p)
                adjacents = [i for i in range(1, rank) if parities[i - 1] != parities[i]]
                for lam in iter_window(rank, 2):
                    down, up = residue_vectors(ctx, lam)
                    for minus, plus in crystal.reduced_table(p, down, up).values():
                        e_w = weight_sub(lam, eps(ctx, minus[0] + 1)) if minus else None
                        f_w = weight_add(lam, eps(ctx, plus[-1] + 1)) if plus else None
                        got = crystal.read_moves(lam, minus, plus)
                        assert got == (e_w, f_w, (len(minus), len(plus))), (parities, p, lam)
                        assert all(type(w) is tuple for w in got[:2] if w is not None)
                    for i in adjacents:
                        root = weight_sub(eps(ctx, i), eps(ctx, i + 1))
                        swapped = list(lam)
                        swapped[i - 1], swapped[i] = lam[i], lam[i - 1]
                        want = tuple(swapped)
                        if not ctx.congruent(form_pair(ctx, lam, root), 0):
                            want = weight_add(want, root)
                        got = crystal.odd_weight(p, ctx.signs, lam, i)
                        assert type(got) is tuple and got == want, (parities, p, lam, i)


def test_matching_flags_match_the_per_position_routes():
    # one pass gives matching_normal and matching_good at every position
    for rank in range(1, 6):
        window = 1 if rank == 5 else 2
        for parities in itertools.product((0, 1), repeat=rank):
            m = parities.count(0)
            for p in (0, 2, 3, 5, 7):
                ctx = build_context(m, rank - m, parities, p)
                for lam in iter_window(rank, window):
                    down, up = residue_vectors(ctx, lam)
                    positions = range(1, rank + 1)
                    normal = [crystal.matching_normal(p, down, up, i) for i in positions]
                    good = [crystal.matching_good(p, down, normal, i) for i in positions]
                    assert crystal.matching_flags(p, down, up) == (normal, good), (
                        parities, p, lam
                    )
