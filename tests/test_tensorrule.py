"""Tests for the tensor-product rule and the dual operator oracle."""

import itertools

import pytest
from helpers import PAPER_LAM, paper_ctx, residue_classes

from supercrystals import crystal, tensorrule
from supercrystals.weights import build_context, iter_window, residue_vectors


def test_letters_roundtrip():
    ctx = paper_ctx()
    letters = tensorrule.letters_of(ctx, PAPER_LAM)
    assert tensorrule.weight_of_letters(ctx, letters) == PAPER_LAM
    # a word of the wrong length is rejected both ways, not cut to fit
    ctx = build_context(1, 1, (0, 1), 3)
    for convert in (tensorrule.letters_of, tensorrule.weight_of_letters):
        with pytest.raises(ValueError, match=r"^weight \[5\] has length 1, expected 2$"):
            convert(ctx, [5])


def test_dual_oracle_matches_signature_rule_on_worked_example():
    ctx = paper_ctx()
    for r in crystal.relevant_residues(ctx, PAPER_LAM):
        assert tensorrule.dual_oracle(ctx, PAPER_LAM, r, "e") == crystal.e_star(
            ctx, PAPER_LAM, r
        )
        assert tensorrule.dual_oracle(ctx, PAPER_LAM, r, "f") == crystal.f_star(
            ctx, PAPER_LAM, r
        )
        assert tensorrule.dual_eps_phi(ctx, PAPER_LAM, r) == crystal.eps_phi_star(
            ctx, PAPER_LAM, r
        )


def test_dual_oracle_matches_signature_rule_on_small_window():
    for parities in ((0, 1), (1, 0), (0, 0), (1, 1)):
        for p in (0, 2, 3):
            m = parities.count(0)
            ctx = build_context(m, 2 - m, parities, p)
            for lam in iter_window(2, 2):
                for r in crystal.relevant_residues(ctx, lam):
                    for which in ("e", "f"):
                        op = crystal.e_star if which == "e" else crystal.f_star
                        assert tensorrule.dual_oracle(ctx, lam, r, which) == op(
                            ctx, lam, r
                        ), (parities, p, lam, r, which)
                    assert tensorrule.dual_eps_phi(
                        ctx, lam, r
                    ) == crystal.eps_phi_star(ctx, lam, r)


def test_undefined_moves_agree():
    ctx = paper_ctx()
    # residue 2: no raising on the dual side either
    assert tensorrule.dual_oracle(ctx, PAPER_LAM, 2, "f") is None
    assert tensorrule.dual_oracle(ctx, PAPER_LAM, 0, "e") is None


def test_dual_table_matches_dual_moves_at_every_residue():
    # one pass gives every class; a class that is not a key has no move
    for rank in range(1, 6):
        window = 1 if rank == 5 else 2
        for parities in itertools.product((0, 1), repeat=rank):
            m = parities.count(0)
            for p in (0, 2, 3, 5, 7):
                ctx = build_context(m, rank - m, parities, p)
                for lam in iter_window(rank, window):
                    letters = tensorrule.letters_of(ctx, lam)
                    table = tensorrule.dual_table(p, ctx.signs, lam, letters)
                    # the letters see the classes the signatures see
                    keys = crystal.signature_residues(p, *residue_vectors(ctx, lam))
                    assert sorted(table) == list(keys), (parities, p, lam)
                    for r in residue_classes(p, keys):
                        got = table.get(r, (None, None, (0, 0)))
                        want = tensorrule.dual_moves(p, ctx.signs, lam, letters, r)
                        assert got == want, (parities, p, lam, r)


def _tensor_rule(word):
    """(eps, phi, e_at, f_at) of the letters (eps, phi) of word, folded left.

    Each step applies the two-factor Kashiwara rule to b1 = the prefix and
    b2 = the next letter: e(b1 x b2) = e b1 x b2 iff phi(b1) >= eps(b2), and
    f(b1 x b2) = f b1 x b2 iff phi(b1) > eps(b2), else each acts on b2.
    e_at and f_at index the letter e resp. f acts on, None where it gives 0.
    """
    eps = phi = 0  # the empty product is the trivial crystal
    e_at = f_at = None
    for j, (eps2, phi2) in enumerate(word):
        if phi < eps2:
            e_at = j
        if phi <= eps2:
            f_at = j if phi2 else None
        eps, phi = max(eps, eps2 - (phi - eps)), max(phi2, phi + (phi2 - eps2))
    return eps, phi, e_at, f_at


def test_fold_is_the_two_factor_tensor_rule_folded_left():
    # after the dual twist the counters are (phi, eps), e* lowers lam at the
    # letter f acts on and f* raises it at the letter e acts on; the fold
    # picks both letters in its forward pass, where a tie eps = phi of the
    # prefix sends f to the new letter and leaves e where it was
    assert tensorrule._fold((), []) == (None, None, (0, 0))
    words = 0
    for length in range(1, 11):
        lam = tuple(range(10, 10 + 2 * length))
        for word in itertools.product(((1, 0), (0, 1)), repeat=length):
            eps, phi, e_at, f_at = _tensor_rule(word)
            # letter j sits at position 2j + 1, so the fold must read q
            bucket = [(2 * j + 1, e, f) for j, (e, f) in enumerate(word)]
            e_w = f_w = None
            if f_at is not None:
                q = 2 * f_at + 1
                e_w = lam[:q] + (lam[q] - 1,) + lam[q + 1 :]
            if e_at is not None:
                q = 2 * e_at + 1
                f_w = lam[:q] + (lam[q] + 1,) + lam[q + 1 :]
            assert tensorrule._fold(lam, bucket) == (e_w, f_w, (phi, eps)), word
            words += 1
    assert words == 2046
