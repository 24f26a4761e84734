"""Tests for the symbolic enveloping-algebra engine."""

import hashlib
import itertools
from fractions import Fraction

import pytest
from test_linkage import exponential_z

from supercrystals import pbw, sweeps
from supercrystals.crystal import b_scalar
from supercrystals.linkage import z_scalar
from supercrystals.pbw import SuperElt
from supercrystals.weights import build_context, iter_window


def ctx_of(parities, p=0):
    m = parities.count(0)
    return build_context(m, len(parities) - m, parities, p)


def test_multiply_mixed_parity_pair():
    # e_{1,2} e_{2,1} = -e_{2,1} e_{1,2} + e_{1,1} + e_{2,2} for parities (1,0)
    ctx = ctx_of((1, 0))
    e = SuperElt.gen(ctx, 1, 2)
    f = SuperElt.gen(ctx, 2, 1)
    h = SuperElt.gen(ctx, 1, 1) + SuperElt.gen(ctx, 2, 2)
    assert e * f == -(f * e) + h


def test_multiply_even_pair():
    # both even: ordinary [e, f] = h
    ctx = ctx_of((0, 0))
    e = SuperElt.gen(ctx, 1, 2)
    f = SuperElt.gen(ctx, 2, 1)
    assert e * f - f * e == SuperElt.gen(ctx, 1, 1) - SuperElt.gen(ctx, 2, 2)


def test_odd_generator_squares_to_zero():
    ctx = ctx_of((1, 0))
    e = SuperElt.gen(ctx, 1, 2)
    assert (e * e).is_zero()


def test_bracket_defining_relation():
    ctx = ctx_of((1, 0, 1), 0)
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                for l in range(1, 4):
                    x = SuperElt.gen(ctx, i, j)
                    y = SuperElt.gen(ctx, k, l)
                    sign = (-1) ** (
                        (ctx.parity(i) + ctx.parity(j))
                        * (ctx.parity(k) + ctx.parity(l))
                    )
                    expect = SuperElt.zero(ctx)
                    if j == k:
                        expect = expect + SuperElt.gen(ctx, i, l)
                    if l == i:
                        expect = expect - SuperElt.gen(ctx, k, j).scale(sign)
                    assert x.bracket(y) == expect, (i, j, k, l)


def test_parity_is_kept_and_bracket_rejects_an_inhomogeneous_operand(monkeypatch):
    ctx = ctx_of((1, 0))
    e, h = SuperElt.gen(ctx, 1, 2), SuperElt.gen(ctx, 1, 1)
    mixed = e + h
    elements = (e, h, mixed, SuperElt.const(ctx, 3), SuperElt.zero(ctx))
    want = [1, 0, None, 0, 0]
    assert [x.parity() for x in elements] == want
    assert e.bracket(h) == e.scale(-1)

    def recount(parities):
        raise AssertionError("parity recomputed")

    # a second call reads the kept parity and never counts odd factors again
    monkeypatch.setattr(pbw, "_odd_gens", recount)
    assert [x.parity() for x in elements] == want
    for a, b in ((mixed, e), (e, mixed)):
        with pytest.raises(ValueError, match="super bracket requires homogeneous arguments"):
            a.bracket(b)


def test_super_jacobi_spot_checks():
    ctx = ctx_of((1, 0, 0), 0)
    gens = [SuperElt.gen(ctx, i, j) for i in range(1, 4) for j in range(1, 4)]
    parities = [
        (ctx.parity(i) + ctx.parity(j)) % 2
        for i in range(1, 4)
        for j in range(1, 4)
    ]
    for a in range(0, 9, 2):
        for b in range(1, 9, 3):
            for c in range(0, 9, 4):
                x, y, z = gens[a], gens[b], gens[c]
                lhs = x.bracket(y.bracket(z))
                rhs = x.bracket(y).bracket(z) + y.bracket(x.bracket(z)).scale(
                    (-1) ** (parities[a] * parities[b])
                )
                assert lhs == rhs, (a, b, c)


def test_dump_format():
    ctx = ctx_of((1, 1, 0), 0)
    assert pbw.s_element(ctx, 1, 3, frozenset()).dump() == "1 * F[3,1]"
    h = SuperElt.gen(ctx, 1, 1)
    assert (h * h).dump() == "1 * H[1]^2"
    assert SuperElt.zero(ctx).dump() == "0"
    assert SuperElt.const(ctx, 3).dump() == "3 * 1"


def test_murphy_elements_commute():
    ctx = ctx_of((1, 0, 1), 0)
    ls = [pbw.murphy_element(ctx, j) for j in range(2, 4)]
    for a in ls:
        for b in ls:
            assert a.bracket(b).is_zero()


def test_tech_lemma():
    for parities in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)):
        assert pbw.tech_lemma_check(ctx_of(parities), 1, 2, 3), parities


def test_recurrence():
    ctx = ctx_of((1, 0, 1), 0)
    assert pbw.recurrence_check(ctx, 1, 3, {2}, 2)
    with pytest.raises(ValueError):
        pbw.recurrence_check(ctx, 1, 3, {2}, 1)


def test_commutator_lemma_cases():
    ctx = ctx_of((1, 0, 1), 0)
    assert pbw.classify_commutator_case(1, 3, frozenset({2}), 1) == "i(a)"
    assert pbw.classify_commutator_case(1, 3, frozenset(), 2) == "iii"
    assert pbw.classify_commutator_case(1, 3, frozenset({2}), 2) == "iv"
    assert pbw.classify_commutator_case(1, 2, frozenset(), 1) is None
    assert pbw.commutator_lemma_check(ctx, 1, 3, {2}, 1) is True
    assert pbw.commutator_lemma_check(ctx, 1, 3, set(), 2) is True
    assert pbw.commutator_lemma_check(ctx, 1, 3, {2}, 2) is True
    assert pbw.commutator_lemma_check(ctx, 1, 2, set(), 1) is None


def test_the_h_term_of_recurrence_and_case_iv_at_rank_4():
    # A = {3} at (1, 4): the largest h < 3 outside A is 2, not i, so the
    # recurrence adds S_{1,4}({2}) and case iv adds S_{1,3}({2}); at rank 3
    # h is always i, and only the acceptance gate reaches these terms
    assert pbw.classify_commutator_case(1, 4, frozenset({3}), 3) == "iv"
    for parities in itertools.product((0, 1), repeat=4):
        ctx = ctx_of(parities)
        assert pbw.recurrence_check(ctx, 1, 4, {3}, 3), parities
        assert pbw.commutator_lemma_check(ctx, 1, 4, {3}, 3) is True, parities


def test_lowering_order_independence():
    # S normal-ordered in alt comes back in the default basis, equal to S
    ctx = ctx_of((1, 0, 1), 0)
    for a_set in (frozenset(), frozenset({2})):
        assert pbw.s_element(ctx, 1, 3, a_set, "alt") == pbw.s_element(ctx, 1, 3, a_set)


def test_central_elements_commute_with_generators():
    ctx = ctx_of((1, 0), 0)
    for r in (1, 2):
        zt = pbw.z_tilde_element(ctx, r)
        for i in range(1, 3):
            for j in range(1, 3):
                assert SuperElt.gen(ctx, i, j).bracket(zt).is_zero(), (r, i, j)


def test_z_element_verma_scalar_matches_combinatorial_formula():
    for parities in ((1, 0), (0, 1), (0, 0), (1, 1)):
        ctx = ctx_of(parities)
        for r in (1, 2):
            z = pbw.z_element(ctx, r).reduce_mod_J()
            for lam in iter_window(2, 2):
                want = exponential_z(ctx, lam, r)
                assert pbw.verma_scalar(z, lam) == want, (parities, r, lam)
                assert z_scalar(ctx, lam, r) == want, (parities, r, lam)


def test_verma_base_case():
    # E_{i,i+1} F_{i,i+1} . v = sign_i * b_{i,i}(lam) v
    for parities in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        ctx = ctx_of(parities)
        for lam in ((0, 0, 0), (2, -1, 3)):
            for i in (1, 2):
                elt = SuperElt.gen(ctx, i, i + 1) * SuperElt.gen(ctx, i + 1, i)
                got = pbw.verma_scalar(elt.reduce_mod_J(), lam)
                assert got == ctx.sign(i) * b_scalar(ctx, lam, i, i), (
                    parities,
                    lam,
                    i,
                )


def test_lowering_scalar_check_adjacent():
    # E_1 F_21 . v = (-1)^{p_1} b_{1,1}(lam) v; away from p = 2 the two signs differ
    for parities in ((0, 1), (1, 0)):
        for p in (0, 2, 3, 5):
            ctx = ctx_of(parities, p)
            for lam in iter_window(2, 2):
                scalar = pbw.lowering_scalar_check(ctx, 1, 2, set(), set(), lam)
                assert scalar == ctx.reduce(ctx.sign(1) * b_scalar(ctx, lam, 1, 1)), (
                    parities, p, lam)


def test_lowering_scalar_check_rejects_bad_preconditions():
    ctx = build_context(1, 1, (0, 1), 2)
    with pytest.raises(ValueError):
        pbw.lowering_scalar_check(ctx, 1, 2, {1}, set(), (0, 0))


def test_lowering_cache_shares_one_element_across_characteristics(monkeypatch):
    # a lowering operator, plain or raised, is defined over Z: every p reads
    # the one element of its parity sequence, and parities stay apart
    monkeypatch.setattr(pbw, "_LOWERING_CACHE", {})
    monkeypatch.setattr(pbw, "_RAISED_CACHE", {})
    for build in (pbw.s_element, pbw.raised_s_element):
        at_0 = build(ctx_of((1, 0), 0), 1, 2, frozenset())
        assert build(ctx_of((1, 0), 3), 1, 2, frozenset()) is at_0
        assert at_0.parities == (1, 0)
        assert build(ctx_of((0, 1), 3), 1, 2, frozenset()).parities == (0, 1)
    assert len(pbw._LOWERING_CACHE) == len(pbw._RAISED_CACHE) == 2


def _subsets(items):
    items = list(items)
    return [
        frozenset(c) for k in range(len(items) + 1) for c in itertools.combinations(items, k)
    ]


def _all_parities(ranks):
    return [par for rank in ranks for par in itertools.product((0, 1), repeat=rank)]


def test_coefficients_are_plain_ints():
    # every structure constant is +-1 and theta is integral, so no Fraction
    # is ever built on the lowering and central paths
    for parities in _all_parities((2, 3, 4)):
        ctx = ctx_of(parities)
        elts = [pbw.z_element(ctx, r).reduce_mod_J() for r in (1, 2)]
        for i in range(1, ctx.rank):
            for j in range(i + 1, ctx.rank + 1):
                for a_set in _subsets(range(i + 1, j)):
                    elts += [
                        pbw.s_element(ctx, i, j, a_set),
                        pbw.raised_s_element(ctx, i, j, a_set),
                    ]
        for elt in elts:
            assert all(type(c) is int for c in elt.terms.values()), (parities, elt.dump())


def test_verma_scalar_is_an_int():
    ctx = ctx_of((1, 0, 1))
    z = pbw.z_element(ctx, 2).reduce_mod_J()
    elt = (SuperElt.gen(ctx, 1, 2) * SuperElt.gen(ctx, 2, 1)).reduce_mod_J()
    for lam in iter_window(3, 1):
        assert type(pbw.verma_scalar(z, lam)) is int
        assert type(pbw.verma_scalar(elt, lam)) is int
    assert type(pbw.verma_scalar(SuperElt.zero(ctx), (0, 0, 0))) is int


def test_non_integer_scaling_stays_exact():
    ctx = ctx_of((1, 0))
    h = SuperElt.gen(ctx, 1, 1)
    half = h.scale(Fraction(1, 2))
    assert half.terms == {(((1, 1), 1),): Fraction(1, 2)}
    assert (half + half) == h
    assert (half * half).dump() == "1/4 * H[1]^2"
    assert half.scale(2) == h
    assert SuperElt.const(ctx, Fraction(2, 3)).dump() == "2/3 * 1"
    assert pbw.verma_scalar(half, (3, 5)) == Fraction(3, 2)


def test_z_element_shift_is_the_parity_combination_sum():
    # Z_r - Z-tilde_r = -(-1)^r sum over (r+1)-subsets of (-1)^(parity sum)
    for parities in _all_parities((2, 3, 4, 5)):
        ctx = ctx_of(parities)
        for r in range(1, 5):
            shift = sum(
                (-1) ** sum(ctx.parity(k) for k in combo)
                for combo in itertools.combinations(range(1, ctx.rank + 1), r + 1)
            )
            z = pbw.z_element(ctx, r)
            want = -((-1) ** r) * shift
            assert z - pbw.z_tilde_element(ctx, r) == SuperElt.const(ctx, want)
            assert z.terms.get((), 0) == want, (parities, r)


def _nonzero(terms):
    return all(c != 0 for c in terms.values())


def test_zero_coefficients_are_dropped_everywhere():
    # SuperElt.__init__ keeps the dict it is given, so a sum, a product and
    # scale(0) drop their zeros; every operation below can cancel a term and
    # must still leave none behind
    for parities in ((1, 0), (0, 0), (1, 0, 1), (0, 1, 0)):
        ctx = ctx_of(parities)
        rank = ctx.rank
        gens = [SuperElt.gen(ctx, i, j) for i in range(1, rank + 1) for j in range(1, rank + 1)]
        for x in gens:
            for y in gens:
                xy = x * y
                built = [
                    xy,
                    xy - xy,
                    xy + (-xy),
                    xy.scale(0),
                    x.bracket(y),
                    xy.reduce_mod_J(),
                    xy * y,
                ]
                for elt in built:
                    assert _nonzero(elt.terms), (parities, x.dump(), y.dump(), elt.terms)
                assert (xy - xy).terms == {}
        # normal-ordered in alt, then changed into the default basis
        for i, j in itertools.combinations_with_replacement(range(1, rank + 1), 2):
            for a_set in _subsets(range(i + 1, j)):
                s_alt = pbw.s_element(ctx, i, j, a_set, "alt")
                assert _nonzero(s_alt.terms), (parities, i, j, a_set, s_alt.terms)
    ctx = ctx_of((1, 0))
    h1, h2 = SuperElt.gen(ctx, 1, 1), SuperElt.gen(ctx, 2, 2)
    assert h1.bracket(h2).terms == {}
    e = SuperElt.gen(ctx, 1, 2)
    assert (e * e).terms == {}  # an odd generator squares to zero


def test_normalize_word_and_verma_scalar_return_no_zeros():
    # e_{1,2} e_{1,2} e_{2,1} cancels while it is normal-ordered: e_{1,2} is odd
    assert pbw.normalize_word((1, 0), "default", ((1, 2), (1, 2), (2, 1))) == {}
    for parities in ((1, 0), (0, 1, 0), (1, 0, 1)):
        rank = len(parities)
        gens = [(i, j) for i in range(1, rank + 1) for j in range(1, rank + 1)]
        for word in itertools.product(gens, repeat=3):
            assert _nonzero(pbw.normalize_word(parities, "default", word)), word
    # F[2,1] (H[1] - H[2]) + H[1] - H[2]: the F-part cancels where lam_1 = lam_2
    ctx = ctx_of((1, 0))
    f = SuperElt.gen(ctx, 2, 1)
    h = SuperElt.gen(ctx, 1, 1) - SuperElt.gen(ctx, 2, 2)
    u = f * h + h
    assert pbw.verma_scalar(u, (1, 1)) == 0
    assert type(pbw.verma_scalar(h.scale(Fraction(1, 2)), (1, 1))) is int
    with pytest.raises(ArithmeticError):
        pbw.verma_scalar(u, (2, 1))


def test_normalize_word_returns_a_fresh_dict_and_keeps_no_cache():
    word = ((1, 2), (2, 1))
    first = pbw.normalize_word((1, 0), "default", word)
    want = dict(first)
    assert want
    first.clear()
    assert pbw.normalize_word((1, 0), "default", word) == want
    assert pbw._NORMALIZE_CACHE == {}


def test_normalize_word_output_is_pinned_on_short_words():
    # every word of length <= 3, ranks 2-3, every parity sequence, two orders
    digest = hashlib.sha256()
    for parities in _all_parities((2, 3)):
        rank = len(parities)
        gens = [(i, j) for i in range(1, rank + 1) for j in range(1, rank + 1)]
        for kind, length in itertools.product(("default", "alt"), range(4)):
            for word in itertools.product(gens, repeat=length):
                out = sorted(pbw.normalize_word(parities, kind, word).items())
                digest.update(repr((parities, kind, word, out)).encode())
    assert digest.hexdigest()[:16] == "4fe6b15a1fe4f91e"


def test_verma_scalar_names_the_first_three_off_line_components():
    ctx = ctx_of((0, 1, 0))
    f21, f31, f32 = (SuperElt.gen(ctx, j, i) for i, j in ((1, 2), (1, 3), (2, 3)))
    e12 = SuperElt.gen(ctx, 1, 2)
    u = f32 + f21 * f31 + f31.scale(2) + f21 + SuperElt.const(ctx, 5) + f21 * e12
    with pytest.raises(ArithmeticError) as exc:
        pbw.verma_scalar(u, (0, 0, 0))
    assert str(exc.value) == (
        "image leaves the highest-weight line: "
        "[(((3, 2), 1),), (((2, 1), 1), ((3, 1), 1)), (((3, 1), 1),)]"
    )
    assert pbw.verma_scalar(SuperElt.const(ctx, 5) + f21 * e12, (0, 0, 0)) == 5


def test_verma_scalar_rejects_a_weight_of_the_wrong_length():
    # a longer weight must not be read as its prefix, nor a shorter one fail by index
    ctx = ctx_of((1, 0))
    z = pbw.z_element(ctx, 1).reduce_mod_J()
    assert pbw.verma_scalar(z, (2, 3)) == z_scalar(ctx, (2, 3), 1)
    for lam in ((2, 3, 99), (2,)):
        with pytest.raises(ValueError, match="has length"):
            pbw.verma_scalar(z, lam)


def test_lowering_scalar_check_reports_the_failed_precondition():
    # parities (0,0,0), p=0: theta = (2,1,0), so c_{1,2} = lam_1 - lam_2 + 1
    # and b_{1,2} = lam_1 - lam_3 + 1
    ctx = ctx_of((0, 0, 0))
    with pytest.raises(ValueError) as exc:
        pbw.lowering_scalar_check(ctx, 1, 3, set(), set(), (0, 0, 0))
    assert str(exc.value) == "c_{1,2}(lam) not 0 mod p"
    with pytest.raises(ValueError) as exc:
        pbw.lowering_scalar_check(ctx, 1, 3, set(), set(), (0, 1, 0))
    assert str(exc.value) == "b_{1,2}(lam) not 0 mod p"
    # both preconditions hold at (0, 1, 1): the check runs and passes
    assert pbw.lowering_scalar_check(ctx, 1, 3, set(), set(), (0, 1, 1)) is not None


def test_lowering_scalar_check_rejects_positions_outside_1_le_i_lt_j_le_rank():
    ctx = ctx_of((1, 0, 1, 0))
    for i, j in ((2, 2), (4, 4), (1, 5)):
        with pytest.raises(IndexError) as exc:
            pbw.lowering_scalar_check(ctx, i, j, set(), set(), (1, 2, 0, 3))
        assert str(exc.value) == f"need 1 <= i < j <= 4, got ({i}, {j})"


def test_s_element_rejects_positions_outside_the_context():
    ctx = ctx_of((1, 0))
    for i in (1, 2):
        assert pbw.s_element(ctx, i, i, frozenset()) == SuperElt.const(ctx, 1)
    for i, j in ((0, 0), (3, 3), (9, 9), (2, 1), (0, 2)):
        with pytest.raises(IndexError) as exc:
            pbw.s_element(ctx, i, j, frozenset())
        assert str(exc.value) == f"need 1 <= i <= j <= 2, got ({i}, {j})"
    with pytest.raises(IndexError, match=r"A = \[1\] not inside \(1..1\)"):
        pbw.s_element(ctx, 1, 1, {1})
    # A holds the open interval: neither end i nor end j is inside it
    for t in (1, 3):
        with pytest.raises(IndexError) as exc:
            pbw.s_element(ctx_of((1, 0, 0)), 1, 3, {t})
        assert str(exc.value) == f"A = [{t}] not inside (1..3)"


def test_named_elements_reject_positions_outside_the_context():
    ctx = ctx_of((1, 0))
    for build, args, position in (
        (pbw.x_element, (5, 1, 2), "generator (5,1)"),
        (pbw.x_element, (0, 1, 2), "generator (0,1)"),
        (pbw.x_element, (1, 3, 1), "generator (1,3)"),
        (pbw.murphy_element, (0,), "position 0"),
        (pbw.murphy_element, (3,), "position 3"),
        (pbw.c_element, (1, 3), "position 3"),
        (pbw.c_element, (0, 1), "position 0"),
        (pbw.c_tilde_element, (3, 1), "position 3"),
        (pbw.b_element, (1, 2), "position 3"),
        (pbw.b_element, (1, 0), "position 0"),
        (pbw._lowering_factor, (1, 3), "position 3"),
    ):
        with pytest.raises(IndexError) as exc:
            build(ctx, *args)
        assert str(exc.value) == f"{position} out of range for rank 2", (build, args)


def test_named_elements_have_the_same_terms_in_both_orders():
    # s_element builds its factors in the default order and multiplies them
    # on the left as they are in alt, so every monomial of a named element
    # must already be in alt order
    for parities in _all_parities((2, 3, 4)):
        ctx = ctx_of(parities)
        positions = range(1, ctx.rank + 1)
        pairs = list(itertools.product(positions, repeat=2))
        elts = [SuperElt.gen(ctx, i, j) for i, j in pairs]
        elts += [pbw.murphy_element(ctx, j) for j in positions]
        for build in (pbw.c_element, pbw.c_tilde_element, pbw._lowering_factor):
            elts += [build(ctx, i, j) for i, j in pairs]
        elts += [pbw.b_element(ctx, i, k) for i in positions for k in range(1, ctx.rank)]
        for x in elts:
            for mono in x.terms:
                assert pbw.normalize_word(parities, "alt", pbw._expand(mono)) == {mono: 1}, x.dump()


def test_no_element_of_the_pbw_suites_is_built_with_a_zero(monkeypatch):
    # SuperElt.__init__ keeps the dict it is given: no construction of the
    # two suites that build elements may hand it a zero coefficient, nor a
    # monomial outside the default basis, S normal-ordered in alt included
    real = SuperElt.__init__
    built = []

    def checked(self, parities, terms):
        assert 0 not in terms.values(), terms
        place = pbw._places("default", len(parities))
        for mono in terms:
            places = [place[g] for g, _ in mono]
            assert places == sorted(set(places)), mono
        built.append(1)
        real(self, parities, terms)

    monkeypatch.setattr(SuperElt, "__init__", checked)
    monkeypatch.setattr(pbw, "_LOWERING_CACHE", {})
    monkeypatch.setattr(pbw, "_RAISED_CACHE", {})
    for suite in ("pbw-identities", "verma-scalars"):
        reports = sweeps.run_suite(suite, max_rank=3, coeff_window=1, processes=1)
        assert all(rep.passed for rep in reports), suite
    assert built


def test_recurrence_check_validates_A_before_reading_it():
    with pytest.raises(IndexError) as exc:
        pbw.recurrence_check(ctx_of((1, 0, 1)), 2, 3, {1}, 1)
    assert str(exc.value) == "A = [1] not inside (2..3)"


def test_x_column_builds_each_level_once(monkeypatch):
    ctx = ctx_of((1, 0, 1))
    for r in (1, 2, 3, 4):
        want = [pbw.x_element(ctx, k, 2, r) for k in (1, 2, 3)]
        assert pbw.x_column(ctx, 2, r) == want
    calls = []
    real = pbw._accumulate
    monkeypatch.setattr(pbw, "_accumulate", lambda *args: calls.append(1) or real(*args))
    # a row sum adds one product per entry of the column, so
    # a column level costs rank^2 products; Z~_r builds each diagonal entry
    # from its column one level down, rank products per entry on top
    for r, column_muls, z_muls in ((1, 0, 0), (2, 9, 9), (3, 18, 36), (4, 27, 63)):
        calls.clear()
        pbw.x_column(ctx, 2, r)
        assert len(calls) == column_muls
        calls.clear()
        pbw.z_tilde_element(ctx, r)
        assert len(calls) == z_muls


def test_lowering_scalar_check_raises_each_element_once(monkeypatch):
    # E_i ... E_{j-1} S_{i,j}(A) depends on (context, i, j, A), not on lam.
    # Parities (0,0,0), p=0: c_{1,2} = lam_1 - lam_2 + 1 and
    # b_{1,2} = lam_1 - lam_3 + 1 vanish at both weights.
    ctx = ctx_of((0, 0, 0))
    monkeypatch.setattr(pbw, "_RAISED_CACHE", {})
    s = pbw.s_element(ctx, 1, 3, frozenset())
    calls = []
    real = SuperElt.__mul__
    monkeypatch.setattr(SuperElt, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    # the first call makes the j - i = 2 products E_2 S and E_1 (E_2 S)
    results = []
    for lam, products in (((0, 1, 1), 2), ((1, 2, 2), 0)):
        calls.clear()
        results.append(pbw.lowering_scalar_check(ctx, 1, 3, set(), set(), lam))
        assert len(calls) == products, lam
    monkeypatch.undo()
    # the cached element is the full product, reduced mod J
    raised = SuperElt.gen(ctx, 1, 2) * (SuperElt.gen(ctx, 2, 3) * s)
    assert pbw.raised_s_element(ctx, 1, 3, frozenset()) == raised.reduce_mod_J()
    for scalar, lam in zip(results, ((0, 1, 1), (1, 2, 2))):
        assert scalar == pbw.verma_scalar(raised, lam)


def test_products_are_pinned_with_their_term_order():
    # x, x * y and [x, y] over the generators, the Murphy elements and every
    # S_{i,j}(A) normal-ordered in either order, at ranks 2-3, every parity
    # sequence; the digest covers the terms in their insertion order, which
    # verma_scalar's error text reads; the x columns pin the row sums
    digest = hashlib.sha256()
    for parities in _all_parities((2, 3)):
        ctx = ctx_of(parities)
        positions = range(1, ctx.rank + 1)
        for l, r in itertools.product(positions, (2, 3)):
            for elt in pbw.x_column(ctx, l, r):
                digest.update(repr((parities, l, r, list(elt.terms.items()))).encode())
        lowering = [
            (i, j, a_set)
            for i in positions
            for j in range(i, ctx.rank + 1)
            for a_set in _subsets(range(i + 1, j))
        ]
        elts = [SuperElt.gen(ctx, i, j) for i in positions for j in positions]
        elts += [pbw.murphy_element(ctx, j) for j in positions]
        elts += [pbw.s_element(ctx, *args) for args in lowering]
        elts += [pbw.s_element(ctx, *args, "alt") for args in lowering]
        for a, x in enumerate(elts):
            digest.update(repr((parities, a, list(x.terms.items()))).encode())
            for b, y in enumerate(elts):
                out = [list((x * y).terms.items()), list(x.bracket(y).terms.items())]
                digest.update(repr((parities, a, b, out)).encode())
    assert digest.hexdigest()[:16] == "fd5a87c816e824db"


def test_rank_4_products_are_pinned_with_their_term_order():
    # x * y and [x, y] over the generators and the Murphy elements of every
    # rank-4 parity sequence, where the C7 bracket table spends most of its
    # time; the terms in their insertion order
    digest = hashlib.sha256()
    for parities in _all_parities((4,)):
        ctx = ctx_of(parities)
        positions = range(1, ctx.rank + 1)
        elts = [SuperElt.gen(ctx, i, j) for i in positions for j in positions]
        elts += [pbw.murphy_element(ctx, j) for j in positions]
        for a, x in enumerate(elts):
            for b, y in enumerate(elts):
                out = [list((x * y).terms.items()), list(x.bracket(y).terms.items())]
                digest.update(repr((parities, a, b, out)).encode())
    assert digest.hexdigest()[:16] == "0505fccdcf4476af"


def test_the_ordered_prefix_hint_never_changes_normalize_word():
    # every word of length <= 4 at ranks 2-3, two orders, each hint whose
    # prefix is in order: the same terms in the same insertion order
    for parities in ((1, 0), (0, 0), (1, 0, 1), (0, 1, 0)):
        rank = len(parities)
        gens = [(i, j) for i in range(1, rank + 1) for j in range(1, rank + 1)]
        for kind in ("default", "alt"):
            place = pbw._places(kind, rank)
            for word in itertools.chain.from_iterable(
                itertools.product(gens, repeat=n) for n in range(5)
            ):
                want = list(pbw.normalize_word(parities, kind, word).items())
                for k in range(2, len(word) + 1):  # a hint of 0 or 1 scans from 0
                    if place[word[k - 2]] > place[word[k - 1]]:
                        break
                    got = {}
                    pbw._normal_form(got, parities, place, pbw._odd_gens(parities), word, k, 1)
                    assert list(got.items()) == want, (parities, kind, word, k)


def test_normal_form_adds_coeff_times_normalize_word_into_out():
    # every word of length <= 3 at ranks 2-3, two orders, each in-order hint,
    # coeff 1 and -2, into an out that already holds a sentinel and, first,
    # the last key of the word's normal form: out gains coeff times
    # normalize_word term by term, present keys keep their place and new
    # keys follow in normalize_word order; no zero of a word reaches out
    sentinel = (((1, 1), 5),)
    for parities in _all_parities((2, 3)):
        rank = len(parities)
        gens = [(i, j) for i in range(1, rank + 1) for j in range(1, rank + 1)]
        odd = pbw._odd_gens(parities)
        for kind in ("default", "alt"):
            place = pbw._places(kind, rank)
            for word in itertools.chain.from_iterable(
                itertools.product(gens, repeat=n) for n in range(4)
            ):
                terms = pbw.normalize_word(parities, kind, word)
                before = {mono: 1 for mono in list(terms)[-1:]}
                before[sentinel] = 3
                hints = [0, 1]
                for k in range(2, len(word) + 1):
                    if place[word[k - 2]] > place[word[k - 1]]:
                        break
                    hints.append(k)
                for k, coeff in itertools.product(hints, (1, -2)):
                    want = dict(before)
                    for mono, c in terms.items():
                        want[mono] = want.get(mono, 0) + coeff * c
                    out = dict(before)
                    pbw._normal_form(out, parities, place, odd, word, k, coeff)
                    assert list(out.items()) == list(want.items()), (parities, kind, word, k)
    # e_{1,2} e_{1,2} e_{2,1} cancels inside its own normal form: out is untouched
    parities = (1, 0)
    out = {sentinel: 3}
    for coeff in (1, -2):
        pbw._normal_form(
            out, parities, pbw._places("default", 2), pbw._odd_gens(parities),
            ((1, 2), (1, 2), (2, 1)), 2, coeff,
        )
        assert list(out.items()) == [(sentinel, 3)]


def test_a_warm_s_element_returns_its_cached_element_in_either_order(monkeypatch):
    ctx = ctx_of((1, 0, 1))
    monkeypatch.setattr(pbw, "_LOWERING_CACHE", {})
    for kind in ("default", "alt"):
        elt = pbw.s_element(ctx, 1, 3, {2}, kind)
        assert pbw.s_element(ctx, 1, 3, {2}, kind) is elt, kind


def test_the_place_table_and_odd_set_follow_their_definitions():
    # both orders written out at rank 3: F block, H's, E block, with the F
    # and E blocks reversed in alt
    literal = {
        "default": [(2, 1), (3, 1), (3, 2), (1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3)],
        "alt": [(3, 2), (3, 1), (2, 1), (1, 1), (2, 2), (3, 3), (2, 3), (1, 3), (1, 2)],
    }
    for kind, gens in literal.items():
        assert pbw._places(kind, 3) == {g: place for place, g in enumerate(gens)}, kind

    # at every rank: blocks F, H, E, each lexicographic in (i, j), F and E
    # reversed in alt
    def key(sign, gen):
        i, j = gen
        return (1, i) if i == j else (0 if i > j else 2, sign * i, sign * j)

    for rank in (2, 3, 4, 5):
        gens = [(i, j) for i in range(1, rank + 1) for j in range(1, rank + 1)]
        for kind, sign in (("default", 1), ("alt", -1)):
            place = pbw._places(kind, rank)
            assert sorted(place.values()) == list(range(rank * rank))
            want = sorted(gens, key=lambda g: key(sign, g))
            assert sorted(place, key=place.get) == want, (kind, rank)
        for parities in itertools.product((0, 1), repeat=rank):
            odd = pbw._odd_gens(parities)
            assert odd == {g for g in gens if pbw.gen_parity(parities, g)}, parities


def test_e_l_times_s_element_has_one_e_factor_and_it_is_e_l():
    # every S_{i,j}(A), i < j, and every E_l at ranks 2-4, every parity
    # sequence: each monomial of E_l S_{i,j}(A) holds at most one E factor,
    # and it is E_l, so reduction mod J_l in the default order is exact
    cases = 0
    for parities in _all_parities((2, 3, 4)):
        ctx = ctx_of(parities)
        for i, j in itertools.combinations(range(1, ctx.rank + 1), 2):
            for a_set in _subsets(range(i + 1, j)):
                for l in range(1, ctx.rank):
                    prod = SuperElt.gen(ctx, l, l + 1) * pbw.s_element(ctx, i, j, a_set)
                    for mono in prod.terms:
                        e_part = [(g, e) for g, e in mono if g[0] < g[1]]
                        assert e_part in ([], [((l, l + 1), 1)]), (parities, i, j, a_set, l)
                    cases += 1
    assert cases == 596


def test_reduce_mod_Jl_rejects_a_monomial_with_two_e_factors():
    ctx = ctx_of((0, 1, 0))
    two_e = SuperElt.gen(ctx, 1, 2) * SuperElt.gen(ctx, 2, 3)
    assert list(two_e.terms) == [(((1, 2), 1), ((2, 3), 1))]
    with pytest.raises(ValueError, match="at most one E factor"):
        two_e.reduce_mod_Jl(1)
    # outside 1 <= l < rank there is no E_l to reduce by
    for l in (0, 3, -1):
        with pytest.raises(IndexError) as exc:
            SuperElt.gen(ctx, 2, 1).reduce_mod_Jl(l)
        assert str(exc.value) == f"l = {l} out of range 1..2"


def test_generator_order_rejects_an_unknown_kind(monkeypatch):
    # s_element checks the kind before its cache can store anything, also
    # where it normal-orders nothing (i = j, and i < j with A empty)
    monkeypatch.setattr(pbw, "_LOWERING_CACHE", {})
    ctx = ctx_of((1, 0, 1))
    for kind in ("e_last", "Default", "bogus", ""):
        for i, j, a_set in ((1, 1, ()), (3, 3, ()), (1, 2, ()), (1, 3, {2})):
            with pytest.raises(ValueError) as exc:
                pbw.s_element(ctx, i, j, a_set, kind)
            assert str(exc.value) == f"unknown generator order kind {kind!r}", (i, j)
        for word in ((), ((1, 2),), ((1, 2), (2, 1))):
            with pytest.raises(ValueError) as exc:
                pbw.normalize_word(ctx.parities, kind, word)
            assert str(exc.value) == f"unknown generator order kind {kind!r}", word
    assert pbw._LOWERING_CACHE == {}


def test_elements_of_different_parities_are_not_equal():
    # e_{1,2} is odd at parities (1,0) and even at (0,0)
    odd, even = ctx_of((1, 0)), ctx_of((0, 0))
    assert SuperElt.gen(odd, 1, 2) != SuperElt.gen(even, 1, 2)
    assert SuperElt.zero(odd) != SuperElt.zero(even)
    assert SuperElt.gen(odd, 1, 2) == SuperElt.gen(odd, 1, 2)
    with pytest.raises(ValueError, match="different contexts"):
        SuperElt.gen(odd, 1, 2) + SuperElt.gen(even, 1, 2)
