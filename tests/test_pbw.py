"""Tests for the symbolic enveloping-algebra engine."""

import hashlib
import itertools
from fractions import Fraction

import pytest
from test_linkage import exponential_z

from supercrystals import pbw
from supercrystals.crystal import b_scalar
from supercrystals.linkage import z_scalar
from supercrystals.pbw import DEFAULT_ORDER, GeneratorOrder, SuperElt
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


def test_lowering_order_independence():
    ctx = ctx_of((1, 0, 1), 0)
    alt = GeneratorOrder(kind="alt")
    for a_set in (frozenset(), frozenset({2})):
        s_alt = pbw.s_element(ctx, 1, 3, a_set, alt)
        assert s_alt.reorder(DEFAULT_ORDER) == pbw.s_element(ctx, 1, 3, a_set)


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
    ctx = build_context(1, 1, (0, 1), 2)
    for lam in iter_window(2, 2):
        scalar, sign = pbw.lowering_scalar_check(ctx, 1, 2, set(), set(), lam)
        expect = ctx.reduce(b_scalar(ctx, lam, 1, 1))
        if expect == 0:
            assert scalar == 0 and sign is None
        else:
            assert scalar in (expect, ctx.reduce(-expect)) and sign in (-1, 1)


def test_lowering_scalar_check_rejects_bad_preconditions():
    ctx = build_context(1, 1, (0, 1), 2)
    with pytest.raises(ValueError):
        pbw.lowering_scalar_check(ctx, 1, 2, {1}, set(), (0, 0))


def test_lowering_cache_keeps_characteristics_apart():
    # a cached lowering operator, plain or raised, carries the context it
    # was asked for
    for p in (0, 3, 0):
        assert pbw.s_element(ctx_of((1, 0), p), 1, 2, frozenset()).ctx.p == p
        assert pbw.raised_s_element(ctx_of((1, 0), p), 1, 2, frozenset()).ctx.p == p


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
    # SuperElt.__init__ is the one place zeros are dropped; every operation
    # below can cancel a term and must still leave none behind
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
                    xy.reorder(GeneratorOrder(kind="alt")),
                    xy.reduce_mod_J(),
                    xy * y,
                ]
                for elt in built:
                    assert _nonzero(elt.terms), (parities, x.dump(), y.dump(), elt.terms)
                assert (xy - xy).terms == {}
    ctx = ctx_of((1, 0))
    h1, h2 = SuperElt.gen(ctx, 1, 1), SuperElt.gen(ctx, 2, 2)
    assert h1.bracket(h2).terms == {}
    e = SuperElt.gen(ctx, 1, 2)
    assert (e * e).terms == {}  # an odd generator squares to zero


def test_normalize_word_and_verma_scalar_return_no_zeros():
    # e_{1,2} e_{1,2} e_{2,1} cancels while it is normal-ordered: e_{1,2} is odd
    assert pbw.normalize_word((1, 0), DEFAULT_ORDER, ((1, 2), (1, 2), (2, 1))) == {}
    for parities in ((1, 0), (0, 1, 0), (1, 0, 1)):
        rank = len(parities)
        gens = [(i, j) for i in range(1, rank + 1) for j in range(1, rank + 1)]
        for word in itertools.product(gens, repeat=3):
            assert _nonzero(pbw.normalize_word(parities, DEFAULT_ORDER, word)), word
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
    first = pbw.normalize_word((1, 0), DEFAULT_ORDER, word)
    want = dict(first)
    assert want
    first.clear()
    assert pbw.normalize_word((1, 0), DEFAULT_ORDER, word) == want
    assert pbw._NORMALIZE_CACHE == {}


def test_normalize_word_output_is_pinned_on_short_words():
    # every word of length <= 3, ranks 2-3, every parity sequence, three orders
    digest = hashlib.sha256()
    orders = (DEFAULT_ORDER, GeneratorOrder("alt"), pbw.e_last_order(1))
    for parities in _all_parities((2, 3)):
        rank = len(parities)
        gens = [(i, j) for i in range(1, rank + 1) for j in range(1, rank + 1)]
        for order, length in itertools.product(orders, range(4)):
            for word in itertools.product(gens, repeat=length):
                out = sorted(pbw.normalize_word(parities, order, word).items())
                digest.update(repr((parities, order.kind, word, out)).encode())
    assert digest.hexdigest()[:16] == "17267df16c04e37a"


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
    real = SuperElt.__mul__
    monkeypatch.setattr(SuperElt, "__mul__", lambda a, b: calls.append(1) or real(a, b))
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
    for (scalar, _), lam in zip(results, ((0, 1, 1), (1, 2, 2))):
        assert scalar == pbw.verma_scalar(raised, lam)
