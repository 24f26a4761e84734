"""Exhaustive verification sweeps behind the `verify` CLI command and tests.

Each suite checks one family of identities over windows of weights, all
parity sequences of the requested ranks, and a list of characteristics.
Workers are top-level functions on picklable arguments so suites can be
sharded across processes.

The crystal, odd-reflection and linkage workers compute the residue vectors
of each weight once and call the kernels of ``crystal``, ``tensorrule``,
``affine`` and ``linkage`` on them, the same kernels the public functions
wrap, so every check runs library code.
"""

from __future__ import annotations

import itertools
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import crystal, pbw, tensorrule
from .affine import ab_key, alpha_of, gamma_of, wt_key
from .linkage import series_coeffs, z_scalar
from .weights import (
    ParityContext,
    build_context,
    flip_map,
    flip_weight,
    iter_window,
    length,
    residue_int,
    residue_vectors,
)

CtxSpec = Tuple[int, int, Tuple[int, ...], int]  # (m, n, parities, p)


@dataclass
class PropertyReport:
    name: str
    checks: int
    failures: int
    counterexample: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def merge(self, other: "PropertyReport") -> "PropertyReport":
        cex = self.counterexample or other.counterexample
        return PropertyReport(
            self.name, self.checks + other.checks, self.failures + other.failures, cex
        )


def context_specs(
    ranks: Sequence[int],
    p_list: Sequence[int],
    parities_pin: Optional[Tuple[int, ...]] = None,
) -> List[CtxSpec]:
    """All (m, n, parities, p) combinations for the sweep; see _parity_seqs for a pin."""
    specs = []
    for parities in _parity_seqs(ranks, parities_pin):
        m = parities.count(0)
        specs.extend((m, len(parities) - m, parities, p) for p in p_list)
    return specs


def _ctx(spec: CtxSpec) -> ParityContext:
    m, n, parities, p = spec
    return build_context(m, n, parities, p)


def _fail(report: PropertyReport, message: str) -> None:
    report.failures += 1
    if report.counterexample is None:
        report.counterexample = message


def _merge_reports(
    chunks: Iterable[List[PropertyReport]],
) -> List[PropertyReport]:
    merged: Dict[str, PropertyReport] = {}
    order: List[str] = []
    for chunk in chunks:
        for rep in chunk:
            if rep.name in merged:
                merged[rep.name] = merged[rep.name].merge(rep)
            else:
                merged[rep.name] = rep
                order.append(rep.name)
    return [merged[name] for name in order]


def _run_sharded(worker, jobs: List[tuple], processes: Optional[int]) -> List[PropertyReport]:
    if processes is not None and processes <= 1:
        return _merge_reports(worker(job) for job in jobs)
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return _merge_reports(pool.map(worker, jobs))


# ---------------------------------------------------------------------------
# oracle equivalence


def _residue_candidates(p: int, down: Sequence[int], up: Sequence[int]) -> List[int]:
    """Residues whose signature can be nonzero, plus one vacuous representative.

    Both routes only see r through congruences against the fixed residue
    values of the weight, so all vacuous classes behave identically and one
    representative covers them.
    """
    if p:
        rel = {v % p for v in down} | {v % p for v in up}
        out = sorted(rel)
        if len(rel) < p:
            out.append(min(set(range(p)) - rel))
        return out
    vals = sorted(set(down) | set(up))
    vals.append(vals[-1] + 2)
    return vals


def oracle_worker(job: Tuple[CtxSpec, int]) -> List[PropertyReport]:
    spec, window = job
    ctx = _ctx(spec)
    ops = PropertyReport("star operators match the tensor-rule oracle", 0, 0)
    counts = PropertyReport("star counters match the tensor-rule oracle", 0, 0)
    p = ctx.p
    signs = ctx.signs
    for lam in iter_window(ctx.rank, window):
        down, up = residue_vectors(ctx, lam)
        # the negated letters -b_i; b_i = down_i + 1 at even positions
        neg = [-(d + 1) if s > 0 else -d for d, s in zip(down, signs)]
        for r in _residue_candidates(p, down, up):
            ops.checks += 2
            counts.checks += 1
            got_e, got_f, got_counts = crystal.star_moves(p, lam, down, up, r)
            want_e, want_f, want_counts = tensorrule.dual_moves(p, signs, lam, neg, r)
            if got_e != want_e:
                _fail(ops, f"e*: ctx={spec} lam={lam} r={r}: {got_e} vs {want_e}")
            if got_f != want_f:
                _fail(ops, f"f*: ctx={spec} lam={lam} r={r}: {got_f} vs {want_f}")
            if got_counts != want_counts:
                _fail(counts, f"counters: ctx={spec} lam={lam} r={r}")
    return [ops, counts]


# ---------------------------------------------------------------------------
# crystal axioms


def axioms_worker(job: Tuple[CtxSpec, int]) -> List[PropertyReport]:
    spec, window = job
    ctx = _ctx(spec)
    c1 = PropertyReport("phi* - eps* equals the coroot pairing of wt", 0, 0)
    c23 = PropertyReport("e*/f* shift the counters by one", 0, 0)
    c4 = PropertyReport("e* and f* are mutually inverse where defined", 0, 0)
    shift = PropertyReport("e*/f* shift wt by the simple root", 0, 0)
    rank = ctx.rank
    p = ctx.p
    signs = ctx.signs
    # wt(e* lam) - wt(lam) = sign_q * (gamma_{b_q - sign_q} - gamma_{b_q});
    # cache whether that difference equals +alpha_r / -alpha_r per letter
    wt_shift_ok: Dict[Tuple[int, int, int, int], bool] = {}

    def shift_matches(b: int, s: int, r: int, direction: int) -> bool:
        key = (b, s, r, direction)
        cached = wt_shift_ok.get(key)
        if cached is None:
            diff = (gamma_of(p, b + direction * s) - gamma_of(p, b)).scale(s)
            cached = diff == alpha_of(p, r).scale(-direction)
            wt_shift_ok[key] = cached
        return cached

    for lam in iter_window(rank, window):
        down, up = residue_vectors(ctx, lam)
        for r in _residue_candidates(p, down, up):
            red = crystal.reduced_entries(p, down, up, r)
            e_cnt = red.count(-1)
            f_cnt = red.count(1)
            if p:
                a_r = sum(1 for v in up if (v - r) % p == 0)
                b_r = sum(1 for v in down if (v - r) % p == 0)
            else:
                a_r = up.count(r)
                b_r = down.count(r)
            c1.checks += 1
            # <alpha_r, alpha_r> = 2, so the C1 pairing is A_r - B_r exactly
            if f_cnt - e_cnt != a_r - b_r:
                _fail(c1, f"C1: ctx={spec} lam={lam} r={r}")
            if e_cnt:
                q = red.index(-1)
                mu = lam[:q] + (lam[q] - 1,) + lam[q + 1 :]
                down2 = down[:]
                down2[q] -= signs[q]
                up2 = up[:]
                up2[q] -= signs[q]
                _, back, cnt2 = crystal.star_moves(p, mu, down2, up2, r)
                c4.checks += 1
                if back != lam:
                    _fail(c4, f"C4(ef): ctx={spec} lam={lam} r={r}")
                c23.checks += 1
                if cnt2 != (e_cnt - 1, f_cnt + 1):
                    _fail(c23, f"C2: ctx={spec} lam={lam} r={r}")
                shift.checks += 1
                b_letter = down[q] + (1 if signs[q] > 0 else 0)
                if not shift_matches(b_letter, signs[q], r, -1):
                    _fail(shift, f"wt(e*): ctx={spec} lam={lam} r={r}")
            if f_cnt:
                q = rank - 1 - red[::-1].index(1)
                nu = lam[:q] + (lam[q] + 1,) + lam[q + 1 :]
                down2 = down[:]
                down2[q] += signs[q]
                up2 = up[:]
                up2[q] += signs[q]
                back, _, cnt2 = crystal.star_moves(p, nu, down2, up2, r)
                c4.checks += 1
                if back != lam:
                    _fail(c4, f"C4(fe): ctx={spec} lam={lam} r={r}")
                c23.checks += 1
                if cnt2 != (e_cnt + 1, f_cnt - 1):
                    _fail(c23, f"C3: ctx={spec} lam={lam} r={r}")
                shift.checks += 1
                b_letter = down[q] + (1 if signs[q] > 0 else 0)
                if not shift_matches(b_letter, signs[q], r, 1):
                    _fail(shift, f"wt(f*): ctx={spec} lam={lam} r={r}")
    return [c1, c23, c4, shift]


# ---------------------------------------------------------------------------
# normality criteria


def normal_worker(job: Tuple[CtxSpec, int]) -> List[PropertyReport]:
    spec, window = job
    ctx = _ctx(spec)
    crit = PropertyReport("signature normality equals the matching criterion", 0, 0)
    goodcrit = PropertyReport("signature goodness equals the matching criterion", 0, 0)
    npc = PropertyReport("good equals normal plus conormal one step down", 0, 0)
    flip = PropertyReport("normal maps to conormal through the flip", 0, 0)
    rank = ctx.rank
    p = ctx.p
    signs = ctx.signs
    fctx = flip_map(ctx, (0,) * rank)[0]
    fshift = ctx.m - ctx.n
    for lam in iter_window(rank, window):
        down, up = residue_vectors(ctx, lam)
        fdown, fup = residue_vectors(fctx, flip_weight(lam))
        normal = [crystal.matching_normal(p, down, up, i) for i in range(1, rank + 1)]
        red_cache: Dict[int, List[int]] = {}
        fred_cache: Dict[int, List[int]] = {}
        for i in range(1, rank + 1):
            r = down[i - 1]
            key = r % p if p else r
            red = red_cache.get(key)
            if red is None:
                red = crystal.reduced_entries(p, down, up, r)
                red_cache[key] = red
            sig_normal = red[i - 1] == -1
            sig_good = sig_normal and red.index(-1) == i - 1
            crit.checks += 1
            if sig_normal != normal[i - 1]:
                _fail(crit, f"normal: ctx={spec} lam={lam} i={i}")
            goodcrit.checks += 1
            if sig_good != crystal.matching_good(p, down, normal, i):
                _fail(goodcrit, f"good: ctx={spec} lam={lam} i={i}")
            npc.checks += 1
            down2 = down[:]
            down2[i - 1] -= signs[i - 1]
            up2 = up[:]
            up2[i - 1] -= signs[i - 1]
            red2 = crystal.reduced_entries(p, down2, up2, r)
            want_good = sig_normal and red2[i - 1] == 1
            if sig_good != want_good:
                _fail(npc, f"good=normal+conormal: ctx={spec} lam={lam} i={i}")
            # flipped residues are r_i(lam + eps_i) - (m - n), read backwards
            fr = r - fshift
            fkey = fr % p if p else fr
            fred = fred_cache.get(fkey)
            if fred is None:
                fred = crystal.reduced_entries(p, fdown, fup, fr)
                fred_cache[fkey] = fred
            fi = rank - i  # 0-based index of the flipped position
            f_conormal = fred[fi] == 1
            f_cogood = f_conormal and 1 not in fred[fi + 1 :]
            flip.checks += 2
            if sig_normal != f_conormal:
                _fail(flip, f"normal/conormal flip: ctx={spec} lam={lam} i={i}")
            if sig_good != f_cogood:
                _fail(flip, f"good/cogood flip: ctx={spec} lam={lam} i={i}")
    return [crit, goodcrit, npc, flip]


# ---------------------------------------------------------------------------
# odd reflections


def oddrefl_worker(job: Tuple[CtxSpec, int]) -> List[PropertyReport]:
    spec, window = job
    ctx = _ctx(spec)
    commute = PropertyReport("odd reflections commute with the star operators", 0, 0)
    stats = PropertyReport("odd reflections preserve the counters and wt", 0, 0)
    rank = ctx.rank
    p = ctx.p
    signs = ctx.signs
    adjacents = [i for i in range(1, rank) if ctx.parity(i) != ctx.parity(i + 1)]
    if not adjacents:
        return [commute, stats]
    octxs = {i: crystal.s_i_map(ctx, (0,) * rank, i)[0] for i in adjacents}
    for lam in iter_window(rank, window):
        down, up = residue_vectors(ctx, lam)
        w = wt_key(p, signs, down)
        for i in adjacents:
            octx = octxs[i]
            olam = crystal.odd_weight(p, signs, lam, i)
            odown, oup = residue_vectors(octx, olam)
            stats.checks += 1
            if w != wt_key(p, octx.signs, odown):
                _fail(stats, f"wt: ctx={spec} lam={lam} i={i}")
            rset = set(_residue_candidates(p, down, up))
            rset.update(_residue_candidates(p, odown, oup))
            for r in sorted(rset):
                e1, f1, cnt1 = crystal.star_moves(p, lam, down, up, r)
                e2, f2, cnt2 = crystal.star_moves(p, olam, odown, oup, r)
                stats.checks += 1
                if cnt1 != cnt2:
                    _fail(stats, f"counters: ctx={spec} lam={lam} i={i} r={r}")
                for src, dst in ((e1, e2), (f1, f2)):
                    commute.checks += 1
                    if src is None or dst is None:
                        if src is not None or dst is not None:
                            _fail(commute, f"ctx={spec} lam={lam} i={i} r={r}")
                        continue
                    if crystal.odd_weight(p, signs, src, i) != dst:
                        _fail(commute, f"ctx={spec} lam={lam} i={i} r={r}")
    return [commute, stats]


# ---------------------------------------------------------------------------
# linkage


def linkage_worker(job: Tuple[CtxSpec, int]) -> List[PropertyReport]:
    spec, window = job
    ctx = _ctx(spec)
    iii_iv = PropertyReport("wt equality matches length plus A-B data", 0, 0)
    ii_iii = PropertyReport("residue series equality matches the A-B data", 0, 0)
    p = ctx.p
    signs = ctx.signs
    order = 2 * ctx.rank + 2
    wt_keys: Dict[tuple, tuple] = {}
    ab_of_wt: Dict[tuple, tuple] = {}
    series_of_ab: Dict[tuple, tuple] = {}
    for lam in iter_window(ctx.rank, window):
        down, up = residue_vectors(ctx, lam)
        size = length(lam)
        w = wt_key(p, signs, down)
        ab = (size, ab_key(p, down, up))
        coeffs = series_coeffs(down, up, order)
        iii_iv.checks += 1
        ii_iii.checks += 1
        # (iii) <=> (iv): the wt value and the (length, A-B) key determine
        # each other; (ii) <=> (iii): likewise for the series key, except
        # the series does not see the length, so pair it with the length
        skey = (size, tuple(c % p for c in coeffs) if p else tuple(coeffs))
        prev = ab_of_wt.get(w)
        if prev is None:
            ab_of_wt[w] = ab
        elif prev != ab:
            _fail(iii_iv, f"wt equal, data differ: ctx={spec} lam={lam}")
        prev_w = wt_keys.get(ab)
        if prev_w is None:
            wt_keys[ab] = w
        elif prev_w != w:
            _fail(iii_iv, f"data equal, wt differ: ctx={spec} lam={lam}")
        prev_s = series_of_ab.get(ab)
        if prev_s is None:
            series_of_ab[ab] = skey
        elif prev_s != skey:
            _fail(ii_iii, f"data equal, series differ: ctx={spec} lam={lam}")
    # series key must also separate distinct ab keys
    seen: Dict[tuple, tuple] = {}
    for ab, skey in series_of_ab.items():
        prev = seen.get(skey)
        if prev is None:
            seen[skey] = ab
        elif prev != ab:
            _fail(ii_iii, f"series equal, data differ: ctx={spec}")
        ii_iii.checks += 1
    return [iii_iv, ii_iii]


# ---------------------------------------------------------------------------
# pbw identities


def _subsets(universe: Sequence[int]):
    for k in range(len(universe) + 1):
        yield from (frozenset(c) for c in itertools.combinations(universe, k))


def pbw_worker(job: Tuple[Tuple[int, ...], int]) -> List[PropertyReport]:
    parities, seed = job
    rank = len(parities)
    m = parities.count(0)
    ctx = build_context(m, rank - m, parities, 0)
    bracket_tab = PropertyReport("generator brackets match the defining relation", 0, 0)
    jacobi = PropertyReport("super Jacobi identity on random triples", 0, 0)
    assoc = PropertyReport("normal ordering is associative on random triples", 0, 0)
    murphy = PropertyReport("the L elements commute pairwise and with H", 0, 0)
    tech = PropertyReport("L reduction and annihilation identities mod J", 0, 0)
    recur = PropertyReport("lowering-operator recurrence", 0, 0)
    comm = PropertyReport("E_l commutation lemma, all four cases", 0, 0)
    orderfree = PropertyReport("S is independent of the order within its class", 0, 0)
    integral = PropertyReport("lowering operators have integer coefficients", 0, 0)
    gens = [(i, j) for i in range(1, rank + 1) for j in range(1, rank + 1)]

    def sign_of(x, y):
        return (
            -1
            if pbw.gen_parity(parities, x) and pbw.gen_parity(parities, y)
            else 1
        )

    for x in gens:
        for y in gens:
            bracket_tab.checks += 1
            got = pbw.SuperElt.gen(ctx, *x).bracket(pbw.SuperElt.gen(ctx, *y))
            want = pbw.SuperElt.zero(ctx)
            for c, g in pbw._bracket_gens(parities, x, y):
                want = want + pbw.SuperElt.gen(ctx, *g).scale(c)
            if got != want.reorder(pbw.DEFAULT_ORDER):
                _fail(bracket_tab, f"bracket: parities={parities} x={x} y={y}")

    rng = random.Random(seed)
    for _ in range(24):
        x, y, z = (pbw.SuperElt.gen(ctx, *rng.choice(gens)) for _ in range(3))
        px, py, pz = (t.parity() for t in (x, y, z))
        jacobi.checks += 1
        lhs = x.bracket(y.bracket(z))
        rhs = (x.bracket(y)).bracket(z) + y.bracket(x.bracket(z)).scale(
            -1 if px and py else 1
        )
        if lhs != rhs:
            _fail(jacobi, f"jacobi: parities={parities}")
        assoc.checks += 1
        if (x * y) * z != x * (y * z):
            _fail(assoc, f"assoc: parities={parities}")

    for a in range(1, rank + 1):
        la = pbw.murphy_element(ctx, a)
        for b in range(a, rank + 1):
            murphy.checks += 1
            if not la.bracket(pbw.murphy_element(ctx, b)).is_zero():
                _fail(murphy, f"[L,L]: parities={parities} a={a} b={b}")
        for k in range(1, rank + 1):
            murphy.checks += 1
            if not la.bracket(pbw.SuperElt.gen(ctx, k, k)).is_zero():
                _fail(murphy, f"[L,H]: parities={parities} a={a} k={k}")

    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            for t in range(i + 1, j):
                tech.checks += 1
                if not pbw.tech_lemma_check(ctx, i, t, j):
                    _fail(tech, f"tech: parities={parities} ({i},{t},{j})")
            interval = list(range(i + 1, j))
            for a_set in _subsets(interval):
                s_elt = pbw.s_element(ctx, i, j, a_set)
                integral.checks += 1
                if any(c.denominator != 1 for c in s_elt.terms.values()):
                    _fail(integral, f"parities={parities} ({i},{j},{sorted(a_set)})")
                alt = pbw.GeneratorOrder(kind="alt")
                orderfree.checks += 1
                s_alt = pbw.s_element(ctx, i, j, a_set, alt)
                if s_alt.reorder(pbw.DEFAULT_ORDER) != s_elt:
                    _fail(orderfree, f"parities={parities} ({i},{j},{sorted(a_set)})")
                for k in sorted(a_set):
                    recur.checks += 1
                    if not pbw.recurrence_check(ctx, i, j, a_set, k):
                        _fail(
                            recur,
                            f"parities={parities} ({i},{j},{sorted(a_set)},k={k})",
                        )
                for l in range(1, rank):
                    result = pbw.commutator_lemma_check(ctx, i, j, a_set, l)
                    if result is None:
                        continue
                    comm.checks += 1
                    if not result:
                        _fail(
                            comm,
                            f"parities={parities} ({i},{j},{sorted(a_set)},l={l})",
                        )
    return [
        bracket_tab,
        jacobi,
        assoc,
        murphy,
        tech,
        recur,
        comm,
        orderfree,
        integral,
    ]


def central_worker(job: Tuple[Tuple[int, ...], int]) -> List[PropertyReport]:
    parities, max_r = job
    rank = len(parities)
    m = parities.count(0)
    ctx = build_context(m, rank - m, parities, 0)
    basic = PropertyReport("brackets of generators with the x elements", 0, 0)
    central = PropertyReport("the summed x elements are central", 0, 0)
    positions = range(1, rank + 1)
    for r in range(1, max_r + 1):
        zt = pbw.z_tilde_element(ctx, r)
        x = {(k, l): pbw.x_element(ctx, k, l, r) for k in positions for l in positions}
        for i in positions:
            for j in positions:
                g = pbw.SuperElt.gen(ctx, i, j)
                central.checks += 1
                if not g.bracket(zt).is_zero():
                    _fail(central, f"parities={parities} r={r} gen=({i},{j})")
                for k in positions:
                    for l in positions:
                        basic.checks += 1
                        got = g.bracket(x[k, l])
                        want = pbw.SuperElt.zero(ctx)
                        if j == k:
                            want = want + x[i, l]
                        if i == l:
                            sgn = (
                                -1
                                if pbw.gen_parity(parities, (i, j))
                                and pbw.gen_parity(parities, (k, l))
                                else 1
                            )
                            want = want - x[k, j].scale(sgn)
                        if got != want:
                            _fail(
                                basic,
                                f"parities={parities} r={r} ({i},{j}),({k},{l})",
                            )
    return [basic, central]


# ---------------------------------------------------------------------------
# Verma scalars


def verma_z_worker(job: Tuple[Tuple[int, ...], int, int]) -> List[PropertyReport]:
    parities, max_r, window = job
    rank = len(parities)
    m = parities.count(0)
    ctx = build_context(m, rank - m, parities, 0)
    rep = PropertyReport("central elements act on the Verma line by Z_r", 0, 0)
    for r in range(1, max_r + 1):
        z = pbw.z_element(ctx, r).reduce_mod_J()
        for lam in iter_window(rank, window):
            rep.checks += 1
            got = pbw.verma_scalar(z, lam)
            if got != z_scalar(ctx, lam, r):
                _fail(rep, f"parities={parities} r={r} lam={lam}")
    return [rep]


def lowering_scalar_worker(job: Tuple[CtxSpec, int]) -> List[PropertyReport]:
    spec, window = job
    ctx = _ctx(spec)
    rep = PropertyReport("raised lowered vectors give the predicted scalar", 0, 0)
    rank = ctx.rank
    for i in range(1, rank):
        for j in range(i + 1, rank + 1):
            interval = list(range(i + 1, j))
            pairs = [
                (a_set, b_set)
                for a_set in _subsets(interval)
                for b_set in _subsets(interval)
                if len(a_set) == len(b_set) and crystal.downarrow(a_set, b_set)
            ]
            for lam in iter_window(rank, window):
                for a_set, b_set in pairs:
                    ok = all(
                        ctx.congruent(crystal.c_scalar(ctx, lam, i, h), 0)
                        for h in interval
                        if h not in a_set
                    ) and all(
                        ctx.congruent(crystal.b_scalar(ctx, lam, i, h), 0)
                        for h in interval
                        if h not in b_set
                    )
                    if not ok:
                        continue
                    rep.checks += 1
                    try:
                        pbw.lowering_scalar_check(ctx, i, j, a_set, b_set, lam)
                    except (AssertionError, ArithmeticError) as exc:
                        _fail(
                            rep,
                            f"ctx={spec} ({i},{j},{sorted(a_set)},{sorted(b_set)})"
                            f" lam={lam}: {exc}",
                        )
    return [rep]


def witness_worker(job: Tuple[CtxSpec, int]) -> List[PropertyReport]:
    spec, window = job
    ctx = _ctx(spec)
    rep = PropertyReport("every normal index certifies a nonzero scalar", 0, 0)
    rank = ctx.rank
    for lam in iter_window(rank, window):
        for i in range(1, rank):
            r = residue_int(ctx, lam, i)
            if not crystal.classify_index(ctx, lam, i, r).is_normal:
                continue
            c_full, b_full = crystal.bc_sets(ctx, lam, i, rank)
            chosen = crystal.greedy_match(b_full, c_full)
            if chosen is None:
                _fail(rep, f"no matching despite normality: ctx={spec} lam={lam} i={i}")
                continue
            interval = set(range(i + 1, rank))
            a_set = interval - set(chosen)
            b_set = interval - b_full
            rep.checks += 1
            try:
                scalar, _ = pbw.lowering_scalar_check(ctx, i, rank, a_set, b_set, lam)
            except (AssertionError, ArithmeticError, ValueError) as exc:
                _fail(rep, f"ctx={spec} lam={lam} i={i}: {exc}")
                continue
            if scalar == 0:
                _fail(rep, f"vanishing witness: ctx={spec} lam={lam} i={i}")
    return [rep]


# ---------------------------------------------------------------------------
# suite driver

SUITES = (
    "crystal-axioms",
    "oracle-equivalence",
    "normal-criteria",
    "odd-reflection",
    "linkage",
    "pbw-identities",
    "verma-scalars",
)


def run_suite(
    name: str,
    max_rank: int = 4,
    coeff_window: int = 4,
    p_list: Sequence[int] = (0, 2, 3, 5),
    parities_pin: Optional[Tuple[int, ...]] = None,
    seed: int = 0,
    processes: Optional[int] = None,
    max_r: int = 4,
) -> List[PropertyReport]:
    """Run one named verification suite (or 'all'); returns its reports.

    ``max_r`` is the largest r of the Z_r checks of verma-scalars; the
    x-element brackets of pbw-identities run r = 1..min(max_r, 3).  Raises
    ValueError for a window or r range that would leave checks empty.
    """
    if coeff_window < 0:
        raise ValueError(f"coeff_window must be >= 0, got {coeff_window}")
    if max_r < 1:
        raise ValueError(f"max_r must be >= 1, got {max_r}")
    if name == "all":
        reports = []
        for suite in SUITES:
            reports.extend(
                run_suite(
                    suite,
                    max_rank,
                    coeff_window,
                    p_list,
                    parities_pin,
                    seed,
                    processes,
                    max_r,
                )
            )
        return reports

    ranks = list(range(2, max_rank + 1))
    if name == "oracle-equivalence":
        jobs = [(s, coeff_window) for s in context_specs(ranks, p_list, parities_pin)]
        return _run_sharded(oracle_worker, jobs, processes)
    if name == "crystal-axioms":
        jobs = [(s, coeff_window) for s in context_specs(ranks, p_list, parities_pin)]
        return _run_sharded(axioms_worker, jobs, processes)
    if name == "normal-criteria":
        jobs = [(s, coeff_window) for s in context_specs(ranks, p_list, parities_pin)]
        return _run_sharded(normal_worker, jobs, processes)
    if name == "odd-reflection":
        jobs = [(s, coeff_window) for s in context_specs(ranks, p_list, parities_pin)]
        return _run_sharded(oddrefl_worker, jobs, processes)
    if name == "linkage":
        window = min(coeff_window, 3)
        jobs = [(s, window) for s in context_specs(ranks, p_list, parities_pin)]
        return _run_sharded(linkage_worker, jobs, processes)
    if name == "pbw-identities":
        rank_cap = min(max_rank, 4)
        seqs = _parity_seqs(range(2, rank_cap + 1), parities_pin)
        jobs = [(parities, seed) for parities in seqs]
        reports = _run_sharded(pbw_worker, jobs, processes)
        central_seqs = _parity_seqs(range(2, min(rank_cap, 3) + 1), parities_pin)
        # the x elements grow fast in r; their brackets stop at r = 3
        central_r = min(max_r, 3)
        reports += _run_sharded(
            central_worker,
            [(parities, central_r) for parities in central_seqs],
            processes,
        )
        return reports
    if name == "verma-scalars":
        rank_cap = min(max_rank, 4)
        seqs = _parity_seqs(range(2, rank_cap + 1), parities_pin)
        # windows shrink with rank to keep the exhaustive searches tractable
        reports = _run_sharded(
            verma_z_worker,
            [
                (parities, max_r, min(coeff_window, 3 if len(parities) <= 4 else 2))
                for parities in seqs
            ],
            processes,
        )
        scalar_specs = context_specs(
            range(2, min(rank_cap, 3) + 1),
            [p for p in p_list if p] or [2, 3, 5],
            parities_pin,
        )
        reports += _run_sharded(
            lowering_scalar_worker,
            [
                (s, min(coeff_window, 3 if s[0] + s[1] <= 3 else 1))
                for s in scalar_specs
            ],
            processes,
        )
        witness_specs = context_specs(
            range(2, min(rank_cap, 3) + 1), p_list, parities_pin
        )
        reports += _run_sharded(
            witness_worker, [(s, min(coeff_window, 2)) for s in witness_specs], processes
        )
        return reports
    raise ValueError(f"unknown suite {name!r}")


def _parity_seqs(
    ranks: Iterable[int], parities_pin: Optional[Tuple[int, ...]] = None
) -> List[Tuple[int, ...]]:
    """All parity sequences of the given ranks.

    A pin keeps only itself, and nothing when its rank is not among the
    ranks, so a pinned run is always part of the unpinned one.
    """
    seqs = [s for rank in ranks for s in itertools.product((0, 1), repeat=rank)]
    if parities_pin is None:
        return seqs
    return [s for s in seqs if s == tuple(parities_pin)]
