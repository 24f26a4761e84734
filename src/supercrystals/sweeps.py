"""Exhaustive verification sweeps behind the `verify` CLI command and tests.

Each suite checks one family of identities over windows of weights, all
parity sequences of the requested ranks, and a list of characteristics.
Workers are top-level functions on picklable arguments so suites can be
sharded across processes.  One table, ``_SUITE_TABLE``, declares every
suite as its ordered parts: a worker with the rank cap, characteristics and
job plan of its shards.  ``run_suite`` loops over it, and ``_fail`` formats
every counterexample from the context spec and the loop variables.

The crystal, odd-reflection and linkage workers compute the residue vectors
of each weight once and call the kernels of ``crystal``, ``tensorrule``,
``affine`` and ``linkage`` on them, the same kernels the public functions
wrap, so every check runs library code.  The crystal workers (C2-C5) read
every residue of a weight off one table: ``crystal.reduced_table`` for the
signature rule and ``tensorrule.dual_table`` of ``letters_of`` for the
tensor rule.  A check that reads one r of a moved weight (the e*/f* round
trip of the axioms, the one-step-down check of normality) keeps the
per-residue kernel.  C3 takes the wt shift of a move as ``affine.wt_key``
of the moved position after the move minus before it, since wt is a sum
over positions.  C4 reads the matching criterion for normality and
goodness at every position off one ``crystal.matching_flags`` pass per
weight.  C8 leaves case selection to ``pbw.lowering_scalar_check`` (a
ValueError is no case); C8/C9 evaluate one cached ``pbw.raised_s_element``
per (i, j, A).
"""

from __future__ import annotations

import itertools
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple

from . import crystal, pbw, tensorrule
from .affine import AffineWeight, ab_key, alpha_of, alpha_pairing, wt_key
from .linkage import default_order, series_coeffs, z_scalar
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
    checks: int = 0
    failures: int = 0
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
    return build_context(*spec)


def _p0_spec(parities: Tuple[int, ...]) -> CtxSpec:
    """The p = 0 spec of a parity sequence; the PBW workers run at p = 0."""
    m = parities.count(0)
    return (m, len(parities) - m, parities, 0)


def _fail(report: PropertyReport, spec: CtxSpec, label: str = "", **where) -> None:
    """Count one failure of report; the first one becomes its counterexample.

    The text names the context spec, then the loop variables ``where`` in
    the order given, after the label of the comparison that failed when
    the report makes more than one.
    """
    report.failures += 1
    if report.counterexample is None:
        text = " ".join(f"{k}={v}" for k, v in dict(ctx=spec, **where).items())
        report.counterexample = f"{label}: {text}" if label else text


def _merge_reports(shards: Iterable[List[PropertyReport]]) -> List[PropertyReport]:
    """Merge one worker's shards by position: each returns the same report names."""
    merged: List[PropertyReport] = []
    for shard in shards:
        merged = [a.merge(b) for a, b in zip(merged, shard)] if merged else shard
    return merged


def _run_sharded(worker, jobs: List[tuple], processes: Optional[int]) -> List[PropertyReport]:
    if processes == 1:
        return _merge_reports(worker(job) for job in jobs)
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return _merge_reports(pool.map(worker, jobs))


# ---------------------------------------------------------------------------
# oracle equivalence

# the moves and counters of a vacuous residue class: no move, both counters 0
_NO_MOVES = (None, None, (0, 0))


def _vacuous(p: int, residues: Collection[int]) -> Optional[int]:
    """One residue class outside ``residues``, or None when there is none.

    ``residues`` are the keys of a table, the classes of
    ``crystal.signature_residues``.  Both routes only see r through
    congruences against the fixed residue values of the weight, so all
    vacuous classes behave identically and one representative covers them:
    the least residue mod p left out, or two above the largest value when
    p = 0.
    """
    if not p:
        return max(residues) + 2
    if len(residues) < p:
        return next(r for r in range(p) if r not in residues)
    return None


def _residue_candidates(p: int, residues: Collection[int]) -> List[int]:
    """The classes ``residues``, increasing, then the ``_vacuous`` one if any."""
    out = sorted(residues)
    vacuous = _vacuous(p, residues)
    if vacuous is not None:
        out.append(vacuous)
    return out


def oracle_worker(job: Tuple[CtxSpec, int]) -> List[PropertyReport]:
    spec, window = job
    ctx = _ctx(spec)
    ops = PropertyReport("star operators match the tensor-rule oracle")
    counts = PropertyReport("star counters match the tensor-rule oracle")
    p = ctx.p
    signs = ctx.signs
    for lam in iter_window(ctx.rank, window):
        down, up = residue_vectors(ctx, lam)
        table = crystal.reduced_table(p, down, up)
        # the tensor rule reads its own letter word, not the residues
        dual = tensorrule.dual_table(p, signs, lam, tensorrule.letters_of(ctx, lam))
        # a class only one route sees is checked too, as vacuous on the other
        for r in _residue_candidates(p, table.keys() | dual.keys()):
            ops.checks += 2
            counts.checks += 1
            minus, plus = table.get(r, crystal.VACUOUS)
            got_e, got_f, got_counts = crystal.read_moves(lam, minus, plus)
            want_e, want_f, want_counts = dual.get(r, _NO_MOVES)
            if got_e != want_e:
                _fail(ops, spec, "e*", lam=lam, r=r, got=got_e, want=want_e)
            if got_f != want_f:
                _fail(ops, spec, "f*", lam=lam, r=r, got=got_f, want=want_f)
            if got_counts != want_counts:
                _fail(counts, spec, lam=lam, r=r, got=got_counts, want=want_counts)
    return [ops, counts]


# ---------------------------------------------------------------------------
# crystal axioms


def axioms_worker(job: Tuple[CtxSpec, int]) -> List[PropertyReport]:
    spec, window = job
    ctx = _ctx(spec)
    c1 = PropertyReport("phi* - eps* equals the coroot pairing of wt")
    c23 = PropertyReport("e*/f* shift the counters by one")
    c4 = PropertyReport("e* and f* are mutually inverse where defined")
    shift = PropertyReport("e*/f* shift wt by the simple root")
    rank = ctx.rank
    p = ctx.p
    signs = ctx.signs
    # whether wt(e* lam) - wt(lam) = -step * alpha_r, per (down_q, sign_q, r, step)
    shift_ok: Dict[Tuple[int, int, int, int], bool] = {}
    for lam in iter_window(rank, window):
        down, up = residue_vectors(ctx, lam)
        w = wt_key(p, signs, down)
        table = crystal.reduced_table(p, down, up)
        for r in _residue_candidates(p, table):
            minus, plus = table.get(r, crystal.VACUOUS)
            c1.checks += 1
            if len(plus) - len(minus) != alpha_pairing(p, w, r):
                _fail(c1, spec, lam=lam, r=r)
            # e* moves the good position down one step, f* the cogood one up
            for op, step, ends in (("e*", -1, minus), ("f*", 1, plus)):
                if not ends:
                    continue
                q = minus[0] if step < 0 else plus[-1]
                moved = lam[:q] + (lam[q] + step,) + lam[q + 1 :]
                down2 = down[:]
                down2[q] += step * signs[q]
                up2 = up[:]
                up2[q] += step * signs[q]
                e_back, f_back, cnt2 = crystal.star_moves(p, moved, down2, up2, r)
                c4.checks += 1
                if (f_back if step < 0 else e_back) != lam:
                    _fail(c4, spec, op, lam=lam, r=r)
                c23.checks += 1
                if cnt2 != (len(minus) + step, len(plus) - step):
                    _fail(c23, spec, op, lam=lam, r=r)
                shift.checks += 1
                key = (down[q], signs[q], r, step)
                ok = shift_ok.get(key)
                if ok is None:
                    sign = signs[q : q + 1]
                    after = AffineWeight.from_key(p, wt_key(p, sign, (down2[q],)))
                    before = AffineWeight.from_key(p, wt_key(p, sign, (down[q],)))
                    ok = shift_ok[key] = after - before == alpha_of(p, r).scale(-step)
                if not ok:
                    _fail(shift, spec, op, lam=lam, r=r)
    return [c1, c23, c4, shift]


# ---------------------------------------------------------------------------
# normality criteria


def normal_worker(job: Tuple[CtxSpec, int]) -> List[PropertyReport]:
    spec, window = job
    ctx = _ctx(spec)
    crit = PropertyReport("signature normality equals the matching criterion")
    goodcrit = PropertyReport("signature goodness equals the matching criterion")
    npc = PropertyReport("good equals normal plus conormal one step down")
    flip = PropertyReport("normal maps to conormal through the flip")
    rank = ctx.rank
    p = ctx.p
    fctx = flip_map(ctx, (0,) * rank)[0]
    fshift = ctx.m - ctx.n
    normal_kinds = (crystal.NORMAL, crystal.GOOD)
    conormal_kinds = (crystal.CONORMAL, crystal.COGOOD)
    for lam in iter_window(rank, window):
        down, up = residue_vectors(ctx, lam)
        fdown, fup = residue_vectors(fctx, flip_weight(lam))
        normal, good = crystal.matching_flags(p, down, up)
        # the flipped weight has residues r_i(lam + eps_i) - (m - n), read
        # backwards, so class r of lam is class r - (m - n) of the flip
        table = crystal.reduced_table(p, down, up)
        ftable = crystal.reduced_table(p, fdown, fup)
        for i in range(1, rank + 1):
            r = down[i - 1]
            minus, plus = table[ctx.reduce(r)]
            fminus, fplus = ftable.get(ctx.reduce(r - fshift), crystal.VACUOUS)
            kind = crystal.index_kind(minus, plus, i - 1)
            sig_normal = kind in normal_kinds
            sig_good = kind == crystal.GOOD
            crit.checks += 1
            if sig_normal != normal[i - 1]:
                _fail(crit, spec, lam=lam, i=i)
            goodcrit.checks += 1
            if sig_good != good[i - 1]:
                _fail(goodcrit, spec, lam=lam, i=i)
            npc.checks += 1
            # position i of lam - eps_i, read only when i is normal for lam
            conormal_below = False
            if sig_normal:
                down2 = down[:]
                down2[i - 1] -= ctx.signs[i - 1]
                up2 = up[:]
                up2[i - 1] -= ctx.signs[i - 1]
                minus2, plus2 = crystal.reduced_positions(p, down2, up2, r)
                conormal_below = crystal.index_kind(minus2, plus2, i - 1) in conormal_kinds
            if sig_good != conormal_below:
                _fail(npc, spec, lam=lam, i=i)
            fkind = crystal.index_kind(fminus, fplus, rank - i)
            flip.checks += 2
            if sig_normal != (fkind in conormal_kinds):
                _fail(flip, spec, "normal/conormal", lam=lam, i=i)
            if sig_good != (fkind == crystal.COGOOD):
                _fail(flip, spec, "good/cogood", lam=lam, i=i)
    return [crit, goodcrit, npc, flip]


# ---------------------------------------------------------------------------
# odd reflections


def oddrefl_worker(job: Tuple[CtxSpec, int]) -> List[PropertyReport]:
    spec, window = job
    ctx = _ctx(spec)
    commute = PropertyReport("odd reflections commute with the star operators")
    stats = PropertyReport("odd reflections preserve the counters and wt")
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
        table = crystal.reduced_table(p, down, up)
        candidates = _residue_candidates(p, table)
        # r -> the moves of lam, shared by every adjacent position
        moves = {
            r: crystal.read_moves(lam, minus, plus)
            for r, (minus, plus) in table.items()
        }
        for i in adjacents:
            octx = octxs[i]
            olam = crystal.odd_weight(p, signs, lam, i)
            odown, oup = residue_vectors(octx, olam)
            stats.checks += 1
            if w != wt_key(p, octx.signs, odown):
                _fail(stats, spec, "wt", lam=lam, i=i)
            otable = crystal.reduced_table(p, odown, oup)
            omoves = {
                r: crystal.read_moves(olam, minus, plus)
                for r, (minus, plus) in otable.items()
            }
            rs = {*candidates, *_residue_candidates(p, otable)}
            # per r: one counters check, and one commute check each for e*, f*
            stats.checks += len(rs)
            commute.checks += 2 * len(rs)
            for r in sorted(rs):
                e1, f1, cnt1 = moves.get(r, _NO_MOVES)
                e2, f2, cnt2 = omoves.get(r, _NO_MOVES)
                if cnt1 != cnt2:
                    _fail(stats, spec, "counters", lam=lam, i=i, r=r)
                # s_i e* = e* s_i and s_i f* = f* s_i, undefined on both sides or neither
                if e1 is None or e2 is None:
                    if e1 is not e2:
                        _fail(commute, spec, "e*", lam=lam, i=i, r=r)
                elif crystal.odd_weight(p, signs, e1, i) != e2:
                    _fail(commute, spec, "e*", lam=lam, i=i, r=r)
                if f1 is None or f2 is None:
                    if f1 is not f2:
                        _fail(commute, spec, "f*", lam=lam, i=i, r=r)
                elif crystal.odd_weight(p, signs, f1, i) != f2:
                    _fail(commute, spec, "f*", lam=lam, i=i, r=r)
    return [commute, stats]


# ---------------------------------------------------------------------------
# linkage


def linkage_worker(job: Tuple[CtxSpec, int]) -> List[PropertyReport]:
    spec, window = job
    ctx = _ctx(spec)
    iii_iv = PropertyReport("wt equality matches length plus A-B data")
    ii_iii = PropertyReport("residue series equality matches the A-B data")
    p = ctx.p
    signs = ctx.signs
    order = default_order(ctx)
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
        if ab_of_wt.setdefault(w, ab) != ab:
            _fail(iii_iv, spec, "wt equal, data differ", lam=lam)
        if wt_keys.setdefault(ab, w) != w:
            _fail(iii_iv, spec, "data equal, wt differ", lam=lam)
        if series_of_ab.setdefault(ab, skey) != skey:
            _fail(ii_iii, spec, "data equal, series differ", lam=lam)
    # series key must also separate distinct ab keys
    seen: Dict[tuple, tuple] = {}
    for ab, skey in series_of_ab.items():
        if seen.setdefault(skey, ab) != ab:
            _fail(ii_iii, spec, "series equal, data differ")
        ii_iii.checks += 1
    return [iii_iv, ii_iii]


# ---------------------------------------------------------------------------
# pbw identities


def _subsets(universe: Sequence[int]):
    for k in range(len(universe) + 1):
        yield from (frozenset(c) for c in itertools.combinations(universe, k))


def pbw_worker(job: Tuple[Tuple[int, ...], int]) -> List[PropertyReport]:
    parities, seed = job
    spec = _p0_spec(parities)
    ctx = _ctx(spec)
    rank = ctx.rank
    bracket_tab = PropertyReport("generator brackets match the defining relation")
    jacobi = PropertyReport("super Jacobi identity on random triples")
    assoc = PropertyReport("normal ordering is associative on random triples")
    murphy = PropertyReport("the L elements commute pairwise and with H")
    tech = PropertyReport("L reduction and annihilation identities mod J")
    recur = PropertyReport("lowering-operator recurrence")
    comm = PropertyReport("E_l commutation lemma, all four cases")
    orderfree = PropertyReport("S is independent of the order within its class")
    integral = PropertyReport("lowering operators have integer coefficients")
    gens = [(i, j) for i in range(1, rank + 1) for j in range(1, rank + 1)]

    for x in gens:
        for y in gens:
            bracket_tab.checks += 1
            got = pbw.SuperElt.gen(ctx, *x).bracket(pbw.SuperElt.gen(ctx, *y))
            want = pbw.SuperElt.zero(ctx)
            for c, g in pbw._bracket_gens(parities, x, y):
                want = want + pbw.SuperElt.gen(ctx, *g).scale(c)
            if got != want:
                _fail(bracket_tab, spec, x=x, y=y)

    rng = random.Random(seed)
    for _ in range(24):
        triple = [rng.choice(gens) for _ in range(3)]
        x, y, z = (pbw.SuperElt.gen(ctx, *g) for g in triple)
        px, py, pz = (t.parity() for t in (x, y, z))
        jacobi.checks += 1
        lhs = x.bracket(y.bracket(z))
        rhs = (x.bracket(y)).bracket(z) + y.bracket(x.bracket(z)).scale(
            -1 if px and py else 1
        )
        if lhs != rhs:
            _fail(jacobi, spec, gens=triple)
        assoc.checks += 1
        if (x * y) * z != x * (y * z):
            _fail(assoc, spec, gens=triple)

    for a in range(1, rank + 1):
        la = pbw.murphy_element(ctx, a)
        for b in range(a, rank + 1):
            murphy.checks += 1
            if not la.bracket(pbw.murphy_element(ctx, b)).is_zero():
                _fail(murphy, spec, "[L,L]", a=a, b=b)
        for k in range(1, rank + 1):
            murphy.checks += 1
            if not la.bracket(pbw.SuperElt.gen(ctx, k, k)).is_zero():
                _fail(murphy, spec, "[L,H]", a=a, k=k)

    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            for t in range(i + 1, j):
                tech.checks += 1
                if not pbw.tech_lemma_check(ctx, i, t, j):
                    _fail(tech, spec, i=i, t=t, j=j)
            interval = list(range(i + 1, j))
            for a_set in _subsets(interval):
                s_elt = pbw.s_element(ctx, i, j, a_set)
                integral.checks += 1
                if any(c.denominator != 1 for c in s_elt.terms.values()):
                    _fail(integral, spec, i=i, j=j, A=sorted(a_set))
                alt = pbw.GeneratorOrder(kind="alt")
                orderfree.checks += 1
                s_alt = pbw.s_element(ctx, i, j, a_set, alt)
                if s_alt.reorder(pbw.DEFAULT_ORDER) != s_elt:
                    _fail(orderfree, spec, i=i, j=j, A=sorted(a_set))
                for k in sorted(a_set):
                    recur.checks += 1
                    if not pbw.recurrence_check(ctx, i, j, a_set, k):
                        _fail(recur, spec, i=i, j=j, A=sorted(a_set), k=k)
                for l in range(1, rank):
                    result = pbw.commutator_lemma_check(ctx, i, j, a_set, l)
                    if result is None:
                        continue
                    comm.checks += 1
                    if not result:
                        _fail(comm, spec, i=i, j=j, A=sorted(a_set), l=l)
    return [bracket_tab, jacobi, assoc, murphy, tech, recur, comm, orderfree, integral]


def central_worker(job: Tuple[Tuple[int, ...], int]) -> List[PropertyReport]:
    parities, max_r = job
    spec = _p0_spec(parities)
    ctx = _ctx(spec)
    basic = PropertyReport("brackets of generators with the x elements")
    central = PropertyReport("the summed x elements are central")
    positions = range(1, ctx.rank + 1)
    for r in range(1, max_r + 1):
        x = {(k, l): e for l in positions for k, e in enumerate(pbw.x_column(ctx, l, r), 1)}
        zt = sum((x[k, k] for k in positions), pbw.SuperElt.zero(ctx))
        for i in positions:
            for j in positions:
                g = pbw.SuperElt.gen(ctx, i, j)
                central.checks += 1
                if not g.bracket(zt).is_zero():
                    _fail(central, spec, r=r, i=i, j=j)
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
                            _fail(basic, spec, r=r, i=i, j=j, k=k, l=l)
    return [basic, central]


# ---------------------------------------------------------------------------
# Verma scalars


def verma_z_worker(job: Tuple[Tuple[int, ...], int, int]) -> List[PropertyReport]:
    parities, max_r, window = job
    spec = _p0_spec(parities)
    ctx = _ctx(spec)
    rep = PropertyReport("central elements act on the Verma line by Z_r")
    for r in range(1, max_r + 1):
        z = pbw.z_element(ctx, r).reduce_mod_J()
        for lam in iter_window(ctx.rank, window):
            rep.checks += 1
            got = pbw.verma_scalar(z, lam)
            if got != z_scalar(ctx, lam, r):
                _fail(rep, spec, r=r, lam=lam)
    return [rep]


def lowering_scalar_worker(job: Tuple[CtxSpec, int]) -> List[PropertyReport]:
    spec, window = job
    ctx = _ctx(spec)
    rep = PropertyReport("raised lowered vectors give the predicted scalar")
    rank = ctx.rank
    for i in range(1, rank):
        for j in range(i + 1, rank + 1):
            subsets = list(_subsets(range(i + 1, j)))
            pairs = [(a, b) for a in subsets for b in subsets if len(a) == len(b)]
            for lam in iter_window(rank, window):
                for a_set, b_set in pairs:
                    # ValueError: (lam, A, B) is outside the lemma's hypotheses
                    try:
                        pbw.lowering_scalar_check(ctx, i, j, a_set, b_set, lam)
                    except ValueError:
                        continue
                    except (AssertionError, ArithmeticError) as exc:
                        _fail(
                            rep, spec, i=i, j=j, A=sorted(a_set), B=sorted(b_set),
                            lam=lam, error=exc,
                        )
                    rep.checks += 1
    return [rep]


def witness_worker(job: Tuple[CtxSpec, int]) -> List[PropertyReport]:
    spec, window = job
    ctx = _ctx(spec)
    rep = PropertyReport("every normal index certifies a nonzero scalar")
    rank = ctx.rank
    for lam in iter_window(rank, window):
        for i in range(1, rank):
            r = residue_int(ctx, lam, i)
            if not crystal.classify_index(ctx, lam, i, r).is_normal:
                continue
            rep.checks += 1
            c_full, b_full = crystal.bc_sets(ctx, lam, i, rank)
            chosen = crystal.greedy_match(b_full, c_full)
            if chosen is None:
                _fail(rep, spec, "no matching despite normality", lam=lam, i=i)
                continue
            interval = set(range(i + 1, rank))
            a_set = interval - set(chosen)
            b_set = interval - b_full
            try:
                scalar, _ = pbw.lowering_scalar_check(ctx, i, rank, a_set, b_set, lam)
            except (AssertionError, ArithmeticError, ValueError) as exc:
                _fail(rep, spec, lam=lam, i=i, error=exc)
                continue
            if scalar == 0:
                _fail(rep, spec, "vanishing witness", lam=lam, i=i)
    return [rep]


# ---------------------------------------------------------------------------
# suite driver


def _windowed(cap: Optional[int] = None):
    """The job plan (key, coeff_window), the window capped at cap."""
    return lambda key, w, seed, r: (key, w if cap is None else min(w, cap))


def _every_p(p_list: Sequence[int]) -> Sequence[int]:
    return p_list


def _positive_p(p_list: Sequence[int]) -> List[int]:
    return [p for p in p_list if p]


# suite -> its parts in run order: (worker, rank cap, characteristics, job).
# A part covers the parity sequences of ranks 2..max_rank, capped at its
# rank cap.  With characteristics, it runs one shard per context spec
# (m, n, parities, p), p in characteristics(p_list); without, one shard per
# parity sequence at p = 0.  job(key, coeff_window, seed, max_r) is the
# shard's job.  The caps keep the exhaustive searches tractable; the x
# elements grow fast in r, so their brackets stop at r = 3.
_SUITE_TABLE = {
    "crystal-axioms": [("axioms_worker", None, _every_p, _windowed())],
    "oracle-equivalence": [("oracle_worker", None, _every_p, _windowed())],
    "normal-criteria": [("normal_worker", None, _every_p, _windowed())],
    "odd-reflection": [("oddrefl_worker", None, _every_p, _windowed())],
    "linkage": [("linkage_worker", None, _every_p, _windowed(3))],
    "pbw-identities": [
        ("pbw_worker", 4, None, lambda seq, w, seed, r: (seq, seed)),
        ("central_worker", 3, None, lambda seq, w, seed, r: (seq, min(r, 3))),
    ],
    "verma-scalars": [
        ("verma_z_worker", 4, None, lambda seq, w, seed, r: (seq, r, min(w, 3))),
        ("lowering_scalar_worker", 3, _positive_p, _windowed(3)),
        ("witness_worker", 3, _every_p, _windowed(2)),
    ],
}

SUITES = tuple(_SUITE_TABLE)


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

    Runs the parts ``_SUITE_TABLE`` lists for the suite, or for every suite
    in ``SUITES`` order, each as one ``_run_sharded`` call.  ``max_r`` is
    the largest r of the Z_r checks of verma-scalars; the x-element
    brackets of pbw-identities run r = 1..min(max_r, 3).  ``processes``
    None is the pool default and 1 runs in this process.  Raises ValueError
    for an unknown suite, processes < 1, a characteristic listed twice, a
    window or r range that would leave checks empty, or a plan with no shard.
    """
    if processes is not None and processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    if len(set(p_list)) != len(p_list):
        raise ValueError(f"characteristic listed twice in {list(p_list)}")
    if coeff_window < 0:
        raise ValueError(f"coeff_window must be >= 0, got {coeff_window}")
    if max_r < 1:
        raise ValueError(f"max_r must be >= 1, got {max_r}")
    if name != "all" and name not in _SUITE_TABLE:
        raise ValueError(f"unknown suite {name!r}")
    plan: List[Tuple[str, List[tuple]]] = []
    for suite in SUITES if name == "all" else (name,):
        for worker, rank_cap, characteristics, job in _SUITE_TABLE[suite]:
            top = max_rank if rank_cap is None else min(max_rank, rank_cap)
            ranks = range(2, top + 1)
            if characteristics is None:
                keys = _parity_seqs(ranks, parities_pin)
            else:
                keys = context_specs(ranks, characteristics(p_list), parities_pin)
            plan.append((worker, [job(key, coeff_window, seed, max_r) for key in keys]))
    if not any(jobs for _, jobs in plan):
        pin = "" if parities_pin is None else f" with parities pinned to {tuple(parities_pin)}"
        raise ValueError(f"suite {name} plans no shard at max_rank {max_rank}{pin}")
    reports: List[PropertyReport] = []
    for worker, jobs in plan:
        # looked up at call time, so a wrapper bound in the worker's place runs
        reports += _run_sharded(globals()[worker], jobs, processes)
    return reports


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
