"""The dual crystal structure on the weight lattice.

Signatures, their stack-based reduction, the star operators e*/f* and their
counters, normal/good/conormal/cogood classification with the B-into-C
matching certificate, and odd reflections between adjacent parity contexts.

Each object has one implementation, a kernel over values the caller computes
once per weight: the residue vectors ``down``/``up`` of
``weights.residue_vectors``, the sign vector ``ctx.signs`` and the
characteristic ``p``.  ``reduced_positions`` gives the uncanceled -/+
positions of a reduced r-signature, and ``reduced_table`` gives them for
every residue class in one pass; ``read_moves`` (e*, f*, their counters)
and ``index_kind`` (normal/good/conormal/cogood) read off such a pair.  The
others are ``signature_residues``, ``bc_positions``, ``matching_normal`` and
``matching_good`` (the B-into-C criterion at one position), ``matching_flags``
(at every position: one matching pass per weight, no signature code),
``greedy_match`` (the one decider of "X injects down into Y", which also
returns the injection) and ``odd_weight``.

The sweeps and ``graph.crystal_component`` read every residue of a weight
off one ``reduced_table``.  A call that needs one r only keeps the
per-residue pass, which is cheaper than a table: ``star_moves``, the public
single-r functions (``e_star``, ``f_star``, ``reduced_signature``,
``eps_phi_star``, ``classify_index``) and the sweep checks that read one r
of a moved weight.  The functions taking a context validate their input,
compute the residues once and call the kernels.
``Signature``, with its "+"/"-"/"0" entries, is the boundary type.
``Signature`` and ``IndexClass`` are slotted dataclasses compared and hashed
by value; they are not frozen, which would cost ``reduced_signature`` and
``classify_index`` one ``object.__setattr__`` per field, so callers treat them
as immutable, as they do ``affine.AffineWeight``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .weights import (
    ParityContext,
    Weight,
    build_context,
    check_weight,
    eps,
    flip_map,
    residue_int,
    residue_vectors,
    weight_add,
)

PLUS = "+"
MINUS = "-"
ZERO = "0"

NOT_CLASSIFIED = "not-classified"
NORMAL = "normal"
GOOD = "good"
CONORMAL = "conormal"
COGOOD = "cogood"
NORMAL_KINDS = (NORMAL, GOOD)
CONORMAL_KINDS = (CONORMAL, COGOOD)


@dataclass(slots=True, unsafe_hash=True)
class Signature:
    """A +/-/0 word of length m+n, raw or with its -+ pairs canceled."""

    entries: Tuple[str, ...]

    def __str__(self) -> str:
        return "".join(self.entries)


@dataclass(slots=True, unsafe_hash=True)
class IndexClass:
    """Classification of a position for a residue r."""

    kind: str
    r: int

    @property
    def is_normal(self) -> bool:
        return self.kind in NORMAL_KINDS


# ---------------------------------------------------------------------------
# kernels over residue vectors


def reduced_positions(
    p: int, down: Sequence[int], up: Sequence[int], r: int
) -> Tuple[List[int], List[int]]:
    """(minus, plus): the uncanceled - and + positions of the reduced r-signature.

    The r-signature has + at position i where up_i = r, else - where
    down_i = r (mod p), else 0.  Read left to right, each + cancels the
    nearest uncanceled - to its left.  Both lists are 0-based and increasing,
    and every plus lies left of every minus: minus[0] is the good position,
    where e* acts, and plus[-1] the cogood one, where f* acts.
    """
    minus = []
    plus = []
    for i in range(len(down)):
        if (up[i] - r) % p == 0 if p else up[i] == r:
            if minus:
                minus.pop()
            else:
                plus.append(i)
        elif (down[i] - r) % p == 0 if p else down[i] == r:
            minus.append(i)
    return minus, plus


# the (minus, plus) pair of a residue class that is not a key of reduced_table
VACUOUS: Tuple[Tuple[int, ...], Tuple[int, ...]] = ((), ())


def reduced_table(
    p: int, down: Sequence[int], up: Sequence[int]
) -> Dict[int, Tuple[List[int], List[int]]]:
    """``reduced_positions`` for every residue class at once, in one pass.

    Maps each class of ``signature_residues`` (the values of down and up,
    reduced mod p when p > 0) to the pair (minus, plus) that
    ``reduced_positions`` gives for it; every other class has the pair
    ``VACUOUS``.  Position i touches two classes only: it cancels into the
    bucket of up_i and adds a - to the bucket of down_i.  These differ, as
    up_i - down_i = +-1 and p is 0 or prime.
    """
    table: Dict[int, Tuple[List[int], List[int]]] = {}
    for i in range(len(down)):
        if p:
            u = up[i] % p
            d = down[i] % p
        else:
            u = up[i]
            d = down[i]
        if u in table:
            minus, plus = table[u]
            if minus:
                minus.pop()
            else:
                plus.append(i)
        else:
            table[u] = ([], [i])
        if d in table:
            table[d][0].append(i)
        else:
            table[d] = ([i], [])
    return table


def index_kind(minus: Sequence[int], plus: Sequence[int], q: int) -> str:
    """The class of 0-based position q, given the pair of ``reduced_positions``.

    normal: q carries an uncanceled -; good: the leftmost such.  conormal: q
    carries an uncanceled +; cogood: the rightmost such.  Otherwise q is
    not classified.
    """
    if q in minus:
        return GOOD if q == minus[0] else NORMAL
    if q in plus:
        return COGOOD if q == plus[-1] else CONORMAL
    return NOT_CLASSIFIED


def signature_residues(
    p: int, down: Sequence[int], up: Sequence[int]
) -> Tuple[int, ...]:
    """Residues r whose r-signature is not identically zero, increasing.

    These are the values of down and up, reduced mod p when p > 0.
    """
    values = set(down)
    values.update(up)
    if p:
        values = {v % p for v in values}
    return tuple(sorted(values))


def read_moves(
    lam: Weight, minus: Sequence[int], plus: Sequence[int]
) -> Tuple[Optional[Weight], Optional[Weight], Tuple[int, int]]:
    """(e*_r lam, f*_r lam, (eps*_r, phi*_r)) read off the pair (minus, plus) of r.

    e* removes eps_q at the good position minus[0] and f* adds eps_q at the
    cogood position plus[-1]; a move without such a position is None.  The
    counters are the lengths of minus and plus.
    """
    e_w = f_w = None
    if minus:
        w = list(lam)
        w[minus[0]] -= 1
        e_w = tuple(w)
    if plus:
        w = list(lam)
        w[plus[-1]] += 1
        f_w = tuple(w)
    return e_w, f_w, (len(minus), len(plus))


def star_moves(
    p: int, lam: Weight, down: Sequence[int], up: Sequence[int], r: int
) -> Tuple[Optional[Weight], Optional[Weight], Tuple[int, int]]:
    """(e*_r lam, f*_r lam, (eps*_r, phi*_r)) from the residue vectors of lam.

    One ``reduced_positions`` pass for r, read by ``read_moves``.
    """
    minus, plus = reduced_positions(p, down, up, r)
    return read_moves(lam, minus, plus)


def bc_positions(
    p: int, down: Sequence[int], up: Sequence[int], i: int, j: int
) -> Tuple[Set[int], Set[int]]:
    """(C_{i,j}, B_{i,j}) from the residue vectors.

    c_{i,h} = down_i - down_h and b_{i,h} = down_i - up_{h+1}, so C holds the
    h in (i..j] with down_h = down_i and B the h in [i..j) with
    up_{h+1} = down_i (mod p).
    """
    d = down[i - 1]
    if p:
        c_set = {h for h in range(i + 1, j + 1) if (d - down[h - 1]) % p == 0}
        b_set = {h for h in range(i, j) if (d - up[h]) % p == 0}
    else:
        c_set = {h for h in range(i + 1, j + 1) if down[h - 1] == d}
        b_set = {h for h in range(i, j) if up[h] == d}
    return c_set, b_set


def greedy_match(sources: Set[int], targets: Set[int]) -> Optional[List[int]]:
    """An injection from sources into targets sending x to some y <= x, or None.

    The one decider of "sources inject down into targets": it is None
    exactly when no such injection exists.  Takes each source x in
    increasing order to the largest free target y <= x and returns these
    picks in that order.
    """
    avail = sorted(targets)
    picks = []
    for x in sorted(sources):
        pick = None
        for y in avail:
            if y > x:
                break
            pick = y
        if pick is None:
            return None
        avail.remove(pick)
        picks.append(pick)
    return picks


def matching_normal(p: int, down: Sequence[int], up: Sequence[int], i: int) -> bool:
    """Normality of position i by matching: B_{i,k} injects down into C_{i,k}, k the rank."""
    k = len(down)
    if i == k:
        return True
    c_set, b_set = bc_positions(p, down, up, i, k)
    return greedy_match(b_set, c_set) is not None


def matching_good(p: int, down: Sequence[int], normal: Sequence[bool], i: int) -> bool:
    """Goodness of position i by matching, from normal[t - 1] for the positions t <= i.

    Good means normal with no normal j < i where c_{j,i} = down_j - down_i
    vanishes mod p.
    """
    if not normal[i - 1]:
        return False
    d = down[i - 1]
    if p:
        return not any(normal[j] and (down[j] - d) % p == 0 for j in range(i - 1))
    return not any(normal[j] and down[j] == d for j in range(i - 1))


def matching_flags(
    p: int, down: Sequence[int], up: Sequence[int]
) -> Tuple[List[bool], List[bool]]:
    """(normal, good): ``matching_normal`` and ``matching_good`` at every position.

    Right to left, ``debt[c]`` is minus the least partial sum, clamped at 0,
    of the walk from x that steps +1 where down_x = c and -1 where
    up_{x+1} = c; position x touches only the classes down_x and up_{x+1}.
    Position i is normal iff up_{i+1} is not d = down_i and d owes nothing
    from i+1; the last position always is.  Left to right, good is normal in
    a class with no normal position before.  Classes are reduced mod p > 0.
    """
    k = len(down)
    cls = [v % p for v in down] if p else list(down)
    normal = [True] * k
    debt: Dict[int, int] = {}
    for x in range(k - 2, -1, -1):
        d = cls[x]
        u = up[x + 1] % p if p else up[x + 1]
        normal[x] = u != d and not debt.get(d)
        # the -1 first: when u = d the two steps cancel
        debt[u] = debt.get(u, 0) + 1
        if debt.get(d):
            debt[d] -= 1
    good = []
    seen: Set[int] = set()
    for d, flag in zip(cls, normal):
        good.append(flag and d not in seen)
        if flag:
            seen.add(d)
    return normal, good


def odd_weight(p: int, signs: Sequence[int], lam: Weight, i: int) -> Weight:
    """The weight half of the odd reflection at positions i, i+1.

    Swaps lam_i and lam_{i+1}, then adds eps_i - eps_{i+1} unless the pairing
    (lam, eps_i - eps_{i+1}) = signs_i lam_i - signs_{i+1} lam_{i+1} is 0 mod p.
    """
    w = list(lam)
    a, b = w[i - 1], w[i]
    pairing = signs[i - 1] * a - signs[i] * b
    shift = 1 if (pairing % p if p else pairing) else 0
    w[i - 1], w[i] = b + shift, a - shift
    return tuple(w)


# ---------------------------------------------------------------------------
# public functions on a context


def _reduced(p: int, down: Sequence[int], up: Sequence[int], r: int) -> Signature:
    minus, plus = reduced_positions(p, down, up, r)
    entries = [ZERO] * len(down)
    for q in minus:
        entries[q] = MINUS
    for q in plus:
        entries[q] = PLUS
    return Signature(tuple(entries))


def r_signature(ctx: ParityContext, lam: Weight, r: int) -> Signature:
    """The r-signature: + where r_i(lam+eps_i) = r, - where r_i(lam) = r."""
    down, up = residue_vectors(ctx, lam)
    return Signature(
        tuple(
            PLUS if ctx.congruent(u, r) else MINUS if ctx.congruent(d, r) else ZERO
            for d, u in zip(down, up)
        )
    )


def reduce_signature(sig: Signature) -> Signature:
    """Cancel -+ pairs: each + cancels the nearest unmatched - to its left."""
    # residues whose 0-signature at p = 0 is the entry: + is up = 0, - is down = 0
    down = [int(e != MINUS) for e in sig.entries]
    up = [int(e != PLUS) for e in sig.entries]
    return _reduced(0, down, up, 0)


def reduced_signature(ctx: ParityContext, lam: Weight, r: int) -> Signature:
    down, up = residue_vectors(ctx, lam)
    return _reduced(ctx.p, down, up, r)


def e_star(ctx: ParityContext, lam: Weight, r: int) -> Optional[Weight]:
    """Remove eps_j at the leftmost - of the reduced r-signature, if any."""
    down, up = residue_vectors(ctx, lam)
    return star_moves(ctx.p, tuple(lam), down, up, r)[0]


def f_star(ctx: ParityContext, lam: Weight, r: int) -> Optional[Weight]:
    """Add eps_j at the rightmost + of the reduced r-signature, if any."""
    down, up = residue_vectors(ctx, lam)
    return star_moves(ctx.p, tuple(lam), down, up, r)[1]


def eps_phi_star(ctx: ParityContext, lam: Weight, r: int) -> Tuple[int, int]:
    """(eps*_r, phi*_r): counts of - and + in the reduced signature."""
    down, up = residue_vectors(ctx, lam)
    minus, plus = reduced_positions(ctx.p, down, up, r)
    return len(minus), len(plus)


def relevant_residues(ctx: ParityContext, lam: Weight) -> Tuple[int, ...]:
    """Residues r whose r-signature of lam is not identically zero.

    For p > 0 these are a subset of 0..p-1; for p = 0 finitely many integers.
    """
    down, up = residue_vectors(ctx, lam)
    return signature_residues(ctx.p, down, up)


def classify_index(ctx: ParityContext, lam: Weight, i: int, r: int) -> IndexClass:
    """Classify position i (1-based) in the reduced r-signature; see ``index_kind``."""
    if not 1 <= i <= ctx.rank:
        raise IndexError(f"position {i} out of range 1..{ctx.rank}")
    down, up = residue_vectors(ctx, lam)
    minus, plus = reduced_positions(ctx.p, down, up, r)
    return IndexClass(index_kind(minus, plus, i - 1), ctx.reduce(r))


def c_scalar(ctx: ParityContext, lam: Weight, i: int, j: int) -> int:
    """c_{i,j}(lam) = (lam + theta, eps_i - eps_j) = r_i(lam) - r_j(lam);
    the weight-arithmetic reference that tests check the C sets of ``bc_positions`` against."""
    return residue_int(ctx, lam, i) - residue_int(ctx, lam, j)


def b_scalar(ctx: ParityContext, lam: Weight, i: int, k: int) -> int:
    """b_{i,k}(lam) = (lam + theta + eps_{k+1}, eps_i - eps_{k+1});
    the weight-arithmetic reference that tests check the B sets of ``bc_positions`` against."""
    shifted = weight_add(lam, eps(ctx, k + 1))
    return residue_int(ctx, shifted, i) - residue_int(ctx, shifted, k + 1)


def bc_sets(
    ctx: ParityContext, lam: Weight, i: int, j: int
) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """(C_{i,j}, B_{i,j}): positions where c resp. b vanish mod p.

    C collects h in (i..j] with c_{i,h} = 0; B collects h in [i..j) with
    b_{i,h} = 0.
    """
    if not 1 <= i < j <= ctx.rank:
        raise IndexError(f"need 1 <= i < j <= {ctx.rank}, got ({i}, {j})")
    down, up = residue_vectors(ctx, lam)
    c_set, b_set = bc_positions(ctx.p, down, up, i, j)
    return frozenset(c_set), frozenset(b_set)


def normal_by_matching(ctx: ParityContext, lam: Weight, i: int) -> bool:
    """Independent normality route: B_{i,m+n}(lam) injects down into C_{i,m+n}(lam).
    Tests check the signature classes of ``classify_index`` against it."""
    if not 1 <= i <= ctx.rank:
        raise IndexError(f"position {i} out of range 1..{ctx.rank}")
    down, up = residue_vectors(ctx, lam)
    return matching_normal(ctx.p, down, up, i)


def good_by_matching(ctx: ParityContext, lam: Weight, i: int) -> bool:
    """Good via matching: normal, and no normal j < i with c_{j,i}(lam) = 0.
    Tests check the signature classes of ``classify_index`` against it."""
    if not 1 <= i <= ctx.rank:
        raise IndexError(f"position {i} out of range 1..{ctx.rank}")
    down, up = residue_vectors(ctx, lam)
    normal = [matching_normal(ctx.p, down, up, t) for t in range(1, i + 1)]
    return matching_good(ctx.p, down, normal, i)


def s_i_map(ctx: ParityContext, lam: Weight, i: int) -> Tuple[ParityContext, Weight]:
    """Odd reflection at a parity-adjacent position i.

    Swaps parities i, i+1; the weight is the plain swap when
    (lam, eps_i - eps_{i+1}) = 0 mod p, else the swap minus eps_{i+1}
    plus eps_i.
    """
    if not 1 <= i <= ctx.rank - 1:
        raise IndexError(f"position {i} out of range 1..{ctx.rank - 1}")
    if ctx.parity(i) == ctx.parity(i + 1):
        raise ValueError(f"positions {i}, {i + 1} have equal parities")
    check_weight(ctx, lam)
    new_parities = list(ctx.parities)
    new_parities[i - 1], new_parities[i] = new_parities[i], new_parities[i - 1]
    new_ctx = build_context(ctx.m, ctx.n, tuple(new_parities), ctx.p)
    return new_ctx, odd_weight(ctx.p, ctx.signs, tuple(lam), i)


def conormal_via_flip(ctx: ParityContext, lam: Weight, i: int, r: int) -> bool:
    """Whether position i is r-conormal, decided in the flipped context.

    Position t is normal for lam exactly when w0(t) is conormal for the
    flipped weight, so this is an independent route to conormality; tests
    check the signature classes of ``classify_index`` against it.
    """
    fctx, flam = flip_map(ctx, lam)
    w0_i = ctx.rank + 1 - i
    # flipped residues satisfy r_i'(flam) = r_i(lam+eps_i) - (m-n), so the
    # residue class maps to r -> r - (m-n) while + and - entries swap
    return classify_index(fctx, flam, w0_i, r - (ctx.m - ctx.n)).is_normal
