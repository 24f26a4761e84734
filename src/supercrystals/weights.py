"""Weight lattice of GL(m|n) with its parity-dependent combinatorial data.

A context fixes the parity sequence of the chosen homogeneous basis, the
characteristic p, and the derived vectors theta and rho.  ``build_context``
returns one shared immutable context per (m, n, parities, p), so every
caller of a spec holds the same object; its errors are not cached.  Weights
are plain integer tuples (coefficients on epsilon_1..epsilon_{m+n}); all
positions are 1-based to match the usual conventions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

Weight = Tuple[int, ...]

EVEN = 0
ODD = 1


class ContextError(ValueError):
    """Raised when a parity context cannot be built as requested."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class ParityContext:
    """Immutable (m, n, parities, p) datum plus the derived theta and rho.

    ``signs`` holds (-1)**parity at every position, for the kernels in
    ``crystal`` and ``tensorrule``.
    """

    m: int
    n: int
    parities: Tuple[int, ...]
    p: int
    theta: Tuple[int, ...]
    rho: Tuple[int, ...]
    signs: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "signs", tuple(-1 if x else 1 for x in self.parities))

    @property
    def rank(self) -> int:
        return self.m + self.n

    def sign(self, i: int) -> int:
        """(-1)**parity at 1-based position i."""
        return self.signs[i - 1]

    def parity(self, i: int) -> int:
        return self.parities[i - 1]

    def reduce(self, value: int) -> int:
        """Canonical residue representative: value mod p, or value if p=0."""
        return value % self.p if self.p else value

    def congruent(self, a: int, b: int) -> bool:
        return (a - b) % self.p == 0 if self.p else a == b


def build_context(m: int, n: int, parities: Sequence[int], p: int) -> ParityContext:
    """The context of the parity sequence; validates counts and p.

    theta_j = sum_{i>j} (-1)^{parity_i + parity_j} and rho = theta plus the
    sum of the even epsilon_i.  rho is re-checked against its defining
    pairings, which pin it uniquely.  Every call with the same (m, n,
    parities, p) returns the same shared immutable context, built and
    checked once; a ContextError is raised on every call, never cached.
    """
    return _build_context(m, n, tuple(int(x) for x in parities), p)


# one entry per distinct spec; typed, so a p given as 2.0 never reaches callers of p=2
@functools.lru_cache(maxsize=None, typed=True)
def _build_context(m: int, n: int, parities: Tuple[int, ...], p: int) -> ParityContext:
    if any(x not in (EVEN, ODD) for x in parities):
        raise ContextError("parities must consist of 0 (even) and 1 (odd)")
    if len(parities) != m + n:
        raise ContextError(f"parity sequence has length {len(parities)}, expected {m + n}")
    if parities.count(EVEN) != m or parities.count(ODD) != n:
        raise ContextError(
            f"parity counts ({parities.count(EVEN)} even, {parities.count(ODD)} odd)"
            f" do not match (m={m}, n={n})"
        )
    if p != 0 and not _is_prime(p):
        raise ContextError(f"characteristic must be 0 or prime, got {p}")

    k = m + n
    theta = tuple(
        sum((-1) ** (parities[i] + parities[j]) for i in range(j + 1, k))
        for j in range(k)
    )
    rho = tuple(theta[j] + (1 if parities[j] == EVEN else 0) for j in range(k))

    ctx = ParityContext(m=m, n=n, parities=parities, p=p, theta=theta, rho=rho)
    _check_rho(ctx)
    return ctx


def _check_rho(ctx: ParityContext) -> None:
    """Verify rho against the pairing conditions that define it uniquely."""
    k = ctx.rank
    if k == 0:
        return
    last = form_pair(ctx, ctx.rho, eps(ctx, k))
    want = 1 if ctx.parity(k) == EVEN else 0
    if last != want:
        raise ContextError("derived rho fails its defining pairing at the last position")
    for i in range(1, k):
        val = form_pair(ctx, ctx.rho, weight_sub(eps(ctx, i), eps(ctx, i + 1)))
        pi, pj = ctx.parity(i), ctx.parity(i + 1)
        want = 1 if (pi, pj) == (EVEN, EVEN) else -1 if (pi, pj) == (ODD, ODD) else 0
        if val != want:
            raise ContextError(f"derived rho fails its defining pairing at position {i}")


def eps(ctx: ParityContext, i: int) -> Weight:
    """The basis weight epsilon_i."""
    return tuple(1 if j == i - 1 else 0 for j in range(ctx.rank))


def weight_add(lam: Weight, mu: Weight) -> Weight:
    return tuple(a + b for a, b in zip(lam, mu))


def weight_sub(lam: Weight, mu: Weight) -> Weight:
    return tuple(a - b for a, b in zip(lam, mu))


def check_weight(ctx: ParityContext, lam: Weight) -> None:
    """Raise ValueError unless lam has one coefficient per position."""
    if len(lam) != ctx.rank:
        raise ValueError(f"weight {list(lam)} has length {len(lam)}, expected {ctx.rank}")


def form_pair(ctx: ParityContext, lam: Weight, mu: Weight) -> int:
    """Symmetric bilinear form: sum_i (-1)**parity_i * lam_i * mu_i."""
    check_weight(ctx, lam)
    check_weight(ctx, mu)
    return sum(ctx.sign(i + 1) * a * b for i, (a, b) in enumerate(zip(lam, mu)))


def residue_int(ctx: ParityContext, lam: Weight, j: int) -> int:
    """The j-residue (lam + theta, eps_j) as a plain integer (no reduction)."""
    if not 1 <= j <= ctx.rank:
        raise IndexError(f"position {j} out of range 1..{ctx.rank}")
    return ctx.sign(j) * (lam[j - 1] + ctx.theta[j - 1])


def residue_vectors(ctx: ParityContext, lam: Weight) -> Tuple[List[int], List[int]]:
    """(down, up): the residues r_j(lam) and r_j(lam + eps_j), j = 1..k.

    r_j(lam + eps_j) = r_j(lam) + (-1)**parity_j by bilinearity.  These are
    the inputs of the kernels in ``crystal``.  Every call returns two fresh
    lists, which the caller owns and may patch in place.
    """
    check_weight(ctx, lam)
    down = []
    up = []
    for s, x, t in zip(ctx.signs, lam, ctx.theta):
        d = s * (x + t)
        down.append(d)
        up.append(d + s)
    return down, up


def length(lam: Weight) -> int:
    """The coefficient sum of lam."""
    return sum(lam)


def flip_map(ctx: ParityContext, lam: Weight) -> Tuple[ParityContext, Weight]:
    """Reverse-and-complement the parity sequence and send eps_i to -eps_{w0 i}.

    Two applications return the original (context, weight) pair.
    """
    flipped = tuple(1 - x for x in reversed(ctx.parities))
    return build_context(ctx.n, ctx.m, flipped, ctx.p), flip_weight(lam)


def flip_weight(lam: Weight) -> Weight:
    """The weight half of flip_map: reverse lam and negate every coefficient."""
    return tuple(-c for c in reversed(lam))


def parse_ints(text: str, what: str) -> Tuple[int, ...]:
    """A comma-separated integer list; ValueError naming ``what`` if malformed."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"malformed {what} {text!r}") from None


def parse_weight(text: str, ctx: ParityContext) -> Weight:
    """Parse a comma-separated weight of one coefficient per position of ctx."""
    w = parse_ints(text, "weight")
    check_weight(ctx, w)
    return w


@functools.lru_cache(maxsize=None)
def iter_window(rank: int, bound: int) -> Tuple[Weight, ...]:
    """All weights with |coeff| <= bound, by (max-norm, lexicographic); built once."""
    window = itertools.product(range(-bound, bound + 1), repeat=rank)
    return tuple(sorted(window, key=lambda w: (max(map(abs, w), default=0), w)))
