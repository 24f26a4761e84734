"""The affine weight lattice P with its simple roots and bilinear form.

For p = 0 this is the (finitely supported) gamma-coordinate lattice with
simple roots alpha_r = gamma_r - gamma_{r+1} and <gamma_r, gamma_s> = delta.
For p > 0 it is Z*delta + sum over Z/p of Z*Lambda_r with the form determined
by declaring (delta, Lambda_0..Lambda_{p-1}) and (Lambda_0, alpha_0..alpha_{p-1})
to be dual bases; ``gram_matrix`` writes that form down in closed form, in
exact rationals.

``wt_key`` and ``ab_key`` are the kernels behind ``wt_of`` and
``ab_counts``: plain-int passes over the residue vectors ``down``/``up`` of
``weights.residue_vectors`` and the sign vector ``ctx.signs``.
``alpha_pairing`` reads <wt, alpha_r> off a ``wt_key``.
``AffineWeight`` is the boundary type for JSON, the CLI and equality: a
slotted dataclass compared and hashed by value, built positionally on the hot
paths.  It is not frozen, since a frozen constructor pays one
``object.__setattr__`` per field on every ``wt_of``; its instances are shared
(``alpha_of`` and ``gamma_of`` hand out cached ones), so callers treat them as
immutable.  ``weights.ParityContext`` stays frozen: it is built once per spec
and shared by every caller, so freezing costs no call anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Sequence, Tuple

from .weights import ParityContext, Weight, residue_vectors


@dataclass(slots=True, unsafe_hash=True)
class AffineWeight:
    """Canonical element of P.

    p = 0: ``gamma`` is a sorted tuple of (index, coeff) pairs, no zeros.
    p > 0: ``delta`` is the delta coefficient and ``lambdas`` has length p.
    """

    p: int
    gamma: Tuple[Tuple[int, int], ...] = ()
    delta: int = 0
    lambdas: Tuple[int, ...] = ()

    def __add__(self, other: "AffineWeight") -> "AffineWeight":
        self._check(other)
        if self.p == 0:
            acc = dict(self.gamma)
            for idx, c in other.gamma:
                acc[idx] = acc.get(idx, 0) + c
            return gamma_weight(acc)
        return AffineWeight(
            self.p,
            (),
            self.delta + other.delta,
            tuple(a + b for a, b in zip(self.lambdas, other.lambdas)),
        )

    def __sub__(self, other: "AffineWeight") -> "AffineWeight":
        return self + (-other)

    def __neg__(self) -> "AffineWeight":
        if self.p == 0:
            return AffineWeight(0, tuple((i, -c) for i, c in self.gamma))
        return AffineWeight(self.p, (), -self.delta, tuple(-c for c in self.lambdas))

    def scale(self, k: int) -> "AffineWeight":
        if self.p == 0:
            return gamma_weight({i: k * c for i, c in self.gamma})
        return AffineWeight(
            self.p, (), k * self.delta, tuple(k * c for c in self.lambdas)
        )

    def _check(self, other: "AffineWeight") -> None:
        if self.p != other.p:
            raise ValueError("affine weights live in different characteristics")

    def to_json(self) -> dict:
        if self.p == 0:
            return {"gamma": {str(i): c for i, c in self.gamma}}
        return {"delta": self.delta, "lambda": list(self.lambdas)}

    @staticmethod
    def from_key(p: int, key: tuple) -> "AffineWeight":
        """The weight whose ``wt_key`` form is key."""
        if p == 0:
            return AffineWeight(0, key)
        return AffineWeight(p, (), key[0], key[1:])


def gamma_weight(coeffs: Dict[int, int]) -> AffineWeight:
    """Build a p=0 affine weight from a gamma-coefficient map."""
    return AffineWeight(0, tuple(sorted((i, c) for i, c in coeffs.items() if c)))


def lambda_of(p: int, r: int) -> AffineWeight:
    """The fundamental weight Lambda_r (p > 0 only)."""
    if p <= 0:
        raise ValueError("Lambda_r exists only in positive characteristic")
    lambdas = [0] * p
    lambdas[r % p] = 1
    return AffineWeight(p, (), 0, tuple(lambdas))


def delta_of(p: int) -> AffineWeight:
    if p <= 0:
        raise ValueError("delta exists only in positive characteristic")
    return AffineWeight(p, (), 1, (0,) * p)


@lru_cache(maxsize=None)
def gamma_of(p: int, a: int) -> AffineWeight:
    """The element gamma_a.

    p = 0: the basis vector gamma_a.  p > 0: write a = p*d + s with
    s in {1..p}; then gamma_a = Lambda_s - Lambda_{s-1} - d*delta
    (indices mod p, so Lambda_p = Lambda_0).  Tests check ``wt_key`` against
    wt summed letter by letter in gamma_a.
    """
    if p == 0:
        return gamma_weight({a: 1})
    s = ((a - 1) % p) + 1
    d = (a - s) // p
    out = lambda_of(p, s) - lambda_of(p, s - 1)
    return AffineWeight(p, (), out.delta - d, out.lambdas)


@lru_cache(maxsize=None)
def alpha_of(p: int, r: int) -> AffineWeight:
    """The simple root alpha_r."""
    if p == 0:
        return gamma_weight({r: 1, r + 1: -1})
    out = lambda_of(p, r).scale(2) - lambda_of(p, r - 1) - lambda_of(p, r + 1)
    if r % p == 0:
        out = out + delta_of(p)
    return out


@lru_cache(maxsize=None)
def gram_matrix(p: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """Gram matrix of the form on (delta, Lambda_0..Lambda_{p-1}).

    Duality of (delta, Lambda_0..Lambda_{p-1}) with (Lambda_0,
    alpha_0..alpha_{p-1}) gives (delta, delta) = 0, (delta, Lambda_i) = 1
    and (Lambda_i, Lambda_j) = min(i, j) - ij/p.
    """
    if p <= 0:
        raise ValueError("the Gram matrix is only defined for p > 0")
    first = (Fraction(0),) + (Fraction(1),) * p
    return (first,) + tuple(
        (Fraction(1),) + tuple(min(i, j) - Fraction(i * j, p) for j in range(p))
        for i in range(p)
    )


def pair_P(x: AffineWeight, y: AffineWeight) -> Fraction:
    """The symmetric bilinear form on P, as an exact rational: the Gram-matrix
    route that tests check ``alpha_pairing`` against."""
    if x.p != y.p:
        raise ValueError("affine weights live in different characteristics")
    if x.p == 0:
        ya = dict(y.gamma)
        return Fraction(sum(c * ya.get(i, 0) for i, c in x.gamma))
    g = gram_matrix(x.p)
    xs = [x.delta] + list(x.lambdas)
    ys = [y.delta] + list(y.lambdas)
    return sum(
        (xs[i] * g[i][j] * ys[j] for i in range(len(xs)) for j in range(len(ys))),
        Fraction(0),
    )


def wt_key(p: int, signs: Sequence[int], down: Sequence[int]) -> tuple:
    """wt = sum_i signs_i * gamma_{b_i} over the letters b_i = down_i + [even].

    p > 0: the int tuple (delta, Lambda_0..Lambda_{p-1}) of coefficients,
    using gamma_b = Lambda_s - Lambda_{s-1} - d*delta for b = p*d + s with
    s in {1..p}.  p = 0: the sorted nonzero (b, coeff) pairs, which is
    ``AffineWeight.gamma``.
    """
    if p:
        acc = [0] * (p + 1)
        for s, d in zip(signs, down):
            # b - 1 = p*q + t, so gamma_b = Lambda_{t+1} - Lambda_t - q*delta
            q, t = divmod(d if s > 0 else d - 1, p)
            acc[0] -= s * q
            acc[1 + t] -= s
            acc[1 + (t + 1) % p] += s
        return tuple(acc)
    coeffs: Dict[int, int] = {}
    for s, d in zip(signs, down):
        b = d + 1 if s > 0 else d
        coeffs[b] = coeffs.get(b, 0) + s
    return tuple(sorted((b, c) for b, c in coeffs.items() if c))


def alpha_pairing(p: int, key: tuple, r: int) -> int:
    """<wt, alpha_r> for the weight whose ``wt_key`` form is key.

    p > 0: the Lambda_r coefficient, entry 1 + r % p, since (delta,
    Lambda_0..Lambda_{p-1}) and (Lambda_0, alpha_0..alpha_{p-1}) are dual
    bases.  p = 0: coeff(gamma_r) - coeff(gamma_{r+1}).
    """
    if p:
        return key[1 + r % p]
    out = 0
    for b, c in key:
        if b == r:
            out += c
        elif b == r + 1:
            out -= c
    return out


def wt_of(ctx: ParityContext, lam: Weight) -> AffineWeight:
    """The affine weight wt(lam) = sum_i (-1)**parity_i * gamma_{(lam+rho, eps_i)}."""
    down, _ = residue_vectors(ctx, lam)
    return AffineWeight.from_key(ctx.p, wt_key(ctx.p, ctx.signs, down))


def ab_key(p: int, down: Sequence[int], up: Sequence[int]) -> tuple:
    """A_r - B_r for every residue r, in one pass over the residue vectors.

    A_r counts the positions with up_i = r, B_r those with down_i = r (mod p).
    p > 0: the p-tuple indexed by r.  p = 0: the sorted (r, A_r - B_r) pairs
    with A_r != B_r.
    """
    if p:
        acc = [0] * p
        for d, u in zip(down, up):
            acc[u % p] += 1
            acc[d % p] -= 1
        return tuple(acc)
    diff: Dict[int, int] = {}
    for d, u in zip(down, up):
        diff[u] = diff.get(u, 0) + 1
        diff[d] = diff.get(d, 0) - 1
    return tuple(sorted((r, c) for r, c in diff.items() if c))


def ab_counts(ctx: ParityContext, lam: Weight, r: int) -> Tuple[int, int]:
    """(A_r, B_r): counts of positions with r_i(lam+eps_i) == r resp. r_i(lam) == r."""
    down, up = residue_vectors(ctx, lam)
    a = sum(1 for v in up if ctx.congruent(v, r))
    b = sum(1 for v in down if ctx.congruent(v, r))
    return a, b
