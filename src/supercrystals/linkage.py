"""Central-character combinatorics: Z_r(lam), G_lam(t), and block partitions.

One kernel, ``series_coeffs``, expands the residue series; ``parity_term`` is
the Z_r shift that ``z_scalar``, ``z_scalars`` and ``pbw.z_element`` read.
``z_scalars`` reads every Z_r(lam) up to a bound off one series per weight.
``TruncatedSeries`` is a slotted dataclass compared and hashed by value; it is
not frozen, which would cost every ``g_series`` and product an
``object.__setattr__``, so callers treat it as immutable, as they do
``affine.AffineWeight``."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .affine import AffineWeight, wt_of
from .weights import ParityContext, Weight, residue_vectors


@dataclass(slots=True, unsafe_hash=True)
class TruncatedSeries:
    """Series in u = t^{-1} truncated at order N: coeffs[k] is the u^k term.

    Coefficients are exact rationals; integer inputs stay plain integers,
    which keeps the products arising here fast.
    """

    coeffs: Tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return TruncatedSeries(tuple(out))


def series_coeffs(down: Sequence[int], up: Sequence[int], n: int) -> List[int]:
    """Coefficients of prod_i (1 - up_i u) / (1 - down_i u) up to u^n.

    Each factor (1 - a u) / (1 - d u) is applied in place in one ascending
    O(n) pass: new c_k = old c_k - a old c_{k-1} + d new c_{k-1}, which
    multiplies by 1 - a u and divides by 1 - d u at once; c_0 stays 1.
    """
    coeffs = [1] + [0] * n
    for d, a in zip(down, up):
        old_prev = new_prev = 1
        for k in range(1, n + 1):
            old = coeffs[k]
            new_prev = coeffs[k] = old - a * old_prev + d * new_prev
            old_prev = old
    return coeffs


@lru_cache(maxsize=1024)
def parity_term(signs: Tuple[int, ...], r: int) -> int:
    """[u^{r+1}] prod_k (1 - s_k u) = (-1)**(r+1) e_{r+1}(s), 0 once r >= len(s).

    The constant shift of Z_r (see ``z_scalar``), cached per (signs, r)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return series_coeffs([0] * len(signs), signs, r + 1)[r + 1]


def z_scalar(ctx: ParityContext, lam: Weight, r: int) -> int:
    """Z_r(lam), the scalar by which the central element Z_r acts on v_lam.

    By definition the alternating residue-power sum over s = 1..r, index
    tuples k_1 < ... < k_s and nonnegative compositions a_1 + ... + a_s =
    r - s + 1 of (-1)**(s-1) (-1)**(parity sum) r_{k_1}^{a_1} ... r_{k_s}^{a_s}.
    Computed in O(k r) by the closed form

        Z_r(lam) = [u^{r+1}] prod_k (1 - s_k u) - [u^{r+1}] G_lam(u),

    s_k = (-1)**parity_k, read off ``parity_term`` and ``series_coeffs``.
    The exponential sum is the test oracle (``exponential_z`` in
    ``tests/test_linkage.py``).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    down, up = residue_vectors(ctx, lam)
    return parity_term(ctx.signs, r) - series_coeffs(down, up, r + 1)[r + 1]


def z_scalars(ctx: ParityContext, lam: Weight, max_r: int) -> List[int]:
    """[Z_1(lam), ..., Z_max_r(lam)], the closed form of ``z_scalar`` read off
    one ``residue_vectors`` pass and one series of order max_r + 1.

    ``z_scalar`` keeps its own single-coefficient body: for one r it is the
    cheaper call.
    """
    if max_r < 1:
        raise ValueError("r must be >= 1")
    down, up = residue_vectors(ctx, lam)
    coeffs = series_coeffs(down, up, max_r + 1)
    return [parity_term(ctx.signs, r) - coeffs[r + 1] for r in range(1, max_r + 1)]


def g_series(ctx: ParityContext, lam: Weight, n: int) -> TruncatedSeries:
    """G_lam(t) = prod_i (t - r_i(lam+eps_i)) / (t - r_i(lam)), order n in t^{-1}."""
    if n < 1:
        raise ValueError("truncation order must be >= 1")
    down, up = residue_vectors(ctx, lam)
    return TruncatedSeries(tuple(series_coeffs(down, up, n)))


def g_series_presented(ctx: ParityContext, lam: Weight, n: int) -> TruncatedSeries:
    """The paper's presentation 1 - sum_{r>=1} Z_r(lam) u^{r+1} of the same object.

    This is NOT equal to g_series.  With s_i = (-1)**parity_i and Z_0 = 0,

        [u^{r+1}] G_lam(u) = -Z_r(lam) - (-1)**r e_{r+1}(s_1..s_k)   (r >= 0),

    so the presented series lacks exactly the elementary symmetric term
    e_{r+1}(s): at u^1 the constant -(m-n), and nothing once r >= m+n.  The
    missing terms depend on the parities alone, so both series separate the
    same weights; ``partition_blocks`` groups by ``wt_of``, not by either series.
    """
    if n < 1:
        raise ValueError("truncation order must be >= 1")
    # Z_1..Z_{n-1}; at n = 1 the series stops before the first of them
    zs = z_scalars(ctx, lam, n - 1) if n > 1 else []
    return TruncatedSeries((1, 0) + tuple(-z for z in zs))


def default_order(ctx: ParityContext) -> int:
    """The series order C6 compares at rank k: 2k + 2.

    Reduced, the residue series prod_i (1 - up_i u) / (1 - down_i u) is P/Q
    with deg P, deg Q <= k and Q(0) = 1.  Two such quotients that agree up to
    u^{2k} are equal, over Q and over F_p alike (Padé uniqueness), so 2k
    coefficients fix the reduced divisor sum [up_i] - sum [down_i], the A-B
    data.  At 2k - 1 the acceptance C6 fails ("series equal, data differ");
    2k + 2 is kept.
    """
    return 2 * ctx.rank + 2


def partition_blocks(
    ctx: ParityContext, weights: Sequence[Weight]
) -> List[Tuple[AffineWeight, List[Weight]]]:
    """Group weights by wt value, each weight once; blocks and the weights in
    them keep first-occurrence order, the insertion order of the dicts."""
    blocks: Dict[AffineWeight, List[Weight]] = {}
    for w in dict.fromkeys(tuple(w) for w in weights):
        blocks.setdefault(wt_of(ctx, w), []).append(w)
    return list(blocks.items())
