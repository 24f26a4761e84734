"""Independent oracle for the star operators via elementary crystals.

A weight corresponds bijectively to a word of letters b_i = (lam+rho, eps_i),
viewed as a tensor product of one-letter elementary crystals (one per
position, even or odd by the context parity).  The dual operators are

    e*_r(x) = -f_{-1-r}(-x),    f*_r(x) = -e_{-1-r}(-x),

where -x negates every letter and e/f act by the recursive Kashiwara tensor
rule.  None of the signature machinery is used here.

The rule is one kernel, ``dual_moves``, over the negated letter word that the
caller computes once per weight.  ``dual_oracle`` and ``dual_eps_phi`` are
thin wrappers over it, and the oracle sweep calls it directly.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .weights import ParityContext, Weight, check_weight

NEG_INF = float("-inf")


def letters_of(ctx: ParityContext, lam: Weight) -> Tuple[int, ...]:
    """The letter word b_i = (lam+rho, eps_i) = sign_i * (lam_i + rho_i)."""
    check_weight(ctx, lam)
    return tuple(s * (x + rho) for s, x, rho in zip(ctx.signs, lam, ctx.rho))


def weight_of_letters(ctx: ParityContext, letters: Tuple[int, ...]) -> Weight:
    """Inverse of letters_of: lam_i = sign_i * b_i - rho_i."""
    return tuple(s * b - rho for s, b, rho in zip(ctx.signs, letters, ctx.rho))


def dual_moves(
    p: int, signs: Sequence[int], lam: Weight, neg: Sequence[int], r: int
) -> Tuple[Optional[Weight], Optional[Weight], Tuple[int, int]]:
    """(e*_r lam, f*_r lam, (eps*_r, phi*_r)) by the tensor rule on neg = -b.

    With r' = -1-r, a one-letter crystal c at an even position (signs 1) has
    eps_r' = [r'+1 = c] and phi_r' = [r' = c]; e_r' sends c to c-1 and f_r'
    sends c to c+1 where defined.  At an odd position r' and r'+1 trade
    places and e, f move c the other way.  Folding (((x1 x2) x3) ...) with
    the Kashiwara rule gives, for the prefix of length j,
        eps = max(eps_prev, eps_j - h_sum_prev)
        phi = max(phi_j, phi_prev + h_j)
    where h = phi - eps per letter and h_sum is its running total.  The twist
    swaps eps and phi, so (eps*, phi*) = (phi, eps) of the whole word.
    """
    r2 = -1 - r
    rank = len(neg)
    eps_loc = []
    phi_loc = []
    for s, c in zip(signs, neg):
        if p:
            at_r = 1 if (c - r2) % p == 0 else 0
            at_r1 = 1 if (c - r2 - 1) % p == 0 else 0
        else:
            at_r = 1 if c == r2 else 0
            at_r1 = 1 if c == r2 + 1 else 0
        if s > 0:
            eps_loc.append(at_r1)
            phi_loc.append(at_r)
        else:
            eps_loc.append(at_r)
            phi_loc.append(at_r1)
    eps_pre = [NEG_INF] * (rank + 1)  # the empty prefix: nothing to raise
    phi_pre = [NEG_INF] * (rank + 1)
    h_sum = 0
    for j in range(rank):
        e, f = eps_loc[j], phi_loc[j]
        eps_pre[j + 1] = max(eps_pre[j], e - h_sum)
        phi_pre[j + 1] = max(f, phi_pre[j] + (f - e))
        h_sum += f - e
    # lam_q = -sign_q * c_q - rho_q, and the letter c_q moves by sign_q under
    # f_r' and by -sign_q under e_r', so lam_q moves by -1 resp. +1
    # e*_r(x) = -f_r'(-x): f acts on the last letter q whose eps is at least
    # the phi of the prefix before it
    e_w = None
    if phi_pre[rank] > 0:
        q = rank - 1
        while q > 0 and phi_pre[q] > eps_loc[q]:
            q -= 1
        if phi_loc[q]:
            e_w = lam[:q] + (lam[q] - 1,) + lam[q + 1 :]
    # f*_r(x) = -e_r'(-x): e acts on the last letter q whose eps exceeds the
    # phi of the prefix before it
    f_w = None
    if eps_pre[rank] > 0:
        q = rank - 1
        while q > 0 and phi_pre[q] >= eps_loc[q]:
            q -= 1
        if eps_loc[q]:
            f_w = lam[:q] + (lam[q] + 1,) + lam[q + 1 :]
    return e_w, f_w, (max(0, phi_pre[rank]), max(0, eps_pre[rank]))


def _moves(ctx: ParityContext, lam: Weight, r: int):
    lam = tuple(lam)
    return dual_moves(ctx.p, ctx.signs, lam, [-b for b in letters_of(ctx, lam)], r)


def dual_oracle(
    ctx: ParityContext, lam: Weight, r: int, which: str
) -> Optional[Weight]:
    """Compute e*_r or f*_r of lam through the tensor-rule dual twist."""
    if which not in ("e", "f"):
        raise ValueError(f"which must be 'e' or 'f', got {which!r}")
    return _moves(ctx, lam, r)[0 if which == "e" else 1]


def dual_eps_phi(ctx: ParityContext, lam: Weight, r: int) -> Tuple[int, int]:
    """(eps*_r, phi*_r) of lam via the tensor-rule twist."""
    return _moves(ctx, lam, r)[2]
