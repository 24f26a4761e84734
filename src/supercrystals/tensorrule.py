"""Independent oracle for the star operators via elementary crystals.

A weight corresponds bijectively to a word of letters b_i = (lam+rho, eps_i),
viewed as a tensor product of one-letter elementary crystals (one per
position, even or odd by the context parity).  The dual operators are

    e*_r(x) = -f_{-1-r}(-x),    f*_r(x) = -e_{-1-r}(-x),

where -x negates every letter and e/f act by the recursive Kashiwara tensor
rule.  None of the signature machinery is used here.

The rule is one fold, ``_fold``, over the letters of the negated word that
are nontrivial for one residue; the caller computes the word b once per
weight with ``letters_of``.  The fold is a plain-int pass that starts from
the first letter of the bucket (an empty bucket is the trivial crystal).
``dual_moves`` builds the bucket of one residue, comparing r, r+1 and each
letter mod p, and folds it; ``dual_table`` puts each letter straight into
its two buckets, r = b-1 and r = b, in one pass and folds every bucket.
``dual_oracle`` and ``dual_eps_phi`` are thin wrappers over ``dual_moves``;
the oracle sweep reads ``dual_table``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .weights import ParityContext, Weight, check_weight


def letters_of(ctx: ParityContext, lam: Weight) -> List[int]:
    """The letter word b_i = (lam+rho, eps_i) = sign_i * (lam_i + rho_i)."""
    check_weight(ctx, lam)
    return [s * (x + rho) for s, x, rho in zip(ctx.signs, lam, ctx.rho)]


def weight_of_letters(ctx: ParityContext, letters: Sequence[int]) -> Weight:
    """Inverse of letters_of: lam_i = sign_i * b_i - rho_i."""
    check_weight(ctx, letters)
    return tuple(s * b - rho for s, b, rho in zip(ctx.signs, letters, ctx.rho))


def dual_moves(
    p: int, signs: Sequence[int], lam: Weight, letters: Sequence[int], r: int
) -> Tuple[Optional[Weight], Optional[Weight], Tuple[int, int]]:
    """(e*_r lam, f*_r lam, (eps*_r, phi*_r)) by the tensor rule on c = -b.

    With r' = -1-r, a one-letter crystal c at an even position (signs 1) has
    eps_r' = [r'+1 = c] and phi_r' = [r' = c]; e_r' sends c to c-1 and f_r'
    sends c to c+1 where defined.  At an odd position r' and r'+1 trade
    places and e, f move c the other way.  A letter with eps and phi both 0
    is the trivial crystal and leaves the tensor product unchanged, so only
    c = r' (b = r+1) and c = r'+1 (b = r) go into the bucket ``_fold`` reads;
    at p > 0, r, r+1 and each letter are compared mod p.
    """
    at_r, at_r1 = r + 1, r  # the letters b with c = r' and c = r'+1
    if p:
        at_r, at_r1 = at_r % p, at_r1 % p
    bucket = []
    for q in range(len(letters)):
        b = letters[q] % p if p else letters[q]
        if b == at_r:
            bucket.append((q, 0, 1) if signs[q] > 0 else (q, 1, 0))
        elif b == at_r1:
            bucket.append((q, 1, 0) if signs[q] > 0 else (q, 0, 1))
    return _fold(lam, bucket)


def dual_table(
    p: int, signs: Sequence[int], lam: Weight, letters: Sequence[int]
) -> Dict[int, Tuple[Optional[Weight], Optional[Weight], Tuple[int, int]]]:
    """``dual_moves`` for every residue class at once, in one pass over b.

    Letter c = -b is nontrivial for r' = c (r = b-1) and r' = c-1 (r = b)
    only, so one pass puts each letter into those two buckets, keyed by r
    mod p when p > 0, and ``_fold`` reads each bucket.  A class that is not
    a key has no nontrivial letter: both moves are None and both counters 0.
    """
    buckets: Dict[int, list] = {}
    for q in range(len(letters)):
        b = letters[q]
        # (q, [r'+1 = c], [r' = c]) at r = b-1, then at r = b
        if signs[q] > 0:
            low, high = (q, 0, 1), (q, 1, 0)
        else:
            low, high = (q, 1, 0), (q, 0, 1)
        r = (b - 1) % p if p else b - 1
        bucket = buckets.get(r)
        if bucket is None:
            buckets[r] = [low]
        else:
            bucket.append(low)
        r = b % p if p else b
        bucket = buckets.get(r)
        if bucket is None:
            buckets[r] = [high]
        else:
            bucket.append(high)
    return {r: _fold(lam, bucket) for r, bucket in buckets.items()}


def _fold(
    lam: Weight, bucket: Sequence[Tuple[int, int, int]]
) -> Tuple[Optional[Weight], Optional[Weight], Tuple[int, int]]:
    """The tensor rule on the letters (q, eps_q, phi_q) of one r', q increasing.

    Folding (((x1 x2) x3) ...) with the Kashiwara rule gives, for the prefix
    of length j > 1,
        eps = max(eps_prev, eps_j - h_sum_prev)
        phi = max(phi_j, phi_prev + h_j)
    where h = phi - eps per letter and h_sum is its running total; the
    prefix of length 1 is the first letter itself, so every value is a
    nonnegative int.  The twist swaps eps and phi, so (eps*, phi*) = (phi,
    eps) of the whole word.  An empty bucket is the trivial crystal.
    """
    if not bucket:
        return None, None, (0, 0)
    _, eps_all, phi_all = bucket[0]
    h_sum = phi_all - eps_all
    phi_before = [0]  # phi of the prefix before each letter; the first is never read
    for j in range(1, len(bucket)):
        _, e, f = bucket[j]
        phi_before.append(phi_all)
        if e - h_sum > eps_all:
            eps_all = e - h_sum
        h = f - e
        phi_all += h
        if f > phi_all:
            phi_all = f
        h_sum += h
    # lam_q = -sign_q * c_q - rho_q, and the letter c_q moves by sign_q under
    # f_r' and by -sign_q under e_r', so lam_q moves by -1 resp. +1
    # e*_r(x) = -f_r'(-x): f acts on the last letter q whose eps is at least
    # the phi of the prefix before it
    e_w = None
    if phi_all > 0:
        k = len(bucket) - 1
        while k > 0 and phi_before[k] > bucket[k][1]:
            k -= 1
        q, _, f = bucket[k]
        if f:
            e_w = lam[:q] + (lam[q] - 1,) + lam[q + 1 :]
    # f*_r(x) = -e_r'(-x): e acts on the last letter q whose eps exceeds the
    # phi of the prefix before it
    f_w = None
    if eps_all > 0:
        k = len(bucket) - 1
        while k > 0 and phi_before[k] >= bucket[k][1]:
            k -= 1
        q, e, _ = bucket[k]
        if e:
            f_w = lam[:q] + (lam[q] + 1,) + lam[q + 1 :]
    return e_w, f_w, (phi_all, eps_all)


def _moves(ctx: ParityContext, lam: Weight, r: int):
    lam = tuple(lam)
    return dual_moves(ctx.p, ctx.signs, lam, letters_of(ctx, lam), r)


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
