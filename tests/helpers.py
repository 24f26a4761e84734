"""Shared test data: the paper's worked example and residue classes to probe."""

from supercrystals.weights import build_context

PAPER_PARITIES = (1, 1, 0, 0, 0)
PAPER_LAM = (1, -1, 1, 7, 5)


def paper_ctx(p=3):
    return build_context(3, 2, PAPER_PARITIES, p)


def residue_classes(p, keys):
    """Every class mod p > 0; at p = 0 the keys, their neighbours and a far value."""
    if p:
        return range(p)
    return sorted({k + d for k in keys for d in (-1, 0, 1)} | {max(keys) + 5})
