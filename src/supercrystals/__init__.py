"""Exact combinatorics of the dual crystal structure on GL(m|n) weights.

Modules:
    weights    -- the weight lattice, residues, parity flip
    affine     -- the affine lattice P, simple roots, bilinear form, wt
    crystal    -- signatures, star operators, normality, odd reflections
    tensorrule -- independent tensor-product oracle for the star operators
    graph      -- crystal-graph exploration and DOT/JSON export
    linkage    -- central-character scalars, series, block partitions
    pbw        -- symbolic enveloping-algebra engine and lowering operators
    sweeps     -- exhaustive verification suites
    cli        -- command-line interface
"""

from .weights import ParityContext, build_context
from .affine import AffineWeight
from .crystal import IndexClass, Signature

__all__ = [
    "AffineWeight",
    "IndexClass",
    "ParityContext",
    "Signature",
    "build_context",
]

__version__ = "0.1.0"
