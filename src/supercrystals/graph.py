"""Crystal-graph exploration and DOT/JSON export.

``crystal_component`` reads both star moves of every residue of a node off
one ``crystal.reduced_table``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .crystal import read_moves, reduced_table
from .weights import ParityContext, Weight, check_weight, residue_vectors


@dataclass
class CrystalGraph:
    """Directed labeled graph over weights; nodes keyed by coefficient tuple."""

    nodes: List[Weight] = field(default_factory=list)
    edges: List[Tuple[Weight, Weight, int, str]] = field(default_factory=list)

    def to_json(self) -> dict:
        index = {w: i for i, w in enumerate(self.nodes)}
        return {
            "nodes": [list(w) for w in self.nodes],
            "edges": [
                {"from": index[a], "to": index[b], "r": r, "dir": d}
                for a, b, r, d in self.edges
            ],
        }

    def to_dot(self) -> str:
        index = {w: i for i, w in enumerate(self.nodes)}
        lines = ["digraph crystal {"]
        for i, w in enumerate(self.nodes):
            label = ",".join(str(c) for c in w)
            lines.append(f'  n{i} [label="{label}"];')
        for a, b, r, d in sorted(
            self.edges, key=lambda e: (index[e[0]], index[e[1]], e[2], e[3])
        ):
            lines.append(f'  n{index[a]} -> n{index[b]} [label="r={r},{d}"];')
        lines.append("}")
        return "\n".join(lines)


def crystal_component(
    ctx: ParityContext, lam: Weight, max_steps: int
) -> CrystalGraph:
    """Breadth-first exploration by e*/f* up to max_steps applications.

    An edge (a, b, r, d) records the move that discovered it: b = e*_r(a)
    when d is "e" and b = f*_r(a) when d is "f".  Each unordered pair and
    residue keeps only its first-discovered edge, so an e-edge is never
    repeated as the f-edge back.  Node order is discovery order, which is
    deterministic: residues in increasing order, e before f.

    Per node it calls ``weights.residue_vectors`` and
    ``crystal.reduced_table`` once, and reads both moves of each residue of
    the table off it with ``crystal.read_moves``.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    check_weight(ctx, lam)
    lam = tuple(lam)
    p = ctx.p
    graph = CrystalGraph(nodes=[lam])
    seen: Dict[Weight, int] = {lam: 0}
    edge_set = set()
    queue = deque([(lam, 0)])
    while queue:
        w, dist = queue.popleft()
        if dist >= max_steps:
            continue
        down, up = residue_vectors(ctx, w)
        table = reduced_table(p, down, up)
        for r in sorted(table):
            minus, plus = table[r]
            e_w, f_w, _ = read_moves(w, minus, plus)
            for which, out in (("e", e_w), ("f", f_w)):
                if out is None:
                    continue
                if out not in seen:
                    seen[out] = dist + 1
                    graph.nodes.append(out)
                    queue.append((out, dist + 1))
                # one edge per unordered pair and residue; keep the
                # first-discovered orientation and direction label
                key = (min(w, out), max(w, out), r)
                if key not in edge_set:
                    edge_set.add(key)
                    graph.edges.append((w, out, r, which))
    return graph
