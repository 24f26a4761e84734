"""Tests for crystal-component exploration and DOT/JSON export."""

import itertools
import json
import random
from collections import deque

import pytest
from helpers import PAPER_LAM, paper_ctx

from supercrystals.crystal import e_star, f_star, relevant_residues
from supercrystals.graph import CrystalGraph, crystal_component
from supercrystals.weights import build_context


def test_depth_zero_single_node():
    g = crystal_component(paper_ctx(), PAPER_LAM, 0)
    assert g.nodes == [PAPER_LAM]
    assert g.edges == []


def test_list_weight_gives_the_tuple_graph():
    ctx = paper_ctx()
    for depth in (0, 1, 2):
        got = crystal_component(ctx, list(PAPER_LAM), depth)
        want = crystal_component(ctx, PAPER_LAM, depth)
        assert got.nodes == want.nodes and got.edges == want.edges, depth
        assert got.to_json() == want.to_json() and got.to_dot() == want.to_dot()


def test_negative_depth_rejected():
    with pytest.raises(ValueError):
        crystal_component(paper_ctx(), PAPER_LAM, -1)


def test_rank_one_chain():
    ctx = build_context(1, 0, (0,), 0)
    g = crystal_component(ctx, (0,), 2)
    assert sorted(g.nodes) == [(-2,), (-1,), (0,), (1,), (2,)]
    # a chain has one f-edge between consecutive weights
    assert len(g.edges) == 4


def test_worked_example_depth_one():
    g = crystal_component(paper_ctx(), PAPER_LAM, 1)
    assert set(g.nodes) == {
        PAPER_LAM,
        (0, -1, 1, 7, 5),  # e*_1 removes eps_1
        (1, -1, 1, 6, 5),  # e*_2 removes eps_4
        (1, -1, 1, 7, 6),  # f*_0 adds eps_5
    }
    labels = {(r, d) for _, _, r, d in g.edges}
    assert labels == {(1, "e"), (2, "e"), (0, "f")}
    assert len(g.edges) == 3
    for a, b, r, d in g.edges:
        assert b == (e_star if d == "e" else f_star)(paper_ctx(), a, r)


def test_json_schema():
    g = crystal_component(paper_ctx(), PAPER_LAM, 1)
    data = g.to_json()
    assert len(data["nodes"]) == 4
    for edge in data["edges"]:
        assert set(edge) == {"from", "to", "r", "dir"}
        assert 0 <= edge["from"] < 4 and 0 <= edge["to"] < 4
        assert edge["dir"] in ("e", "f")


def test_dot_is_deterministic_and_labeled():
    g = crystal_component(paper_ctx(), PAPER_LAM, 1)
    dot = g.to_dot()
    assert dot == crystal_component(paper_ctx(), PAPER_LAM, 1).to_dot()
    assert dot.startswith("digraph crystal {")
    assert 'label="1,-1,1,7,5"' in dot
    assert dot.count("->") == 3


def bfs_oracle(ctx, lam, max_steps):
    """The component by e_star/f_star calls, one per node, residue and move."""
    graph = CrystalGraph(nodes=[lam])
    seen = {lam}
    edge_set = set()
    queue = deque([(lam, 0)])
    while queue:
        w, dist = queue.popleft()
        if dist >= max_steps:
            continue
        for r in relevant_residues(ctx, w):
            for which, op in (("e", e_star), ("f", f_star)):
                out = op(ctx, w, r)
                if out is None:
                    continue
                if out not in seen:
                    seen.add(out)
                    graph.nodes.append(out)
                    queue.append((out, dist + 1))
                key = (min(w, out), max(w, out), r)
                if key not in edge_set:
                    edge_set.add(key)
                    graph.edges.append((w, out, r, which))
    return graph


def test_component_matches_the_star_operator_bfs():
    rng = random.Random(5)
    for rank in range(1, 6):
        for parities in itertools.product((0, 1), repeat=rank):
            m = parities.count(0)
            for p in (0, 2, 3, 5, 7):
                ctx = build_context(m, rank - m, parities, p)
                lam = tuple(rng.randint(-5, 5) for _ in range(rank))
                for depth in range(4):
                    got = crystal_component(ctx, lam, depth)
                    want = bfs_oracle(ctx, lam, depth)
                    assert got.nodes == want.nodes, (ctx, lam, depth)
                    assert got.edges == want.edges, (ctx, lam, depth)
                    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
                    assert got.to_dot() == want.to_dot()


def test_wrong_length_weight_rejected():
    with pytest.raises(ValueError):
        crystal_component(paper_ctx(), PAPER_LAM[:4], 0)
