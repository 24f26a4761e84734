"""Tests for crystal-component exploration and DOT/JSON export."""

import pytest

from supercrystals.crystal import e_star, f_star
from supercrystals.graph import crystal_component
from supercrystals.weights import build_context

PAPER_PARITIES = (1, 1, 0, 0, 0)
PAPER_LAM = (1, -1, 1, 7, 5)


def paper_ctx(p=3):
    return build_context(3, 2, PAPER_PARITIES, p)


def test_depth_zero_single_node():
    g = crystal_component(paper_ctx(), PAPER_LAM, 0)
    assert g.nodes == [PAPER_LAM]
    assert g.edges == []


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
