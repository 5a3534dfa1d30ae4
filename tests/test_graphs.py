"""The shared graph searches against networkx as an independent reference,
the certificates read from them, and a guard against new hand-rolled walks."""
from __future__ import annotations

import ast
import pathlib

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sftlab
import sftlab.transducers as tr
from sftlab.errors import Starvation
from sftlab.graphs import bfs, find_cycle, path


@st.composite
def digraphs(draw):
    """Successor lists in edge insertion order, and the same digraph in
    networkx (whose successors also come in insertion order)."""
    n = draw(st.integers(1, 8))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return [list(g.successors(u)) for u in range(n)], g


def _step(succ):
    return lambda u: (((u, v), v) for v in succ[u])


def _reference(g: nx.DiGraph, starts):
    """Discovery order and parents of a breadth-first search from several
    starts: networkx BFS from a super source wired to the starts in order."""
    h = g.copy()
    h.add_edges_from(("src", s) for s in starts)
    tree = list(nx.bfs_edges(h, "src"))
    order = [v for _u, v in tree]
    parents = {v: (None if u == "src" else u) for u, v in tree}
    return order, parents


@given(digraphs(), st.data())
def test_bfs_matches_networkx(graph, data):
    succ, g = graph
    starts = data.draw(st.lists(st.integers(0, len(succ) - 1), min_size=1,
                                max_size=3, unique=True))
    parents = bfs(starts, _step(succ))
    order, ref_parents = _reference(g, starts)
    assert list(parents) == order
    assert {v: None if p is None else p[0] for v, p in parents.items()} == ref_parents


@given(digraphs(), st.data())
def test_goal_stops_at_its_discovery(graph, data):
    succ, g = graph
    goal = data.draw(st.integers(0, len(succ) - 1))
    order, _ = _reference(g, [0])
    parents = bfs([0], _step(succ), goal)
    want = order[:order.index(goal) + 1] if goal in order else order
    assert list(parents) == want


@given(digraphs())
def test_path_reproduces_tree_edges(graph):
    succ, g = graph
    parents = bfs([0], _step(succ))
    for node in parents:
        labels = path(parents, node)
        assert len(labels) == nx.shortest_path_length(g, 0, node)
        at = 0
        for u, v in labels:
            assert u == at and parents[v] == (u, (u, v))
            at = v
        assert at == node


@given(digraphs())
def test_find_cycle_matches_networkx(graph):
    succ, g = graph
    node = find_cycle(succ)
    if nx.is_directed_acyclic_graph(g):
        assert node is None
    else:
        assert node is not None
        assert any(node == v or nx.has_path(g, v, node) for v in succ[node])


def test_starvation_names_the_first_silent_cycle(fib):
    rules = [(0, 0, 1, (0,)), (0, 1, 1, (1,)), (1, 0, 2, ()), (1, 1, 1, (1,)),
             (2, 0, 1, ()), (2, 1, 1, ())]
    with pytest.raises(Starvation, match=r"^cycle through state 1 emits no output$"):
        tr.make_transducer(fib, fib, rules)


def test_unequal_witness_is_the_first_split(full2):
    """Copies two symbols, then flips every symbol."""
    rules = [(0, 0, 1, (0,)), (0, 1, 1, (1,)), (1, 0, 2, (0,)), (1, 1, 2, (1,)),
             (2, 0, 2, (1,)), (2, 1, 2, (0,))]
    flip = tr.make_transducer(full2, full2, rules)
    result = tr.equivalent_maps(tr.identity_transducer(full2), flip)
    assert (result.status, result.witness) == ("unequal", (0, 0, 0))


# Loops that stay hand-written, each with its reason at the loop.
_KEPT_WALKS = {"cohomology.class_is_zero"}
_WALK_PATTERNS = ("while frontier", "while pending", "color = [0]", "while queue",
                  "while stack", " in queue:", " in todo:")


def test_no_hand_rolled_walks_outside_graphs():
    found = set()
    for src in pathlib.Path(sftlab.__file__).parent.glob("*.py"):
        if src.name == "graphs.py":
            continue
        text = src.read_text()
        fns = [f for f in ast.walk(ast.parse(text)) if isinstance(f, ast.FunctionDef)]
        for lineno, line in enumerate(text.splitlines(), 1):
            if any(pat in line for pat in _WALK_PATTERNS):
                inner = min((f for f in fns if f.lineno <= lineno <= f.end_lineno),
                            key=lambda f: f.end_lineno - f.lineno, default=None)
                found.add(f"{src.stem}.{inner.name if inner else '<module>'}")
    assert found == _KEPT_WALKS
