"""Tests for canonical codes and graph invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.canonical import (
    CanonicalizationError,
    canonical_code,
    canonical_code_with_order,
    canonical_key,
    graph_invariant,
)
from repro.graphs.compact import LabelTable, labeled_to_wire
from repro.graphs.isomorphism import legacy_are_isomorphic
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.motifs import chain, cycle, hub_and_spoke


def _relabelled_copy(graph: LabeledGraph, suffix: str) -> LabeledGraph:
    """A copy of *graph* with renamed vertex identifiers (labels preserved)."""
    clone = LabeledGraph()
    for vertex in graph.vertices():
        clone.add_vertex(f"{vertex}{suffix}", graph.vertex_label(vertex))
    for edge in graph.edges():
        clone.add_edge(f"{edge.source}{suffix}", f"{edge.target}{suffix}", edge.label)
    return clone


class TestGraphInvariant:
    def test_invariant_ignores_vertex_identity(self):
        star = hub_and_spoke(3, edge_labels=[1, 2, 3])
        assert graph_invariant(star) == graph_invariant(_relabelled_copy(star, "_x"))

    def test_invariant_distinguishes_shapes(self):
        assert graph_invariant(chain(3)) != graph_invariant(hub_and_spoke(3))

    def test_invariant_distinguishes_edge_labels(self):
        assert graph_invariant(chain(2, edge_labels=[1, 1])) != graph_invariant(
            chain(2, edge_labels=[1, 2])
        )

    def test_invariant_distinguishes_vertex_labels(self):
        labelled = hub_and_spoke(2, vertex_label="warehouse")
        assert graph_invariant(labelled) != graph_invariant(hub_and_spoke(2))

    def test_invariant_distinguishes_direction(self):
        assert graph_invariant(hub_and_spoke(2)) != graph_invariant(
            hub_and_spoke(2, inbound=True)
        )


class TestCanonicalCode:
    def test_identical_for_isomorphic_graphs(self):
        star = hub_and_spoke(4, edge_labels=[0, 0, 1, 1])
        assert canonical_code(star) == canonical_code(_relabelled_copy(star, "_y"))

    def test_differs_for_non_isomorphic_graphs(self):
        assert canonical_code(chain(3)) != canonical_code(cycle(3))

    def test_empty_graph(self):
        assert canonical_code(LabeledGraph()) == "empty"

    def test_chain_label_order_matters(self):
        forward = chain(2, edge_labels=[1, 2])
        backward = chain(2, edge_labels=[2, 1])
        assert canonical_code(forward) != canonical_code(backward)

    def test_too_symmetric_graph_raises(self):
        big_star = hub_and_spoke(12)
        with pytest.raises(CanonicalizationError):
            canonical_code(big_star, max_orderings=10)

    def test_symmetric_graph_within_budget_succeeds(self):
        small_star = hub_and_spoke(3)
        code = canonical_code(small_star, max_orderings=1_000)
        assert code == canonical_code(_relabelled_copy(small_star, "_z"), max_orderings=1_000)


class TestCanonicalCodeWithOrder:
    @staticmethod
    def _read(graph: LabeledGraph, order: tuple) -> tuple:
        """*graph*'s labels and positional edges, read in *order*."""
        position = {vertex: index for index, vertex in enumerate(order)}
        return (
            [graph.vertex_label(vertex) for vertex in order],
            sorted((position[edge.source], position[edge.target], edge.label) for edge in graph.edges()),
        )

    @pytest.mark.parametrize(
        "graph",
        [
            hub_and_spoke(4, edge_labels=[0, 0, 1, 1]),
            hub_and_spoke(3),
            chain(3, edge_labels=[1, 2, 1]),
            cycle(4),
        ],
    )
    def test_orders_of_isomorphic_graphs_read_alike(self, graph):
        code, order = canonical_code_with_order(graph)
        assert code == canonical_code(graph)
        assert sorted(order, key=str) == sorted(graph.vertices(), key=str)
        # Renamed, and built in reverse order, so no order is inherited.
        copy = LabeledGraph()
        for vertex in reversed(list(graph.vertices())):
            copy.add_vertex(f"{vertex}_w", graph.vertex_label(vertex))
        for edge in reversed(list(graph.edges())):
            copy.add_edge(f"{edge.source}_w", f"{edge.target}_w", edge.label)
        copy_code, copy_order = canonical_code_with_order(copy)
        assert copy_code == code
        assert self._read(copy, copy_order) == self._read(graph, order)

    def test_empty_graph(self):
        assert canonical_code_with_order(LabeledGraph()) == ("empty", ())

    def test_too_symmetric_graph_raises(self):
        with pytest.raises(CanonicalizationError):
            canonical_code_with_order(hub_and_spoke(12), max_orderings=10)


@st.composite
def tied_digraphs(draw, n_vertices=None):
    """Random labeled digraphs of up to 6 vertices over few labels, so
    colour classes tie; self-loops included.  Labels have distinct
    ``str()`` forms."""
    if n_vertices is None:
        n_vertices = draw(st.integers(min_value=1, max_value=6))
    graph = LabeledGraph(name="g")
    for vertex in range(n_vertices):
        graph.add_vertex(f"v{vertex}", draw(st.sampled_from(["a", "b", 0])))
    pairs = [(source, target) for source in range(n_vertices) for target in range(n_vertices)]
    for source, target in draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True)):
        graph.add_edge(f"v{source}", f"v{target}", draw(st.sampled_from(["x", "y"])))
    return graph


@st.composite
def symmetric_stars(draw):
    """A hub with 6 to 9 spokes of one or two labels, plus up to two
    spoke-to-spoke edges: colour classes near the ordering limit (8! is
    under 50,000, 9! and 8! x 2 are over)."""
    n_spokes = draw(st.integers(min_value=6, max_value=9))
    spoke_labels = draw(st.sampled_from([["s"], ["s", "t"]]))
    graph = LabeledGraph(name="star")
    graph.add_vertex("h", "hub")
    for spoke in range(n_spokes):
        graph.add_vertex(f"s{spoke}", draw(st.sampled_from(spoke_labels)))
        graph.add_edge("h", f"s{spoke}", "e")
    spokes = [(a, b) for a in range(n_spokes) for b in range(n_spokes) if a != b]
    for a, b in draw(st.lists(st.sampled_from(spokes), max_size=2, unique=True)):
        graph.add_edge(f"s{a}", f"s{b}", "x")
    return graph


def _key(graph: LabeledGraph, table: LabelTable) -> tuple:
    """*graph*'s :func:`canonical_key` over its wire's label ids."""
    _, labels, edges, _ = labeled_to_wire(graph, table)
    return canonical_key(labels, edges)


def _renumbered(graph: LabeledGraph, rng: random.Random) -> LabeledGraph:
    """*graph* with its vertices inserted in a random order under new
    names, edges in a random order too."""
    vertices = list(graph.vertices())
    rng.shuffle(vertices)
    clone = LabeledGraph(name="renumbered")
    for index, vertex in enumerate(vertices):
        clone.add_vertex(f"u{index}", graph.vertex_label(vertex))
    name = {vertex: f"u{index}" for index, vertex in enumerate(vertices)}
    edges = list(graph.edges())
    rng.shuffle(edges)
    for edge in edges:
        clone.add_edge(name[edge.source], name[edge.target], edge.label)
    return clone


class TestCanonicalKey:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_keys_are_equal_exactly_for_isomorphic_graphs(self, data):
        first = data.draw(tied_digraphs())
        second = data.draw(tied_digraphs(n_vertices=first.n_vertices))
        table = LabelTable()
        assert (_key(first, table) == _key(second, table)) == legacy_are_isomorphic(first, second)

    @settings(max_examples=150, deadline=None)
    @given(graph=tied_digraphs(), seed=st.integers(min_value=0, max_value=10_000))
    def test_key_ignores_vertex_numbering(self, graph, seed):
        table = LabelTable()
        assert _key(graph, table) == _key(_renumbered(graph, random.Random(seed)), table)

    @settings(max_examples=60, deadline=None)
    @given(graph=st.one_of(tied_digraphs(), symmetric_stars()))
    def test_key_raises_exactly_when_the_string_code_does(self, graph):
        try:
            canonical_code(graph)
        except CanonicalizationError:
            with pytest.raises(CanonicalizationError):
                _key(graph, LabelTable())
        else:
            _key(graph, LabelTable())

    def test_nine_spoke_star_raises(self):
        # 9! = 362,880 orderings of the spokes, over the 50,000 limit.
        star = hub_and_spoke(9)
        with pytest.raises(CanonicalizationError):
            canonical_code(star)
        with pytest.raises(CanonicalizationError):
            _key(star, LabelTable())

    def test_labels_that_print_alike_get_distinct_keys(self):
        # The string code conflates 1 and "1"; the key does not.
        same = chain(2, edge_labels=[1, 1])
        mixed = chain(2, edge_labels=[1, "1"])
        assert canonical_code(same) == canonical_code(mixed)
        table = LabelTable()
        assert _key(same, table) != _key(mixed, table)
