"""Tests for canonical codes and graph invariants."""

from __future__ import annotations

import pytest

from repro.graphs.canonical import (
    CanonicalizationError,
    canonical_code,
    canonical_code_with_order,
    graph_invariant,
)
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
