"""Description-length and size measures for SUBDUE's evaluation principles.

SUBDUE's Minimum Description Length principle values a substructure S by
how well it compresses the host graph G: the fewer bits needed to describe
S plus G rewritten with S's instances collapsed, the better.  The exact
bit-level encoding used by SUBDUE 5.1 (adjacency-row encodings with
binomial corrections) is not essential to reproduce the paper's
observations, so this module uses the standard simplified encoding:

* vertices cost ``log2(V)`` bits to state the count plus
  ``V * log2(distinct vertex labels)`` bits for their labels;
* edges cost, per edge, two vertex references (``2 * log2(V)`` bits) plus
  a label (``log2(distinct edge labels)`` bits), plus ``log2(E + 1)`` bits
  to state the count.

The *size* measure used by the Size principle is simply
``vertices + edges``.
"""

from __future__ import annotations

import math

from repro.graphs.labeled_graph import LabeledGraph


def _safe_log2(value: float) -> float:
    """log2 clamped so degenerate counts (0 or 1) contribute zero bits."""
    if value <= 1:
        return 0.0
    return math.log2(value)


def description_length(
    graph: LabeledGraph,
    n_vertex_labels: int | None = None,
    n_edge_labels: int | None = None,
) -> float:
    """Approximate number of bits needed to describe *graph*.

    ``n_vertex_labels`` / ``n_edge_labels`` give the alphabet sizes; when
    omitted they default to the number of distinct labels in the graph
    itself.  Passing the host graph's alphabet keeps substructure and
    compressed-graph encodings comparable.
    """
    n_vertices = graph.n_vertices
    if n_vertices == 0:
        return 0.0
    vertex_alphabet = n_vertex_labels if n_vertex_labels is not None else len(graph.vertex_label_counts())
    edge_alphabet = n_edge_labels if n_edge_labels is not None else len(graph.edge_label_counts())
    return description_length_of_counts(n_vertices, graph.n_edges, vertex_alphabet, edge_alphabet)


def description_length_of_counts(
    n_vertices: int,
    n_edges: int,
    n_vertex_labels: int,
    n_edge_labels: int,
) -> float:
    """:func:`description_length` of any graph with these counts.

    The encoding reads nothing else of a graph, so SUBDUE's evaluation
    prices a compressed host from its counts without building it.
    """
    if n_vertices == 0:
        return 0.0
    vertex_bits = _safe_log2(n_vertices) + n_vertices * _safe_log2(n_vertex_labels)
    per_edge_bits = 2.0 * _safe_log2(n_vertices) + _safe_log2(n_edge_labels)
    edge_bits = _safe_log2(n_edges + 1) + n_edges * per_edge_bits
    return vertex_bits + edge_bits


def graph_size(graph: LabeledGraph) -> int:
    """The Size-principle measure: vertices plus edges."""
    return graph.n_vertices + graph.n_edges
