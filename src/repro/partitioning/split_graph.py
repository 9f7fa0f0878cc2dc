"""Algorithm 2: breadth-first / depth-first graph partitioning.

The paper splits the single transportation graph into ``k`` sub-graph
transactions by repeatedly pulling a subgraph out of the working graph:
start from a random vertex, add its incident edges (and their endpoints),
continue from one of the endpoints, and stop when the per-partition edge
quota is reached or the subgraph cannot grow.  Pulled edges are removed
from the working graph so partitions are (almost) mutually exclusive, and
orphaned vertices are dropped after each pull.

The ordering structure determines the partition shape: a FIFO queue
(breadth-first) grows star-like subgraphs that preserve high-out-degree
hub patterns, while a LIFO stack (depth-first) grows long chains.  That
difference is exactly what Figures 2 and 3 of the paper illustrate.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from typing import Iterable

from repro.graphs.components import remove_orphan_vertices
from repro.graphs.labeled_graph import LabeledGraph, VertexId
from repro.obs.tracer import get_tracer


class PartitionStrategy(str, enum.Enum):
    """Vertex expansion order used by :func:`split_graph`."""

    BREADTH_FIRST = "breadth_first"
    DEPTH_FIRST = "depth_first"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def _next_vertex(ordering: deque, strategy: PartitionStrategy) -> VertexId:
    if strategy is PartitionStrategy.BREADTH_FIRST:
        return ordering.popleft()
    return ordering.pop()


def _pull_subgraph(
    working: LabeledGraph,
    quota: int,
    strategy: PartitionStrategy,
    rng: random.Random,
    name: str,
) -> LabeledGraph:
    """Pull one sub-graph transaction of roughly *quota* edges out of *working*."""
    subgraph = LabeledGraph(name=name)
    remaining = quota
    vertices_with_edges = [vertex for vertex in working.vertices() if working.degree(vertex) > 0]
    if not vertices_with_edges:
        return subgraph
    ordering: deque = deque()
    start = rng.choice(vertices_with_edges)
    ordering.append(start)
    enqueued: set[VertexId] = {start}

    while remaining > 0 and ordering:
        vertex = _next_vertex(ordering, strategy)
        if not working.has_vertex(vertex):
            continue
        if not subgraph.has_vertex(vertex):
            subgraph.add_vertex(vertex, working.vertex_label(vertex))
        incident = working.incident_edges(vertex)
        for edge in incident:
            if remaining <= 0:
                break
            if not working.has_edge(edge.source, edge.target):
                continue
            for endpoint in (edge.source, edge.target):
                if not subgraph.has_vertex(endpoint):
                    subgraph.add_vertex(endpoint, working.vertex_label(endpoint))
            subgraph.add_edge(edge.source, edge.target, edge.label)
            working.remove_edge(edge.source, edge.target)
            remaining -= 1
            other = edge.target if edge.source == vertex else edge.source
            if other not in enqueued:
                ordering.append(other)
                enqueued.add(other)
    return subgraph


def split_graph(
    graph: LabeledGraph,
    k: int,
    strategy: PartitionStrategy | str = PartitionStrategy.BREADTH_FIRST,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> list[LabeledGraph]:
    """Partition *graph* into about *k* sub-graph transactions (Algorithm 2).

    The input graph is not modified.  Every edge of the input appears in
    exactly one partition; empty partitions are dropped, so slightly fewer
    or more than *k* partitions can be returned when the graph disconnects
    awkwardly (the paper notes the same behaviour).

    Parameters
    ----------
    graph:
        The single labeled graph to partition.
    k:
        Target number of partitions.
    strategy:
        :class:`PartitionStrategy` or its string value — breadth-first
        grows hub-like partitions, depth-first grows chain-like ones.
    seed / rng:
        Randomness control; pass *rng* to share a generator across calls
        (Algorithm 1 repeats the split with different randomness).
    """
    if k < 1:
        raise ValueError("the number of partitions k must be at least 1")
    if isinstance(strategy, str):
        strategy = PartitionStrategy(strategy)
    generator = rng if rng is not None else random.Random(seed)

    with get_tracer().span("partition.split"):
        working = graph.copy()
        total_edges = working.n_edges
        partitions: list[LabeledGraph] = []
        index = 0
        while working.n_edges > 0:
            remaining_partitions = max(1, k - len(partitions))
            quota = max(1, working.n_edges // remaining_partitions)
            name = f"{graph.name}-part{index}"
            subgraph = _pull_subgraph(working, quota, strategy, generator, name)
            remove_orphan_vertices(working)
            if subgraph.n_edges > 0:
                partitions.append(subgraph)
            index += 1
            if index > total_edges + k:
                # Safety net: cannot happen for well-formed graphs, but protects
                # against infinite loops on pathological inputs.
                break
        return partitions


def partition_edge_counts(partitions: Iterable[LabeledGraph]) -> list[int]:
    """Edge counts of the partitions (useful for balance diagnostics)."""
    return [partition.n_edges for partition in partitions]


def coverage_is_exact(graph: LabeledGraph, partitions: Iterable[LabeledGraph]) -> bool:
    """Whether the partitions cover every edge of *graph* exactly once."""
    original = {(edge.source, edge.target) for edge in graph.edges()}
    seen: list[tuple] = []
    for partition in partitions:
        for edge in partition.edges():
            seen.append((edge.source, edge.target))
    return len(seen) == len(original) and set(seen) == original
