"""Classifying mined patterns against the transportation motif catalogue.

The paper interprets its mining output qualitatively: breadth-first
partitioning surfaces hub-and-spoke patterns (Figure 2), depth-first
partitioning surfaces chains (Figure 3), and the temporal experiment's
largest pattern is a three-edge hub-and-spoke (Figure 4).  This module
turns that interpretation into a measurement: given the frequent patterns
of a mining run, it reports how many fall into each motif shape and which
shapes dominate, so benchmarks can assert the paper's qualitative claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.motifs import MotifShape, classify_shape
from repro.mining.fsg.results import FrequentSubgraph


@dataclass
class ShapeSummary:
    """Distribution of motif shapes among a set of patterns."""

    counts: dict[MotifShape, int] = field(default_factory=dict)
    total: int = 0

    def fraction(self, shape: MotifShape) -> float:
        """Fraction of patterns with the given shape."""
        if self.total == 0:
            return 0.0
        return self.counts.get(shape, 0) / self.total

    def count(self, shape: MotifShape) -> int:
        """Number of patterns with the given shape."""
        return self.counts.get(shape, 0)

    def dominant_shape(self, ignore_single_edges: bool = True) -> MotifShape | None:
        """The most common shape (optionally ignoring trivial single edges)."""
        candidates = {
            shape: count
            for shape, count in self.counts.items()
            if not (ignore_single_edges and shape is MotifShape.SINGLE_EDGE)
        }
        if not candidates:
            return None
        return max(candidates, key=lambda shape: candidates[shape])

    def multi_edge_count(self) -> int:
        """Number of patterns with more than one edge."""
        return self.total - self.counts.get(MotifShape.SINGLE_EDGE, 0)


def _as_graphs(patterns: Iterable[FrequentSubgraph | LabeledGraph]) -> list[LabeledGraph]:
    graphs: list[LabeledGraph] = []
    for pattern in patterns:
        if isinstance(pattern, FrequentSubgraph):
            graphs.append(pattern.pattern)
        else:
            graphs.append(pattern)
    return graphs


def summarize_shapes(patterns: Sequence[FrequentSubgraph | LabeledGraph]) -> ShapeSummary:
    """Classify every pattern and return the shape distribution."""
    summary = ShapeSummary()
    for graph in _as_graphs(patterns):
        shape = classify_shape(graph)
        summary.counts[shape] = summary.counts.get(shape, 0) + 1
        summary.total += 1
    return summary


def patterns_with_shape(
    patterns: Sequence[FrequentSubgraph],
    shape: MotifShape,
    min_edges: int = 2,
) -> list[FrequentSubgraph]:
    """The mined patterns with the given shape and at least *min_edges* edges."""
    return [
        pattern
        for pattern in patterns
        if pattern.n_edges >= min_edges and classify_shape(pattern.pattern) is shape
    ]
