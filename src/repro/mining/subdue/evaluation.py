"""Evaluation principles for candidate substructures (MDL, Size).

SUBDUE 5.1 scores a candidate substructure S against a host graph G in
one of these ways:

* **MDL** — ``DL(G) / (DL(S) + DL(G | S))`` where ``DL`` is the
  description length and ``G | S`` is G with S's instances collapsed;
  larger is better (more compression).
* **Size** — the same ratio computed with the simpler ``vertices + edges``
  size measure.

SUBDUE's third principle, Set-Cover, scores S against positive and
negative example graphs.  The paper rules it out for this data, which
has no negative examples, and the miner searches one host graph with no
examples, so it is not offered.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from repro.graphs.engine import MatchEngine
from repro.graphs.labeled_graph import LabeledGraph, VertexId
from repro.mining.subdue.mdl import description_length, description_length_of_counts, graph_size
from repro.mining.subdue.substructure import Substructure
from repro.obs.tracer import get_tracer


def _host_label_counts(host: LabeledGraph, engine: MatchEngine) -> tuple[int, int]:
    """(#vertex labels, #edge labels) of *host*, read off its engine index.

    The host's label alphabet is fixed for a whole mining run, so reading
    it off the precomputed index avoids an O(V + E) recount per candidate
    evaluation.
    """
    index = engine.index_of(host)
    return (
        max(1, len(index.vertex_label_hist)),
        max(1, len(index.edge_label_hist)),
    )


class CompressionCounts(NamedTuple):
    """What evaluation reads of the host compressed by a substructure."""

    #: Host vertices inside the non-overlapping instances.
    covered_vertices: int
    #: Vertices of the compressed host.
    vertices: int
    #: Edges of the compressed host.
    edges: int
    #: Edges re-attached to a replacement vertex, plus the merged ones.
    boundary_edges: int
    #: Host edges the rewrite loses beyond the instances' own edges.
    merged_edges: int


def compression_counts(host: LabeledGraph, substructure: Substructure) -> CompressionCounts:
    """Counts of *host* with *substructure*'s non-overlapping instances collapsed.

    The compressed graph is the one ``compress_instances`` in
    ``tests/test_subdue.py`` builds (each instance collapsed into one
    fresh vertex), but only its counts are derived, from the instances'
    owner map: each
    edge that touches an instance is visited once (the out-edges of its
    vertices, plus in-edges from outside), which costs O(degree of the
    covered vertices).  An edge with both ends in one instance is
    absorbed; every other touching edge re-attaches as its resolved
    ``(owner or vertex, owner or vertex)`` pair, and edges that resolve
    to one pair merge into one, because the compressed graph is simple.

    Edges merged away (coinciding pairs, and edges absorbed without being
    part of their instance) still have to be described in a lossless
    encoding, so the evaluation functions add them back explicitly.
    """
    instances = substructure.non_overlapping()
    owner: dict[VertexId, object] = {}
    internal_edges = 0
    for instance in instances:
        # A fresh object stands for the instance's replacement vertex: it
        # equals no vertex id, whatever the host's ids are.
        replacement = object()
        for vertex in instance.vertices:
            owner[vertex] = replacement
        internal_edges += len(instance.edges)
    touching = 0
    pairs: set[tuple] = set()
    for vertex, replacement in owner.items():
        for target in host.successors(vertex):
            touching += 1
            resolved = owner.get(target, target)
            if resolved is not replacement:
                pairs.add((replacement, resolved))
        for source in host.predecessors(vertex):
            if source not in owner:
                touching += 1
                pairs.add((source, replacement))
    n_edges = host.n_edges
    compressed_edges = n_edges - touching + len(pairs)
    merged_edges = max(0, (n_edges - internal_edges) - compressed_edges)
    return CompressionCounts(
        covered_vertices=len(owner),
        vertices=host.n_vertices - len(owner) + len(instances),
        edges=compressed_edges,
        boundary_edges=len(pairs) + merged_edges,
        merged_edges=merged_edges,
    )


class EvaluationPrinciple(str, enum.Enum):
    """How candidate substructures are scored."""

    MDL = "mdl"
    SIZE = "size"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def mdl_value(
    host: LabeledGraph,
    substructure: Substructure,
    engine: MatchEngine,
) -> float:
    """MDL compression value of *substructure* against *host*.

    The description of the compressed graph alone is not lossless: to
    reconstruct the original graph one must also record *where* each
    instance sits (which host vertices it covered) and, for every boundary
    edge re-attached to a replacement vertex, which internal vertex of the
    instance it originally connected to.  Both overheads grow with the
    substructure's size and coverage, which is why SUBDUE's MDL principle
    favours small, very frequent substructures on uniformly-labeled graphs
    (the Section 5.1 observation) while the simpler Size principle — which
    ignores reconstruction overhead — rewards the largest substructure
    that still repeats.  The host's label alphabet sizes are read off
    its index in *engine*.

    The compressed host is priced from :func:`compression_counts` alone,
    so no compressed graph is built; ``tests/test_subdue.py`` holds the
    value against one computed on the materialised graph.
    """
    n_vertex_labels, n_edge_labels = _host_label_counts(host, engine)
    original = description_length(host, n_vertex_labels, n_edge_labels)
    sub_dl = description_length(substructure.pattern, n_vertex_labels, n_edge_labels)
    counts = compression_counts(host, substructure)
    compressed_dl = description_length_of_counts(
        counts.vertices, counts.edges, n_vertex_labels + 1, n_edge_labels
    )

    # Edges merged away by the simple-graph rewrite still need describing.
    per_edge_bits = 2.0 * math.log2(max(2, counts.vertices)) + math.log2(max(2, n_edge_labels))
    merged_bits = counts.merged_edges * per_edge_bits
    # Boundary edges must record which internal vertex they attached to.
    attachment_bits = counts.boundary_edges * math.log2(max(2, substructure.pattern.n_vertices))
    # Instance locations must be recorded to reconstruct the original graph.
    location_bits = counts.covered_vertices * math.log2(max(2, host.n_vertices))

    denominator = sub_dl + compressed_dl + merged_bits + attachment_bits + location_bits
    if denominator <= 0:
        return 0.0
    return original / denominator


def size_value(host: LabeledGraph, substructure: Substructure) -> float:
    """Size-principle compression value of *substructure* against *host*.

    The size measure counts vertices plus edges; edges merged away by the
    simple-graph rewrite are added back so the rewrite itself does not
    fabricate compression.
    """
    original = graph_size(host)
    counts = compression_counts(host, substructure)
    compressed_size = counts.vertices + counts.edges + counts.merged_edges
    denominator = graph_size(substructure.pattern) + compressed_size
    if denominator <= 0:
        return 0.0
    return original / denominator


def evaluate(
    host: LabeledGraph,
    substructure: Substructure,
    principle: EvaluationPrinciple,
    *,
    engine: MatchEngine,
) -> float:
    """Score *substructure* under the chosen principle.

    *engine* (keyword-only) is the miner's :class:`MatchEngine`; MDL reads
    the host's label counts from it.  Each call is one
    ``subdue.evaluate`` span.
    """
    with get_tracer().span("subdue.evaluate"):
        if principle is EvaluationPrinciple.MDL:
            return mdl_value(host, substructure, engine=engine)
        if principle is EvaluationPrinciple.SIZE:
            return size_value(host, substructure)
        raise ValueError(f"unknown evaluation principle: {principle}")
