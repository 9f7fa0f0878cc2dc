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

Both principles price the host compressed by a candidate's selected
instances from counts alone (:func:`compression_counts`), read off the
instances' bitsets over the
:class:`~repro.mining.subdue.substructure.IntegerHost`, which also holds
the host's own description length and label alphabet.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from repro.mining.subdue.mdl import description_length, description_length_of_counts, graph_size
from repro.mining.subdue.substructure import Candidate, IntegerHost, IntegerInstance, bit_positions
from repro.obs.tracer import get_tracer


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


def compression_counts(host: IntegerHost, instances: list[IntegerInstance]) -> CompressionCounts:
    """Counts of *host* with the vertex-disjoint *instances* collapsed.

    The compressed graph is the one ``compress_instances`` in
    ``tests/test_subdue.py`` builds (each instance collapsed into one
    fresh vertex), but only its counts are derived, from the instances'
    owner map: instance ``i``'s vertices belong to replacement
    ``host.n_vertices + i``, an id no rank has.  Each edge that touches an
    instance is visited once (the out-edges of its vertices, plus
    in-edges from outside), which costs O(degree of the covered
    vertices).  An edge with both ends in one instance is absorbed; every
    other touching edge re-attaches as its resolved ``(owner or vertex,
    owner or vertex)`` pair, and edges that resolve to one pair merge into
    one, because the compressed graph is simple.  The instances' own
    edges are counted by popcount.

    Edges merged away (coinciding pairs, and edges absorbed without being
    part of their instance) still have to be described in a lossless
    encoding, so the evaluation functions add them back explicitly.
    """
    owner: dict[int, int] = {}
    internal_edges = 0
    for replacement, (edge_bits, vertex_bits, _) in enumerate(instances, start=host.n_vertices):
        for vertex in bit_positions(vertex_bits):
            owner[vertex] = replacement
        internal_edges += edge_bits.bit_count()
    successors = host.successors
    predecessors = host.predecessors
    touching = 0
    pairs: set[tuple[int, int]] = set()
    for vertex, replacement in owner.items():
        for target in successors[vertex]:
            touching += 1
            resolved = owner.get(target, target)
            if resolved != replacement:
                pairs.add((replacement, resolved))
        for source in predecessors[vertex]:
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


def mdl_value(host: IntegerHost, candidate: Candidate) -> float:
    """MDL compression value of *candidate*'s selection against *host*.

    The description of the compressed graph alone is not lossless: to
    reconstruct the original graph one must also record *where* each
    instance sits (which host vertices it covered) and, for every boundary
    edge re-attached to a replacement vertex, which internal vertex of the
    instance it originally connected to.  Both overheads grow with the
    substructure's size and coverage, which is why SUBDUE's MDL principle
    favours small, very frequent substructures on uniformly-labeled graphs
    (the Section 5.1 observation) while the simpler Size principle — which
    ignores reconstruction overhead — rewards the largest substructure
    that still repeats.  The host's description length and label
    alphabet sizes come with *host*.

    The compressed host is priced from :func:`compression_counts` alone,
    so no compressed graph is built; ``tests/test_subdue.py`` holds the
    value against one computed on the materialised graph.
    """
    n_vertex_labels, n_edge_labels = host.n_vertex_labels, host.n_edge_labels
    pattern = candidate.pattern
    sub_dl = description_length(pattern, n_vertex_labels, n_edge_labels)
    counts = compression_counts(host, candidate.selection)
    compressed_dl = description_length_of_counts(
        counts.vertices, counts.edges, n_vertex_labels + 1, n_edge_labels
    )

    # Edges merged away by the simple-graph rewrite still need describing.
    per_edge_bits = 2.0 * math.log2(max(2, counts.vertices)) + math.log2(max(2, n_edge_labels))
    merged_bits = counts.merged_edges * per_edge_bits
    # Boundary edges must record which internal vertex they attached to.
    attachment_bits = counts.boundary_edges * math.log2(max(2, pattern.n_vertices))
    # Instance locations must be recorded to reconstruct the original graph.
    location_bits = counts.covered_vertices * math.log2(max(2, host.n_vertices))

    denominator = sub_dl + compressed_dl + merged_bits + attachment_bits + location_bits
    if denominator <= 0:
        return 0.0
    return host.description_length / denominator


def size_value(host: IntegerHost, candidate: Candidate) -> float:
    """Size-principle compression value of *candidate*'s selection against *host*.

    The size measure counts vertices plus edges; edges merged away by the
    simple-graph rewrite are added back so the rewrite itself does not
    fabricate compression.
    """
    counts = compression_counts(host, candidate.selection)
    compressed_size = counts.vertices + counts.edges + counts.merged_edges
    denominator = graph_size(candidate.pattern) + compressed_size
    if denominator <= 0:
        return 0.0
    return (host.n_vertices + host.n_edges) / denominator


_SCORERS = {EvaluationPrinciple.MDL: mdl_value, EvaluationPrinciple.SIZE: size_value}


def evaluate(host: IntegerHost, candidate: Candidate, principle: EvaluationPrinciple) -> float:
    """Score *candidate*'s selection under *principle*.

    Each call is one ``subdue.evaluate`` span.
    """
    with get_tracer().span("subdue.evaluate"):
        return _SCORERS[principle](host, candidate)
