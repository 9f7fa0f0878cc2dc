"""Graph compression by substructure replacement.

SUBDUE evaluates a substructure by how much the host graph shrinks when
every (non-overlapping) instance is collapsed into a single new vertex,
and its hierarchical mode repeats discovery on the compressed graph.  This
module implements that rewrite: instance vertices are removed, a fresh
vertex labeled with the substructure name takes their place, and edges
between an instance and the rest of the graph are re-attached to the new
vertex (edges internal to the instance disappear).
"""

from __future__ import annotations

from repro.graphs.labeled_graph import LabeledGraph, VertexId
from repro.mining.subdue.substructure import Instance, Substructure


def compress_graph(
    host: LabeledGraph,
    substructure: Substructure,
    replacement_label: str = "SUB",
) -> LabeledGraph:
    """Collapse every non-overlapping instance of *substructure* in *host*.

    Returns a new graph; the host is not modified.  Each instance becomes
    one vertex labeled *replacement_label*; boundary edges (between an
    instance vertex and an outside vertex, or between two different
    instances) are preserved and re-attached.
    """
    instances = substructure.non_overlapping()
    return compress_instances(host, instances, replacement_label)


def compress_instances(
    host: LabeledGraph,
    instances: list[Instance],
    replacement_label: str = "SUB",
) -> LabeledGraph:
    """Collapse an explicit list of vertex-disjoint instances.

    Instance ``i`` becomes the vertex ``f"{replacement_label}_{i}"``, or,
    if the host already has a vertex of that name, that name with primes
    appended until it is free: a replacement never merges with a host
    vertex.  Edges with both ends in one instance are absorbed; every
    other edge, a self-loop outside the instances included, is kept, and
    edges that land on the same ordered pair merge into one.
    """
    owner: dict[VertexId, int] = {}
    for index, instance in enumerate(instances):
        for vertex in instance.vertices:
            if vertex in owner:
                raise ValueError("instances passed to compress_instances must be vertex-disjoint")
            owner[vertex] = index

    compressed = LabeledGraph(name=f"{host.name}-compressed")
    replacement_names = []
    for index in range(len(instances)):
        name = f"{replacement_label}_{index}"
        while host.has_vertex(name):
            name += "'"
        replacement_names.append(name)

    for vertex in host.vertices():
        if vertex in owner:
            continue
        compressed.add_vertex(vertex, host.vertex_label(vertex))
    for name in replacement_names:
        compressed.add_vertex(name, replacement_label)

    def resolve(vertex: VertexId) -> VertexId:
        if vertex in owner:
            return replacement_names[owner[vertex]]
        return vertex

    for edge in host.edges():
        source_owner = owner.get(edge.source)
        target_owner = owner.get(edge.target)
        if source_owner is not None and source_owner == target_owner:
            # Edge internal to an instance: absorbed by the replacement vertex.
            continue
        compressed.add_edge(resolve(edge.source), resolve(edge.target), edge.label)
    return compressed


def compression_ratio(original: LabeledGraph, compressed: LabeledGraph) -> float:
    """Size-based compression ratio (``> 1`` means the rewrite shrank the graph)."""
    original_size = original.n_vertices + original.n_edges
    compressed_size = compressed.n_vertices + compressed.n_edges
    if compressed_size == 0:
        return float("inf")
    return original_size / compressed_size
