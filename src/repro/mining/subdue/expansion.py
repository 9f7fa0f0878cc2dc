"""Substructure expansion: growing candidates by one edge at a time.

SUBDUE's search expands every instance of the current substructure by one
edge incident on the instance, then re-groups the extended instances by
the pattern they form.  Working at the instance level (rather than
re-running subgraph isomorphism against the whole host graph) keeps each
expansion step proportional to the number of instances times the local
edge density.  Instances are integer triples over an
:class:`~repro.mining.subdue.substructure.IntegerHost`: a child is its
parent's bitsets plus the new edge's bits, and its order is its parent's
order plus the vertex the edge adds.
"""

from __future__ import annotations

from repro.graphs.engine import MatchEngine
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.subdue.substructure import (
    Candidate,
    IntegerHost,
    bit_positions,
    group_instances_by_pattern,
)
from repro.obs.tracer import get_tracer


def initial_substructures(host: IntegerHost) -> list[Candidate]:
    """One single-vertex candidate per distinct vertex label.

    Each candidate's instances are all host vertices carrying that label;
    these seed the beam search.  Labels come in first-seen host order, and
    each label's vertices in host order.
    """
    buckets: dict[object, list] = {}
    labels = host.labels
    for vertex in host.host_order:
        buckets.setdefault(labels[vertex], []).append((0, 1 << vertex, (vertex,)))
    seeds: list[Candidate] = []
    for label, instances in buckets.items():
        pattern = LabeledGraph(name=f"seed-{label}")
        pattern.add_vertex("p0", label)
        seeds.append(Candidate(pattern=pattern, instances=instances))
    return seeds


def extend_instances(host: IntegerHost, candidate: Candidate) -> dict[int, tuple]:
    """Every one-edge extension of *candidate*'s instances, deduplicated.

    Each instance is extended by every edge incident on it and not in it,
    walking its vertices in rank order and each vertex's edges in
    ``host.incident`` order.  The result maps a child's edge bits (its
    edges determine its vertices) to ``(vertex bits, order, token)``: its
    order is the parent's plus the vertex the edge adds, and its token is
    ``(source position, target position, edge label, new vertex's
    label)`` in that order (the last is ``None`` when the edge adds no
    vertex).  A child reached twice keeps its first-seen position and its
    last-seen order and token.  Children of a class too symmetric to
    canonicalise carry no order and no token.
    """
    incident = host.incident
    labels = host.labels
    children: dict[int, tuple] = {}
    for edge_bits, vertex_bits, order in candidate.instances:
        if order is None:
            for vertex in bit_positions(vertex_bits):
                for bit, other, _, _ in incident[vertex]:
                    if not edge_bits & bit:
                        children[edge_bits | bit] = (vertex_bits | 1 << other, None, None)
            continue
        position = {vertex: index for index, vertex in enumerate(order)}
        size = len(order)
        for vertex in sorted(order):
            anchor = position[vertex]
            for bit, other, outgoing, label in incident[vertex]:
                at = position.get(other)
                if at is None:
                    # The edge adds *other*, so it is not in the instance.
                    new_label = labels[other]
                    token = (anchor, size, label, new_label) if outgoing else (size, anchor, label, new_label)
                    children[edge_bits | bit] = (vertex_bits | 1 << other, order + (other,), token)
                elif not edge_bits & bit:
                    token = (anchor, at, label, None) if outgoing else (at, anchor, label, None)
                    children[edge_bits | bit] = (vertex_bits, order, token)
    return children


def expand_substructure(host: IntegerHost, candidate: Candidate, engine: MatchEngine) -> list[Candidate]:
    """Expand every instance of *candidate* by one edge and re-group by pattern.

    Duplicate children (one edge set reached from different parent
    instances) are merged by :func:`extend_instances` before grouping,
    which runs through *engine* (see
    :func:`~repro.mining.subdue.substructure.group_instances_by_pattern`).
    Each call is one ``subdue.expand`` span, its grouping included.
    """
    with get_tracer().span("subdue.expand"):
        children = extend_instances(host, candidate)
        if not children:
            return []
        return group_instances_by_pattern(host, children, engine=engine)
