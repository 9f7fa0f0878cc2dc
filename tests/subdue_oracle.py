"""The frozenset SUBDUE search: the oracle of the integer one.

This is the beam search as it was before instances became bitsets over
an :class:`~repro.mining.subdue.substructure.IntegerHost`.  An instance
is an :class:`OracleInstance`: a frozenset of host vertices, a frozenset
of :class:`~repro.graphs.labeled_graph.Edge` records and its recorded
vertex order.  Expansion walks ``LabeledGraph.incident_edges`` and builds
every extension with :meth:`OracleInstance.extended_with`; grouping keys
each instance on its whole positional layout (:func:`instance_layout`);
the non-overlapping selection sorts instances by :func:`instance_key`;
and the beam compares classes by :meth:`OracleSubstructure.class_key`,
computed from the class's pattern, not carried over from grouping.

:func:`oracle_mine` runs the whole search on a rank-id copy of its host,
as the miner does, and reports in the caller's ids.
:class:`~repro.mining.subdue.miner.SubdueMiner` must report the same best
substructures (patterns, names, exact values, instances in order,
selections) and the same ``evaluated`` count
(``tests/test_subdue_oracle.py`` checks this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping, Sequence

from repro.graphs.canonical import (
    CanonicalizationError,
    canonical_code,
    canonical_code_with_order,
    graph_invariant,
    refined_colours,
)
from repro.graphs.engine import MatchEngine
from repro.graphs.labeled_graph import Edge, LabeledGraph, VertexId
from repro.mining.subdue.evaluation import CompressionCounts, EvaluationPrinciple
from repro.mining.subdue.mdl import description_length, description_length_of_counts, graph_size


@dataclass(frozen=True, slots=True)
class OracleInstance:
    """One occurrence of a substructure as frozensets.

    ``order``, when set, lists ``vertices`` once each in the order
    grouping reads the instance in; it takes no part in equality or
    hashing.  A seed records its one vertex, an extension its parent's
    order plus the vertex its new edge adds, and
    :func:`group_instances_by_pattern` replaces it with the order of the
    instance's class's canonical code, or with ``None`` when the class is
    too symmetric to canonicalise.
    """

    vertices: frozenset[VertexId]
    edges: frozenset[Edge]
    order: tuple[VertexId, ...] | None = field(default=None, compare=False)

    @classmethod
    def from_vertex(cls, vertex: VertexId) -> "OracleInstance":
        """A single-vertex instance (the starting point of the search)."""
        return cls(vertices=frozenset([vertex]), edges=frozenset(), order=(vertex,))

    def extended_with(self, edge: Edge) -> "OracleInstance":
        """A new instance including *edge* and its endpoints."""
        source, target = edge.source, edge.target
        order = self.order
        if order is not None:
            if source not in self.vertices:
                order += (source,)
            if target not in self.vertices and target != source:
                order += (target,)
        return OracleInstance(
            vertices=self.vertices | {source, target},
            edges=self.edges | {edge},
            order=order,
        )

    def renamed(self, mapping: Mapping[VertexId, VertexId] | Sequence[VertexId]) -> "OracleInstance":
        """This instance with every vertex id replaced by ``mapping[id]``
        (and no recorded order)."""
        return OracleInstance(
            vertices=frozenset([mapping[vertex] for vertex in self.vertices]),
            edges=frozenset(
                [Edge(mapping[edge.source], mapping[edge.target], edge.label) for edge in self.edges]
            ),
        )


def instance_key(instance) -> tuple:
    """A total order over instances independent of hash seed: edge count,
    sorted ``(source, str(label), target)`` edges, sorted vertices."""
    return (
        len(instance.edges),
        sorted([(e.source, str(e.label), e.target) for e in instance.edges]),
        sorted(instance.vertices),
    )


_source_target = attrgetter("source", "target")


def instance_pattern(host: LabeledGraph, instance) -> LabeledGraph:
    """The pattern graph an instance represents: vertices in value order,
    edges in ``(source, target)`` order, host labels preserved."""
    pattern = LabeledGraph(name="substructure")
    for vertex in sorted(instance.vertices):
        pattern.add_vertex(vertex, host.vertex_label(vertex))
    for edge in sorted(instance.edges, key=_source_target):
        pattern.add_edge(edge.source, edge.target, edge.label)
    return pattern


def select_non_overlapping(instances: list) -> list:
    """Greedy maximal set of vertex-disjoint instances, visited in
    :func:`instance_key` order."""
    chosen = []
    used: set[VertexId] = set()
    for instance in sorted(instances, key=instance_key):
        if instance.vertices & used:
            continue
        chosen.append(instance)
        used |= instance.vertices
    return chosen


def class_key(pattern: LabeledGraph) -> tuple[str, str]:
    """The pattern's ``(invariant, canonical code)``; a pattern too
    symmetric to canonicalise gets the code ``""``."""
    colours = refined_colours(pattern)
    try:
        code = canonical_code(pattern, colours=colours)
    except CanonicalizationError:
        code = ""
    return graph_invariant(pattern, colours), code


@dataclass
class OracleSubstructure:
    """A pattern graph plus its frozenset instances.

    ``instances`` must be rebound, not mutated in place: the
    non-overlapping selection is cached against the list object.
    """

    pattern: LabeledGraph
    instances: list[OracleInstance] = field(default_factory=list)
    value: float = 0.0
    _non_overlap_cache: tuple | None = field(default=None, repr=False, compare=False)
    _class_key: tuple[str, str] | None = field(default=None, repr=False, compare=False)

    def non_overlapping(self) -> list[OracleInstance]:
        if self._non_overlap_cache is None or self._non_overlap_cache[0] is not self.instances:
            self._non_overlap_cache = (self.instances, select_non_overlapping(self.instances))
        return self._non_overlap_cache[1]

    @property
    def n_non_overlapping(self) -> int:
        return len(self.non_overlapping())

    def renamed(self, mapping: Mapping[VertexId, VertexId] | Sequence[VertexId]) -> "OracleSubstructure":
        """This substructure in other ids, its selection mapped, not recomputed."""
        instances = [instance.renamed(mapping) for instance in self.instances]
        renamed = {id(old): new for old, new in zip(self.instances, instances)}
        result = OracleSubstructure(pattern=self.pattern.renamed(mapping), instances=instances, value=self.value)
        result._non_overlap_cache = (instances, [renamed[id(instance)] for instance in self.non_overlapping()])
        return result

    def class_key(self) -> tuple[str, str]:
        """:func:`class_key` of the pattern, computed on first use: a
        uniform star's code takes up to 50,000 orderings, and the beam asks
        again at every level."""
        if self._class_key is None:
            self._class_key = class_key(self.pattern)
        return self._class_key


def instance_layout(host: LabeledGraph, instance: OracleInstance) -> tuple[tuple, tuple]:
    """*instance*'s reading order (its recorded ``order``, or value order),
    and its pattern read in that order as a hashable key: the labels in
    order plus every edge as ``(source position, target position, label)``."""
    ordered = instance.order
    if ordered is None:
        ordered = tuple(sorted(instance.vertices))
    position = {vertex: index for index, vertex in enumerate(ordered)}
    labels = tuple([host.vertex_label(vertex) for vertex in ordered])
    edges = frozenset(
        [(position[edge.source], position[edge.target], edge.label) for edge in instance.edges]
    )
    return ordered, (labels, edges)


def _class_of(pattern, buckets, by_code, engine):
    colours = refined_colours(pattern)
    try:
        code, order = canonical_code_with_order(pattern, colours=colours)
    except CanonicalizationError:
        code = order = None
    else:
        if code in by_code:
            return by_code[code], order
    bucket = buckets.setdefault(graph_invariant(pattern, colours), [])
    if code is None:
        for existing, members in bucket:
            if engine.are_isomorphic(existing, pattern):
                return members, None
    members: list[OracleInstance] = []
    bucket.append((pattern, members))
    if code is not None:
        by_code[code] = members
    return members, order


def group_instances_by_pattern(
    host: LabeledGraph, instances: list[OracleInstance], engine: MatchEngine
) -> list[OracleSubstructure]:
    """Group instances by pattern: one canonical code per distinct layout,
    isomorphism for patterns too symmetric to canonicalise; every grouped
    instance records its class's canonical order (or ``None``)."""
    buckets: dict[str, list[tuple[LabeledGraph, list[OracleInstance]]]] = {}
    by_code: dict[str, list[OracleInstance]] = {}
    by_layout: dict[tuple, tuple[list[OracleInstance], tuple[int, ...] | None]] = {}
    for instance in instances:
        ordered, layout = instance_layout(host, instance)
        entry = by_layout.get(layout)
        if entry is None:
            grouped, canonical = _class_of(instance_pattern(host, instance), buckets, by_code, engine)
            if canonical is not None:
                position = {vertex: index for index, vertex in enumerate(ordered)}
                canonical = tuple([position[vertex] for vertex in canonical])
            entry = by_layout[layout] = (grouped, canonical)
        grouped, canonical = entry
        grouped.append(instance)
        object.__setattr__(
            instance,
            "order",
            None if canonical is None else tuple([ordered[index] for index in canonical]),
        )
    return [
        OracleSubstructure(pattern=pattern, instances=grouped)
        for bucket in buckets.values()
        for pattern, grouped in bucket
    ]


def initial_substructures(host: LabeledGraph, engine: MatchEngine) -> list[OracleSubstructure]:
    """One single-vertex substructure per label, from *host*'s engine index:
    labels in first-seen vertex order, each label's vertices in host order."""
    index = engine.index_of(host)
    compact = index.compact
    substructures = []
    for label_id, bucket in index.by_label.items():
        label = compact.table.label(label_id)
        pattern = LabeledGraph(name=f"seed-{label}")
        pattern.add_vertex("p0", label)
        instances = [OracleInstance.from_vertex(compact.vertex_ids[vertex]) for vertex in bucket]
        substructures.append(OracleSubstructure(pattern=pattern, instances=instances))
    return substructures


def expand_instance(host: LabeledGraph, instance: OracleInstance) -> list[OracleInstance]:
    """All one-edge extensions of *instance* using edges incident on it."""
    extensions = []
    seen: set[frozenset] = set()
    for vertex in sorted(instance.vertices):
        for edge in host.incident_edges(vertex):
            if edge in instance.edges:
                continue
            extended = instance.extended_with(edge)
            if extended.edges in seen:
                continue
            seen.add(extended.edges)
            extensions.append(extended)
    return extensions


def extended_instances(host: LabeledGraph, parent) -> list[OracleInstance]:
    """The deduplicated one-edge extensions of *parent*'s instances, each at
    its first-seen position with its last-seen order."""
    extended: dict[tuple[frozenset, frozenset], OracleInstance] = {}
    for instance in parent.instances:
        for new_instance in expand_instance(host, instance):
            extended[(new_instance.vertices, new_instance.edges)] = new_instance
    return list(extended.values())


def expand_substructure(
    host: LabeledGraph, substructure: OracleSubstructure, engine: MatchEngine
) -> list[OracleSubstructure]:
    extended = extended_instances(host, substructure)
    if not extended:
        return []
    return group_instances_by_pattern(host, extended, engine)


def compression_counts(host: LabeledGraph, instances: list) -> CompressionCounts:
    """The compressed host's counts from an owner map over frozensets."""
    owner: dict[VertexId, object] = {}
    internal_edges = 0
    for instance in instances:
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


def mdl_value(host: LabeledGraph, substructure: OracleSubstructure, engine: MatchEngine) -> float:
    index = engine.index_of(host)
    n_vertex_labels = max(1, len(index.vertex_label_hist))
    n_edge_labels = max(1, len(index.edge_label_hist))
    original = description_length(host, n_vertex_labels, n_edge_labels)
    sub_dl = description_length(substructure.pattern, n_vertex_labels, n_edge_labels)
    counts = compression_counts(host, substructure.non_overlapping())
    compressed_dl = description_length_of_counts(
        counts.vertices, counts.edges, n_vertex_labels + 1, n_edge_labels
    )
    per_edge_bits = 2.0 * math.log2(max(2, counts.vertices)) + math.log2(max(2, n_edge_labels))
    merged_bits = counts.merged_edges * per_edge_bits
    attachment_bits = counts.boundary_edges * math.log2(max(2, substructure.pattern.n_vertices))
    location_bits = counts.covered_vertices * math.log2(max(2, host.n_vertices))
    denominator = sub_dl + compressed_dl + merged_bits + attachment_bits + location_bits
    if denominator <= 0:
        return 0.0
    return original / denominator


def size_value(host: LabeledGraph, substructure: OracleSubstructure) -> float:
    original = graph_size(host)
    counts = compression_counts(host, substructure.non_overlapping())
    compressed_size = counts.vertices + counts.edges + counts.merged_edges
    denominator = graph_size(substructure.pattern) + compressed_size
    if denominator <= 0:
        return 0.0
    return original / denominator


def evaluate(host, substructure, principle, engine) -> float:
    if principle is EvaluationPrinciple.MDL:
        return mdl_value(host, substructure, engine)
    if principle is EvaluationPrinciple.SIZE:
        return size_value(host, substructure)
    raise ValueError(f"unknown evaluation principle: {principle}")


def keep_best(substructures: list, count: int) -> list:
    """The *count* highest-valued substructures, one per :func:`class_key`,
    value ties broken by that key."""
    unique: dict[tuple[str, str], OracleSubstructure] = {}
    for substructure in substructures:
        key = substructure.class_key()
        existing = unique.get(key)
        if existing is None or substructure.value > existing.value:
            unique[key] = substructure
    ordered = sorted(unique.items(), key=lambda item: (-item[1].value, item[0]))
    return [substructure for _, substructure in ordered[:count]]


def oracle_mine(
    host: LabeledGraph,
    beam_width: int = 4,
    max_best: int = 3,
    max_substructure_edges: int | None = 6,
    limit: int | None = 1_000,
    principle: EvaluationPrinciple = EvaluationPrinciple.MDL,
    min_instances: int = 2,
    max_instances: int | None = 2_000,
) -> tuple[list[OracleSubstructure], int]:
    """The frozenset beam search over a rank-id copy of *host*: the best
    substructures in the caller's ids, and how many candidates were
    evaluated.  Options are :class:`SubdueMiner`'s."""
    principle = EvaluationPrinciple(principle)
    ids = sorted(host.vertices(), key=str)
    ranked = host.renamed({vertex: rank for rank, vertex in enumerate(ids)})
    engine = MatchEngine()
    frontier = initial_substructures(ranked, engine)
    best: list[OracleSubstructure] = []
    evaluated = 0
    while frontier:
        expanded: list[OracleSubstructure] = []
        for parent in frontier:
            if max_substructure_edges is not None and parent.pattern.n_edges >= max_substructure_edges:
                continue
            expanded.extend(expand_substructure(ranked, parent, engine))
        if not expanded:
            break
        scored = []
        for candidate in expanded:
            if max_instances is not None and len(candidate.instances) > max_instances:
                candidate.instances = candidate.instances[:max_instances]
            if candidate.n_non_overlapping < min_instances:
                continue
            candidate.value = evaluate(ranked, candidate, principle, engine)
            evaluated += 1
            scored.append(candidate)
            if limit is not None and evaluated >= limit:
                break
        best.extend(scored)
        best = keep_best(best, max_best)
        if limit is not None and evaluated >= limit:
            break
        frontier = keep_best(scored, beam_width)
    return [substructure.renamed(ids) for substructure in keep_best(best, max_best)], evaluated
