"""Substructures and their instances in a host graph.

A *substructure* is a small pattern graph together with the list of its
*instances* — concrete occurrences inside the host graph, each identified
by the host vertices and edges it covers.  SUBDUE grows substructures by
extending every instance by one incident edge and re-grouping the extended
instances by the pattern they form.

The search works on integers.  :class:`IntegerHost` is the host with
vertex ranks for ids and numbered edges, built once per mine; a
:class:`Candidate` is one pattern class found during the search, and
each of its instances is an ``(edge bits, vertex bits, order)`` triple
over that host (see :class:`Candidate`).  Only the reported best
candidates become :class:`Substructure` objects, whose :class:`Instance`
records hold frozensets of the caller's vertex ids and :class:`Edge`
records (:meth:`Candidate.report`).

Every ordered choice compares ranks, and ranks follow the caller's
``str`` order, so the search makes the choices the caller's ``str`` forms
would and needs no orderable vertex ids.  An edge set orders as the
sorted list of its edges' ``(source, str(label), target)`` triples would,
which is how instances are visited by :func:`select_non_overlapping`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable

from repro.graphs.canonical import (
    CanonicalizationError,
    canonical_code_with_order,
    graph_invariant,
    refined_colours,
)
from repro.graphs.engine import MatchEngine
from repro.graphs.labeled_graph import Edge, Label, LabeledGraph, VertexId
from repro.mining.subdue.mdl import description_length_of_counts
from repro.obs.tracer import get_tracer

#: An instance during the search: ``(edge bits, vertex bits, order)``.
IntegerInstance = tuple[int, int, "tuple[int, ...] | None"]


def bit_positions(bits: int) -> list[int]:
    """The positions of the set bits of *bits*, ascending."""
    positions: list[int] = []
    while bits:
        low = bits & -bits
        positions.append(low.bit_length() - 1)
        bits ^= low
    return positions


class IntegerHost:
    """A host graph as integers: everything the search reads of it.

    Vertices are *ranks*: the host's ids sorted by ``str``, ties kept in
    host order; ``ids[rank]`` is the caller's id.  Edges are numbered in
    ``(source rank, str(label), target rank)`` order, which is strict
    because the host is simple.  A vertex set is a bitset with rank ``v``
    at bit ``v``.  An edge set is a bitset with edge ``e`` at bit
    ``n_edges - 1 - e``: for edge sets of one size, the larger bitset is
    the one whose sorted edge numbers come first lexicographically.

    ``incident[v]`` lists ``(edge bit, other end, outgoing, label)`` for
    every edge touching ``v`` in :meth:`LabeledGraph.incident_edges` order
    (successors, then predecessors, each in insertion order; a self-loop
    is listed twice), which fixes the expansion order.  ``successors`` and
    ``predecessors`` are the rank tuples evaluation walks.  The host's
    label alphabet sizes and description length are computed here, once
    per mine.
    """

    __slots__ = (
        "ids",
        "labels",
        "host_order",
        "edges",
        "incident",
        "successors",
        "predecessors",
        "n_vertices",
        "n_edges",
        "n_vertex_labels",
        "n_edge_labels",
        "description_length",
    )

    def __init__(self, graph: LabeledGraph) -> None:
        self.ids: list[VertexId] = sorted(graph.vertices(), key=str)
        rank = {vertex: index for index, vertex in enumerate(self.ids)}
        #: Vertex labels by rank.
        self.labels: list[Label] = [graph.vertex_label(vertex) for vertex in self.ids]
        #: Ranks in the host's vertex insertion order.
        self.host_order: list[int] = [rank[vertex] for vertex in graph.vertices()]
        ordered = sorted(
            [(rank[edge.source], str(edge.label), rank[edge.target], edge.label) for edge in graph.edges()]
        )
        #: ``(source, target, label)`` by edge number.
        self.edges: list[tuple[int, int, Label]] = [
            (source, target, label) for source, _, target, label in ordered
        ]
        self.n_vertices = len(self.ids)
        self.n_edges = len(self.edges)
        bit_of = {
            (source, target): 1 << (self.n_edges - 1 - number)
            for number, (source, target, _) in enumerate(self.edges)
        }
        self.incident: list[tuple[tuple[int, int, bool, Label], ...]] = []
        for index, vertex in enumerate(self.ids):
            outgoing = [
                (bit_of[index, rank[target]], rank[target], True, graph.edge_label(vertex, target))
                for target in graph.successors(vertex)
            ]
            incoming = [
                (bit_of[rank[source], index], rank[source], False, graph.edge_label(source, vertex))
                for source in graph.predecessors(vertex)
            ]
            self.incident.append(tuple(outgoing + incoming))
        self.successors = [
            tuple([rank[target] for target in graph.successors(vertex)]) for vertex in self.ids
        ]
        self.predecessors = [
            tuple([rank[source] for source in graph.predecessors(vertex)]) for vertex in self.ids
        ]
        self.n_vertex_labels = max(1, len(set(self.labels)))
        self.n_edge_labels = max(1, len({label for _, _, label in self.edges}))
        self.description_length = description_length_of_counts(
            self.n_vertices, self.n_edges, self.n_vertex_labels, self.n_edge_labels
        )

    def edges_of(self, edge_bits: int) -> list[tuple[int, int, Label]]:
        """The ``(source, target, label)`` edges of an edge bitset, in
        edge-number order."""
        last = self.n_edges - 1
        return [self.edges[last - position] for position in reversed(bit_positions(edge_bits))]

    def instance(self, edge_bits: int, vertex_bits: int) -> "Instance":
        """The :class:`Instance` of these bitsets, in the caller's ids."""
        ids = self.ids
        return Instance(
            vertices=frozenset([ids[vertex] for vertex in bit_positions(vertex_bits)]),
            edges=frozenset(
                [Edge(ids[source], ids[target], label) for source, target, label in self.edges_of(edge_bits)]
            ),
        )


@dataclass(frozen=True, slots=True)
class Instance:
    """One reported occurrence of a substructure inside the host graph."""

    vertices: frozenset[VertexId]
    edges: frozenset[Edge]

    @property
    def n_edges(self) -> int:
        """Number of edges covered by the instance."""
        return len(self.edges)


@dataclass
class Substructure:
    """A reported substructure: a pattern graph plus its instances in the host.

    Everything is in the caller's vertex ids.  ``selection`` is the greedy
    vertex-disjoint choice of instances the search valued the
    substructure on (members of ``instances``); it is fixed when the
    substructure is reported and is not recomputed if ``instances``
    changes.
    """

    pattern: LabeledGraph
    instances: list[Instance] = field(default_factory=list)
    value: float = 0.0
    selection: list[Instance] = field(default_factory=list)

    @property
    def n_instances(self) -> int:
        """Number of (possibly overlapping) instances found."""
        return len(self.instances)

    def non_overlapping(self) -> list[Instance]:
        """The vertex-disjoint instances the value was computed from."""
        return self.selection

    @property
    def n_non_overlapping(self) -> int:
        """Number of vertex-disjoint instances (the count SUBDUE reports)."""
        return len(self.selection)

    @property
    def n_edges(self) -> int:
        """Edges in the pattern graph."""
        return self.pattern.n_edges

    @property
    def n_vertices(self) -> int:
        """Vertices in the pattern graph."""
        return self.pattern.n_vertices

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Substructure(vertices={self.n_vertices}, edges={self.n_edges}, "
            f"instances={self.n_instances}, value={self.value:.4f})"
        )


@dataclass(slots=True)
class Candidate:
    """A substructure during the search: one class of isomorphic instances.

    ``pattern`` is the class's pattern over ranks (its first instance's,
    see :func:`instance_pattern`).  Each instance is an ``(edge bits,
    vertex bits, order)`` triple over an :class:`IntegerHost`; ``order``
    lists the instance's ranks in its class's canonical order, so every
    instance of the class reads the same positional layout in it, or is
    ``None`` for a class too symmetric to canonicalise.  A seed's one
    vertex is its order.

    ``key`` is the class's ``(invariant, canonical code)``, computed when
    grouping opened the class (``None`` for a seed, which is never
    ranked): isomorphic patterns share a key, and a pattern too symmetric
    to canonicalise has the code ``""``.  ``selection`` is the greedy
    vertex-disjoint choice of instances the miner makes before
    evaluation, and ``value`` what evaluation gave it.
    """

    pattern: LabeledGraph
    instances: list[IntegerInstance]
    key: tuple[str, str] | None = None
    value: float = 0.0
    selection: list[IntegerInstance] = field(default_factory=list)

    def report(self, host: IntegerHost) -> Substructure:
        """This candidate as a :class:`Substructure` in the caller's ids.

        The selection is mapped, not recomputed, so it stays the one the
        value was computed from.
        """
        instances = {
            edge_bits: host.instance(edge_bits, vertex_bits) for edge_bits, vertex_bits, _ in self.instances
        }
        return Substructure(
            pattern=self.pattern.renamed(host.ids),
            instances=list(instances.values()),
            value=self.value,
            selection=[instances[edge_bits] for edge_bits, _, _ in self.selection],
        )


def instance_pattern(host: IntegerHost, edge_bits: int, vertex_bits: int) -> LabeledGraph:
    """The pattern graph an instance represents, over ranks (host labels
    preserved).

    Vertices are added in rank order, and edges in ``(source, target)``
    order.
    """
    pattern = LabeledGraph(name="substructure")
    labels = host.labels
    for vertex in bit_positions(vertex_bits):
        pattern.add_vertex(vertex, labels[vertex])
    for source, target, label in sorted(host.edges_of(edge_bits), key=_source_target):
        pattern.add_edge(source, target, label)
    return pattern


_source_target = itemgetter(0, 1)


def select_non_overlapping(instances: list[IntegerInstance]) -> list[IntegerInstance]:
    """Greedy maximal set of vertex-disjoint instances of one class.

    The paper's experiments disallow overlapping patterns, so substructure
    value is computed from vertex-disjoint instances only.  Instances are
    visited by their edge sets' sorted ``(source, str(label), target)``
    lists, smallest first, so the selection (and with it every instance
    count and MDL value) does not depend on discovery order or hash seed.
    The instances of one class have one edge count and distinct edge sets
    (seeds are never selected), so that order is the edge bitsets'
    descending order.
    """
    chosen: list[IntegerInstance] = []
    used = 0
    for instance in sorted(instances, key=_edge_bits, reverse=True):
        vertex_bits = instance[1]
        if vertex_bits & used:
            continue
        chosen.append(instance)
        used |= vertex_bits
    return chosen


_edge_bits = itemgetter(0)


def _layout(host: IntegerHost, edge_bits: int, order: tuple[int, ...]) -> tuple[tuple, frozenset]:
    """An instance's pattern as read in *order*: its vertices' labels in
    that order, and every edge as ``(source position, target position,
    label)``.  Equal layouts give isomorphic patterns."""
    position = {vertex: index for index, vertex in enumerate(order)}
    labels = host.labels
    return (
        tuple([labels[vertex] for vertex in order]),
        frozenset(
            [(position[source], position[target], label) for source, target, label in host.edges_of(edge_bits)]
        ),
    )


def _class_of(
    pattern: LabeledGraph,
    buckets: dict[str, list[Candidate]],
    by_code: dict[str, Candidate],
    engine: MatchEngine,
) -> tuple[Candidate, tuple[int, ...] | None]:
    """*pattern*'s class, opened if it is new, and *pattern*'s vertices in
    canonical order (``None`` if the pattern is too symmetric to
    canonicalise).

    One refinement serves the canonical code and, for a new class or a
    pattern too symmetric to canonicalise, the invariant bucket; a new
    class keeps the two as its key.
    """
    colours = refined_colours(pattern)
    try:
        code, order = canonical_code_with_order(pattern, colours=colours)
    except CanonicalizationError:
        get_tracer().metrics.counter("canonical_fallbacks", site="subdue")
        code = order = None
    else:
        if code in by_code:
            return by_code[code], order
    invariant = graph_invariant(pattern, colours)
    bucket = buckets.setdefault(invariant, [])
    if code is None:
        for existing in bucket:
            if engine.are_isomorphic(existing.pattern, pattern):
                return existing, None
    opened = Candidate(pattern=pattern, instances=[], key=(invariant, code or ""))
    bucket.append(opened)
    if code is not None:
        by_code[code] = opened
    return opened, order


def group_instances_by_pattern(
    host: IntegerHost,
    children: dict[int, tuple[int, tuple[int, ...] | None, tuple | None]],
    engine: MatchEngine,
) -> list[Candidate]:
    """Group the one-edge extensions of one candidate into pattern classes.

    *children* maps each extension's edge bits to its vertex bits, its
    order (its parent's order plus the vertex its edge adds) and its
    *token*: ``(source position, target position, edge label, new
    vertex's label)``, positions in that order (see
    :func:`~repro.mining.subdue.expansion.extend_instances`).  The
    parent's instances all read its class's canonical layout in their
    orders, so the token fixes the child's layout: equal tokens mean
    equal layouts.  A child of a class too symmetric to canonicalise has
    no order and no token; it is read in rank order and keyed by its
    whole layout.

    The first child of each token builds its pattern
    (:func:`instance_pattern`) and is classed by exact canonical code;
    later children of that token reuse the class.  Patterns too symmetric
    to canonicalise fall back to exact isomorphism against the classes
    sharing their invariant, through *engine*'s indexed kernel.  Each
    grouped instance records its ranks in its class's canonical order, or
    ``None`` for a class too symmetric to canonicalise.

    Classes come out in first-seen order of their invariant, then
    first-seen order within it; each keeps its instances in *children*
    order and the pattern of its first instance.  Each call is one
    ``subdue.group`` span.
    """
    with get_tracer().span("subdue.group"):
        buckets: dict[str, list[Candidate]] = {}
        by_code: dict[str, Candidate] = {}
        # Token -> (class members, the map from a reading order to the
        # canonical one).
        by_token: dict[tuple, tuple[list[IntegerInstance], Callable]] = {}
        for edge_bits, (vertex_bits, order, token) in children.items():
            if token is None:
                order = tuple(bit_positions(vertex_bits))
                token = _layout(host, edge_bits, order)
            entry = by_token.get(token)
            if entry is None:
                pattern = instance_pattern(host, edge_bits, vertex_bits)
                opened, canonical = _class_of(pattern, buckets, by_code, engine)
                entry = by_token[token] = (opened.instances, _reordering(order, canonical))
            members, reorder = entry
            members.append((edge_bits, vertex_bits, reorder(order)))
        return [candidate for bucket in buckets.values() for candidate in bucket]


def _reordering(order: tuple[int, ...], canonical: tuple[int, ...] | None) -> Callable:
    """The map from a child's reading order to its class's canonical
    order, for every child of one token: *order* is the first child's
    reading order and *canonical* the same ranks in canonical order
    (``None``: the class records no order)."""
    if canonical is None:
        return _no_order
    position = {vertex: index for index, vertex in enumerate(order)}
    indices = tuple([position[vertex] for vertex in canonical])
    if indices == tuple(range(len(indices))):
        return _same_order
    return itemgetter(*indices)


def _no_order(order: tuple[int, ...]) -> None:
    return None


def _same_order(order: tuple[int, ...]) -> tuple[int, ...]:
    return order
