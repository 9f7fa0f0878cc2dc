"""Substructures and their instances in a host graph.

A *substructure* is a small pattern graph together with the list of its
*instances* — concrete occurrences inside the host graph, each identified
by the host vertices and edges it covers.  SUBDUE grows substructures by
extending every instance by one incident edge and re-grouping the extended
instances by the pattern they form.

Every ordered choice below (instance keys, pattern vertex order, instance
layouts) compares vertex ids by value, so a host handed to these helpers
directly needs mutually orderable vertex ids.
:meth:`~repro.mining.subdue.miner.SubdueMiner.mine` searches a copy of
its host whose ids are ranks in ``str`` order, so any host works there.
"""

from __future__ import annotations

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
from repro.obs.tracer import get_tracer


@dataclass(frozen=True, slots=True)
class Instance:
    """One concrete occurrence of a substructure inside the host graph.

    ``order``, when set, lists ``vertices`` once each in the order
    grouping reads the instance in (see :func:`_instance_layout`); it takes
    no part in equality or hashing.  A seed records its one vertex, an
    extension its parent's order plus the vertex its new edge adds, and
    :func:`group_instances_by_pattern` replaces it with the order of the
    instance's class's canonical code, or with ``None`` when the class is
    too symmetric to canonicalise.
    """

    vertices: frozenset[VertexId]
    edges: frozenset[Edge]
    order: tuple[VertexId, ...] | None = field(default=None, compare=False)

    @classmethod
    def from_vertex(cls, vertex: VertexId) -> "Instance":
        """A single-vertex instance (the starting point of the search)."""
        return cls(vertices=frozenset([vertex]), edges=frozenset(), order=(vertex,))

    def extended_with(self, edge: Edge) -> "Instance":
        """A new instance including *edge* and its endpoints."""
        source, target = edge.source, edge.target
        order = self.order
        if order is not None:
            if source not in self.vertices:
                order += (source,)
            if target not in self.vertices and target != source:
                order += (target,)
        return Instance(
            vertices=self.vertices | {source, target},
            edges=self.edges | {edge},
            order=order,
        )

    def overlaps(self, other: "Instance") -> bool:
        """Whether the two instances share any vertex."""
        return bool(self.vertices & other.vertices)

    @property
    def n_edges(self) -> int:
        """Number of edges covered by the instance."""
        return len(self.edges)

    def renamed(self, mapping: Mapping[VertexId, VertexId] | Sequence[VertexId]) -> "Instance":
        """This instance with every vertex id replaced by ``mapping[id]``
        (and no recorded order)."""
        return Instance(
            vertices=frozenset([mapping[vertex] for vertex in self.vertices]),
            edges=frozenset(
                [Edge(mapping[edge.source], mapping[edge.target], edge.label) for edge in self.edges]
            ),
        )


def instance_key(instance: Instance) -> tuple:
    """A total order over instances independent of hash seed.

    Instances live in frozensets whose iteration order follows the
    process hash seed; everything that turns instances into an ordered
    choice (greedy non-overlap selection, expansion, truncation) sorts by
    this key first so SUBDUE output is identical across interpreter runs.
    Vertex ids compare by value: on the miner's host they are ranks in
    the caller's ``str`` order, so the key orders instances as the
    caller's ``str`` forms would.
    """
    return (
        len(instance.edges),
        sorted([(e.source, str(e.label), e.target) for e in instance.edges]),
        sorted(instance.vertices),
    )


_source_target = attrgetter("source", "target")


def instance_pattern(host: LabeledGraph, instance: Instance) -> LabeledGraph:
    """The pattern graph an instance represents (host labels preserved).

    Vertices are added in value order, and edges in ``(source, target)``
    order.
    """
    pattern = LabeledGraph(name="substructure")
    for vertex in sorted(instance.vertices):
        pattern.add_vertex(vertex, host.vertex_label(vertex))
    for edge in sorted(instance.edges, key=_source_target):
        pattern.add_edge(edge.source, edge.target, edge.label)
    return pattern


def select_non_overlapping(instances: list[Instance]) -> list[Instance]:
    """Greedy maximal set of vertex-disjoint instances.

    The paper's experiments disallow overlapping patterns, so substructure
    value is computed from vertex-disjoint instances only.  Candidates are
    visited in :func:`instance_key` order, so the selection (and with it
    every instance count and MDL value) does not depend on the hash seed.
    """
    chosen: list[Instance] = []
    used: set[VertexId] = set()
    for instance in sorted(instances, key=instance_key):
        if instance.vertices & used:
            continue
        chosen.append(instance)
        used |= instance.vertices
    return chosen


@dataclass
class Substructure:
    """A pattern graph plus its instances in the host graph.

    ``instances`` must be *rebound* (assigned a new list), not mutated
    in place: the non-overlapping selection is cached against the list
    object itself (the kept reference also pins it, so a recycled
    allocation can never false-match), and an in-place change would
    leave that cache stale.
    """

    pattern: LabeledGraph
    instances: list[Instance] = field(default_factory=list)
    value: float = 0.0
    _non_overlap_cache: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n_instances(self) -> int:
        """Number of (possibly overlapping) instances found."""
        return len(self.instances)

    def non_overlapping(self) -> list[Instance]:
        """The greedy vertex-disjoint selection, computed once per instance list.

        Candidate filtering and evaluation both need the same selection,
        and the sort inside :func:`select_non_overlapping` is the hottest
        per-candidate work — so the result is cached and recomputed
        whenever :attr:`instances` is rebound to another list (the miner
        truncates by assigning a new, shorter one).
        """
        if self._non_overlap_cache is None or self._non_overlap_cache[0] is not self.instances:
            self._non_overlap_cache = (self.instances, select_non_overlapping(self.instances))
        return self._non_overlap_cache[1]

    @property
    def n_non_overlapping(self) -> int:
        """Number of vertex-disjoint instances (the count SUBDUE reports)."""
        return len(self.non_overlapping())

    @property
    def n_edges(self) -> int:
        """Edges in the pattern graph."""
        return self.pattern.n_edges

    @property
    def n_vertices(self) -> int:
        """Vertices in the pattern graph."""
        return self.pattern.n_vertices

    def renamed(self, mapping: Mapping[VertexId, VertexId] | Sequence[VertexId]) -> "Substructure":
        """This substructure with every vertex id replaced by ``mapping[id]``.

        The pattern, the instances and the non-overlapping selection are
        all carried over; the selection is mapped, not recomputed, so it
        stays the one the value was computed from.
        """
        instances = [instance.renamed(mapping) for instance in self.instances]
        # The selection holds members of ``self.instances`` themselves.
        renamed = {id(old): new for old, new in zip(self.instances, instances)}
        result = Substructure(pattern=self.pattern.renamed(mapping), instances=instances, value=self.value)
        result._non_overlap_cache = (instances, [renamed[id(instance)] for instance in self.non_overlapping()])
        return result

    def class_key(self) -> tuple[str, str]:
        """The pattern's ``(invariant, canonical code)``.

        Isomorphic patterns share a key.  The invariant alone is colour
        refinement, which can merge distinct classes; the code separates
        them.  A pattern too symmetric to canonicalise gets the code
        ``""`` and is keyed by its invariant alone.
        """
        colours = refined_colours(self.pattern)
        try:
            code = canonical_code(self.pattern, colours=colours)
        except CanonicalizationError:
            code = ""
        return graph_invariant(self.pattern, colours), code

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Substructure(vertices={self.n_vertices}, edges={self.n_edges}, "
            f"instances={self.n_instances}, value={self.value:.4f})"
        )


def _instance_layout(host: LabeledGraph, instance: Instance) -> tuple[tuple, tuple]:
    """*instance*'s vertex reading order, and its pattern as a hashable key.

    The reading order is the instance's recorded ``order`` or, without
    one, value order as in :func:`instance_pattern`.  The key is the
    vertices' labels in that order plus every edge as ``(source position,
    target position, label)``.  Equal keys give isomorphic patterns, so
    grouping canonicalises one pattern per key.  Every instance of a
    canonicalised class records its class's canonical order, so the
    extensions of one class that add the same edge (same anchor position,
    direction, edge label and new-vertex label) share one key.
    """
    ordered = instance.order
    if ordered is None:
        ordered = tuple(sorted(instance.vertices))
    position = {vertex: index for index, vertex in enumerate(ordered)}
    labels = tuple([host.vertex_label(vertex) for vertex in ordered])
    edges = frozenset(
        [(position[edge.source], position[edge.target], edge.label) for edge in instance.edges]
    )
    return ordered, (labels, edges)


def _class_of(
    pattern: LabeledGraph,
    buckets: dict[str, list[tuple[LabeledGraph, list[Instance]]]],
    by_code: dict[str, list[Instance]],
    engine: MatchEngine,
) -> tuple[list[Instance], tuple[VertexId, ...] | None]:
    """The instance list of *pattern*'s class, opening the class if it is new,
    and *pattern*'s vertices in canonical order (``None`` if the pattern is
    too symmetric to canonicalise).

    One refinement serves the canonical code and, for a new class or a
    pattern too symmetric to canonicalise, the invariant bucket.
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
    bucket = buckets.setdefault(graph_invariant(pattern, colours), [])
    if code is None:
        for existing, members in bucket:
            if engine.are_isomorphic(existing, pattern):
                return members, None
    members: list[Instance] = []
    bucket.append((pattern, members))
    if code is not None:
        by_code[code] = members
    return members, order


def group_instances_by_pattern(
    host: LabeledGraph,
    instances: list[Instance],
    engine: MatchEngine,
) -> list[Substructure]:
    """Group raw instances into substructures by pattern isomorphism.

    Instances whose induced patterns are isomorphic (labels included)
    belong to the same substructure.  The first instance of each distinct
    layout (see :func:`_instance_layout`) builds its pattern and is
    classed by exact canonical code; later instances of that layout reuse
    the class.  Patterns too symmetric to canonicalise fall back to exact
    isomorphism against the classes sharing their invariant, through
    *engine*'s indexed kernel.  Each grouped instance then records its
    vertices in its class's canonical order (``order``), or ``None``
    for a class too symmetric to canonicalise.

    Substructures come out in first-seen order of their invariant, then
    first-seen order within it; each keeps its instances in input order
    and the pattern of its first instance.  Each call is one
    ``subdue.group`` span.
    """
    with get_tracer().span("subdue.group"):
        buckets: dict[str, list[tuple[LabeledGraph, list[Instance]]]] = {}
        by_code: dict[str, list[Instance]] = {}
        # Layout key -> (class members, canonical order as positions in
        # the layout's reading order, or None).
        by_layout: dict[tuple, tuple[list[Instance], tuple[int, ...] | None]] = {}
        for instance in instances:
            ordered, layout = _instance_layout(host, instance)
            entry = by_layout.get(layout)
            if entry is None:
                grouped, canonical = _class_of(instance_pattern(host, instance), buckets, by_code, engine)
                if canonical is not None:
                    position = {vertex: index for index, vertex in enumerate(ordered)}
                    canonical = tuple([position[vertex] for vertex in canonical])
                entry = by_layout[layout] = (grouped, canonical)
            grouped, canonical = entry
            grouped.append(instance)
            # ``order`` is outside equality and hashing, so recording it in
            # place leaves the instance's identity as a value untouched.
            object.__setattr__(
                instance,
                "order",
                None if canonical is None else tuple([ordered[index] for index in canonical]),
            )
        substructures: list[Substructure] = []
        for bucket in buckets.values():
            for pattern, grouped in bucket:
                substructures.append(Substructure(pattern=pattern, instances=grouped))
        return substructures
