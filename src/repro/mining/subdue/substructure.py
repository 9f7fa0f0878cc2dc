"""Substructures and their instances in a host graph.

A *substructure* is a small pattern graph together with the list of its
*instances* — concrete occurrences inside the host graph, each identified
by the host vertices and edges it covers.  SUBDUE grows substructures by
extending every instance by one incident edge and re-grouping the extended
instances by the pattern they form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graphs.canonical import (
    CanonicalizationError,
    canonical_code,
    graph_invariant,
    refined_colours,
)
from repro.graphs.engine import MatchEngine
from repro.graphs.labeled_graph import Edge, LabeledGraph, VertexId
from repro.obs.tracer import get_tracer


@dataclass(frozen=True)
class Instance:
    """One concrete occurrence of a substructure inside the host graph."""

    vertices: frozenset[VertexId]
    edges: frozenset[Edge]

    @classmethod
    def from_vertex(cls, vertex: VertexId) -> "Instance":
        """A single-vertex instance (the starting point of the search)."""
        return cls(vertices=frozenset([vertex]), edges=frozenset())

    def extended_with(self, edge: Edge) -> "Instance":
        """A new instance including *edge* and its endpoints."""
        return Instance(
            vertices=self.vertices | {edge.source, edge.target},
            edges=self.edges | {edge},
        )

    def overlaps(self, other: "Instance") -> bool:
        """Whether the two instances share any vertex."""
        return bool(self.vertices & other.vertices)

    @property
    def n_edges(self) -> int:
        """Number of edges covered by the instance."""
        return len(self.edges)


def instance_key(instance: Instance) -> tuple:
    """A total order over instances independent of hash seed.

    Instances live in frozensets whose iteration order follows the
    process hash seed; everything that turns instances into an ordered
    choice (greedy non-overlap selection, expansion, truncation) sorts by
    this key first so SUBDUE output is identical across interpreter runs.
    """
    return (
        len(instance.edges),
        sorted((str(e.source), str(e.label), str(e.target)) for e in instance.edges),
        sorted(str(v) for v in instance.vertices),
    )


def instance_pattern(host: LabeledGraph, instance: Instance) -> LabeledGraph:
    """The pattern graph an instance represents (host labels preserved)."""
    pattern = LabeledGraph(name="substructure")
    for vertex in sorted(instance.vertices, key=str):
        pattern.add_vertex(vertex, host.vertex_label(vertex))
    for edge in sorted(instance.edges, key=lambda e: (str(e.source), str(e.target), str(e.label))):
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

    ``instances`` should be *rebound* (assigned a new list), not mutated
    in place: the non-overlapping selection is cached against the list
    object itself (the kept reference also pins it, so a recycled
    allocation can never false-match).  Callers that must mutate in
    place call :meth:`invalidate` afterwards.
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

        Candidate filtering, evaluation, and compression all need the
        same selection, and the sort inside :func:`select_non_overlapping`
        is the hottest per-candidate work — so the result is cached and
        recomputed whenever :attr:`instances` is rebound to another list
        (the miner truncates by assigning a new, shorter one).
        """
        if self._non_overlap_cache is None or self._non_overlap_cache[0] is not self.instances:
            self._non_overlap_cache = (self.instances, select_non_overlapping(self.instances))
        return self._non_overlap_cache[1]

    def invalidate(self) -> None:
        """Drop the cached non-overlapping selection after an in-place mutation."""
        self._non_overlap_cache = None

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


def _instance_layout(host: LabeledGraph, instance: Instance) -> tuple:
    """*instance*'s pattern up to vertex renaming, as a hashable key.

    Vertices take positions in ``str`` order, as in
    :func:`instance_pattern`; the key is their labels in that order plus
    every edge as ``(source position, target position, label)``.  Equal
    layouts give isomorphic patterns, so grouping canonicalises one
    pattern per layout.
    """
    ordered = sorted(instance.vertices, key=str)
    position = {vertex: index for index, vertex in enumerate(ordered)}
    return (
        tuple([host.vertex_label(vertex) for vertex in ordered]),
        frozenset(
            [(position[edge.source], position[edge.target], edge.label) for edge in instance.edges]
        ),
    )


def _class_of(
    pattern: LabeledGraph,
    buckets: dict[str, list[tuple[LabeledGraph, list[Instance]]]],
    by_code: dict[str, list[Instance]],
    engine: MatchEngine,
) -> list[Instance]:
    """The instance list of *pattern*'s class, opening the class if it is new.

    One refinement serves the canonical code and, for a new class or a
    pattern too symmetric to canonicalise, the invariant bucket.
    """
    colours = refined_colours(pattern)
    try:
        code = canonical_code(pattern, colours=colours)
    except CanonicalizationError:
        get_tracer().metrics.counter("canonical_fallbacks", site="subdue")
        code = None
    else:
        if code in by_code:
            return by_code[code]
    bucket = buckets.setdefault(graph_invariant(pattern, colours), [])
    if code is None:
        for existing, members in bucket:
            if engine.are_isomorphic(existing, pattern):
                return members
    members: list[Instance] = []
    bucket.append((pattern, members))
    if code is not None:
        by_code[code] = members
    return members


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
    *engine*'s indexed kernel.

    Substructures come out in first-seen order of their invariant, then
    first-seen order within it; each keeps its instances in input order
    and the pattern of its first instance.
    """
    buckets: dict[str, list[tuple[LabeledGraph, list[Instance]]]] = {}
    by_code: dict[str, list[Instance]] = {}
    by_layout: dict[tuple, list[Instance]] = {}
    for instance in instances:
        layout = _instance_layout(host, instance)
        grouped = by_layout.get(layout)
        if grouped is None:
            grouped = _class_of(instance_pattern(host, instance), buckets, by_code, engine)
            by_layout[layout] = grouped
        grouped.append(instance)
    substructures: list[Substructure] = []
    for bucket in buckets.values():
        for pattern, grouped in bucket:
            substructures.append(Substructure(pattern=pattern, instances=grouped))
    return substructures
