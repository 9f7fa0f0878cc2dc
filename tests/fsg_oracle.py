"""The labeled-graph FSG candidate generator: the oracle of the integer one.

This is candidate generation as it was before candidates became label
ids: every raw extension is a :class:`LabeledGraph` copy plus one edge
(:func:`extend_pattern`), and :func:`deduplicate` groups candidates into
:func:`~repro.graphs.canonical.graph_invariant` buckets and compares
string :func:`~repro.graphs.canonical.canonical_code` values inside a
bucket, falling back to an exact isomorphism check when canonicalisation
overflows.  It keeps its output in bucket order: buckets in first-seen
order, then classes within a bucket.

:mod:`repro.mining.fsg.candidates` must produce the same unique
candidates, in first-seen order, with the same scan bitsets, derivations
and survivor graphs (``tests/test_fsg_candidates.py`` checks this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from repro.graphs.canonical import (
    CanonicalizationError,
    canonical_code,
    graph_invariant,
    refined_colours,
)
from repro.graphs.engine import MatchEngine
from repro.graphs.labeled_graph import LabeledGraph

EdgeTriple = tuple[Hashable, Hashable, Hashable]
Extension = tuple[int, int, bool]


@dataclass
class LabeledCandidate:
    """A candidate as a labeled graph, with its scan set and derivation."""

    pattern: LabeledGraph
    parent_bits: int | None = None
    invariant: str = field(default="")
    parent_uid: object = None
    extension: Extension | None = None
    uid: object = None
    colours: dict | None = None
    code: object = None

    def fingerprint(self) -> str:
        """The pattern's invariant; the colouring is kept for the code."""
        if not self.invariant:
            self.colours = refined_colours(self.pattern)
            self.invariant = graph_invariant(self.pattern, colours=self.colours)
        return self.invariant


def single_edge_pattern(source_label: Hashable, edge_label: Hashable, target_label: Hashable) -> LabeledGraph:
    """The one-edge pattern graph for a label triple."""
    graph = LabeledGraph(name="edge-pattern")
    graph.add_vertex("p0", source_label)
    graph.add_vertex("p1", target_label)
    graph.add_edge("p0", "p1", edge_label)
    return graph


def _fresh_vertex_name(pattern: LabeledGraph) -> str:
    index = pattern.n_vertices
    while f"p{index}" in pattern:
        index += 1
    return f"p{index}"


def extend_pattern(
    pattern: LabeledGraph,
    frequent_triples: Iterable[EdgeTriple],
) -> list[tuple[LabeledGraph, Extension]]:
    """All one-edge extensions of *pattern* using frequent edge triples.

    Forward extensions attach a new vertex to an existing one (in both
    directions); backward extensions join two existing vertices.  Each
    extended graph comes with its :data:`Extension` descriptor in vertex
    positions.  The list may hold isomorphic duplicates.
    """
    extensions: list[tuple[LabeledGraph, Extension]] = []
    vertices = list(pattern.vertices())
    position_of = {vertex: position for position, vertex in enumerate(vertices)}
    new_position = len(vertices)
    for source_label, edge_label, target_label in frequent_triples:
        for vertex in vertices:
            vertex_label = pattern.vertex_label(vertex)
            # Forward extension: existing vertex -> new vertex.
            if vertex_label == source_label:
                extended = pattern.copy()
                new_vertex = _fresh_vertex_name(extended)
                extended.add_vertex(new_vertex, target_label)
                extended.add_edge(vertex, new_vertex, edge_label)
                extensions.append((extended, (position_of[vertex], new_position, True)))
            # Forward extension: new vertex -> existing vertex.
            if vertex_label == target_label:
                extended = pattern.copy()
                new_vertex = _fresh_vertex_name(extended)
                extended.add_vertex(new_vertex, source_label)
                extended.add_edge(new_vertex, vertex, edge_label)
                extensions.append((extended, (new_position, position_of[vertex], True)))
        # Backward extension: connect two existing vertices.
        for source in vertices:
            if pattern.vertex_label(source) != source_label:
                continue
            for target in vertices:
                if source == target or pattern.vertex_label(target) != target_label:
                    continue
                if pattern.has_edge(source, target):
                    continue
                extended = pattern.copy()
                extended.add_edge(source, target, edge_label)
                extensions.append(
                    (extended, (position_of[source], position_of[target], False))
                )
    return extensions


def raw_candidates(
    frequent_patterns: Sequence[LabeledCandidate],
    frequent_triples: Iterable[EdgeTriple],
) -> list[LabeledCandidate]:
    """Every one-edge extension of every pattern, before deduplication."""
    triples = list(frequent_triples)
    return [
        LabeledCandidate(
            pattern=extended,
            parent_bits=parent.parent_bits,
            parent_uid=parent.uid,
            extension=extension,
        )
        for parent in frequent_patterns
        for extended, extension in extend_pattern(parent.pattern, triples)
    ]


_CANON_FAILED = object()


def _canonical_of(candidate: LabeledCandidate):
    code = candidate.code
    if code is None:
        if candidate.colours is None:
            candidate.colours = refined_colours(candidate.pattern)
        try:
            code = canonical_code(candidate.pattern, colours=candidate.colours)
        except CanonicalizationError:
            code = _CANON_FAILED
        candidate.code = code
    return code


def _same_class(first: LabeledCandidate, second: LabeledCandidate, engine: MatchEngine) -> bool:
    code_a = _canonical_of(first)
    code_b = _canonical_of(second)
    if code_a is _CANON_FAILED or code_b is _CANON_FAILED:
        return engine.are_isomorphic(first.pattern, second.pattern)
    return code_a == code_b


def deduplicate(
    candidates: Iterable[LabeledCandidate],
    engine: MatchEngine,
) -> list[LabeledCandidate]:
    """Merge isomorphic candidates, intersecting their parent scan sets.

    Output is in bucket order: invariant buckets in first-seen order, and
    classes in first-seen order within each bucket.
    """
    buckets: dict[str, list[LabeledCandidate]] = {}
    for candidate in candidates:
        bucket = buckets.setdefault(candidate.fingerprint(), [])
        for existing in bucket:
            if _same_class(existing, candidate, engine):
                if existing.parent_bits is not None and candidate.parent_bits is not None:
                    existing.parent_bits &= candidate.parent_bits
                break
        else:
            bucket.append(candidate)
    unique: list[LabeledCandidate] = []
    for bucket in buckets.values():
        unique.extend(bucket)
    return unique


def generate_candidates(
    frequent_patterns: Sequence[LabeledCandidate],
    frequent_triples: Iterable[EdgeTriple],
    engine: MatchEngine,
) -> list[LabeledCandidate]:
    """Deduplicated (k+1)-edge candidates from frequent k-edge patterns."""
    return deduplicate(raw_candidates(frequent_patterns, frequent_triples), engine)
