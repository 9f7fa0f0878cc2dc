"""Label-preserving (sub)graph isomorphism for directed labeled graphs.

Section 4 of the paper defines two subgraphs as identical when an
isomorphism exists between them that also matches vertex and edge labels.
FSG-style support counting additionally needs *subgraph* isomorphism: a
pattern ``g`` occurs in a graph transaction ``t`` when ``g`` is isomorphic
to some subgraph of ``t`` (labels included).

The module-level functions are thin wrappers delegating to the shared
:class:`~repro.graphs.engine.MatchEngine` (see
:func:`repro.graphs.engine.default_engine`), which matches on compact
integer graphs with per-graph candidate indexes.  Existing call sites
keep working unchanged and transparently benefit from the engine's
caching.  The original dict-of-dicts backtracking search is retained as
the ``legacy_*`` functions: they are the differential-testing oracle for
the engine and the baseline for the kernel benchmarks.

The matching is *non-induced*: every pattern edge must map to a target
edge with the same label, but the target may have extra edges among the
mapped vertices.  This mirrors the occurrence semantics FSG uses.
"""

from __future__ import annotations

from typing import Iterator

from repro.graphs.engine import default_engine
from repro.graphs.labeled_graph import LabeledGraph, VertexId


def _vertex_candidates(pattern: LabeledGraph, target: LabeledGraph) -> dict[VertexId, list[VertexId]]:
    """Per pattern vertex, the target vertices that could possibly match.

    A target vertex is a candidate when its label matches and its in/out
    degrees are at least those of the pattern vertex.
    """
    candidates: dict[VertexId, list[VertexId]] = {}
    for p_vertex in pattern.vertices():
        p_label = pattern.vertex_label(p_vertex)
        p_out = pattern.out_degree(p_vertex)
        p_in = pattern.in_degree(p_vertex)
        feasible = [
            t_vertex
            for t_vertex in target.vertices()
            if target.vertex_label(t_vertex) == p_label
            and target.out_degree(t_vertex) >= p_out
            and target.in_degree(t_vertex) >= p_in
        ]
        candidates[p_vertex] = feasible
    return candidates


def _matching_order(pattern: LabeledGraph, candidates: dict[VertexId, list[VertexId]]) -> list[VertexId]:
    """Order pattern vertices: rarest candidates first, then by connectivity.

    Starting from the most constrained vertex and always extending into the
    neighbourhood of already-matched vertices keeps the search tree small.
    """
    remaining = set(pattern.vertices())
    if not remaining:
        return []
    order: list[VertexId] = []
    start = min(remaining, key=lambda v: (len(candidates[v]), -pattern.degree(v)))
    order.append(start)
    remaining.remove(start)
    while remaining:
        frontier = [v for v in remaining if any(n in order for n in pattern.neighbours(v))]
        pool = frontier or list(remaining)
        nxt = min(pool, key=lambda v: (len(candidates[v]), -pattern.degree(v)))
        order.append(nxt)
        remaining.remove(nxt)
    return order


def _consistent(
    pattern: LabeledGraph,
    target: LabeledGraph,
    mapping: dict[VertexId, VertexId],
    p_vertex: VertexId,
    t_vertex: VertexId,
) -> bool:
    """Whether extending *mapping* with ``p_vertex -> t_vertex`` keeps all matched edges valid."""
    for p_succ in pattern.successors(p_vertex):
        if p_succ in mapping:
            t_succ = mapping[p_succ]
            if not target.has_edge(t_vertex, t_succ):
                return False
            if target.edge_label(t_vertex, t_succ) != pattern.edge_label(p_vertex, p_succ):
                return False
    for p_pred in pattern.predecessors(p_vertex):
        if p_pred in mapping:
            t_pred = mapping[p_pred]
            if not target.has_edge(t_pred, t_vertex):
                return False
            if target.edge_label(t_pred, t_vertex) != pattern.edge_label(p_pred, p_vertex):
                return False
    return True


def _search(
    pattern: LabeledGraph,
    target: LabeledGraph,
    order: list[VertexId],
    candidates: dict[VertexId, list[VertexId]],
) -> Iterator[dict[VertexId, VertexId]]:
    """Yield every injective, label-preserving embedding of *pattern* in *target*."""
    mapping: dict[VertexId, VertexId] = {}
    used: set[VertexId] = set()

    def backtrack(position: int) -> Iterator[dict[VertexId, VertexId]]:
        if position == len(order):
            yield dict(mapping)
            return
        p_vertex = order[position]
        for t_vertex in candidates[p_vertex]:
            if t_vertex in used:
                continue
            if not _consistent(pattern, target, mapping, p_vertex, t_vertex):
                continue
            mapping[p_vertex] = t_vertex
            used.add(t_vertex)
            yield from backtrack(position + 1)
            del mapping[p_vertex]
            used.remove(t_vertex)

    yield from backtrack(0)


def legacy_find_embeddings(
    pattern: LabeledGraph,
    target: LabeledGraph,
    max_count: int | None = None,
) -> list[dict[VertexId, VertexId]]:
    """The original dict-of-dicts backtracking search (differential oracle).

    An embedding is an injective mapping from pattern vertices to target
    vertices preserving vertex labels and mapping every pattern edge onto a
    target edge with the same label.
    """
    if pattern.n_vertices == 0:
        return [{}]
    if pattern.n_vertices > target.n_vertices or pattern.n_edges > target.n_edges:
        return []
    candidates = _vertex_candidates(pattern, target)
    if any(not feasible for feasible in candidates.values()):
        return []
    order = _matching_order(pattern, candidates)
    found: list[dict[VertexId, VertexId]] = []
    for mapping in _search(pattern, target, order, candidates):
        found.append(mapping)
        if max_count is not None and len(found) >= max_count:
            break
    return found


def legacy_has_embedding(pattern: LabeledGraph, target: LabeledGraph) -> bool:
    """Legacy occurrence check (differential oracle for the engine)."""
    return bool(legacy_find_embeddings(pattern, target, max_count=1))


def legacy_are_isomorphic(first: LabeledGraph, second: LabeledGraph) -> bool:
    """Legacy exact isomorphism check (differential oracle for the engine)."""
    if first.n_vertices != second.n_vertices or first.n_edges != second.n_edges:
        return False
    if first.vertex_label_counts() != second.vertex_label_counts():
        return False
    if first.edge_label_counts() != second.edge_label_counts():
        return False
    # Because the vertex counts and edge counts match, any full embedding of
    # ``first`` into ``second`` is necessarily a bijection covering all
    # edges, i.e. an isomorphism.
    return legacy_has_embedding(first, second)


def find_embeddings(
    pattern: LabeledGraph,
    target: LabeledGraph,
    max_count: int | None = None,
) -> list[dict[VertexId, VertexId]]:
    """All (or the first *max_count*) embeddings of *pattern* in *target*.

    An embedding is an injective mapping from pattern vertices to target
    vertices preserving vertex labels and mapping every pattern edge onto a
    target edge with the same label.
    """
    return default_engine().find_embeddings(pattern, target, max_count=max_count)


def find_embedding(pattern: LabeledGraph, target: LabeledGraph) -> dict[VertexId, VertexId] | None:
    """The first embedding of *pattern* in *target*, or ``None``."""
    return default_engine().find_embedding(pattern, target)


def has_embedding(pattern: LabeledGraph, target: LabeledGraph) -> bool:
    """Whether *pattern* occurs in *target* (FSG occurrence semantics)."""
    return default_engine().has_embedding(pattern, target)


def count_embeddings(pattern: LabeledGraph, target: LabeledGraph, limit: int | None = None) -> int:
    """Number of distinct embeddings of *pattern* in *target* (up to *limit*)."""
    return default_engine().count_embeddings(pattern, target, limit=limit)


def are_isomorphic(first: LabeledGraph, second: LabeledGraph) -> bool:
    """Exact label-preserving isomorphism between two graphs (Section 4).

    Two graphs are isomorphic when a bijection between their vertices
    preserves vertex labels and induces a bijection between their edges
    that preserves edge labels.
    """
    return default_engine().are_isomorphic(first, second)


def non_overlapping_embeddings(
    pattern: LabeledGraph,
    target: LabeledGraph,
    max_count: int | None = None,
) -> list[dict[VertexId, VertexId]]:
    """Greedy set of vertex-disjoint embeddings of *pattern* in *target*.

    SUBDUE counts substructure instances without overlap (the paper notes
    all its experiments disallowed overlapping patterns); this helper
    selects embeddings greedily so no target vertex is reused.
    """
    return default_engine().non_overlapping_embeddings(pattern, target, max_count=max_count)
