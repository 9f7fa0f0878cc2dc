"""Canonical codes and invariants for labeled directed graphs.

The frequent-subgraph miner must recognise when two candidate patterns are
the same graph up to isomorphism so duplicates are counted once.  Exact
canonical labelling of general graphs is as hard as graph isomorphism, but
the patterns handled here are tiny (a handful of vertices), so a
straightforward scheme works:

* :func:`graph_invariant` — a cheap, isomorphism-invariant string built
  from label and degree histograms and Weisfeiler-Lehman style colour
  refinement.  Equal graphs always produce equal invariants; unequal
  graphs may rarely collide, so callers that need exactness group by
  invariant and confirm with
  :func:`repro.graphs.isomorphism.are_isomorphic`.
* :func:`canonical_code` — an exact canonical string for small graphs,
  computed by minimising the adjacency encoding over vertex orderings
  compatible with the refined colouring.  Raises :class:`CanonicalizationError`
  when the graph is too large/symmetric to canonicalise exhaustively.
  :func:`canonical_code_with_order` also returns the vertex order the
  code was read in.
* :func:`canonical_key` — the same exact scheme over a graph given as
  integer label ids (a compact wire's vertex labels and edges), as
  tuples of ints: the FSG candidate dedup key.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Sequence

from repro.graphs.labeled_graph import LabeledGraph, VertexId


#: The most vertex orderings exact canonicalisation explores by default.
MAX_ORDERINGS = 50_000


class CanonicalizationError(RuntimeError):
    """Raised when exact canonicalisation would require too much search."""


def _initial_colours(graph: LabeledGraph) -> dict[VertexId, str]:
    # Reads the adjacency dicts directly (same strings as the public
    # accessors): this and _refine_colours run once per candidate per
    # mining level, the hottest canonicalisation path.
    succ = graph._succ
    pred = graph._pred
    return {
        vertex: f"{label}|{len(pred[vertex])}|{len(succ[vertex])}"
        for vertex, label in graph._vertex_labels.items()
    }


def _refine_colours(graph: LabeledGraph, colours: dict[VertexId, str], rounds: int = 3) -> dict[VertexId, str]:
    """Weisfeiler-Lehman colour refinement respecting edge labels and direction."""
    succ = graph._succ
    pred = graph._pred
    vertices = list(graph._vertex_labels)
    n_vertices = len(vertices)
    current = dict(colours)
    n_classes = len(set(current.values()))
    for _ in range(rounds):
        if n_classes == n_vertices:
            # Discrete partition: another round cannot split further.
            break
        updated: dict[VertexId, str] = {}
        for vertex in vertices:
            out_signature = sorted(
                [f"+{label}>{current[target]}" for target, label in succ[vertex].items()]
            )
            in_signature = sorted(
                [f"-{label}<{current[source]}" for source, label in pred[vertex].items()]
            )
            updated[vertex] = f"{current[vertex]}({';'.join(out_signature)})({';'.join(in_signature)})"
        n_updated = len(set(updated.values()))
        if n_updated == n_classes:
            # No further splitting; compress strings to keep them short.
            break
        current = updated
        n_classes = n_updated
    # Compress colour strings to small integers for stability and brevity.
    palette = {colour: index for index, colour in enumerate(sorted(set(current.values())))}
    return {vertex: f"c{palette[current[vertex]]}" for vertex in current}


def refined_colours(graph: LabeledGraph) -> dict[VertexId, str]:
    """The refined colouring both fingerprints below are built from.

    Exposed so callers that need *both* the invariant and the canonical
    code of one graph (the dedup path does) can refine once and pass the
    result to each — the strings produced are byte-identical either way.
    """
    return _refine_colours(graph, _initial_colours(graph))


def graph_invariant(graph: LabeledGraph, colours: dict[VertexId, str] | None = None) -> str:
    """A cheap isomorphism-invariant fingerprint of *graph*.

    Isomorphic graphs always produce the same invariant.  Distinct graphs
    collide only when colour refinement cannot tell them apart, which for
    the small labeled patterns mined here is rare; exactness-sensitive
    callers should verify collisions with an isomorphism test.
    """
    if colours is None:
        colours = refined_colours(graph)
    vertex_part = ",".join(
        sorted(f"{label}~{colours[v]}" for v, label in graph._vertex_labels.items())
    )
    edge_part = ",".join(
        sorted(
            f"{colours[source]}-{label}->{colours[target]}"
            for source, targets in graph._succ.items()
            for target, label in targets.items()
        )
    )
    return f"V[{vertex_part}]E[{edge_part}]"


def _encode_with_order(graph: LabeledGraph, order: list[VertexId]) -> str:
    index = {vertex: position for position, vertex in enumerate(order)}
    labels = graph._vertex_labels
    vertex_part = ",".join([str(labels[vertex]) for vertex in order])
    edge_entries = sorted(
        [
            (index[source], index[target], str(label))
            for source, targets in graph._succ.items()
            for target, label in targets.items()
        ]
    )
    edge_part = ",".join([f"{s}-{t}:{label}" for s, t, label in edge_entries])
    return f"{vertex_part}|{edge_part}"


def canonical_code(
    graph: LabeledGraph,
    max_orderings: int = MAX_ORDERINGS,
    colours: dict[VertexId, str] | None = None,
) -> str:
    """An exact canonical string: equal iff two graphs are isomorphic.

    Vertices are first partitioned by refined colour; the code is the
    lexicographically smallest adjacency encoding over all vertex orderings
    that respect the colour partition (vertices of a smaller colour class
    key come first).  The number of orderings explored is the product of
    the colour-class factorials; if that exceeds *max_orderings* a
    :class:`CanonicalizationError` is raised — callers should fall back to
    invariant-plus-isomorphism deduplication for such graphs.
    """
    return canonical_code_with_order(graph, max_orderings, colours)[0]


def canonical_code_with_order(
    graph: LabeledGraph,
    max_orderings: int = MAX_ORDERINGS,
    colours: dict[VertexId, str] | None = None,
) -> tuple[str, tuple[VertexId, ...]]:
    """:func:`canonical_code` plus the vertex order that encodes to it.

    The code lists vertex ``i`` of the order at position ``i``.  So for
    two isomorphic graphs, the vertices at equal positions of their
    orders correspond under an isomorphism: reading either graph in its
    order gives the same labels and the same positional edges.  SUBDUE's
    instance grouping records each instance's vertices in this order.
    Raises :class:`CanonicalizationError` exactly when
    :func:`canonical_code` does.
    """
    vertices = list(graph.vertices())
    if not vertices:
        return "empty", ()
    if colours is None:
        colours = refined_colours(graph)
    groups: dict[str, list[VertexId]] = {}
    for vertex in vertices:
        groups.setdefault(colours[vertex], []).append(vertex)
    group_keys = sorted(groups)

    total_orderings = 1
    for key in group_keys:
        size = len(groups[key])
        for factor in range(2, size + 1):
            total_orderings *= factor
        if total_orderings > max_orderings:
            raise CanonicalizationError(
                f"graph with {graph.n_vertices} vertices is too symmetric to "
                f"canonicalise exhaustively (> {max_orderings} orderings)"
            )

    if total_orderings == 1:
        # Discrete partition (the overwhelmingly common case for the tiny
        # patterns mined here): the one compatible ordering IS the code.
        order = [groups[key][0] for key in group_keys]
        return _encode_with_order(graph, order), tuple(order)

    best: str | None = None
    best_order: list[VertexId] = []

    def extend(prefix: list[VertexId], remaining_groups: list[str]) -> None:
        nonlocal best, best_order
        if not remaining_groups:
            code = _encode_with_order(graph, prefix)
            if best is None or code < best:
                best = code
                best_order = prefix
            return
        key = remaining_groups[0]
        for perm in permutations(groups[key]):
            extend(prefix + list(perm), remaining_groups[1:])

    extend([], group_keys)
    assert best is not None
    return best, tuple(best_order)


def canonical_key(
    vertex_labels: Sequence[int],
    edges: Sequence[tuple[int, int, int]],
) -> tuple:
    """An exact canonical key over label ids: equal iff two graphs are isomorphic.

    The graph is given as its compact wire gives it: ``vertex_labels[v]``
    is vertex ``v``'s label id and each edge is ``(source, target,
    edge-label id)``, every id from one shared
    :class:`~repro.graphs.compact.LabelTable`.  The key is ``(labels,
    edges)``: the graph read in a canonical vertex order, labels by
    position and edges as sorted ``(position, position, label)``
    triples.

    The vertex order comes from :func:`refined_colours`' partition: the
    same initial colours (label, in-degree, out-degree), at most three
    Weisfeiler-Lehman rounds and the same stopping rules, with each
    colour an integer instead of a nested string.  When the partition is
    not discrete, the key is the smallest reading over the orderings
    that respect it.  So the key depends only on the isomorphism class,
    and raises :class:`CanonicalizationError` exactly when
    :func:`canonical_code` raises on the same graph (past
    :data:`MAX_ORDERINGS` orderings), provided labels have distinct
    ``str()`` forms.  Labels whose ``str()`` forms match (``1``
    and ``"1"``) keep distinct ids, so they never share a key.
    """
    n_vertices = len(vertex_labels)
    base = n_vertices + 1
    # (label, in-degree, out-degree) as one order-preserving int: both
    # degrees are below base.
    colours = [label * base * base for label in vertex_labels]
    for source, target, _ in edges:
        colours[source] += 1
        colours[target] += base
    n_classes = len(set(colours))
    for _ in range(3):
        if n_classes == n_vertices:
            break
        # A vertex alone in its colour keeps its place whatever its
        # neighbours, since a signature orders by the colour first: only
        # shared colours need the neighbour multisets that split them.
        signatures = [(colour,) for colour in colours]
        for vertex, colour in enumerate(colours):
            if colours.count(colour) > 1:
                signatures[vertex] = (
                    colour,
                    tuple(sorted([(label, colours[t]) for s, t, label in edges if s == vertex])),
                    tuple(sorted([(label, colours[s]) for s, t, label in edges if t == vertex])),
                )
        distinct = set(signatures)
        if len(distinct) == n_classes:
            break
        palette = {signature: rank for rank, signature in enumerate(sorted(distinct))}
        colours = [palette[signature] for signature in signatures]
        n_classes = len(palette)
    if n_classes < n_vertices:
        return _symmetric_key(vertex_labels, edges, colours)
    order = sorted(range(n_vertices), key=colours.__getitem__)
    position = [0] * n_vertices
    for index, vertex in enumerate(order):
        position[vertex] = index
    return (
        tuple([vertex_labels[vertex] for vertex in order]),
        tuple(sorted([(position[s], position[t], label) for s, t, label in edges])),
    )


def _symmetric_key(
    vertex_labels: Sequence[int],
    edges: Sequence[tuple[int, int, int]],
    colours: list[int],
) -> tuple:
    """:func:`canonical_key` for a partition with shared colours."""
    n_vertices = len(vertex_labels)
    by_colour: dict[int, list[int]] = {}
    for vertex, colour in enumerate(colours):
        by_colour.setdefault(colour, []).append(vertex)
    groups = [by_colour[colour] for colour in sorted(by_colour)]
    total_orderings = 1
    for group in groups:
        for factor in range(2, len(group) + 1):
            total_orderings *= factor
        if total_orderings > MAX_ORDERINGS:
            raise CanonicalizationError(
                f"graph with {n_vertices} vertices is too symmetric to "
                f"canonicalise exhaustively (> {MAX_ORDERINGS} orderings)"
            )
    # A colour holds one label, so every ordering reads the same labels;
    # only the edges are minimised.
    labels = tuple([vertex_labels[group[0]] for group in groups for _ in group])
    position = [0] * n_vertices
    best: tuple | None = None
    for choice in product(*(permutations(group) for group in groups)):
        index = 0
        for group in choice:
            for vertex in group:
                position[vertex] = index
                index += 1
        code = tuple(sorted([(position[s], position[t], label) for s, t, label in edges]))
        if best is None or code < best:
            best = code
    return labels, best
