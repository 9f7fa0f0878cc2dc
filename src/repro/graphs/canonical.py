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
"""

from __future__ import annotations

from itertools import permutations

from repro.graphs.labeled_graph import LabeledGraph, VertexId


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
    max_orderings: int = 50_000,
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
    max_orderings: int = 50_000,
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
