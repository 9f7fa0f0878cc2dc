"""Candidate generation for the level-wise frequent-subgraph miner.

FSG builds size-(k+1) candidates from size-k frequent subgraphs using
edges as the unit of growth.  The reimplementation generates candidates by
*extension*: every frequent k-edge pattern is extended by one edge in all
possible ways, where the new edge either connects an existing pattern
vertex to a brand-new vertex or closes a connection between two existing
vertices, and the (source label, edge label, target label) triple of the
new edge must itself be frequent.  Because every connected (k+1)-edge
pattern contains a connected k-edge subgraph obtained by removing a
non-bridging edge (or a spanning-tree leaf edge), extending all frequent
k-patterns enumerates every potentially frequent (k+1)-pattern; the
Apriori principle then guarantees completeness.

Candidates stay integers until they survive.  A :class:`Candidate` is two
tuples over the runtime engine's label table — its vertex-label ids in
position order and its ``(source, target, edge-label id)`` edges, listed
source-major — which is the layout of its compact wire, so the session
that counts it ships or compacts the tuples as they are.  A child is its
parent's tuples plus the one extension edge, and only a candidate that
survives counting (or one too symmetric for the canonical key) becomes a
:class:`LabeledGraph` (:meth:`Candidate.to_pattern`).

Candidates are deduplicated up to label-preserving isomorphism on the
exact integer :func:`~repro.graphs.canonical.canonical_key`; a candidate
too symmetric to canonicalise
(:class:`~repro.graphs.canonical.CanonicalizationError`) is compared with
the other such candidates by the miner's
:meth:`MatchEngine.are_isomorphic
<repro.graphs.engine.MatchEngine.are_isomorphic>`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from repro.graphs.canonical import CanonicalizationError, canonical_key
from repro.graphs.compact import LabelTable
from repro.graphs.engine import MatchEngine
from repro.graphs.labeled_graph import LabeledGraph
from repro.obs.tracer import get_tracer

#: A frequent single edge described by its label triple.
EdgeTriple = tuple[Hashable, Hashable, Hashable]

#: A frequent single edge as label ids: ``(source, edge, target)``.
IdTriple = tuple[int, int, int]

#: Every candidate's name, in its wire and as a graph.
_PATTERN_NAME = "edge-pattern"


def _triple_sort_key(triple: EdgeTriple) -> tuple[str, str, str]:
    """A hash-seed-independent ordering key for label triples.

    Labels are compared by their ``str()`` forms — the same assumption
    canonicalisation already makes — so iteration orders derived from
    triple *sets* are stable across ``PYTHONHASHSEED`` values and across
    runtime shards.
    """
    source_label, edge_label, target_label = triple
    return (str(source_label), str(edge_label), str(target_label))


#: A one-edge extension descriptor in compact vertex positions:
#: ``(source_position, target_position, has_new_vertex)``.  A new vertex
#: is always appended last, so the descriptor addresses the child's wire
#: unchanged.
Extension = tuple[int, int, bool]


@functools.cache
def _vertex_names(n_vertices: int) -> tuple[str, ...]:
    """The vertex names of an *n_vertices*-vertex candidate: ``p0``, ``p1``,
    ... in position order.  One shared tuple per size, so a level's wires
    pickle each name tuple once."""
    return tuple([f"p{index}" for index in range(n_vertices)])


@dataclass(slots=True)
class Candidate:
    """A candidate pattern as label ids, with the parent transactions to scan.

    ``labels[v]`` is vertex ``v``'s label id and ``edges`` lists
    ``(source, target, edge-label id)`` source-major; a derived
    candidate's extension edge is the last of its source's edges.  That
    is how :meth:`CompactGraph.from_labeled
    <repro.graphs.compact.CompactGraph.from_labeled>` lays out
    :meth:`to_pattern`'s graph, so :meth:`wire` is the candidate's
    compact wire.

    ``parent_bits`` is the scan set: the *intersection* of every merged
    parent's supporting set, as a TID bitset.  A candidate embeds in a
    transaction only if every one of its parents does, so when isomorphic
    duplicates from several parents merge, the intersection is the
    tightest sound scan set — strictly smaller than any single parent's
    set whenever the parents disagree.  ``uid`` / ``parent_uid`` /
    ``extension`` tie the candidate to the engine's embedding store: the
    candidate is ``parent_uid``'s pattern plus the one ``extension`` edge,
    and its own anchors are filed under ``uid`` once it survives.
    Candidates built without derivation info (tests) leave them unset and
    simply take the full-search path.

    ``pattern`` is ``None`` until :meth:`to_pattern` builds the graph,
    which happens for survivors and for candidates too symmetric for the
    canonical key.
    """

    labels: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    parent_bits: int | None = None
    parent_uid: object = None
    extension: Extension | None = None
    uid: object = None
    pattern: LabeledGraph | None = None

    def wire(self) -> tuple:
        """The candidate's :meth:`~repro.graphs.compact.CompactGraph.to_wire` tuple."""
        return (_PATTERN_NAME, self.labels, self.edges, _vertex_names(len(self.labels)))

    def to_pattern(self, table: LabelTable) -> LabeledGraph:
        """The candidate as a :class:`LabeledGraph`, built once.

        Named ``edge-pattern`` with vertices ``p0``... in position order,
        and laid out as the parent graph's copy plus the extension edge:
        the other edges in wire order, then the extension edge, so every
        adjacency dict (predecessors included) iterates as a copy-and-extend
        build would.  *table* maps the ids back to labels.
        """
        if self.pattern is None:
            label = table.label
            names = _vertex_names(len(self.labels))
            graph = LabeledGraph(name=_PATTERN_NAME)
            for name, label_id in zip(names, self.labels):
                graph.add_vertex(name, label(label_id))
            new = None if self.extension is None else self.extension[:2]
            last = None
            for source, target, label_id in self.edges:
                if (source, target) == new:
                    last = label_id
                else:
                    graph.add_edge(names[source], names[target], label(label_id))
            if last is not None:
                graph.add_edge(names[new[0]], names[new[1]], label(last))
            self.pattern = graph
        return self.pattern


def edge_triples(transaction: LabeledGraph) -> set[EdgeTriple]:
    """The set of (source label, edge label, target label) triples in a graph."""
    return {
        (transaction.vertex_label(edge.source), edge.label, transaction.vertex_label(edge.target))
        for edge in transaction.edges()
    }


def frequent_single_edges(
    transactions: Sequence[LabeledGraph],
    min_support: int,
) -> dict[EdgeTriple, frozenset[int]]:
    """Label triples occurring in at least *min_support* transactions.

    Returns a mapping from triple to the supporting transaction ids
    (indices into *transactions*).  Self-loops are skipped: a one-edge
    pattern has two distinct vertices, so a self-loop never embeds it.
    The mapping's order — which downstream consumers inherit for
    single-edge patterns and candidate extensions — is by the triple's
    first supporting tid, ties broken by :func:`_triple_sort_key`, so it
    does not vary with ``PYTHONHASHSEED`` and cannot differ between
    runtime shards.  The triples are ordered once, over the frequent ones
    only.
    """
    occurrences: dict[EdgeTriple, list[int]] = {}
    for tid, transaction in enumerate(transactions):
        # Read the label dicts directly (as CompactGraph.from_labeled
        # does): no Edge record per edge, and each distinct triple of the
        # transaction appends its tid once.
        labels = transaction._vertex_labels
        distinct = {
            (labels[source], label, labels[target])
            for source, targets in transaction._succ.items()
            for target, label in targets.items()
            if target != source
        }
        for triple in distinct:
            tids = occurrences.get(triple)
            if tids is None:
                occurrences[triple] = [tid]
            else:
                tids.append(tid)
    frequent = [
        (tids[0], _triple_sort_key(triple), triple)
        for triple, tids in occurrences.items()
        if len(tids) >= min_support
    ]
    frequent.sort(key=lambda entry: entry[:2])
    return {triple: frozenset(occurrences[triple]) for _, _, triple in frequent}


def deduplicate(
    candidates: Iterable[Candidate],
    engine: MatchEngine,
) -> list[Candidate]:
    """Merge isomorphic candidates, intersecting their parent scan sets.

    Each candidate is keyed on its exact integer
    :func:`~repro.graphs.canonical.canonical_key`, and isomorphism
    classes come out in first-seen order (the emission order downstream
    consumers — and the paper examples' printed representatives — depend
    on), each represented by its first candidate.  A candidate whose key
    overflows (:class:`CanonicalizationError`, counted as
    ``canonical_fallbacks{site=candidates}``) is compared with the earlier
    such candidates by *engine*'s exact isomorphism check; isomorphic
    graphs have identical colour-class sizes, so a pattern either has a
    key for its whole isomorphism class or falls back for all of it — the
    two schemes never disagree.  *engine*'s label table must be the one
    the candidates' ids come from.
    """
    classes: dict[tuple, Candidate] = {}
    symmetric: list[Candidate] = []
    unique: list[Candidate] = []
    for candidate in candidates:
        try:
            key = canonical_key(candidate.labels, candidate.edges)
        except CanonicalizationError:
            get_tracer().metrics.counter("canonical_fallbacks", site="candidates")
            pattern = candidate.to_pattern(engine.table)
            existing = next(
                (other for other in symmetric if engine.are_isomorphic(other.pattern, pattern)),
                None,
            )
            if existing is None:
                symmetric.append(candidate)
        else:
            existing = classes.setdefault(key, candidate)
            if existing is candidate:
                existing = None
        if existing is None:
            unique.append(candidate)
        elif existing.parent_bits is not None and candidate.parent_bits is not None:
            # The candidate embeds nowhere its parent doesn't, for *every*
            # parent it merged from — so the scan set tightens to the
            # intersection.
            existing.parent_bits &= candidate.parent_bits
    return unique


def generate_candidates(
    frequent_patterns: Sequence[Candidate],
    frequent_triples: Iterable[IdTriple],
    engine: MatchEngine,
) -> list[Candidate]:
    """Deduplicated (k+1)-edge candidates from frequent k-edge patterns.

    Every frequent pattern is extended by one edge in all possible ways
    over *frequent_triples* (label-id triples ``(source, edge, target)``
    in the engine's table): an edge from an existing vertex to a new one,
    from a new vertex to an existing one (both directions, since the
    graphs are directed), or between two existing vertices not yet
    joined.  A new vertex is appended last, and each child's tuples are
    its parent's plus that one edge, placed last among its source's
    edges.  Emission order is parent by parent, then triple by triple,
    then vertex by vertex, which fixes the first-seen order
    :func:`deduplicate` keeps.

    Each candidate records its derivation — the parent's embedding-store
    uid, the :data:`Extension` edge, and the parent's TID bitset — so the
    support pass can extend stored parent embeddings instead of searching
    from scratch.  A deduplicated candidate keeps its first-seen
    derivation (the one consistent with its own vertex layout) while its
    scan bitset narrows to the intersection over all merged parents.

    Generation builds no engine index and no graph, outside the
    symmetric-pattern fallback of :func:`deduplicate`, the one use of
    *engine*.
    """
    triples = list(frequent_triples)
    raw: list[Candidate] = []
    append = raw.append
    for parent in frequent_patterns:
        labels = parent.labels
        edges = parent.edges
        bits = parent.parent_bits
        uid = parent.uid
        new = len(labels)
        # cut[v]: the number of edges whose source is at most v, where a
        # new edge out of v goes in the source-major list.
        cut = [0] * new
        for source, _, _ in edges:
            cut[source] += 1
        for vertex in range(1, new):
            cut[vertex] += cut[vertex - 1]
        joined = {(source, target) for source, target, _ in edges}
        for source_label, edge_label, target_label in triples:
            for vertex, vertex_label in enumerate(labels):
                # Forward extension: existing vertex -> new vertex.
                if vertex_label == source_label:
                    at = cut[vertex]
                    append(
                        Candidate(
                            labels=labels + (target_label,),
                            edges=edges[:at] + ((vertex, new, edge_label),) + edges[at:],
                            parent_bits=bits,
                            parent_uid=uid,
                            extension=(vertex, new, True),
                        )
                    )
                # Forward extension: new vertex -> existing vertex.
                if vertex_label == target_label:
                    append(
                        Candidate(
                            labels=labels + (source_label,),
                            edges=edges + ((new, vertex, edge_label),),
                            parent_bits=bits,
                            parent_uid=uid,
                            extension=(new, vertex, True),
                        )
                    )
            # Backward extension: connect two existing vertices.
            for source, vertex_label in enumerate(labels):
                if vertex_label != source_label:
                    continue
                at = cut[source]
                for target, other_label in enumerate(labels):
                    if (
                        target == source
                        or other_label != target_label
                        or (source, target) in joined
                    ):
                        continue
                    append(
                        Candidate(
                            labels=labels,
                            edges=edges[:at] + ((source, target, edge_label),) + edges[at:],
                            parent_bits=bits,
                            parent_uid=uid,
                            extension=(source, target, False),
                        )
                    )
    return deduplicate(raw, engine=engine)
