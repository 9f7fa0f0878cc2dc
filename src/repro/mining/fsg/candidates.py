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

Candidates are deduplicated up to label-preserving isomorphism through
the miner's :class:`~repro.graphs.engine.MatchEngine`: the grouping key is
the exact :func:`~repro.graphs.canonical.canonical_code`; patterns too
symmetric to canonicalise
(:class:`~repro.graphs.canonical.CanonicalizationError`) fall back to the
cheap :func:`~repro.graphs.canonical.graph_invariant` fingerprint with an
exact isomorphism check inside each fingerprint bucket.
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
from repro.obs.tracer import get_tracer
from repro.graphs.labeled_graph import LabeledGraph

#: A frequent single edge described by its label triple.
EdgeTriple = tuple[Hashable, Hashable, Hashable]


def _triple_sort_key(triple: EdgeTriple) -> tuple[str, str, str]:
    """A hash-seed-independent ordering key for label triples.

    Labels are compared by their ``str()`` forms — the same assumption
    canonicalisation already makes — so iteration orders derived from
    triple *sets* are stable across ``PYTHONHASHSEED`` values and across
    runtime shards.
    """
    source_label, edge_label, target_label = triple
    return (str(source_label), str(edge_label), str(target_label))


def sorted_triples(triples: Iterable[EdgeTriple]) -> list[EdgeTriple]:
    """*triples* in the deterministic :func:`_triple_sort_key` order."""
    return sorted(triples, key=_triple_sort_key)


#: A one-edge extension descriptor in compact vertex positions:
#: ``(source_position, target_position, has_new_vertex)``.  Positions are
#: indices into the candidate pattern's vertex insertion order — which
#: :meth:`repro.graphs.compact.CompactGraph.from_labeled` preserves — and
#: a new vertex is always appended last, so the descriptor survives the
#: trip through compact/wire form unchanged.
Extension = tuple[int, int, bool]


@dataclass
class Candidate:
    """A candidate pattern together with the parent transactions to scan.

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

    A candidate holds only its labeled ``pattern``, never a compact form:
    the mining session that counts it compacts it, once (the serial
    runtime through :meth:`MatchEngine.index_of
    <repro.graphs.engine.MatchEngine.index_of>`, the sharded runtime
    through its planner against the runtime's own label table), so a
    candidate dropped before counting is never compacted at all.
    """

    pattern: LabeledGraph
    parent_bits: int | None = None
    invariant: str = field(default="")
    parent_uid: object = None
    extension: Extension | None = None
    uid: object = None
    colours: dict | None = None
    code: object = None

    def fingerprint(self) -> str:
        """The pattern's cheap isomorphism-invariant key, computed lazily.

        The refined colouring behind the invariant is kept on the
        candidate so a later canonical-code comparison (same colouring,
        by construction) does not refine the pattern a second time.
        """
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
    (indices into *transactions*).  The mapping's order — which downstream
    consumers inherit for single-edge patterns and candidate extensions —
    is fixed by sorting each transaction's triple set, so discovery order
    no longer varies with ``PYTHONHASHSEED`` and cannot differ between
    runtime shards.
    """
    occurrences: dict[EdgeTriple, set[int]] = {}
    for tid, transaction in enumerate(transactions):
        for triple in sorted_triples(edge_triples(transaction)):
            occurrences.setdefault(triple, set()).add(tid)
    return {
        triple: frozenset(tids)
        for triple, tids in occurrences.items()
        if len(tids) >= min_support
    }


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

    Extensions are of two kinds: attach a new vertex to an existing vertex
    (forward extension) or add an edge between two existing vertices
    (backward extension).  Both directions are considered because the
    graphs are directed.  Each extended graph is returned together with
    its :data:`Extension` descriptor (the new edge in compact vertex
    positions), which is what lets the embedding store grow a parent
    embedding into the child instead of searching from scratch.  The
    returned list may contain isomorphic duplicates; the caller
    deduplicates.
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


def deduplicate(
    candidates: Iterable[Candidate],
    engine: MatchEngine,
) -> list[Candidate]:
    """Merge isomorphic candidates, intersecting their parent scan sets.

    Candidates are grouped into invariant buckets in first-seen order (the
    emission order downstream consumers — and the paper examples' printed
    representatives — depend on).  Within a bucket, equality of
    isomorphism classes is decided by the exact canonical code: one
    memoized code computation per representative instead of a
    backtracking isomorphism search per pair.  Candidates whose
    canonicalisation overflows (:class:`CanonicalizationError`) fall back
    to *engine*'s exact isomorphism check; isomorphic graphs have
    identical colour-class sizes, so a
    pattern either canonicalises for its whole isomorphism class or falls
    back for all of it — the two schemes never disagree.
    """
    buckets: dict[str, list[Candidate]] = {}
    for candidate in candidates:
        bucket = buckets.setdefault(candidate.fingerprint(), [])
        for existing in bucket:
            if _same_class(existing, candidate, engine):
                # The candidate embeds nowhere its parent doesn't, for
                # *every* parent it merged from — so the scan set tightens
                # to the intersection.
                if existing.parent_bits is not None and candidate.parent_bits is not None:
                    existing.parent_bits &= candidate.parent_bits
                break
        else:
            bucket.append(candidate)
    unique: list[Candidate] = []
    for bucket in buckets.values():
        unique.extend(bucket)
    return unique


#: Memoized marker for patterns whose canonicalisation overflowed.
_CANON_FAILED = object()


def _canonical_of(candidate: Candidate):
    """*candidate*'s memoized canonical code (or the failure marker).

    Reuses the refined colouring cached by :meth:`Candidate.fingerprint`,
    so deciding a candidate's isomorphism class costs one refinement
    total — and no engine index build for candidates that do not survive
    deduplication.
    """
    code = candidate.code
    if code is None:
        if candidate.colours is None:
            candidate.colours = refined_colours(candidate.pattern)
        try:
            code = canonical_code(candidate.pattern, colours=candidate.colours)
        except CanonicalizationError:
            get_tracer().metrics.counter("canonical_fallbacks", site="candidates")
            code = _CANON_FAILED
        candidate.code = code
    return code


def _same_class(first: Candidate, second: Candidate, engine: MatchEngine) -> bool:
    """Whether two candidates are isomorphic, via canonical codes when possible."""
    code_a = _canonical_of(first)
    code_b = _canonical_of(second)
    if code_a is _CANON_FAILED or code_b is _CANON_FAILED:
        return engine.are_isomorphic(first.pattern, second.pattern)
    return code_a == code_b


def generate_candidates(
    frequent_patterns: Sequence[Candidate],
    frequent_triples: Iterable[EdgeTriple],
    engine: MatchEngine,
) -> list[Candidate]:
    """Generate deduplicated (k+1)-edge candidates from frequent k-edge patterns.

    Each candidate records its derivation — the parent's embedding-store
    uid, the extension edge, and the parent's TID bitset — so the support
    pass can extend stored parent embeddings instead of searching from
    scratch.  A deduplicated candidate keeps its first-seen derivation
    (the one consistent with its own vertex layout) while its scan bitset
    narrows to the intersection over all merged parents.

    Generation builds no engine index: *engine* serves only the
    isomorphism fallback of :func:`deduplicate`, and each candidate is
    compacted later, by the session that counts it.
    """
    triples = list(frequent_triples)
    raw: list[Candidate] = []
    for parent in frequent_patterns:
        for extended, extension in extend_pattern(parent.pattern, triples):
            raw.append(
                Candidate(
                    pattern=extended,
                    parent_bits=parent.parent_bits,
                    parent_uid=parent.uid,
                    extension=extension,
                )
            )
    return deduplicate(raw, engine=engine)
