"""Per-graph matching indexes over :class:`~repro.graphs.compact.CompactGraph`.

Candidate generation is the hot inner step of subgraph isomorphism: for
every pattern vertex the matcher needs the target vertices with the same
label and sufficient in/out degree.  The legacy path rescanned every
target vertex per pattern vertex per query; a :class:`GraphIndex` is built
once per graph and turns candidate generation into a bucket lookup plus a
degree filter.

The index also precomputes the invariants the engine uses for early
rejection — vertex/edge label histograms and the set of
``(source-label, edge-label, target-label)`` triples — and memoizes the
more expensive :func:`~repro.graphs.canonical.graph_invariant` and
:func:`~repro.graphs.canonical.canonical_code` fingerprints so they are
computed at most once per graph no matter how many dedup or cache probes
ask for them.
"""

from __future__ import annotations

from repro.graphs.canonical import canonical_code, graph_invariant, refined_colours
from repro.graphs.compact import CompactGraph
from repro.graphs.labeled_graph import LabeledGraph

#: Sentinel distinguishing "never computed" from a ``None``-ish result.
_UNSET = object()


class GraphIndex:
    """Precomputed matching structures for one :class:`CompactGraph`."""

    __slots__ = (
        "compact",
        "by_label",
        "vertex_label_hist",
        "edge_label_hist",
        "triples",
        "_triple_edges",
        "_labeled_form",
        "_colours",
        "_invariant",
        "_canonical_code",
        "_canonical_error",
    )

    def __init__(self, compact: CompactGraph) -> None:
        self.compact = compact
        by_label: dict[int, list[int]] = {}
        vertex_label_hist: dict[int, int] = {}
        for vertex, label_id in enumerate(compact.vertex_labels):
            by_label.setdefault(label_id, []).append(vertex)
            vertex_label_hist[label_id] = vertex_label_hist.get(label_id, 0) + 1
        edge_label_hist: dict[int, int] = {}
        triples: set[tuple[int, int, int]] = set()
        labels = compact.vertex_labels
        for source, pairs in enumerate(compact.out_adj):
            source_label = labels[source]
            for target, edge_label in pairs:
                edge_label_hist[edge_label] = edge_label_hist.get(edge_label, 0) + 1
                triples.add((source_label, edge_label, labels[target]))
        self.by_label = by_label
        self.vertex_label_hist = vertex_label_hist
        self.edge_label_hist = edge_label_hist
        self.triples = triples
        self._triple_edges: dict[tuple[int, int, int], tuple[tuple[int, int], ...]] | None = None
        self._labeled_form: LabeledGraph | None = None
        self._colours = None
        self._invariant = _UNSET
        self._canonical_code = _UNSET
        self._canonical_error: Exception | None = None

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def candidates(self, label_id: int, min_out: int, min_in: int) -> list[int]:
        """Target vertices with label *label_id* and at least the given degrees."""
        bucket = self.by_label.get(label_id)
        if not bucket:
            return []
        compact = self.compact
        return [
            vertex
            for vertex in bucket
            if len(compact.out_adj[vertex]) >= min_out
            and len(compact.in_adj[vertex]) >= min_in
        ]

    def triple_edges(self, triple: tuple[int, int, int]) -> tuple[tuple[int, int], ...]:
        """The ``(source, target)`` edges realising *triple* in this graph.

        This is the anchor-seeding lookup of the embedding store: every
        embedding of a single-edge pattern is exactly one of these pairs
        (minus self-loops, which a two-vertex pattern cannot map onto —
        the caller filters those).  The bucket map is built lazily on
        first use and covers every edge, so repeated seeding of different
        level-1 patterns against the same transaction costs one dict
        lookup each.
        """
        buckets = self._triple_edges
        if buckets is None:
            grouped: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
            labels = self.compact.vertex_labels
            for source, pairs in enumerate(self.compact.out_adj):
                source_label = labels[source]
                for target, edge_label in pairs:
                    key = (source_label, edge_label, labels[target])
                    grouped.setdefault(key, []).append((source, target))
            buckets = {key: tuple(pairs) for key, pairs in grouped.items()}
            self._triple_edges = buckets
        return buckets.get(triple, ())

    # ------------------------------------------------------------------
    # Early-rejection invariants
    # ------------------------------------------------------------------
    def could_contain(self, pattern: "GraphIndex") -> bool:
        """Cheap necessary conditions for *pattern* to embed in this graph.

        Checks sizes, label-histogram domination, and that every pattern
        edge triple occurs in this graph.  A ``False`` verdict is
        definitive; ``True`` means the full matcher must decide.
        """
        if pattern.compact.n_vertices > self.compact.n_vertices:
            return False
        if pattern.compact.n_edges > self.compact.n_edges:
            return False
        hist = self.vertex_label_hist
        for label_id, count in pattern.vertex_label_hist.items():
            if hist.get(label_id, 0) < count:
                return False
        edge_hist = self.edge_label_hist
        for label_id, count in pattern.edge_label_hist.items():
            if edge_hist.get(label_id, 0) < count:
                return False
        return pattern.triples <= self.triples

    # ------------------------------------------------------------------
    # Memoized fingerprints
    # ------------------------------------------------------------------
    def invariant(self) -> str:
        """Memoized :func:`graph_invariant` of the underlying graph."""
        if self._invariant is _UNSET:
            self._invariant = graph_invariant(self._labeled(), colours=self._refined())
        return self._invariant

    def canonical(self, max_orderings: int = 50_000) -> str:
        """Memoized :func:`canonical_code`; re-raises the memoized failure.

        :class:`~repro.graphs.canonical.CanonicalizationError` is also
        memoized so a hopelessly symmetric graph pays the failed search at
        most once.
        """
        if self._canonical_error is not None:
            raise self._canonical_error
        if self._canonical_code is _UNSET:
            try:
                self._canonical_code = canonical_code(
                    self._labeled(), max_orderings=max_orderings, colours=self._refined()
                )
            except Exception as error:
                self._canonical_error = error
                raise
        return self._canonical_code

    def _labeled(self) -> LabeledGraph:
        if self._labeled_form is None:
            self._labeled_form = self.compact.to_labeled()
        return self._labeled_form

    def _refined(self):
        # One colour refinement serves both fingerprints (the strings are
        # byte-identical to the unshared computation).
        if self._colours is None:
            self._colours = refined_colours(self._labeled())
        return self._colours

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphIndex({self.compact!r})"
