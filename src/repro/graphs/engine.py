"""The shared, indexed subgraph-matching engine.

Every mining layer in this reproduction — FSG support counting, SUBDUE
instance grouping, planted-pattern recall, maximal-pattern filtering —
bottoms out in label-preserving subgraph isomorphism.  A
:class:`MatchEngine` is the one place those queries go through:

* graphs are compacted to integer form (:mod:`repro.graphs.compact`)
  through a corpus-wide :class:`~repro.graphs.compact.LabelTable`, so
  label comparisons are integer comparisons;
* each query graph gets a :class:`~repro.graphs.index.GraphIndex` built
  once and reused for every query against it (candidate buckets, label
  histograms, memoized invariants / canonical codes); a registered
  transaction is held as its :class:`~repro.graphs.compact.CompactGraph`
  alone, and gets an index only when a full search first runs against it;
* queries start with invariant-based early rejection (sizes, label
  histograms, edge-triple containment) before any search;
* level-wise miners count support through the *embedding store*
  (:meth:`MatchEngine.support_with_embeddings`): bounded per-``(pattern,
  tid)`` anchor embeddings, so a level-(k+1) candidate — its parent plus
  exactly one edge — is answered by extending a stored parent embedding
  instead of searching from scratch, with the full search as correctness
  fallback.

Caching contract
----------------
Indexes of query graphs (patterns, SUBDUE hosts) are keyed on graph
identity plus the graph's mutation counter
(:class:`~repro.graphs.labeled_graph.LabeledGraph` bumps an internal
version on every mutation), so mutating such a graph after it was
indexed is safe: the next query rebuilds.  Registered transactions are
snapshots instead: :meth:`MatchEngine.add_transactions` compacts each
graph once, so mutating it afterwards changes neither its support nor
its stored anchors.  A transaction's index is built the first time a
full search needs it, cached under its tid and dropped on release.  As
in :mod:`repro.graphs.canonical`, labels are assumed to have distinct
``str()`` forms.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.graphs.compact import CompactGraph, LabelTable
from repro.graphs.index import GraphIndex
from repro.graphs.labeled_graph import LabeledGraph, VertexId


def resolve_kernel(kernel: str | None = None) -> str:
    """The match kernel's name, which is always ``"python"``.

    Kept only for the benchmark's environment stamp
    (``perfbench/bench.py`` imports it); once that import is dropped,
    this function can go too.  Reads no environment variable.
    """
    return "python"


@dataclass
class EngineStats:
    """Observable counters for benchmarking and tests."""

    indexes_built: int = 0
    searches: int = 0
    early_rejects: int = 0
    batch_calls: int = 0
    batch_patterns: int = 0
    anchor_seeds: int = 0
    anchor_extensions: int = 0
    anchor_complete_rejects: int = 0
    anchor_fallbacks: int = 0
    anchors_stored: int = 0
    support_aborts: int = 0

    def as_dict(self) -> dict[str, int]:
        """A plain-dict snapshot (stable keys, safe to ship across processes)."""
        return {
            "indexes_built": self.indexes_built,
            "searches": self.searches,
            "early_rejects": self.early_rejects,
            "batch_calls": self.batch_calls,
            "batch_patterns": self.batch_patterns,
            "anchor_seeds": self.anchor_seeds,
            "anchor_extensions": self.anchor_extensions,
            "anchor_complete_rejects": self.anchor_complete_rejects,
            "anchor_fallbacks": self.anchor_fallbacks,
            "anchors_stored": self.anchors_stored,
            "support_aborts": self.support_aborts,
        }


class _Entry:
    __slots__ = ("version", "index")

    def __init__(self, version: int, index: GraphIndex) -> None:
        self.version = version
        self.index = index


@dataclass
class EmbeddingTask:
    """One pattern of an incremental support batch.

    ``extension`` describes the single edge the pattern adds over the
    parent identified by ``parent_uid``, in the pattern's *compact vertex
    positions*: ``(source_position, target_position, has_new_vertex)``.
    When ``has_new_vertex`` is true, the brand-new vertex is the one at
    the pattern's last position (candidate generation appends it), and it
    is whichever extension endpoint equals ``n_vertices - 1``.  Level-1
    patterns and patterns with no stored parent leave both ``parent_uid``
    and ``extension`` as ``None`` and are answered by anchor seeding /
    full search.

    ``abort_below`` is the early-abort bound: once even a hit on every
    remaining scheduled tid cannot lift the pattern's support to that
    count, its scan stops (the returned tid list is then a subset of the
    true support, but always of size ``< abort_below``, so a thresholding
    caller discards it either way).
    """

    pattern: "LabeledGraph | CompactGraph"
    tids: Sequence[int]
    uid: object = None
    parent_uid: object = None
    extension: tuple[int, int, bool] | None = None
    abort_below: int | None = None


#: One stored anchor entry of the embedding store: the embeddings tuple
#: itself, with no wrapper.  Each embedding is a position-indexed tuple:
#: entry ``p`` is the transaction compact vertex that pattern compact
#: vertex ``p`` maps to.  Whether an entry holds *every* embedding of the
#: pattern in the transaction (only then can a failed extension be turned
#: into a definitive "no embedding" verdict for a child) is recorded
#: apart, as the tid's absence from the uid's set of capped tids.
Embeddings = tuple[tuple[int, ...], ...]


class MatchEngine:
    """Indexed subgraph-isomorphism engine shared across mining layers."""

    def __init__(
        self,
        label_table: LabelTable | None = None,
        anchor_cap: int = 8,
        anchor_budget: int = 1 << 20,
    ) -> None:
        if anchor_cap < 1:
            raise ValueError(f"anchor_cap must be at least 1, got {anchor_cap}")
        self.table = label_table if label_table is not None else LabelTable()
        #: Max embeddings kept per (pattern uid, tid) anchor entry.
        self.anchor_cap = anchor_cap
        #: Max embeddings kept across the whole store; once reached, new
        #: entries are simply not recorded (queries fall back to full
        #: search — slower, never wrong), so the store cannot grow
        #: unboundedly on adversarial corpora.
        self.anchor_budget = anchor_budget
        self.stats = EngineStats()
        self._entries: "weakref.WeakKeyDictionary[LabeledGraph, _Entry]" = (
            weakref.WeakKeyDictionary()
        )
        # Registered transactions by tid: each one's compact snapshot, or
        # None once the tid is released.  A transaction's GraphIndex is
        # built by the first full search against it (_transaction_index)
        # and dropped on release; registration builds none.  A shard
        # engine files its slice of the corpus under the runtime's global
        # tids, so the tids held here need not be contiguous; they only
        # rise (_next_tid is the lowest tid not yet handed out).
        self._transactions: dict[int, CompactGraph | None] = {}
        self._next_tid = 0
        self._transaction_indexes: dict[int, GraphIndex] = {}
        # The embedding store: pattern uid -> tid -> embeddings.  Uids
        # are caller-owned opaque tokens (the miner assigns one per
        # surviving candidate); anchors are engine-local and never cross
        # a process boundary.
        self._anchors: dict[object, dict[int, Embeddings]] = {}
        # Pattern uid -> the tids whose stored embeddings were capped
        # (incomplete); created with the uid's first capped entry.
        self._capped: dict[object, set[int]] = {}
        self._anchor_load = 0

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def index_of(self, graph: LabeledGraph) -> GraphIndex:
        """The (cached) index of *graph*, rebuilt if the graph mutated."""
        version = getattr(graph, "_version", 0)
        entry = self._entries.get(graph)
        if entry is not None and entry.version == version:
            return entry.index
        index = GraphIndex(CompactGraph.from_labeled(graph, self.table))
        # The compact form round-trips losslessly, so the original graph
        # can serve as the index's labeled view — fingerprints skip the
        # to_labeled reconstruction.  Mutations bump the graph's version
        # and land in a fresh index, so the view cannot go stale here.
        index._labeled_form = graph
        self._entries[graph] = _Entry(version, index)
        self.stats.indexes_built += 1
        return index

    def graph_invariant(self, graph: LabeledGraph) -> str:
        """Memoized cheap isomorphism-invariant fingerprint of *graph*."""
        return self.index_of(graph).invariant()

    def canonical_code(self, graph: LabeledGraph, max_orderings: int = 50_000) -> str:
        """Memoized exact canonical code; raises :class:`CanonicalizationError`."""
        return self.index_of(graph).canonical(max_orderings=max_orderings)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def add_transactions(self, transactions: Iterable[LabeledGraph]) -> list[int]:
        """Register *transactions* for TID-based queries; returns their tids.

        Registration takes a snapshot: each graph is compacted through
        this engine's label table, so mutating it afterwards does not
        change its support.
        """
        table = self.table
        return self.add_compact_transactions(
            CompactGraph.from_labeled(transaction, table) for transaction in transactions
        )

    def add_compact_transactions(
        self,
        compacts: Iterable[CompactGraph],
        tids: Sequence[int] | None = None,
    ) -> list[int]:
        """Register already-compacted transactions; returns their tids.

        Every registration ends here.  Runtime workers call it directly:
        the parent ships :class:`CompactGraph` wire forms interned through
        a table replica of this engine's table, so no label is ever
        re-interned and no :class:`LabeledGraph` is reconstructed.  Only
        the compact snapshot is kept: no index is built here.

        *tids* files each transaction under a caller-chosen tid (a shard
        worker passes the runtime's global tids); they must rise past
        every tid this engine has handed out, so none is ever reused.
        ``None`` hands out the next consecutive tids.  The call is
        validated before anything is registered.
        """
        compacts = list(compacts)
        first = self._next_tid
        if tids is None:
            tids = range(first, first + len(compacts))
        elif len(tids) != len(compacts):
            raise ValueError(f"{len(tids)} tids for {len(compacts)} transactions")
        for compact in compacts:
            if compact.table is not self.table:
                raise ValueError(
                    "compact transaction was interned through a different label table"
                )
        floor = first
        for tid in tids:
            if tid < floor:
                raise ValueError(
                    f"transaction id {tid} is not above {floor - 1}; tids only rise"
                )
            floor = tid + 1
        self._transactions.update(zip(tids, compacts))
        self._next_tid = floor
        return list(tids)

    def release_transactions(self, tids: Iterable[int]) -> None:
        """Drop all state held for *tids*: references and anchors.

        Tids are never reused (the slots stay occupied).  A shared engine
        that serves many mining rounds must release each round's
        transactions or it retains every graph ever mined.  Querying a
        released tid raises.  The call is validated before anything is
        dropped: a released, repeated, unknown or negative tid raises
        ``KeyError`` and releases nothing (the sharded runtime's contract).
        """
        released: set[int] = set()
        for tid in tids:
            if tid in released:
                raise _released(tid)
            self.transaction(tid)
            released.add(tid)
        if not released:
            return
        for tid in released:
            self._transactions[tid] = None
            self._transaction_indexes.pop(tid, None)
        for per_tid in self._anchors.values():
            for tid in released & per_tid.keys():
                self._anchor_load -= len(per_tid.pop(tid))
        for capped in self._capped.values():
            capped -= released

    @property
    def n_transactions(self) -> int:
        """Number of transactions registered here (including released ones)."""
        return len(self._transactions)

    def transaction(self, tid: int) -> CompactGraph:
        """The compact snapshot of registered transaction *tid*.

        Raises ``KeyError`` if *tid* is released, unknown or negative.
        Builds no index, so it is also the tid check.
        """
        compact = self._transactions.get(tid)
        if compact is None:
            raise self._absent(tid)
        return compact

    def _absent(self, tid: int) -> KeyError:
        """The error a query about a tid with no live transaction raises."""
        if tid in self._transactions:
            return _released(tid)
        return KeyError(f"unknown transaction id {tid}")

    def _transaction_index(self, tid: int, compact: CompactGraph) -> GraphIndex:
        """The index of live transaction *tid* (snapshot *compact*), built
        on first use and kept until the tid is released."""
        index = self._transaction_indexes.get(tid)
        if index is None:
            index = self._transaction_indexes[tid] = GraphIndex(compact)
            self.stats.indexes_built += 1
        return index

    # ------------------------------------------------------------------
    # Matching API
    # ------------------------------------------------------------------
    def find_embeddings(
        self,
        pattern: LabeledGraph,
        target: LabeledGraph,
        max_count: int | None = None,
    ) -> list[dict[VertexId, VertexId]]:
        """All (or the first *max_count*) embeddings of *pattern* in *target*.

        Embeddings are injective, label-preserving, non-induced mappings
        returned in original vertex-identifier terms, exactly like the
        legacy :func:`repro.graphs.isomorphism.find_embeddings`.
        """
        if pattern.n_vertices == 0:
            return [{}]
        p_index = self.index_of(pattern)
        t_index = self.index_of(target)
        compact_maps = self._compact_embeddings(p_index, t_index, max_count)
        p_ids = p_index.compact.vertex_ids
        t_ids = t_index.compact.vertex_ids
        return [
            {p_ids[p_vertex]: t_ids[t_vertex] for p_vertex, t_vertex in mapping.items()}
            for mapping in compact_maps
        ]

    def find_embedding(
        self, pattern: LabeledGraph, target: LabeledGraph
    ) -> dict[VertexId, VertexId] | None:
        """The first embedding of *pattern* in *target*, or ``None``."""
        embeddings = self.find_embeddings(pattern, target, max_count=1)
        return embeddings[0] if embeddings else None

    def has_embedding(self, pattern: LabeledGraph, target: LabeledGraph) -> bool:
        """Whether *pattern* occurs in *target* (FSG occurrence semantics)."""
        if pattern.n_vertices == 0:
            return True
        p_index = self.index_of(pattern)
        t_index = self.index_of(target)
        return bool(self._compact_embeddings(p_index, t_index, max_count=1))

    def count_embeddings(
        self, pattern: LabeledGraph, target: LabeledGraph, limit: int | None = None
    ) -> int:
        """Number of distinct embeddings of *pattern* in *target* (up to *limit*)."""
        return len(self.find_embeddings(pattern, target, max_count=limit))

    def non_overlapping_embeddings(
        self,
        pattern: LabeledGraph,
        target: LabeledGraph,
        max_count: int | None = None,
    ) -> list[dict[VertexId, VertexId]]:
        """Greedy set of vertex-disjoint embeddings of *pattern* in *target*."""
        taken: set[VertexId] = set()
        selected: list[dict[VertexId, VertexId]] = []
        for mapping in self.find_embeddings(pattern, target):
            image = set(mapping.values())
            if image & taken:
                continue
            selected.append(mapping)
            taken |= image
            if max_count is not None and len(selected) >= max_count:
                break
        return selected

    def are_isomorphic(self, first: LabeledGraph, second: LabeledGraph) -> bool:
        """Exact label-preserving isomorphism between two graphs."""
        if first.n_vertices != second.n_vertices or first.n_edges != second.n_edges:
            return False
        if first.n_vertices == 0:
            return True
        f_index = self.index_of(first)
        s_index = self.index_of(second)
        if f_index.vertex_label_hist != s_index.vertex_label_hist:
            return False
        if f_index.edge_label_hist != s_index.edge_label_hist:
            return False
        # Equal vertex and edge counts make any full embedding a bijection
        # covering all edges, i.e. an isomorphism.
        return bool(self._compact_embeddings(f_index, s_index, max_count=1))

    # ------------------------------------------------------------------
    # Incremental support: the embedding store
    # ------------------------------------------------------------------
    def support_with_embeddings(self, tasks: Sequence[EmbeddingTask]) -> list[list[int]]:
        """Supports of a level batch, answered by extending stored embeddings.

        The level-wise mining recurrence is that every level-(k+1)
        candidate is its parent pattern plus exactly one edge; this path
        exploits it.  For each surviving pattern the engine keeps a
        bounded *anchor* set per supporting transaction — up to
        ``anchor_cap`` embeddings, position-indexed tuples of transaction
        vertices — and answers a child's ``(pattern, tid)`` query by
        extending the parent's anchors by the one new edge:

        * **backward extension** (edge between two existing vertices):
          one dict probe per anchor;
        * **forward extension** (edge to a brand-new vertex): a scan of
          the anchored endpoint's adjacency, filtered by edge label,
          vertex label, and injectivity;
        * **extension miss**: if the parent's anchor set is *complete*
          (it holds every parent embedding), the restriction of any child
          embedding to the parent's vertices would be in it — so a miss
          is a definitive "no".  If the set is capped/incomplete, or the
          parent has no entry at all (cap overflow, budget spill, a
          released level), the engine falls back to the full indexed
          backtracking search.  Fallback and extension agree by
          construction, so anchors change wall-clock, never verdicts.

        Successful queries harvest the child's own anchors (from the
        extension hits or the fallback's embeddings) under ``task.uid``
        for the next level.  Single-edge patterns with no parent are
        seeded straight from the transaction snapshot's adjacency — every
        embedding of a one-edge pattern is literally an edge.

        The scan is pattern-major: each task resolves its strategy
        (extend, seed, or search) and the extension edge's labels once,
        then walks its tids in ascending order.  Per-task ``abort_below``
        arms the early-abort bound (see :class:`EmbeddingTask`).  Returns
        one ascending tid list per task.
        """
        stats = self.stats
        stats.batch_calls += 1
        stats.batch_patterns += len(tasks)
        indexes = [self._index_of_any(task.pattern) for task in tasks]
        anchors = self._anchors
        scans: list[tuple[list[int], int, dict[int, Embeddings] | None] | None] = []
        for task in tasks:
            tids = sorted(task.tids)
            if tids:
                # Check the scan set's ends up front, so a bad tid fails
                # the batch before any scan; the scan checks the rest.
                self.transaction(tids[0])
                self.transaction(tids[-1])
            # The scan aborts once misses exceed the slack: from then on
            # even a hit on every remaining tid stays below abort_below.
            slack = len(tids) - (task.abort_below or 0)
            if slack < 0:
                stats.support_aborts += 1
                scans.append(None)
            else:
                scans.append((tids, slack, anchors.get(task.parent_uid)))

        transactions = self._transactions
        capped_of = self._capped
        cap = self.anchor_cap
        budget = self.anchor_budget
        load = self._anchor_load
        supports: list[list[int]] = [[] for _ in tasks]
        extensions = complete_rejects = seeds = fallbacks = stored = aborts = 0
        try:
            for task, p_index, scan, hits in zip(tasks, indexes, scans, supports):
                if scan is None:
                    continue
                tids, slack, parent_entries = scan
                pattern = p_index.compact
                n_vertices = pattern.n_vertices
                if n_vertices == 0:
                    # The empty pattern embeds in every live transaction.
                    for tid in tids:
                        if transactions.get(tid) is None:
                            raise self._absent(tid)
                        hits.append(tid)
                    continue
                uid = task.uid
                per_tid: dict[int, Embeddings] | None = None
                capped_tids: set[int] | None = None
                extension = task.extension
                extending = extension is not None and parent_entries is not None
                seeding = False
                if extension is None and pattern.n_edges == 1 and n_vertices == 2:
                    ((edge_key, edge_label),) = pattern.edge_label_of.items()
                    src_pos, dst_pos = divmod(edge_key, n_vertices)
                    # Seeding pairs two distinct transaction vertices; a
                    # self-loop beside an isolated vertex is left to the
                    # full search.
                    seeding = src_pos != dst_pos
                if extending:
                    src_pos, dst_pos, has_new = extension
                    edge_label = pattern.edge_label_of[src_pos * n_vertices + dst_pos]
                    # A parent entry is complete unless its tid is capped.
                    parent_capped = capped_of.get(task.parent_uid, ())
                    if has_new:
                        new_label = pattern.vertex_labels[n_vertices - 1]
                        outward = dst_pos == n_vertices - 1
                        anchor_pos = src_pos if outward else dst_pos
                elif seeding:
                    src_label = pattern.vertex_labels[src_pos]
                    dst_label = pattern.vertex_labels[dst_pos]
                misses = 0
                for tid in tids:
                    target = transactions.get(tid)
                    if target is None:
                        raise self._absent(tid)
                    found: tuple | None = None
                    search = not seeding
                    if extending:
                        parent = parent_entries.get(tid)
                        if parent is not None:
                            extensions += 1
                            out: list[tuple[int, ...]] = []
                            capped = False
                            if not has_new:
                                edge_label_of = target.edge_label_of
                                width = target.n_vertices
                                for anchor in parent:
                                    if edge_label_of.get(
                                        anchor[src_pos] * width + anchor[dst_pos]
                                    ) == edge_label:
                                        out.append(anchor)
                                        if len(out) >= cap:
                                            capped = True
                                            break
                            else:
                                t_labels = target.vertex_labels
                                adjacency = target.out_adj if outward else target.in_adj
                                for anchor in parent:
                                    for neighbour, label in adjacency[anchor[anchor_pos]]:
                                        if (
                                            label == edge_label
                                            and t_labels[neighbour] == new_label
                                            and neighbour not in anchor
                                        ):
                                            out.append(anchor + (neighbour,))
                                            if len(out) >= cap:
                                                capped = True
                                                break
                                    if capped:
                                        break
                            if out:
                                # Distinct anchors yield distinct children
                                # (they differ on the parent positions).
                                found = tuple(out)
                                complete = not capped and tid not in parent_capped
                                search = False
                            elif tid not in parent_capped:
                                complete_rejects += 1
                                search = False
                    elif seeding:
                        # Every embedding of a one-edge pattern is an edge
                        # with its labels, read straight off the snapshot's
                        # adjacency; a self-loop cannot host two vertices.
                        seeds += 1
                        t_labels = target.vertex_labels
                        pairs: list[tuple[int, int]] = []
                        for source, label in enumerate(t_labels):
                            if label != src_label:
                                continue
                            for neighbour, edge in target.out_adj[source]:
                                if (
                                    edge == edge_label
                                    and t_labels[neighbour] == dst_label
                                    and neighbour != source
                                ):
                                    pairs.append(
                                        (source, neighbour)
                                        if src_pos == 0
                                        else (neighbour, source)
                                    )
                        if pairs:
                            found = tuple(pairs[:cap])
                            complete = len(pairs) <= cap
                    if search:
                        fallbacks += 1
                        results = self._compact_embeddings(
                            p_index, self._transaction_index(tid, target), max_count=cap
                        )
                        if results:
                            found = tuple(
                                tuple(mapping[p_vertex] for p_vertex in range(n_vertices))
                                for mapping in results
                            )
                            complete = len(results) < cap
                    if found is None:
                        misses += 1
                        if misses > slack:
                            aborts += 1
                            break
                        continue
                    hits.append(tid)
                    # Skipping the store (anonymous task, or budget
                    # exhausted) is always safe: absent entries just push
                    # the children onto the fallback search.
                    if uid is not None and load + len(found) <= budget:
                        if per_tid is None:
                            per_tid = anchors.setdefault(uid, {})
                            capped_tids = capped_of.get(uid)
                        previous = per_tid.get(tid)
                        if previous is not None:
                            load -= len(previous)
                        per_tid[tid] = found
                        if not complete:
                            if capped_tids is None:
                                capped_tids = capped_of.setdefault(uid, set())
                            capped_tids.add(tid)
                        elif capped_tids is not None:
                            capped_tids.discard(tid)
                        load += len(found)
                        stored += len(found)
        finally:
            self._anchor_load = load
            stats.anchor_extensions += extensions
            stats.anchor_complete_rejects += complete_rejects
            stats.anchor_seeds += seeds
            stats.anchor_fallbacks += fallbacks
            stats.anchors_stored += stored
            stats.support_aborts += aborts
        return supports

    def drop_anchors(self, uids: Iterable[object]) -> None:
        """Forget the stored embeddings of *uids* (retired pattern levels)."""
        for uid in uids:
            per_tid = self._anchors.pop(uid, None)
            self._capped.pop(uid, None)
            if per_tid:
                self._anchor_load -= sum(map(len, per_tid.values()))

    @property
    def anchor_load(self) -> int:
        """Total embeddings currently held by the store (budget accounting)."""
        return self._anchor_load

    def _index_of_any(self, pattern: LabeledGraph | CompactGraph) -> GraphIndex:
        """An index for *pattern* whatever form it arrives in."""
        if isinstance(pattern, CompactGraph):
            if pattern.table is not self.table:
                raise ValueError(
                    "compact pattern was interned through a different label table"
                )
            self.stats.indexes_built += 1
            return GraphIndex(pattern)
        return self.index_of(pattern)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _compact_embeddings(
        self,
        p_index: GraphIndex,
        t_index: GraphIndex,
        max_count: int | None,
    ) -> list[dict[int, int]]:
        """Embeddings as compact-vertex mappings (the core VF2-style search)."""
        pattern = p_index.compact
        target = t_index.compact
        if pattern.n_vertices == 0:
            return [{}]
        if not t_index.could_contain(p_index):
            self.stats.early_rejects += 1
            return []
        self.stats.searches += 1

        # Per pattern vertex: label/degree-bucket candidates from the index.
        candidates: list[list[int]] = []
        for p_vertex in range(pattern.n_vertices):
            feasible = t_index.candidates(
                pattern.vertex_labels[p_vertex],
                len(pattern.out_adj[p_vertex]),
                len(pattern.in_adj[p_vertex]),
            )
            if not feasible:
                return []
            candidates.append(feasible)

        plans = _plans_for(pattern, _matching_order(pattern, candidates))
        return _search(pattern, target, plans, candidates, max_count)


#: A per-position step of a matching plan: the pattern vertex to place and
#: its required edges into already-placed pattern vertices.
_Plan = list[tuple[int, list[tuple[int, int]], list[tuple[int, int]]]]


def _plans_for(pattern: CompactGraph, order: Sequence[int]) -> _Plan:
    """Per-position edge requirements for placing pattern vertices in *order*."""
    position_of = {p_vertex: position for position, p_vertex in enumerate(order)}
    plans: _Plan = []
    for position, p_vertex in enumerate(order):
        out_req = [
            (dst, lbl)
            for dst, lbl in pattern.out_adj[p_vertex]
            if position_of[dst] < position
        ]
        in_req = [
            (src, lbl)
            for src, lbl in pattern.in_adj[p_vertex]
            if position_of[src] < position
        ]
        plans.append((p_vertex, out_req, in_req))
    return plans


def _search(
    pattern: CompactGraph,
    target: CompactGraph,
    plans: _Plan,
    candidates: Sequence[Sequence[int]],
    max_count: int | None,
) -> list[dict[int, int]]:
    """The core VF2-style backtracking over compact graphs.

    *plans* fixes the placement order and per-position edge requirements;
    *candidates* holds, per pattern vertex, the feasible target vertices
    used at unanchored positions.
    """
    t_labels = target.vertex_labels
    t_out = target.out_adj
    t_in = target.in_adj
    t_edge_label = target.edge_label_of
    width = target.n_vertices
    mapping: dict[int, int] = {}
    used = bytearray(target.n_vertices)
    results: list[dict[int, int]] = []

    def pool_at(position: int) -> Iterable[int]:
        """Candidate targets, driven by an already-placed neighbour when possible."""
        p_vertex, out_req, in_req = plans[position]
        if out_req:
            dst, lbl = out_req[0]
            anchor = mapping[dst]
            pool = [src for src, edge_lbl in t_in[anchor] if edge_lbl == lbl]
        elif in_req:
            src, lbl = in_req[0]
            anchor = mapping[src]
            pool = [dst for dst, edge_lbl in t_out[anchor] if edge_lbl == lbl]
        else:
            return candidates[p_vertex]
        p_label = pattern.vertex_labels[p_vertex]
        min_out = len(pattern.out_adj[p_vertex])
        min_in = len(pattern.in_adj[p_vertex])
        return [
            vertex
            for vertex in pool
            if t_labels[vertex] == p_label
            and len(t_out[vertex]) >= min_out
            and len(t_in[vertex]) >= min_in
        ]

    def backtrack(position: int) -> bool:
        """Depth-first search; returns True when *max_count* is reached."""
        if position == len(plans):
            results.append(dict(mapping))
            return max_count is not None and len(results) >= max_count
        p_vertex, out_req, in_req = plans[position]
        for t_vertex in pool_at(position):
            if used[t_vertex]:
                continue
            ok = True
            for dst, lbl in out_req:
                if t_edge_label.get(t_vertex * width + mapping[dst]) != lbl:
                    ok = False
                    break
            if ok:
                for src, lbl in in_req:
                    if t_edge_label.get(mapping[src] * width + t_vertex) != lbl:
                        ok = False
                        break
            if not ok:
                continue
            mapping[p_vertex] = t_vertex
            used[t_vertex] = 1
            done = backtrack(position + 1)
            del mapping[p_vertex]
            used[t_vertex] = 0
            if done:
                return True
        return False

    backtrack(0)
    return results


def _matching_order(pattern: CompactGraph, candidates: list[list[int]]) -> list[int]:
    """Rarest-candidates-first, frontier-extending order over pattern vertices."""
    n = pattern.n_vertices
    neighbours = [
        {dst for dst, _ in pattern.out_adj[v]} | {src for src, _ in pattern.in_adj[v]}
        for v in range(n)
    ]
    degree = [len(pattern.out_adj[v]) + len(pattern.in_adj[v]) for v in range(n)]
    remaining = set(range(n))
    in_order = [False] * n
    order: list[int] = []

    def rank(v: int) -> tuple[int, int, int]:
        return (len(candidates[v]), -degree[v], v)

    start = min(remaining, key=rank)
    order.append(start)
    in_order[start] = True
    remaining.remove(start)
    while remaining:
        frontier = [v for v in remaining if any(in_order[n_] for n_ in neighbours[v])]
        pool = frontier or sorted(remaining)
        nxt = min(pool, key=rank)
        order.append(nxt)
        in_order[nxt] = True
        remaining.remove(nxt)
    return order


def _released(tid: int) -> KeyError:
    """The error a query about released transaction *tid* raises."""
    return KeyError(f"transaction {tid} has been released from this engine")


_default_engine: MatchEngine | None = None


def default_engine() -> MatchEngine:
    """The process-wide engine behind the module-level isomorphism helpers."""
    global _default_engine
    if _default_engine is None:
        _default_engine = MatchEngine()
    return _default_engine


def reset_default_engine() -> None:
    """Drop the process-wide engine (used by tests to isolate caches)."""
    global _default_engine
    _default_engine = None
