"""Compact integer-indexed representation of labeled directed graphs.

The mining layers issue thousands of subgraph-isomorphism queries against
the same graphs, and the dict-of-dicts :class:`~repro.graphs.labeled_graph.
LabeledGraph` makes every one of them pay for hashable-key lookups and
string label comparisons.  :class:`CompactGraph` is the kernel-side
representation: vertices are dense integers ``0..n-1``, every vertex and
edge label is interned to a small integer through a shared
:class:`LabelTable`, and adjacency is stored as per-vertex tuples of
``(neighbour, edge-label-id)`` pairs in both directions, plus a flat
``(source, target) -> label-id`` map for O(1) edge checks.

A :class:`CompactGraph` is immutable once built.  Conversion is lossless:
:func:`CompactGraph.from_labeled` remembers the original vertex
identifiers and :meth:`CompactGraph.to_labeled` reconstructs an equal
:class:`LabeledGraph` (same vertices, labels, and edges).
"""

from __future__ import annotations

from typing import Hashable, Iterator, Sequence

from repro.graphs.labeled_graph import Edge, LabeledGraph, VertexId


class LabelTable:
    """Interns arbitrary hashable labels to dense integer ids.

    One table is shared across a whole corpus (all transactions, patterns,
    and hosts seen by a :class:`~repro.graphs.engine.MatchEngine`) so that
    label equality anywhere in the kernel is an integer comparison.
    """

    __slots__ = ("_ids", "_labels")

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}
        self._labels: list[Hashable] = []

    def intern(self, label: Hashable) -> int:
        """The id of *label*, assigning a fresh one on first sight."""
        existing = self._ids.get(label)
        if existing is not None:
            return existing
        new_id = len(self._labels)
        self._ids[label] = new_id
        self._labels.append(label)
        return new_id

    def snapshot(self, start: int = 0) -> list[Hashable]:
        """The labels interned since position *start*, in id order.

        The table is append-only, so ``snapshot(n)`` is exactly the delta a
        replica that has already seen the first ``n`` entries needs in
        order to catch up (see :meth:`extend`).  Shipping deltas is how the
        parallel runtime keeps worker-side label ids identical to the
        parent's without ever re-interning label objects.
        """
        return self._labels[start:]

    def extend(self, labels: Sequence[Hashable]) -> None:
        """Append *labels* in order, replicating another table's tail.

        Ids are assigned sequentially, so extending a replica with the
        parent's :meth:`snapshot` delta keeps the two tables id-compatible.
        Labels already present raise: that means the replica diverged.
        """
        for label in labels:
            if label in self._ids:
                raise ValueError(
                    f"label {label!r} already interned; replica table diverged"
                )
            self._ids[label] = len(self._labels)
            self._labels.append(label)

    def __getstate__(self) -> tuple[list[Hashable]]:
        # A 1-tuple, never the bare list: an empty state would be falsy and
        # pickle would skip __setstate__, leaving the slots unset.
        return (self._labels,)

    def __setstate__(self, state: tuple[list[Hashable]]) -> None:
        self._labels = list(state[0])
        self._ids = {label: index for index, label in enumerate(self._labels)}

    def lookup(self, label: Hashable) -> int | None:
        """The id of *label*, or ``None`` if it was never interned.

        A pattern label absent from the table cannot occur in any graph
        already interned through it — a free rejection for the matcher.
        """
        return self._ids.get(label)

    def label(self, label_id: int) -> Hashable:
        """The original label object for *label_id*."""
        return self._labels[label_id]

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._ids


class CompactGraph:
    """Immutable integer-indexed labeled directed graph.

    Attributes
    ----------
    n_vertices, n_edges:
        Sizes.
    vertex_labels:
        ``vertex_labels[v]`` is the interned label id of vertex ``v``.
    out_adj / in_adj:
        ``out_adj[v]`` is a tuple of ``(successor, edge_label_id)`` pairs;
        ``in_adj[v]`` the mirrored ``(predecessor, edge_label_id)`` pairs.
    edge_label_of:
        ``(source, target) -> edge_label_id`` for O(1) edge lookups.
    vertex_ids:
        The original :class:`LabeledGraph` vertex identifiers, position
        ``v`` holding the identifier compact vertex ``v`` came from.
    table:
        The shared :class:`LabelTable` the labels were interned through.
    """

    __slots__ = (
        "name",
        "n_vertices",
        "n_edges",
        "vertex_labels",
        "out_adj",
        "in_adj",
        "edge_label_of",
        "vertex_ids",
        "table",
    )

    def __init__(
        self,
        name: str,
        vertex_labels: Sequence[int],
        edges: Sequence[tuple[int, int, int]],
        vertex_ids: Sequence[VertexId],
        table: LabelTable,
    ) -> None:
        self.name = name
        self.n_vertices = len(vertex_labels)
        self.n_edges = len(edges)
        self.vertex_labels = tuple(vertex_labels)
        self.vertex_ids = tuple(vertex_ids)
        self.table = table
        out_lists: list[list[tuple[int, int]]] = [[] for _ in range(self.n_vertices)]
        in_lists: list[list[tuple[int, int]]] = [[] for _ in range(self.n_vertices)]
        edge_label_of: dict[tuple[int, int], int] = {}
        for source, target, label_id in edges:
            out_lists[source].append((target, label_id))
            in_lists[target].append((source, label_id))
            edge_label_of[(source, target)] = label_id
        self.out_adj = tuple(tuple(pairs) for pairs in out_lists)
        self.in_adj = tuple(tuple(pairs) for pairs in in_lists)
        self.edge_label_of = edge_label_of

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_labeled(cls, graph: LabeledGraph, table: LabelTable) -> "CompactGraph":
        """Compact *graph*, interning its labels into *table* (lossless)."""
        vertex_ids = list(graph.vertices())
        position = {vertex: index for index, vertex in enumerate(vertex_ids)}
        intern = table.intern
        vertex_labels = [intern(graph.vertex_label(vertex)) for vertex in vertex_ids]
        # Read the adjacency dicts directly: this runs once per indexed
        # graph and is the hottest part of index construction, so avoid
        # materialising an Edge record per edge.
        edges = [
            (position[source], position[target], intern(label))
            for source, targets in graph._succ.items()
            for target, label in targets.items()
        ]
        return cls(
            name=graph.name,
            vertex_labels=vertex_labels,
            edges=edges,
            vertex_ids=vertex_ids,
            table=table,
        )

    def extended(
        self,
        source_pos: int,
        target_pos: int,
        edge_label: Hashable,
        new_vertex_label: Hashable | None,
        child: LabeledGraph,
    ) -> "CompactGraph":
        """The compact form of *child* — this graph plus one edge — derived
        incrementally.

        *child* must be this graph's labeled form extended by exactly one
        edge ``source_pos -> target_pos`` labeled *edge_label*; when
        *new_vertex_label* is not ``None`` the edge's new endpoint is a
        fresh vertex appended after the existing ones (the candidate
        generator's convention).  The result is field-for-field identical
        to ``from_labeled(child, table)`` — including adjacency tuple
        order, which anchor enumeration inherits — at a fraction of the rebuild cost: candidate generation
        compacts thousands of one-edge extensions per mining level.
        """
        table = self.table
        label_id = table.intern(edge_label)
        if new_vertex_label is not None:
            vertex_labels = self.vertex_labels + (table.intern(new_vertex_label),)
            out_adj = list(self.out_adj) + [()]
            in_adj = list(self.in_adj) + [()]
        else:
            vertex_labels = self.vertex_labels
            out_adj = list(self.out_adj)
            in_adj = list(self.in_adj)
        # from_labeled iterates sources in position order, each source's
        # targets in insertion order: the new edge lands last in its
        # source's out-bucket, and in its target's in-bucket just before
        # the first pair with a larger source position.
        out_adj[source_pos] = out_adj[source_pos] + ((target_pos, label_id),)
        bucket = in_adj[target_pos]
        at = 0
        while at < len(bucket) and bucket[at][0] < source_pos:
            at += 1
        in_adj[target_pos] = bucket[:at] + ((source_pos, label_id),) + bucket[at:]
        clone = object.__new__(CompactGraph)
        clone.name = child.name
        clone.n_vertices = len(vertex_labels)
        clone.n_edges = self.n_edges + 1
        clone.vertex_labels = vertex_labels
        clone.vertex_ids = tuple(child._vertex_labels)
        clone.table = table
        clone.out_adj = tuple(out_adj)
        clone.in_adj = tuple(in_adj)
        clone.edge_label_of = {
            (source, target): pair_label
            for source, pairs in enumerate(clone.out_adj)
            for target, pair_label in pairs
        }
        return clone

    def to_wire(self) -> tuple:
        """The graph's table-free integer form, ready for cheap pickling.

        The wire tuple carries only dense integers (plus the name and the
        original vertex identifiers) — no :class:`LabelTable` reference —
        so shipping a graph to a worker process costs bytes proportional
        to the graph, not to the corpus vocabulary.  The receiver passes a
        table whose ids match the sender's (kept in sync via
        :meth:`LabelTable.snapshot` / :meth:`LabelTable.extend`) to
        :meth:`from_wire`; labels are never re-interned.
        """
        edges = [
            (source, target, label_id)
            for (source, target), label_id in self.edge_label_of.items()
        ]
        return (self.name, self.vertex_labels, edges, self.vertex_ids)

    @classmethod
    def from_wire(cls, wire: tuple, table: LabelTable) -> "CompactGraph":
        """Rebuild a graph from :meth:`to_wire` output against *table*."""
        name, vertex_labels, edges, vertex_ids = wire
        return cls(
            name=name,
            vertex_labels=vertex_labels,
            edges=edges,
            vertex_ids=vertex_ids,
            table=table,
        )

    def __reduce__(self):
        # Rebuild via __init__ from the wire tuple; the shared table rides
        # along (pickle deduplicates it when several graphs share one).
        name, vertex_labels, edges, vertex_ids = self.to_wire()
        return (CompactGraph, (name, vertex_labels, edges, vertex_ids, self.table))

    def extend(
        self,
        extension: tuple[int, int, bool],
        edge_label_id: int,
        new_vertex_label_id: int | None = None,
    ) -> "CompactGraph":
        """This graph plus one edge, in candidate-generation layout.

        *extension* is the FSG extension descriptor ``(source_position,
        target_position, has_new_vertex)`` in compact vertex positions.
        The result matches what compacting the extended
        :class:`LabeledGraph` candidate would produce — existing vertices
        keep their positions, a new vertex is appended last with the
        ``p<n>``-style identifier candidate generation would have chosen —
        which is what lets a mining-session shard rebuild a level-(k+1)
        candidate from its stored parent plus a few integers instead of
        receiving the full wire tuple.  (Adjacency *order* may differ from
        the wire form when the new edge's source is not the last-inserted
        vertex; order never affects match verdicts, only which capped
        anchors get stored.)
        """
        source, target, has_new = extension
        vertex_labels = list(self.vertex_labels)
        vertex_ids = list(self.vertex_ids)
        if has_new:
            if new_vertex_label_id is None:
                raise ValueError("a new-vertex extension needs the new vertex's label")
            vertex_labels.append(new_vertex_label_id)
            fresh = self.n_vertices
            while f"p{fresh}" in vertex_ids:  # mirrors _fresh_vertex_name
                fresh += 1
            vertex_ids.append(f"p{fresh}")
        bound = len(vertex_labels)
        if not (0 <= source < bound and 0 <= target < bound):
            raise ValueError(f"extension {extension!r} out of range for {bound} vertices")
        edges = [
            (src, dst, label_id) for (src, dst), label_id in self.edge_label_of.items()
        ]
        edges.append((source, target, edge_label_id))
        return CompactGraph(
            name=self.name,
            vertex_labels=vertex_labels,
            edges=edges,
            vertex_ids=vertex_ids,
            table=self.table,
        )

    def to_labeled(self) -> LabeledGraph:
        """Reconstruct the original :class:`LabeledGraph` (lossless inverse)."""
        graph = LabeledGraph(name=self.name)
        for vertex, label_id in enumerate(self.vertex_labels):
            graph.add_vertex(self.vertex_ids[vertex], self.table.label(label_id))
        for (source, target), label_id in self.edge_label_of.items():
            graph.add_edge(
                self.vertex_ids[source],
                self.vertex_ids[target],
                self.table.label(label_id),
            )
        return graph

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def out_degree(self, vertex: int) -> int:
        """Number of outgoing edges of compact vertex *vertex*."""
        return len(self.out_adj[vertex])

    def in_degree(self, vertex: int) -> int:
        """Number of incoming edges of compact vertex *vertex*."""
        return len(self.in_adj[vertex])

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the edge ``source -> target`` exists."""
        return (source, target) in self.edge_label_of

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges in original-identifier terms."""
        for (source, target), label_id in self.edge_label_of.items():
            yield Edge(
                self.vertex_ids[source],
                self.vertex_ids[target],
                self.table.label(label_id),
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompactGraph(name={self.name!r}, vertices={self.n_vertices}, "
            f"edges={self.n_edges})"
        )
