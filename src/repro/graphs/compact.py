"""Compact integer-indexed representation of labeled directed graphs.

The mining layers issue thousands of subgraph-isomorphism queries against
the same graphs, and the dict-of-dicts :class:`~repro.graphs.labeled_graph.
LabeledGraph` makes every one of them pay for hashable-key lookups and
string label comparisons.  :class:`CompactGraph` is the kernel-side
representation: vertices are dense integers ``0..n-1``, every vertex and
edge label is interned to a small integer through a shared
:class:`LabelTable`, and adjacency is stored as per-vertex tuples of
``(neighbour, edge-label-id)`` pairs in both directions, plus a flat
edge map keyed by the int ``source * n_vertices + target`` for O(1) edge
checks.

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
        ``source * n_vertices + target -> edge_label_id`` for O(1) edge
        lookups.  The key is one int, not a ``(source, target)`` tuple:
        an int-to-int dict is never tracked by the cyclic collector, and a
        probe builds no tuple.  :meth:`edge_triples` decodes it.
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
        n_vertices = self.n_vertices
        out_lists: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
        in_lists: list[list[tuple[int, int]]] = [[] for _ in range(n_vertices)]
        edge_label_of: dict[int, int] = {}
        for source, target, label_id in edges:
            out_lists[source].append((target, label_id))
            in_lists[target].append((source, label_id))
            edge_label_of[source * n_vertices + target] = label_id
        self.out_adj = tuple(tuple(pairs) for pairs in out_lists)
        self.in_adj = tuple(tuple(pairs) for pairs in in_lists)
        self.edge_label_of = edge_label_of

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_labeled(cls, graph: LabeledGraph, table: LabelTable) -> "CompactGraph":
        """Compact *graph*, interning its labels into *table* (lossless)."""
        return cls.from_wire(labeled_to_wire(graph, table), table)

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
        return (self.name, self.vertex_labels, self.edge_triples(), self.vertex_ids)

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

    def to_labeled(self) -> LabeledGraph:
        """Reconstruct the original :class:`LabeledGraph` (lossless inverse)."""
        graph = LabeledGraph(name=self.name)
        for vertex, label_id in enumerate(self.vertex_labels):
            graph.add_vertex(self.vertex_ids[vertex], self.table.label(label_id))
        for source, target, label_id in self.edge_triples():
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

    def edge_triples(self) -> list[tuple[int, int, int]]:
        """Every edge as ``(source, target, edge_label_id)``, in insertion order."""
        n_vertices = self.n_vertices
        return [
            (*divmod(key, n_vertices), label_id)
            for key, label_id in self.edge_label_of.items()
        ]

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the edge ``source -> target`` exists."""
        return source * self.n_vertices + target in self.edge_label_of

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges in original-identifier terms."""
        for source, target, label_id in self.edge_triples():
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


def labeled_to_wire(graph: LabeledGraph, table: LabelTable) -> tuple:
    """*graph*'s :meth:`CompactGraph.to_wire` tuple, built without the graph.

    The one labeled-to-integer conversion: labels are interned into
    *table*, vertices numbered in insertion order and edges listed
    source-major, exactly as :meth:`CompactGraph.from_labeled` (which
    builds through this) would lay them out.  It reads the adjacency
    dicts directly and builds no adjacency tuples or edge map, so a
    sender that only ships the wire pays for neither.
    """
    labels = graph._vertex_labels
    position = {vertex: index for index, vertex in enumerate(labels)}
    intern = table.intern
    # Vertex labels first: the interning order fixes every label id.
    vertex_labels = tuple([intern(label) for label in labels.values()])
    edges = [
        (position[source], position[target], intern(label))
        for source, targets in graph._succ.items()
        for target, label in targets.items()
    ]
    return (graph.name, vertex_labels, edges, tuple(labels))
