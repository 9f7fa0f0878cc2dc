"""Labeled directed graph data structures.

Two classes are provided:

* :class:`LabeledGraph` — a simple directed graph with at most one edge per
  ordered vertex pair, each vertex and edge carrying a hashable label.
  This is the representation consumed by the miners (FSG requires simple
  graphs; the paper removes duplicate edges before mining).
* :class:`LabeledMultiGraph` — a directed multigraph allowing several
  parallel edges per ordered pair, used for the raw transportation network
  where each transaction is its own edge.

Both are deliberately small, dependency-free adjacency structures: the
mining algorithms need cheap copying, edge removal, and neighbourhood
iteration rather than the full generality of :mod:`networkx`, though
conversion helpers to and from networkx are provided for interoperability
and visual inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping

Label = Hashable
VertexId = Hashable


@dataclass(frozen=True, order=True)
class Edge:
    """A directed labeled edge ``source -> target`` with label ``label``."""

    source: VertexId
    target: VertexId
    label: Label

    def reversed(self) -> "Edge":
        """The same edge pointing the other way (used by undirected views)."""
        return Edge(self.target, self.source, self.label)


class LabeledGraph:
    """A simple directed graph with labeled vertices and edges."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._vertex_labels: dict[VertexId, Label] = {}
        self._succ: dict[VertexId, dict[VertexId, Label]] = {}
        self._pred: dict[VertexId, dict[VertexId, Label]] = {}
        # Mutation counter: bumped by every structural or label change so
        # external caches (e.g. the match engine's per-graph indexes) can
        # detect staleness without hashing the whole graph.
        self._version = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: VertexId, label: Label = "") -> None:
        """Add a vertex (idempotent; re-adding updates the label)."""
        self._vertex_labels[vertex] = label
        self._succ.setdefault(vertex, {})
        self._pred.setdefault(vertex, {})
        self._version += 1

    def add_edge(self, source: VertexId, target: VertexId, label: Label = "") -> None:
        """Add a directed edge, creating missing endpoints with empty labels.

        Adding an edge that already exists overwrites its label; a simple
        graph holds at most one edge per ordered pair.
        """
        if source not in self._vertex_labels:
            self.add_vertex(source)
        if target not in self._vertex_labels:
            self.add_vertex(target)
        self._succ[source][target] = label
        self._pred[target][source] = label
        self._version += 1

    def remove_edge(self, source: VertexId, target: VertexId) -> None:
        """Remove the edge ``source -> target``; raises ``KeyError`` if absent."""
        del self._succ[source][target]
        del self._pred[target][source]
        self._version += 1

    def remove_vertex(self, vertex: VertexId) -> None:
        """Remove a vertex and every incident edge."""
        for target in list(self._succ.get(vertex, {})):
            self.remove_edge(vertex, target)
        for source in list(self._pred.get(vertex, {})):
            self.remove_edge(source, vertex)
        self._succ.pop(vertex, None)
        self._pred.pop(vertex, None)
        self._vertex_labels.pop(vertex, None)
        self._version += 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Number of vertices."""
        return len(self._vertex_labels)

    @property
    def n_edges(self) -> int:
        """Number of directed edges."""
        return sum(len(targets) for targets in self._succ.values())

    def vertices(self) -> Iterator[VertexId]:
        """Iterate over vertex identifiers."""
        return iter(self._vertex_labels)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges as :class:`Edge` records."""
        for source, targets in self._succ.items():
            for target, label in targets.items():
                yield Edge(source, target, label)

    def has_vertex(self, vertex: VertexId) -> bool:
        """Whether *vertex* is present."""
        return vertex in self._vertex_labels

    def has_edge(self, source: VertexId, target: VertexId) -> bool:
        """Whether the directed edge ``source -> target`` is present."""
        return target in self._succ.get(source, {})

    def vertex_label(self, vertex: VertexId) -> Label:
        """Label of *vertex*; raises ``KeyError`` if absent."""
        return self._vertex_labels[vertex]

    def edge_label(self, source: VertexId, target: VertexId) -> Label:
        """Label of the edge ``source -> target``; raises ``KeyError`` if absent."""
        return self._succ[source][target]

    def successors(self, vertex: VertexId) -> Iterator[VertexId]:
        """Vertices reachable from *vertex* by one outgoing edge."""
        return iter(self._succ.get(vertex, {}))

    def predecessors(self, vertex: VertexId) -> Iterator[VertexId]:
        """Vertices with an edge into *vertex*."""
        return iter(self._pred.get(vertex, {}))

    def neighbours(self, vertex: VertexId) -> set[VertexId]:
        """Successors and predecessors of *vertex* combined."""
        return set(self._succ.get(vertex, {})) | set(self._pred.get(vertex, {}))

    def out_degree(self, vertex: VertexId) -> int:
        """Number of outgoing edges of *vertex*."""
        return len(self._succ.get(vertex, {}))

    def in_degree(self, vertex: VertexId) -> int:
        """Number of incoming edges of *vertex*."""
        return len(self._pred.get(vertex, {}))

    def degree(self, vertex: VertexId) -> int:
        """Total degree (in + out)."""
        return self.out_degree(vertex) + self.in_degree(vertex)

    def incident_edges(self, vertex: VertexId) -> list[Edge]:
        """All edges touching *vertex*, outgoing first."""
        outgoing = [Edge(vertex, target, label) for target, label in self._succ.get(vertex, {}).items()]
        incoming = [Edge(source, vertex, label) for source, label in self._pred.get(vertex, {}).items()]
        return outgoing + incoming

    def vertex_label_counts(self) -> dict[Label, int]:
        """Histogram of vertex labels."""
        counts: dict[Label, int] = {}
        for label in self._vertex_labels.values():
            counts[label] = counts.get(label, 0) + 1
        return counts

    def edge_label_counts(self) -> dict[Label, int]:
        """Histogram of edge labels."""
        counts: dict[Label, int] = {}
        for edge in self.edges():
            counts[edge.label] = counts.get(edge.label, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "LabeledGraph":
        """A deep copy of the graph structure and labels."""
        # Clones the adjacency dicts directly (preserving insertion
        # order) instead of replaying add_vertex/add_edge: candidate
        # generation copies every pattern once per extension, making
        # this one of the miner's hottest allocation sites.
        # Clones the adjacency dicts directly instead of replaying
        # add_vertex/add_edge: candidate generation copies every pattern
        # once per extension, making this one of the miner's hottest
        # allocation sites.  The `_pred` buckets are rebuilt source-major
        # (the order an add_edge replay over `edges()` would produce, and
        # the order the original replay-based copy produced) rather than
        # dict-cloned: predecessor iteration order feeds candidate
        # enumeration, so preserving it keeps mining output — and the
        # golden scenario digests — identical to the historical copy.
        clone = LabeledGraph(name=self.name if name is None else name)
        clone._vertex_labels = dict(self._vertex_labels)
        clone._succ = {vertex: dict(targets) for vertex, targets in self._succ.items()}
        pred: dict[VertexId, dict[VertexId, Label]] = {
            vertex: {} for vertex in self._vertex_labels
        }
        for source, targets in self._succ.items():
            for target, label in targets.items():
                pred[target][source] = label
        clone._pred = pred
        return clone

    def subgraph(self, vertices: Iterable[VertexId]) -> "LabeledGraph":
        """The subgraph induced by *vertices* (keeps edges between them)."""
        keep = set(vertices)
        result = LabeledGraph(name=f"{self.name}-induced")
        for vertex in keep:
            if vertex in self._vertex_labels:
                result.add_vertex(vertex, self._vertex_labels[vertex])
        for edge in self.edges():
            if edge.source in keep and edge.target in keep:
                result.add_edge(edge.source, edge.target, edge.label)
        return result

    def edge_subgraph(self, edges: Iterable[Edge]) -> "LabeledGraph":
        """The subgraph containing exactly *edges* and their endpoints."""
        result = LabeledGraph(name=f"{self.name}-edges")
        for edge in edges:
            if not result.has_vertex(edge.source):
                result.add_vertex(edge.source, self._vertex_labels.get(edge.source, ""))
            if not result.has_vertex(edge.target):
                result.add_vertex(edge.target, self._vertex_labels.get(edge.target, ""))
            result.add_edge(edge.source, edge.target, edge.label)
        return result

    def relabel_vertices(self, mapping: Mapping[VertexId, Label]) -> "LabeledGraph":
        """A copy whose vertex labels are replaced according to *mapping*.

        Vertices missing from *mapping* keep their current label.  Used to
        switch between uniform labelling (Section 5) and location
        labelling (Section 6).
        """
        clone = self.copy()
        for vertex in clone.vertices():
            if vertex in mapping:
                clone._vertex_labels[vertex] = mapping[vertex]
        clone._version += 1
        return clone

    def with_uniform_vertex_labels(self, label: Label = "place") -> "LabeledGraph":
        """A copy where every vertex carries the same label."""
        clone = self.copy()
        for vertex in list(clone.vertices()):
            clone._vertex_labels[vertex] = label
        clone._version += 1
        return clone

    # ------------------------------------------------------------------
    # Interoperability
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a :class:`networkx.DiGraph` (labels stored as attributes).

        networkx is imported here, not at module load: it is an optional
        convenience that only these conversion helpers need.
        """
        try:
            import networkx
        except ImportError:  # pragma: no cover - networkx is installed in this environment
            raise ImportError("networkx is required for to_networkx()") from None
        graph = networkx.DiGraph(name=self.name)
        for vertex, label in self._vertex_labels.items():
            graph.add_node(vertex, label=label)
        for edge in self.edges():
            graph.add_edge(edge.source, edge.target, label=edge.label)
        return graph

    @classmethod
    def from_networkx(cls, graph) -> "LabeledGraph":
        """Build from a :class:`networkx.DiGraph` with ``label`` attributes.

        Reads *graph* through its own methods, so this needs no networkx
        import.
        """
        result = cls(name=str(graph.name) if graph.name else "")
        for node, data in graph.nodes(data=True):
            result.add_vertex(node, data.get("label", ""))
        for source, target, data in graph.edges(data=True):
            result.add_edge(source, target, data.get("label", ""))
        return result

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_vertices

    def __contains__(self, vertex: VertexId) -> bool:
        return vertex in self._vertex_labels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LabeledGraph(name={self.name!r}, vertices={self.n_vertices}, "
            f"edges={self.n_edges})"
        )


class LabeledMultiGraph:
    """A directed multigraph: several parallel labeled edges per vertex pair.

    The raw transportation network is a multigraph because every
    transaction between the same origin and destination is its own edge.
    The miners consume simple graphs, so :meth:`simplify` collapses
    parallel edges (keeping one representative label per parallel group,
    as the paper does when it removes duplicate edges).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._vertex_labels: dict[VertexId, Label] = {}
        self._edges: dict[tuple[VertexId, VertexId], list[Label]] = {}
        # Per-vertex adjacency maintained alongside _edges so degree queries
        # are O(1) lookups instead of O(E) scans over all edge pairs.
        self._out_neighbours: dict[VertexId, set[VertexId]] = {}
        self._in_neighbours: dict[VertexId, set[VertexId]] = {}

    def add_vertex(self, vertex: VertexId, label: Label = "") -> None:
        """Add a vertex (idempotent; re-adding updates the label)."""
        self._vertex_labels[vertex] = label

    def add_edge(self, source: VertexId, target: VertexId, label: Label = "") -> None:
        """Add a parallel edge ``source -> target``."""
        if source not in self._vertex_labels:
            self.add_vertex(source)
        if target not in self._vertex_labels:
            self.add_vertex(target)
        self._edges.setdefault((source, target), []).append(label)
        self._out_neighbours.setdefault(source, set()).add(target)
        self._in_neighbours.setdefault(target, set()).add(source)

    @property
    def n_vertices(self) -> int:
        """Number of vertices."""
        return len(self._vertex_labels)

    @property
    def n_edges(self) -> int:
        """Number of parallel edges (each transaction counts once)."""
        return sum(len(labels) for labels in self._edges.values())

    @property
    def n_simple_edges(self) -> int:
        """Number of distinct ordered vertex pairs with at least one edge."""
        return len(self._edges)

    def vertices(self) -> Iterator[VertexId]:
        """Iterate over vertex identifiers."""
        return iter(self._vertex_labels)

    def vertex_label(self, vertex: VertexId) -> Label:
        """Label of *vertex*."""
        return self._vertex_labels[vertex]

    def edges(self) -> Iterator[Edge]:
        """Iterate over every parallel edge."""
        for (source, target), labels in self._edges.items():
            for label in labels:
                yield Edge(source, target, label)

    def parallel_labels(self, source: VertexId, target: VertexId) -> list[Label]:
        """All labels on edges ``source -> target`` (empty list if none)."""
        return list(self._edges.get((source, target), []))

    def out_degree(self, vertex: VertexId) -> int:
        """Number of distinct destinations reachable from *vertex*."""
        return len(self._out_neighbours.get(vertex, ()))

    def in_degree(self, vertex: VertexId) -> int:
        """Number of distinct origins shipping into *vertex*."""
        return len(self._in_neighbours.get(vertex, ()))

    def simplify(self, label_choice: str = "most_common") -> LabeledGraph:
        """Collapse parallel edges into a simple :class:`LabeledGraph`.

        ``label_choice`` selects the surviving label per parallel group:
        ``"most_common"`` (the default, matching the duplicate-edge removal
        in Section 6) or ``"first"``.
        """
        if label_choice not in ("most_common", "first"):
            raise ValueError("label_choice must be 'most_common' or 'first'")
        simple = LabeledGraph(name=self.name)
        for vertex, label in self._vertex_labels.items():
            simple.add_vertex(vertex, label)
        for (source, target), labels in self._edges.items():
            if label_choice == "first":
                chosen = labels[0]
            else:
                counts: dict[Label, int] = {}
                for label in labels:
                    counts[label] = counts.get(label, 0) + 1
                chosen = max(counts, key=lambda key: (counts[key], str(key)))
            simple.add_edge(source, target, chosen)
        return simple

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LabeledMultiGraph(name={self.name!r}, vertices={self.n_vertices}, "
            f"edges={self.n_edges})"
        )
