"""Temporal partitioning of the transportation graph (Section 6).

To find routes repeated in *time* rather than space, the paper partitions
the data by date: each graph transaction contains every OD pair active on
that date (a pair is active on every date between the requested pickup and
delivery dates).  Vertices keep a unique label derived from their
latitude/longitude so the same physical route supports the same pattern
across days, and edges carry the binned gross weight.

Before mining, the paper further processes the per-day transactions:

* each disconnected graph transaction is broken into its connected
  components (FSG only finds connected patterns, and the distinct vertex
  labels prevent components of the same day from supporting one pattern);
* transactions with a single edge are dropped as uninteresting;
* duplicate edges within a transaction are removed (FSG operates on
  graphs, not multigraphs);
* for the experiment that actually completed, dates with 200 or more
  distinct vertex labels were excluded (Table 3).

:func:`partition_by_date`, :func:`prepare_temporal_transactions`, and
:func:`summarize_transactions` implement those steps and the Table 2 /
Table 3 summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Sequence

from repro.datasets.binning import BinningScheme, default_binning_scheme
from repro.datasets.schema import TransactionDataset
from repro.graphs.components import connected_components
from repro.graphs.labeled_graph import LabeledGraph, LabeledMultiGraph
from repro.obs.tracer import get_tracer


@dataclass
class TemporalTransaction:
    """One graph transaction produced by the temporal partitioning."""

    active_date: date
    graph: LabeledGraph
    component_index: int = 0

    @property
    def n_edges(self) -> int:
        """Edges in the transaction graph."""
        return self.graph.n_edges

    @property
    def n_vertices(self) -> int:
        """Vertices in the transaction graph."""
        return self.graph.n_vertices


@dataclass(frozen=True)
class TemporalPartitionSummary:
    """The statistics reported in Tables 2 and 3 of the paper."""

    n_transactions: int
    n_distinct_edge_labels: int
    n_distinct_vertex_labels: int
    average_edges: float
    average_vertices: float
    max_edges: int
    max_vertices: int
    size_histogram: dict[str, int]

    def as_rows(self) -> list[tuple[str, object]]:
        """Rows in the order the paper prints them."""
        rows: list[tuple[str, object]] = [
            ("Number of Input Transactions", self.n_transactions),
            ("Number of Distinct Edge Labels", self.n_distinct_edge_labels),
            ("Number of Distinct Vertex Labels", self.n_distinct_vertex_labels),
            ("Average Number of Edges In a Transaction", round(self.average_edges, 1)),
            ("Average Number of Vertices In a Transaction", round(self.average_vertices, 1)),
            ("Max Number of Edges In a Transaction", self.max_edges),
            ("Max Number of Vertices In a Transaction", self.max_vertices),
        ]
        for bucket, count in self.size_histogram.items():
            rows.append((f"Graph Transactions with Size between {bucket}", count))
        return rows


#: Edge-count buckets used by Table 2's size histogram.
SIZE_BUCKETS: tuple[tuple[int, int], ...] = (
    (1, 10),
    (10, 100),
    (100, 1_000),
    (1_000, 2_000),
    (2_000, 5_000),
)


def partition_by_date(
    dataset: TransactionDataset,
    edge_attribute: str = "GROSS_WEIGHT",
    binning: BinningScheme | None = None,
    use_interval_labels: bool = False,
) -> list[TemporalTransaction]:
    """One graph transaction per date with the OD pairs active on that date.

    Vertices are labeled with their latitude/longitude (unique per place);
    edges are labeled with the binned edge attribute.  Duplicate edges
    (several active loads on the same lane on the same day) are collapsed,
    keeping the most common label, because FSG operates on simple graphs.
    """
    with get_tracer().span("partition.temporal"):
        scheme = binning or default_binning_scheme()
        per_date: dict[date, LabeledMultiGraph] = {}
        for transaction in dataset:
            if use_interval_labels:
                edge_label = scheme.edge_interval(transaction, edge_attribute)
            else:
                edge_label = scheme.edge_label(transaction, edge_attribute)
            for active in transaction.active_dates():
                graph = per_date.setdefault(active, LabeledMultiGraph(name=f"day-{active.isoformat()}"))
                graph.add_vertex(transaction.origin, transaction.origin.label())
                graph.add_vertex(transaction.destination, transaction.destination.label())
                graph.add_edge(transaction.origin, transaction.destination, edge_label)
        transactions = [
            TemporalTransaction(active_date=day, graph=multigraph.simplify())
            for day, multigraph in sorted(per_date.items())
        ]
        return transactions


def prepare_temporal_transactions(
    transactions: Sequence[TemporalTransaction],
    split_components: bool = True,
    drop_single_edge: bool = True,
    max_vertex_labels: int | None = None,
) -> list[TemporalTransaction]:
    """Apply the Section 6 preprocessing to per-day transactions.

    ``max_vertex_labels`` reproduces the Table 3 filter: the paper could
    only run FSG after limiting the data to dates with fewer than 200
    distinct vertex labels.  The filter applies to the per-day graph
    before component splitting, as in the paper.
    """
    with get_tracer().span("partition.temporal"):
        prepared: list[TemporalTransaction] = []
        for transaction in transactions:
            if max_vertex_labels is not None:
                n_labels = len(set(
                    transaction.graph.vertex_label(v) for v in transaction.graph.vertices()
                ))
                if n_labels >= max_vertex_labels:
                    continue
            if split_components:
                components = connected_components(transaction.graph)
            else:
                components = [transaction.graph]
            for index, component in enumerate(components):
                if drop_single_edge and component.n_edges <= 1:
                    continue
                prepared.append(
                    TemporalTransaction(
                        active_date=transaction.active_date,
                        graph=component,
                        component_index=index,
                    )
                )
        return prepared


def summarize_transactions(transactions: Sequence[TemporalTransaction]) -> TemporalPartitionSummary:
    """Compute the Table 2 / Table 3 statistics of a set of graph transactions."""
    if not transactions:
        raise ValueError("cannot summarise an empty transaction list")
    edge_labels: set[object] = set()
    vertex_labels: set[object] = set()
    edge_counts: list[int] = []
    vertex_counts: list[int] = []
    for transaction in transactions:
        graph = transaction.graph
        edge_counts.append(graph.n_edges)
        vertex_counts.append(graph.n_vertices)
        for edge in graph.edges():
            edge_labels.add(edge.label)
        for vertex in graph.vertices():
            vertex_labels.add(graph.vertex_label(vertex))

    histogram: dict[str, int] = {}
    for low, high in SIZE_BUCKETS:
        label = f"{low} to {high}"
        histogram[label] = sum(1 for count in edge_counts if low <= count < high)

    return TemporalPartitionSummary(
        n_transactions=len(transactions),
        n_distinct_edge_labels=len(edge_labels),
        n_distinct_vertex_labels=len(vertex_labels),
        average_edges=sum(edge_counts) / len(edge_counts),
        average_vertices=sum(vertex_counts) / len(vertex_counts),
        max_edges=max(edge_counts),
        max_vertices=max(vertex_counts),
        size_histogram=histogram,
    )


def graphs_of(transactions: Sequence[TemporalTransaction]) -> list[LabeledGraph]:
    """Extract the plain graphs (the form the FSG miner consumes)."""
    return [transaction.graph for transaction in transactions]
