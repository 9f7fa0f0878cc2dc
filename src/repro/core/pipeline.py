"""End-to-end pipelines for the paper's three studies.

Each pipeline packages the steps a practitioner would run:

* :class:`StructuralMiningPipeline` — Section 5: build an OD graph with
  uniformly labeled vertices, partition it breadth- or depth-first, mine
  the partitions with FSG across several repetitions, and summarise the
  shapes of the discovered patterns.
* :class:`TemporalMiningPipeline` — Section 6: partition the dataset by
  active date, split into connected components, filter, mine with FSG,
  and summarise the transactions (Tables 2 and 3) and patterns.
* :class:`TransactionalMiningPipeline` — Section 7: flatten the dataset,
  discretise, and run association-rule mining, classification, and EM
  clustering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.datasets.binning import BinningScheme
from repro.datasets.schema import TransactionDataset
from repro.graphs.builders import build_od_graph
from repro.graphs.engine import MatchEngine
from repro.mining.apriori import Apriori, AssociationRule
from repro.mining.decision_tree import DecisionTreeClassifier, train_test_split
from repro.mining.discretize import Discretizer
from repro.mining.em_clustering import ClusterSummary, EMClustering
from repro.mining.fsg.miner import FSGMiner
from repro.mining.fsg.results import FSGResult
from repro.mining.transactional import (
    CONVENTIONAL_ATTRIBUTES,
    dataset_to_feature_table,
    feature_table_to_item_transactions,
    numeric_matrix,
)
from repro.obs.tracer import get_tracer
from repro.partitioning.split_graph import PartitionStrategy
from repro.runtime import MiningRuntime, SerialRuntime, create_runtime, resolve_workers
from repro.partitioning.structural import (
    StructuralMiningConfig,
    StructuralMiningResult,
    mine_single_graph,
)
from repro.partitioning.temporal import (
    TemporalPartitionSummary,
    TemporalTransaction,
    graphs_of,
    partition_by_date,
    prepare_temporal_transactions,
    summarize_transactions,
)
from repro.patterns.matching import ShapeSummary, summarize_shapes


def _resolve_runtime(
    runtime: MiningRuntime | None,
    workers: int | None,
    backend: str | None,
    engine: MatchEngine,
) -> tuple[MiningRuntime, bool]:
    """The runtime a pipeline run should mine through.

    Returns ``(runtime, created)``; a runtime built here (from the
    ``workers`` knob, or the serial default over *engine*) is flagged so
    the pipeline closes it when the run is done, while a caller-supplied
    runtime is left alone.
    """
    if runtime is not None:
        return runtime, False
    if resolve_workers(workers) > 1:
        return create_runtime(workers=workers, backend=backend), True
    return SerialRuntime(engine=engine), True


# ----------------------------------------------------------------------
# Structural mining (Section 5)
# ----------------------------------------------------------------------
@dataclass
class StructuralMiningPipeline:
    """Section 5 pipeline: single OD graph -> partitions -> FSG -> shapes.

    The pipeline owns one :class:`~repro.graphs.engine.MatchEngine` (or
    accepts a caller-supplied one) and threads it through partition mining
    so every repetition shares the same label table and graph indexes.
    ``workers`` (or a caller-supplied ``runtime``) spreads support
    counting across shard workers; the mined patterns are identical
    whatever the worker count, and the outcome's ``engine_stats``
    aggregates the matching counters across every shard.
    """

    edge_attribute: str = "GROSS_WEIGHT"
    binning: BinningScheme | None = None
    k: int = 400
    repetitions: int = 2
    min_support: float | int = 5
    strategy: PartitionStrategy = PartitionStrategy.BREADTH_FIRST
    max_pattern_edges: int | None = 5
    seed: int = 17
    engine: MatchEngine | None = None
    workers: int | None = None
    backend: str | None = None
    runtime: MiningRuntime | None = None

    def run(self, dataset: TransactionDataset) -> "StructuralMiningOutcome":
        """Run the pipeline on *dataset*."""
        engine = self.engine if self.engine is not None else MatchEngine()
        graph = build_od_graph(
            dataset,
            edge_attribute=self.edge_attribute,
            binning=self.binning,
            vertex_labeling="uniform",
        )
        config = StructuralMiningConfig(
            k=self.k,
            repetitions=self.repetitions,
            min_support=self.min_support,
            strategy=self.strategy,
            max_pattern_edges=self.max_pattern_edges,
            seed=self.seed,
        )
        runtime, created = _resolve_runtime(self.runtime, self.workers, self.backend, engine)
        try:
            with get_tracer().span(
                "pipeline.structural", k=self.k, repetitions=self.repetitions
            ):
                mining = mine_single_graph(graph, config, engine=engine, runtime=runtime)
            engine_stats = runtime.stats()
        finally:
            if created:
                runtime.close()
        shapes = summarize_shapes(mining.patterns)
        return StructuralMiningOutcome(
            graph_name=graph.name,
            mining=mining,
            shapes=shapes,
            engine=engine,
            engine_stats=engine_stats,
        )


@dataclass
class StructuralMiningOutcome:
    """Output of the structural pipeline."""

    graph_name: str
    mining: StructuralMiningResult
    shapes: ShapeSummary
    engine: MatchEngine | None = None
    engine_stats: dict[str, int] | None = None


# ----------------------------------------------------------------------
# Temporal mining (Section 6)
# ----------------------------------------------------------------------
@dataclass
class TemporalMiningPipeline:
    """Section 6 pipeline: per-day transactions -> filtering -> FSG."""

    edge_attribute: str = "GROSS_WEIGHT"
    binning: BinningScheme | None = None
    min_support: float | int = 0.05
    max_vertex_labels: int | None = 200
    max_pattern_edges: int | None = 5
    memory_budget: int | None = None
    use_interval_labels: bool = False
    engine: MatchEngine | None = None
    workers: int | None = None
    backend: str | None = None
    runtime: MiningRuntime | None = None

    def run(self, dataset: TransactionDataset) -> "TemporalMiningOutcome":
        """Run the pipeline on *dataset*."""
        engine = self.engine if self.engine is not None else MatchEngine()
        raw = partition_by_date(
            dataset,
            edge_attribute=self.edge_attribute,
            binning=self.binning,
            use_interval_labels=self.use_interval_labels,
        )
        raw_summary = summarize_transactions(raw) if raw else None
        prepared = prepare_temporal_transactions(
            raw,
            split_components=True,
            drop_single_edge=True,
            max_vertex_labels=self.max_vertex_labels,
        )
        prepared_summary = summarize_transactions(prepared) if prepared else None
        runtime, created = _resolve_runtime(self.runtime, self.workers, self.backend, engine)
        try:
            miner = FSGMiner(
                min_support=self.min_support,
                max_edges=self.max_pattern_edges,
                memory_budget=self.memory_budget,
                engine=engine,
                runtime=runtime,
            )
            with get_tracer().span(
                "pipeline.temporal", transactions=len(prepared)
            ):
                mining = miner.mine(graphs_of(prepared)) if prepared else FSGResult()
            engine_stats = runtime.stats()
        finally:
            if created:
                runtime.close()
        shapes = summarize_shapes(mining.patterns)
        return TemporalMiningOutcome(
            raw_transactions=raw,
            prepared_transactions=prepared,
            raw_summary=raw_summary,
            prepared_summary=prepared_summary,
            mining=mining,
            shapes=shapes,
            engine=engine,
            engine_stats=engine_stats,
        )


@dataclass
class TemporalMiningOutcome:
    """Output of the temporal pipeline."""

    raw_transactions: list[TemporalTransaction]
    prepared_transactions: list[TemporalTransaction]
    raw_summary: TemporalPartitionSummary | None
    prepared_summary: TemporalPartitionSummary | None
    mining: FSGResult
    shapes: ShapeSummary
    engine: MatchEngine | None = None
    engine_stats: dict[str, int] | None = None


# ----------------------------------------------------------------------
# Conventional mining (Section 7)
# ----------------------------------------------------------------------
@dataclass
class TransactionalMiningPipeline:
    """Section 7 pipeline: flat table -> discretise -> rules / tree / clusters."""

    n_bins: int = 7
    discretize_strategy: str = "equal_width"
    min_support: float = 0.1
    min_confidence: float = 0.8
    n_clusters: int = 9
    class_attribute: str = "TRANS_MODE"
    attributes: Sequence[str] = CONVENTIONAL_ATTRIBUTES
    test_fraction: float = 0.33
    seed: int = 7

    def feature_table(self, dataset: TransactionDataset) -> list[dict[str, object]]:
        """The flat (undiscretised) feature table used by every step."""
        return dataset_to_feature_table(dataset, attributes=self.attributes)

    def run_association(self, dataset: TransactionDataset) -> list[AssociationRule]:
        """Discretise and mine association rules (Section 7.1, Experiment 1)."""
        table = self.feature_table(dataset)
        discretizer = Discretizer(n_bins=self.n_bins, strategy=self.discretize_strategy)
        discretized = discretizer.fit_transform(table)
        transactions = feature_table_to_item_transactions(discretized)
        miner = Apriori(min_support=self.min_support, min_confidence=self.min_confidence, max_itemset_size=3)
        return miner.rules(transactions)

    def run_classification(self, dataset: TransactionDataset) -> "ClassificationOutcome":
        """Discretise (features only) and train the decision tree (Section 7.2)."""
        table = self.feature_table(dataset)
        feature_attributes = [a for a in self.attributes if a != self.class_attribute]
        discretizer = Discretizer(
            n_bins=self.n_bins,
            strategy=self.discretize_strategy,
            attributes=feature_attributes,
        )
        discretized = discretizer.fit_transform(table)
        train, test = train_test_split(discretized, test_fraction=self.test_fraction, seed=self.seed)
        tree = DecisionTreeClassifier(max_depth=6, min_samples_leaf=5)
        tree.fit(train, class_attribute=self.class_attribute)
        return ClassificationOutcome(
            tree=tree,
            accuracy=tree.accuracy(test),
            root_attribute=tree.root_attribute(),
            attribute_depths=tree.attribute_depths(),
        )

    def run_clustering(self, dataset: TransactionDataset) -> "ClusteringOutcome":
        """Cluster the undiscretised numeric attributes with EM (Section 7.3)."""
        table = self.feature_table(dataset)
        numeric_attributes = [
            attribute
            for attribute in self.attributes
            if attribute != self.class_attribute
        ]
        matrix = numeric_matrix(table, numeric_attributes)
        model = EMClustering(n_clusters=self.n_clusters, seed=self.seed)
        model.fit(matrix, attribute_names=numeric_attributes)
        summaries = model.cluster_summaries(matrix)
        return ClusteringOutcome(model=model, summaries=summaries)


@dataclass
class ClassificationOutcome:
    """Output of the classification step."""

    tree: DecisionTreeClassifier
    accuracy: float
    root_attribute: str | None
    attribute_depths: dict[str, int]


@dataclass
class ClusteringOutcome:
    """Output of the clustering step."""

    model: EMClustering
    summaries: list[ClusterSummary]

    def sorted_by_size(self) -> list[ClusterSummary]:
        """Cluster summaries from smallest to largest."""
        return sorted(self.summaries, key=lambda summary: summary.size)
