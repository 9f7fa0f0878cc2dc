"""One driver per paper table / figure (the experiment index of DESIGN.md).

Every function returns an :class:`~repro.core.results.ExperimentReport`
whose ``paper`` dict records what the paper reports (numbers where it
gives numbers, qualitative claims otherwise) and whose ``measured`` dict
records the reproduction's result on the same axes.  The benchmark harness
calls these functions and prints the comparison; EXPERIMENTS.md is written
from the same output.

The paper ran on the full proprietary dataset and, for the graph-mining
experiments, on hand-picked truncations of it (its SUBDUE runs took hours
to days).  The drivers accept an :class:`~repro.core.config.ExperimentConfig`
whose ``scale`` controls the synthetic dataset size; thresholds that the
paper states in absolute terms (support counts of 120 / 240, the
200-vertex-label filter) are scaled proportionally so the experiments keep
the same relative shape at any scale.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core.config import ExperimentConfig
from repro.core.pipeline import (
    StructuralMiningPipeline,
    TemporalMiningPipeline,
    TransactionalMiningPipeline,
)
from repro.core.results import ExperimentReport
from repro.datasets.statistics import PAPER_REPORTED_STATISTICS, compute_statistics
from repro.graphs.builders import build_od_graph
from repro.graphs.components import truncate_to_vertices
from repro.graphs.motifs import MotifShape, chain, classify_shape, cycle, hub_and_spoke
from repro.mining.em_clustering import ClusterSummary
from repro.mining.fsg.exceptions import MemoryBudgetExceeded
from repro.mining.fsg.miner import FSGMiner
from repro.mining.subdue.evaluation import EvaluationPrinciple
from repro.mining.subdue.miner import SubdueMiner, SubdueResult
from repro.mining.transactional import COORDINATE_ATTRIBUTES
from repro.partitioning.split_graph import PartitionStrategy, split_graph
from repro.partitioning.structural import StructuralMiningConfig, mine_single_graph
from repro.partitioning.temporal import (
    TemporalTransaction,
    graphs_of,
    partition_by_date,
    prepare_temporal_transactions,
    summarize_transactions,
)
from repro.patterns.matching import patterns_with_shape, summarize_shapes
from repro.patterns.planted import PlantedGraphSpec, build_planted_graph
from repro.patterns.recall import measure_recall
from repro.runtime import create_runtime


def _default_config(config: ExperimentConfig | None) -> ExperimentConfig:
    return config if config is not None else ExperimentConfig()


# ----------------------------------------------------------------------
# Table 1 / Section 3 — dataset description
# ----------------------------------------------------------------------
def experiment_table1(config: ExperimentConfig | None = None) -> ExperimentReport:
    """Table 1 / Section 3: dataset size, OD-pair, and degree statistics."""
    config = _default_config(config)
    dataset = config.dataset()
    statistics = compute_statistics(dataset)
    report = ExperimentReport(
        experiment_id="T1",
        description="Dataset description (Table 1 / Section 3 statistics)",
        paper=dict(PAPER_REPORTED_STATISTICS),
        measured=statistics.as_dict(),
        details={"statistics": statistics, "scale": config.scale},
    )
    report.measured["transactions_per_od_pair"] = round(statistics.transactions_per_od_pair, 2)
    report.paper["transactions_per_od_pair"] = round(
        PAPER_REPORTED_STATISTICS["n_transactions"] / PAPER_REPORTED_STATISTICS["n_od_pairs"], 2
    )
    return report


# ----------------------------------------------------------------------
# Figure 1 / Section 5.1 — SUBDUE with the MDL principle
# ----------------------------------------------------------------------
def experiment_figure1_subdue_mdl(
    config: ExperimentConfig | None = None,
    n_vertices: int = 60,
) -> ExperimentReport:
    """Figure 1: SUBDUE / MDL on a truncated OD_GW graph finds small frequent patterns."""
    config = _default_config(config)
    dataset = config.dataset()
    graph = build_od_graph(dataset, edge_attribute="OD_GW", binning=config.binning(), vertex_labeling="uniform")
    truncated = truncate_to_vertices(graph, n_vertices)
    miner = SubdueMiner(
        beam_width=4,
        max_best=5,
        max_substructure_edges=4,
        principle=EvaluationPrinciple.MDL,
        limit=400,
    )
    result = miner.mine(truncated)
    best_sizes = [substructure.n_edges for substructure in result.best]
    best_instances = [substructure.n_non_overlapping for substructure in result.best]
    shapes = [classify_shape(substructure.pattern).value for substructure in result.best]
    # Figure 1's headline pattern is a through-traffic (deadhead) shape: a
    # vertex with traffic flowing in and out but little return traffic.
    has_through_traffic = any(
        any(
            substructure.pattern.in_degree(vertex) >= 1 and substructure.pattern.out_degree(vertex) >= 1
            for vertex in substructure.pattern.vertices()
        )
        for substructure in result.best
    )
    report = ExperimentReport(
        experiment_id="F1",
        description="SUBDUE with the MDL principle on a truncated OD_GW graph (Figure 1)",
        paper={
            "best_patterns_reported": "3 (best 3 of beam 4)",
            "pattern_sizes": "small (1-4 edges)",
            "patterns_are_repetitive": True,
            "includes_through_traffic_deadhead": True,
        },
        measured={
            "best_patterns_reported": len(result.best),
            "pattern_sizes": best_sizes,
            "patterns_are_repetitive": bool(best_instances) and min(best_instances) >= 2,
            "includes_through_traffic_deadhead": has_through_traffic,
        },
        details={
            "result": result,
            "graph_vertices": truncated.n_vertices,
            "graph_edges": truncated.n_edges,
            "best_instances": best_instances,
            "best_shapes": shapes,
        },
    )
    return report


# ----------------------------------------------------------------------
# Section 5.1 — SUBDUE runtime scaling and MDL vs Size behaviour
# ----------------------------------------------------------------------
def experiment_sec51_subdue_scaling(
    config: ExperimentConfig | None = None,
    sizes: tuple[int, ...] = (20, 40, 60),
) -> ExperimentReport:
    """Section 5.1: SUBDUE runtime grows steeply with graph size; Size finds larger patterns than MDL."""
    config = _default_config(config)
    dataset = config.dataset()
    graph = build_od_graph(dataset, edge_attribute="OD_TD", binning=config.binning(), vertex_labeling="uniform")

    runtimes: dict[int, float] = {}
    mdl_best_edges: dict[int, int] = {}
    size_best_edges: dict[int, int] = {}
    results: dict[str, SubdueResult] = {}
    for n_vertices in sizes:
        truncated = truncate_to_vertices(graph, n_vertices)
        for principle, store in (
            (EvaluationPrinciple.MDL, mdl_best_edges),
            (EvaluationPrinciple.SIZE, size_best_edges),
        ):
            miner = SubdueMiner(
                beam_width=4,
                max_best=3,
                max_substructure_edges=6,
                principle=principle,
                limit=300,
            )
            start = time.perf_counter()
            result = miner.mine(truncated)
            elapsed = time.perf_counter() - start
            if principle is EvaluationPrinciple.MDL:
                runtimes[n_vertices] = elapsed
            results[f"{principle.value}@{n_vertices}"] = result
            top = result.top()
            store[n_vertices] = top.n_edges if top is not None else 0

    largest = max(sizes)
    smallest = min(sizes)
    report = ExperimentReport(
        experiment_id="S5.1",
        description="SUBDUE runtime scaling and MDL-versus-Size behaviour (Section 5.1)",
        paper={
            "runtime_grows_with_size": True,
            "size_finds_larger_patterns_than_mdl": True,
            "mdl_prefers_small_patterns": True,
        },
        measured={
            "runtime_grows_with_size": runtimes[largest] > runtimes[smallest],
            "size_finds_larger_patterns_than_mdl": size_best_edges[largest] >= mdl_best_edges[largest],
            "mdl_prefers_small_patterns": mdl_best_edges[largest] <= 3,
        },
        details={
            "runtimes_seconds": runtimes,
            "mdl_best_edges": mdl_best_edges,
            "size_best_edges": size_best_edges,
            "results": results,
        },
    )
    return report


# ----------------------------------------------------------------------
# Figures 2 & 3 / Section 5.2.2 — FSG over BFS / DFS partitions
# ----------------------------------------------------------------------
def _scaled_partition_count(n_edges: int, paper_partitions: int) -> int:
    """Scale the paper's partition count so partitions keep ~the same edge count.

    The paper partitions a ~20,900-edge graph into 400-1600 transactions
    (13-52 edges per transaction); the same edges-per-transaction ratio is
    preserved at reduced dataset scale.
    """
    paper_edges = PAPER_REPORTED_STATISTICS["n_od_pairs"]
    edges_per_partition = max(4.0, paper_edges / paper_partitions)
    return max(4, int(round(n_edges / edges_per_partition)))


def experiment_fig2_fig3_fsg_partitioning(
    config: ExperimentConfig | None = None,
    paper_partition_counts: tuple[int, ...] = (400, 1600),
    support_fraction_bf: float = 0.25,
    support_fraction_df: float = 0.25,
    max_pattern_edges: int = 3,
) -> ExperimentReport:
    """Figures 2 & 3 / Section 5.2.2: BFS vs DFS partitioning with FSG.

    Paper observations reproduced: breadth-first partitioning yields more
    frequent patterns than depth-first (667 vs 200 on average), fewer /
    larger partitions yield more patterns, breadth-first surfaces
    hub-and-spoke patterns (Figure 2), and depth-first surfaces chain
    patterns (Figure 3).
    """
    config = _default_config(config)
    dataset = config.dataset()
    binning = config.binning()
    # Both strategies are compared on the same graph (OD_GW, the paper's
    # primary labeling) so the measured difference is attributable to the
    # partitioning strategy rather than to the edge-label distribution; the
    # paper's Figures 2 and 3 show sample patterns from OD_TH and OD_TD.
    graph = build_od_graph(dataset, edge_attribute="OD_GW", binning=binning, vertex_labeling="uniform")

    pattern_counts: dict[str, dict[int, float]] = {"breadth_first": {}, "depth_first": {}}
    hub_spoke_found = False
    chain_found = False

    with create_runtime(config.workers, config.backend) as runtime:
        for paper_k in paper_partition_counts:
            for strategy, support_fraction in (
                (PartitionStrategy.BREADTH_FIRST, support_fraction_bf),
                (PartitionStrategy.DEPTH_FIRST, support_fraction_df),
            ):
                k = _scaled_partition_count(graph.n_edges, paper_k)
                support = max(2, int(round(support_fraction * k)))
                mining_config = StructuralMiningConfig(
                    k=k,
                    repetitions=1,
                    min_support=support,
                    strategy=strategy,
                    max_pattern_edges=max_pattern_edges,
                    seed=config.seed + paper_k,
                )
                result = mine_single_graph(graph, mining_config, runtime=runtime)
                pattern_counts[strategy.value][paper_k] = result.average_patterns_per_repetition
                if strategy is PartitionStrategy.BREADTH_FIRST:
                    if patterns_with_shape(result.patterns, MotifShape.HUB_AND_SPOKE):
                        hub_spoke_found = True
                else:
                    if patterns_with_shape(result.patterns, MotifShape.CHAIN):
                        chain_found = True

    bf_average = sum(pattern_counts["breadth_first"].values()) / len(paper_partition_counts)
    df_average = sum(pattern_counts["depth_first"].values()) / len(paper_partition_counts)
    smallest_k = min(paper_partition_counts)
    largest_k = max(paper_partition_counts)
    fewer_partitions_more_patterns = (
        pattern_counts["breadth_first"][smallest_k] >= pattern_counts["breadth_first"][largest_k]
    )

    report = ExperimentReport(
        experiment_id="F2/F3",
        description="FSG over breadth-first / depth-first partitions (Figures 2 & 3, Section 5.2.2)",
        paper={
            "avg_patterns_breadth_first": 667,
            "avg_patterns_depth_first": 200,
            "breadth_first_finds_more": True,
            "fewer_partitions_more_patterns": True,
            "breadth_first_finds_hub_and_spoke": True,
            "depth_first_finds_chain": True,
        },
        measured={
            "avg_patterns_breadth_first": round(bf_average, 1),
            "avg_patterns_depth_first": round(df_average, 1),
            "breadth_first_finds_more": bf_average > df_average,
            "fewer_partitions_more_patterns": fewer_partitions_more_patterns,
            "breadth_first_finds_hub_and_spoke": hub_spoke_found,
            "depth_first_finds_chain": chain_found,
        },
        details={"pattern_counts": pattern_counts},
    )
    return report


# ----------------------------------------------------------------------
# Footnote 2 — recall of planted patterns
# ----------------------------------------------------------------------
def _planted_specification(copies: int, seed: int) -> PlantedGraphSpec:
    spec = PlantedGraphSpec(background_edges=30, seed=seed)
    spec.add("hub3", hub_and_spoke(3, edge_labels=[1, 1, 1]), copies=copies)
    spec.add("chain3", chain(3, edge_labels=[2, 2, 2]), copies=copies)
    spec.add("cycle3", cycle(3, edge_labels=[3, 3, 3]), copies=copies)
    return spec


def experiment_footnote2_recall(
    config: ExperimentConfig | None = None,
    copies: int = 12,
    partitions: int = 14,
) -> ExperimentReport:
    """Footnote 2: recall of known planted patterns after partitioning, >= ~50%."""
    config = _default_config(config)
    planted = build_planted_graph(_planted_specification(copies, seed=config.seed))
    recalls: dict[str, float] = {}
    partial_recalls: dict[str, float] = {}
    with create_runtime(config.workers, config.backend) as runtime:
        for strategy in (PartitionStrategy.BREADTH_FIRST, PartitionStrategy.DEPTH_FIRST):
            mining_config = StructuralMiningConfig(
                k=partitions,
                repetitions=3,
                min_support=max(2, copies // 3),
                strategy=strategy,
                max_pattern_edges=3,
                seed=config.seed,
            )
            result = mine_single_graph(planted.graph, mining_config, runtime=runtime)
            recall_report = measure_recall(
                planted.ground_truth, result.patterns, engine=runtime.engine
            )
            recalls[strategy.value] = recall_report.recall
            partial_recalls[strategy.value] = recall_report.partial_recall

    report = ExperimentReport(
        experiment_id="FN2",
        description="Recall of planted patterns after partitioning and mining (footnote 2)",
        paper={
            "recall_breadth_first": ">= 0.5",
            "recall_depth_first": ">= 0.5",
        },
        measured={
            "recall_breadth_first": round(recalls["breadth_first"], 2),
            "recall_depth_first": round(recalls["depth_first"], 2),
            "partial_recall_breadth_first": round(partial_recalls["breadth_first"], 2),
            "partial_recall_depth_first": round(partial_recalls["depth_first"], 2),
        },
        details={"planted_copies": copies, "partitions": partitions},
    )
    return report


# ----------------------------------------------------------------------
# Table 2 — temporally partitioned graph data
# ----------------------------------------------------------------------
def experiment_table2_temporal(config: ExperimentConfig | None = None) -> ExperimentReport:
    """Table 2: per-day graph transactions and their size distribution."""
    config = _default_config(config)
    dataset = config.dataset()
    transactions = partition_by_date(dataset, edge_attribute="GROSS_WEIGHT", binning=config.binning())
    summary = summarize_transactions(transactions)
    report = ExperimentReport(
        experiment_id="T2",
        description="Summary of temporally partitioned graph data (Table 2)",
        paper={
            "n_transactions": 146,
            "distinct_edge_labels": 7,
            "distinct_vertex_labels": 3835,
            "average_edges": 1092,
            "average_vertices": 601,
            "max_edges": 4462,
            "max_vertices": 2140,
        },
        measured={
            "n_transactions": summary.n_transactions,
            "distinct_edge_labels": summary.n_distinct_edge_labels,
            "distinct_vertex_labels": summary.n_distinct_vertex_labels,
            "average_edges": round(summary.average_edges, 1),
            "average_vertices": round(summary.average_vertices, 1),
            "max_edges": summary.max_edges,
            "max_vertices": summary.max_vertices,
        },
        details={"summary": summary, "scale": config.scale},
    )
    return report


# ----------------------------------------------------------------------
# Table 3 / Figure 4 / Section 6.1 — temporal FSG on filtered transactions
# ----------------------------------------------------------------------
def _scaled_vertex_label_filter(
    transactions: Sequence[TemporalTransaction], keep_fraction: float = 0.40
) -> int:
    """Scale the paper's '< 200 distinct vertex labels' filter to the dataset.

    The paper chose 200 so that the smallest ~36% of days (53 of 146) were
    small enough for FSG to handle.  At reduced dataset scale the per-day
    graphs shrink differently from the location count, so the equivalent
    threshold is taken as the ``keep_fraction`` percentile of the per-day
    distinct-vertex-label counts of *transactions* (the dataset's
    :func:`partition_by_date` output; edge labels do not change it).
    """
    label_counts = sorted(
        len({t.graph.vertex_label(v) for v in t.graph.vertices()}) for t in transactions
    )
    if not label_counts:
        return 6
    index = min(len(label_counts) - 1, max(0, int(keep_fraction * len(label_counts))))
    return max(6, label_counts[index])


def experiment_table3_fig4_temporal_fsg(
    config: ExperimentConfig | None = None,
    min_support: float = 0.05,
) -> ExperimentReport:
    """Table 3 + Figure 4: FSG at 5% support on the filtered temporal transactions."""
    config = _default_config(config)
    days = partition_by_date(
        config.dataset(),
        edge_attribute="GROSS_WEIGHT",
        binning=config.binning(),
        use_interval_labels=True,
    )
    vertex_label_filter = _scaled_vertex_label_filter(days)
    with create_runtime(config.workers, config.backend) as runtime:
        outcome = TemporalMiningPipeline(
            min_support=min_support,
            max_vertex_labels=vertex_label_filter,
            max_pattern_edges=4,
            runtime=runtime,
        ).run(days)
    largest = outcome.mining.largest()
    largest_edges = largest.n_edges if largest is not None else 0
    largest_shape = classify_shape(largest.pattern).value if largest is not None else "none"
    summary = outcome.prepared_summary

    report = ExperimentReport(
        experiment_id="T3/F4",
        description="FSG on filtered temporal transactions (Table 3, Figure 4)",
        paper={
            "n_transactions": 53,
            "distinct_edge_labels": 7,
            "average_edges": 4,
            "max_edges": 8,
            "n_frequent_patterns": 22,
            "largest_pattern_edges": 3,
            "largest_pattern_shape": MotifShape.HUB_AND_SPOKE.value,
            "most_patterns_small": True,
        },
        measured={
            "n_transactions": summary.n_transactions if summary else 0,
            "distinct_edge_labels": summary.n_distinct_edge_labels if summary else 0,
            "average_edges": round(summary.average_edges, 1) if summary else 0,
            "max_edges": summary.max_edges if summary else 0,
            "n_frequent_patterns": len(outcome.mining),
            "largest_pattern_edges": largest_edges,
            "largest_pattern_shape": largest_shape,
            "most_patterns_small": _most_patterns_small(outcome.mining),
        },
        details={"outcome": outcome, "vertex_label_filter": vertex_label_filter},
    )
    return report


def _most_patterns_small(mining) -> bool:
    if len(mining) == 0:
        return False
    small = sum(1 for pattern in mining if pattern.n_edges <= 2)
    return small / len(mining) >= 0.5


def experiment_sec61_fsg_memory(
    config: ExperimentConfig | None = None,
    memory_budget: int = 250,
) -> ExperimentReport:
    """Section 6.1: FSG exhausts memory on the unfiltered temporal transactions.

    The unfiltered per-day transactions (large graphs, thousands of
    distinct vertex labels) blow up the candidate sets; the filtered set
    completes.  The candidate memory budget makes that failure explicit.
    """
    config = _default_config(config)
    dataset = config.dataset()
    binning = config.binning()
    raw = partition_by_date(dataset, edge_attribute="GROSS_WEIGHT", binning=binning)
    unfiltered = prepare_temporal_transactions(raw, max_vertex_labels=None)
    filtered = prepare_temporal_transactions(
        raw, max_vertex_labels=_scaled_vertex_label_filter(raw)
    )

    unfiltered_failed = False
    failure_level = None
    filtered_completed = False
    filtered_patterns = 0
    with create_runtime(config.workers, config.backend) as runtime:
        try:
            miner = FSGMiner(
                min_support=0.01,
                max_edges=4,
                memory_budget=memory_budget,
                runtime=runtime,
            )
            miner.mine(graphs_of(unfiltered))
        except MemoryBudgetExceeded as error:
            unfiltered_failed = True
            failure_level = error.level

        if filtered:
            try:
                miner = FSGMiner(
                    min_support=0.05,
                    max_edges=4,
                    memory_budget=memory_budget,
                    runtime=runtime,
                )
                filtered_patterns = len(miner.mine(graphs_of(filtered)))
                filtered_completed = True
            except MemoryBudgetExceeded:
                filtered_completed = False

    report = ExperimentReport(
        experiment_id="S6.1",
        description="FSG memory failure on unfiltered temporal transactions (Section 6.1)",
        paper={
            "unfiltered_run_fails": True,
            "filtered_run_completes": True,
        },
        measured={
            "unfiltered_run_fails": unfiltered_failed,
            "filtered_run_completes": filtered_completed,
            "filtered_patterns": filtered_patterns,
            "failure_level": failure_level,
        },
        details={
            "memory_budget": memory_budget,
            "n_unfiltered_transactions": len(unfiltered),
            "n_filtered_transactions": len(filtered),
        },
    )
    return report


# ----------------------------------------------------------------------
# Section 7.1 — association rules
# ----------------------------------------------------------------------
def experiment_sec71_association(config: ExperimentConfig | None = None) -> ExperimentReport:
    """Section 7.1: weight->mode and longitude->latitude association rules."""
    config = _default_config(config)
    dataset = config.dataset()
    # Experiment 1 uses equal-frequency bins: gross weight is heavily
    # right-skewed, and frequency-based cuts resolve the light-load range
    # where the LTL/TL boundary lives (Weka's rule boundary of -4501 shows
    # its discretisation did the same on the paper's data).
    pipeline = TransactionalMiningPipeline(
        min_support=0.08, min_confidence=0.75, discretize_strategy="equal_frequency"
    )

    # Experiment 1: all (non-date) attributes.
    rules_all = pipeline.run_association(dataset)
    weight_to_mode = [
        rule
        for rule in rules_all
        if any(item.startswith("GROSS_WEIGHT=") for item in rule.antecedent)
        and any(item == "TRANS_MODE=LTL" for item in rule.consequent)
    ]

    # Experiment 2: origin / destination coordinates only, with equal-width
    # bins (the paper's geographic intervals are equal-width cuts).
    coordinate_pipeline = TransactionalMiningPipeline(
        min_support=0.08,
        min_confidence=0.75,
        attributes=COORDINATE_ATTRIBUTES,
        discretize_strategy="equal_width",
    )
    rules_coordinates = coordinate_pipeline.run_association(dataset)
    longitude_to_latitude = [
        rule
        for rule in rules_coordinates
        if any(item.startswith("ORIGIN_LONGITUDE=") for item in rule.antecedent)
        and any(item.startswith("ORIGIN_LATITUDE=") for item in rule.consequent)
    ]
    best_lon_lat_confidence = max((rule.confidence for rule in longitude_to_latitude), default=0.0)

    report = ExperimentReport(
        experiment_id="S7.1",
        description="Association rules on the discretised table (Section 7.1)",
        paper={
            "weight_to_ltl_rule_found": True,
            "longitude_to_latitude_rule_found": True,
            "longitude_to_latitude_confidence": 0.87,
        },
        measured={
            "weight_to_ltl_rule_found": bool(weight_to_mode),
            "longitude_to_latitude_rule_found": bool(longitude_to_latitude),
            "longitude_to_latitude_confidence": round(best_lon_lat_confidence, 2),
            "n_rules_experiment1": len(rules_all),
            "n_rules_experiment2": len(rules_coordinates),
        },
        details={
            "weight_to_mode_rules": weight_to_mode[:5],
            "longitude_to_latitude_rules": longitude_to_latitude[:5],
        },
    )
    return report


# ----------------------------------------------------------------------
# Section 7.2 — classification
# ----------------------------------------------------------------------
def experiment_sec72_classification(config: ExperimentConfig | None = None) -> ExperimentReport:
    """Section 7.2: J4.8-style classification of TRANS_MODE and TOTAL_DISTANCE."""
    config = _default_config(config)
    dataset = config.dataset()
    # Equal-frequency bins give the discretised GROSS_WEIGHT attribute enough
    # resolution around the LTL/TL boundary for the tree to reach the
    # paper's ~96% accuracy.
    pipeline = TransactionalMiningPipeline(n_bins=10, discretize_strategy="equal_frequency")

    mode_outcome = pipeline.run_classification(dataset)

    # Second run: predict (discretised) TOTAL_DISTANCE with TRANS_MODE removed.
    from repro.mining.decision_tree import DecisionTreeClassifier, train_test_split
    from repro.mining.discretize import Discretizer
    from repro.mining.transactional import dataset_to_feature_table

    attributes = [a for a in pipeline.attributes if a != "TRANS_MODE"]
    table = dataset_to_feature_table(dataset, attributes=attributes)
    discretized = Discretizer(n_bins=7, strategy="equal_frequency").fit_transform(table)
    train, test = train_test_split(discretized, test_fraction=0.33, seed=7)
    distance_tree = DecisionTreeClassifier(max_depth=5, min_samples_leaf=5)
    distance_tree.fit(train, class_attribute="TOTAL_DISTANCE")
    depths = distance_tree.attribute_depths()
    latitude_depth = min(
        depths.get("DEST_LATITUDE", 99), depths.get("ORIGIN_LATITUDE", 99)
    )
    hours_depth = depths.get("MOVE_TRANSIT_HOURS", 99)

    report = ExperimentReport(
        experiment_id="S7.2",
        description="Decision-tree classification of the discretised table (Section 7.2)",
        paper={
            "trans_mode_accuracy": 0.96,
            "root_split_attribute": "GROSS_WEIGHT",
            "latitudes_more_informative_than_hours_for_distance": True,
        },
        measured={
            "trans_mode_accuracy": round(mode_outcome.accuracy, 3),
            "root_split_attribute": mode_outcome.root_attribute,
            "latitudes_more_informative_than_hours_for_distance": latitude_depth <= hours_depth,
        },
        details={
            "mode_attribute_depths": mode_outcome.attribute_depths,
            "distance_attribute_depths": depths,
            "distance_tree_accuracy": distance_tree.accuracy(test),
        },
    )
    return report


# ----------------------------------------------------------------------
# Figures 5 & 6 / Section 7.3 — EM clustering
# ----------------------------------------------------------------------
def _outlier_cluster(summaries: list[ClusterSummary]) -> ClusterSummary | None:
    """The small air-freight-style cluster: long distance, short transit time."""
    candidates = [
        summary
        for summary in summaries
        if summary.means.get("TOTAL_DISTANCE", 0.0) > 2_500.0
        and summary.means.get("MOVE_TRANSIT_HOURS", 1e9) < 24.0
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda summary: summary.size)


def experiment_fig5_fig6_clustering(
    config: ExperimentConfig | None = None,
    n_clusters: int = 9,
) -> ExperimentReport:
    """Figures 5 & 6: EM clustering with an air-freight outlier cluster and a short/long-haul split."""
    config = _default_config(config)
    dataset = config.dataset()
    pipeline = TransactionalMiningPipeline(n_clusters=n_clusters)
    outcome = pipeline.run_clustering(dataset)
    summaries = outcome.summaries
    sizes = sorted(summary.size for summary in summaries)
    mean_distances = [summary.means["TOTAL_DISTANCE"] for summary in summaries]
    outlier = _outlier_cluster(summaries)
    has_short_and_long_haul = bool(mean_distances) and (
        min(mean_distances) < 600.0 and max(mean_distances) > 1_200.0
    )

    report = ExperimentReport(
        experiment_id="F5/F6",
        description="EM clustering of the numeric attributes (Figures 5 & 6)",
        paper={
            "n_clusters": 9,
            "smallest_cluster_size": 3,
            "largest_cluster_size": 19_386,
            "outlier_cluster_is_air_freight": True,
            "short_haul_and_long_haul_split": True,
        },
        measured={
            "n_clusters": len(summaries),
            "smallest_cluster_size": sizes[0] if sizes else 0,
            "largest_cluster_size": sizes[-1] if sizes else 0,
            "outlier_cluster_is_air_freight": outlier is not None,
            "short_haul_and_long_haul_split": has_short_and_long_haul,
        },
        details={
            "summaries": summaries,
            "outlier": outlier,
            "mean_distances": [round(value, 1) for value in sorted(mean_distances)],
        },
    )
    return report


# ----------------------------------------------------------------------
# Ablation — partitioning strategy and partition-size sensitivity
# ----------------------------------------------------------------------
def experiment_ablation_partitioning(
    config: ExperimentConfig | None = None,
    copies: int = 12,
    partitions: int = 14,
) -> ExperimentReport:
    """Ablation: BFS vs DFS vs METIS-like partitioning on planted data.

    Measures the design choice the paper argues for qualitatively: the
    edge-pulling strategies keep every edge (and therefore more planted
    pattern occurrences) while a METIS-like vertex partitioner loses cut
    edges, and BFS/DFS differ in which pattern shapes they preserve.
    """
    config = _default_config(config)
    planted = build_planted_graph(_planted_specification(copies, seed=config.seed + 1))
    support = max(2, copies // 3)

    recalls: dict[str, float] = {}
    shape_mixes: dict[str, dict[str, int]] = {}
    with create_runtime(config.workers, config.backend) as runtime:
        miner = FSGMiner(min_support=support, max_edges=3, runtime=runtime)
        for name, partition_fn in (
            ("breadth_first", lambda g: split_graph(g, partitions, PartitionStrategy.BREADTH_FIRST, seed=config.seed)),
            ("depth_first", lambda g: split_graph(g, partitions, PartitionStrategy.DEPTH_FIRST, seed=config.seed)),
            ("multilevel", None),
        ):
            if partition_fn is None:
                from repro.partitioning.multilevel import multilevel_partition

                parts = multilevel_partition(planted.graph, partitions, seed=config.seed)
            else:
                parts = partition_fn(planted.graph)
            result = miner.mine(parts)
            recall_report = measure_recall(
                planted.ground_truth, result.patterns, engine=runtime.engine
            )
            recalls[name] = recall_report.recall
            shapes = summarize_shapes(result.patterns)
            shape_mixes[name] = {shape.value: count for shape, count in shapes.counts.items()}

    report = ExperimentReport(
        experiment_id="ABL",
        description="Ablation: partitioning strategy (BFS / DFS / METIS-like) on planted data",
        paper={
            "edge_pulling_at_least_as_good_as_metis": True,
        },
        measured={
            "edge_pulling_at_least_as_good_as_metis": max(
                recalls["breadth_first"], recalls["depth_first"]
            ) >= recalls["multilevel"],
            "recall_breadth_first": round(recalls["breadth_first"], 2),
            "recall_depth_first": round(recalls["depth_first"], 2),
            "recall_multilevel": round(recalls["multilevel"], 2),
        },
        details={"shape_mixes": shape_mixes},
    )
    return report


#: All experiment drivers keyed by experiment id (used by the bench harness).
ALL_EXPERIMENTS = {
    "T1": experiment_table1,
    "F1": experiment_figure1_subdue_mdl,
    "S5.1": experiment_sec51_subdue_scaling,
    "F2/F3": experiment_fig2_fig3_fsg_partitioning,
    "FN2": experiment_footnote2_recall,
    "T2": experiment_table2_temporal,
    "T3/F4": experiment_table3_fig4_temporal_fsg,
    "S6.1": experiment_sec61_fsg_memory,
    "S7.1": experiment_sec71_association,
    "S7.2": experiment_sec72_classification,
    "F5/F6": experiment_fig5_fig6_clustering,
    "ABL": experiment_ablation_partitioning,
}
