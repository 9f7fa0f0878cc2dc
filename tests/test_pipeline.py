"""Integration tests for the three end-to-end pipelines."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import ExperimentConfig
from repro.core.pipeline import (
    StructuralMiningPipeline,
    TemporalMiningPipeline,
    TransactionalMiningPipeline,
)
from repro.partitioning.split_graph import PartitionStrategy
from repro.partitioning.temporal import partition_by_date
from repro.runtime import ShardedEngine


@pytest.fixture(scope="module")
def pipeline_dataset():
    """A small dataset shared by the pipeline integration tests."""
    return ExperimentConfig(scale=0.015, seed=13).dataset()


@pytest.fixture(scope="module")
def pipeline_days(pipeline_dataset):
    """The shared dataset's day partition, the temporal pipeline's input."""
    return partition_by_date(pipeline_dataset)


class TestStructuralPipeline:
    def test_run_produces_patterns_and_shapes(self, pipeline_dataset):
        pipeline = StructuralMiningPipeline(
            edge_attribute="GROSS_WEIGHT",
            k=12,
            repetitions=1,
            min_support=3,
            strategy=PartitionStrategy.BREADTH_FIRST,
            max_pattern_edges=2,
            seed=3,
        )
        outcome = pipeline.run(pipeline_dataset)
        assert len(outcome.mining) > 0
        assert outcome.shapes.total == len(outcome.mining.patterns)
        assert outcome.graph_name.startswith("OD_")

    def test_depth_first_strategy_runs(self, pipeline_dataset):
        pipeline = StructuralMiningPipeline(
            k=12, repetitions=1, min_support=3, strategy=PartitionStrategy.DEPTH_FIRST,
            max_pattern_edges=2, seed=3,
        )
        outcome = pipeline.run(pipeline_dataset)
        assert outcome.mining.per_repetition_counts


class TestTemporalPipeline:
    def test_run_produces_summaries_and_patterns(self, pipeline_days):
        pipeline = TemporalMiningPipeline(
            min_support=0.05, max_vertex_labels=None, max_pattern_edges=2,
        )
        outcome = pipeline.run(pipeline_days)
        assert outcome.raw_summary is not None
        assert outcome.prepared_summary is not None
        assert outcome.raw_summary.n_transactions >= 1
        # Component splitting and single-edge filtering only shrink graphs.
        assert outcome.prepared_summary.max_edges <= outcome.raw_summary.max_edges
        assert len(outcome.prepared_transactions) >= 1

    def test_vertex_label_filter_reduces_transactions(self, pipeline_days):
        unfiltered = TemporalMiningPipeline(max_vertex_labels=None, max_pattern_edges=1).run(pipeline_days)
        filtered = TemporalMiningPipeline(max_vertex_labels=8, max_pattern_edges=1).run(pipeline_days)
        assert len(filtered.prepared_transactions) <= len(unfiltered.prepared_transactions)


#: One small run of each graph-mining pipeline.
GRAPH_PIPELINES = {
    "structural": StructuralMiningPipeline(k=12, repetitions=1, min_support=3, max_pattern_edges=2, seed=3),
    "temporal": TemporalMiningPipeline(max_vertex_labels=None, max_pattern_edges=1),
}


@pytest.fixture
def pipeline_input(name, pipeline_dataset, pipeline_days):
    """What the parametrized pipeline's ``run`` takes."""
    return pipeline_days if name == "temporal" else pipeline_dataset


@pytest.mark.parametrize("name", sorted(GRAPH_PIPELINES))
class TestPipelineRuntime:
    """Without a runtime, a pipeline run mines through ``create_runtime()``
    (so ``REPRO_WORKERS`` shards it) and closes it; a caller's runtime is
    used and left open."""

    def test_without_runtime_shards_under_env_and_closes(
        self, name, pipeline_input, two_serial_shards_env, sharded_engines
    ):
        built, closed = sharded_engines
        outcome = GRAPH_PIPELINES[name].run(pipeline_input)
        assert outcome.engine_stats["shards"] == 2
        assert outcome.engine_stats["batch_calls"] > 0
        assert len(built) == 1 and closed == built

    def test_caller_runtime_is_used_and_left_open(
        self, name, pipeline_input, two_serial_shards_env, sharded_engines
    ):
        built, closed = sharded_engines
        runtime = ShardedEngine(shards=3, backend="serial")
        try:
            pipeline = dataclasses.replace(GRAPH_PIPELINES[name], runtime=runtime)
            outcome = pipeline.run(pipeline_input)
            assert outcome.engine_stats["shards"] == 3
            assert outcome.engine_stats["batch_calls"] > 0
            assert built == [runtime] and closed == []
        finally:
            runtime.close()


class TestTransactionalPipeline:
    def test_association_rules(self, pipeline_dataset):
        pipeline = TransactionalMiningPipeline(
            min_support=0.1, min_confidence=0.7, discretize_strategy="equal_frequency"
        )
        rules = pipeline.run_association(pipeline_dataset)
        assert rules, "expected at least one association rule"
        assert all(rule.confidence >= 0.7 for rule in rules)

    def test_classification_accuracy_reasonable(self, pipeline_dataset):
        pipeline = TransactionalMiningPipeline(n_bins=10, discretize_strategy="equal_frequency")
        outcome = pipeline.run_classification(pipeline_dataset)
        assert outcome.accuracy > 0.8
        assert outcome.root_attribute == "GROSS_WEIGHT"
        assert "GROSS_WEIGHT" in outcome.attribute_depths

    def test_clustering_summaries(self, pipeline_dataset):
        pipeline = TransactionalMiningPipeline(n_clusters=5)
        outcome = pipeline.run_clustering(pipeline_dataset)
        assert 1 <= len(outcome.summaries) <= 5
        assert sum(summary.size for summary in outcome.summaries) == len(pipeline_dataset)
        ordered = outcome.sorted_by_size()
        assert ordered == sorted(ordered, key=lambda s: s.size)


class TestExperimentConfig:
    def test_dataset_is_cached(self):
        config = ExperimentConfig(scale=0.01, seed=3)
        assert config.dataset() is config.dataset()

    def test_binning_matches_settings(self):
        config = ExperimentConfig(weight_bins=5)
        assert config.binning().label_counts()["GROSS_WEIGHT"] == 5
