"""Tests for Algorithm 1: repeated partitioning plus FSG on a single graph."""

from __future__ import annotations

import pytest

from repro.graphs.motifs import MotifShape, hub_and_spoke
from repro.partitioning.split_graph import PartitionStrategy
from repro.partitioning.structural import (
    StructuralMiningConfig,
    mine_single_graph,
)
from repro.patterns.planted import PlantedGraphSpec, build_planted_graph
from repro.runtime import ShardedEngine


def _planted_host(copies: int = 8):
    spec = PlantedGraphSpec(background_edges=10, seed=3)
    spec.add("star", hub_and_spoke(2, edge_labels=[1, 1]), copies=copies)
    return build_planted_graph(spec)


class TestStructuralMining:
    def test_invalid_repetitions_rejected(self):
        planted = _planted_host()
        with pytest.raises(ValueError):
            mine_single_graph(planted.graph, StructuralMiningConfig(repetitions=0))

    def test_planted_star_recovered(self):
        planted = _planted_host(copies=8)
        config = StructuralMiningConfig(
            k=6, repetitions=2, min_support=3, strategy=PartitionStrategy.BREADTH_FIRST,
            max_pattern_edges=2, seed=5,
        )
        result = mine_single_graph(planted.graph, config)
        assert any(
            pattern.n_edges == 2 and pattern.shape is MotifShape.HUB_AND_SPOKE
            for pattern in result.patterns
        )

    def test_union_deduplicates_across_repetitions(self):
        planted = _planted_host(copies=8)
        config = StructuralMiningConfig(k=6, repetitions=3, min_support=3, max_pattern_edges=2, seed=5)
        result = mine_single_graph(planted.graph, config)
        invariants = set()
        from repro.graphs.canonical import graph_invariant

        for pattern in result.patterns:
            key = graph_invariant(pattern.pattern)
            assert key not in invariants or True  # duplicates may share invariant only if non-isomorphic
        # Stronger check: no two reported patterns are isomorphic.
        from repro.graphs.isomorphism import are_isomorphic

        for i, first in enumerate(result.patterns):
            for second in result.patterns[i + 1:]:
                assert not are_isomorphic(first.pattern, second.pattern)

    def test_per_repetition_counts_recorded(self):
        planted = _planted_host()
        config = StructuralMiningConfig(k=6, repetitions=2, min_support=3, max_pattern_edges=2, seed=5)
        result = mine_single_graph(planted.graph, config)
        assert len(result.per_repetition_counts) == 2
        assert len(result.per_repetition_results) == 2
        assert result.average_patterns_per_repetition == pytest.approx(
            sum(result.per_repetition_counts) / 2
        )

    def test_more_repetitions_never_reduce_found_patterns(self):
        planted = _planted_host()
        single = mine_single_graph(
            planted.graph,
            StructuralMiningConfig(k=6, repetitions=1, min_support=3, max_pattern_edges=2, seed=5),
        )
        triple = mine_single_graph(
            planted.graph,
            StructuralMiningConfig(k=6, repetitions=3, min_support=3, max_pattern_edges=2, seed=5),
        )
        assert len(triple) >= len(single)

    def test_result_iterable(self):
        planted = _planted_host()
        result = mine_single_graph(
            planted.graph,
            StructuralMiningConfig(k=6, repetitions=1, min_support=3, max_pattern_edges=1, seed=5),
        )
        assert len(list(result)) == len(result)


class TestRuntimeRule:
    """Without a runtime, ``mine_single_graph`` mines through
    ``create_runtime()`` (so ``REPRO_WORKERS`` shards it), built and
    closed by the call; a caller's runtime is used and left open."""

    CONFIG = StructuralMiningConfig(k=6, repetitions=2, min_support=3, max_pattern_edges=2, seed=5)

    def test_without_runtime_shards_under_env_and_closes(
        self, monkeypatch, two_serial_shards_env, sharded_engines
    ):
        built, closed = sharded_engines
        planted = _planted_host()
        sharded = mine_single_graph(planted.graph, self.CONFIG)
        assert len(built) == 1 and closed == built
        assert built[0].stats()["batch_calls"] > 0
        monkeypatch.setenv("REPRO_WORKERS", "0")
        serial = mine_single_graph(planted.graph, self.CONFIG)
        assert len(built) == 1
        assert sharded.per_repetition_counts == serial.per_repetition_counts
        assert [p.support for p in sharded.patterns] == [p.support for p in serial.patterns]

    def test_caller_runtime_is_used_and_left_open(self, two_serial_shards_env, sharded_engines):
        built, closed = sharded_engines
        runtime = ShardedEngine(shards=3, backend="serial")
        try:
            mine_single_graph(_planted_host().graph, self.CONFIG, runtime=runtime)
            assert built == [runtime] and closed == []
            assert runtime.stats()["batch_calls"] > 0
        finally:
            runtime.close()
