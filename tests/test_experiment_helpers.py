"""Unit tests for the experiment-driver helper functions and FSG support counting."""

from __future__ import annotations

import pytest

from repro.core.experiments import (
    _most_patterns_small,
    _outlier_cluster,
    _planted_specification,
    _scaled_partition_count,
)
from repro.graphs.motifs import chain, hub_and_spoke
from repro.mining.em_clustering import ClusterSummary
from repro.mining.fsg.candidates import Candidate
from repro.mining.fsg.miner import FSGMiner
from repro.mining.fsg.results import FSGResult, FrequentSubgraph
from repro.runtime import SerialRuntime, bits_of, popcount, tids_of

from conftest import level_request
from fsg_oracle import single_edge_pattern


class TestScaledPartitionCount:
    def test_full_size_graph_gives_paper_partition_count(self):
        # 20,900 edges at the paper's 400-partition setting -> ~52 edges per
        # partition -> ~400 partitions.
        assert _scaled_partition_count(20_900, 400) == pytest.approx(400, rel=0.05)

    def test_scaled_graph_keeps_edges_per_partition(self):
        k = _scaled_partition_count(627, 400)
        assert 627 / k == pytest.approx(20_900 / 400, rel=0.2)

    def test_minimum_partition_count(self):
        assert _scaled_partition_count(4, 1600) >= 4


class TestMostPatternsSmall:
    def _result(self, edge_counts):
        result = FSGResult()
        for index, edges in enumerate(edge_counts):
            graph = chain(edges, prefix=f"p{index}")
            result.patterns.append(
                FrequentSubgraph(pattern=graph, support=3, supporting_transactions=frozenset({0, 1, 2}))
            )
        return result

    def test_mostly_small(self):
        assert _most_patterns_small(self._result([1, 1, 2, 3])) is True

    def test_mostly_large(self):
        assert _most_patterns_small(self._result([3, 4, 4, 1])) is False

    def test_empty_result(self):
        assert _most_patterns_small(FSGResult()) is False


class TestOutlierCluster:
    def _summary(self, index, size, distance, hours):
        return ClusterSummary(
            index=index,
            size=size,
            means={"TOTAL_DISTANCE": distance, "MOVE_TRANSIT_HOURS": hours},
            std_devs={},
        )

    def test_air_freight_cluster_found(self):
        summaries = [
            self._summary(0, 500, 300.0, 40.0),
            self._summary(1, 4, 3_100.0, 16.0),
        ]
        outlier = _outlier_cluster(summaries)
        assert outlier is not None and outlier.index == 1

    def test_long_haul_truck_cluster_not_an_outlier(self):
        summaries = [self._summary(0, 200, 2_800.0, 70.0)]
        assert _outlier_cluster(summaries) is None

    def test_smallest_matching_cluster_preferred(self):
        summaries = [
            self._summary(0, 40, 2_900.0, 20.0),
            self._summary(1, 3, 3_100.0, 15.0),
        ]
        assert _outlier_cluster(summaries).index == 1


class TestPlantedSpecification:
    def test_specification_contains_three_families(self):
        spec = _planted_specification(copies=5, seed=1)
        assert len(spec.patterns) == 3
        assert all(planted.copies == 5 for planted in spec.patterns)


class TestFsgSupportCounting:
    """Support counting through the serial runtime's level session."""

    def _transactions(self):
        return [
            hub_and_spoke(2, edge_labels=[1, 1], prefix="a"),
            hub_and_spoke(2, edge_labels=[1, 1], prefix="b"),
            chain(2, edge_labels=[2, 2], prefix="c"),
        ]

    @staticmethod
    def _runtime(transactions):
        # A fresh runtime numbers the transactions 0..n-1, so its global
        # tids are the local indices.
        runtime = SerialRuntime()
        runtime.add_transactions(transactions)
        return runtime

    def _support_bits(self, pattern, transactions, scan_bits) -> int:
        runtime = self._runtime(transactions)
        with runtime.open_session() as session:
            (bits,) = session.support_level([level_request(runtime, pattern, scan_bits)])
        return bits

    def test_supporting_transactions_restricted_to_parents(self):
        pattern = single_edge_pattern("place", 1, "place")
        assert tids_of(self._support_bits(pattern, self._transactions(), bits_of([0]))) == [0]

    def test_supporting_transactions_full_scan(self):
        transactions = self._transactions()
        pattern = single_edge_pattern("place", 1, "place")
        every_tid = bits_of(range(len(transactions)))
        assert tids_of(self._support_bits(pattern, transactions, every_tid)) == [0, 1]

    def test_count_support(self):
        pattern = single_edge_pattern("place", 2, "place")
        assert popcount(self._support_bits(pattern, self._transactions(), bits_of([0, 1, 2]))) == 1

    def test_prune_infrequent(self):
        runtime = self._runtime(self._transactions())
        intern = runtime.engine.table.intern

        def one_edge(edge_label):
            # The integer candidate place -edge_label-> place.
            return Candidate(
                labels=(intern("place"), intern("place")),
                edges=((0, 1, intern(edge_label)),),
                parent_bits=bits_of([0, 1, 2]),
            )

        frequent = one_edge(1)
        rare = one_edge(2)
        with runtime.open_session() as session:
            surviving = FSGMiner()._prune_level_incremental(
                [frequent, rare],
                support_threshold=2,
                session=session,
                to_global=lambda bits: bits,
                to_local=lambda bits: bits,
            )
        assert len(surviving) == 1
        survivor, tids = surviving[0]
        assert survivor is frequent
        assert tids == frozenset({0, 1})
