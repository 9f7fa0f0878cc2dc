"""Tests for the level-wise frequent subgraph miner (FSG role)."""

from __future__ import annotations

import pytest

from repro.graphs.isomorphism import legacy_has_embedding
from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.motifs import MotifShape, chain, cycle, hub_and_spoke
from repro.mining.fsg.exceptions import MemoryBudgetExceeded
from repro.mining.fsg.miner import FSGMiner, mine_frequent_subgraphs
from repro.mining.fsg.results import FrequentSubgraph
from repro.obs import Tracer, activate
from repro.runtime import SerialRuntime, ShardedEngine


def _transactions_with_planted_star(n_with: int, n_without: int) -> list[LabeledGraph]:
    """Transactions where a 2-spoke star with label 7 appears in *n_with* graphs."""
    transactions = []
    for index in range(n_with):
        graph = hub_and_spoke(2, edge_labels=[7, 7], prefix=f"w{index}")
        graph.add_edge(f"w{index}_s0", f"w{index}_s1", 9)
        transactions.append(graph)
    for index in range(n_without):
        transactions.append(chain(2, edge_labels=[5, 6], prefix=f"o{index}"))
    return transactions


class TestSupportResolution:
    def test_fractional_support(self):
        transactions = _transactions_with_planted_star(4, 6)
        result = mine_frequent_subgraphs(transactions, min_support=0.4, max_edges=1)
        assert result.min_support == 4

    def test_absolute_support(self):
        transactions = _transactions_with_planted_star(4, 6)
        result = mine_frequent_subgraphs(transactions, min_support=3, max_edges=1)
        assert result.min_support == 3

    def test_empty_transactions_rejected(self):
        with pytest.raises(ValueError):
            mine_frequent_subgraphs([], min_support=0.5)

    def test_invalid_support_rejected(self):
        with pytest.raises(ValueError):
            mine_frequent_subgraphs([chain(1)], min_support=0)


class TestMining:
    def test_planted_star_is_found(self):
        transactions = _transactions_with_planted_star(5, 5)
        result = mine_frequent_subgraphs(transactions, min_support=5, max_edges=2)
        star_patterns = [
            p for p in result.patterns if p.n_edges == 2 and p.shape is MotifShape.HUB_AND_SPOKE
        ]
        assert star_patterns, "the planted 2-spoke star should be frequent"
        assert star_patterns[0].support == 5

    def test_infrequent_pattern_not_reported(self):
        transactions = _transactions_with_planted_star(2, 8)
        result = mine_frequent_subgraphs(transactions, min_support=5, max_edges=2)
        assert all(p.support >= 5 for p in result.patterns)
        assert not any(p.shape is MotifShape.HUB_AND_SPOKE for p in result.patterns)

    def test_supporting_transactions_are_correct(self):
        transactions = _transactions_with_planted_star(3, 3)
        result = mine_frequent_subgraphs(transactions, min_support=3, max_edges=2)
        star = next(p for p in result.patterns if p.shape is MotifShape.HUB_AND_SPOKE)
        assert star.supporting_transactions == frozenset({0, 1, 2})

    def test_max_edges_limits_pattern_size(self):
        transactions = [cycle(4, edge_labels=[1, 1, 1, 1], prefix=f"c{i}") for i in range(3)]
        result = mine_frequent_subgraphs(transactions, min_support=3, max_edges=2)
        assert all(p.n_edges <= 2 for p in result.patterns)

    def test_full_cycle_found_without_size_limit(self):
        transactions = [cycle(3, edge_labels=[1, 1, 1], prefix=f"c{i}") for i in range(3)]
        result = mine_frequent_subgraphs(transactions, min_support=3)
        assert any(p.n_edges == 3 and p.shape is MotifShape.CYCLE for p in result.patterns)

    def test_patterns_count_once_per_transaction(self):
        # A transaction with many embeddings of a pattern still counts once.
        big_star = hub_and_spoke(5, edge_labels=[1] * 5)
        small_star = hub_and_spoke(2, edge_labels=[1, 1], prefix="x")
        result = mine_frequent_subgraphs([big_star, small_star], min_support=2, max_edges=1)
        assert all(p.support <= 2 for p in result.patterns)


def _legacy_support(pattern: LabeledGraph, transactions) -> frozenset[int]:
    return frozenset(
        tid for tid, transaction in enumerate(transactions) if legacy_has_embedding(pattern, transaction)
    )


class TestSupportsMatchLegacy:
    """Every reported support is the set of transactions the legacy
    matcher finds the pattern in."""

    @pytest.mark.parametrize("min_support", [1, 2])
    def test_self_loops_do_not_support_a_two_vertex_edge(self, min_support):
        # t0 and t1 hold only a self-loop; only t2 embeds p0 -e-> p1.
        transactions = []
        for index, edge in enumerate([("a", "a"), ("a", "a"), ("a", "b")]):
            graph = LabeledGraph(name=f"t{index}")
            graph.add_vertex("a", "A")
            graph.add_vertex("b", "A")
            graph.add_edge(*edge, "e")
            transactions.append(graph)
        result = mine_frequent_subgraphs(transactions, min_support=min_support)
        for entry in result.patterns:
            assert entry.supporting_transactions == _legacy_support(entry.pattern, transactions)
        assert [entry.supporting_transactions for entry in result.patterns] == (
            [frozenset({2})] if min_support == 1 else []
        )

    def test_labels_that_print_alike_are_not_merged(self):
        # Two 2-edge stars a -x-> b, a -y-> c whose (x, y) labels are
        # (1, 1) in t0 and t2 and (1, "1") in t1 and t3: the two stars
        # print alike but are different patterns, each in two transactions.
        transactions = []
        for index in range(4):
            graph = LabeledGraph(name=f"t{index}")
            graph.add_vertex("a", "A")
            graph.add_vertex("b", "B")
            graph.add_vertex("c", "B")
            graph.add_edge("a", "b", 1)
            graph.add_edge("a", "c", 1 if index % 2 == 0 else "1")
            transactions.append(graph)
        result = mine_frequent_subgraphs(transactions, min_support=2, max_edges=2)
        for entry in result.patterns:
            assert entry.supporting_transactions == _legacy_support(entry.pattern, transactions)
        stars = [entry for entry in result.patterns if entry.n_edges == 2]
        # Level-1 order among triples that print alike follows set order,
        # so the stars are compared sorted.
        assert sorted(sorted(entry.supporting_transactions) for entry in stars) == [[0, 2], [1, 3]]


class _GappyRuntime(SerialRuntime):
    """A runtime that breaks the contiguity rule: tids 0, 2, 4, ..."""

    def __init__(self) -> None:
        super().__init__()
        self.released: list[int] = []

    def add_transactions(self, transactions):
        return [2 * tid for tid in super().add_transactions(transactions)]

    def release_transactions(self, tids):
        self.released.extend(tids)


class TestRuntimeContract:
    def test_gappy_runtime_tids_are_rejected(self):
        transactions = _transactions_with_planted_star(4, 2)
        runtime = _GappyRuntime()
        miner = FSGMiner(min_support=2, max_edges=2, runtime=runtime)
        with pytest.raises(RuntimeError, match="_GappyRuntime.*non-consecutive"):
            miner.mine(transactions)
        # The run still hands its tids back to the runtime.
        assert runtime.released == [0, 2, 4, 6, 8, 10]

    def test_sharded_mine_builds_no_index_in_the_miner_engine(self):
        # The shards count support against their own compacts; the
        # runtime's parent engine only deduplicates, and every pattern
        # here canonicalises, so it never needs an index.
        transactions = _transactions_with_planted_star(5, 5)
        runtime = ShardedEngine(shards=2, backend="serial")
        try:
            result = FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(transactions)
        finally:
            runtime.close()
        assert any(pattern.n_edges >= 2 for pattern in result.patterns)
        assert runtime.engine.stats.indexes_built == 0

    def test_the_traced_delta_covers_the_runtime_engine(self):
        # The miner deduplicates on the runtime's engine, the one that
        # counts support on the serial runtime, so the run's traced
        # counter delta holds the support counters too.
        transactions = _transactions_with_planted_star(5, 5)
        runtime = SerialRuntime()
        with activate(Tracer(worker="main")) as tracer:
            FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(transactions)
        scanned = runtime.engine.stats.batch_patterns
        assert scanned > 0
        assert tracer.metrics.counter_value("batch_patterns", worker="main") == scanned

    def test_repeated_runs_leave_no_transaction_slots(self):
        # A runtime serves many mines; each run releases its transactions,
        # and a release frees the engine's slot, not just its snapshot.
        runtime = SerialRuntime()
        miner = FSGMiner(min_support=2, max_edges=2, runtime=runtime)
        for size in (4, 6, 5):
            miner.mine(_transactions_with_planted_star(size, 2))
        assert runtime.engine._transactions == {}
        assert runtime.engine.n_transactions == 4 + 2 + 6 + 2 + 5 + 2

    def test_repeated_sharded_runs_leave_no_shard_slots(self):
        runtime = ShardedEngine(shards=2, backend="serial")
        try:
            miner = FSGMiner(min_support=2, max_edges=2, runtime=runtime)
            for size in (4, 6, 5):
                miner.mine(_transactions_with_planted_star(size, 2))
            shard_engines = [worker.engine for worker in runtime._pool._handlers]
            assert sum(engine.n_transactions for engine in shard_engines) == 4 + 2 + 6 + 2 + 5 + 2
            assert all(engine._transactions == {} for engine in shard_engines)
        finally:
            runtime.close()


class TestParameters:
    @pytest.mark.parametrize("max_edges", [0, -1])
    def test_max_edges_below_one_rejected(self, max_edges):
        # Level 1 used to be recorded before the cap was checked, so a
        # cap below one edge reported one-edge patterns.
        with pytest.raises(ValueError, match="max_edges"):
            FSGMiner(min_support=0.1, max_edges=max_edges)


class TestMemoryBudget:
    def test_budget_exceeded_raises(self):
        transactions = [hub_and_spoke(6, edge_labels=[1, 2, 3, 4, 5, 6], prefix=f"h{i}") for i in range(4)]
        miner = FSGMiner(min_support=4, max_edges=3, memory_budget=5)
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            miner.mine(transactions)
        assert excinfo.value.budget == 5
        assert excinfo.value.candidates > 5

    def test_no_budget_allows_completion(self):
        transactions = _transactions_with_planted_star(3, 0)
        result = mine_frequent_subgraphs(transactions, min_support=3, max_edges=3)
        assert result.levels_completed == 3


class TestResultContainers:
    def test_by_size_grouping(self):
        transactions = _transactions_with_planted_star(4, 0)
        result = mine_frequent_subgraphs(transactions, min_support=4, max_edges=2)
        grouped = result.by_size()
        assert set(grouped) <= {1, 2}
        assert all(p.n_edges == size for size, patterns in grouped.items() for p in patterns)

    def test_largest_and_top(self):
        transactions = _transactions_with_planted_star(4, 0)
        result = mine_frequent_subgraphs(transactions, min_support=4, max_edges=2)
        largest = result.largest()
        assert largest is not None and largest.n_edges == max(p.n_edges for p in result.patterns)
        top = result.top(2)
        assert len(top) == 2
        assert top[0].support >= top[1].support

    def test_relative_support(self):
        pattern = FrequentSubgraph(pattern=chain(1), support=3, supporting_transactions=frozenset({0, 1, 2}))
        assert pattern.relative_support(6) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            pattern.relative_support(0)

    def test_shape_counts(self):
        transactions = _transactions_with_planted_star(4, 0)
        result = mine_frequent_subgraphs(transactions, min_support=4, max_edges=2)
        counts = result.shape_counts()
        assert sum(counts.values()) == len(result.patterns)
