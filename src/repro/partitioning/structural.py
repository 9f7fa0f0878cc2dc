"""Algorithm 1: frequent subgraphs in a single graph via repeated partitioning.

The paper's recipe for mining a single graph with a transaction-based
miner: partition the graph into ``k`` sub-graph transactions, mine them
with FSG at support ``s``, repeat ``m`` times with a different random
partitioning each time, and return the union of the discovered patterns.
If a subgraph is frequent across one partitioning it is frequent in the
whole graph; repeating reduces the *false drops* — patterns that fail to
look frequent because the partitioning split their occurrences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.graphs.engine import MatchEngine
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.fsg.miner import FSGMiner
from repro.mining.fsg.results import FSGResult, FrequentSubgraph
from repro.partitioning.split_graph import PartitionStrategy, split_graph
from repro.runtime import MiningRuntime, create_runtime


@dataclass
class StructuralMiningConfig:
    """Configuration of the repeated-partitioning structural miner.

    Mirrors the knobs of Algorithm 1: ``k`` partitions, ``m`` repetitions,
    support threshold ``s`` (absolute count, as in the paper's 120 / 240
    settings), plus the partitioning strategy and the FSG size/budget
    limits.  The runtime that counts support is an argument of
    :func:`mine_single_graph`, not a setting here.
    """

    k: int = 400
    repetitions: int = 2
    min_support: float | int = 5
    strategy: PartitionStrategy = PartitionStrategy.BREADTH_FIRST
    max_pattern_edges: int | None = 6
    memory_budget: int | None = None
    seed: int = 17


@dataclass
class StructuralMiningResult:
    """Union of the frequent patterns found across all repetitions."""

    patterns: list[FrequentSubgraph] = field(default_factory=list)
    per_repetition_counts: list[int] = field(default_factory=list)
    per_repetition_results: list[FSGResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)

    @property
    def average_patterns_per_repetition(self) -> float:
        """Average number of frequent patterns per repetition (as reported in Section 5.2.2)."""
        if not self.per_repetition_counts:
            return 0.0
        return sum(self.per_repetition_counts) / len(self.per_repetition_counts)


def _merge_patterns(
    target: list[FrequentSubgraph],
    new_patterns: list[FrequentSubgraph],
    engine: MatchEngine,
) -> None:
    """Union new patterns into *target*, deduplicating up to isomorphism.

    When the same pattern appears in several repetitions the maximum
    observed support is kept.  Invariants and isomorphism checks run
    through the shared *engine*, so patterns accumulated in earlier
    repetitions keep their memoized fingerprints and indexes.
    """
    index: dict[str, list[int]] = {}
    for position, existing in enumerate(target):
        index.setdefault(engine.graph_invariant(existing.pattern), []).append(position)
    for pattern in new_patterns:
        key = engine.graph_invariant(pattern.pattern)
        merged = False
        for position in index.get(key, []):
            existing = target[position]
            if engine.are_isomorphic(existing.pattern, pattern.pattern):
                if pattern.support > existing.support:
                    target[position] = pattern
                merged = True
                break
        if not merged:
            index.setdefault(key, []).append(len(target))
            target.append(pattern)


def mine_single_graph(
    graph: LabeledGraph,
    config: StructuralMiningConfig | None = None,
    runtime: MiningRuntime | None = None,
) -> StructuralMiningResult:
    """Run Algorithm 1 on *graph* and return the union of frequent patterns.

    Support counting goes through *runtime* when given (a shared
    :class:`~repro.runtime.shards.ShardedEngine`, say), which is left
    open; otherwise through ``create_runtime()``, built for this call
    and closed on exit.  The runtime's parent engine
    (:attr:`~repro.runtime.base.MiningRuntime.engine`) serves every
    repetition: the label table, per-pattern canonical codes, and
    cross-repetition pattern merging all share its caches.
    """
    settings = config or StructuralMiningConfig()
    if settings.repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    rng = random.Random(settings.seed)
    result = StructuralMiningResult()
    owned = runtime is None
    if owned:
        runtime = create_runtime()
    try:
        miner = FSGMiner(
            min_support=settings.min_support,
            max_edges=settings.max_pattern_edges,
            memory_budget=settings.memory_budget,
            runtime=runtime,
        )
        for _ in range(settings.repetitions):
            partitions = split_graph(graph, settings.k, strategy=settings.strategy, rng=rng)
            mined = miner.mine(partitions)
            result.per_repetition_results.append(mined)
            result.per_repetition_counts.append(len(mined.patterns))
            _merge_patterns(result.patterns, mined.patterns, runtime.engine)
    finally:
        if owned:
            runtime.close()
    return result
