"""The level-wise frequent connected-subgraph miner (FSG driver).

:class:`FSGMiner` mines all connected subgraphs occurring in at least
``min_support`` graph transactions, level by level on the edge count:

1. find frequent single edges (label triples);
2. repeatedly extend frequent k-edge patterns by one edge, deduplicate the
   candidates up to isomorphism, count support using TID lists, and keep
   the frequent ones;
3. stop when no new frequent pattern appears, the maximum pattern size is
   reached, or the candidate memory budget is exceeded.

The memory budget reproduces the paper's Section 6.1 observation that FSG
runs out of memory on large temporal graph transactions with many distinct
vertex labels; see :class:`~repro.mining.fsg.exceptions.MemoryBudgetExceeded`.
"""

from __future__ import annotations

import gc
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.graphs.engine import MatchEngine
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.fsg.candidates import (
    Candidate,
    frequent_single_edges,
    generate_candidates,
    single_edge_pattern,
)
from repro.mining.fsg.exceptions import MemoryBudgetExceeded
from repro.mining.fsg.results import FSGResult, FrequentSubgraph
from repro.obs.tracer import get_tracer
from repro.runtime.base import LevelRequest, MiningRuntime, MiningSession, SerialRuntime
from repro.runtime.bitsets import bits_of, is_contiguous, popcount, shift_bits, tids_of
from repro.runtime.collector import rare_full_collections

#: Distinguishes embedding-store uids across mining runs sharing one
#: runtime (e.g. the repeated-partitioning structural miner): a uid is
#: ``(run token, counter)``, so anchors from different runs can never
#: collide even if a run forgets to retire them.
_RUN_TOKENS = itertools.count()


def _resolve_min_support(min_support: float | int, n_transactions: int) -> int:
    """Turn a fractional or absolute support threshold into an absolute count."""
    if n_transactions <= 0:
        raise ValueError("cannot mine an empty transaction set")
    if isinstance(min_support, float) and 0.0 < min_support <= 1.0:
        return max(1, int(round(min_support * n_transactions)))
    absolute = int(min_support)
    if absolute < 1:
        raise ValueError("min_support must be at least 1 transaction (or a fraction in (0, 1])")
    return absolute


@dataclass
class FSGMiner:
    """Frequent connected-subgraph miner over a set of graph transactions.

    Parameters
    ----------
    min_support:
        Either an absolute transaction count (``int``) or a fraction of the
        transaction set (``float`` in ``(0, 1]``), as in the paper's 5%
        support experiments.
    max_edges:
        Largest pattern size (in edges) to mine; ``None`` means unbounded.
        A cap below 1 raises ``ValueError``.
    memory_budget:
        Maximum number of candidate patterns allowed at a single level;
        ``None`` disables the budget.  Exceeding it raises
        :class:`MemoryBudgetExceeded` unless ``abort_on_budget`` is false,
        in which case mining stops early and the result is flagged.
    abort_on_budget:
        Whether exceeding the memory budget raises (default) or merely
        truncates the result.
    min_pattern_edges:
        Smallest pattern size to report.  The paper reports single-edge
        patterns too, so the default is 1.
    engine:
        The :class:`~repro.graphs.engine.MatchEngine` used for candidate
        deduplication (canonical codes) and, under the default serial
        runtime, for support counting.  ``None`` (the default) creates a
        private engine per :meth:`mine` call; passing a shared engine lets
        repeated runs (e.g. the repeated-partitioning structural miner)
        reuse one label table and its indexes across mining rounds.
    runtime:
        The :class:`~repro.runtime.base.MiningRuntime` that owns the
        transactions.  Each :meth:`mine` call opens one of its mining
        sessions and counts every level's support through it:
        candidates carry their parents' intersected TID bitsets plus the
        one extension edge, and each ``(pattern, tid)`` query extends a
        stored parent embedding instead of searching from scratch, with
        full search as the correctness fallback.  ``None`` (the default)
        wraps *engine* in a :class:`~repro.runtime.base.SerialRuntime`;
        pass a :class:`~repro.runtime.shards.ShardedEngine` to spread
        support counting across worker shards.  The miner never closes a
        caller-supplied runtime.
    """

    min_support: float | int = 0.05
    max_edges: int | None = None
    memory_budget: int | None = None
    abort_on_budget: bool = True
    min_pattern_edges: int = 1
    engine: MatchEngine | None = None
    runtime: MiningRuntime | None = None
    #: Tracer receiving this run's spans and metrics; ``None`` (default)
    #: uses the process-global active tracer — the no-op singleton unless
    #: tracing was turned on (``--trace`` / ``REPRO_TRACE``), so the
    #: untraced path costs nothing.  See :mod:`repro.obs`.
    tracer: object | None = None

    def __post_init__(self) -> None:
        # A cap below one edge would not fail on its own: level 1 is
        # recorded before the cap is checked, so the run would report
        # one-edge patterns larger than the cap.
        if self.max_edges is not None and self.max_edges < 1:
            raise ValueError(f"max_edges must be None or at least 1, got {self.max_edges}")

    def mine(self, transactions: Sequence[LabeledGraph]) -> FSGResult:
        """Mine all frequent connected subgraphs from *transactions*.

        For the length of the run, registration included, the cyclic
        collector's gen-2 threshold is raised by
        :data:`~repro.runtime.collector.FULL_COLLECTION_FACTOR` (a
        process-wide setting; see
        :func:`~repro.runtime.collector.rare_full_collections`) and
        restored on exit.
        """
        with rare_full_collections():
            return self._mine(transactions)

    def _mine(self, transactions: Sequence[LabeledGraph]) -> FSGResult:
        n_transactions = len(transactions)
        support_threshold = _resolve_min_support(self.min_support, n_transactions)
        engine = self.engine if self.engine is not None else MatchEngine()
        runtime = self.runtime if self.runtime is not None else SerialRuntime(engine=engine)
        tracer = self.tracer if self.tracer is not None else get_tracer()
        # The parent engine's counter delta across this run covers
        # canonicalisation/dedup work always, and — under the serial
        # runtime, where runtime and parent engine coincide — the whole
        # match workload; shard engines ship their own deltas piggybacked
        # on replies (see ShardWorker).
        stats_before = engine.stats.as_dict() if tracer.enabled else None
        gc_before = gc.get_stats() if tracer.enabled else None
        mine_span = tracer.span(
            "fsg.mine", n_transactions=n_transactions, min_support=support_threshold
        )
        try:
            runtime_tids = runtime.add_transactions(transactions)
            try:
                if not is_contiguous(runtime_tids):
                    raise RuntimeError(
                        f"{type(runtime).__name__}.add_transactions returned "
                        f"non-consecutive tids {runtime_tids[:8]}...; "
                        "MiningRuntime.add_transactions must hand out one "
                        "call's tids consecutively"
                    )
                result = self._mine_levels(
                    transactions,
                    support_threshold,
                    engine,
                    runtime,
                    runtime_tids[0] if runtime_tids else 0,
                    n_transactions,
                    tracer,
                )
            finally:
                # A shared runtime keeps serving after this run; drop this run's
                # transaction references so it does not retain every graph ever
                # mined.
                runtime.release_transactions(runtime_tids)
            mine_span.set(levels=result.levels_completed, patterns=len(result.patterns))
        finally:
            if gc_before is not None:
                # This process's collections across the run: all of them,
                # and the full (gen-2) ones apart.
                gc_after = gc.get_stats()
                mine_span.set(
                    gc_collections=sum(
                        after["collections"] - before["collections"]
                        for before, after in zip(gc_before, gc_after)
                    ),
                    gc_full=gc_after[-1]["collections"] - gc_before[-1]["collections"],
                )
            mine_span.finish()
        if stats_before is not None:
            after = engine.stats.as_dict()
            tracer.metrics.absorb(
                {key: after[key] - stats_before.get(key, 0) for key in after},
                worker="main",
            )
        return result

    def _mine_levels(
        self,
        transactions: Sequence[LabeledGraph],
        support_threshold: int,
        engine: MatchEngine,
        runtime: MiningRuntime,
        tid_base: int,
        n_transactions: int,
        tracer,
    ) -> FSGResult:
        result = FSGResult(
            n_transactions=n_transactions,
            min_support=support_threshold,
        )
        # The run's tids are the runtime's tid_base, tid_base + 1, ...
        # (checked in mine), so local <-> global is one shift.
        def to_global(bits: int) -> int:
            return shift_bits(bits, tid_base)

        def to_local(bits: int) -> int:
            return shift_bits(bits, -tid_base)

        uids = zip(itertools.repeat(next(_RUN_TOKENS)), itertools.count())
        live_uids: list[object] = []
        # One mining session spans every level of this run: the runtime
        # may keep shard-resident anchors alive between levels and defer
        # their evictions — see :meth:`MiningRuntime.open_session`.
        session = runtime.open_session()

        # Levels straddle control flow a ``with`` block cannot (the prime
        # call below lives inside the try), so level spans use the
        # explicit finish() form.  A level's span is its only timing.
        level_span = tracer.span("fsg.level", level=1)
        triples_with_tids = frequent_single_edges(transactions, support_threshold)
        frequent_triples = list(triples_with_tids)
        level_patterns: list[tuple[Candidate, frozenset[int]]] = [
            (
                Candidate(
                    pattern=single_edge_pattern(*triple),
                    parent_bits=bits_of(tids),
                    uid=next(uids),
                ),
                tids,
            )
            for triple, tids in triples_with_tids.items()
        ]
        result.candidates_generated += len(level_patterns)
        self._record_level(result, level_patterns, level=1)
        result.levels_completed = 1

        try:
            if level_patterns:
                # Prime the embedding store: seed each frequent single
                # edge's anchors across its (already exact) support, so
                # level-2 candidates extend instead of searching.
                live_uids = [candidate.uid for candidate, _ in level_patterns]
                session.support_level(
                    self._level_requests(
                        [candidate for candidate, _ in level_patterns], to_global
                    )
                )
            self._level_done(result, tracer, session, level=1)
            level_span.finish(survivors=len(level_patterns))

            level = 1
            while level_patterns:
                if self.max_edges is not None and level >= self.max_edges:
                    break
                level_span = tracer.span("fsg.level", level=level + 1)
                parents = [
                    Candidate(
                        pattern=candidate.pattern,
                        invariant=candidate.invariant,
                        parent_bits=bits_of(tids),
                        uid=candidate.uid,
                    )
                    for candidate, tids in level_patterns
                ]
                candidates_span = tracer.span("fsg.candidates", level=level + 1)
                candidates = generate_candidates(parents, frequent_triples, engine=engine)
                candidates_span.finish(candidates=len(candidates))
                result.candidates_generated += len(candidates)
                if self.memory_budget is not None and len(candidates) > self.memory_budget:
                    if self.abort_on_budget:
                        level_span.finish(aborted=True)
                        raise MemoryBudgetExceeded(level + 1, len(candidates), self.memory_budget)
                    result.aborted = True
                    result.abort_reason = (
                        f"candidate set at level {level + 1} ({len(candidates)} patterns) "
                        f"exceeded the memory budget of {self.memory_budget}"
                    )
                    level_span.finish(aborted=True)
                    break
                support_span = tracer.span(
                    "fsg.support", level=level + 1, candidates=len(candidates)
                )
                for candidate in candidates:
                    candidate.uid = next(uids)
                level_patterns = self._prune_level_incremental(
                    candidates, support_threshold, session, to_global, to_local
                )
                # The parent level's anchors have served their one consumer
                # level, and failed candidates' will never have one —
                # retire both, keep the survivors'.
                surviving_uids = {candidate.uid for candidate, _ in level_patterns}
                retired = live_uids + [
                    candidate.uid
                    for candidate in candidates
                    if candidate.uid not in surviving_uids
                ]
                session.evict(retired)
                live_uids = sorted(surviving_uids)
                support_span.finish(survivors=len(level_patterns))
                level += 1
                self._level_done(result, tracer, session, level=level)
                level_span.finish(survivors=len(level_patterns))
                if level_patterns:
                    self._record_level(result, level_patterns, level=level)
                    result.levels_completed = level
        finally:
            if live_uids:
                session.evict(live_uids)
            session.close()
        return result

    def _level_done(
        self,
        result: FSGResult,
        tracer,
        session: MiningSession,
        level: int,
    ) -> None:
        """Per-level telemetry bookkeeping.

        Files the level's session telemetry on the result and mirrors the
        counters into the tracer's metrics registry labeled by level.
        """
        result.level_telemetry[level] = session.take_telemetry()
        tracer.metrics.absorb(result.level_telemetry[level], level=str(level))

    @staticmethod
    def _level_requests(
        candidates: Sequence[Candidate], to_global: Callable[[int], int]
    ) -> list[LevelRequest]:
        """Wrap *candidates* for the runtime's incremental level API."""
        return [
            LevelRequest(
                pattern=candidate.pattern,
                tid_bits=to_global(candidate.parent_bits),
                uid=candidate.uid,
                parent_uid=candidate.parent_uid,
                extension=candidate.extension,
            )
            for candidate in candidates
        ]

    def _prune_level_incremental(
        self,
        candidates: Sequence[Candidate],
        support_threshold: int,
        session: MiningSession,
        to_global: Callable[[int], int],
        to_local: Callable[[int], int],
    ) -> list[tuple[Candidate, frozenset[int]]]:
        """Evaluate a level through the mining session, all-bitset.

        A candidate's support is bounded by the *intersection* of its
        merged parents' TID sets, so candidates whose intersection is
        already below threshold never even reach the runtime; the rest
        ship their derivation (parent uid + extension edge) so shards
        extend stored parent embeddings, with ``min_support`` arming the
        per-pattern early abort.  Aborted candidates return partial
        bitsets of population below threshold and are dropped here, so
        survivors — the only thing the next level and the result see —
        are exact whatever the runtime did.
        """
        viable = [
            candidate
            for candidate in candidates
            if popcount(candidate.parent_bits) >= support_threshold
        ]
        supports = session.support_level(
            self._level_requests(viable, to_global), min_support=support_threshold
        )
        surviving: list[tuple[Candidate, frozenset[int]]] = []
        for candidate, global_bits in zip(viable, supports):
            if popcount(global_bits) >= support_threshold:
                surviving.append(
                    (candidate, frozenset(tids_of(to_local(global_bits))))
                )
        return surviving

    def _record_level(
        self,
        result: FSGResult,
        level_patterns: Sequence[tuple[Candidate, frozenset[int]]],
        level: int,
    ) -> None:
        if level < self.min_pattern_edges:
            return
        for candidate, tids in level_patterns:
            result.patterns.append(
                FrequentSubgraph(
                    pattern=candidate.pattern,
                    support=len(tids),
                    supporting_transactions=tids,
                )
            )


def mine_frequent_subgraphs(
    transactions: Sequence[LabeledGraph],
    min_support: float | int = 0.05,
    max_edges: int | None = None,
    memory_budget: int | None = None,
    min_pattern_edges: int = 1,
) -> FSGResult:
    """Convenience wrapper around :class:`FSGMiner`."""
    miner = FSGMiner(
        min_support=min_support,
        max_edges=max_edges,
        memory_budget=memory_budget,
        min_pattern_edges=min_pattern_edges,
    )
    return miner.mine(transactions)


def timed_mine(
    transactions: Sequence[LabeledGraph],
    min_support: float | int = 0.05,
    max_edges: int | None = None,
) -> tuple[FSGResult, float]:
    """Mine and return (result, elapsed seconds); used by the scaling benchmarks."""
    start = time.perf_counter()
    result = mine_frequent_subgraphs(transactions, min_support=min_support, max_edges=max_edges)
    elapsed = time.perf_counter() - start
    return result, elapsed
