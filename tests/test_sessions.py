"""Tests for stateful mining sessions (repro.runtime session protocol).

The load-bearing properties, in order:

* **equivalence** — mining through a stateful session (delta-shipped
  levels, shard-resident pattern stores, piggybacked evictions) produces
  exactly the serial runtime's output, whatever the shard count, backend
  or store capacity;
* **scatter/gather** — per-level dispatch sends to every shard before
  receiving from any, and a worker failing mid-level surfaces as a
  :class:`WorkerError` (remote traceback attached) on both backends while
  leaving the session and runtime closeable;
* **protocol mechanics** — delta vs full-wire payload selection,
  store-miss full-wire resends, capacity evictions reported on replies,
  telemetry and stats counters.
"""

from __future__ import annotations

import os
import random
from dataclasses import replace

import pytest

from repro.graphs.isomorphism import legacy_has_embedding
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.fsg.miner import FSGMiner
from repro.runtime import (
    SESSION_TELEMETRY_KEYS,
    DelegatingSession,
    LevelRequest,
    SerialBackend,
    SerialRuntime,
    ShardedEngine,
    ShardedSession,
    WorkerError,
    bits_of,
)


# Under the CI chaos job REPRO_FAULTS injects worker deaths into every
# sharded runtime these tests build.  Equivalence and teardown tests are
# the chaos gate — recovery must keep them green.  Tests that assert
# exact protocol mechanics (send/recv ordering, per-level wire counters,
# hand-forged store state) are legitimately perturbed by respawn/replay
# and sit out chaos runs.
CHAOS = bool(os.environ.get("REPRO_FAULTS", "").strip())
chaos_exempt = pytest.mark.skipif(
    CHAOS,
    reason="exact protocol-mechanics accounting is not stable under injected faults",
)


# ----------------------------------------------------------------------
# Corpus helpers (mirrors test_runtime)
# ----------------------------------------------------------------------
def random_transaction(rng: random.Random, name: str) -> LabeledGraph:
    n_vertices = rng.randint(4, 9)
    graph = LabeledGraph(name=name)
    for v in range(n_vertices):
        graph.add_vertex(f"v{v}", rng.choice(["A", "B", "C"]))
    n_edges = rng.randint(n_vertices - 1, n_vertices + 3)
    added = 0
    while added < n_edges:
        a, b = rng.sample(range(n_vertices), 2)
        if graph.has_edge(f"v{a}", f"v{b}"):
            continue
        graph.add_edge(f"v{a}", f"v{b}", rng.choice(["x", "y"]))
        added += 1
    return graph


def random_corpus(seed: int, size: int = 30) -> list[LabeledGraph]:
    rng = random.Random(seed)
    return [random_transaction(rng, f"t{i}") for i in range(size)]


def mining_signature(result):
    return sorted(
        (
            entry.pattern.n_edges,
            tuple(sorted(entry.supporting_transactions)),
        )
        for entry in result.patterns
    )


def legacy_support_bits(pattern: LabeledGraph, corpus) -> int:
    """The serial oracle: tids (corpus positions) a legacy scan supports."""
    return bits_of(
        tid
        for tid, transaction in enumerate(corpus)
        if legacy_has_embedding(pattern, transaction)
    )


def edge_pattern() -> LabeledGraph:
    pattern = LabeledGraph(name="edge-pattern")
    pattern.add_vertex("p0", "A")
    pattern.add_vertex("p1", "B")
    pattern.add_edge("p0", "p1", "x")
    return pattern


def child_pattern(edge_label: str = "y", new_label: str = "C") -> LabeledGraph:
    pattern = edge_pattern()
    pattern.add_vertex("p2", new_label)
    pattern.add_edge("p1", "p2", edge_label)
    return pattern


class _FullWireSession(ShardedSession):
    """A session whose requests lose their extension labels, so the
    planner ships every candidate in full wire form — the path roots and
    store-miss resends take."""

    def support_level(self, requests, min_support=None):
        return super().support_level(
            [replace(request, extension_labels=None) for request in requests],
            min_support,
        )


class _FullWireEngine(ShardedEngine):
    def open_session(self):
        return _FullWireSession(self)


# ----------------------------------------------------------------------
# Equivalence under the session protocol
# ----------------------------------------------------------------------
class TestSessionEquivalence:
    @pytest.mark.parametrize("shards", [2, 3])
    def test_delta_sessions_match_serial(self, shards):
        corpus = random_corpus(41)
        baseline = FSGMiner(min_support=3, max_edges=3).mine(corpus)
        runtime = ShardedEngine(shards=shards, backend="serial")
        try:
            mined = FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
        finally:
            runtime.close()
        assert mining_signature(mined) == mining_signature(baseline)
        # Derived candidates really did travel as deltas: the output
        # above held with the delta protocol in the loop.
        totals = mined.session_totals()
        assert totals["patterns_delta"] > 0
        assert totals["wire_bytes"] > 0

    @chaos_exempt
    def test_full_protocol_matches_but_ships_more(self):
        corpus = random_corpus(43, size=20)
        results = {}
        totals = {}
        for protocol, engine in (("delta", ShardedEngine), ("full", _FullWireEngine)):
            runtime = engine(shards=2, backend="serial")
            try:
                mined = FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
            finally:
                runtime.close()
            results[protocol] = mining_signature(mined)
            totals[protocol] = mined.session_totals()
        assert results["delta"] == results["full"]
        assert totals["full"]["patterns_delta"] == 0
        assert totals["delta"]["patterns_delta"] > 0
        assert 0 < totals["delta"]["wire_bytes"] < totals["full"]["wire_bytes"]

    @pytest.mark.slow
    def test_process_backend_delta_matches_serial(self):
        corpus = random_corpus(47, size=20)
        baseline = FSGMiner(min_support=3, max_edges=3).mine(corpus)
        runtime = ShardedEngine(shards=2, backend="process")
        try:
            mined = FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
        finally:
            runtime.close()
        assert mining_signature(mined) == mining_signature(baseline)

    def test_tiny_store_capacity_evicts_but_never_diverges(self):
        corpus = random_corpus(53, size=20)
        baseline = FSGMiner(min_support=3, max_edges=3).mine(corpus)
        runtime = ShardedEngine(shards=2, backend="serial", session_store_capacity=2)
        try:
            mined = FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
            stats = runtime.stats()
        finally:
            runtime.close()
        assert mining_signature(mined) == mining_signature(baseline)
        assert stats["session_store_evictions"] > 0

    def test_shared_runtime_sessions_across_runs(self):
        # The structural miner's pattern: one sharded runtime serving
        # several mining rounds, each with its own session.
        corpus_a = random_corpus(59, size=15)
        corpus_b = random_corpus(61, size=15)
        runtime = ShardedEngine(shards=2, backend="serial")
        try:
            miner = FSGMiner(min_support=3, max_edges=2, runtime=runtime)
            first = miner.mine(corpus_a)
            second = miner.mine(corpus_b)
        finally:
            runtime.close()
        assert mining_signature(first) == mining_signature(
            FSGMiner(min_support=3, max_edges=2).mine(corpus_a)
        )
        assert mining_signature(second) == mining_signature(
            FSGMiner(min_support=3, max_edges=2).mine(corpus_b)
        )


# ----------------------------------------------------------------------
# Telemetry and stats counters
# ----------------------------------------------------------------------
class TestTelemetry:
    @chaos_exempt
    def test_level_telemetry_recorded_per_level(self):
        corpus = random_corpus(67, size=20)
        runtime = ShardedEngine(shards=2, backend="serial")
        try:
            mined = FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
        finally:
            runtime.close()
        assert mined.level_telemetry
        for counters in mined.level_telemetry.values():
            assert set(counters) == set(SESSION_TELEMETRY_KEYS)
        # Level 1 (roots) always ships in full; deeper levels as deltas.
        assert mined.level_telemetry[1]["patterns_full"] > 0
        assert mined.level_telemetry[1]["patterns_delta"] == 0
        deeper = [counters for level, counters in mined.level_telemetry.items() if level > 1]
        assert sum(counters["patterns_delta"] for counters in deeper) > 0
        totals = mined.session_totals()
        assert totals["wire_bytes"] > 0
        assert totals["store_hits"] == totals["patterns_delta"]

    def test_serial_mining_records_zero_wire_telemetry(self):
        corpus = random_corpus(71, size=12)
        mined = FSGMiner(min_support=3, max_edges=2).mine(corpus)
        assert mined.level_telemetry
        assert mined.session_totals()["wire_bytes"] == 0

    @chaos_exempt
    def test_session_counters_in_stats(self):
        corpus = random_corpus(73, size=20)
        runtime = ShardedEngine(shards=2, backend="serial")
        try:
            FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
            stats = runtime.stats()
        finally:
            runtime.close()
        assert stats["wire_bytes_shipped"] > 0
        assert stats["patterns_shipped_full"] > 0
        assert stats["patterns_shipped_delta"] > 0
        assert "session_store_evictions" in stats

    def test_serial_runtime_stats_report_zero_session_counters(self):
        runtime = SerialRuntime()
        stats = runtime.stats()
        assert stats["wire_bytes_shipped"] == 0
        assert stats["patterns_shipped_full"] == 0
        assert stats["patterns_shipped_delta"] == 0
        assert stats["session_store_evictions"] == 0


# ----------------------------------------------------------------------
# Protocol mechanics, driven request by request
# ----------------------------------------------------------------------
@chaos_exempt
class TestSessionProtocol:
    def _runtime_with_corpus(self, **kwargs):
        # A fresh runtime hands out tids 0..n-1: global tid == corpus index.
        corpus = random_corpus(79, size=10)
        runtime = ShardedEngine(shards=2, backend="serial", **kwargs)
        tids = runtime.add_transactions(corpus)
        return corpus, runtime, tids

    def test_delta_shipping_and_store_miss_resend(self):
        corpus, runtime, tids = self._runtime_with_corpus()
        session = runtime.open_session()
        assert isinstance(session, ShardedSession)
        try:
            root = LevelRequest(pattern=edge_pattern(), tid_bits=bits_of(tids), uid="root")
            (root_bits,) = session.support_level([root])
            assert root_bits == legacy_support_bits(edge_pattern(), corpus)
            assert runtime.stats()["patterns_shipped_delta"] == 0

            child = LevelRequest(
                pattern=child_pattern(),
                tid_bits=root_bits,
                uid="child",
                parent_uid="root",
                extension=(1, 2, True),
                extension_labels=("y", "C"),
            )
            (child_bits,) = session.support_level([child])
            assert child_bits == legacy_support_bits(child_pattern(), corpus)
            stats = runtime.stats()
            assert stats["patterns_shipped_delta"] > 0
            full_so_far = stats["patterns_shipped_full"]

            # Simulate a shard-reported eviction of the parent: the next
            # derived request must fall back to a full wire and still
            # count the exact same support.
            for shard in range(runtime.n_shards):
                session._forget(shard, "root")
            child2 = LevelRequest(
                pattern=child_pattern(),
                tid_bits=root_bits,
                uid="child2",
                parent_uid="root",
                extension=(1, 2, True),
                extension_labels=("y", "C"),
            )
            (child2_bits,) = session.support_level([child2])
            assert child2_bits == child_bits
            stats = runtime.stats()
            assert stats["patterns_shipped_full"] > full_so_far
        finally:
            session.close()
            runtime.close()

    def test_close_flushes_shard_stores(self):
        corpus, runtime, tids = self._runtime_with_corpus()
        session = runtime.open_session()
        root = LevelRequest(pattern=edge_pattern(), tid_bits=bits_of(tids), uid="root")
        session.support_level([root])
        # Serial backend: the handlers are inspectable in-process.
        workers = runtime._pool._handlers
        assert any(worker.engine.session_pattern_count for worker in workers)
        session.close()
        assert all(worker.engine.session_pattern_count == 0 for worker in workers)
        assert all(not worker._session_hits for worker in workers)
        runtime.close()

    def test_closed_session_rejects_queries(self):
        _, runtime, tids = self._runtime_with_corpus()
        session = runtime.open_session()
        session.close()
        session.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            session.support_level([])
        runtime.close()

    def test_serial_runtime_session_is_stateless_delegate(self):
        corpus = random_corpus(83, size=8)
        runtime = SerialRuntime()
        tids = runtime.add_transactions(corpus)
        session = runtime.open_session()
        assert isinstance(session, DelegatingSession)
        request = LevelRequest(pattern=edge_pattern(), tid_bits=bits_of(tids))
        assert session.support_level([request]) == [
            legacy_support_bits(edge_pattern(), corpus)
        ]
        telemetry = session.take_telemetry()
        assert telemetry["wire_bytes"] == 0
        assert telemetry["patterns_full"] == 1
        assert session.take_telemetry()["patterns_full"] == 0  # reset on take
        session.close()


# ----------------------------------------------------------------------
# Scatter/gather dispatch ordering
# ----------------------------------------------------------------------
class _RecordingPool:
    """Wraps a pool, recording ("send"/"recv", worker) event order."""

    def __init__(self, inner):
        self._inner = inner
        self.events: list[tuple[str, int]] = []

    def send(self, worker, message):
        self.events.append(("send", worker))
        self._inner.send(worker, message)

    def recv(self, worker):
        self.events.append(("recv", worker))
        return self._inner.recv(worker)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@chaos_exempt
class TestScatterGather:
    def _spanning_requests(self, runtime, tids):
        # One request per shard plus one spanning both, so a sequential
        # per-shard call() loop would interleave sends and recvs.
        return [
            LevelRequest(pattern=edge_pattern(), tid_bits=bits_of(tids), uid="all"),
            LevelRequest(pattern=edge_pattern(), tid_bits=bits_of(tids[:2]), uid="few"),
        ]

    # "session" drives one level; "close" drives the close-time flush of
    # that level's shard stores.
    @pytest.mark.parametrize("drive", ["session", "close"])
    def test_all_sends_precede_any_recv(self, drive):
        corpus = random_corpus(89, size=8)
        runtime = ShardedEngine(shards=2, backend="serial")
        session = None
        try:
            tids = runtime.add_transactions(corpus)
            recorder = _RecordingPool(runtime._pool)
            runtime._pool = recorder
            session = runtime.open_session()
            recorder.events.clear()
            session.support_level(self._spanning_requests(runtime, tids))
            if drive == "close":
                recorder.events.clear()
                session.close()
            events = list(recorder.events)
            sends = [i for i, (kind, _) in enumerate(events) if kind == "send"]
            recvs = [i for i, (kind, _) in enumerate(events) if kind == "recv"]
            # Both shards were dispatched to, and every send of the level
            # completed before any reply was received — a sequential
            # per-shard call() loop would interleave them.
            assert {worker for kind, worker in events if kind == "send"} == {0, 1}
            assert sends and recvs
            assert max(sends) < min(recvs), f"a recv overtook the scatter phase: {events}"
        finally:
            if session is not None:
                session.close()
            runtime.close()

    def test_add_transactions_is_scatter_gather_too(self):
        corpus = random_corpus(97, size=8)
        runtime = ShardedEngine(shards=2, backend="serial")
        try:
            recorder = _RecordingPool(runtime._pool)
            runtime._pool = recorder
            runtime.add_transactions(corpus)
            kinds = [kind for kind, _ in recorder.events]
            assert {worker for _, worker in recorder.events} == {0, 1}
            assert kinds == sorted(kinds, key=lambda kind: kind != "send"), (
                "expected every send before the first recv, got " + repr(kinds)
            )
        finally:
            runtime.close()


# ----------------------------------------------------------------------
# Worker failure paths
# ----------------------------------------------------------------------
class _Boom:
    def __call__(self, message):
        raise RuntimeError("handler exploded mid-level")


class TestWorkerFailures:
    def test_serial_backend_wraps_handler_errors(self):
        pool = SerialBackend(1, _Boom)
        pool.send(0, ("anything",))
        with pytest.raises(WorkerError, match="handler exploded mid-level"):
            pool.recv(0)
        pool.close()

    @chaos_exempt  # recovery's full-wire replay rescues the forged delta
    @pytest.mark.parametrize("backend", ["serial", pytest.param("process", marks=pytest.mark.slow)])
    def test_mid_level_failure_propagates_and_session_stays_closeable(self, backend):
        corpus = random_corpus(101, size=8)
        runtime = ShardedEngine(shards=2, backend=backend)
        try:
            tids = runtime.add_transactions(corpus)
            session = runtime.open_session()
            # Forge residency for a parent the shard never stored: the
            # planner ships a delta, the worker fails to reconstruct,
            # and the error must come back as a WorkerError carrying the
            # shard-side traceback.
            shard0_tids = [tid for tid in tids if runtime.locate(tid)[0] == 0]
            for shard in range(runtime.n_shards):
                session._resident[shard].add("ghost")
                session._hits[(shard, "ghost")] = list(range(len(corpus)))
            poisoned = LevelRequest(
                pattern=child_pattern(),
                tid_bits=bits_of(shard0_tids[:1]),
                uid="child",
                parent_uid="ghost",
                extension=(1, 2, True),
                extension_labels=("y", "C"),
            )
            with pytest.raises(WorkerError) as failure:
                session.support_level([poisoned])
            assert "no stored session pattern" in str(failure.value)
            assert "Traceback" in str(failure.value)
            # No deadlocked recv: the pipes drained, so the session and
            # the runtime both shut down cleanly (and the worker is even
            # still serviceable).
            session.close()
            assert runtime.stats()["shards"] == 2
        finally:
            runtime.close()

    @chaos_exempt  # recovery's full-wire replay rescues the forged delta
    def test_failure_in_one_shard_does_not_strand_other_replies(self):
        corpus = random_corpus(103, size=8)
        runtime = ShardedEngine(shards=2, backend="serial")
        try:
            tids = runtime.add_transactions(corpus)
            session = runtime.open_session()
            session._resident[0].add("ghost")
            session._hits[(0, "ghost")] = list(range(len(corpus)))
            shard0 = [tid for tid in tids if runtime.locate(tid)[0] == 0]
            shard1 = [tid for tid in tids if runtime.locate(tid)[0] == 1]
            requests = [
                LevelRequest(
                    pattern=child_pattern(),
                    tid_bits=bits_of(shard0[:1]),
                    uid="bad",
                    parent_uid="ghost",
                    extension=(1, 2, True),
                    extension_labels=("y", "C"),
                ),
                LevelRequest(pattern=edge_pattern(), tid_bits=bits_of(shard1), uid="good"),
            ]
            with pytest.raises(WorkerError):
                session.support_level(requests)
            # Shard 1's reply was drained, not stranded: a follow-up
            # query gets a correct answer instead of last level's.
            probe = LevelRequest(pattern=edge_pattern(), tid_bits=bits_of(tids), uid="probe")
            (bits,) = session.support_level([probe])
            assert bits == legacy_support_bits(edge_pattern(), corpus)
            session.close()
        finally:
            runtime.close()


# ----------------------------------------------------------------------
# Teardown safety
# ----------------------------------------------------------------------
class TestTeardownSafety:
    def test_del_on_unconstructed_instance_never_raises(self):
        # Regression: __del__ used to assume _closed/_pool existed, which
        # blew up (noisily, at interpreter teardown) when __init__ failed
        # before creating the pool.
        engine = ShardedEngine.__new__(ShardedEngine)
        engine.close()  # no AttributeError
        engine.__del__()  # no exception either

    def test_del_swallows_close_errors(self):
        runtime = ShardedEngine(shards=2, backend="serial")

        class _ExplodingPool:
            def close(self):
                raise OSError("pipes already gone")

        runtime._pool = _ExplodingPool()
        runtime.__del__()  # swallowed
        assert runtime._closed

    def test_close_is_idempotent_after_failure(self):
        runtime = ShardedEngine(shards=2, backend="serial")
        runtime.close()
        runtime.close()
        runtime.__del__()
