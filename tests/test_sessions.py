"""Tests for stateful mining sessions (repro.runtime session protocol).

The load-bearing properties, in order:

* **equivalence** — mining through a stateful session (every candidate
  shipped as its full compact wire, anchors resident on the shards,
  piggybacked evictions) produces exactly the serial runtime's output,
  whatever the shard count or backend;
* **scatter/gather** — per-level dispatch sends to every shard before
  receiving from any, and a worker failing mid-level surfaces as a
  :class:`WorkerError` (remote traceback attached) on both backends while
  leaving the session and runtime closeable;
* **session mechanics** — anchor extension across levels, evictions
  routed only to the shards that hold the anchors, the close-time flush,
  a replayed level resent byte for byte, telemetry and stats counters.
"""

from __future__ import annotations

import itertools
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.isomorphism import legacy_has_embedding
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.fsg.candidates import single_edge_pattern
from repro.mining.fsg.miner import FSGMiner
from repro.obs import Tracer, activate
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
    popcount,
    tids_of,
)
from repro.runtime.wire import BLOB_OP, decode_message


# Under the CI chaos job REPRO_FAULTS injects worker deaths into every
# sharded runtime these tests build.  Equivalence and teardown tests are
# the chaos gate — recovery must keep them green.  Tests that assert
# exact protocol mechanics (send/recv ordering, per-level wire counters,
# recorded shard messages) are legitimately perturbed by respawn/replay
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


def shard_of(runtime: ShardedEngine, tid: int) -> int:
    """The shard whose ownership mask holds live tid *tid*."""
    (shard,) = [shard for shard, mask in enumerate(runtime.owned) if mask >> tid & 1]
    return shard


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


class _MessageLog:
    """Wraps a pool, recording every posted ``(worker, op, blob)``."""

    def __init__(self, inner):
        self._inner = inner
        self.posted: list[tuple[int, str, bytes]] = []

    def send(self, worker, envelope):
        assert envelope[0] == BLOB_OP
        self.posted.append((worker, envelope[1], envelope[2]))
        self._inner.send(worker, envelope)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def messages(self, op: str, worker: int) -> list[tuple]:
        return [
            decode_message(blob)
            for posted_to, posted_op, blob in self.posted
            if posted_to == worker and posted_op == op
        ]


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
            stats = runtime.stats()
        finally:
            runtime.close()
        assert mining_signature(mined) == mining_signature(baseline)
        # Every level really did cross the wire to the shards.
        assert stats["batch_patterns"] > 0
        assert mined.session_totals()["wire_bytes"] > 0

    @pytest.mark.slow
    def test_process_backend_session_matches_serial(self):
        corpus = random_corpus(47, size=20)
        baseline = FSGMiner(min_support=3, max_edges=3).mine(corpus)
        runtime = ShardedEngine(shards=2, backend="process")
        try:
            mined = FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
        finally:
            runtime.close()
        assert mining_signature(mined) == mining_signature(baseline)

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
            stats = runtime.stats()
        finally:
            runtime.close()
        assert mined.level_telemetry
        for counters in mined.level_telemetry.values():
            assert set(counters) == set(SESSION_TELEMETRY_KEYS)
            assert counters["shard_scan_max"] >= counters["shard_scan_min"]
        assert mined.level_telemetry[1]["wire_bytes"] > 0
        deeper = [counters for level, counters in mined.level_telemetry.items() if level > 1]
        assert sum(counters["wire_bytes"] for counters in deeper) > 0
        # The session counts only its levels' bytes; the runtime's total
        # also holds the add and release rounds, evictions and stats.
        assert 0 < mined.session_totals()["wire_bytes"] < stats["wire_bytes_shipped"]

    def test_serial_mining_records_zero_wire_telemetry(self):
        corpus = random_corpus(71, size=12)
        mined = FSGMiner(min_support=3, max_edges=2).mine(corpus)
        assert mined.level_telemetry
        assert mined.session_totals()["wire_bytes"] == 0

    @chaos_exempt
    def test_session_counters_in_stats(self):
        corpus = random_corpus(73, size=20)
        runtime = ShardedEngine(shards=2, backend="serial")
        log = _MessageLog(runtime._pool)
        runtime._pool = log
        try:
            FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
            stats = runtime.stats()
        finally:
            runtime.close()
        assert stats["wire_bytes_shipped"] > 0
        # batch_patterns is the one shipment count: the shard engines
        # scanned exactly the patterns their slevel and sresolve messages
        # carried.
        shipped = sum(
            len(message[2])
            for shard in range(2)
            for op in ("slevel", "sresolve")
            for message in log.messages(op, shard)
        )
        assert shipped > 0
        assert stats["batch_patterns"] == shipped
        assert "patterns_shipped_full" not in stats

    def test_serial_runtime_stats_report_zero_session_counters(self):
        runtime = SerialRuntime()
        FSGMiner(min_support=3, max_edges=2, runtime=runtime).mine(random_corpus(71, size=12))
        stats = runtime.stats()
        assert stats["wire_bytes_shipped"] == 0
        assert stats["worker_restarts"] == stats["level_replays"] == 0
        # The engine's own count of scanned patterns is the same key the
        # sharded runtime reports.
        assert stats["batch_patterns"] > 0


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

    def test_root_and_child_support_match_legacy(self):
        corpus, runtime, tids = self._runtime_with_corpus()
        session = runtime.open_session()
        assert isinstance(session, ShardedSession)
        try:
            root = LevelRequest(pattern=edge_pattern(), tid_bits=bits_of(tids), uid="root")
            (root_bits,) = session.support_level([root])
            assert root_bits == legacy_support_bits(edge_pattern(), corpus)
            assert runtime.stats()["anchor_extensions"] == 0

            child = LevelRequest(
                pattern=child_pattern(),
                tid_bits=root_bits,
                uid="child",
                parent_uid="root",
                extension=(1, 2, True),
            )
            (child_bits,) = session.support_level([child])
            assert child_bits == legacy_support_bits(child_pattern(), corpus)
            # The child was answered by extending the root's shard-resident
            # anchors, although both patterns crossed the wire in full.
            stats = runtime.stats()
            assert stats["anchor_extensions"] > 0
            # Each pattern went once to every shard owning a tid it scans.
            owners = [
                {shard_of(runtime, tid) for tid in tids_of(bits)}
                for bits in (bits_of(tids), root_bits)
            ]
            assert stats["batch_patterns"] == sum(map(len, owners))
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
        assert any(worker.engine.anchor_load for worker in workers)
        session.close()
        assert all(worker.engine.anchor_load == 0 for worker in workers)
        assert all(not worker.engine._anchors for worker in workers)
        runtime.close()

    def test_eviction_rides_only_to_shards_that_scanned_the_uid(self):
        _, runtime, tids = self._runtime_with_corpus()
        log = _MessageLog(runtime._pool)
        runtime._pool = log
        shard0 = [tid for tid in tids if shard_of(runtime, tid) == 0]
        session = runtime.open_session()
        try:
            session.support_level(
                [
                    LevelRequest(pattern=edge_pattern(), tid_bits=bits_of(shard0), uid="solo"),
                    LevelRequest(pattern=edge_pattern(), tid_bits=bits_of(tids), uid="both"),
                ]
            )
            session.evict(["solo", "both", "never-shipped"])
            probe = LevelRequest(pattern=edge_pattern(), tid_bits=bits_of(tids), uid="probe")
            session.support_level([probe])
            # ("slevel", evictions, ...): the second level carries each
            # shard's queued evictions, and "solo" only went to shard 0.
            assert [m[1] for m in log.messages("slevel", 0)] == [[], ["solo", "both"]]
            assert [m[1] for m in log.messages("slevel", 1)] == [[], ["both"]]
            session.close()
            assert log.messages("sevict", 0) == [("sevict", ["probe"])]
            assert log.messages("sevict", 1) == [("sevict", ["probe"])]
        finally:
            session.close()
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
        # No wire, no shards: the telemetry is all zeros, and the engine
        # counts the one scanned pattern.
        assert session.take_telemetry() == {key: 0 for key in SESSION_TELEMETRY_KEYS}
        assert runtime.engine.stats.batch_patterns == 1
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


# ----------------------------------------------------------------------
# Split abort bounds and the resolve round
# ----------------------------------------------------------------------
def _agree_where_frequent(sharded: list[int], serial: list[int], min_support: int) -> None:
    """Every bitset that reaches *min_support* on either side is exact."""
    assert len(sharded) == len(serial)
    for got, expected in zip(sharded, serial):
        if popcount(got) >= min_support or popcount(expected) >= min_support:
            assert got == expected


def _edge_corpus(edge_labels: list[str]) -> list[LabeledGraph]:
    """One-edge transactions ``a(A) -label-> b(B)``: equal weights, so the
    weighted placement deals them round-robin (even tids on shard 0)."""
    corpus = []
    for index, label in enumerate(edge_labels):
        graph = LabeledGraph(name=f"t{index}")
        graph.add_vertex("a", "A")
        graph.add_vertex("b", "B")
        graph.add_edge("a", "b", label)
        corpus.append(graph)
    return corpus


class TestSplitBounds:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shards=st.integers(min_value=1, max_value=3),
        min_support=st.integers(min_value=2, max_value=6),
    )
    def test_split_bounds_keep_frequent_bitsets_exact(self, seed, shards, min_support):
        # A level of every one-edge pattern over random scan sets, then
        # one child level extending the survivors' anchors: wherever
        # either runtime reaches the threshold, both return the same
        # bitset.  Whole mines agree too.
        corpus = random_corpus(seed, size=14)
        rng = random.Random(seed)
        serial = SerialRuntime()
        runtime = ShardedEngine(shards=shards, backend="serial")
        try:
            tids = serial.add_transactions(corpus)
            assert runtime.add_transactions(corpus) == tids
            roots = [
                LevelRequest(
                    pattern=single_edge_pattern(*triple),
                    tid_bits=bits_of(tid for tid in tids if rng.random() < 0.8),
                    uid=("root", index),
                )
                for index, triple in enumerate(
                    itertools.product("ABC", "xy", "ABC")
                )
            ]
            with serial.open_session() as expected_session, runtime.open_session() as session:
                expected = expected_session.support_level(roots, min_support)
                got = session.support_level(roots, min_support)
                _agree_where_frequent(got, expected, min_support)
                children = [
                    LevelRequest(
                        pattern=_child_of(root.pattern, label),
                        tid_bits=bits,
                        uid=("child", index, label),
                        parent_uid=root.uid,
                        extension=(1, 2, True),
                    )
                    for index, (root, bits) in enumerate(zip(roots, expected))
                    if popcount(bits) >= min_support
                    for label in "xy"
                ]
                _agree_where_frequent(
                    session.support_level(children, min_support),
                    expected_session.support_level(children, min_support),
                    min_support,
                )
            mined = FSGMiner(min_support=min_support, max_edges=3, runtime=runtime).mine(corpus)
        finally:
            runtime.close()
        reference = FSGMiner(min_support=min_support, max_edges=3).mine(corpus)
        assert mining_signature(mined) == mining_signature(reference)

    def test_fixed_corpus_runs_resolve_rounds(self):
        corpus = random_corpus(73, size=20)
        reference = FSGMiner(min_support=3, max_edges=3).mine(corpus)
        with activate(Tracer()) as tracer:
            runtime = ShardedEngine(shards=2, backend="serial")
            try:
                mined = FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
            finally:
                runtime.close()
        assert mining_signature(mined) == mining_signature(reference)
        assert tracer.metrics.counter_total("resolve_requests") > 0
        resolves = [record for record in tracer.spans if record.name == "shard.sresolve"]
        assert resolves and all(record.attrs["level"] >= 2 for record in resolves)

    @chaos_exempt
    def test_all_short_shards_send_no_resolve(self):
        # x-edges in tids 0 and 1 only: one hit per shard against a
        # share of 2 (threshold 4 over 5 + 5 tids), so both replies are
        # short and their caps (1 + 1) cannot reach 4.
        corpus = _edge_corpus(["x", "x"] + ["y"] * 8)
        runtime = ShardedEngine(shards=2, backend="serial")
        log = _MessageLog(runtime._pool)
        runtime._pool = log
        try:
            tids = runtime.add_transactions(corpus)
            assert runtime.owned == (bits_of(tids[0::2]), bits_of(tids[1::2]))
            request = LevelRequest(pattern=single_edge_pattern("A", "x", "B"), tid_bits=bits_of(tids))
            with runtime.open_session() as session:
                (bits,) = session.support_level([request], min_support=4)
            assert popcount(bits) < 4
            assert [bounds for shard in range(2) for (*_, bounds) in log.messages("slevel", shard)] == [[2], [2]]
            assert not any(op == "sresolve" for _, op, _ in log.posted)
        finally:
            runtime.close()

    @chaos_exempt
    def test_short_shard_that_could_still_reach_is_resolved(self):
        # x-edges in tids 0, 2, 4 (shard 0: 3 hits, exact against its
        # share of 2) and 1 (shard 1: aborted below 2, capped at 1).
        # 3 + 1 reaches the threshold 4, so shard 1 alone rescans with
        # bound 4 - 3 = 1 and the support comes back exact.
        corpus = _edge_corpus(["x", "x", "x", "y", "x"] + ["y"] * 5)
        with activate(Tracer()) as tracer:
            runtime = ShardedEngine(shards=2, backend="serial")
        log = _MessageLog(runtime._pool)
        runtime._pool = log
        try:
            tids = runtime.add_transactions(corpus)
            request = LevelRequest(
                pattern=single_edge_pattern("A", "x", "B"), tid_bits=bits_of(tids), uid="x"
            )
            with runtime.open_session() as session:
                (bits,) = session.support_level([request], min_support=4)
            assert bits == bits_of([0, 1, 2, 4])
            assert log.messages("sresolve", 0) == []
            ((*_, bounds),) = log.messages("sresolve", 1)
            assert bounds == [1]
            assert tracer.metrics.counter_total("resolve_requests") == 1
        finally:
            runtime.close()


def _child_of(pattern: LabeledGraph, edge_label: str) -> LabeledGraph:
    """*pattern* plus a new ``C`` vertex hung off its second vertex."""
    child = pattern.copy()
    child.add_vertex("p2", "C")
    child.add_edge("p1", "p2", edge_label)
    return child


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

    @pytest.mark.parametrize("backend", ["serial", pytest.param("process", marks=pytest.mark.slow)])
    def test_mid_level_failure_propagates_and_session_stays_closeable(self, backend):
        corpus = random_corpus(101, size=8)
        runtime = ShardedEngine(shards=2, backend=backend)
        try:
            tids = runtime.add_transactions(corpus)
            session = runtime.open_session()
            # Shard 0 receives a wire with an edge to a vertex that does
            # not exist; the worker fails to rebuild the pattern, and the
            # error must come back as a WorkerError carrying the
            # shard-side traceback.
            _poison_next_level(runtime, shard=0)
            shard0_tids = [tid for tid in tids if shard_of(runtime, tid) == 0]
            request = LevelRequest(
                pattern=edge_pattern(), tid_bits=bits_of(shard0_tids[:1]), uid="edge"
            )
            with pytest.raises(WorkerError) as failure:
                session.support_level([request])
            assert "IndexError" in str(failure.value)
            assert "Traceback" in str(failure.value)
            # No deadlocked recv: the pipes drained, so the session and
            # the runtime both shut down cleanly (and the worker is even
            # still serviceable).
            session.close()
            assert runtime.stats()["shards"] == 2
        finally:
            runtime.close()

    def test_failure_in_one_shard_does_not_strand_other_replies(self):
        corpus = random_corpus(103, size=8)
        runtime = ShardedEngine(shards=2, backend="serial")
        try:
            tids = runtime.add_transactions(corpus)
            session = runtime.open_session()
            shard0 = [tid for tid in tids if shard_of(runtime, tid) == 0]
            shard1 = [tid for tid in tids if shard_of(runtime, tid) == 1]
            _poison_next_level(runtime, shard=0)
            requests = [
                LevelRequest(pattern=edge_pattern(), tid_bits=bits_of(shard0[:1]), uid="bad"),
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


def _poison_next_level(runtime: ShardedEngine, shard: int) -> None:
    """Make the next planned level ship *shard* a malformed first wire.

    The wire's one edge points at vertex 5 of a one-vertex pattern, so
    the shard's ``CompactGraph.from_wire`` raises ``IndexError``.  Later
    levels plan normally.
    """
    planner = runtime.planner

    def poisoned(*args, **kwargs):
        del planner.plan_session_level
        batches = planner.plan_session_level(*args, **kwargs)
        payloads = batches[shard].payloads
        _wire, tid_buffer = payloads[0]
        payloads[0] = (("bad", (0,), [(0, 5, 0)], ("p0",)), tid_buffer)
        return batches

    planner.plan_session_level = poisoned


# ----------------------------------------------------------------------
# Recovery resends the original level message
# ----------------------------------------------------------------------
class TestReplay:
    def test_replayed_level_is_resent_byte_for_byte(self):
        corpus = random_corpus(107, size=20)
        baseline = FSGMiner(min_support=3, max_edges=3).mine(corpus)
        runtime = ShardedEngine(shards=2, backend="serial", faults="kill:shard=1,level=2")
        log = _MessageLog(runtime._pool)
        runtime._pool = log
        try:
            mined = FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
            stats = runtime.stats()
        finally:
            runtime.close()
        assert mining_signature(mined) == mining_signature(baseline)
        assert stats["level_replays"] == 1
        # Shard 1 died on its second slevel message; the replay after
        # the rebuild is that same blob, resent unchanged.
        blobs = [
            blob for worker, op, blob in log.posted if worker == 1 and op == "slevel"
        ]
        assert len(blobs) >= 3
        assert blobs[2] == blobs[1]


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
