"""Tests for the parallel mining runtime (repro.runtime).

The load-bearing property is *equivalence*: whatever the shard count or
backend, mining output — frequent pattern sets and per-pattern support
counts — must be identical to the serial runtime's.  The suite checks it
property-style on randomized corpora, plus the wire-format/pickling
round-trips, the shard wire's byte accounting, and the knob plumbing the
runtime rides on.
"""

from __future__ import annotations

import functools
import math
import operator
import pickle
import random

import pytest

from repro.core.config import ExperimentConfig
from repro.graphs.compact import CompactGraph, LabelTable
from repro.graphs.engine import MatchEngine
from repro.graphs.isomorphism import legacy_has_embedding
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.fsg.miner import FSGMiner
from repro.runtime import (
    BatchSupportPlanner,
    SerialRuntime,
    ShardedEngine,
    WorkerError,
    bits_of,
    create_runtime,
    popcount,
    resolve_backend,
    resolve_placement,
    resolve_workers,
    tids_from_buffer,
    tids_of,
)
from repro.runtime.planner import PlacementPolicy
from repro.runtime.pool import ProcessBackend, SerialBackend
from repro.runtime.wire import BLOB_OP, decode_message

from conftest import embedding_task, level_request


# ----------------------------------------------------------------------
# Corpus helpers
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


def edge_pattern() -> LabeledGraph:
    pattern = LabeledGraph(name="edge-pattern")
    pattern.add_vertex("p0", "A")
    pattern.add_vertex("p1", "B")
    pattern.add_edge("p0", "p1", "x")
    return pattern


def shard_of(runtime: ShardedEngine, tid: int) -> int:
    """The shard whose ownership mask holds live tid *tid*."""
    (shard,) = [shard for shard, mask in enumerate(runtime.owned) if mask >> tid & 1]
    return shard


def mining_signature(result):
    """Order-free signature of an FSG result: canonical code + support set."""
    engine = MatchEngine()
    signature = []
    for pattern in result.patterns:
        try:
            code = engine.canonical_code(pattern.pattern)
        except Exception:
            code = f"invariant:{engine.graph_invariant(pattern.pattern)}"
        signature.append((code, pattern.support, tuple(sorted(pattern.supporting_transactions))))
    return sorted(signature)


# ----------------------------------------------------------------------
# Serial vs sharded equivalence (the core property)
# ----------------------------------------------------------------------
class TestEquivalence:
    # One seed stays in the fast tier-1 run; the rest are `slow` and run
    # in the CI scenario-matrix job (pytest -m "").
    @pytest.mark.parametrize(
        "seed",
        [3, pytest.param(11, marks=pytest.mark.slow), pytest.param(29, marks=pytest.mark.slow)],
    )
    @pytest.mark.parametrize("shards", [2, 3])
    def test_sharded_serial_backend_matches_serial(self, seed, shards):
        corpus = random_corpus(seed)
        baseline = FSGMiner(min_support=3, max_edges=3).mine(corpus)
        runtime = ShardedEngine(shards=shards, backend="serial")
        try:
            sharded = FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
        finally:
            runtime.close()
        assert mining_signature(sharded) == mining_signature(baseline)

    @pytest.mark.slow
    def test_process_backend_matches_serial(self):
        corpus = random_corpus(5, size=20)
        baseline = FSGMiner(min_support=3, max_edges=3).mine(corpus)
        runtime = ShardedEngine(shards=2, backend="process")
        try:
            sharded = FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
        finally:
            runtime.close()
        assert mining_signature(sharded) == mining_signature(baseline)

    def test_shared_sharded_runtime_across_runs(self):
        # A runtime that serves several mining rounds (the structural
        # miner's pattern) must release each round's transactions and keep
        # answering correctly with fresh global tids.
        corpus_a = random_corpus(7, size=15)
        corpus_b = random_corpus(8, size=15)
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

    def test_batch_support_matches_pattern_major(self):
        # One level batch of two tasks (one restricted) answers exactly
        # what the same tasks answer one call at a time.
        corpus = random_corpus(13, size=12)
        pattern = LabeledGraph(name="p")
        pattern.add_vertex("a", "A")
        pattern.add_vertex("b", "B")
        pattern.add_edge("a", "b", "x")
        engine = MatchEngine()
        tids = engine.add_transactions(corpus)
        tasks = [
            embedding_task(engine, pattern, tids),
            embedding_task(engine, pattern, tids[:5]),
        ]
        batched = engine.support_with_embeddings(tasks)
        single = MatchEngine(engine.table)
        single.add_transactions(corpus)
        one_by_one = [single.support_with_embeddings([task])[0] for task in tasks]
        assert batched == one_by_one
        assert batched[1] == [tid for tid in batched[0] if tid in tids[:5]]


# ----------------------------------------------------------------------
# Wire format and pickling round-trips
# ----------------------------------------------------------------------
class TestWireAndPickle:
    def test_label_table_pickle_round_trip(self):
        table = LabelTable()
        for label in ["A", "B", ("tuple", 1), 42]:
            table.intern(label)
        clone = pickle.loads(pickle.dumps(table))
        assert len(clone) == len(table)
        for label in ["A", "B", ("tuple", 1), 42]:
            assert clone.lookup(label) == table.lookup(label)

    def test_empty_label_table_pickle(self):
        clone = pickle.loads(pickle.dumps(LabelTable()))
        assert len(clone) == 0
        assert clone.intern("fresh") == 0

    @staticmethod
    def _structure(graph: LabeledGraph):
        vertices = {vertex: graph.vertex_label(vertex) for vertex in graph.vertices()}
        edges = {(edge.source, edge.target, edge.label) for edge in graph.edges()}
        return vertices, edges

    def test_compact_graph_pickle_round_trip(self):
        graph = random_transaction(random.Random(1), "g")
        table = LabelTable()
        compact = CompactGraph.from_labeled(graph, table)
        clone = pickle.loads(pickle.dumps(compact))
        assert self._structure(clone.to_labeled()) == self._structure(graph)
        assert clone.vertex_labels == compact.vertex_labels
        assert clone.out_adj == compact.out_adj
        assert clone.in_adj == compact.in_adj

    def test_wire_round_trip_preserves_graph(self):
        graph = random_transaction(random.Random(2), "g")
        sender = LabelTable()
        compact = CompactGraph.from_labeled(graph, sender)
        replica = LabelTable()
        replica.extend(sender.snapshot(0))
        rebuilt = CompactGraph.from_wire(compact.to_wire(), replica)
        assert self._structure(rebuilt.to_labeled()) == self._structure(graph)

    @staticmethod
    def _record_mine(corpus, backend):
        """Mine *corpus* on *backend*, recording what ``_post`` hands the pool."""
        runtime = ShardedEngine(shards=2, backend=backend)
        try:
            logical: list[tuple] = []
            post = runtime._post

            def recording_post(shard, message):
                logical.append(message)
                post(shard, message)

            runtime._post = recording_post
            pool = _RecordingSendPool(runtime._pool)
            runtime._pool = pool
            before = runtime.wire_bytes_shipped
            FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
            return logical, pool.sent, runtime.wire_bytes_shipped - before
        finally:
            runtime.close()

    def test_bytes_counted_are_bytes_shipped(self):
        # Every message _post hands the pool is one pickled envelope, and
        # wire_bytes_shipped is the summed length of those blobs — the
        # figure session telemetry reports as ``wire_bytes`` — on either
        # backend, which count the same bytes.
        corpus = random_corpus(37, size=12)
        shipped = {}
        for backend in ("serial", "process"):
            logical, sent, shipped[backend] = self._record_mine(corpus, backend)
            assert logical and len(sent) == len(logical)
            for envelope, message in zip(sent, logical):
                assert len(envelope) == 3 and envelope[:2] == (BLOB_OP, message[0])
                assert type(envelope[2]) is bytes
                assert decode_message(envelope[2]) == message
            assert shipped[backend] == sum(len(envelope[2]) for envelope in sent)
        assert shipped["serial"] == shipped["process"]

    def test_snapshot_extend_delta_protocol(self):
        parent = LabelTable()
        replica = LabelTable()
        parent.intern("A")
        replica.extend(parent.snapshot(0))
        parent.intern("B")
        parent.intern("C")
        replica.extend(parent.snapshot(1))
        assert replica.lookup("C") == parent.lookup("C")
        with pytest.raises(ValueError):
            replica.extend(["A"])


class _RecordingSendPool:
    """Wraps a pool, recording every message sent through it."""

    def __init__(self, inner):
        self._inner = inner
        self.sent: list[tuple] = []

    def send(self, worker, message):
        self.sent.append(message)
        self._inner.send(worker, message)

    def __getattr__(self, name):
        return getattr(self._inner, name)


# ----------------------------------------------------------------------
# Worker pools
# ----------------------------------------------------------------------
class _EchoHandler:
    def __call__(self, message):
        if message[0] == "boom":
            raise RuntimeError("handler exploded")
        return ("echo", *message)


class TestWorkerPools:
    def test_serial_backend_round_trip(self):
        pool = SerialBackend(2, _EchoHandler)
        assert pool.call(0, ("ping",)) == ("echo", "ping")
        pool.close()

    def test_process_backend_round_trip_and_error(self):
        pool = ProcessBackend(2, _EchoHandler)
        try:
            assert pool.call(1, ("ping",)) == ("echo", "ping")
            with pytest.raises(WorkerError, match="handler exploded"):
                pool.call(0, ("boom",))
            # The worker survives a handler error.
            assert pool.call(0, ("still-alive",)) == ("echo", "still-alive")
        finally:
            pool.close()

    def test_broadcast_collects_all(self):
        pool = SerialBackend(3, _EchoHandler)
        assert pool.broadcast(("hi",)) == [("echo", "hi")] * 3
        pool.close()


# ----------------------------------------------------------------------
# Runtime facade: stats, release, planner, knobs
# ----------------------------------------------------------------------
class TestShardedEngine:
    def test_stats_aggregate_across_shards(self):
        corpus = random_corpus(17, size=10)
        runtime = ShardedEngine(shards=2, backend="serial")
        try:
            tids = runtime.add_transactions(corpus)
            pattern = LabeledGraph(name="p")
            pattern.add_vertex("a", "A")
            pattern.add_vertex("b", "B")
            pattern.add_edge("a", "b", "x")
            with runtime.open_session() as session:
                session.support_level([level_request(runtime, pattern, bits_of(tids))])
            seeded = runtime.stats()
            # A two-edge pattern with no parent is searched in full on
            # every tid.
            path = pattern.copy(name="path")
            path.add_vertex("c", "A")
            path.add_edge("b", "c", "y")
            with runtime.open_session() as session:
                session.support_level([level_request(runtime, path, bits_of(tids))])
            searched = runtime.stats()
        finally:
            runtime.close()
        assert seeded["shards"] == 2
        # Registration builds no index, and seeding reads the snapshots:
        # the only indexes are the pattern's, one on each shard.
        assert seeded["anchor_seeds"] == len(corpus)
        assert seeded["anchor_fallbacks"] == 0
        assert seeded["indexes_built"] == 2
        # A shard indexes a transaction when it first searches it, plus
        # the new pattern once per shard.
        assert searched["anchor_fallbacks"] == len(corpus)
        assert searched["indexes_built"] == 2 + 2 + len(corpus)

    def test_release_then_query_raises(self):
        corpus = random_corpus(19, size=4)
        runtime = ShardedEngine(shards=2, backend="serial")
        try:
            tids = runtime.add_transactions(corpus)
            runtime.release_transactions(tids[:2])
            pattern = corpus[0].copy()
            request = level_request(runtime, pattern, bits_of(tids[:1]))
            with runtime.open_session() as session:
                with pytest.raises(KeyError):
                    session.support_level([request])
        finally:
            runtime.close()

    @pytest.mark.parametrize("sharded", [False, True], ids=["serial", "sharded"])
    @pytest.mark.parametrize(
        "calls",
        [[[0], [0]], [[1, 1]], [[99]], [[-1]]],
        ids=["released", "repeated", "unknown", "negative"],
    )
    def test_release_contract_matches_across_runtimes(self, sharded, calls):
        # Both runtimes reject a released, repeated, unknown or negative
        # tid with KeyError, and a rejected call releases nothing.
        runtime = ShardedEngine(shards=2, backend="serial") if sharded else SerialRuntime()
        try:
            tids = runtime.add_transactions(random_corpus(29, size=4))
            *accepted, rejected = calls
            for call in accepted:
                runtime.release_transactions(call)
            with pytest.raises(KeyError):
                runtime.release_transactions(rejected)
            released = {tid for call in accepted for tid in call}
            runtime.release_transactions([tid for tid in tids if tid not in released])
        finally:
            runtime.close()

    def test_shards_file_transactions_under_global_tids(self):
        runtime = ShardedEngine(shards=3, backend="serial")
        try:
            first = runtime.add_transactions(random_corpus(31, size=7))
            second = runtime.add_transactions(random_corpus(37, size=5))
            assert first == list(range(7)) and second == list(range(7, 12))
            owned = runtime.owned
            # The masks partition the live tids, and each shard engine
            # holds exactly its mask's tids, filed under those global ids.
            assert sum(map(popcount, owned)) == 12
            assert functools.reduce(operator.or_, owned) == bits_of(first + second)
            for shard, worker in enumerate(runtime._pool._handlers):
                assert list(worker.engine._transactions) == tids_of(owned[shard])
        finally:
            runtime.close()

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_rejected_release_releases_nothing(self, backend):
        corpus = random_corpus(41, size=8)
        runtime = ShardedEngine(shards=2, backend=backend)
        try:
            tids = runtime.add_transactions(corpus)
            runtime.release_transactions(tids[:2])
            owned = runtime.owned
            for call in ([tids[0]], [tids[3], tids[3]], [tids[4], 99], [tids[5], -1], [tids[6], tids[1]]):
                with pytest.raises(KeyError):
                    runtime.release_transactions(call)
                assert runtime.owned == owned
            # Every live tid is still registered on its shard: a level over
            # all of them answers as the serial oracle does.
            pattern = edge_pattern()
            request = level_request(runtime, pattern, bits_of(tids[2:]), uid="edge")
            with runtime.open_session() as session:
                (bits,) = session.support_level([request])
            assert bits == bits_of(
                tid
                for tid, graph in zip(tids[2:], corpus[2:])
                if legacy_has_embedding(pattern, graph)
            )
        finally:
            runtime.close()

    def test_rebuild_after_release_re_adds_only_live_tids(self):
        corpus = random_corpus(43, size=10)
        runtime = ShardedEngine(shards=2, backend="serial", faults="kill:shard=1,op=slevel")
        log = _RecordingSendPool(runtime._pool)
        runtime._pool = log
        try:
            tids = runtime.add_transactions(corpus)
            released = [tid for tid in tids if tid % 3 == 0]
            runtime.release_transactions(released)
            live = [tid for tid in tids if tid not in released]
            log.sent.clear()
            request = level_request(runtime, edge_pattern(), bits_of(live), uid="edge")
            with runtime.open_session() as session:
                (bits,) = session.support_level([request])
            assert runtime.recovery["worker_restarts"] == 1
            # The rebuild re-added shard 1's live tids in one add, and
            # released nothing: released tids are simply not in the log.
            rebuild = [decode_message(blob) for _, op, blob in log.sent if op in ("add", "release")]
            ((op, added, wires),) = rebuild
            assert op == "add" and added == tids_of(runtime.owned[1])
            assert not set(added) & set(released)
            assert list(runtime._pool._handlers[1].engine._transactions) == added
            assert bits == bits_of(
                tid for tid in live if legacy_has_embedding(edge_pattern(), corpus[tid])
            )
        finally:
            runtime.close()

    def test_planner_skips_shards_without_tids(self):
        planner = BatchSupportPlanner(3)
        runtime = SerialRuntime()
        pattern = LabeledGraph(name="p")
        pattern.add_vertex("a", "A")
        # Both tids live on shard 1; shards 0 and 2 get empty batches.
        owned = [bits_of([0, 1]), bits_of([4, 7, 40]), bits_of([2])]
        request = level_request(runtime, pattern, bits_of([4, 7]))
        batches = planner.plan_session_level([request], owned)
        assert [batch.is_empty() for batch in batches] == [True, False, True]
        # The request's wire ships as it is.
        ((wire, (offset, buffer)),) = batches[1].payloads
        assert wire is request.wire
        assert wire == CompactGraph.from_labeled(pattern, runtime.engine.table).to_wire()
        assert tids_from_buffer(buffer, offset) == [4, 7]
        # A tid outside every mask fails the plan, as a released tid does.
        stray = level_request(runtime, pattern, bits_of([4, 9]))
        with pytest.raises(KeyError, match="transaction 9"):
            planner.plan_session_level([stray], owned)

    def test_weighted_placement_levels_edge_load(self):
        # Weighted placement assigns each arrival to the lightest shard
        # (weight = edge count), so cumulative loads end near-balanced
        # even when sizes are skewed — and reruns reproduce the layout.
        corpus = random_corpus(23, size=12)
        layouts = []
        for _ in range(2):
            runtime = ShardedEngine(shards=3, backend="serial")
            try:
                tids = runtime.add_transactions(corpus)
                layouts.append([shard_of(runtime, tid) for tid in tids])
                loads = runtime.placement_loads
            finally:
                runtime.close()
            weights = [max(1, graph.n_edges) for graph in corpus]
            assert sum(loads) == sum(weights)
            assert max(loads) - min(loads) <= max(weights)
        assert layouts[0] == layouts[1]

    def test_weighted_placement_degenerates_to_round_robin_on_uniform(self):
        from repro.runtime.planner import PlacementPolicy

        policy = PlacementPolicy(3)
        shards = [policy.place(5) for _ in range(6)]
        assert shards == [0, 1, 2, 0, 1, 2]


class TestKnobs:
    def test_resolve_workers_validation(self):
        assert resolve_workers(0) == 0
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4
        with pytest.raises(ValueError):
            resolve_workers(-1)
        with pytest.raises(ValueError):
            resolve_workers(True)

    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        with pytest.raises(ValueError):
            resolve_workers(None)

    def test_resolve_backend_validation(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None) == "process"
        assert resolve_backend("serial") == "serial"
        with pytest.raises(ValueError):
            resolve_backend("threads")

    def test_resolve_placement_default_and_env(self):
        # One placement policy: the name the benchmark stamps is fixed,
        # whatever the argument, and no environment variable is read.
        assert resolve_placement() == resolve_placement(None) == "weighted"
        assert resolve_placement("weighted") == "weighted"

    # A NaN timeout used to turn hang detection off silently; it must fail
    # the constructor, naming the argument or variable it came from.
    def test_nan_worker_timeout_fails_construction(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKER_TIMEOUT", raising=False)
        with pytest.raises(ValueError, match="worker_timeout"):
            ShardedEngine(shards=2, backend="process", worker_timeout=math.nan)
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "nan")
        with pytest.raises(ValueError, match="REPRO_WORKER_TIMEOUT"):
            ShardedEngine(shards=2, backend="process")

    def test_create_runtime_types(self):
        serial = create_runtime(workers=0)
        assert isinstance(serial, SerialRuntime)
        assert isinstance(serial.engine, MatchEngine)
        single = create_runtime(workers=1)
        assert isinstance(single, SerialRuntime)
        assert single.engine is not serial.engine
        sharded = create_runtime(workers=2, backend="serial")
        try:
            assert isinstance(sharded, ShardedEngine)
            assert sharded.n_shards == 2
            # The parent engine interns through the table the shards
            # replicate: one label table per runtime.
            assert isinstance(sharded.engine, MatchEngine)
            assert sharded.engine.table is sharded.table
        finally:
            sharded.close()

    def test_experiment_config_validates_workers(self):
        assert ExperimentConfig(workers=2).workers == 2
        with pytest.raises(ValueError):
            ExperimentConfig(workers=-2)
        with pytest.raises(ValueError):
            ExperimentConfig(backend="threads")

    def test_fsg_miner_workers_zero_is_serial_default(self):
        corpus = random_corpus(31, size=10)
        result = FSGMiner(min_support=3, max_edges=2).mine(corpus)
        assert result.n_transactions == len(corpus)
