"""Tests for the cyclic-collector policy around :meth:`FSGMiner.mine` and
:meth:`SubdueMiner.mine`.

A mine multiplies the collector's gen-2 threshold by
:data:`~repro.runtime.collector.FULL_COLLECTION_FACTOR` for the length of
the run, registration included, and gives the caller's thresholds back
however the run ends.  Thresholds are process-wide, so overlapping mines
(nested, or on several threads) must restore exactly what the first one
saved, and no mine may run while they are unraised.  Process shard
workers raise the same threshold once, for their whole life, from the
thresholds the parent has outside any mine.
"""

from __future__ import annotations

import gc
import sys
import threading
import time

import pytest

from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.fsg.exceptions import MemoryBudgetExceeded
from repro.mining.fsg.miner import FSGMiner
from repro.mining.subdue import miner as subdue_miner
from repro.mining.subdue.miner import SubdueMiner
from repro.obs.tracer import Tracer, activate
from repro.runtime import SerialRuntime
from repro.runtime.collector import FULL_COLLECTION_FACTOR, rare_full_collections
from repro.runtime.pool import ProcessBackend, SerialBackend

#: Thresholds no default interpreter has, so a restore to the defaults
#: cannot pass for a restore to the caller's values.
CALLER = (613, 9, 7)
RAISED = (613, 9, 7 * FULL_COLLECTION_FACTOR)


def _corpus(n: int = 6) -> list[LabeledGraph]:
    """Small transactions sharing a two-edge path, plus one distinct edge."""
    corpus = []
    for index in range(n):
        graph = LabeledGraph(name=f"t{index}")
        graph.add_vertex("a", "A")
        graph.add_vertex("b", "B")
        graph.add_vertex("c", "C")
        graph.add_edge("a", "b", "x")
        graph.add_edge("b", "c", "y")
        graph.add_vertex("d", f"D{index % 2}")
        graph.add_edge("c", "d", "z")
        corpus.append(graph)
    return corpus


class RecordingRuntime(SerialRuntime):
    """A serial runtime that records the collector's state at registration."""

    def __init__(self, fail: bool = False, during=None) -> None:
        super().__init__()
        self.fail = fail
        self.during = during
        self.thresholds: list[tuple[int, int, int]] = []
        self.enabled: list[bool] = []

    def add_transactions(self, transactions):
        self.thresholds.append(gc.get_threshold())
        self.enabled.append(gc.isenabled())
        if self.during is not None:
            self.during()
        if self.fail:
            raise RuntimeError("registration failed")
        return super().add_transactions(transactions)


@pytest.fixture
def caller_thresholds():
    saved = gc.get_threshold()
    gc.set_threshold(*CALLER)
    try:
        yield CALLER
    finally:
        gc.set_threshold(*saved)


def _mine(runtime: SerialRuntime, **options):
    return FSGMiner(min_support=2, runtime=runtime, **options).mine(_corpus())


def test_thresholds_raised_inside_a_run_and_restored_after(caller_thresholds):
    runtime = RecordingRuntime()
    result = _mine(runtime)
    assert result.patterns
    assert runtime.thresholds == [RAISED]
    assert gc.get_threshold() == CALLER


def test_thresholds_restored_after_memory_budget_exceeded(caller_thresholds):
    runtime = RecordingRuntime()
    with pytest.raises(MemoryBudgetExceeded):
        _mine(runtime, memory_budget=0)
    assert runtime.thresholds == [RAISED]
    assert gc.get_threshold() == CALLER


def test_thresholds_restored_after_a_runtime_error(caller_thresholds):
    runtime = RecordingRuntime(fail=True)
    with pytest.raises(RuntimeError, match="registration failed"):
        _mine(runtime)
    assert runtime.thresholds == [RAISED]
    assert gc.get_threshold() == CALLER


def test_disabled_collector_stays_disabled(caller_thresholds):
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        runtime = RecordingRuntime()
        _mine(runtime)
        assert runtime.enabled == [False]
        assert not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()
    assert gc.get_threshold() == CALLER


def test_nested_mine_keeps_the_outer_run_raised(caller_thresholds):
    inner = RecordingRuntime()
    seen_after_inner: list[tuple[int, int, int]] = []

    def nested_mine():
        _mine(inner)
        seen_after_inner.append(gc.get_threshold())

    outer = RecordingRuntime(during=nested_mine)
    _mine(outer)
    # The inner run saw the outer run's raised thresholds and did not
    # raise them again; leaving it did not restore them under the outer.
    assert outer.thresholds == inner.thresholds == [RAISED]
    assert seen_after_inner == [RAISED]
    assert gc.get_threshold() == CALLER


def test_traced_mine_span_records_its_collections():
    runtime = RecordingRuntime(during=gc.collect)
    with activate(Tracer()) as tracer:
        _mine(runtime)
    (span,) = [record for record in tracer.spans if record.name == "fsg.mine"]
    assert span.attrs["gc_full"] >= 1
    assert span.attrs["gc_collections"] >= span.attrs["gc_full"]


def test_overlapping_mines_on_threads_restore_the_caller_thresholds(caller_thresholds):
    """Four threads mine over and over, switching as often as possible.

    Every run must see the raised thresholds at registration, and the
    caller's come back once all of them are done.
    """
    deadline = time.monotonic() + 1.0
    seen: list[tuple[int, int, int]] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def worker() -> None:
        try:
            for _ in range(200):
                if time.monotonic() > deadline:
                    break
                runtime = RecordingRuntime()
                _mine(runtime, max_edges=2)
                with lock:
                    seen.extend(runtime.thresholds)
        except BaseException as error:  # pragma: no cover - reported below
            with lock:
                errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(seen) >= 4
    assert set(seen) == {RAISED}
    assert gc.get_threshold() == CALLER


def _star_host() -> LabeledGraph:
    """Three disjoint two-leaf stars: SUBDUE evaluates a few candidates."""
    host = LabeledGraph(name="stars")
    for copy in range(3):
        host.add_vertex(f"hub{copy}", "place")
        for leaf in range(2):
            host.add_vertex(f"leaf{copy}_{leaf}", "place")
            host.add_edge(f"hub{copy}", f"leaf{copy}_{leaf}", "w")
    return host


@pytest.fixture
def subdue_calls(monkeypatch):
    """Record the collector's state at every candidate evaluation a SUBDUE
    mine makes; ``fail`` makes the evaluation raise."""
    calls = {"thresholds": [], "enabled": [], "fail": False}
    evaluate = subdue_miner.evaluate

    def recording(*args, **kwargs):
        calls["thresholds"].append(gc.get_threshold())
        calls["enabled"].append(gc.isenabled())
        if calls["fail"]:
            raise RuntimeError("evaluation failed")
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(subdue_miner, "evaluate", recording)
    return calls


def _subdue_mine():
    return SubdueMiner(max_substructure_edges=2).mine(_star_host())


def test_subdue_thresholds_raised_inside_a_run_and_restored_after(caller_thresholds, subdue_calls):
    assert _subdue_mine().evaluated > 0
    assert subdue_calls["thresholds"]
    assert set(subdue_calls["thresholds"]) == {RAISED}
    assert gc.get_threshold() == CALLER


def test_subdue_thresholds_restored_after_an_exception(caller_thresholds, subdue_calls):
    subdue_calls["fail"] = True
    with pytest.raises(RuntimeError, match="evaluation failed"):
        _subdue_mine()
    assert subdue_calls["thresholds"] == [RAISED]
    assert gc.get_threshold() == CALLER


def test_subdue_disabled_collector_stays_disabled(caller_thresholds, subdue_calls):
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _subdue_mine()
        assert set(subdue_calls["enabled"]) == {False}
        assert set(subdue_calls["thresholds"]) == {RAISED}
        assert not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()
    assert gc.get_threshold() == CALLER


class _ThresholdProbe:
    """A pool handler that answers every message with its process's
    collector thresholds."""

    def __call__(self, message):
        return gc.get_threshold()


def test_process_workers_raise_the_full_threshold_once(caller_thresholds):
    # Spawned outside a mine, a worker raises from the caller's values;
    # spawned (or respawned) inside one, it inherits raised thresholds
    # and still lands on the same value, not on a double raise.
    pool = ProcessBackend(1, _ThresholdProbe)
    try:
        assert pool.call(0, ("probe",)) == RAISED
        with rare_full_collections():
            pool.respawn(0)
            assert pool.call(0, ("probe",)) == RAISED
            inner = ProcessBackend(1, _ThresholdProbe)
            try:
                assert inner.call(0, ("probe",)) == RAISED
            finally:
                inner.close()
    finally:
        pool.close()
    assert gc.get_threshold() == CALLER


def test_inline_workers_leave_the_caller_thresholds_alone(caller_thresholds):
    pool = SerialBackend(1, _ThresholdProbe)
    try:
        assert pool.call(0, ("probe",)) == CALLER
    finally:
        pool.close()
    assert gc.get_threshold() == CALLER
