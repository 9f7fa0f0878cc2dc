"""Shared fixtures and helpers for the test suite.

Dataset-producing fixtures are session-scoped because generation, while
fast, is used by many test modules; graph fixtures are tiny hand-built
structures exercising exact, easily-verified behaviour.  Test modules
import :func:`level_request` and :func:`embedding_task` from here
(``from conftest import level_request``).
"""

from __future__ import annotations

from datetime import date

import pytest

from repro.datasets.binning import default_binning_scheme
from repro.datasets.generator import GeneratorConfig, TransportationDataGenerator
from repro.datasets.schema import Location, TransMode, Transaction, TransactionDataset
from repro.graphs.compact import CompactGraph, labeled_to_wire
from repro.graphs.engine import EmbeddingTask
from repro.graphs.labeled_graph import LabeledGraph
from repro.runtime import LevelRequest


def level_request(runtime, pattern: LabeledGraph, tid_bits: int, **derivation) -> LevelRequest:
    """A support request for *pattern*, compacted through *runtime*'s table.

    A hand-built request reaches a session the way the miner's candidates
    do: as a compact wire whose label ids are those of
    ``runtime.engine.table``.  *derivation* takes ``uid``, ``parent_uid``
    and ``extension``.
    """
    return LevelRequest(
        wire=labeled_to_wire(pattern, runtime.engine.table), tid_bits=tid_bits, **derivation
    )


def embedding_task(engine, pattern: LabeledGraph, tids, **fields) -> EmbeddingTask:
    """A support task for *pattern*, compacted through *engine*'s table.

    A batch pattern reaches :meth:`MatchEngine.support_with_embeddings`
    compact, as the sessions and shard workers build it.  *fields* takes
    ``uid``, ``parent_uid``, ``extension`` and ``abort_below``.
    """
    return EmbeddingTask(
        pattern=CompactGraph.from_labeled(pattern, engine.table), tids=tids, **fields
    )


@pytest.fixture(scope="session")
def small_dataset() -> TransactionDataset:
    """A small (~2%) synthetic dataset shared across test modules."""
    generator = TransportationDataGenerator(GeneratorConfig(scale=0.02, seed=7))
    return generator.generate()


@pytest.fixture(scope="session")
def binning():
    """The paper's default binning scheme (7 weight bins, 10 hour bins)."""
    return default_binning_scheme()


@pytest.fixture()
def tiny_dataset() -> TransactionDataset:
    """A hand-built four-transaction dataset with known values."""
    chicago = Location(41.9, -87.6)
    indianapolis = Location(39.8, -86.2)
    atlanta = Location(33.7, -84.4)
    dataset = TransactionDataset(name="tiny")
    dataset.extend(
        [
            Transaction(
                id=1,
                req_pickup_dt=date(2004, 1, 5),
                req_delivery_dt=date(2004, 1, 6),
                origin=chicago,
                destination=indianapolis,
                total_distance=180.0,
                gross_weight=4_500.0,
                move_transit_hours=6.0,
                trans_mode=TransMode.LESS_THAN_TRUCKLOAD,
            ),
            Transaction(
                id=2,
                req_pickup_dt=date(2004, 1, 5),
                req_delivery_dt=date(2004, 1, 7),
                origin=chicago,
                destination=atlanta,
                total_distance=720.0,
                gross_weight=38_000.0,
                move_transit_hours=18.0,
                trans_mode=TransMode.TRUCKLOAD,
            ),
            Transaction(
                id=3,
                req_pickup_dt=date(2004, 1, 6),
                req_delivery_dt=date(2004, 1, 8),
                origin=indianapolis,
                destination=atlanta,
                total_distance=530.0,
                gross_weight=12_000.0,
                move_transit_hours=14.0,
                trans_mode=TransMode.TRUCKLOAD,
            ),
            Transaction(
                id=4,
                req_pickup_dt=date(2004, 1, 12),
                req_delivery_dt=date(2004, 1, 13),
                origin=chicago,
                destination=indianapolis,
                total_distance=180.0,
                gross_weight=5_100.0,
                move_transit_hours=7.0,
                trans_mode=TransMode.LESS_THAN_TRUCKLOAD,
            ),
        ]
    )
    return dataset


@pytest.fixture()
def triangle_graph() -> LabeledGraph:
    """A labeled directed triangle a -> b -> c -> a."""
    graph = LabeledGraph(name="triangle")
    graph.add_vertex("a", "place")
    graph.add_vertex("b", "place")
    graph.add_vertex("c", "place")
    graph.add_edge("a", "b", 1)
    graph.add_edge("b", "c", 2)
    graph.add_edge("c", "a", 3)
    return graph


@pytest.fixture()
def star_graph() -> LabeledGraph:
    """A hub with four outgoing edges sharing the same label."""
    graph = LabeledGraph(name="star")
    graph.add_vertex("hub", "place")
    for index in range(4):
        spoke = f"s{index}"
        graph.add_vertex(spoke, "place")
        graph.add_edge("hub", spoke, 0)
    return graph


@pytest.fixture()
def sharded_engines(monkeypatch):
    """Record every :class:`ShardedEngine` built while the test runs.

    Returns ``(built, closed)``: the engines in the order they were
    built, and those of them ``close()`` was called on, in the order of
    their first ``close()``.  An engine of an earlier test that the
    collector finalises now is in neither list.
    """
    from repro.runtime.shards import ShardedEngine

    built: list[ShardedEngine] = []
    closed: list[ShardedEngine] = []
    init, close = ShardedEngine.__init__, ShardedEngine.close

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def recording_close(self):
        if self in built and self not in closed:
            closed.append(self)
        close(self)

    monkeypatch.setattr(ShardedEngine, "__init__", recording_init)
    monkeypatch.setattr(ShardedEngine, "close", recording_close)
    return built, closed


@pytest.fixture()
def two_serial_shards_env(monkeypatch):
    """``REPRO_WORKERS=2`` and ``REPRO_BACKEND=serial`` for the test."""
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setenv("REPRO_BACKEND", "serial")
