"""Parallel mining runtime: sharded, session-based support counting.

The level-wise miners spend nearly all their time in per-(pattern,
transaction) support checks.  This package is the execution subsystem that
scales that hot path without ever changing mining output:

* :class:`~repro.runtime.base.MiningRuntime` — the substrate interface
  the miners program against (register transactions, open a
  :class:`~repro.runtime.base.MiningSession` that answers each level's
  support over global tids, aggregated stats).
* :class:`~repro.runtime.base.SerialRuntime` — single-engine reference
  implementation and the default everywhere: its
  :class:`~repro.runtime.base.DelegatingSession` hands each level to
  :meth:`~repro.graphs.engine.MatchEngine.support_with_embeddings`.
* :class:`~repro.runtime.shards.ShardedEngine` — K shards placed by
  support weight, each owning its transactions' indexes and embedding
  store; its :class:`~repro.runtime.shards.ShardedSession` ships each
  level through a :class:`~repro.runtime.planner.BatchSupportPlanner`
  as one ``slevel`` message per shard, every candidate as its full
  compact wire.
* :class:`~repro.runtime.pool.WorkerPool` — the backend abstraction:
  ``serial`` (inline, deterministic debugging) and ``process``
  (``multiprocessing`` workers speaking the CompactGraph wire format,
  each message pickled once — see :mod:`~repro.runtime.wire`).
* :mod:`~repro.runtime.faults` — the deterministic fault-injection
  harness (``REPRO_FAULTS`` / ``--faults``) that drives the sharded
  engine's supervision layer: dead or hung workers are detected via
  deadline polling (``REPRO_WORKER_TIMEOUT``), respawned with bounded
  retries and exponential backoff (two retries from 0.1 s), then
  deterministically rebuilt, and the in-flight level replayed — with an
  in-process degraded mode as the last resort, so output never changes.

Pick a runtime with :func:`create_runtime`, or set ``REPRO_WORKERS`` /
``REPRO_BACKEND`` to switch a whole run (or CI job) without code changes.
"""

from __future__ import annotations

from repro.runtime.base import (
    BACKENDS,
    SESSION_TELEMETRY_KEYS,
    DelegatingSession,
    LevelRequest,
    MiningRuntime,
    MiningSession,
    SerialRuntime,
    resolve_backend,
    resolve_workers,
)
from repro.runtime.bitsets import (
    bits_of,
    bits_to_buffer,
    popcount,
    tids_from_buffer,
    tids_of,
)
from repro.runtime.planner import BatchSupportPlanner, PlacementPolicy, ShardSessionBatch
# Only for the benchmark's environment stamp; see resolve_placement.
from repro.runtime.planner import resolve_placement
from repro.runtime.faults import (
    FAULTS_ENV,
    FaultClause,
    FaultInjector,
    FaultPlan,
    SimulatedWorkerDeath,
    resolve_faults,
)
from repro.runtime.pool import (
    WORKER_TIMEOUT_ENV,
    ProcessBackend,
    SerialBackend,
    WorkerCorruption,
    WorkerDeath,
    WorkerError,
    WorkerPool,
    make_pool,
    resolve_worker_timeout,
)
from repro.runtime.shards import ShardedEngine, ShardedSession, ShardWorker
# Only for the benchmark's environment stamp; see resolve_wire.
from repro.runtime.wire import resolve_wire

__all__ = [
    "BACKENDS",
    "FAULTS_ENV",
    "SESSION_TELEMETRY_KEYS",
    "WORKER_TIMEOUT_ENV",
    "BatchSupportPlanner",
    "PlacementPolicy",
    "DelegatingSession",
    "FaultClause",
    "FaultInjector",
    "FaultPlan",
    "LevelRequest",
    "MiningRuntime",
    "MiningSession",
    "ProcessBackend",
    "SerialBackend",
    "SerialRuntime",
    "ShardSessionBatch",
    "ShardWorker",
    "ShardedEngine",
    "ShardedSession",
    "SimulatedWorkerDeath",
    "WorkerCorruption",
    "WorkerDeath",
    "WorkerError",
    "WorkerPool",
    "bits_of",
    "bits_to_buffer",
    "create_runtime",
    "make_pool",
    "popcount",
    "resolve_backend",
    "resolve_faults",
    "resolve_placement",
    "resolve_wire",
    "resolve_worker_timeout",
    "resolve_workers",
    "tids_from_buffer",
    "tids_of",
]


def create_runtime(
    workers: int | None = None,
    backend: str | None = None,
) -> MiningRuntime:
    """The runtime implied by a ``workers`` knob.

    ``workers`` of ``0`` or ``1`` (or unset, with no ``REPRO_WORKERS`` in
    the environment) selects the serial runtime; ``workers >= 2`` builds a
    :class:`ShardedEngine` with that many shards on *backend* (defaulting
    to ``process``, or ``REPRO_BACKEND``).  Either way the runtime builds
    its own parent engine (:attr:`MiningRuntime.engine`), which the miners
    it serves share for candidate dedup and pattern merging.
    """
    workers = resolve_workers(workers)
    if workers <= 1:
        return SerialRuntime()
    return ShardedEngine(shards=workers, backend=backend)
