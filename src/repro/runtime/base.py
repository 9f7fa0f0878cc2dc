"""The mining-runtime abstraction and its serial reference implementation.

A :class:`MiningRuntime` is what the level-wise miners talk to when they
need support counts: it owns the registered transaction corpus (however it
is physically laid out — one engine, K in-process shards, K worker
processes) and answers per-level support queries over global transaction
ids through a :class:`MiningSession`.  :class:`SerialRuntime` is the
degenerate single-engine case — its :class:`DelegatingSession` hands each
level straight to :meth:`MatchEngine.support_with_embeddings` — so it is
both the default and the determinism oracle for the sharded
implementation.

Worker counts come from an explicit setting or, when unset, from the
``REPRO_WORKERS`` environment variable (``0`` / ``1`` mean serial); the
process/serial choice of the sharded runtime likewise falls back to
``REPRO_BACKEND``.  That lets a CI matrix run the whole test suite against
the process backend without touching any call site.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.graphs.engine import EmbeddingTask, MatchEngine
from repro.graphs.labeled_graph import LabeledGraph
from repro.obs.tracer import get_tracer
from repro.runtime.bitsets import bits_of, tids_of

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"
#: Environment variable supplying the default sharded backend.
BACKEND_ENV = "REPRO_BACKEND"
#: Backends understood by the sharded runtime's worker pool.
BACKENDS = ("serial", "process")


def resolve_workers(workers: int | None = None) -> int:
    """Validate *workers*, falling back to ``REPRO_WORKERS`` when ``None``.

    ``0`` and ``1`` both mean "serial" (no sharding); anything negative or
    non-integer is rejected.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 0
        try:
            workers = int(raw)
        except ValueError as error:
            raise ValueError(f"{WORKERS_ENV}={raw!r} is not an integer") from error
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    return workers


def resolve_backend(backend: str | None = None) -> str:
    """Validate *backend*, falling back to ``REPRO_BACKEND`` when ``None``."""
    if backend is None:
        backend = os.environ.get(BACKEND_ENV, "").strip() or "process"
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


@dataclass
class LevelRequest:
    """One candidate of an incremental per-level support batch.

    ``tid_bits`` is the candidate's scan set as a *global-tid bitset* —
    for a derived candidate, the intersection of its parents' supporting
    sets.  ``uid`` / ``parent_uid`` / ``extension`` address the engine's
    embedding store (see :class:`~repro.graphs.engine.EmbeddingTask`);
    anchors are engine-local (shard-local under a sharded runtime), so a
    request ships only these small tokens, never embeddings.
    """

    pattern: LabeledGraph
    tid_bits: int
    uid: object = None
    parent_uid: object = None
    extension: tuple[int, int, bool] | None = None


#: Counter keys every :class:`MiningSession` reports per level (see
#: :meth:`MiningSession.take_telemetry`): the facts no span or engine
#: counter records.  ``wire_bytes`` is the parent-side cost of shipping
#: the level.  ``shard_scan_max`` / ``shard_scan_min`` expose the level's
#: placement skew: the largest and smallest per-shard scan workload
#: (candidate tids assigned to the shard, summed over the level's
#: requests; an idle shard counts zero).  A corpus whose heavy
#: transactions pile onto one shard shows a wide max/min gap here — the
#: signal the power-law stress scenario asserts on.  Serial runtimes have
#: no wire and no shards and report zeros.
SESSION_TELEMETRY_KEYS = ("wire_bytes", "shard_scan_max", "shard_scan_min")


def zero_telemetry() -> dict[str, float]:
    """A fresh all-zero session telemetry record."""
    return {key: 0 for key in SESSION_TELEMETRY_KEYS}


class MiningSession(ABC):
    """A stateful, multi-level mining conversation with one runtime.

    A level-wise miner opens one session per mining run and drives every
    level through it.  The session is what lets a runtime keep per-level
    state alive between calls — shard-resident anchors and the deferred
    evictions that retire them.  Sessions never change mining output:
    every runtime's session returns exactly what the serial
    :class:`DelegatingSession` would.
    """

    def __init__(self) -> None:
        self._telemetry = zero_telemetry()

    @abstractmethod
    def support_level(
        self,
        requests: Sequence[LevelRequest],
        min_support: int | None = None,
    ) -> list[int]:
        """Per-request supporting-tid *bitsets* for one mining level.

        Requests carry global-tid bitsets and embedding-store derivations;
        answers come back as global-tid bitsets.  *min_support* arms
        per-pattern early abort — a request whose support provably cannot
        reach it may return a partial bitset, always of population below
        the threshold.  Requests whose patterns survive are counted
        exactly; together with the exactness of extension-vs-search
        verdicts this keeps every runtime's mining output identical to
        the serial full-search reference.
        """

    @abstractmethod
    def evict(self, uids: Iterable[object]) -> None:
        """Retire the stored anchors of *uids*.

        Implementations may defer the actual cleanup (e.g. piggyback it
        on the next level shipment) — retired uids are never referenced
        again, so laziness costs memory, never correctness.
        """

    def take_telemetry(self) -> dict[str, float]:
        """Counters accumulated since the last call, then reset.

        Always contains exactly :data:`SESSION_TELEMETRY_KEYS`; a session
        with nothing to report returns zeros.
        """
        taken = self._telemetry
        self._telemetry = zero_telemetry()
        return taken

    def close(self) -> None:
        """Flush deferred cleanup and end the session; idempotent."""

    def __enter__(self) -> "MiningSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class DelegatingSession(MiningSession):
    """The serial runtime's session: each level goes straight to its engine.

    :meth:`support_level` is :meth:`MatchEngine.support_with_embeddings`
    over the level's requests, and :meth:`evict` retires their anchors
    with :meth:`MatchEngine.drop_anchors`.  Nothing crosses a wire and
    there are no shards, so its telemetry is all zeros; the engine's own
    ``batch_patterns`` counter records what it scanned.
    """

    def __init__(self, engine: MatchEngine) -> None:
        super().__init__()
        self._engine = engine

    def support_level(
        self,
        requests: Sequence[LevelRequest],
        min_support: int | None = None,
    ) -> list[int]:
        tasks = [
            EmbeddingTask(
                pattern=request.pattern,
                tids=tids_of(request.tid_bits),
                uid=request.uid,
                parent_uid=request.parent_uid,
                extension=request.extension,
                abort_below=min_support,
            )
            for request in requests
        ]
        supports = self._engine.support_with_embeddings(tasks)
        return [bits_of(tids) for tids in supports]

    def evict(self, uids: Iterable[object]) -> None:
        self._engine.drop_anchors(uids)


class MiningRuntime(ABC):
    """Execution substrate for TID-based support counting.

    Transactions are registered once and addressed by the *global* ids the
    runtime hands back; how they are distributed across shards or
    processes is the runtime's business.  All implementations must return
    identical support sets for identical inputs — parallelism is never
    allowed to change mining output.
    """

    @abstractmethod
    def add_transactions(self, transactions: Sequence[LabeledGraph]) -> list[int]:
        """Register *transactions*; returns their global tids.

        The tids of one call are consecutive, ``base, base + 1, ...,
        base + len(transactions) - 1``, so a miner moves a bitset between
        its run's local tids and the runtime's with one shift
        (:class:`~repro.mining.fsg.miner.FSGMiner` checks this).
        """

    @abstractmethod
    def release_transactions(self, tids: Iterable[int]) -> None:
        """Drop the references held for *tids* (tids are never reused).

        A released, repeated, unknown or negative tid raises ``KeyError``
        before anything is released.
        """

    @abstractmethod
    def open_session(self) -> MiningSession:
        """Open a mining session for one level-wise run.

        The caller owns the session and must :meth:`MiningSession.close`
        it.
        """

    @abstractmethod
    def stats(self) -> dict[str, int]:
        """Aggregated engine counters across every shard, plus runtime info."""

    def close(self) -> None:
        """Release any workers / OS resources; idempotent."""

    def __enter__(self) -> "MiningRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialRuntime(MiningRuntime):
    """Single-engine runtime: the default and the determinism oracle.

    Its sessions hand each level to the one engine's
    :meth:`MatchEngine.support_with_embeddings`; the sharded runtime
    (:class:`~repro.runtime.shards.ShardedEngine`) must return exactly
    the same support sets.
    """

    def __init__(self, engine: MatchEngine | None = None) -> None:
        self.engine = engine if engine is not None else MatchEngine()

    def add_transactions(self, transactions: Sequence[LabeledGraph]) -> list[int]:
        with get_tracer().span("runtime.add", transactions=len(transactions)):
            return self.engine.add_transactions(transactions)

    def release_transactions(self, tids: Iterable[int]) -> None:
        self.engine.release_transactions(tids)

    def open_session(self) -> MiningSession:
        return DelegatingSession(self.engine)

    def stats(self) -> dict[str, int]:
        snapshot = self.engine.stats.as_dict()
        snapshot["shards"] = 1
        # Nothing ever crosses a wire here; report the shipping counter
        # as an explicit zero so stat consumers see stable keys whichever
        # runtime produced the run.
        snapshot["wire_bytes_shipped"] = 0
        # No workers, no supervisor: recovery counters are stable zeros.
        snapshot["worker_restarts"] = 0
        snapshot["level_replays"] = 0
        snapshot["worker_degradations"] = 0
        return snapshot
