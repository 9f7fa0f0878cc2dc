"""Sharded support counting: K engine shards behind one runtime facade.

A :class:`ShardedEngine` places registered transactions across K shards
by support weight (:class:`~repro.runtime.planner.PlacementPolicy`).
Each shard owns the full matching state for its slice — a
:class:`~repro.graphs.compact.LabelTable` replica, the per-transaction
:class:`~repro.graphs.index.GraphIndex` set, and its own embedding and
session-pattern stores — so shards never share mutable state and support
counts merge by disjoint union.

Transactions and patterns travel as :class:`CompactGraph` wire tuples:
pure-integer payloads against a label-table replica the parent keeps in
sync by shipping append-only deltas.  Workers therefore never re-intern a
label and never rebuild string keys.  Every message is pickled once, in
:meth:`ShardedEngine._post`, and shipped as a ``(BLOB_OP, op, blob)``
envelope (see :mod:`repro.runtime.wire`), so the pickles are mostly
tuples of small ints.

Level-wise mining runs through a **mining session**
(:class:`ShardedSession`, opened with :meth:`ShardedEngine.open_session`):
each shard keeps a resident pattern store keyed by candidate uid, so a
level-(k+1) candidate — its parent plus one edge — ships as a small delta
token and is reconstructed shard-side from the stored parent
(:meth:`MatchEngine.extend_session_pattern`).  Full wire tuples are sent
only for roots and store misses; shard-initiated (capacity) evictions are
piggybacked on level replies so the parent's residency model stays exact.

Dispatch is scatter/gather throughout: every per-level message is sent to
every shard before any reply is received, so shard compute genuinely
overlaps under the process backend, and replies are always fully drained
before a worker error is re-raised — a failing shard can never leave the
pipes desynchronised.

The shard side is :class:`ShardWorker`, a picklable message handler that
runs identically under both worker-pool backends (inline for ``serial``,
in a daemon process for ``process``) — the backend choice can change
wall-clock, never output.

Worker failure is survivable: when a gather hits a
:class:`~repro.runtime.pool.WorkerDeath` (process gone, reply deadline
missed, or a malformed reply), the engine's supervisor respawns the
worker with bounded retries and exponential backoff, deterministically
rebuilds the shard — full label-table snapshot, the retained transaction
wires in original order, the released set, then tracing and sticky fault
clauses — replays the in-flight message for that shard only, and after
retry exhaustion degrades the slot to in-process serial execution.
Because shard tasks are pure functions of (table, transactions, message),
the replay is invisible in mining output: golden digests are
byte-identical with and without injected faults.  Session pattern stores
start empty on the rebuilt worker; the planner's residency model is reset
through the engine's shard-reset listeners and repopulates lazily via the
existing store-miss full-wire resend path.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import time
from collections import OrderedDict
from typing import Any, Callable, Iterable, Sequence

from repro.graphs.compact import CompactGraph, LabelTable
from repro.graphs.engine import EmbeddingTask, MatchEngine
from repro.graphs.labeled_graph import LabeledGraph
from repro.obs.tracer import NULL_TRACER, SpanRecord, Tracer, get_tracer
from repro.runtime.base import (
    LevelRequest,
    MiningRuntime,
    MiningSession,
    merge_stats,
    resolve_backend,
)
from repro.runtime.bitsets import bits_of, bits_to_buffer, tids_from_buffer, tids_of
from repro.runtime.faults import FaultPlan, compile_injector, resolve_faults
from repro.runtime.planner import BatchSupportPlanner, PlacementPolicy
from repro.runtime.pool import WorkerCorruption, WorkerDeath, WorkerError, make_pool
from repro.runtime.wire import BLOB_OP, SHARD_OPS, decode_message, encode_message

#: Reply-wrapper tag a tracing :class:`ShardWorker` uses to piggyback its
#: finished span and metric buffers on the normal reply — no extra round
#: trips, and the payload inside is byte-identical to the untraced reply.
_OBS_REPLY = "__obs__"

#: Worker span names that time per-level messages; the parent stamps
#: these with the mining level when it drains them (other worker spans —
#: add/release/stats — are level-free and left unstamped).
_LEVELED_WORKER_SPANS = frozenset({"shard.slevel"})

#: Default bound on resident patterns per shard store.  Mining keeps at
#: most ~two levels' candidates alive (the miner evicts each level as
#: soon as its consumer level is done), so this is a memory backstop for
#: adversarial levels, not a tuning knob.
DEFAULT_STORE_CAPACITY = 1 << 16

#: Environment knobs for the recovery supervisor.
RECOVERY_RETRIES_ENV = "REPRO_RECOVERY_RETRIES"
RECOVERY_BACKOFF_ENV = "REPRO_RECOVERY_BACKOFF"

#: Respawn attempts before a dead shard degrades to in-process execution.
DEFAULT_RECOVERY_RETRIES = 2
#: Base delay of the exponential backoff between respawn attempts.
DEFAULT_RECOVERY_BACKOFF = 0.1


def _resolve_recovery_retries(retries: int | None) -> int:
    """Validate *retries*, falling back to ``REPRO_RECOVERY_RETRIES``.

    Must be an integer ``>= 0``.  A bad value fails here, naming the
    argument or variable it came from, instead of surfacing later inside
    the recovery path.
    """
    knob = "recovery_retries"
    if retries is None:
        raw = os.environ.get(RECOVERY_RETRIES_ENV, "").strip()
        if not raw:
            return DEFAULT_RECOVERY_RETRIES
        knob, retries = RECOVERY_RETRIES_ENV, raw
    try:
        count = int(retries) if isinstance(retries, str) else operator.index(retries)
    except (TypeError, ValueError):
        count = -1
    if count < 0:
        raise ValueError(f"{knob}={retries!r} is not an integer >= 0")
    return count


def _resolve_recovery_backoff(backoff: float | None) -> float:
    """Validate *backoff*, falling back to ``REPRO_RECOVERY_BACKOFF``.

    Must be a finite number of seconds ``>= 0``: a negative or NaN base
    delay would otherwise raise from ``time.sleep`` only once a respawned
    worker died again.
    """
    knob = "recovery_backoff"
    if backoff is None:
        raw = os.environ.get(RECOVERY_BACKOFF_ENV, "").strip()
        if not raw:
            return DEFAULT_RECOVERY_BACKOFF
        knob, backoff = RECOVERY_BACKOFF_ENV, raw
    try:
        seconds = float(backoff)
    except (TypeError, ValueError):
        seconds = math.nan
    if not (math.isfinite(seconds) and seconds >= 0):
        raise ValueError(f"{knob}={backoff!r} is not a finite number of seconds >= 0")
    return seconds


#: Expected reply type per shard op; ops not listed ack with ``None``.
#: The parent validates every gathered reply against this table so a
#: corrupted (or truncated) reply becomes a typed ``WorkerCorruption``
#: feeding the recovery path, never a downstream ``TypeError`` operating
#: on junk.
_REPLY_SHAPES: dict[str, type] = {
    "add": list,
    "stats": dict,
}


def _reply_shape_ok(op: str, reply) -> bool:
    if op == "slevel":
        return isinstance(reply, tuple) and len(reply) == 3
    expected = _REPLY_SHAPES.get(op)
    if expected is None:
        return reply is None
    return isinstance(reply, expected)


class ShardWorker:
    """One shard's state and message handler.

    Messages (each answered by exactly one reply; the handled ops are
    :data:`~repro.runtime.wire.SHARD_OPS`, dispatched to ``_op_<op>``):

    ``("labels", labels)``
        Append the parent table's delta to the replica; ack with ``None``.
    ``("add", wires)``
        Register transactions from wire tuples; reply with local tids.
    ``("release", local_tids)``
        Drop transaction references; ack with ``None``.
    ``("slevel", evictions, payloads, uids, parent_uids, extensions, bounds)``
        One mining level against the resident pattern store: parallel
        lists per pattern, ``bounds`` being shard-local early-abort
        thresholds.  Anchors stay in this shard's engine — only the small
        uid/extension tokens ever cross the pipe.  ``evictions``
        (parent-retired uids, piggybacked here instead of costing their
        own round trip) are applied first — pattern store and anchors
        both.  Each ``payloads[i]`` is a full wire
        ``("w", wire, tid_buffer)`` or a delta
        ``("d", edge_label_id, new_label_id, mask_buffer)`` — scan sets
        as flat bitset byte buffers — reconstructed from the stored
        parent; every pattern is filed in the store under its
        uid, and its resulting hit list is remembered so next level's
        delta masks can be decoded against it.  Reply with
        ``(hit lists, capacity-evicted uids, store hits)`` — the store
        hits being this shard's own count of resident-parent
        reconstructions, the reply-side half of the parent's
        ``patterns_delta`` cross-check.
    ``("sevict", uids)``
        Retire *uids* from the pattern store *and* the embedding store;
        ack with ``None`` (the session's close-time flush).
    ``("stats",)``
        Reply with the shard engine's counter snapshot merged with this
        worker's session-protocol counters.
    ``("trace", shard, wall_anchor)``
        Start this worker's tracer (see :mod:`repro.obs`): *shard* names
        the timeline (``shard0``...), *wall_anchor* aligns the worker
        clock to the parent's.  Ack with ``None``.  From then on every
        message is timed by a span and every reply is wrapped as
        ``("__obs__", reply, spans, counter_delta)`` — the parent
        unwraps in ``_gather``, so tracing changes reply framing, never
        reply content.
    ``("faults", shard, spec, inline)``
        Arm (or, with a falsy *spec*, disarm) this worker's fault
        injector (see :mod:`repro.runtime.faults`); ack with ``None``.
        From then on every non-control message runs through the
        injector's hooks: ``kill`` / ``hang`` clauses fire before the
        handler, ``corrupt-reply`` clauses replace the outgoing reply
        (observability wrapping included, so corruption also exercises
        the parent's unwrap validation).  Control messages (``trace``,
        ``faults`` itself) are exempt — the harness must always be able
        to reach a worker it is about to break.
    """

    def __init__(self, store_capacity: int = DEFAULT_STORE_CAPACITY) -> None:
        if store_capacity < 1:
            raise ValueError(f"store_capacity must be at least 1, got {store_capacity}")
        self.table = LabelTable()
        self.engine = MatchEngine(self.table)
        self.store_capacity = store_capacity
        #: Per-uid shard-local hit lists (ascending), kept alongside the
        #: engine's pattern store: delta masks index into the *parent's*
        #: hit list, so it must survive until the parent is evicted.
        self._session_hits: dict[object, list[int]] = {}
        #: Store insertion order (oldest first) for capacity eviction.
        self._session_order: "OrderedDict[object, None]" = OrderedDict()
        self.counters = {
            "patterns_shipped_full": 0,
            "patterns_shipped_delta": 0,
            "session_store_evictions": 0,
        }
        #: This shard's tracer, installed by a ``("trace", ...)`` message;
        #: ``None`` (the default) keeps the untraced fast path — one
        #: attribute check per message, nothing wrapped, nothing shipped.
        self.tracer: Tracer | None = None
        #: Counter snapshot already shipped to the parent; the next obs
        #: reply ships only the delta past this point.
        self._obs_shipped: dict[str, int] = {}
        #: This shard's fault injector, installed by a ``("faults", ...)``
        #: message; ``None`` (the default) keeps the fault-free fast path
        #: — one attribute check per message and nothing else.
        self.faults = None

    # ------------------------------------------------------------------
    # Session store bookkeeping
    # ------------------------------------------------------------------
    def _store_drop(self, uids: Iterable[object]) -> None:
        """Forget store entries (pattern, hits, order); anchors untouched."""
        uid_list = list(uids)
        self.engine.drop_session_patterns(uid_list)
        for uid in uid_list:
            self._session_hits.pop(uid, None)
            self._session_order.pop(uid, None)

    def _op_slevel(self, message: tuple):
        _, evictions, payloads, uids, parent_uids, extensions, bounds = message
        if evictions:
            # Parent-retired uids: gone from the store *and* the anchor
            # store.
            self._store_drop(evictions)
            self.engine.drop_anchors(evictions)
        tasks: list[EmbeddingTask] = []
        counters = self.counters
        store_hits = 0
        for payload, uid, parent_uid, extension, bound in zip(
            payloads, uids, parent_uids, extensions, bounds
        ):
            if payload[0] == "w":
                _, wire, tid_buffer = payload
                compact = CompactGraph.from_wire(wire, self.table)
                index = self.engine.register_session_pattern(uid, compact)
                tids = tids_from_buffer(tid_buffer)
                counters["patterns_shipped_full"] += 1
            elif payload[0] == "d":
                _, edge_label_id, new_label_id, mask = payload
                index = self.engine.extend_session_pattern(
                    uid, parent_uid, extension, edge_label_id, new_label_id
                )
                parent_hits = self._session_hits.get(parent_uid)
                if parent_hits is None:
                    raise KeyError(
                        f"no stored hit list for parent {parent_uid!r} "
                        f"while decoding the scan mask of {uid!r}"
                    )
                tids = [parent_hits[offset] for offset in tids_from_buffer(mask)]
                counters["patterns_shipped_delta"] += 1
                store_hits += 1
            else:
                raise ValueError(f"unknown session payload tag {payload[0]!r}")
            self._session_order[uid] = None
            tasks.append(
                EmbeddingTask(
                    pattern=index,
                    tids=tids,
                    uid=uid,
                    parent_uid=parent_uid,
                    extension=extension,
                    abort_below=bound,
                )
            )
        results = self.engine.support_with_embeddings(tasks)
        for uid, hits in zip(uids, results):
            self._session_hits[uid] = hits
        # Capacity pressure: evict oldest entries, but never this level's
        # (they are next level's delta parents).  Evicted uids keep their
        # anchors — anchor lifecycle belongs to the miner — and are
        # reported so the parent resends those patterns in full on a miss.
        current = set(uids)
        evicted: list[object] = []
        while len(self._session_order) > self.store_capacity:
            oldest = next(iter(self._session_order))
            if oldest in current:
                break
            evicted.append(oldest)
            self._store_drop([oldest])
        if evicted:
            counters["session_store_evictions"] += len(evicted)
        return results, evicted, store_hits

    def _enable_tracing(self, shard: int, wall_anchor: float) -> None:
        """Start this shard's tracer on a parent-aligned clock.

        The parent ships its own wall-clock reading with the enable
        message; anchoring ``perf_counter`` to it puts every worker span
        on (approximately) the parent's time axis, so the merged trace
        renders as parallel swimlanes without post-hoc skew correction.
        The enable message is the offset's upper bound on error: one
        pipe latency, microseconds inline and well under a millisecond
        across processes.
        """
        offset = wall_anchor - time.perf_counter()
        self.tracer = Tracer(
            worker=f"shard{shard}",
            clock=lambda: time.perf_counter() + offset,
        )
        # Everything counted before tracing began predates the trace;
        # baseline it away so shipped deltas cover the traced window only.
        self._obs_shipped = {**self.engine.stats_snapshot(), **self.counters}

    def _span_attrs(self, op: str, message: tuple) -> dict:
        """Cheap size attributes for the per-message worker span."""
        if op == "slevel":
            return {"patterns": len(message[2]), "evictions": len(message[1])}
        if op == "add":
            return {"patterns": len(message[1])}
        return {}

    def __call__(self, envelope: tuple):
        # Every message arrives as a (BLOB_OP, op, blob) envelope (see
        # ShardedEngine._post); rehydrate it before any hook runs, so
        # fault op/level filters, span names and reply shapes all see
        # the logical message.
        message = decode_message(envelope[2])
        tracer = self.tracer
        op = message[0]
        if op == "trace":
            self._enable_tracing(message[1], message[2])
            return None
        if op == "faults":
            _, shard, spec, inline = message
            self.faults = compile_injector(spec, shard, inline)
            return None
        faults = self.faults
        if faults is not None:
            faults.on_message(op)
        if tracer is None:
            reply = self._handle(message, op)
            if faults is not None:
                reply = faults.on_reply(op, reply)
            return reply
        with tracer.span(f"shard.{op}", **self._span_attrs(op, message)):
            reply = self._handle(message, op)
        # Piggyback the finished spans and the counter delta on the reply
        # the parent is already waiting for; the wrapped payload is the
        # untraced reply, byte for byte.
        snapshot = {**self.engine.stats_snapshot(), **self.counters}
        shipped = self._obs_shipped
        delta = {
            key: value - shipped.get(key, 0)
            for key, value in snapshot.items()
            if value != shipped.get(key, 0)
        }
        self._obs_shipped = snapshot
        reply = (
            _OBS_REPLY,
            reply,
            [record.to_wire() for record in tracer.take_spans()],
            delta,
        )
        # Corruption applies to what actually crosses the pipe — the
        # wrapped frame — so the parent's unwrap sees the junk too.
        if faults is not None:
            reply = faults.on_reply(op, reply)
        return reply

    def _handle(self, message: tuple, op: str):
        if op not in SHARD_OPS:
            raise ValueError(
                f"unknown shard message {op!r}; expected one of {SHARD_OPS}"
            )
        return getattr(self, f"_op_{op}")(message)

    def _op_labels(self, message: tuple) -> None:
        self.table.extend(message[1])

    def _op_add(self, message: tuple) -> list[int]:
        compacts = [CompactGraph.from_wire(wire, self.table) for wire in message[1]]
        return self.engine.add_compact_transactions(compacts)

    def _op_release(self, message: tuple) -> None:
        self.engine.release_transactions(message[1])

    def _op_sevict(self, message: tuple) -> None:
        self._store_drop(message[1])
        self.engine.drop_anchors(message[1])

    def _op_stats(self, message: tuple) -> dict[str, int]:
        return {**self.engine.stats_snapshot(), **self.counters}


class ShardedEngine(MiningRuntime):
    """K-shard mining runtime: each level is one scatter/gather round.

    Parameters
    ----------
    shards:
        Number of shards / workers (K >= 1; prefer >= 2, otherwise use
        :class:`~repro.runtime.base.SerialRuntime`).
    backend:
        ``"process"`` (default, real parallelism via ``multiprocessing``)
        or ``"serial"`` (same code path inline — determinism / debugging).
        ``None`` consults ``REPRO_BACKEND``.
    session_store_capacity:
        Bound on resident patterns per shard store; overflowing entries
        are evicted oldest-first and resent in full on a later miss.
    faults:
        A :class:`~repro.runtime.faults.FaultPlan`, a spec string, or
        ``None`` to consult ``REPRO_FAULTS``.  When active, the plan is
        armed on every worker at construction and recovery is exercised
        for real; when absent (the default) nothing fault-related runs.
    worker_timeout:
        Reply deadline in seconds for the process backend (``None``
        consults ``REPRO_WORKER_TIMEOUT``, defaulting to
        :data:`~repro.runtime.pool.DEFAULT_WORKER_TIMEOUT`; ≤0 disables).
        The serial backend detects deaths synchronously and ignores this.
    recovery_retries:
        Respawn attempts per failure before the shard degrades to
        in-process execution (``None`` consults
        ``REPRO_RECOVERY_RETRIES``, default 2); an integer ``>= 0``.
    recovery_backoff:
        Base seconds of the exponential backoff between respawn attempts
        (``None`` consults ``REPRO_RECOVERY_BACKOFF``, default 0.1);
        finite and ``>= 0``.  A bad value of either knob (or a NaN
        *worker_timeout* on the process backend) raises ``ValueError``
        here, before any worker starts.
    """

    def __init__(
        self,
        shards: int = 2,
        backend: str | None = None,
        session_store_capacity: int = DEFAULT_STORE_CAPACITY,
        faults: "FaultPlan | str | None" = None,
        worker_timeout: float | None = None,
        recovery_retries: int | None = None,
        recovery_backoff: float | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.n_shards = shards
        self.backend = resolve_backend(backend)
        # Recovery knobs are checked before any worker starts, so a bad
        # value fails the constructor instead of leaking a pool.
        self._recovery_retries = _resolve_recovery_retries(recovery_retries)
        self._recovery_backoff = _resolve_recovery_backoff(recovery_backoff)
        self.table = LabelTable()
        self.planner = BatchSupportPlanner(shards)
        self._placement = PlacementPolicy(shards)
        self._wire_bytes = 0
        self._pool = make_pool(
            self.backend,
            shards,
            functools.partial(ShardWorker, store_capacity=session_store_capacity),
            worker_timeout=worker_timeout,
        )
        self._synced = [0] * shards
        self._local_to_global: list[list[int]] = [[] for _ in range(shards)]
        self._home: dict[int, tuple[int, int]] = {}
        self._released: set[int] = set()
        self._next_global = 0
        self._closed = False
        #: Recovery state.  ``_shard_wires`` retains each shard's
        #: acknowledged transaction wires in registration order (released
        #: slots collapse to a shared tombstone wire that preserves
        #: local-tid numbering while freeing the graph payload), and
        #: ``_shard_released`` the acknowledged released local tids —
        #: together they are exactly the state a fresh worker needs to
        #: become an indistinguishable replica.
        self.faults = resolve_faults(faults)
        self.recovery = {
            "worker_restarts": 0,
            "level_replays": 0,
            "worker_degradations": 0,
        }
        self._shard_wires: list[list[tuple]] = [[] for _ in range(shards)]
        self._shard_released: list[set[int]] = [set() for _ in range(shards)]
        self._tombstone = None
        self._round_message: dict[int, tuple] = {}
        self._round_replay: "Callable[[int], tuple | None] | None" = None
        self._reset_listeners: list[Callable[[int], None]] = []
        self._degraded: set[int] = set()
        #: Observability state: the tracer worker spans and shard metric
        #: deltas merge into, and the buffer of worker spans gathered but
        #: not yet level-stamped (see :meth:`drain_worker_spans`).
        self._tracer = NULL_TRACER
        self._worker_spans: list[SpanRecord] = []
        active = get_tracer()
        if active.enabled:
            self.enable_tracing(active)
        if self.faults is not None:
            self._arm_faults(self.faults)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def enable_tracing(self, tracer) -> None:
        """Start per-shard tracing, merging worker output into *tracer*.

        Each shard gets its own worker-side :class:`~repro.obs.tracer.Tracer`
        (named ``shard0``... and clock-aligned to the parent); finished
        spans and engine/session counter deltas ship piggybacked on the
        replies the parent already gathers.  Called automatically at
        construction when a process-global tracer is active.
        """
        self._tracer = tracer
        anchor = time.time()
        pending = self._scatter(
            [(shard, ("trace", shard, anchor)) for shard in range(self.n_shards)]
        )
        self._gather(pending)

    def _absorb_worker_obs(self, shard: int, spans, delta) -> None:
        self._worker_spans.extend(SpanRecord.from_wire(wire) for wire in spans)
        if delta:
            self._tracer.metrics.absorb(delta, shard=str(shard))

    def drain_worker_spans(self, level: int | None = None) -> None:
        """Forward gathered worker spans to the tracer, stamping *level*.

        Workers cannot know which mining level a message served, but the
        caller that just gathered a level does — the session calls this
        right after each level so per-level shard timings line up in the
        merged trace.  Leveled span names only; add/stats/release spans
        pass through unstamped.
        """
        spans = self._worker_spans
        if not spans:
            return
        self._worker_spans = []
        if level is not None:
            for record in spans:
                if record.name in _LEVELED_WORKER_SPANS:
                    record.attrs.setdefault("level", level)
        self._tracer.extend(spans)

    # ------------------------------------------------------------------
    # Fault injection & recovery
    # ------------------------------------------------------------------
    def _arm_faults(self, plan: FaultPlan, shards: Iterable[int] | None = None) -> None:
        """Ship *plan* to workers; they compile their own injectors."""
        inline = self.backend == "serial"
        spec = plan.to_spec()
        targets = range(self.n_shards) if shards is None else shards
        messages = [
            (shard, ("faults", shard, spec, inline))
            for shard in targets
            if shard not in self._degraded
        ]
        if messages:
            self._gather(self._scatter(messages))

    def add_reset_listener(self, listener: Callable[[int], None]) -> None:
        """Register a callback invoked with the shard id after a rebuild.

        Sessions use this to drop their residency model for the shard —
        the rebuilt worker's pattern store is empty, so every resident
        uid must be demoted back to ship-in-full.
        """
        self._reset_listeners.append(listener)

    def remove_reset_listener(self, listener: Callable[[int], None]) -> None:
        try:
            self._reset_listeners.remove(listener)
        except ValueError:
            pass

    @property
    def recovery_counts(self) -> dict[str, int]:
        """Snapshot of the supervisor's counters (all zero when healthy)."""
        return dict(self.recovery)

    def _tombstone_wire(self) -> tuple:
        """The shared placeholder wire standing in for a released slot.

        Released transactions must keep their local-tid slot (rebuild
        re-adds wires in order, so slot i must stay slot i) but their
        graph payload can be dropped — important for streaming runs,
        where the released prefix dwarfs the live window.  A one-vertex
        graph over a dedicated tombstone label is the smallest wire that
        round-trips; rebuild releases the slots right after re-adding.
        """
        if self._tombstone is None:
            label_id = self.table.intern("\x00repro:released\x00")
            self._tombstone = ("\x00released\x00", (label_id,), [], ("t",))
        return self._tombstone

    def _receive(self, shard: int, op: str):
        """One recv + obs unwrap + shape validation for *shard*'s *op*."""
        reply = self._pool.recv(shard)
        if type(reply) is tuple and len(reply) == 4 and reply[0] == _OBS_REPLY:
            _, reply, spans, delta = reply
            self._absorb_worker_obs(shard, spans, delta)
        if not _reply_shape_ok(op, reply):
            raise WorkerCorruption(
                shard,
                reason=f"malformed reply {type(reply).__name__!s} for op {op!r}",
                last_op=op,
            )
        return reply

    def _rebuild_shard(self, shard: int, rearm: bool) -> None:
        """Make a fresh worker an exact replica of the lost shard.

        Determinism rests on shard state being a pure function of the
        message history: full label snapshot, the retained wires in
        registration order (identical local tids fall out), the released
        set.  Session pattern stores are *not* rebuilt — the reset
        listeners clear the parent's residency model instead, and the
        store repopulates lazily through the full-wire resend path.
        """
        self._synced[shard] = 0
        if self._send_sync(shard):
            self._receive(shard, "labels")
        wires = self._shard_wires[shard]
        if wires:
            self._post(shard, ("add", wires))
            locals_ = self._receive(shard, "add")
            if list(locals_) != list(range(len(wires))):
                raise WorkerCorruption(
                    shard,
                    reason="rebuild assigned unexpected local tids",
                    last_op="add",
                )
        released = self._shard_released[shard]
        if released:
            self._post(shard, ("release", sorted(released)))
            self._receive(shard, "release")
        if self._tracer is not NULL_TRACER:
            self._post(shard, ("trace", shard, time.time()))
            self._receive(shard, "trace")
        if rearm and self.faults is not None:
            sticky = self.faults.sticky_only()
            if sticky:
                self._post(
                    shard, ("faults", shard, sticky.to_spec(), self.backend == "serial")
                )
                self._receive(shard, "faults")

    def _rebuild_and_replay(self, shard: int, rearm: bool):
        self._rebuild_shard(shard, rearm)
        for listener in list(self._reset_listeners):
            listener(shard)
        message = self._round_message.get(shard)
        if message is None:
            # Death outside any round (nothing in flight): rebuilt, done.
            return None
        if self._round_replay is not None:
            replacement = self._round_replay(shard)
            if replacement is not None:
                message = replacement
        self._post(shard, message)
        return self._receive(shard, message[0])

    def _recover_shard(self, shard: int, death: WorkerDeath):
        """Respawn → rebuild → replay with bounded retries, degrade last.

        Returns the replayed reply for the in-flight message (or ``None``
        when nothing was in flight).  Raises only when even in-process
        execution fails — at that point the failure is a handler bug and
        surfaces as the usual :class:`WorkerError`.
        """
        op = self._round_message.get(shard, (None,))[0]
        started = time.perf_counter()
        tracer = self._tracer
        span = tracer.span(
            "runtime.recovery", shard=shard, op=op or "idle", reason=death.reason
        )
        attempt = 0
        degraded = False
        while True:
            if attempt < self._recovery_retries:
                if attempt:
                    time.sleep(self._recovery_backoff * (2 ** (attempt - 1)))
                self._pool.respawn(shard)
                self.recovery["worker_restarts"] += 1
                tracer.metrics.counter("worker_restarts", shard=str(shard))
            else:
                # Retries exhausted: correctness over parallelism.  The
                # slot becomes an in-process handler (which cannot die)
                # and sticky faults are never re-armed on it.
                self._pool.degrade(shard)
                self._degraded.add(shard)
                self.recovery["worker_degradations"] += 1
                tracer.metrics.counter("worker_degradations", shard=str(shard))
                degraded = True
            attempt += 1
            try:
                reply = self._rebuild_and_replay(shard, rearm=not degraded)
            except WorkerDeath as next_death:
                if degraded:  # pragma: no cover - inline slots cannot die
                    span.finish(attempts=attempt, outcome="failed")
                    raise next_death
                continue
            break
        if op == "slevel":
            self.recovery["level_replays"] += 1
            tracer.metrics.counter("level_replays", shard=str(shard))
        elapsed = time.perf_counter() - started
        tracer.metrics.histogram("recovery_seconds", elapsed, shard=str(shard))
        span.finish(attempts=attempt, degraded=degraded)
        return reply

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def locate(self, tid: int) -> tuple[int, int]:
        """The ``(shard, local tid)`` home of global tid *tid*."""
        if tid in self._released:
            raise KeyError(f"transaction {tid} has been released from this runtime")
        try:
            return self._home[tid]
        except KeyError:
            raise KeyError(f"unknown transaction id {tid}") from None

    def to_global(self, shard: int, local: int) -> int:
        """The global tid of *local* on *shard*."""
        return self._local_to_global[shard][local]

    @property
    def n_transactions(self) -> int:
        """Number of global tid slots handed out (including released ones)."""
        return self._next_global

    @property
    def wire_bytes_shipped(self) -> int:
        """Bytes of every message posted to the shards so far.

        The summed length of the pickled blobs :meth:`_post` hands the
        pool, identical across pool backends.
        """
        return self._wire_bytes

    @property
    def placement_loads(self) -> list[int]:
        """Cumulative placed scan weight per shard (placement balance).

        The running totals the weighted placement policy levels —
        sessions surface their max/min as the ``placement_weight_max`` /
        ``placement_weight_min`` telemetry, making every rebalancing
        decision's outcome visible in the per-level record.
        """
        return list(self._placement.loads)

    # ------------------------------------------------------------------
    # Dispatch: wire accounting + scatter/gather
    # ------------------------------------------------------------------
    def _post(self, shard: int, message: tuple) -> None:
        """Send *message* to *shard* as one pickled blob, counting its bytes.

        The logical message is pickled once here, at the last hop before
        the pool, and posted as a ``(BLOB_OP, op, blob)`` envelope (see
        :mod:`repro.runtime.wire`).  Replay and rebuild paths store and
        re-post *logical* messages, so a replayed level is re-encoded
        identically.
        """
        blob = encode_message(message)
        self._wire_bytes += len(blob)
        self._pool.send(shard, (BLOB_OP, message[0], blob))

    def _send_sync(self, shard: int) -> bool:
        """Send the replica's missing label delta; True if a reply is due."""
        delta = self.table.snapshot(self._synced[shard])
        if not delta:
            return False
        self._post(shard, ("labels", delta))
        self._synced[shard] = len(self.table)
        return True

    def _scatter(
        self,
        messages: Sequence[tuple[int, tuple]],
        replay: "Callable[[int], tuple | None] | None" = None,
    ) -> list[tuple[int, int]]:
        """Post every (shard, message) — label sync included — sending all
        before the caller receives anything; returns the recv plan.

        The round's messages are remembered so a shard that dies before
        replying can be replayed after its rebuild.  *replay*, when
        given, supplies a replacement message per shard (sessions use it
        to re-encode delta payloads in full for the store-less rebuilt
        worker); ``None`` from it means "replay verbatim".
        """
        self._round_message = {}
        self._round_replay = replay
        pending: list[tuple[int, int]] = []
        for shard, message in messages:
            synced = self._send_sync(shard)
            self._post(shard, message)
            self._round_message[shard] = message
            pending.append((shard, 2 if synced else 1))
        return pending

    def _gather(self, pending: Sequence[tuple[int, int]]) -> dict[int, Any]:
        """One reply per queued send; the last reply per shard wins.

        Every queued reply is drained before any worker error is
        re-raised, so a failing shard leaves the pipes aligned — the
        runtime (and any open session) stays usable and closeable.

        A :class:`WorkerDeath` (process gone, deadline missed, malformed
        reply) is not an error here: the supervisor recovers the shard in
        place — respawn, rebuild, replay — and the replayed reply slots
        in as if the death never happened.  The death voids whatever else
        the shard still owed this round (a dead worker answers nothing,
        and the replay re-answers the round's message).
        """
        replies: dict[int, Any] = {}
        first_error: BaseException | None = None
        for shard, count in pending:
            ops = [self._round_message[shard][0]]
            if count == 2:
                ops.insert(0, "labels")
            for op in ops:
                try:
                    reply = self._receive(shard, op)
                except WorkerDeath as death:
                    try:
                        replies[shard] = self._recover_shard(shard, death)
                    except WorkerError as error:
                        if first_error is None:
                            first_error = error
                    break
                except WorkerError as error:
                    if first_error is None:
                        first_error = error
                except BaseException as error:  # noqa: BLE001 - re-raised below
                    if first_error is None:
                        first_error = error
                else:
                    replies[shard] = reply
        if first_error is not None:
            raise first_error
        return replies

    # ------------------------------------------------------------------
    # MiningRuntime API
    # ------------------------------------------------------------------
    def add_transactions(self, transactions: Sequence[LabeledGraph]) -> list[int]:
        wires: list[list[tuple]] = [[] for _ in range(self.n_shards)]
        globals_: list[list[int]] = [[] for _ in range(self.n_shards)]
        tids: list[int] = []
        for transaction in transactions:
            compact = CompactGraph.from_labeled(transaction, self.table)
            tid = self._next_global
            self._next_global += 1
            # Deterministic support-weighted placement: the edge count is
            # the level-1 scan cost a shard pays for hosting the
            # transaction, so levelling it attacks the shard_scan skew
            # that size-skewed corpora showed under static round-robin.
            shard = self._placement.place(compact.n_edges)
            wires[shard].append(compact.to_wire())
            globals_[shard].append(tid)
            tids.append(tid)
        # Send everything first so process workers index concurrently.
        pending = self._scatter(
            [
                (shard, ("add", wires[shard]))
                for shard in range(self.n_shards)
                if wires[shard]
            ]
        )
        locals_by_shard = self._gather(pending)
        for shard, locals_ in locals_by_shard.items():
            for local, tid in zip(locals_, globals_[shard]):
                mapping = self._local_to_global[shard]
                if local != len(mapping):
                    # Guards cross-process data, so a real error, not an
                    # assert: a wrong correspondence here would silently
                    # map support sets to the wrong transactions.
                    raise RuntimeError(
                        f"shard {shard} assigned local tid {local}, "
                        f"expected {len(mapping)}"
                    )
                self._home[tid] = (shard, local)
                mapping.append(tid)
        # Retain the acknowledged wires for deterministic rebuild — only
        # after the gather, so a recovery *during* this round rebuilds
        # from the pre-round log and the replayed "add" lands exactly
        # once on the fresh worker.
        for shard in range(self.n_shards):
            if wires[shard]:
                self._shard_wires[shard].extend(wires[shard])
        return tids

    def release_transactions(self, tids: Iterable[int]) -> None:
        by_shard: dict[int, list[int]] = {}
        released: list[int] = []
        seen: set[int] = set()
        for tid in tids:
            if tid in seen:
                # Same contract as a second release_transactions call.
                raise KeyError(f"transaction {tid} has been released from this runtime")
            seen.add(tid)
            shard, local = self.locate(tid)
            by_shard.setdefault(shard, []).append(local)
            released.append(tid)
        pending = self._scatter(
            [
                (shard, ("release", sorted(locals_)))
                for shard, locals_ in sorted(by_shard.items())
            ]
        )
        self._gather(pending)
        # Commit only after the gather (same reason as add_transactions:
        # a mid-round recovery must rebuild the pre-round state, then
        # replay the release).  Released slots keep their position in the
        # rebuild log but swap the graph payload for a shared tombstone.
        for tid in released:
            self._released.add(tid)
        for shard, locals_ in by_shard.items():
            self._shard_released[shard].update(locals_)
            wires = self._shard_wires[shard]
            for local in locals_:
                wires[local] = self._tombstone_wire()

    def open_session(self) -> MiningSession:
        return ShardedSession(self)

    def stats(self) -> dict[str, int]:
        pending = self._scatter(
            [(shard, ("stats",)) for shard in range(self.n_shards)]
        )
        replies = self._gather(pending)
        merged = merge_stats(replies[shard] for shard in range(self.n_shards))
        merged["shards"] = self.n_shards
        # Wire bytes are counted parent-side (once per posted message),
        # so they are added after the per-shard merge, never summed K times.
        merged["wire_bytes_shipped"] = self._wire_bytes
        # Supervisor counters are parent-side too: zero on a healthy run,
        # and the run report's record of every recovery that happened.
        merged.update(self.recovery)
        return merged

    def close(self) -> None:
        # Defensive attribute access throughout: this also runs from
        # __del__ during interpreter teardown, possibly on an instance
        # whose __init__ never finished (e.g. the pool failed to start).
        if getattr(self, "_closed", True):
            return
        self._closed = True
        # Flush any worker spans gathered after the last level drain
        # (close-time evictions, stats calls) before the pool goes away.
        try:
            self.drain_worker_spans()
        except Exception:  # pragma: no cover - teardown best-effort
            pass
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.close()

    def __del__(self) -> None:  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass


class ShardedSession(MiningSession):
    """A stateful mining session over a :class:`ShardedEngine`.

    The session keeps, per shard, the set of candidate uids whose
    patterns are resident in that shard's store, plus each resident
    pattern's shard-local hit list (needed to encode next level's delta
    masks).  Residency is exact by construction: the parent adds uids
    when it ships them and removes them on the capacity evictions each
    reply piggybacks, so the planner can decide full-vs-delta without
    ever asking a shard.

    Miner-driven evictions (:meth:`evict`) are deferred and ride on the
    next level message to each shard — retired uids are never referenced
    again, so the laziness trades a broadcast round trip per level for a
    little shard memory.  :meth:`close` flushes whatever is left.
    """

    def __init__(self, runtime: ShardedEngine) -> None:
        super().__init__()
        self._runtime = runtime
        self._resident: list[set] = [set() for _ in range(runtime.n_shards)]
        self._hits: dict[tuple[int, object], list[int]] = {}
        self._hit_index: dict[tuple[int, object], dict[int, int]] = {}
        self._pending_evict: list[list] = [[] for _ in range(runtime.n_shards)]
        #: Uids a shard capacity-evicted from its *pattern* store; their
        #: anchors are still shard-resident, so a later miner eviction
        #: must still reach that shard.
        self._evicted_anchors: list[set] = [set() for _ in range(runtime.n_shards)]
        #: Levels served so far; the miner primes level 1 first, so call
        #: N is mining level N — what worker spans get stamped with.
        self._level = 0
        self._closed = False
        # A recovered shard comes back with an empty pattern store: the
        # residency model must drop everything it believed about it, or
        # the planner would ship deltas against parents that no longer
        # exist shard-side.
        runtime.add_reset_listener(self._on_shard_reset)

    def _on_shard_reset(self, shard: int) -> None:
        self._resident[shard].clear()
        self._pending_evict[shard] = []
        self._evicted_anchors[shard].clear()
        for key in [key for key in self._hits if key[0] == shard]:
            del self._hits[key]
        for key in [key for key in self._hit_index if key[0] == shard]:
            del self._hit_index[key]

    def _hit_positions(self, shard: int, uid: object) -> dict[int, int] | None:
        """``local tid -> position`` over *uid*'s hit list on *shard*."""
        key = (shard, uid)
        index = self._hit_index.get(key)
        if index is None:
            hits = self._hits.get(key)
            if hits is None:
                return None
            index = {tid: position for position, tid in enumerate(hits)}
            self._hit_index[key] = index
        return index

    def _forget(self, shard: int, uid: object) -> None:
        self._resident[shard].discard(uid)
        self._hits.pop((shard, uid), None)
        self._hit_index.pop((shard, uid), None)

    def support_level(
        self,
        requests: Sequence[LevelRequest],
        min_support: int | None = None,
    ) -> list[int]:
        if self._closed:
            raise RuntimeError("mining session is closed")
        runtime = self._runtime
        telemetry = self._telemetry
        self._level += 1
        planning_started = time.perf_counter()
        batches = runtime.planner.plan_session_level(
            requests,
            runtime.table,
            runtime.locate,
            min_support,
            resident=self._resident,
            hit_positions=self._hit_positions,
        )
        messages: list[tuple[int, tuple]] = []
        for batch in batches:
            if batch.is_empty():
                continue
            evictions = self._pending_evict[batch.shard]
            self._pending_evict[batch.shard] = []
            messages.append(
                (
                    batch.shard,
                    (
                        "slevel",
                        evictions,
                        batch.payloads,
                        batch.uids,
                        batch.parent_uids,
                        batch.extensions,
                        batch.abort_bounds,
                    ),
                )
            )
            self._resident[batch.shard].update(batch.uids)
            full = batch.count_full()
            telemetry["patterns_full"] += full
            telemetry["patterns_delta"] += len(batch.payloads) - full
        # Placement skew across every shard, idle shards included: the
        # level's per-shard scan workload as the planner routed it.
        scan_units = [batch.scan_tids for batch in batches]
        telemetry["shard_scan_max"] = max(scan_units)
        telemetry["shard_scan_min"] = min(scan_units)
        placement_loads = runtime.placement_loads
        telemetry["placement_weight_max"] = max(placement_loads)
        telemetry["placement_weight_min"] = min(placement_loads)
        telemetry["planning_seconds"] += time.perf_counter() - planning_started
        batch_by_shard = {
            batch.shard: batch for batch in batches if not batch.is_empty()
        }

        def replay(shard: int) -> tuple | None:
            # Re-encode the dead shard's level against its rebuilt,
            # store-less worker: identical uid order and abort bounds,
            # but every payload in full (deltas reference stored parents
            # the fresh store does not have) and no piggybacked
            # evictions (the store they targeted died with the worker).
            batch = batch_by_shard.get(shard)
            if batch is None:
                return None
            payloads = []
            for position in batch.positions:
                request = requests[position]
                locals_ = []
                for tid in tids_of(request.tid_bits):
                    owner, local = runtime.locate(tid)
                    if owner == shard:
                        locals_.append(local)
                payloads.append(
                    (
                        "w",
                        runtime.planner._wire_of(request.pattern, runtime.table),
                        bits_to_buffer(bits_of(locals_)),
                    )
                )
            self._resident[shard].update(batch.uids)
            telemetry["patterns_full"] += len(payloads)
            return (
                "slevel",
                [],
                payloads,
                batch.uids,
                batch.parent_uids,
                batch.extensions,
                batch.abort_bounds,
            )

        wire_before = runtime.wire_bytes_shipped
        recovery_before = dict(runtime.recovery)
        pending = runtime._scatter(messages, replay=replay)
        replies = runtime._gather(pending)
        telemetry["wire_bytes"] += runtime.wire_bytes_shipped - wire_before
        for key in ("worker_restarts", "level_replays"):
            telemetry[key] += runtime.recovery[key] - recovery_before[key]
        results: list[Sequence[Sequence[int]] | None] = [None] * runtime.n_shards
        for batch in batches:
            if batch.is_empty():
                continue
            hit_lists, evicted, store_hits = replies[batch.shard]
            results[batch.shard] = hit_lists
            for uid, hits in zip(batch.uids, hit_lists):
                self._hits[(batch.shard, uid)] = hits
            for uid in evicted:
                self._forget(batch.shard, uid)
                self._evicted_anchors[batch.shard].add(uid)
            telemetry["evictions"] += len(evicted)
            # Shard-observed reconstructions: equals this batch's delta
            # count whenever residency model and shard store agree.
            telemetry["store_hits"] += store_hits
        runtime.drain_worker_spans(level=self._level)
        return runtime.planner.merge_level(
            len(requests), batches, results, runtime.to_global
        )

    def evict(self, uids: Iterable[object]) -> None:
        uid_list = list(uids)
        if not uid_list:
            return
        for shard in range(self._runtime.n_shards):
            # Queue the uid only where shard state for it actually exists
            # — the shards that evaluated it (``_hits``) or that still
            # hold its anchors after a capacity eviction.  Uids the
            # planner never shipped anywhere cost zero wire.  Residency
            # is dropped immediately, so no later delta ever references
            # a pending-evicted parent.
            evicted_anchors = self._evicted_anchors[shard]
            pending = self._pending_evict[shard]
            for uid in uid_list:
                if (shard, uid) in self._hits or uid in evicted_anchors:
                    pending.append(uid)
                    # Same ruler as capacity evictions: one count per
                    # (shard, store entry) actually retired — uids the
                    # planner never shipped anywhere count zero.
                    if (shard, uid) in self._hits:
                        self._telemetry["evictions"] += 1
                    evicted_anchors.discard(uid)
                    self._forget(shard, uid)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        runtime = self._runtime
        runtime.remove_reset_listener(self._on_shard_reset)
        messages: list[tuple[int, tuple]] = []
        for shard in range(runtime.n_shards):
            uids = list(self._pending_evict[shard])
            queued = set(uids)
            leftover = self._resident[shard] | self._evicted_anchors[shard]
            uids.extend(sorted(uid for uid in leftover if uid not in queued))
            self._pending_evict[shard] = []
            self._resident[shard].clear()
            self._evicted_anchors[shard].clear()
            if uids:
                messages.append((shard, ("sevict", uids)))
        self._hits.clear()
        self._hit_index.clear()
        if messages and not getattr(runtime, "_closed", True):
            runtime._gather(runtime._scatter(messages))
            runtime.drain_worker_spans()
