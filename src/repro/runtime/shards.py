"""Sharded support counting: K engine shards behind one runtime facade.

A :class:`ShardedEngine` places registered transactions across K shards
by support weight (:class:`~repro.runtime.planner.PlacementPolicy`).
Each shard owns the full matching state for its slice — a
:class:`~repro.graphs.compact.LabelTable` replica, the per-transaction
:class:`~repro.graphs.index.GraphIndex` set, and its own embedding store
— so shards never share mutable state and support counts merge by
disjoint union.

Transactions and patterns travel as :class:`CompactGraph` wire tuples:
pure-integer payloads against a label-table replica the parent keeps in
sync by shipping append-only deltas.  Workers therefore never re-intern a
label and never rebuild string keys.  Every message is pickled once, in
:meth:`ShardedEngine._post`, and shipped as a ``(BLOB_OP, op, blob)``
envelope (see :mod:`repro.runtime.wire`), so the pickles are mostly
tuples of small ints.

Level-wise mining runs through a **mining session**
(:class:`ShardedSession`, opened with :meth:`ShardedEngine.open_session`):
each level is one ``slevel`` message per shard, carrying every candidate
the shard must scan as its full compact wire plus the uid / parent uid /
extension tokens that address the shard's embedding store.  Anchors are
the only state a shard keeps between levels; the miner's evictions of
retired uids ride on the next level message to the shards that hold
them.

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
byte-identical with and without injected faults.  The replayed message
is the original one, resent unchanged: nothing in it refers to state
that died with the worker.  The rebuilt worker starts without anchors,
so its candidates fall back to full search and piggybacked evictions of
lost anchors are no-ops.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Sequence

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
from repro.runtime.bitsets import tids_from_buffer
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

#: Respawn attempts before a dead shard degrades to in-process execution.
RECOVERY_RETRIES = 2
#: Base delay in seconds of the exponential backoff between respawn attempts.
RECOVERY_BACKOFF = 0.1


#: Expected reply per shard op as ``(type, position)``; ops not listed
#: ack with ``None``.  A ``position`` names the message list the reply
#: answers entry by entry (``add``: one local tid per wire; ``slevel``:
#: one hit list per payload), so the reply must match its length: the
#: parent zips the two, and a short reply would silently drop entries.
#: The parent validates every gathered reply against this table so a
#: corrupted (or truncated) reply becomes a typed ``WorkerCorruption``
#: feeding the recovery path, never a downstream ``TypeError`` operating
#: on junk.
_REPLY_SHAPES: dict[str, tuple[type, int | None]] = {
    "add": (list, 1),
    "slevel": (list, 2),
    "stats": (dict, None),
}


def _reply_shape_ok(message: tuple, reply) -> bool:
    shape = _REPLY_SHAPES.get(message[0])
    if shape is None:
        return reply is None
    expected, position = shape
    if not isinstance(reply, expected):
        return False
    return position is None or len(reply) == len(message[position])


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
        One mining level: parallel lists per pattern, ``bounds`` being
        shard-local early-abort thresholds.  Each ``payloads[i]`` is
        ``(wire, tid_buffer)``: the pattern's :class:`CompactGraph` wire
        and its shard-local scan set as a flat bitset byte buffer.
        Anchors stay in this shard's engine, filed under each pattern's
        uid and extended through ``parent_uids`` / ``extensions`` — only
        those small tokens cross the pipe, never embeddings.
        ``evictions`` (parent-retired uids, piggybacked here instead of
        costing their own round trip) drop their anchors first.  Reply
        with one ascending local-tid hit list per pattern.
    ``("sevict", uids)``
        Retire *uids*' anchors; ack with ``None`` (the session's
        close-time flush).
    ``("stats",)``
        Reply with the shard engine's counters
        (:meth:`~repro.graphs.engine.EngineStats.as_dict`).
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

    def __init__(self) -> None:
        self.table = LabelTable()
        self.engine = MatchEngine(self.table)
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
        self._obs_shipped = self.engine.stats.as_dict()

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
        snapshot = self.engine.stats.as_dict()
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

    def _op_slevel(self, message: tuple) -> list[list[int]]:
        _, evictions, payloads, uids, parent_uids, extensions, bounds = message
        if evictions:
            self.engine.drop_anchors(evictions)
        table = self.table
        tasks = [
            EmbeddingTask(
                pattern=CompactGraph.from_wire(wire, table),
                tids=tids_from_buffer(tid_buffer),
                uid=uid,
                parent_uid=parent_uid,
                extension=extension,
                abort_below=bound,
            )
            for (wire, tid_buffer), uid, parent_uid, extension, bound in zip(
                payloads, uids, parent_uids, extensions, bounds
            )
        ]
        return self.engine.support_with_embeddings(tasks)

    def _op_sevict(self, message: tuple) -> None:
        self.engine.drop_anchors(message[1])

    def _op_stats(self, message: tuple) -> dict[str, int]:
        return self.engine.stats.as_dict()


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
        A NaN timeout on the process backend raises ``ValueError`` here,
        before any worker starts.

    A dead worker is respawned up to :data:`RECOVERY_RETRIES` times, with
    exponential backoff from :data:`RECOVERY_BACKOFF` seconds, before its
    shard degrades to in-process execution.
    """

    def __init__(
        self,
        shards: int = 2,
        backend: str | None = None,
        faults: "FaultPlan | str | None" = None,
        worker_timeout: float | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.n_shards = shards
        self.backend = resolve_backend(backend)
        self.table = LabelTable()
        self.planner = BatchSupportPlanner(shards)
        self._placement = PlacementPolicy(shards)
        self._wire_bytes = 0
        self._pool = make_pool(
            self.backend, shards, ShardWorker, worker_timeout=worker_timeout
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
        spans and engine counter deltas ship piggybacked on the replies
        the parent already gathers.  Called automatically at
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

    def _receive(self, shard: int, message: tuple):
        """One recv + obs unwrap + shape validation of *shard*'s reply to *message*."""
        reply = self._pool.recv(shard)
        if type(reply) is tuple and len(reply) == 4 and reply[0] == _OBS_REPLY:
            _, reply, spans, delta = reply
            self._absorb_worker_obs(shard, spans, delta)
        if not _reply_shape_ok(message, reply):
            op = message[0]
            size = f" of length {len(reply)}" if isinstance(reply, list) else ""
            raise WorkerCorruption(
                shard,
                reason=f"malformed reply {type(reply).__name__}{size} for op {op!r}",
                last_op=op,
            )
        return reply

    def _call(self, shard: int, message: tuple):
        """Post *message* to *shard* and receive its validated reply."""
        self._post(shard, message)
        return self._receive(shard, message)

    def _rebuild_shard(self, shard: int, rearm: bool) -> None:
        """Make a fresh worker an exact replica of the lost shard.

        Determinism rests on shard state being a pure function of the
        message history: full label snapshot, the retained wires in
        registration order (identical local tids fall out), the released
        set.  Anchors are *not* rebuilt: the fresh worker's candidates
        fall back to full search, which returns the same verdicts.
        """
        self._synced[shard] = 0
        sync = self._send_sync(shard)
        if sync is not None:
            self._receive(shard, sync)
        wires = self._shard_wires[shard]
        if wires:
            locals_ = self._call(shard, ("add", wires))
            if list(locals_) != list(range(len(wires))):
                raise WorkerCorruption(
                    shard,
                    reason="rebuild assigned unexpected local tids",
                    last_op="add",
                )
        released = self._shard_released[shard]
        if released:
            self._call(shard, ("release", sorted(released)))
        if self._tracer is not NULL_TRACER:
            self._call(shard, ("trace", shard, time.time()))
        if rearm and self.faults is not None:
            sticky = self.faults.sticky_only()
            if sticky:
                self._call(
                    shard, ("faults", shard, sticky.to_spec(), self.backend == "serial")
                )

    def _rebuild_and_replay(self, shard: int, rearm: bool):
        self._rebuild_shard(shard, rearm)
        message = self._round_message.get(shard)
        if message is None:
            # Death outside any round (nothing in flight): rebuilt, done.
            return None
        return self._call(shard, message)

    def _recover_shard(self, shard: int, death: WorkerDeath):
        """Respawn → rebuild → replay with bounded retries, degrade last.

        Returns the replayed reply for the in-flight message (or ``None``
        when nothing was in flight).  Raises only when even in-process
        execution fails — at that point the failure is a handler bug and
        surfaces as the usual :class:`WorkerError`.
        """
        op = self._round_message.get(shard, (None,))[0]
        tracer = self._tracer
        span = tracer.span(
            "runtime.recovery", shard=shard, op=op or "idle", reason=death.reason
        )
        attempt = 0
        degraded = False
        while True:
            if attempt < RECOVERY_RETRIES:
                if attempt:
                    time.sleep(RECOVERY_BACKOFF * (2 ** (attempt - 1)))
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

        The running totals the weighted placement policy levels.  They
        change only in :meth:`add_transactions`.
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

    def _send_sync(self, shard: int) -> tuple | None:
        """Send the replica's missing label delta; the message if a reply is due."""
        delta = self.table.snapshot(self._synced[shard])
        if not delta:
            return None
        message = ("labels", delta)
        self._post(shard, message)
        self._synced[shard] = len(self.table)
        return message

    def _scatter(
        self, messages: Sequence[tuple[int, tuple]]
    ) -> list[tuple[int, list[tuple]]]:
        """Post every (shard, message) — label sync included — sending all
        before the caller receives anything; returns the recv plan: per
        shard, the messages whose replies are due, in send order.

        The round's messages are remembered so a shard that dies before
        replying can be replayed, unchanged, after its rebuild.
        """
        self._round_message = {}
        pending: list[tuple[int, list[tuple]]] = []
        for shard, message in messages:
            sync = self._send_sync(shard)
            self._post(shard, message)
            self._round_message[shard] = message
            pending.append((shard, [message] if sync is None else [sync, message]))
        return pending

    def _gather(self, pending: Sequence[tuple[int, list[tuple]]]) -> dict[int, Any]:
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
        for shard, sent in pending:
            for message in sent:
                try:
                    reply = self._receive(shard, message)
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
        with self._tracer.span("runtime.add", transactions=len(transactions)):
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
            # Send everything first so process workers decode concurrently.
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

    Each level ships as one ``slevel`` message per shard that owns any of
    the level's candidate transactions, every candidate as its full
    compact wire.  What a shard keeps between levels is anchors only,
    filed under the candidate uids it scanned; the session tracks, per
    shard, the uids shipped there and not yet evicted.

    Miner-driven evictions (:meth:`evict`) are queued only for the shards
    where the uid is live, and ride on the next level message to each
    shard — retired uids are never referenced again, so the laziness
    trades a broadcast round trip per level for a little shard memory.
    :meth:`close` flushes whatever is left with ``sevict``.
    """

    def __init__(self, runtime: ShardedEngine) -> None:
        super().__init__()
        self._runtime = runtime
        #: Per shard, the uids shipped there and not yet evicted.
        self._live: list[set] = [set() for _ in range(runtime.n_shards)]
        self._pending_evict: list[list] = [[] for _ in range(runtime.n_shards)]
        #: Levels served so far; the miner primes level 1 first, so call
        #: N is mining level N — what worker spans get stamped with.
        self._level = 0
        self._closed = False

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
        with runtime._tracer.span("runtime.plan", level=self._level):
            batches = runtime.planner.plan_session_level(
                requests, runtime.table, runtime.locate, min_support
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
            self._live[batch.shard].update(batch.uids)
        # Placement skew across every shard, idle shards included: the
        # level's per-shard scan workload as the planner routed it.
        scan_units = [batch.scan_tids for batch in batches]
        telemetry["shard_scan_max"] = max(scan_units)
        telemetry["shard_scan_min"] = min(scan_units)

        wire_before = runtime.wire_bytes_shipped
        replies = runtime._gather(runtime._scatter(messages))
        telemetry["wire_bytes"] += runtime.wire_bytes_shipped - wire_before
        runtime.drain_worker_spans(level=self._level)
        return runtime.planner.merge_level(
            len(requests),
            batches,
            [replies.get(batch.shard) for batch in batches],
            runtime.to_global,
        )

    def evict(self, uids: Iterable[object]) -> None:
        uid_list = list(uids)
        for live, pending in zip(self._live, self._pending_evict):
            # Only shards that scanned a uid can hold its anchors; uids
            # the planner never shipped anywhere cost zero wire.
            for uid in uid_list:
                if uid in live:
                    live.discard(uid)
                    pending.append(uid)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        runtime = self._runtime
        messages: list[tuple[int, tuple]] = []
        for shard, (live, pending) in enumerate(zip(self._live, self._pending_evict)):
            uids = pending + sorted(live)
            if uids:
                messages.append((shard, ("sevict", uids)))
        if messages and not getattr(runtime, "_closed", True):
            runtime._gather(runtime._scatter(messages))
            runtime.drain_worker_spans()
