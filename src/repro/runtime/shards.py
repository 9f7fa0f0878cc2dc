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

Shards file their transactions under the runtime's global tids, and the
parent keeps one ownership bitset per shard, so planning a level and
merging its replies are bitset ANDs and ORs with no per-tid translation.

Level-wise mining runs through a **mining session**
(:class:`ShardedSession`, opened with :meth:`ShardedEngine.open_session`):
each level is one ``slevel`` message per shard, carrying every candidate
the shard must scan as its full compact wire plus the uid / parent uid /
extension tokens that address the shard's embedding store.  Each shard
aborts a scan against its share of the support threshold; the rare
candidate those shares leave undecided is settled by at most one
``sresolve`` message per shard.  Anchors are the only state a shard
keeps between levels; the miner's evictions of retired uids ride on the
next level message to the shards that hold them.

Dispatch is scatter/gather throughout: every per-level message is sent to
every shard before any reply is received, so shard compute genuinely
overlaps under the process backend, and replies are always fully drained
before a worker error is re-raised — a failing shard can never leave the
pipes desynchronised.

Every reply, control replies included, is one frame ``(reply, spans,
delta)``: the op's answer, the worker's finished spans (empty unless the
worker is traced) and its engine's counter change since its previous
reply.  The parent adds each delta to totals it keeps, so
:meth:`ShardedEngine.stats` costs no round trip, keeps the counts a dead
worker already shipped, and still answers after ``close()``.

The shard side is :class:`ShardWorker`, a picklable message handler that
runs identically under both worker-pool backends (inline for ``serial``,
in a daemon process for ``process``) — the backend choice can change
wall-clock, never output.

Worker failure is survivable: when a gather hits a
:class:`~repro.runtime.pool.WorkerDeath` (process gone, reply deadline
missed, or a malformed reply), the engine's supervisor respawns the
worker with bounded retries and exponential backoff, deterministically
rebuilds the shard — full label-table snapshot, the live transactions'
wires under their global tids in registration order, then tracing and
sticky fault clauses — replays the in-flight message for that shard
only, and after retry exhaustion degrades the slot to in-process serial
execution.
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

from repro.graphs.compact import CompactGraph, LabelTable, labeled_to_wire
from repro.graphs.engine import EmbeddingTask, EngineStats, MatchEngine
from repro.graphs.labeled_graph import LabeledGraph
from repro.obs.tracer import NULL_TRACER, NullTracer, SpanRecord, Tracer, get_tracer
from repro.runtime.base import LevelRequest, MiningRuntime, MiningSession, resolve_backend
from repro.runtime.bitsets import bits_of, tids_from_buffer, tids_of
from repro.runtime.faults import FaultPlan, compile_injector, resolve_faults
from repro.runtime.planner import BatchSupportPlanner, PlacementPolicy
from repro.runtime.pool import WorkerCorruption, WorkerDeath, WorkerError, make_pool
from repro.runtime.wire import BLOB_OP, SHARD_OPS, decode_message, encode_message

#: The per-level scan ops: a level's ``slevel`` message and the
#: ``sresolve`` message of its resolve round.  A death during either is
#: replayed and counted as a level replay.
_LEVEL_SCAN_OPS = ("slevel", "sresolve")

#: Worker span names that time per-level messages; the parent stamps
#: these with the mining level when it drains them (other worker spans —
#: add/release/sevict — are level-free and left unstamped).
_LEVELED_WORKER_SPANS = frozenset(f"shard.{op}" for op in _LEVEL_SCAN_OPS)

#: Respawn attempts before a dead shard degrades to in-process execution.
RECOVERY_RETRIES = 2
#: Base delay in seconds of the exponential backoff between respawn attempts.
RECOVERY_BACKOFF = 0.1


#: Per listing op, the position of the message list its reply answers
#: entry by entry (``add``: one registered tid per tid sent; ``slevel`` /
#: ``sresolve``: one hit list per payload); the reply must be a list of
#: the same length, because the parent zips the two and a short reply
#: would silently drop entries.  Ops not listed ack with ``None``.
#: The parent validates every gathered reply against this table so a
#: corrupted (or truncated) reply becomes a typed ``WorkerCorruption``
#: feeding the recovery path, never a downstream ``TypeError`` operating
#: on junk.
_REPLY_SHAPES: dict[str, int] = {"add": 1, "slevel": 2, "sresolve": 2}


def _reply_shape_ok(message: tuple, reply) -> bool:
    position = _REPLY_SHAPES.get(message[0])
    if position is None:
        return reply is None
    return isinstance(reply, list) and len(reply) == len(message[position])


class ShardWorker:
    """One shard's state and message handler.

    Messages (each answered by exactly one reply; the handled ops are
    :data:`~repro.runtime.wire.SHARD_OPS`, dispatched to ``_op_<op>``):

    ``("labels", labels)``
        Append the parent table's delta to the replica; ack with ``None``.
    ``("add", tids, wires)``
        Register transactions from wire tuples under their global
        *tids*; reply with the tids registered.
    ``("release", tids)``
        Drop transaction references; ack with ``None``.
    ``("slevel", evictions, payloads, uids, parent_uids, extensions, bounds)``
        One mining level: parallel lists per pattern, ``bounds`` being
        this shard's early-abort thresholds.  Each ``payloads[i]`` is
        ``(wire, (offset, buffer))``: the pattern's :class:`CompactGraph`
        wire and its scan set on this shard as a global-tid bitset
        buffer with ``offset`` leading zero bytes left out.  Anchors stay
        in this shard's engine, filed under each pattern's uid and
        extended through ``parent_uids`` / ``extensions`` — only those
        small tokens cross the pipe, never embeddings.  ``evictions``
        (parent-retired uids, piggybacked here instead of costing their
        own round trip) drop their anchors first.  Reply with one
        ascending global-tid hit list per pattern.
    ``("sresolve", evictions, payloads, uids, parent_uids, extensions, bounds)``
        A level's resolve round: the same shape and the same handler as
        ``slevel``, rescanning patterns whose first-round reply was
        short.  A separate op only so that the fault harness's
        ``level=`` counter keeps naming the mining level.
    ``("sevict", uids)``
        Retire *uids*' anchors; ack with ``None`` (the session's
        close-time flush).
    ``("trace", shard, wall_anchor)``
        Start this worker's tracer (see :mod:`repro.obs`): *shard* names
        the timeline (``shard0``...), *wall_anchor* aligns the worker
        clock to the parent's.  Ack with ``None``.  From then on every
        message is timed by a span.
    ``("faults", shard, spec, inline)``
        Arm (or, with a falsy *spec*, disarm) this worker's fault
        injector (see :mod:`repro.runtime.faults`); ack with ``None``.
        From then on every non-control message runs through the
        injector's hooks: ``kill`` / ``hang`` clauses fire before the
        handler, ``corrupt-reply`` clauses replace the outgoing frame.
        Control messages (``trace``, ``faults`` itself) are exempt — the
        harness must always be able to reach a worker it is about to
        break.

    Every reply, control replies included, travels as one frame
    ``(reply, spans, delta)``: *reply* is the op's answer above,
    *spans* the worker's finished spans in wire form (empty unless the
    worker is traced) and *delta* the engine's counter change since the
    previous frame, zero entries left out.  The parent validates the
    frame and sums the deltas, so the shard counters reach it one way
    whether or not anything is traced.
    """

    def __init__(self) -> None:
        self.table = LabelTable()
        self.engine = MatchEngine(self.table)
        #: This shard's tracer, installed by a ``("trace", ...)`` message;
        #: the disabled tracer until then, whose spans cost nothing and
        #: ship as an empty list.
        self.tracer: Tracer | NullTracer = NULL_TRACER
        #: The engine's counters as of the previous frame; each frame
        #: ships the change past this point.
        self._shipped = self.engine.stats.as_dict()
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

    def _span_attrs(self, op: str, message: tuple) -> dict:
        """Cheap size attributes for the per-message worker span."""
        if op in _LEVEL_SCAN_OPS:
            return {"patterns": len(message[2]), "evictions": len(message[1])}
        if op == "add":
            return {"patterns": len(message[1])}
        return {}

    def __call__(self, envelope: tuple) -> tuple:
        # Every message arrives as a (BLOB_OP, op, blob) envelope (see
        # ShardedEngine._post); rehydrate it before any hook runs, so
        # fault op/level filters, span names and reply shapes all see
        # the logical message.
        message = decode_message(envelope[2])
        op = message[0]
        reply = faults = None
        if op == "trace":
            self._enable_tracing(message[1], message[2])
        elif op == "faults":
            _, shard, spec, inline = message
            self.faults = compile_injector(spec, shard, inline)
        else:
            faults = self.faults
            if faults is not None:
                faults.on_message(op)
            with self.tracer.span(f"shard.{op}", **self._span_attrs(op, message)):
                reply = self._handle(message, op)
        snapshot = self.engine.stats.as_dict()
        shipped = self._shipped
        self._shipped = snapshot
        frame = (
            reply,
            [record.to_wire() for record in self.tracer.take_spans()],
            {
                key: value - shipped[key]
                for key, value in snapshot.items()
                if value != shipped[key]
            },
        )
        # Corruption applies to what actually crosses the pipe — the
        # whole frame — so the parent's frame validation sees the junk.
        if faults is not None:
            frame = faults.on_reply(op, frame)
        return frame

    def _handle(self, message: tuple, op: str):
        if op not in SHARD_OPS:
            raise ValueError(
                f"unknown shard message {op!r}; expected one of {SHARD_OPS}"
            )
        return getattr(self, f"_op_{op}")(message)

    def _op_labels(self, message: tuple) -> None:
        self.table.extend(message[1])

    def _op_add(self, message: tuple) -> list[int]:
        _, tids, wires = message
        table = self.table
        compacts = [CompactGraph.from_wire(wire, table) for wire in wires]
        return self.engine.add_compact_transactions(compacts, tids)

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
                tids=tids_from_buffer(buffer, offset),
                uid=uid,
                parent_uid=parent_uid,
                extension=extension,
                abort_below=bound,
            )
            for (wire, (offset, buffer)), uid, parent_uid, extension, bound in zip(
                payloads, uids, parent_uids, extensions, bounds
            )
        ]
        return self.engine.support_with_embeddings(tasks)

    _op_sresolve = _op_slevel

    def _op_sevict(self, message: tuple) -> None:
        self.engine.drop_anchors(message[1])


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

    The runtime has one label table, :attr:`table`: it interns the
    transactions, every shard replicates it, and the parent
    :attr:`engine` (candidate dedup, pattern merging) interns through
    it, so a candidate's label ids mean the same on every shard.
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
        #: The parent's engine (candidate dedup, pattern merging),
        #: interning through :attr:`table`.
        self.engine = MatchEngine(self.table)
        self.planner = BatchSupportPlanner(shards)
        self._placement = PlacementPolicy(shards)
        self._wire_bytes = 0
        self._pool = make_pool(
            self.backend, shards, ShardWorker, worker_timeout=worker_timeout
        )
        self._synced = [0] * shards
        #: Per shard, the bitset of the live global tids it holds.
        self._owned = [0] * shards
        self._next_global = 0
        self._closed = False
        #: Recovery state.  ``_shard_wires`` retains each shard's
        #: acknowledged live transactions as ``{global tid: wire}`` in
        #: registration order; a release deletes its entries.  That is
        #: exactly the state a fresh worker needs to become an
        #: indistinguishable replica.
        self.faults = resolve_faults(faults)
        self.recovery = {
            "worker_restarts": 0,
            "level_replays": 0,
            "worker_degradations": 0,
        }
        self._shard_wires: list[dict[int, tuple]] = [{} for _ in range(shards)]
        self._round_message: dict[int, tuple] = {}
        self._degraded: set[int] = set()
        #: The shard engines' counters summed over every reply frame
        #: received, whatever became of the worker that sent it (see
        #: :meth:`stats`).
        self._counters = EngineStats().as_dict()
        #: Observability state: the tracer worker spans and shard counter
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
        (named ``shard0``... and clock-aligned to the parent); its
        finished spans ship in the reply frames the parent already
        gathers, and from then on every frame's counter delta is also
        absorbed into *tracer*'s metrics under ``shard=i``.  Called
        automatically at construction when a process-global tracer is
        active.
        """
        self._tracer = tracer
        anchor = time.time()
        pending = self._scatter(
            [(shard, ("trace", shard, anchor)) for shard in range(self.n_shards)]
        )
        self._gather(pending)

    def drain_worker_spans(self, level: int | None = None) -> None:
        """Forward gathered worker spans to the tracer, stamping *level*.

        Workers cannot know which mining level a message served, but the
        caller that just gathered a level does — the session calls this
        right after each level so per-level shard timings line up in the
        merged trace.  Leveled span names only; add/release/sevict spans
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

    def _receive(self, shard: int, message: tuple):
        """One recv of *shard*'s frame for *message*; returns the op's reply.

        Anything but a ``(reply, spans, delta)`` frame whose reply has
        the op's shape is a :class:`WorkerCorruption`, and nothing of it
        is kept.  A valid frame's delta joins the runtime's counters
        (and, while tracing, the tracer's under ``shard=i``) and its
        spans wait for :meth:`drain_worker_spans`.
        """
        frame = self._pool.recv(shard)
        framed = type(frame) is tuple and len(frame) == 3
        if not (
            framed
            and type(frame[1]) is list
            and type(frame[2]) is dict
            and _reply_shape_ok(message, frame[0])
        ):
            op = message[0]
            shown = frame[0] if framed else frame
            size = f" of length {len(shown)}" if isinstance(shown, list) else ""
            raise WorkerCorruption(
                shard,
                reason=f"malformed reply {type(shown).__name__}{size} for op {op!r}",
                last_op=op,
            )
        reply, spans, delta = frame
        if spans:
            self._worker_spans.extend(SpanRecord.from_wire(wire) for wire in spans)
        if delta:
            counters = self._counters
            for key, value in delta.items():
                counters[key] += value
            self._tracer.metrics.absorb(delta, shard=str(shard))
        return reply

    def _call(self, shard: int, message: tuple):
        """Post *message* to *shard* and receive its validated reply."""
        self._post(shard, message)
        return self._receive(shard, message)

    def _rebuild_shard(self, shard: int, rearm: bool) -> None:
        """Make a fresh worker an exact replica of the lost shard.

        Determinism rests on shard state being a pure function of the
        message history: full label snapshot, then the live transactions
        re-added in one ``add`` under their global tids, in registration
        order.  Released transactions are simply not re-added.  Anchors
        are *not* rebuilt: the fresh worker's candidates fall back to
        full search, which returns the same verdicts.
        """
        self._synced[shard] = 0
        sync = self._send_sync(shard)
        if sync is not None:
            self._receive(shard, sync)
        log = self._shard_wires[shard]
        if log:
            self._call(shard, ("add", list(log), list(log.values())))
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
        if op in _LEVEL_SCAN_OPS:
            self.recovery["level_replays"] += 1
            tracer.metrics.counter("level_replays", shard=str(shard))
        span.finish(attempts=attempt, degraded=degraded)
        return reply

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    @property
    def owned(self) -> tuple[int, ...]:
        """Per shard, the bitset of the live global tids it holds.

        The masks are disjoint; a released tid is in none of them.
        """
        return tuple(self._owned)

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
            table = self.table
            place = self._placement.place
            wires: list[list[tuple]] = [[] for _ in range(self.n_shards)]
            placed: list[list[int]] = [[] for _ in range(self.n_shards)]
            first = self._next_global
            for tid, transaction in enumerate(transactions, start=first):
                wire = labeled_to_wire(transaction, table)
                # Deterministic support-weighted placement: the edge count is
                # the level-1 scan cost a shard pays for hosting the
                # transaction, so levelling it attacks the shard_scan skew
                # that size-skewed corpora showed under static round-robin.
                shard = place(len(wire[2]))
                wires[shard].append(wire)
                placed[shard].append(tid)
            self._next_global = first + len(transactions)
            # Send everything first so process workers decode concurrently.
            pending = self._scatter(
                [
                    (shard, ("add", placed[shard], wires[shard]))
                    for shard in range(self.n_shards)
                    if wires[shard]
                ]
            )
            for shard, registered in self._gather(pending).items():
                if registered != placed[shard]:
                    # Guards cross-process data, so a real error, not an
                    # assert: a wrong correspondence here would silently
                    # map support sets to the wrong transactions.
                    raise RuntimeError(
                        f"shard {shard} registered tids {registered[:8]}..., "
                        f"expected {placed[shard][:8]}..."
                    )
            # Commit ownership and the rebuild log only after the gather,
            # so a recovery *during* this round rebuilds from the
            # pre-round log and the replayed "add" lands exactly once on
            # the fresh worker.
            for shard in range(self.n_shards):
                if wires[shard]:
                    self._owned[shard] |= bits_of(placed[shard])
                    self._shard_wires[shard].update(zip(placed[shard], wires[shard]))
            return list(range(first, self._next_global))

    def release_transactions(self, tids: Iterable[int]) -> None:
        # Validate the whole call before anything is released.
        seen: set[int] = set()
        for tid in tids:
            if not 0 <= tid < self._next_global:
                raise KeyError(f"unknown transaction id {tid}")
            if tid in seen:
                # Same contract as a second release_transactions call.
                raise _released(tid)
            seen.add(tid)
        chosen = bits_of(list(seen))
        live = 0
        for mask in self._owned:
            live |= mask
        stale = chosen & ~live
        if stale:
            raise _released((stale & -stale).bit_length() - 1)
        parts = [chosen & mask for mask in self._owned]
        pending = self._scatter(
            [
                (shard, ("release", tids_of(part)))
                for shard, part in enumerate(parts)
                if part
            ]
        )
        self._gather(pending)
        # Commit only after the gather (same reason as add_transactions:
        # a mid-round recovery must rebuild the pre-round state, then
        # replay the release).
        for shard, part in enumerate(parts):
            if part:
                self._owned[shard] &= ~part
                log = self._shard_wires[shard]
                for tid in tids_of(part):
                    del log[tid]

    def open_session(self) -> MiningSession:
        return ShardedSession(self)

    def stats(self) -> dict[str, int]:
        """The shard engines' summed counters, plus runtime info.

        Read from the totals every reply frame adds to, so it sends no
        message, keeps what a respawned or degraded worker shipped before
        it was lost, and still answers after :meth:`close`.
        """
        return {
            **self._counters,
            "shards": self.n_shards,
            # Counted parent-side, once per posted message.
            "wire_bytes_shipped": self._wire_bytes,
            # Supervisor counters: zero on a healthy run, and the run
            # report's record of every recovery that happened.
            **self.recovery,
        }

    def close(self) -> None:
        # Defensive attribute access throughout: this also runs from
        # __del__ during interpreter teardown, possibly on an instance
        # whose __init__ never finished (e.g. the pool failed to start).
        if getattr(self, "_closed", True):
            return
        self._closed = True
        # Flush any worker spans gathered after the last level drain
        # (close-time evictions) before the pool goes away.
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


def _released(tid: int) -> KeyError:
    """The error a release or query of released transaction *tid* raises."""
    return KeyError(f"transaction {tid} has been released from this runtime")


class ShardedSession(MiningSession):
    """A stateful mining session over a :class:`ShardedEngine`.

    Each level ships as one ``slevel`` message per shard that owns any of
    the level's candidate transactions, every candidate as its full
    compact wire, plus at most one ``sresolve`` message per shard when
    split abort bounds leave a candidate undecided.  What a shard keeps
    between levels is anchors only, filed under the candidate uids it
    scanned; the session tracks, per shard, the uids shipped there and
    not yet evicted.

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
        """One mining level in at most two scatter/gather rounds.

        Round 1 is one ``slevel`` message per shard, each scan bounded by
        the shard's share of *min_support* (see
        :meth:`~repro.runtime.planner.BatchSupportPlanner.plan_session_level`).
        Requests those shares leave undecided are rescanned on their
        short shards in one ``sresolve`` message per shard (see
        :meth:`~repro.runtime.planner.BatchSupportPlanner.plan_resolve`),
        so every request whose merged support reaches *min_support* is
        exact.  Resolved requests are counted once, as the
        ``resolve_requests`` counter.
        """
        if self._closed:
            raise RuntimeError("mining session is closed")
        runtime = self._runtime
        planner = runtime.planner
        telemetry = self._telemetry
        self._level += 1
        with runtime._tracer.span("runtime.plan", level=self._level):
            batches = planner.plan_session_level(requests, runtime._owned, min_support)
        # Placement skew across every shard, idle shards included: the
        # level's per-shard scan workload as the planner routed it.
        scan_units = [batch.scan_tids for batch in batches]
        telemetry["shard_scan_max"] = max(scan_units)
        telemetry["shard_scan_min"] = min(scan_units)

        wire_before = runtime.wire_bytes_shipped
        results = self._scan("slevel", batches)
        merged = planner.merge_level(len(requests), batches, results)
        if min_support is not None:
            rounds = planner.plan_resolve(batches, results, min_support)
            resolved = {position for batch in rounds for position in batch.positions}
            if resolved:
                runtime._tracer.metrics.counter(
                    "resolve_requests", len(resolved), level=str(self._level)
                )
                second = planner.merge_level(
                    len(requests), rounds, self._scan("sresolve", rounds)
                )
                merged = [first | extra for first, extra in zip(merged, second)]
        telemetry["wire_bytes"] += runtime.wire_bytes_shipped - wire_before
        runtime.drain_worker_spans(level=self._level)
        return merged

    def _scan(self, op: str, batches) -> list[list[list[int]] | None]:
        """One scatter/gather round of *op* over the non-empty *batches*.

        Returns each batch's reply (``None`` for an empty batch).  Each
        message carries its shard's queued evictions.
        """
        runtime = self._runtime
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
                        op,
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
        replies = runtime._gather(runtime._scatter(messages))
        return [replies.get(batch.shard) for batch in batches]

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
