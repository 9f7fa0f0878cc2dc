"""Worker pools for the sharded mining runtime.

A :class:`WorkerPool` runs one message *handler* per worker under a simple
request/response protocol: every :meth:`~WorkerPool.send` to a worker must
be matched by exactly one :meth:`~WorkerPool.recv` from it, and messages
to one worker are processed in order.  The split into ``send`` / ``recv``
is what buys parallelism with the process backend — the caller sends to
every shard first and only then starts collecting replies, so all workers
compute concurrently.

Two backends implement the protocol:

* :class:`SerialBackend` — handlers run inline in the calling process.
  Same message flow, same wire encoding discipline at the layer above, no
  concurrency: the determinism / debugging backend.
* :class:`ProcessBackend` — one daemon ``multiprocessing`` process per
  worker, connected by a pipe.  Handler exceptions are caught in the
  worker, shipped back as a tagged traceback, and re-raised in the parent
  as :class:`WorkerError`.

Handlers are created *inside* each worker from a picklable zero-argument
factory (a class or function), so process workers never receive parent
state except through messages.

The failure contract distinguishes two layers:

* :class:`WorkerError` — the *handler* raised; the worker itself is fine
  and keeps serving messages.  Raised at :meth:`~WorkerPool.recv` with
  the remote traceback.
* :class:`WorkerDeath` — the *worker* is gone or unresponsive: its
  process exited (``EOFError`` / ``BrokenPipeError`` / a dead
  ``Process``), or no reply arrived within the ``REPRO_WORKER_TIMEOUT``
  deadline (``hung=True``).  A dead worker never deadlocks the parent:
  :meth:`ProcessBackend.recv` polls with a deadline instead of blocking
  bare.  The supervisor in :mod:`repro.runtime.shards` catches
  :class:`WorkerDeath`, respawns via :meth:`~WorkerPool.respawn`, and —
  after retry exhaustion — falls back to :meth:`~WorkerPool.degrade`,
  which replaces the worker with an in-process handler so the run always
  completes.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import traceback
from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Callable

from .collector import raise_worker_threshold
from .faults import SimulatedWorkerDeath
from .wire import BLOB_OP

#: Tag for replies carrying a worker-side exception.
_ERROR = "__worker_error__"
#: Message asking a worker's main loop to exit.
_STOP = "__stop__"
#: Serial-backend queue marker standing in for a reply that will never
#: arrive because the (simulated) worker died.
_DEATH = "__worker_death__"

#: Environment variable bounding how long the parent waits for a reply.
WORKER_TIMEOUT_ENV = "REPRO_WORKER_TIMEOUT"

#: Default reply deadline for the process backend, in seconds.  Generous —
#: it only has to beat "forever", the pre-supervision behaviour of a
#: blocking ``recv`` on a hung worker.  Set ``REPRO_WORKER_TIMEOUT=0`` to
#: disable, or lower it (chaos CI uses ~10s) to detect hangs quickly.
DEFAULT_WORKER_TIMEOUT = 300.0

#: How often the deadline poll wakes up to check the worker's pulse.
_POLL_INTERVAL = 0.05

class WorkerError(RuntimeError):
    """A handler raised inside a worker; carries the remote traceback."""


class WorkerDeath(RuntimeError):
    """A worker stopped serving: process gone, pipe closed, or deadline hit.

    Distinct from :class:`WorkerError` (handler bug, worker alive): death
    means the reply will never arrive and any shard state the worker held
    is lost.  Carries enough context for the supervisor and for error
    messages: ``worker`` (shard id), ``last_op`` (op of the most recent
    message sent to it), ``reason``, and ``hung`` (``True`` when the
    worker may still be running but missed the reply deadline).
    """

    def __init__(
        self,
        worker: int,
        reason: str,
        last_op: str | None = None,
        hung: bool = False,
    ) -> None:
        op = "none" if last_op is None else repr(last_op)
        super().__init__(
            f"worker {worker} {'hung' if hung else 'died'} "
            f"(last op {op}): {reason}"
        )
        self.worker = worker
        self.reason = reason
        self.last_op = last_op
        self.hung = hung


class WorkerCorruption(WorkerDeath):
    """A worker returned a malformed reply for the op it was sent.

    Treated as a death, not a handler error: a reply that fails shape
    validation means the worker's state can no longer be trusted, so the
    recovery path (respawn + rebuild + replay) is the only safe answer.
    """


def resolve_worker_timeout(
    timeout: float | None = None,
    default: float | None = DEFAULT_WORKER_TIMEOUT,
) -> float | None:
    """Normalise the reply deadline: ``None`` → env → *default*; ≤0 → off.

    NaN is rejected rather than passed on: ``time.monotonic() >= nan``
    is never true, so a NaN deadline would silently turn hang detection
    off.
    """
    knob = "worker_timeout"
    if timeout is None:
        raw = os.environ.get(WORKER_TIMEOUT_ENV, "").strip()
        if not raw:
            return default
        knob, timeout = WORKER_TIMEOUT_ENV, raw
    try:
        seconds = float(timeout)
    except ValueError:
        seconds = math.nan
    if math.isnan(seconds):
        raise ValueError(f"{knob}={timeout!r} is not a number of seconds")
    return None if seconds <= 0 else seconds


def _raise_if_error(worker: int, reply):
    """Re-raise a tagged error reply as :class:`WorkerError`; pass others.

    Shared by both backends so a handler failure surfaces identically —
    at :meth:`WorkerPool.recv` time, wrapped with the handler-side
    traceback — whether the handler ran inline or in a worker process.
    The deferred raise is what keeps scatter/gather dispatch safe: every
    queued send still gets its matching recv, so one failing shard can
    never leave another shard's reply stranded in a pipe.
    """
    if isinstance(reply, tuple) and len(reply) == 2 and reply[0] == _ERROR:
        raise WorkerError(f"worker {worker} failed:\n{reply[1]}")
    return reply


class WorkerPool(ABC):
    """N workers, each running one handler under send/recv message passing."""

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError(f"a worker pool needs at least one worker, got {n_workers}")
        self.n_workers = n_workers
        self._closed = False

    @abstractmethod
    def send(self, worker: int, message: tuple) -> None:
        """Queue *message* for *worker* (returns immediately)."""

    @abstractmethod
    def recv(self, worker: int) -> Any:
        """The reply to the oldest unanswered :meth:`send` to *worker*."""

    def respawn(self, worker: int) -> None:
        """Replace *worker* with a fresh, empty one; pending replies are lost."""
        raise NotImplementedError

    def degrade(self, worker: int) -> None:
        """Permanently replace *worker* with an in-process inline handler.

        The last resort after respawn retries are exhausted: correctness
        over parallelism.  The slot keeps honouring the send/recv
        protocol, it just executes serially in the caller.
        """
        raise NotImplementedError

    def is_degraded(self, worker: int) -> bool:
        return False

    def call(self, worker: int, message: tuple) -> Any:
        """Send and wait for the reply."""
        self.send(worker, message)
        return self.recv(worker)

    def broadcast(self, message: tuple) -> list[Any]:
        """Send *message* to every worker, then collect every reply."""
        for worker in range(self.n_workers):
            self.send(worker, message)
        return [self.recv(worker) for worker in range(self.n_workers)]

    def close(self) -> None:
        """Shut every worker down; idempotent."""
        self._closed = True

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(WorkerPool):
    """In-process pool: handlers execute inline at :meth:`send` time.

    Handler exceptions are captured as tagged error replies and re-raised
    at :meth:`recv` as :class:`WorkerError` — the same failure contract
    as the process backend, so callers (and tests) exercise one error
    path whichever backend is under them.

    Injected deaths (:class:`~repro.runtime.faults.SimulatedWorkerDeath`)
    mark the slot dead: the triggering send and every later send to the
    slot queue a death marker instead of running the handler, and the
    matching :meth:`recv` raises :class:`WorkerDeath` — mirroring how a
    dead process answers nothing until it is respawned.
    """

    def __init__(self, n_workers: int, handler_factory: Callable[[], Callable[[tuple], Any]]) -> None:
        super().__init__(n_workers)
        self._factory = handler_factory
        self._handlers = [handler_factory() for _ in range(n_workers)]
        self._replies: list[deque] = [deque() for _ in range(n_workers)]
        self._dead: list[str | None] = [None] * n_workers

    def send(self, worker: int, message: tuple) -> None:
        if self._closed:
            raise RuntimeError("pool is closed")
        op = message[0] if message else None
        if self._dead[worker] is not None:
            self._replies[worker].append((_DEATH, self._dead[worker], op))
            return
        try:
            reply = self._handlers[worker](message)
        except SimulatedWorkerDeath as death:
            self._dead[worker] = str(death) or "simulated worker death"
            self._replies[worker].append((_DEATH, self._dead[worker], op))
            return
        except Exception:
            # Exception, not BaseException: handlers run inline here, so
            # a KeyboardInterrupt/SystemExit must stop the caller now,
            # not resurface later as a shard failure.  (The process
            # worker's loop does catch BaseException — there the worker
            # is isolated and the parent must still get a reply.)
            reply = (_ERROR, traceback.format_exc())
        self._replies[worker].append(reply)

    def recv(self, worker: int) -> Any:
        reply = self._replies[worker].popleft()
        if isinstance(reply, tuple) and len(reply) == 3 and reply[0] == _DEATH:
            raise WorkerDeath(worker, reason=reply[1], last_op=reply[2])
        return _raise_if_error(worker, reply)

    def respawn(self, worker: int) -> None:
        self._handlers[worker] = self._factory()
        self._replies[worker].clear()
        self._dead[worker] = None

    def degrade(self, worker: int) -> None:
        # Already in-process; a degraded serial slot is just a fresh one.
        self.respawn(worker)


def _worker_main(connection, handler_factory) -> None:
    """Entry point of a process worker: build the handler, serve the pipe.

    A worker's heap grows with its shard's anchors much as a mine's does,
    so it keeps full collections rare for its whole life
    (:func:`~repro.runtime.collector.raise_worker_threshold`).  Only
    process workers run this: inline and degraded slots leave the
    parent's thresholds alone.
    """
    raise_worker_threshold()
    handler = handler_factory()
    while True:
        try:
            message = connection.recv()
        except EOFError:
            break
        if message == (_STOP,):
            break
        try:
            reply = handler(message)
        except BaseException:
            reply = (_ERROR, traceback.format_exc())
        try:
            connection.send(reply)
        except BrokenPipeError:
            break
    connection.close()


class ProcessBackend(WorkerPool):
    """One daemon process per worker, pipes for transport.

    ``fork`` is preferred when the platform offers it (no re-import, the
    cheapest start); otherwise the context default (``spawn``) is used, for
    which *handler_factory* must be importable, not a closure.

    :meth:`recv` never blocks bare on the pipe: it polls in short slices
    against an optional deadline (*timeout*, default
    ``REPRO_WORKER_TIMEOUT`` or :data:`DEFAULT_WORKER_TIMEOUT`), checking
    the worker's pulse each wakeup, and raises :class:`WorkerDeath` when
    the process is gone or the deadline expires — a silently killed
    worker costs one poll interval, not a hang.
    """

    def __init__(
        self,
        n_workers: int,
        handler_factory: Callable[[], Callable[[tuple], Any]],
        start_method: str | None = None,
        timeout: float | None = None,
    ) -> None:
        super().__init__(n_workers)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else None
        self._context = multiprocessing.get_context(start_method)
        self._factory = handler_factory
        self._timeout = resolve_worker_timeout(timeout)
        self._connections: list[Any] = [None] * n_workers
        self._processes: list[Any] = [None] * n_workers
        self._last_op: list[str | None] = [None] * n_workers
        self._inline: dict[int, Callable[[tuple], Any]] = {}
        self._inline_replies: dict[int, deque] = {}
        for worker in range(n_workers):
            self._spawn(worker)

    def _spawn(self, worker: int) -> None:
        parent_end, worker_end = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(worker_end, self._factory),
            daemon=True,
        )
        process.start()
        worker_end.close()
        self._connections[worker] = parent_end
        self._processes[worker] = process

    @staticmethod
    def _reap(process, connection) -> None:
        """Stop one worker process hard: terminate, then kill, then close."""
        if process.is_alive():
            process.terminate()
            process.join(timeout=2)
        if process.is_alive():  # pragma: no cover - SIGTERM-immune worker
            process.kill()
            process.join(timeout=2)
        try:
            connection.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def worker_pid(self, worker: int) -> int | None:
        """The worker's process id (``None`` for a degraded slot)."""
        if worker in self._inline:
            return None
        return self._processes[worker].pid

    def send(self, worker: int, message: tuple) -> None:
        if self._closed:
            raise RuntimeError("pool is closed")
        op = message[0] if message else None
        if op == BLOB_OP and len(message) >= 2:
            op = message[1]  # death reports should name the inner op
        self._last_op[worker] = op
        if worker in self._inline:
            try:
                reply = self._inline[worker](message)
            except Exception:
                reply = (_ERROR, traceback.format_exc())
            self._inline_replies[worker].append(reply)
            return
        try:
            self._connections[worker].send(message)
        except (BrokenPipeError, OSError):
            # Swallow: callers scatter to every shard before collecting
            # any reply, so the death must surface at recv (where the
            # supervisor handles it), not here mid-scatter.
            pass

    def recv(self, worker: int) -> Any:
        if worker in self._inline:
            return _raise_if_error(worker, self._inline_replies[worker].popleft())
        connection = self._connections[worker]
        process = self._processes[worker]
        timeout = self._timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        suspect = False
        while True:
            if connection.poll(_POLL_INTERVAL):
                try:
                    reply = connection.recv()
                except (EOFError, OSError) as error:
                    raise WorkerDeath(
                        worker,
                        reason=f"connection closed ({type(error).__name__}), "
                        f"exitcode {process.exitcode}",
                        last_op=self._last_op[worker],
                    ) from None
                return _raise_if_error(worker, reply)
            if not process.is_alive():
                if not suspect:
                    # One grace lap: the reply may have been written just
                    # before the process exited and still sit in the pipe.
                    suspect = True
                    continue
                raise WorkerDeath(
                    worker,
                    reason=f"worker process died (exitcode {process.exitcode})",
                    last_op=self._last_op[worker],
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise WorkerDeath(
                    worker,
                    reason=f"no reply within {timeout:g}s",
                    last_op=self._last_op[worker],
                    hung=True,
                )

    def respawn(self, worker: int) -> None:
        if worker in self._inline:
            self._inline[worker] = self._factory()
            self._inline_replies[worker].clear()
            return
        # Closing the old pipe discards any stale buffered replies, so a
        # respawned slot can never answer a new send with an old reply.
        self._reap(self._processes[worker], self._connections[worker])
        self._spawn(worker)
        self._last_op[worker] = None

    def degrade(self, worker: int) -> None:
        if worker in self._inline:
            self.respawn(worker)
            return
        self._reap(self._processes[worker], self._connections[worker])
        self._inline[worker] = self._factory()
        self._inline_replies[worker] = deque()

    def is_degraded(self, worker: int) -> bool:
        return worker in self._inline

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        for worker, connection in enumerate(self._connections):
            if worker in self._inline:
                continue
            try:
                connection.send((_STOP,))
            except (BrokenPipeError, OSError):
                pass
        for worker, process in enumerate(self._processes):
            if worker in self._inline:
                continue
            process.join(timeout=5)
            if process.is_alive():
                # Hung-worker fallback, escalating: SIGTERM first, SIGKILL
                # for workers that ignore it — close() must always return.
                process.terminate()
                process.join(timeout=2)
            if process.is_alive():
                process.kill()
                process.join(timeout=2)
        for worker, connection in enumerate(self._connections):
            if worker in self._inline:
                continue
            connection.close()
        self._inline.clear()
        self._inline_replies.clear()


def make_pool(
    backend: str,
    n_workers: int,
    handler_factory: Callable[[], Callable[[tuple], Any]],
    worker_timeout: float | None = None,
) -> WorkerPool:
    """Construct the pool for *backend* (``serial`` or ``process``)."""
    if backend == "serial":
        return SerialBackend(n_workers, handler_factory)
    if backend == "process":
        return ProcessBackend(n_workers, handler_factory, timeout=worker_timeout)
    raise ValueError(f"unknown worker-pool backend {backend!r}")


__all__ = [
    "DEFAULT_WORKER_TIMEOUT",
    "WORKER_TIMEOUT_ENV",
    "WorkerCorruption",
    "WorkerDeath",
    "WorkerError",
    "WorkerPool",
    "SerialBackend",
    "ProcessBackend",
    "make_pool",
    "resolve_worker_timeout",
]
