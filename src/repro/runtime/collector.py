"""The cyclic collector's thresholds during mining, in the parent and in shard workers.

A full (gen-2) collection walks the whole heap, and a mine keeps growing
that heap, so at the default thresholds a 3000-transaction mine pays for
several full collections.  Two places raise the third threshold by
:data:`FULL_COLLECTION_FACTOR`:

* :func:`rare_full_collections` around each
  :meth:`~repro.mining.fsg.miner.FSGMiner.mine`, restoring the caller's
  thresholds on exit;
* :func:`raise_worker_threshold` once at the start of each process shard
  worker (:mod:`repro.runtime.pool`), for the worker's life.

Young collections keep their thresholds, so cyclic garbage stays
bounded.  A collector the caller disabled stays disabled; only
thresholds change.  This is the one module that calls
``gc.set_threshold``.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager

#: Factor on the cyclic collector's third (gen-2) threshold while a mine
#: runs, and in every process shard worker.
FULL_COLLECTION_FACTOR = 10

#: Guard of the process-wide thresholds: overlapping mines (threads or
#: nesting) count their depth, and the first one's saved thresholds come
#: back when the last one exits.
_collector_lock = threading.Lock()
_collector_depth = 0
_collector_saved: tuple[int, ...] = ()


def _raised(thresholds: tuple[int, ...]) -> tuple[int, int, int]:
    young, middle, full = thresholds
    return young, middle, full * FULL_COLLECTION_FACTOR


@contextmanager
def rare_full_collections():
    """Multiply the gen-2 threshold by :data:`FULL_COLLECTION_FACTOR` for
    the block, then restore the caller's thresholds.

    Thresholds are process-wide: every thread sees the raised value while
    any block runs.
    """
    global _collector_depth, _collector_saved
    with _collector_lock:
        if _collector_depth == 0:
            _collector_saved = gc.get_threshold()
            gc.set_threshold(*_raised(_collector_saved))
        _collector_depth += 1
    try:
        yield
    finally:
        with _collector_lock:
            _collector_depth -= 1
            if _collector_depth == 0:
                gc.set_threshold(*_collector_saved)


def raise_worker_threshold() -> None:
    """Raise this worker process's gen-2 threshold by the factor, once.

    The raise starts from the thresholds the parent had outside any mine:
    a worker forked inside :func:`rare_full_collections` inherits the
    raised thresholds together with the saved ones, and raises from the
    saved ones, so a recovery respawn during a mine is not raised twice.
    A forked worker has one thread, so the guard's lock is not taken (a
    fork may have copied it held).
    """
    base = _collector_saved if _collector_depth else gc.get_threshold()
    gc.set_threshold(*_raised(base))


__all__ = [
    "FULL_COLLECTION_FACTOR",
    "raise_worker_threshold",
    "rare_full_collections",
]
