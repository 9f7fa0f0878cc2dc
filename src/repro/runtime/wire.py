"""The shard wire: every message to a shard worker is pickled once.

:meth:`ShardedEngine._post <repro.runtime.shards.ShardedEngine._post>`
encodes each logical message with :func:`encode_message`, adds the
blob's length to ``wire_bytes_shipped``, and posts the envelope
``(BLOB_OP, op, blob)``.  The shard worker decodes the blob with
:func:`decode_message` before any fault or trace hook runs, so every op
reaches the handler as the same logical tuple on both pool backends.
The inner op rides outside the blob so pool bookkeeping (death reports
name the op) can read it without decoding.  The process backend's pipe
pickles the envelope again, but a ``bytes`` payload pickles as a plain
copy, so the message itself is serialized exactly once; the byte count
leaves out only the envelope's few bytes of framing.
"""

from __future__ import annotations

import pickle

__all__ = [
    "BLOB_OP",
    "SHARD_OPS",
    "WIRE_PICKLE_PROTOCOL",
    "decode_message",
    "encode_message",
    "resolve_wire",
]

#: Envelope op of every shard message: ``(BLOB_OP, inner_op, blob)``.
BLOB_OP = "__blob__"

#: The ops of the logical shard messages a
#: :class:`~repro.runtime.shards.ShardWorker` handles (its docstring
#: lists their shapes).  The worker dispatches on this tuple, and a fault
#: clause's ``op=`` filter must name one of these ops.  The control
#: messages ``trace`` and ``faults`` are not listed: the worker handles
#: them before any hook runs.  No op reads counters: every reply frame
#: carries the worker's counter delta, so the parent never asks.
SHARD_OPS = ("labels", "add", "release", "slevel", "sresolve", "sevict")

#: Pinned pickle protocol.  Pinning (rather than ``HIGHEST_PROTOCOL``)
#: keeps shipped byte counts stable across interpreter upgrades, so
#: archived telemetry stays comparable.
WIRE_PICKLE_PROTOCOL = 4


def resolve_wire(wire: str | None = None) -> str:
    """The shard wire format, which is always ``"pickle"``.

    Kept only for the benchmark's environment stamp
    (``perfbench/bench.py`` imports it); once that import is dropped,
    this function can go too.  Reads no environment variable.
    """
    return "pickle"


def encode_message(message: tuple) -> bytes:
    """Pickle one logical shard message at :data:`WIRE_PICKLE_PROTOCOL`."""
    return pickle.dumps(message, WIRE_PICKLE_PROTOCOL)


def decode_message(blob: bytes) -> tuple:
    """The logical message an :func:`encode_message` blob carries."""
    return pickle.loads(blob)
