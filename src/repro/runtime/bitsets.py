"""Bitset TID-list algebra.

A supporting-TID set is a set of small dense integers, and the mining
runtime manipulates thousands of them per level: intersecting parent
lists before a scan, unioning shard-local results, and asking "how many
are left" for the early-abort bound.  Representing them as plain Python
ints (bit *i* set ⟺ tid *i* in the set) turns every one of those
operations into a single CPython long-integer op:

* union is ``|``, intersection is ``&``, difference is ``& ~``;
* cardinality is :meth:`int.bit_count` (a popcount, no iteration);
* the empty set is ``0`` and is falsy, like the sets it replaces.

Bitsets are value objects — hashable, picklable as ordinary ints, and
trivially shippable over the runtime's worker pipes.  The helpers here
are the only places that convert between bitsets and explicit tid
collections, so the rest of the code can stay representation-agnostic.
Large conversions unpack through numpy when it is importable; every
helper keeps a pure-python fallback.
"""

from __future__ import annotations

from typing import Iterable

try:  # numpy is optional: every helper keeps a pure-python fallback.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

#: Below these sizes the pure-python paths win (no array setup cost).
_NUMPY_BITS_THRESHOLD = 256
_NUMPY_TIDS_THRESHOLD = 128


def bits_of(tids: Iterable[int]) -> int:
    """The bitset holding exactly the tids in *tids*."""
    if _np is not None and isinstance(tids, _np.ndarray):
        tids = tids.tolist()
    tids = tids if isinstance(tids, (list, tuple)) else list(tids)
    if _np is not None and len(tids) >= _NUMPY_TIDS_THRESHOLD:
        indicator = _np.zeros(max(tids) + 1, dtype=_np.uint8)
        indicator[_np.asarray(tids, dtype=_np.int64)] = 1
        return int.from_bytes(
            _np.packbits(indicator, bitorder="little").tobytes(), "little"
        )
    bits = 0
    for tid in tids:
        bits |= 1 << tid
    return bits


def tids_of(bits: int) -> list[int]:
    """The tids of *bits* in ascending order.

    Small sets peel the lowest set bit per step (cost proportional to the
    population count); large sets unpack through numpy in one pass.
    """
    if _np is not None and bits.bit_length() >= _NUMPY_BITS_THRESHOLD:
        return tids_from_buffer(bits_to_buffer(bits))
    out: list[int] = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def popcount(bits: int) -> int:
    """Number of tids in *bits*."""
    return bits.bit_count()


def shift_bits(bits: int, offset: int) -> int:
    """Add *offset* to every tid of *bits* (*offset* may be negative).

    Used at the miner/runtime boundary to move a set between a run's
    local tid space and the runtime's global one.
    """
    if offset >= 0:
        return bits << offset
    return bits >> -offset


def is_contiguous(tids: "list[int]") -> bool:
    """Whether *tids* is exactly ``base, base+1, ..., base+len-1``.

    Runtimes allocate one run's global tids consecutively, which makes
    local<->global translation a plain shift; the FSG miner checks the
    rule with this.
    """
    if not tids:
        return True
    base = tids[0]
    return all(tid == base + index for index, tid in enumerate(tids))


# ----------------------------------------------------------------------
# Flat byte-buffer wire form
# ----------------------------------------------------------------------
def bits_to_buffer(bits: int) -> bytes:
    """*bits* as a little-endian byte buffer (the runtime wire form).

    The buffer is minimal-length (no trailing zero bytes beyond the
    highest set bit); the empty set is the empty buffer.
    """
    return bits.to_bytes((bits.bit_length() + 7) // 8, "little")


def tids_from_buffer(buffer: bytes, offset: int = 0) -> list[int]:
    """The ascending tids encoded by a :func:`bits_to_buffer` buffer.

    *offset* is a count of leading zero bytes left out of *buffer* (see
    :func:`bits_to_span`): every tid is raised by ``8 * offset``.
    Decodes straight from the buffer — one vectorized unpack when numpy
    is available, never materialising the intermediate int on that path.
    """
    base = 8 * offset
    if _np is not None and len(buffer) >= _NUMPY_BITS_THRESHOLD // 8:
        unpacked = _np.unpackbits(
            _np.frombuffer(buffer, dtype=_np.uint8), bitorder="little"
        )
        tids = _np.flatnonzero(unpacked)
        if base:
            tids += base
        return tids.tolist()
    tids = tids_of(int.from_bytes(buffer, "little"))
    return [tid + base for tid in tids] if base else tids


def bits_to_span(bits: int) -> tuple[int, bytes]:
    """*bits* as ``(offset, buffer)``: its buffer without leading zero bytes.

    ``offset`` counts the whole zero bytes below the lowest set bit, so
    the buffer's size follows the span of the set, not the size of its
    largest tid.  ``tids_from_buffer(buffer, offset)`` decodes it.
    """
    if not bits:
        return 0, b""
    offset = ((bits & -bits).bit_length() - 1) // 8
    return offset, bits_to_buffer(bits >> (8 * offset))


__all__ = [
    "bits_of",
    "tids_of",
    "popcount",
    "shift_bits",
    "is_contiguous",
    "bits_to_buffer",
    "bits_to_span",
    "tids_from_buffer",
]
