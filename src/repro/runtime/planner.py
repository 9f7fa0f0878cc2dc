"""Per-level support planning across shards.

At each FSG level the miner has a batch of surviving candidate patterns,
each with the global transaction ids it could possibly occur in — the
intersection of its parents' supporting sets.  Shards file their
transactions under those global tids, and the parent keeps one ownership
bitset per shard, so the :class:`BatchSupportPlanner` turns the batch
into one task per shard with bitset algebra alone:

* a request's scan set on shard ``s`` is ``tid_bits & owned[s]``, and a
  pattern is only shipped to a shard whose slice is non-empty (a pattern
  whose parents all live elsewhere costs the shard nothing — not even a
  pickle);
* each pattern ships as one :class:`~repro.graphs.compact.CompactGraph`
  wire tuple, built once and shared by all shard tasks that need it;
* each shard gets its share of the support threshold as its early-abort
  bound, and :meth:`BatchSupportPlanner.plan_resolve` plans the one extra
  round that settles what those shares leave undecided.

Merging is an OR because shards partition the transactions: the
per-pattern support set is the disjoint union of the shards' results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.graphs.compact import LabelTable, labeled_to_wire
from repro.runtime.bitsets import bits_of, bits_to_span


class PlacementPolicy:
    """Deterministic, support-weighted tid-to-shard placement.

    Each arriving transaction goes to the currently lightest shard, where
    a transaction's weight is its edge count — the level-1 scan cost
    every shard pays per resident transaction.  Ties break toward the
    lowest shard id, so placement is a pure function of the arrival
    order and weights: reruns of the same corpus reproduce the same
    partition, which keeps golden digests stable.  On uniform weights the
    policy degenerates to exact round-robin.
    """

    def __init__(self, n_shards: int):
        self.n_shards = n_shards
        #: Cumulative placed weight per shard — the balance the policy
        #: levels (read through ``ShardedEngine.placement_loads``).
        self.loads = [0] * n_shards

    def place(self, weight: int) -> int:
        """Assign the next transaction (scan cost *weight*) to a shard."""
        shard = min(range(self.n_shards), key=lambda s: (self.loads[s], s))
        self.loads[shard] += max(1, weight)
        return shard


def resolve_placement(policy: str | None = None) -> str:
    """The placement policy's name, which is always ``"weighted"``.

    Kept only for the benchmark's environment stamp
    (``perfbench/bench.py`` imports it); once that import is dropped,
    this function can go too.  Reads no environment variable.
    """
    return "weighted"


class BatchSupportPlanner:
    """Splits level batches into per-shard tasks and merges their results."""

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        self.n_shards = n_shards

    @staticmethod
    def merge_level(
        n_requests: int,
        batches: Sequence["ShardSessionBatch"],
        shard_results: Sequence[Sequence[Sequence[int]] | None],
    ) -> list[int]:
        """OR shard results back into per-request global bitsets.

        Shards own disjoint transactions and reply in global tids, so each
        request's support is the bitwise union of its shards' hit lists —
        order-independent by construction.
        """
        merged = [0] * n_requests
        for batch, result in zip(batches, shard_results):
            if result is None:
                continue
            for position, hits in zip(batch.positions, result):
                if hits:
                    merged[position] |= bits_of(hits)
        return merged

    def plan_session_level(
        self,
        requests: Sequence,
        table: LabelTable,
        owned: Sequence[int],
        min_support: int | None = None,
    ) -> list["ShardSessionBatch"]:
        """Split a level across the shards that own its transactions.

        *owned* holds one bitset per shard: the live global tids it holds.
        Each :class:`~repro.runtime.base.LevelRequest` goes to every shard
        whose slice ``tid_bits & owned[s]`` is non-empty, as the payload
        ``(wire, scan)``: the pattern's compact wire (built once per
        request) and the slice as a :func:`~repro.runtime.bitsets.bits_to_span`
        ``(offset, buffer)`` pair, which pickles as raw bytes and which the
        shard decodes with one vectorized unpack.  A request holding a tid
        outside every mask (released or never registered) raises
        ``KeyError``.

        Each shard's early-abort bound is its share of the threshold: a
        shard holding ``m`` of a request's ``n`` scan tids gets ``b =
        ceil(min_support * m / n)``.  A pattern with support ``>=
        min_support`` reaches its share on at least one shard, and an
        aborted scan always returns fewer than ``b`` hits, so a short
        reply caps the shard's support at ``b - 1``; :meth:`plan_resolve`
        turns the caps into the level's second round.  ``min_support=None``
        (level 1) arms no bound.
        """
        live = 0
        for mask in owned:
            live |= mask
        batches = [ShardSessionBatch(shard=shard) for shard in range(self.n_shards)]
        for position, request in enumerate(requests):
            bits = request.tid_bits
            stray = bits & ~live
            if stray:
                tid = (stray & -stray).bit_length() - 1
                raise KeyError(f"transaction {tid} is not live on any shard")
            if not bits:
                continue
            wire = labeled_to_wire(request.pattern, table)
            total = bits.bit_count()
            for batch, mask in zip(batches, owned):
                part = bits & mask
                if not part:
                    continue
                count = part.bit_count()
                bound = None if min_support is None else -(-min_support * count // total)
                batch.add(
                    position,
                    (wire, bits_to_span(part)),
                    request.uid,
                    request.parent_uid,
                    request.extension,
                    bound,
                )
                batch.scan_tids += count
        return batches

    def plan_resolve(
        self,
        batches: Sequence["ShardSessionBatch"],
        shard_results: Sequence[Sequence[Sequence[int]] | None],
        min_support: int,
    ) -> list["ShardSessionBatch"]:
        """The second round of a split-bound level: one batch per shard.

        A reply with at least its bound ``b`` hits is exact; a shorter one
        caps its shard's support at ``b - 1``.  The caps of one request
        sum to at most ``min_support - 1`` (each is below ``min_support *
        m / n``), so a request whose exact hits plus its short shards'
        caps stay below *min_support* is infrequent and needs no second
        message.  Every other request is rescanned on its short shards
        only, each bounded by what it must still contribute: *min_support*
        minus the exact hits minus the other short shards' caps.  A rescan
        is then either exact or proves the request infrequent, so one
        extra round always settles the level.  The rescan reuses the
        round-1 payload and uid, so it overwrites that uid's anchors.
        """
        exact: dict[int, int] = {}
        short: dict[int, list[tuple["ShardSessionBatch", int, int]]] = {}
        for batch, result in zip(batches, shard_results):
            if result is None:
                continue
            for index, (position, bound, hits) in enumerate(
                zip(batch.positions, batch.abort_bounds, result)
            ):
                if bound is None or len(hits) >= bound:
                    exact[position] = exact.get(position, 0) + len(hits)
                else:
                    short.setdefault(position, []).append((batch, index, bound - 1))
        rounds = [ShardSessionBatch(shard=shard) for shard in range(self.n_shards)]
        for position in sorted(short):
            entries = short[position]
            known = exact.get(position, 0)
            caps = sum(cap for _, _, cap in entries)
            if known + caps < min_support:
                continue
            for batch, index, cap in entries:
                bound = min_support - known - (caps - cap)
                rounds[batch.shard].add(
                    position,
                    batch.payloads[index],
                    batch.uids[index],
                    batch.parent_uids[index],
                    batch.extensions[index],
                    bound if bound > 0 else None,
                )
        return rounds

    # Only perfbench/layers.py reads these two names (it times them as
    # ``runtime.plan``); every call goes through plan_session_level.
    plan = plan_level = plan_session_level


@dataclass
class ShardSessionBatch:
    """The slice of a stateful session level destined for one shard.

    Parallel lists aligned with ``positions`` (indices into the level's
    request list).  ``payloads[i]`` is the pattern+scan shipment for
    request ``positions[i]``, a ``(wire, (offset, buffer))`` pair (see
    :meth:`BatchSupportPlanner.plan_session_level`).  Replies align with
    ``positions`` too, which is what
    :meth:`BatchSupportPlanner.merge_level` relies on.
    """

    shard: int
    positions: list[int] = field(default_factory=list)
    payloads: list[tuple] = field(default_factory=list)
    uids: list[object] = field(default_factory=list)
    parent_uids: list[object] = field(default_factory=list)
    extensions: list[tuple | None] = field(default_factory=list)
    abort_bounds: list[int | None] = field(default_factory=list)
    #: Scan workload routed to this shard: candidate tids summed over the
    #: level's requests (the shard-skew telemetry's unit of account).
    scan_tids: int = 0

    def add(
        self,
        position: int,
        payload: tuple,
        uid: object,
        parent_uid: object,
        extension: tuple | None,
        bound: int | None,
    ) -> None:
        """Append one request's entry to every parallel list."""
        self.positions.append(position)
        self.payloads.append(payload)
        self.uids.append(uid)
        self.parent_uids.append(parent_uid)
        self.extensions.append(extension)
        self.abort_bounds.append(bound)

    def is_empty(self) -> bool:
        return not self.positions
