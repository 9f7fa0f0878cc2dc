"""Per-level support planning across shards.

At each FSG level the miner has a batch of surviving candidate patterns,
each with the (global) transaction ids it could possibly occur in — the
intersection of its parents' supporting sets.  The
:class:`BatchSupportPlanner` turns that batch into one task per shard:

* global tids are translated to each shard's local tid space;
* a pattern is only shipped to a shard that owns at least one of its
  candidate transactions (a pattern whose parents all live elsewhere costs
  the shard nothing — not even a pickle);
* each pattern ships as one :class:`~repro.graphs.compact.CompactGraph`
  wire tuple, built once and shared by all shard tasks that need it.

Merging is trivial because shards partition the transactions: the
per-pattern global support set is the disjoint union of the shard-local
results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.graphs.compact import CompactGraph, LabelTable
from repro.runtime.bitsets import bits_of, bits_to_buffer, tids_of


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
        to_global,
    ) -> list[int]:
        """OR shard-local supports back into per-request global bitsets.

        Shards own disjoint transactions, so each request's global support
        is just the bitwise union of its shards' translated results —
        order-independent by construction.
        """
        merged = [0] * n_requests
        for batch, result in zip(batches, shard_results):
            if result is None:
                continue
            shard = batch.shard
            for position, locals_ in zip(batch.positions, result):
                if locals_:
                    merged[position] |= bits_of(
                        [to_global(shard, local) for local in locals_]
                    )
        return merged

    def plan_session_level(
        self,
        requests: Sequence,
        table: LabelTable,
        locate,
        min_support: int | None = None,
    ) -> list["ShardSessionBatch"]:
        """Split a level across the shards that own its transactions.

        *locate* maps a global tid to its ``(shard, local tid)`` home (the
        sharded engine's placement function).  Each
        :class:`~repro.runtime.base.LevelRequest` goes to every shard that
        owns any of its candidate transactions, as the payload
        ``(wire, tid_buffer)``: the pattern's compact wire (built once per
        request) and the shard's slice of the scan set as a flat local-tid
        bitset buffer.

        Scan sets ship as :func:`~repro.runtime.bitsets.bits_to_buffer`
        byte strings rather than arbitrary-precision ints: the receiver
        decodes them with one vectorized
        :func:`~repro.runtime.bitsets.tids_from_buffer` unpack, and the
        buffer pickles as raw bytes with no bignum re-encoding.

        The early-abort threshold is translated into each shard's frame
        of reference: a shard holding ``m`` of a request's ``n`` candidate
        tids may abort once even sweeping its remaining slice cannot push
        the *global* count to *min_support* — i.e. its local bound is
        ``min_support - (n - m)``.  That bound is sound whatever the other
        shards find, so aborts can never make runtimes disagree on which
        candidates survive.
        """
        batches = [ShardSessionBatch(shard=shard) for shard in range(self.n_shards)]
        for position, request in enumerate(requests):
            tids = tids_of(request.tid_bits)
            by_shard: dict[int, list[int]] = {}
            for tid in tids:
                shard, local = locate(tid)
                by_shard.setdefault(shard, []).append(local)
            if not by_shard:
                continue
            wire = CompactGraph.from_labeled(request.pattern, table).to_wire()
            total = len(tids)
            for shard, locals_ in sorted(by_shard.items()):
                batch = batches[shard]
                batch.positions.append(position)
                batch.payloads.append((wire, bits_to_buffer(bits_of(locals_))))
                batch.scan_tids += len(locals_)
                batch.uids.append(request.uid)
                batch.parent_uids.append(request.parent_uid)
                batch.extensions.append(request.extension)
                if min_support is None:
                    batch.abort_bounds.append(None)
                else:
                    bound = min_support - (total - len(locals_))
                    batch.abort_bounds.append(bound if bound > 0 else None)
        return batches

    # Only perfbench/layers.py reads these two names (it times them as
    # ``runtime.plan``); every call goes through plan_session_level.
    plan = plan_level = plan_session_level


@dataclass
class ShardSessionBatch:
    """The slice of a stateful session level destined for one shard.

    Parallel lists aligned with ``positions`` (indices into the level's
    request list).  ``payloads[i]`` is the pattern+scan shipment for
    request ``positions[i]``, a ``(wire, tid_buffer)`` pair (see
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

    def is_empty(self) -> bool:
        return not self.positions
