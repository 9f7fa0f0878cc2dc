"""Benchmark: stateful mining sessions vs. the stateless full-wire protocol.

Mines the same corpus as ``bench_parallel_support`` (>= 400 transactions
at the default size) four ways —

* ``serial`` — :class:`~repro.runtime.base.SerialRuntime`: the in-process
  reference output every other mode must reproduce exactly;
* ``session-full`` — :class:`~repro.runtime.shards.ShardedEngine` with
  ``session_protocol="full"``: the pre-session wire protocol (every
  level re-ships every surviving pattern as a full CompactGraph wire
  tuple plus its tid list), the baseline the delta protocol is measured
  against;
* ``session-delta`` — the stateful session protocol (inline backend):
  each shard keeps a resident pattern store, level-(k+1) candidates ship
  as ``(parent uid, extension edge, scan mask)`` delta tokens and are
  reconstructed shard-side from the stored parent, evictions piggyback
  on level traffic;
* ``session-delta-process`` — the same over ``multiprocessing`` workers.

Wire bytes are read from each run's per-level session telemetry
(``FSGResult.level_telemetry``), measured with the same ruler in both
protocols: the length of each message's pickled blob
(:func:`~repro.runtime.wire.encode_message`).
Results land in ``BENCH_session.json``; the process exits non-zero when
any mode diverges from the serial output or when the delta protocol
ships *more* bytes than the full-wire baseline, so the CI smoke job
fails loudly instead of uploading a regression.

Run with::

    PYTHONPATH=src python benchmarks/bench_session_protocol.py [n_transactions] [workers]
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_parallel_support import MAX_EDGES, MIN_SUPPORT, build_corpus  # noqa: E402
from conftest import bench_env, fsg_digest  # noqa: E402

from repro.mining.fsg.miner import FSGMiner  # noqa: E402
from repro.runtime import ShardedEngine  # noqa: E402

DEFAULT_TRANSACTIONS = 400
DEFAULT_WORKERS = 2


def mine(corpus, runtime=None):
    miner = FSGMiner(min_support=MIN_SUPPORT, max_edges=MAX_EDGES, runtime=runtime)
    start = time.perf_counter()
    result = miner.mine(corpus)
    elapsed = time.perf_counter() - start
    signature = fsg_digest(result)
    return elapsed, len(result.patterns), signature, result


def main() -> None:
    n_transactions = int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_TRANSACTIONS
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else DEFAULT_WORKERS
    corpus = build_corpus(n_transactions)
    n_edges = sum(graph.n_edges for graph in corpus)
    print(f"corpus: {n_transactions} transactions, {n_edges} edges; workers={workers}")

    timings: dict[str, float] = {}
    level_wire: dict[str, dict[str, float]] = {}
    totals: dict[str, dict[str, float]] = {}
    divergent: list[str] = []
    reference_signature = None
    n_patterns = 0

    def record(label, elapsed, count, signature, result):
        nonlocal reference_signature, n_patterns
        timings[label] = elapsed
        level_wire[label] = {
            str(level): counters["wire_bytes"]
            for level, counters in sorted(result.level_telemetry.items())
        }
        totals[label] = result.session_totals()
        if reference_signature is None:
            reference_signature, n_patterns = signature, count
        elif signature != reference_signature:
            divergent.append(label)
            print(f"ERROR: {label} changed mining output", file=sys.stderr)
        wire = totals[label].get("wire_bytes", 0)
        print(f"{label:24s} {elapsed:8.2f}s   {count} patterns   {wire:>12,.0f} wire bytes")

    record("serial", *mine(corpus))
    for label, backend, protocol in (
        ("session-full", "serial", "full"),
        ("session-delta", "serial", "delta"),
        ("session-delta-process", "process", "delta"),
    ):
        runtime = ShardedEngine(shards=workers, backend=backend, session_protocol=protocol)
        try:
            record(label, *mine(corpus, runtime=runtime))
        finally:
            runtime.close()

    full_bytes = totals["session-full"]["wire_bytes"]
    delta_bytes = totals["session-delta"]["wire_bytes"]
    reduction = full_bytes / delta_bytes if delta_bytes else float("inf")
    per_level_reduction = {
        level: round(full_bytes_level / delta_bytes_level, 2)
        for (level, full_bytes_level), delta_bytes_level in zip(
            level_wire["session-full"].items(), level_wire["session-delta"].values()
        )
        if delta_bytes_level
    }
    cpu_count = os.cpu_count() or 1
    report = {
        "env": bench_env(),
        "n_transactions": n_transactions,
        "total_edges": n_edges,
        "workers": workers,
        "cpu_count": cpu_count,
        "min_support": MIN_SUPPORT,
        "max_edges": MAX_EDGES,
        "n_patterns": n_patterns,
        "seconds": {key: round(value, 3) for key, value in timings.items()},
        "wire_bytes": {key: total.get("wire_bytes", 0) for key, total in totals.items()},
        "level_wire_bytes": level_wire,
        "wire_reduction_delta_vs_full": round(reduction, 2),
        "per_level_wire_reduction": per_level_reduction,
        "session_counters": {
            key: {name: value for name, value in total.items() if name != "planning_seconds"}
            for key, total in totals.items()
        },
        "planning_seconds": {
            key: round(total.get("planning_seconds", 0.0), 3)
            for key, total in totals.items()
        },
        "outputs_identical": not divergent,
    }
    if divergent:
        report["divergent_modes"] = divergent
    print(
        f"delta protocol ships {report['wire_reduction_delta_vs_full']}x fewer wire "
        f"bytes than the full-wire baseline ({full_bytes:,.0f} -> {delta_bytes:,.0f})"
    )
    out = Path(__file__).resolve().parent.parent / "BENCH_session.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    if divergent:
        raise SystemExit(1)
    if delta_bytes > full_bytes:
        print(
            "ERROR: delta protocol shipped more wire bytes than the full-wire baseline",
            file=sys.stderr,
        )
        raise SystemExit(1)


if __name__ == "__main__":
    main()
