"""Benchmark: cost of worker supervision and mid-run crash recovery.

Mines the ``bench_parallel_support`` corpus (>= 400 transactions at the
default size) on a 2-shard process-backend runtime in three modes —

* ``clean`` — no fault plan: the per-message supervision cost is a
  single ``is None`` check in the worker and a deadline-polling ``recv``
  in the parent;
* ``armed-idle`` — a fault plan is armed on every worker but can never
  fire (it targets a level far past the end of the run), so the injector
  counters tick on every message with no fault landing;
* ``kill-recovery`` — a worker is SIGKILLed mid-run (level 3 of 4) and
  the supervisor respawns it, rebuilds its shard deterministically, and
  replays the in-flight level.

Each mode takes the best of ``repeats`` runs.  The no-plan fast path is
additionally measured directly: the benchmark counts the messages one
mining run actually sends (on an identical serial-backend run) and times
that many disabled-injector checks in isolation, the exact extra
per-message work supervision adds to an unfaulted run.

The process exits non-zero when

* any mode mines different output than the serial reference (recovery
  must be invisible in the result),
* the kill-recovery run records no worker restart (the fault silently
  failed to land), or
* the directly-measured disabled-path cost exceeds 1% of the clean
  mining time.

Results land in ``BENCH_recovery.json``.  Run with::

    PYTHONPATH=src python benchmarks/bench_recovery.py [n_transactions] [repeats]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_parallel_support import MAX_EDGES, MIN_SUPPORT, build_corpus  # noqa: E402
from conftest import bench_env, fsg_digest  # noqa: E402

from repro.mining.fsg.miner import FSGMiner  # noqa: E402
from repro.runtime import ShardedEngine  # noqa: E402

DEFAULT_TRANSACTIONS = 400
DEFAULT_REPEATS = 3
WORKERS = 2
DISABLED_BUDGET = 0.01

#: Fires on shard 1's third level-type message: mid-run for MAX_EDGES=4.
KILL_PLAN = "kill:shard=1,level=3"
#: Armed on every worker, counts every message, can never fire.
IDLE_PLAN = "kill:shard=0,level=999999"


def mine(corpus, runtime=None):
    miner = FSGMiner(min_support=MIN_SUPPORT, max_edges=MAX_EDGES, runtime=runtime)
    start = time.perf_counter()
    result = miner.mine(corpus)
    elapsed = time.perf_counter() - start
    signature = fsg_digest(result)
    return elapsed, len(result.patterns), signature


def mine_sharded(corpus, faults=None):
    runtime = ShardedEngine(shards=WORKERS, backend="process", faults=faults)
    try:
        elapsed, count, signature = mine(corpus, runtime)
        recovery = dict(runtime.recovery)
    finally:
        runtime.close()
    return elapsed, count, signature, recovery


def best_of(repeats, corpus, faults=None):
    best = None
    for _ in range(repeats):
        run = mine_sharded(corpus, faults=faults)
        if best is None or run[0] < best[0]:
            best = run
    return best


class _CountingPool:
    """Wraps a pool, counting the messages a mining run sends."""

    def __init__(self, inner):
        self._inner = inner
        self.messages = 0

    def send(self, worker, message):
        self.messages += 1
        self._inner.send(worker, message)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def count_messages(corpus) -> int:
    """How many worker messages one mining run dispatches.

    Counted on a serial-backend run — the message flow is identical to
    the process backend by construction (same planner, same protocol).
    """
    runtime = ShardedEngine(shards=WORKERS, backend="serial")
    try:
        counter = _CountingPool(runtime._pool)
        runtime._pool = counter
        FSGMiner(min_support=MIN_SUPPORT, max_edges=MAX_EDGES, runtime=runtime).mine(corpus)
        return counter.messages
    finally:
        runtime.close()


class _NoFaults:
    faults = None


def null_check_seconds(n_messages: int) -> float:
    """Direct cost of *n_messages* disabled-injector checks.

    Without a plan no injector object exists: the complete per-message
    work the fault hooks add to a worker is one attribute load plus two
    ``is None`` tests (before the handler and on the reply path).
    """
    worker = _NoFaults()
    start = time.perf_counter()
    for _ in range(n_messages):
        faults = worker.faults
        if faults is not None:
            pass  # pragma: no cover - never armed here
        if faults is not None:
            pass  # pragma: no cover - never armed here
    return time.perf_counter() - start


def main() -> None:
    n_transactions = int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_TRANSACTIONS
    repeats = int(sys.argv[2]) if len(sys.argv) > 2 else DEFAULT_REPEATS
    corpus = build_corpus(n_transactions)
    n_edges = sum(graph.n_edges for graph in corpus)
    print(f"corpus: {n_transactions} transactions, {n_edges} edges; repeats={repeats}")

    serial_s, n_patterns, reference = mine(corpus)
    print(f"{'serial':14s} {serial_s:8.3f}s   {n_patterns} patterns")

    timings: dict[str, float] = {}
    divergent: list[str] = []
    recoveries: dict[str, dict] = {}
    for label, faults in (
        ("clean", None),
        ("armed-idle", IDLE_PLAN),
        ("kill-recovery", KILL_PLAN),
    ):
        elapsed, count, signature, recovery = best_of(repeats, corpus, faults=faults)
        timings[label] = elapsed
        recoveries[label] = recovery
        if signature != reference:
            divergent.append(label)
        restarts = recovery["worker_restarts"]
        print(f"{label:14s} {elapsed:8.3f}s   {count} patterns   {restarts} restart(s)")

    clean_s = timings["clean"]
    n_messages = count_messages(corpus)
    disabled_seconds = null_check_seconds(n_messages)
    disabled_overhead = disabled_seconds / clean_s if clean_s else 0.0
    recovery_overhead = (
        max(0.0, (timings["kill-recovery"] - clean_s) / clean_s) if clean_s else 0.0
    )
    print(
        f"disabled-path cost: {disabled_seconds * 1e3:.3f}ms for {n_messages} messages "
        f"({disabled_overhead:.4%} of clean run)"
    )
    print(f"kill-recovery overhead: {recovery_overhead:.1%} over clean")

    report = {
        "env": bench_env(),
        "n_transactions": n_transactions,
        "total_edges": n_edges,
        "repeats": repeats,
        "workers": WORKERS,
        "min_support": MIN_SUPPORT,
        "max_edges": MAX_EDGES,
        "n_patterns": n_patterns,
        "fault_plans": {"armed-idle": IDLE_PLAN, "kill-recovery": KILL_PLAN},
        "seconds": {"serial": round(serial_s, 3)}
        | {key: round(value, 3) for key, value in timings.items()},
        "recovery": recoveries["kill-recovery"],
        "messages_per_run": n_messages,
        "disabled_check_seconds": round(disabled_seconds, 6),
        "disabled_overhead": round(disabled_overhead, 6),
        "recovery_overhead": round(recovery_overhead, 4),
        "budgets": {"disabled": DISABLED_BUDGET},
        "outputs_identical": not divergent,
    }
    if divergent:
        report["divergent_modes"] = divergent
    out = Path(__file__).resolve().parent.parent / "BENCH_recovery.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")

    if divergent:
        print(f"ERROR: output diverged in mode(s): {', '.join(divergent)}", file=sys.stderr)
        raise SystemExit(1)
    if recoveries["kill-recovery"]["worker_restarts"] < 1:
        print("ERROR: kill-recovery run recorded no worker restart", file=sys.stderr)
        raise SystemExit(1)
    if disabled_overhead > DISABLED_BUDGET:
        print(
            f"ERROR: disabled-injector overhead {disabled_overhead:.4%} exceeds "
            f"{DISABLED_BUDGET:.0%} budget",
            file=sys.stderr,
        )
        raise SystemExit(1)


if __name__ == "__main__":
    main()
