"""Benchmark: tracing overhead of the repro.obs subsystem.

Mines the same corpus as ``bench_parallel_support`` (>= 400 transactions
at the default size) twice on the serial runtime —

* ``tracer-off`` — the default :data:`~repro.obs.tracer.NULL_TRACER` is
  active, so every instrumentation site takes the disabled fast path
  (``_NULL_SPAN`` enter/exit, no-op metrics);
* ``tracer-on`` — a live :class:`~repro.obs.tracer.Tracer` is installed
  with :func:`~repro.obs.tracer.set_tracer`, so every span is recorded
  and every counter absorbed.

Both runs take the best of ``repeats`` attempts so a single scheduler
hiccup cannot fail the gate.  The disabled-path cost is additionally
measured directly: the benchmark times as many no-op span enter/exits as
the enabled run actually recorded, which is the exact extra work an
untraced mining run performs, free of run-to-run mining noise.

The process exits non-zero when

* the traced and untraced runs mine different output (tracing must be
  purely observational),
* the directly-measured disabled-path cost exceeds 1% of the untraced
  mining time, or
* the enabled-tracer run is more than 10% slower than the untraced run.

Results land in ``BENCH_obs.json``.  Run with::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [n_transactions] [repeats]
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
from repro.obs.tracer import NULL_TRACER, Tracer, set_tracer  # noqa: E402

DEFAULT_TRANSACTIONS = 400
DEFAULT_REPEATS = 3
DISABLED_BUDGET = 0.01
ENABLED_BUDGET = 0.10


def mine(corpus):
    """One serial mining run: (seconds, pattern count, digest, result)."""
    miner = FSGMiner(min_support=MIN_SUPPORT, max_edges=MAX_EDGES)
    start = time.perf_counter()
    result = miner.mine(corpus)
    elapsed = time.perf_counter() - start
    return elapsed, len(result.patterns), fsg_digest(result), result


def best_of(repeats: int, corpus, tracer=None):
    """Best wall-clock of *repeats* mining runs (and the last run's outputs)."""
    best = None
    for _ in range(repeats):
        if tracer is not None:
            previous = set_tracer(tracer)
        try:
            elapsed, count, signature, result = mine(corpus)
        finally:
            if tracer is not None:
                set_tracer(previous)
        if best is None or elapsed < best[0]:
            best = (elapsed, count, signature, result)
    return best


def null_span_seconds(n_spans: int) -> float:
    """Direct cost of *n_spans* disabled span enter/exits.

    This is the complete per-span work an untraced run adds over
    uninstrumented code, measured in isolation so mining noise cannot
    drown it out.
    """
    tracer = NULL_TRACER
    start = time.perf_counter()
    for _ in range(n_spans):
        with tracer.span("bench.noop"):
            pass
    return time.perf_counter() - start


def main() -> None:
    n_transactions = int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_TRANSACTIONS
    repeats = int(sys.argv[2]) if len(sys.argv) > 2 else DEFAULT_REPEATS
    corpus = build_corpus(n_transactions)
    n_edges = sum(graph.n_edges for graph in corpus)
    print(f"corpus: {n_transactions} transactions, {n_edges} edges; repeats={repeats}")

    off_elapsed, off_count, off_signature, _ = best_of(repeats, corpus)
    print(f"{'tracer-off':12s} {off_elapsed:8.3f}s   {off_count} patterns")

    tracer = Tracer(worker="main")
    on_elapsed, on_count, on_signature, _ = best_of(repeats, corpus, tracer=tracer)
    n_spans = len(tracer.spans)
    print(f"{'tracer-on':12s} {on_elapsed:8.3f}s   {on_count} patterns   {n_spans} spans")

    # The enabled tracer accumulated spans across all repeats; one run
    # records n_spans / repeats of them.
    spans_per_run = max(1, n_spans // repeats)
    disabled_seconds = null_span_seconds(spans_per_run)
    disabled_overhead = disabled_seconds / off_elapsed if off_elapsed else 0.0
    enabled_overhead = max(0.0, (on_elapsed - off_elapsed) / off_elapsed) if off_elapsed else 0.0

    identical = off_signature == on_signature
    print(
        f"disabled-path cost: {disabled_seconds * 1e3:.3f}ms for {spans_per_run} spans "
        f"({disabled_overhead:.4%} of untraced run)"
    )
    print(f"enabled overhead: {enabled_overhead:.2%} (budget {ENABLED_BUDGET:.0%})")

    report = {
        "env": bench_env(),
        "n_transactions": n_transactions,
        "total_edges": n_edges,
        "repeats": repeats,
        "min_support": MIN_SUPPORT,
        "max_edges": MAX_EDGES,
        "n_patterns": off_count,
        "seconds": {
            "tracer_off": round(off_elapsed, 4),
            "tracer_on": round(on_elapsed, 4),
        },
        "spans_per_run": spans_per_run,
        "disabled_span_seconds": round(disabled_seconds, 6),
        "disabled_overhead": round(disabled_overhead, 6),
        "enabled_overhead": round(enabled_overhead, 4),
        "budgets": {"disabled": DISABLED_BUDGET, "enabled": ENABLED_BUDGET},
        "outputs_identical": identical,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")

    if not identical:
        print("ERROR: tracing changed mining output", file=sys.stderr)
        raise SystemExit(1)
    if disabled_overhead > DISABLED_BUDGET:
        print(
            f"ERROR: disabled-tracer overhead {disabled_overhead:.4%} exceeds "
            f"{DISABLED_BUDGET:.0%} budget",
            file=sys.stderr,
        )
        raise SystemExit(1)
    if enabled_overhead > ENABLED_BUDGET:
        print(
            f"ERROR: enabled-tracer overhead {enabled_overhead:.2%} exceeds "
            f"{ENABLED_BUDGET:.0%} budget",
            file=sys.stderr,
        )
        raise SystemExit(1)


if __name__ == "__main__":
    main()
