"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper by calling
the corresponding experiment driver in :mod:`repro.core.experiments`, then
prints (and saves under ``benchmarks/results/``) the paper-versus-measured
comparison.  Timings are collected with pytest-benchmark using a single
round per experiment — the experiments themselves are the workload, and
several of them take tens of seconds.

Set the ``REPRO_BENCH_SCALE`` environment variable to change the synthetic
dataset scale (default 0.03; the paper's full-size dataset is 1.0).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.config import ExperimentConfig
from repro.core.results import ExperimentReport
from repro.reporting.comparison import agreement_summary, render_comparison

RESULTS_DIR = Path(__file__).parent / "results"


def _bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.03"))


@pytest.fixture(scope="session")
def experiment_config() -> ExperimentConfig:
    """One shared configuration (and cached dataset) for all benchmarks."""
    return ExperimentConfig(scale=_bench_scale(), seed=20050405)


@pytest.fixture(scope="session")
def record_report():
    """A helper that prints a report and writes it to benchmarks/results/."""

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    def _record(report: ExperimentReport) -> ExperimentReport:
        text = render_comparison(report)
        agreements = agreement_summary(report)
        lines = [text]
        if agreements:
            matched = sum(1 for ok in agreements.values() if ok)
            lines.append(f"qualitative claims matched: {matched}/{len(agreements)}")
        rendered = "\n".join(lines)
        print("\n" + rendered)
        safe_id = report.experiment_id.replace("/", "_").replace(".", "_")
        (RESULTS_DIR / f"{safe_id}.txt").write_text(rendered + "\n", encoding="utf-8")
        return report

    return _record


def run_once(benchmark, function, *args, **kwargs):
    """Run *function* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def bench_env(scenario: str | None = None, corpus_size: int | None = None) -> dict:
    """The environment stamp every ``BENCH_*.json`` report embeds.

    Records what actually shaped the numbers — the numpy version backing
    the large bitset conversions (``None`` when numpy is not importable),
    the interpreter, the machine (CPU count and, where the
    platform exposes it, 1-minute load average at stamp time), the
    resolved runtime knobs (worker count and sharded backend), and every
    ``REPRO_*`` environment override in effect — so two benchmark
    artifacts can be compared without guessing how they were produced.

    Scenario-driven benchmarks additionally pass *scenario* (the
    registered scenario name) and *corpus_size* (its transaction count),
    which land in the stamp so a per-scenario timing can never be
    compared against a run of a different workload shape.
    """
    import platform

    from repro.runtime import resolve_backend, resolve_workers

    try:
        import numpy
    except ImportError:
        numpy = None
    try:
        load_avg = round(os.getloadavg()[0], 2)
    except (AttributeError, OSError):
        load_avg = None

    stamp = {
        "numpy_version": None if numpy is None else str(numpy.__version__),
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "load_avg": load_avg,
        "workers": resolve_workers(None),
        "backend": resolve_backend(None),
        "env_overrides": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        },
    }
    if scenario is not None:
        stamp["scenario"] = scenario
    if corpus_size is not None:
        stamp["corpus_size"] = corpus_size
    return stamp


def fsg_digest(result) -> str:
    """Digest of a mining result's patterns, for output checks.

    Covers each pattern's canonical code (naming-independent), support
    and supporting tids, sorted, so two runs agree only if they mined the
    same patterns with the same supports — a wrong pattern of the right
    size and support changes the digest.
    """
    from repro.graphs.engine import MatchEngine
    from repro.scenarios.harness import pattern_code, payload_digest

    engine = MatchEngine()
    rows = sorted(
        [
            pattern_code(engine, entry.pattern),
            entry.support,
            sorted(entry.supporting_transactions),
        ]
        for entry in result.patterns
    )
    return payload_digest({"patterns": rows})
