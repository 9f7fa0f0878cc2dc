"""Command-line interface for running the reproduction experiments.

The library's experiment drivers (one per paper table / figure) can be run
from the command line without writing any code::

    python -m repro.cli list
    python -m repro.cli run T1 --scale 0.03
    python -m repro.cli run S7.2 F5/F6 --scale 0.05
    python -m repro.cli all --scale 0.01 --output results.txt

``list`` shows the available experiment ids with their descriptions;
``run`` executes one or more experiments and prints the paper-versus-
measured comparison; ``all`` runs every experiment.  ``--output`` appends
the rendered comparisons to a file in addition to printing them.

The scenario/verification subsystem rides along as ``scenarios``::

    python -m repro.cli scenarios list
    python -m repro.cli scenarios run dense-uniform --workers 2
    python -m repro.cli scenarios run --only stress-powerlaw,stress-windows
    python -m repro.cli scenarios verify --update-golden
    python -m repro.cli scenarios verify --shards 2,3 --backends serial,process
    python -m repro.cli scenarios verify --only messy-mobility
    python -m repro.cli scenarios stream --transactions 100000 --out stream.json

``run`` and ``verify`` take scenario names positionally and/or through
``--only name,name``; an unknown name (either way) exits non-zero and
prints the registered list.  ``stream`` drives the lazy 100k-transaction
streaming corpus through its sampled-digest verification under a peak
memory probe and optionally writes the report as JSON (the CI
scenario-stress artifact).

``scenarios verify`` runs every workload through the differential harness
(serial vs sharded runtimes vs the legacy matcher) and compares the
outcome digests against the golden file; it exits non-zero on any
divergence, which is what the CI scenario-matrix job checks.

Every mining-adjacent command also takes ``--trace PATH`` (or the
``REPRO_TRACE`` environment variable): the run executes under an active
:mod:`repro.obs` tracer and writes the merged trace — main-timeline
spans, per-shard worker spans, and the metrics registry — as JSONL when
it finishes.  Tracing is observational only; mining output and scenario
digests are byte-identical with it on or off.  The ``trace`` command
group works with the files afterwards::

    python -m repro.cli trace summarize trace.jsonl
    python -m repro.cli trace export trace.jsonl --out trace_chrome.json
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from repro.core.config import ExperimentConfig
from repro.core.experiments import ALL_EXPERIMENTS
from repro.core.results import ExperimentReport
from repro.obs.tracer import TRACE_ENV
from repro.runtime.faults import FAULTS_ENV, FaultPlan
from repro.reporting.comparison import agreement_summary, render_comparison
from repro.runtime.base import BACKENDS

#: One-line descriptions shown by ``list`` (kept in sync with DESIGN.md).
_EXPERIMENT_SUMMARIES: dict[str, str] = {
    "T1": "Table 1 / Section 3 — dataset description statistics",
    "F1": "Figure 1 — SUBDUE with the MDL principle on OD_GW",
    "S5.1": "Section 5.1 — SUBDUE runtime scaling, MDL vs Size",
    "F2/F3": "Figures 2 & 3 — FSG over breadth-first / depth-first partitions",
    "FN2": "Footnote 2 — recall of planted patterns after partitioning",
    "T2": "Table 2 — temporally partitioned graph data",
    "T3/F4": "Table 3 + Figure 4 — FSG on filtered temporal transactions",
    "S6.1": "Section 6.1 — FSG memory failure on large temporal transactions",
    "S7.1": "Section 7.1 — association rules",
    "S7.2": "Section 7.2 — decision-tree classification",
    "F5/F6": "Figures 5 & 6 — EM clustering",
    "ABL": "Ablation — partitioning strategy (BFS / DFS / METIS-like)",
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro.cli``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of 'Knowledge Discovery from Transportation Network Data' (ICDE 2005).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiment ids")

    run_parser = subparsers.add_parser("run", help="run one or more experiments by id")
    run_parser.add_argument("experiments", nargs="+", help="experiment ids (see 'list')")
    _add_common_options(run_parser)

    all_parser = subparsers.add_parser("all", help="run every experiment")
    _add_common_options(all_parser)

    scenarios_parser = subparsers.add_parser(
        "scenarios", help="scenario workloads and the differential verification harness"
    )
    scenario_commands = scenarios_parser.add_subparsers(dest="scenario_command", required=True)

    scenario_commands.add_parser("list", help="list the registered scenarios")

    scenario_run = scenario_commands.add_parser(
        "run", help="run scenarios and print their outcome digests"
    )
    scenario_run.add_argument("names", nargs="*",
                              help="scenario names (default: every registered scenario)")
    scenario_run.add_argument("--only", default=None, metavar="NAME,NAME",
                              help="comma-separated filter applied to the selection; "
                                   "unknown names exit non-zero")
    scenario_run.add_argument("--workers", type=int, default=None,
                              help="worker shards for support counting (default: serial)")
    scenario_run.add_argument("--backend", choices=list(BACKENDS), default=None,
                              help="sharded-runtime backend when --workers >= 2")

    scenario_verify = scenario_commands.add_parser(
        "verify",
        help="differential-check scenarios and compare against golden digests",
    )
    scenario_verify.add_argument("names", nargs="*",
                                 help="scenario names (default: every registered scenario)")
    scenario_verify.add_argument("--only", default=None, metavar="NAME,NAME",
                                 help="comma-separated filter applied to the selection; "
                                      "unknown names exit non-zero")
    scenario_verify.add_argument("--update-golden", action="store_true",
                                 help="rewrite the golden digests instead of comparing")
    scenario_verify.add_argument("--golden", type=Path, default=None,
                                 help="golden file (default: tests/golden/scenarios.json)")
    scenario_verify.add_argument("--shards", default="2,3",
                                 help="comma-separated shard counts to differentiate (default 2,3)")
    scenario_verify.add_argument("--backends", default="serial",
                                 help="comma-separated pool backends (default 'serial')")
    scenario_verify.add_argument("--no-oracle", action="store_true",
                                 help="skip the legacy-matcher support oracle")
    scenario_verify.add_argument("--report", type=Path, default=None,
                                 help="also write the per-scenario digests to this JSON file")
    scenario_stream = scenario_commands.add_parser(
        "stream",
        help="sampled-digest + peak-memory check of the lazy streaming corpus",
    )
    scenario_stream.add_argument("--transactions", type=int, default=100_000,
                                 help="corpus length (default 100000)")
    scenario_stream.add_argument("--batch-size", type=int, default=512,
                                 help="transactions materialised per batch (default 512)")
    scenario_stream.add_argument("--seed", type=int, default=20050405,
                                 help="corpus seed (default 20050405)")
    scenario_stream.add_argument("--out", type=Path, default=None,
                                 help="also write the stream report to this JSON file")

    for scenario_parser in (scenario_run, scenario_verify, scenario_stream):
        _add_trace_option(scenario_parser)
    for scenario_parser in (scenario_run, scenario_verify):
        _add_faults_option(scenario_parser)

    trace_parser = subparsers.add_parser(
        "trace", help="inspect and convert recorded trace files"
    )
    trace_commands = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_commands.add_parser(
        "summarize",
        help="print the run report (level x shard skew, top spans, metrics) of a JSONL trace",
    )
    trace_summarize.add_argument("path", type=Path, help="JSONL trace written by --trace")
    trace_summarize.add_argument("--top", type=int, default=10,
                                 help="how many spans the duration ranking shows (default 10)")
    trace_export = trace_commands.add_parser(
        "export",
        help="convert a JSONL trace to Chrome Trace Event Format (chrome://tracing, Perfetto)",
    )
    trace_export.add_argument("path", type=Path, help="JSONL trace written by --trace")
    trace_export.add_argument("--out", type=Path, required=True,
                              help="output path for the Chrome-format JSON")

    return parser


def _add_trace_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", type=Path, default=None,
                        help="record an observability trace of the run and write it "
                             "to this path as JSONL (default: $REPRO_TRACE or off); "
                             "never changes mining output")


def _add_faults_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--faults", default=None, metavar="PLAN",
                        help="deterministic fault-injection plan for sharded runtimes, "
                             "e.g. 'kill:shard=1,level=3; hang:shard=0,op=slevel' "
                             "(default: $REPRO_FAULTS or off); recovery keeps mining "
                             "output byte-identical, so this is a chaos gate, not a "
                             "chaos monkey")


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.03,
                        help="synthetic dataset scale (1.0 = the paper's full size; default 0.03)")
    parser.add_argument("--seed", type=int, default=20050405, help="generator seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker shards for the parallel mining runtime "
                             "(0/1 = serial; >= 2 shards support counting across "
                             "that many processes; default: $REPRO_WORKERS or serial)")
    parser.add_argument("--backend", choices=list(BACKENDS), default=None,
                        help="sharded-runtime backend when --workers >= 2 "
                             "(default: $REPRO_BACKEND or 'process')")
    parser.add_argument("--output", type=Path, default=None,
                        help="also append the rendered comparisons to this file")
    _add_trace_option(parser)
    _add_faults_option(parser)


def _render(report: ExperimentReport) -> str:
    lines = [render_comparison(report)]
    agreements = agreement_summary(report)
    if agreements:
        matched = sum(1 for ok in agreements.values() if ok)
        lines.append(f"qualitative claims matched: {matched}/{len(agreements)}")
    return "\n".join(lines)


def _run_experiments(experiment_ids: Sequence[str], args, stream) -> int:
    unknown = [eid for eid in experiment_ids if eid not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    try:
        config = ExperimentConfig(
            scale=args.scale,
            seed=args.seed,
            workers=args.workers,
            backend=args.backend,
        )
    except ValueError as error:
        print(f"invalid configuration: {error}", file=sys.stderr)
        return 2
    chunks: list[str] = []
    for experiment_id in experiment_ids:
        driver = ALL_EXPERIMENTS[experiment_id]
        report = driver(config)
        rendered = _render(report)
        print(rendered, file=stream)
        print("", file=stream)
        chunks.append(rendered)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        with args.output.open("a", encoding="utf-8") as handle:
            handle.write("\n\n".join(chunks) + "\n")
    return 0


def _scenarios_list(stream) -> int:
    from repro.scenarios import iter_scenarios

    for scenario in iter_scenarios():
        tags = ",".join(scenario.tags)
        print(f"{scenario.name:24s} [{tags}] {scenario.description}", file=stream)
    return 0


def _select_scenarios(positional, only) -> list[str] | None:
    """Resolve positional names and the ``--only`` filter to a name list.

    Returns ``None`` (after printing the registered list) when any name —
    positional or filter — is unknown, or when the filter empties the
    selection; callers exit non-zero on ``None``.
    """
    from repro.scenarios import scenario_names

    registered = scenario_names()
    only_names = None
    if only is not None:
        only_names = [part.strip() for part in only.split(",") if part.strip()]
    unknown = [name for name in list(positional or []) + (only_names or []) if name not in registered]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(registered)}", file=sys.stderr)
        return None
    selected = list(positional) if positional else list(registered)
    if only_names is not None:
        keep = set(only_names)
        selected = [name for name in selected if name in keep]
    if not selected:
        print("no scenarios selected", file=sys.stderr)
        print(f"available: {', '.join(registered)}", file=sys.stderr)
        return None
    return selected


def _scenarios_run(args, stream) -> int:
    from repro.runtime import create_runtime, resolve_workers
    from repro.scenarios import get_scenario, run_scenario

    names = _select_scenarios(args.names, args.only)
    if names is None:
        return 2
    runtime = None
    if resolve_workers(args.workers) > 1:
        runtime = create_runtime(workers=args.workers, backend=args.backend)
    try:
        for name in names:
            outcome = run_scenario(get_scenario(name), runtime=runtime)
            payload = outcome.payload
            recall = payload.get("recall")
            recall_note = f"  recall={recall['recall']:.2f}" if recall else ""
            print(
                f"{name:24s} txns={payload['n_transactions']:<4d} "
                f"fsg={len(payload['fsg']):<4d} subdue={len(payload['subdue'])} "
                f"structural={len(payload['structural']):<4d}"
                f"{recall_note}  digest={outcome.digest}",
                file=stream,
            )
    finally:
        if runtime is not None:
            runtime.close()
    return 0


def _scenarios_verify(args, stream) -> int:
    import json

    from repro.scenarios import verify_scenarios

    if args.names or args.only is not None:
        names = _select_scenarios(args.names, args.only)
        if names is None:
            return 2
    else:
        # No positional names and no filter: verify (and, with
        # --update-golden, fully rewrite) the complete registry.
        names = None
    try:
        shard_counts = tuple(int(part) for part in args.shards.split(",") if part.strip())
    except ValueError:
        print(f"invalid --shards value {args.shards!r}", file=sys.stderr)
        return 2
    if any(count < 1 for count in shard_counts):
        print(f"invalid --shards value {args.shards!r}: shard counts must be >= 1", file=sys.stderr)
        return 2
    backends = tuple(part.strip() for part in args.backends.split(",") if part.strip())
    unknown_backends = [backend for backend in backends if backend not in BACKENDS]
    if unknown_backends:
        print(
            f"invalid --backends value(s) {', '.join(unknown_backends)}; "
            f"expected one of {', '.join(BACKENDS)}",
            file=sys.stderr,
        )
        return 2
    result = verify_scenarios(
        names=names,
        shard_counts=shard_counts,
        backends=backends,
        update=args.update_golden,
        golden_path=args.golden,
        check_oracle=not args.no_oracle,
    )
    for report in result.reports:
        status = "ok" if report.ok else "FAIL"
        print(
            f"{report.scenario:24s} {status:4s} digest={report.digest[:16]} "
            f"runs={len(report.runs)}",
            file=stream,
        )
    if args.report is not None:
        # The report rides on the golden entries but adds each sharded
        # run's aggregated runtime counters (wire bytes shipped, full- vs
        # delta-shipped patterns, store evictions, cache hit rates...);
        # those are observational and deliberately never written to the
        # golden file itself.
        report_entries = {
            report.scenario: {
                **result.entries[report.scenario],
                "runtime_stats": report.runtime_stats,
            }
            for report in result.reports
        }
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(
            json.dumps(report_entries, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.report}", file=stream)
        from repro.obs import TraceData, get_tracer, render_report

        tracer = get_tracer()
        if tracer.enabled:
            # A traced verify also prints the live run report (level x
            # shard skew across every differential run, top spans,
            # metric highlights) alongside the digest table.
            print("", file=stream)
            print(render_report(TraceData.from_tracer(tracer)), file=stream)
    for failure in result.failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if result.failures:
        if args.update_golden:
            print("golden digests NOT updated: fix the failures first", file=sys.stderr)
        return 1
    if result.updated_path is not None:
        print(f"updated golden digests in {result.updated_path}", file=stream)
        return 0
    print(f"all {len(result.reports)} scenario(s) verified", file=stream)
    return 0


def _scenarios_stream(args, stream) -> int:
    import json

    from repro.scenarios import StreamingMobilityCorpus, stream_report

    if args.transactions < 1:
        print("--transactions must be at least 1", file=sys.stderr)
        return 2
    if args.batch_size < 1:
        print("--batch-size must be at least 1", file=sys.stderr)
        return 2
    corpus = StreamingMobilityCorpus(n_transactions=args.transactions, seed=args.seed)
    report = stream_report(corpus, batch_size=args.batch_size)
    print(
        f"streaming-mobility txns={report['n_transactions']} "
        f"batch={report['batch_size']} "
        f"peak={report['peak_traced_bytes'] / 1e6:.1f}MB "
        f"digest={report['sampled_digest']}",
        file=stream,
    )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.out}", file=stream)
    return 0


def _run_scenarios_command(args, stream) -> int:
    if args.scenario_command == "list":
        return _scenarios_list(stream)
    if args.scenario_command == "run":
        return _scenarios_run(args, stream)
    if args.scenario_command == "stream":
        return _scenarios_stream(args, stream)
    return _scenarios_verify(args, stream)


def _run_trace_command(args, stream) -> int:
    from repro.obs import read_jsonl, render_report, write_chrome_trace

    if not args.path.exists():
        print(f"no such trace file: {args.path}", file=sys.stderr)
        return 2
    data = read_jsonl(args.path)
    if args.trace_command == "summarize":
        print(render_report(data, top=args.top), file=stream)
        return 0
    written = write_chrome_trace(args.out, data)
    print(
        f"wrote {written} ({len(data.spans)} spans; open in chrome://tracing or Perfetto)",
        file=stream,
    )
    return 0


def main(argv: Sequence[str] | None = None, stream=None) -> int:
    """CLI entry point; returns the process exit code.

    ``stream`` defaults to the *current* ``sys.stdout`` so output capture
    (pytest's capsys, redirected stdout) works as expected.
    """
    if stream is None:
        stream = sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "trace":
        return _run_trace_command(args, stream)

    # --faults / $REPRO_FAULTS: the environment variable is the carrier
    # — the scenario harness builds runtimes directly, and every
    # ShardedEngine the run constructs picks the plan up from the
    # environment and arms its workers.  Parse eagerly so a typo fails
    # the command, not the first mining run minutes in.
    faults = getattr(args, "faults", None)
    saved_faults = os.environ.get(FAULTS_ENV)
    if faults:
        try:
            FaultPlan.parse(faults)
        except ValueError as error:
            print(f"invalid --faults plan: {error}", file=sys.stderr)
            return 2
        os.environ[FAULTS_ENV] = faults

    # --trace / $REPRO_TRACE: run under an active tracer and write the
    # merged trace (main + shard-worker spans + metrics) when done.  The
    # wall clock is the tracer clock so every worker timeline — aligned
    # to the parent's wall anchor — lands on one time axis.
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        raw_trace = os.environ.get(TRACE_ENV, "").strip()
        if raw_trace:
            trace_path = Path(raw_trace)
    tracer = None
    previous_tracer = None
    if trace_path is not None and args.command in ("run", "all", "scenarios"):
        import time

        from repro.obs import Tracer, set_tracer

        tracer = Tracer(worker="main", clock=time.time)
        previous_tracer = set_tracer(tracer)
    try:
        if args.command == "list":
            for experiment_id in ALL_EXPERIMENTS:
                summary = _EXPERIMENT_SUMMARIES.get(experiment_id, "")
                print(f"{experiment_id:8s} {summary}", file=stream)
            return 0
        if args.command == "run":
            return _run_experiments(args.experiments, args, stream)
        if args.command == "all":
            return _run_experiments(list(ALL_EXPERIMENTS), args, stream)
        if args.command == "scenarios":
            return _run_scenarios_command(args, stream)
    finally:
        if faults:
            if saved_faults is None:
                os.environ.pop(FAULTS_ENV, None)
            else:
                os.environ[FAULTS_ENV] = saved_faults
        if tracer is not None:
            from repro.obs import set_tracer, write_jsonl
            from repro.runtime import resolve_backend, resolve_workers

            set_tracer(previous_tracer)
            meta = {
                "command": args.command,
                "cpu_count": os.cpu_count(),
                "workers": resolve_workers(getattr(args, "workers", None)),
                "backend": resolve_backend(getattr(args, "backend", None)),
            }
            write_jsonl(trace_path, tracer, meta=meta)
            # stderr on purpose: traced and untraced runs must produce
            # byte-identical stdout (the CI digest gate diffs them).
            print(f"wrote trace to {trace_path}", file=sys.stderr)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover - argparse handles this
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    raise SystemExit(main())
