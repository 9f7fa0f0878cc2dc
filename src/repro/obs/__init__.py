"""Unified observability: spans, labeled metrics, trace export, reports.

The subsystem has four pieces, each usable alone:

* :mod:`repro.obs.tracer` — :class:`Tracer` span collection on an
  injectable clock, the :data:`NULL_TRACER` zero-overhead off switch,
  and the process-global active tracer the CLI installs;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, the labeled
  counter store whose commutative merge makes per-shard registries safe
  to combine in any order (timings are spans, never metrics);
* :mod:`repro.obs.export` — JSONL traces on disk and Chrome Trace Event
  Format for ``chrome://tracing`` / Perfetto;
* :mod:`repro.obs.report` — the terminal run report behind
  ``repro trace summarize`` (level × shard skew table, top spans,
  metric highlights).

Instrumented layers (miner, runtimes, shard workers, scenario harness)
always record through the active tracer; with tracing off that is the
no-op singleton, so observability costs nothing and can never perturb
mining output — the golden scenario digests are byte-identical with
tracing on and off, and CI checks exactly that.
"""

from repro.obs.export import (
    TraceData,
    chrome_trace_events,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.obs.report import render_report
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanRecord,
    TRACE_ENV,
    Tracer,
    activate,
    get_tracer,
    set_tracer,
)

__all__ = [
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "Span",
    "SpanRecord",
    "TRACE_ENV",
    "TraceData",
    "Tracer",
    "activate",
    "chrome_trace_events",
    "get_tracer",
    "read_jsonl",
    "render_report",
    "set_tracer",
    "write_chrome_trace",
    "write_jsonl",
]
