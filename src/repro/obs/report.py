"""Terminal run reports over trace data.

:func:`render_report` turns a :class:`~repro.obs.export.TraceData` into
the plain-text report ``repro trace summarize`` prints:

* a **level × worker table** of seconds spent per mining level on each
  timeline (shard workers when the run was sharded, the main timeline
  otherwise), with a per-level imbalance ratio — the max/min across
  shards that tid placement cannot always keep near 1.0;
* the **top-N spans** by duration, across all workers;
* **metric highlights** — wire bytes, shipment mix and session-store
  hits — derived from the registry counters.

Everything renders from the trace alone, so the report works the same
on a live tracer (``scenarios verify --report``) and on a JSONL file
loaded weeks later.
"""

from __future__ import annotations

from repro.obs.export import TraceData

#: Span names whose duration counts toward a worker's per-level cell.
#: Shard timelines are summed over their leveled message spans; the main
#: timeline uses the miner's own level spans.
_SHARD_LEVEL_SPANS = ("shard.slevel", "shard.level", "shard.batch")
_MAIN_LEVEL_SPAN = "fsg.level"


def _level_sort_key(label: str):
    try:
        return (0, int(label))
    except (TypeError, ValueError):
        return (1, str(label))


def _level_worker_cells(data: TraceData) -> tuple[list[str], list[str], dict]:
    """(levels, workers, {(level, worker): seconds}) for the skew table."""
    shard_workers = sorted({s.worker for s in data.spans if s.worker != "main"})
    cells: dict[tuple[str, str], float] = {}
    if shard_workers:
        workers = shard_workers
        source = [
            s
            for s in data.spans
            if s.worker != "main" and s.name in _SHARD_LEVEL_SPANS
        ]
    else:
        workers = ["main"]
        source = [s for s in data.spans if s.name == _MAIN_LEVEL_SPAN]
    for span in source:
        level = span.attrs.get("level")
        if level is None:
            continue
        key = (str(level), span.worker)
        cells[key] = cells.get(key, 0.0) + span.duration
    levels = sorted({level for level, _ in cells}, key=_level_sort_key)
    return levels, workers, cells


def _format_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(str(headers[column])), *(len(str(row[column])) for row in rows))
        if rows
        else len(str(headers[column]))
        for column in range(len(headers))
    ]
    def fmt(values):
        return "  ".join(str(value).rjust(width) for value, width in zip(values, widths))
    lines = [fmt(headers), fmt(["-" * width for width in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines


def _seconds(value: float) -> str:
    return f"{value:.4f}"


def _skew_section(data: TraceData) -> list[str]:
    levels, workers, cells = _level_worker_cells(data)
    if not levels:
        return ["(no leveled spans in this trace)"]
    multi = len(workers) > 1
    headers = ["level", *workers, "total"] + (["imbalance"] if multi else [])
    rows: list[list[str]] = []
    worker_totals = {worker: 0.0 for worker in workers}
    for level in levels:
        values = [cells.get((level, worker), 0.0) for worker in workers]
        for worker, value in zip(workers, values):
            worker_totals[worker] += value
        row = [level, *(_seconds(v) for v in values), _seconds(sum(values))]
        if multi:
            busy = [v for v in values if v > 0]
            ratio = (max(busy) / min(busy)) if len(busy) > 1 else float("nan")
            row.append(f"{ratio:.2f}" if busy and len(busy) > 1 else "-")
        rows.append(row)
    totals_row = [
        "total",
        *(_seconds(worker_totals[worker]) for worker in workers),
        _seconds(sum(worker_totals.values())),
    ]
    if multi:
        busy = [v for v in worker_totals.values() if v > 0]
        totals_row.append(f"{max(busy) / min(busy):.2f}" if len(busy) > 1 else "-")
    rows.append(totals_row)
    title = (
        "seconds per level x shard (imbalance = max/min across shards)"
        if multi
        else "seconds per level (single timeline)"
    )
    return [title, *_format_table(headers, rows)]


def _top_spans_section(data: TraceData, top: int) -> list[str]:
    if not data.spans:
        return []
    ranked = sorted(data.spans, key=lambda span: -span.duration)[:top]
    rows = []
    for span in ranked:
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(span.attrs.items(), key=str)
        )
        rows.append(
            [span.name, span.worker, _seconds(span.duration), attrs]
        )
    return [
        f"top {len(ranked)} spans by duration",
        *_format_table(["span", "worker", "seconds", "attrs"], rows),
    ]


def _rate(hits: float, misses: float) -> str:
    total = hits + misses
    return f"{hits / total:.1%}" if total else "-"


def _metrics_section(data: TraceData) -> list[str]:
    metrics = data.metrics
    names = metrics.counter_names()
    if not names:
        return []
    lines = ["metric totals (summed across labels)"]
    rows = [[name, f"{metrics.counter_total(name):,.6g}"] for name in names]
    lines.extend(_format_table(["counter", "total"], rows))
    wire = metrics.counter_total("wire_bytes") or metrics.counter_total(
        "wire_bytes_shipped"
    )
    derived = []
    if wire:
        derived.append(f"wire bytes shipped: {wire:,.0f}")
    delta = metrics.counter_total("patterns_delta") or metrics.counter_total(
        "patterns_shipped_delta"
    )
    full = metrics.counter_total("patterns_full") or metrics.counter_total(
        "patterns_shipped_full"
    )
    if delta or full:
        derived.append(
            f"pattern shipments: {full:,.0f} full / {delta:,.0f} delta "
            f"(delta share {_rate(delta, full)})"
        )
    store_hits = metrics.counter_total("store_hits")
    if store_hits or full:
        derived.append(f"session store hits: {store_hits:,.0f}")
    if derived:
        lines.append("")
        lines.extend(derived)
    return lines


def render_report(data: TraceData, top: int = 10) -> str:
    """The full terminal report for *data*."""
    lines: list[str] = ["== repro run report =="]
    if data.meta:
        meta = " ".join(
            f"{key}={value}" for key, value in sorted(data.meta.items(), key=str)
        )
        lines.append(meta)
    lines.append(f"spans: {len(data.spans)}  workers: {', '.join(data.workers()) or '-'}")
    for section in (
        _skew_section(data),
        _top_spans_section(data, top),
        _metrics_section(data),
    ):
        if section:
            lines.append("")
            lines.extend(section)
    return "\n".join(lines)
