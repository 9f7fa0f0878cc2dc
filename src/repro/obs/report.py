"""Terminal run reports over trace data.

:func:`render_report` turns a :class:`~repro.obs.export.TraceData` into
the plain-text report ``repro trace summarize`` prints:

* a **level × worker table** of seconds spent per mining level on each
  timeline (shard workers when the run was sharded, the main timeline
  otherwise), with a per-level imbalance ratio — the max/min across
  shards that tid placement cannot always keep near 1.0;
* the **top-N spans** by duration, across all workers;
* **metric totals** from the registry counters, with the wire bytes
  shipped called out.

Everything renders from the trace alone, so the report works the same
on a live tracer (``scenarios verify --report``) and on a JSONL file
loaded weeks later.
"""

from __future__ import annotations

from repro.obs.export import TraceData

#: Span names whose duration counts toward a worker's per-level cell.
#: Shard timelines are summed over their leveled ``slevel`` message
#: spans; the main timeline uses the miner's own level spans.
_SHARD_LEVEL_SPAN = "shard.slevel"
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
            if s.worker != "main" and s.name == _SHARD_LEVEL_SPAN
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


def _imbalance(values: list[float]) -> str:
    busy = [value for value in values if value > 0]
    return f"{max(busy) / min(busy):.2f}" if len(busy) > 1 else "-"


def _skew_section(data: TraceData) -> list[str]:
    levels, workers, cells = _level_worker_cells(data)
    if not levels:
        return ["(no leveled spans in this trace)"]
    multi = len(workers) > 1
    headers = ["level", *workers, "total"] + (["imbalance"] if multi else [])
    table = [(level, [cells.get((level, worker), 0.0) for worker in workers]) for level in levels]
    per_worker = zip(*(values for _, values in table))
    table.append(("total", [sum(column) for column in per_worker]))
    rows: list[list[str]] = []
    for label, values in table:
        row = [label, *(_seconds(v) for v in values), _seconds(sum(values))]
        if multi:
            row.append(_imbalance(values))
        rows.append(row)
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


def _metrics_section(data: TraceData) -> list[str]:
    metrics = data.metrics
    names = metrics.counter_names()
    if not names:
        return []
    lines = ["metric totals (summed across labels)"]
    rows = [[name, f"{metrics.counter_total(name):,.6g}"] for name in names]
    lines.extend(_format_table(["counter", "total"], rows))
    wire = metrics.counter_total("wire_bytes")
    if wire:
        lines.append("")
        lines.append(f"wire bytes shipped: {wire:,.0f}")
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
