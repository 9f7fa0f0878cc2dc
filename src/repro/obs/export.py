"""Trace export and import: JSONL on disk, Chrome Trace Event for viewers.

The native on-disk form is JSONL — one self-describing object per line::

    {"type": "meta", "command": "scenarios run", "cpu_count": 8, ...}
    {"type": "span", "name": "fsg.level", "worker": "shard1", ...}
    {"type": "metrics", "snapshot": {"counters": [...]}}

Line-oriented output appends safely and greps well.  :func:`read_jsonl`
tolerates unknown ``type`` values so future writers stay readable by old
readers, and rejects a malformed line — a trace cut short mid-write, say
— with a ``ValueError`` naming the file and line.

:func:`write_chrome_trace` converts a trace to the Chrome Trace Event
Format (``chrome://tracing`` / Perfetto / ``about:tracing``): one ``"X"``
complete event per span with microsecond timestamps, plus ``"M"``
metadata events naming each worker's thread row — so a sharded mining
run renders as K parallel swimlanes whose per-level skew is visible at a
glance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NullTracer, SpanRecord, Tracer


@dataclass
class TraceData:
    """A loaded (or about-to-be-written) trace: meta + spans + metrics."""

    meta: dict = field(default_factory=dict)
    spans: list[SpanRecord] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @classmethod
    def from_tracer(
        cls, tracer: Tracer | NullTracer, meta: dict | None = None
    ) -> "TraceData":
        """Snapshot a live tracer without draining it."""
        return cls(
            meta=dict(meta or {}),
            spans=list(tracer.spans),
            metrics=tracer.metrics,
        )

    def workers(self) -> list[str]:
        """Distinct span workers, ``main`` first, shards in index order."""
        names = {span.worker for span in self.spans}
        ordered = sorted(names - {"main"})
        return (["main"] if "main" in names else []) + ordered


def write_jsonl(
    path: str | Path,
    trace: TraceData | Tracer | NullTracer,
    meta: dict | None = None,
) -> Path:
    """Write *trace* (a :class:`TraceData` or a live tracer) as JSONL."""
    data = (
        trace
        if isinstance(trace, TraceData)
        else TraceData.from_tracer(trace, meta=meta)
    )
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        if data.meta:
            handle.write(json.dumps({"type": "meta", **data.meta}, default=str) + "\n")
        for span in data.spans:
            handle.write(
                json.dumps({"type": "span", **span.to_dict()}, default=str) + "\n"
            )
        snapshot = data.metrics.snapshot()
        if any(snapshot.values()):
            handle.write(
                json.dumps({"type": "metrics", "snapshot": snapshot}, default=str)
                + "\n"
            )
    return path


def _load_entry(data: TraceData, entry) -> None:
    """File one parsed JSONL entry into *data*; raises if it is malformed."""
    if not isinstance(entry, dict):
        raise ValueError(f"expected a JSON object, got {type(entry).__name__}")
    kind = entry.get("type")
    if kind == "meta":
        data.meta.update((key, value) for key, value in entry.items() if key != "type")
    elif kind == "span":
        if not (
            isinstance(entry.get("name"), str)
            and isinstance(entry.get("worker", "main"), str)
            # JSON numbers parse to exactly int or float (never bool).
            and all(type(entry.get(key)) in (int, float) for key in ("start", "end"))
        ):
            raise ValueError("span without a string 'name' and numeric 'start' / 'end'")
        data.spans.append(SpanRecord.from_dict(entry))
    elif kind == "metrics":
        if not isinstance(entry.get("snapshot"), dict):
            raise ValueError("metrics entry without a 'snapshot' object")
        data.metrics.merge(MetricsRegistry.from_snapshot(entry["snapshot"]))
    # Unknown types are skipped: forward compatibility.


def read_jsonl(path: str | Path) -> TraceData:
    """Load a JSONL trace written by :func:`write_jsonl`.

    A line that is not UTF-8 JSON, an entry that is not an object, a span
    without a string name or numeric bounds, or a metrics entry without a
    snapshot object raises ``ValueError`` naming the file and line.
    """
    data = TraceData()
    with Path(path).open("rb") as handle:
        for number, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    _load_entry(data, json.loads(line))
            except (AttributeError, KeyError, TypeError, ValueError) as error:
                raise ValueError(
                    f"{path}:{number}: malformed trace line ({type(error).__name__}: {error})"
                ) from None
    return data


def chrome_trace_events(data: TraceData) -> list[dict]:
    """The Chrome Trace Event list for *data* (``"M"`` names + ``"X"`` spans)."""
    workers = data.workers()
    tid_of = {worker: tid for tid, worker in enumerate(workers)}
    events: list[dict] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": worker},
        }
        for worker, tid in tid_of.items()
    ]
    for span in data.spans:
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "pid": 0,
                "tid": tid_of[span.worker],
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "args": dict(span.attrs),
            }
        )
    return events


def write_chrome_trace(path: str | Path, data: TraceData) -> Path:
    """Write *data* in Chrome Trace Event Format (a single JSON object)."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "traceEvents": chrome_trace_events(data),
        "displayTimeUnit": "ms",
        "metadata": dict(data.meta),
    }
    path.write_text(json.dumps(payload, default=str) + "\n", encoding="utf-8")
    return path
