"""Tests for the observability subsystem (repro.obs).

The load-bearing properties, in order:

* **merge algebra** — per-shard metric registries merge order-
  independently, and merging any partition of an event stream equals
  one registry that observed everything serially (the property the
  piggybacked per-shard metric shipping relies on);
* **shard-aware tracing** — a sharded K-worker mining run under an
  active tracer yields one merged trace containing spans from every
  shard worker (level-stamped), per-shard counter totals that match the
  runtime's own merged stats, and mining output identical to the
  untraced serial reference, on both backends;
* **observational purity** — tracing never changes mining output or
  printed digests (the CLI traced-vs-untraced stdout identity);
* **plumbing** — JSONL round-trips, Chrome-trace export, the rendered
  run report, the ``--trace`` flag, and the ``trace`` subcommands.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.graphs.engine import MatchEngine
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.fsg.miner import FSGMiner
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    SpanRecord,
    TraceData,
    Tracer,
    activate,
    chrome_trace_events,
    get_tracer,
    read_jsonl,
    render_report,
    set_tracer,
    write_jsonl,
)
from repro.runtime import SESSION_TELEMETRY_KEYS, ShardedEngine


# ----------------------------------------------------------------------
# Corpus helpers (mirrors test_sessions)
# ----------------------------------------------------------------------
def random_transaction(rng: random.Random, name: str) -> LabeledGraph:
    n_vertices = rng.randint(4, 9)
    graph = LabeledGraph(name=name)
    for v in range(n_vertices):
        graph.add_vertex(f"v{v}", rng.choice(["A", "B", "C"]))
    n_edges = rng.randint(n_vertices - 1, n_vertices + 3)
    added = 0
    while added < n_edges:
        a, b = rng.sample(range(n_vertices), 2)
        if graph.has_edge(f"v{a}", f"v{b}"):
            continue
        graph.add_edge(f"v{a}", f"v{b}", rng.choice(["x", "y"]))
        added += 1
    return graph


def random_corpus(seed: int, size: int = 30) -> list[LabeledGraph]:
    rng = random.Random(seed)
    return [random_transaction(rng, f"t{i}") for i in range(size)]


def mining_signature(result):
    return sorted(
        (
            entry.pattern.n_edges,
            tuple(sorted(entry.supporting_transactions)),
        )
        for entry in result.patterns
    )


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with tracing off."""
    previous = set_tracer(None)
    yield
    set_tracer(previous)


# ----------------------------------------------------------------------
# Metrics registry mechanics
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        registry.counter("hits", 2, shard="0", level="3")
        registry.counter("hits", 3, level="3", shard="0")
        assert registry.counter_value("hits", shard="0", level="3") == 5
        assert registry.counter_total("hits") == 5

    def test_counter_series_and_names(self):
        registry = MetricsRegistry()
        registry.counter("searches", 4, shard="0")
        registry.counter("searches", 6, shard="1")
        registry.counter("wire_bytes", 10)
        assert registry.counter_total("searches") == 10
        assert len(registry.counter_series("searches")) == 2
        assert registry.counter_names() == ["searches", "wire_bytes"]

    def test_absorb_skips_zero_entries(self):
        registry = MetricsRegistry()
        registry.absorb({"hits": 0, "misses": 0})
        assert registry.is_empty()
        registry.absorb({"hits": 0, "misses": 3}, shard="1")
        assert registry.counter_value("misses", shard="1") == 3
        assert registry.counter_total("hits") == 0

    def test_snapshot_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("hits", 7, shard="2")
        registry.counter("wire_bytes", 12, level="1")
        snapshot = registry.snapshot()
        # Counters are the registry's only family.
        assert list(snapshot) == ["counters"]
        rebuilt = MetricsRegistry.from_snapshot(snapshot)
        assert rebuilt.snapshot() == snapshot


# ----------------------------------------------------------------------
# Merge algebra (the property the sharded shipping relies on)
# ----------------------------------------------------------------------
_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(["searches", "wire_bytes", "batch_patterns"]),
        st.integers(min_value=1, max_value=50),
        st.sampled_from(["0", "1", "2"]),
    ),
    max_size=40,
)


class TestMergeProperties:
    @given(events=_EVENTS, shards=st.sampled_from([2, 3]), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_partitioned_merge_equals_serial_in_any_order(self, events, shards, seed):
        serial = MetricsRegistry()
        partitions = [MetricsRegistry() for _ in range(shards)]
        for index, (name, value, shard_label) in enumerate(events):
            serial.counter(name, value, shard=shard_label)
            partitions[index % shards].counter(name, value, shard=shard_label)

        order = list(range(shards))
        random.Random(seed).shuffle(order)
        merged = MetricsRegistry()
        for index in order:
            merged.merge(partitions[index])
        assert merged.snapshot() == serial.snapshot()

    @given(events=_EVENTS)
    @settings(max_examples=30, deadline=None)
    def test_merge_is_commutative(self, events):
        half = len(events) // 2
        ab, ba = MetricsRegistry(), MetricsRegistry()
        parts = []
        for chunk in (events[:half], events[half:]):
            registry = MetricsRegistry()
            for name, value, shard_label in chunk:
                registry.counter(name, value, shard=shard_label)
            parts.append(registry)
        ab.merge(parts[0])
        ab.merge(parts[1])
        ba.merge(parts[1])
        ba.merge(parts[0])
        assert ab.snapshot() == ba.snapshot()


# ----------------------------------------------------------------------
# Tracer mechanics
# ----------------------------------------------------------------------
class TestTracer:
    def test_with_form_records_span(self):
        tracer = Tracer(worker="main")
        with tracer.span("work", level=2) as span:
            span.set(survivors=5)
        [record] = tracer.spans
        assert record.name == "work"
        assert record.worker == "main"
        assert record.attrs == {"level": 2, "survivors": 5}
        assert record.end >= record.start

    def test_finish_form_is_idempotent(self):
        clock_values = iter([1.0, 3.0, 99.0])
        tracer = Tracer(worker="w", clock=lambda: next(clock_values))
        span = tracer.span("level")
        span.finish(survivors=1)
        span.finish(survivors=2)
        [record] = tracer.spans
        assert (record.start, record.end) == (1.0, 3.0)
        assert record.attrs == {"survivors": 1}

    def test_take_spans_drains(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert len(tracer.take_spans()) == 1
        assert tracer.spans == []

    def test_activate_restores_previous(self):
        tracer = Tracer()
        assert get_tracer() is NULL_TRACER
        with activate(tracer) as active:
            assert active is tracer
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", level=9) as span:
            span.set(x=1)
            span.finish()
        assert NULL_TRACER.spans == []
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.metrics.is_empty()

    def test_wire_roundtrip(self):
        record = SpanRecord("shard.slevel", 1.5, 2.5, worker="shard1", attrs={"level": 2})
        clone = SpanRecord.from_wire(record.to_wire())
        assert clone.to_dict() == record.to_dict()
        assert clone.duration == 1.0


# ----------------------------------------------------------------------
# Sharded end-to-end tracing
# ----------------------------------------------------------------------
class TestShardedTracing:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("shards", [2, 3])
    def test_merged_trace_covers_every_shard(self, backend, shards):
        corpus = random_corpus(seed=61, size=24)
        reference = mining_signature(
            FSGMiner(min_support=3, max_edges=3).mine(corpus)
        )

        with activate(Tracer(worker="main")) as tracer:
            runtime = ShardedEngine(shards=shards, backend=backend)
            try:
                result = FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
                stats = runtime.stats()
            finally:
                runtime.close()

        assert mining_signature(result) == reference

        workers = {record.worker for record in tracer.spans}
        assert {f"shard{i}" for i in range(shards)} <= workers
        assert "main" in workers

        # Per-message worker spans that belong to a mining level carry it.
        leveled = [record for record in tracer.spans if record.name == "shard.slevel"]
        assert leveled
        assert all("level" in record.attrs for record in leveled)

        # The per-shard counter deltas shipped on replies must add up to
        # exactly what the runtime's own merged stats report (satellite
        # equivalence: merged per-shard registries == the serial total).
        for key in ("searches", "anchor_extensions", "batch_patterns"):
            shipped = sum(
                tracer.metrics.counter_value(key, shard=str(shard))
                for shard in range(shards)
            )
            assert shipped == stats[key], key

    @pytest.mark.parametrize("sharded", [False, True], ids=["serial", "sharded"])
    def test_one_level_span_per_level(self, sharded):
        # The fsg.level span is a level's only timing record; a sharded
        # session adds one runtime.plan span per level it plans.
        corpus = random_corpus(seed=66, size=20)
        with activate(Tracer(worker="main")) as tracer:
            runtime = ShardedEngine(shards=2, backend="serial") if sharded else None
            try:
                result = FSGMiner(min_support=3, max_edges=4, runtime=runtime).mine(corpus)
            finally:
                if runtime is not None:
                    runtime.close()
        levels = [record.attrs["level"] for record in tracer.spans if record.name == "fsg.level"]
        assert result.levels_completed >= 2
        assert len(levels) == len(set(levels))
        assert set(range(1, result.levels_completed + 1)) <= set(levels)
        plans = [record.attrs["level"] for record in tracer.spans if record.name == "runtime.plan"]
        assert sorted(plans) == (sorted(levels) if sharded else [])

    def test_untraced_sharded_run_matches_serial(self):
        corpus = random_corpus(seed=62, size=18)
        reference = mining_signature(FSGMiner(min_support=3, max_edges=3).mine(corpus))
        runtime = ShardedEngine(shards=2, backend="serial")
        try:
            result = FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
        finally:
            runtime.close()
        assert mining_signature(result) == reference
        assert get_tracer() is NULL_TRACER


# ----------------------------------------------------------------------
# Telemetry when the embedding store holds nothing (full search only)
# ----------------------------------------------------------------------
class TestNonStoreTelemetry:
    def test_full_search_path_reports_wire_and_planning(self):
        corpus = random_corpus(seed=63, size=20)
        with activate(Tracer(worker="main")) as tracer:
            runtime = ShardedEngine(shards=2, backend="serial")
            try:
                # Serial backend: the shard handlers are in-process.  A zero
                # anchor budget stores nothing, so every non-seed query on
                # every shard takes the full search.
                for worker in runtime._pool._handlers:
                    worker.engine.anchor_budget = 0
                result = FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
                stats = runtime.stats()
            finally:
                runtime.close()
        assert stats["anchors_stored"] == stats["anchor_extensions"] == 0
        assert stats["anchor_fallbacks"] > 0
        assert stats["batch_patterns"] > 0
        assert result.level_telemetry
        for counters in result.level_telemetry.values():
            assert set(counters) == set(SESSION_TELEMETRY_KEYS)
        shipped_levels = [level for level in result.level_telemetry if level >= 2]
        assert shipped_levels
        assert result.session_totals()["wire_bytes"] > 0
        # Planning is timed by one runtime.plan span per level.
        plan_levels = [
            record.attrs["level"] for record in tracer.spans if record.name == "runtime.plan"
        ]
        assert plan_levels == sorted(result.level_telemetry)

    def test_serial_runtime_still_files_records(self):
        corpus = random_corpus(seed=64, size=16)
        engine = MatchEngine(anchor_budget=0)
        result = FSGMiner(min_support=3, max_edges=3, engine=engine).mine(corpus)
        assert engine.stats.anchors_stored == 0
        assert result.level_telemetry
        assert set(result.session_totals()) == set(SESSION_TELEMETRY_KEYS)


# ----------------------------------------------------------------------
# Export and report
# ----------------------------------------------------------------------
def _sample_tracer() -> Tracer:
    tracer = Tracer(worker="main")
    tracer.record(SpanRecord("fsg.mine", 0.0, 10.0, "main", {"levels": 2}))
    tracer.record(SpanRecord("fsg.level", 0.0, 6.0, "main", {"level": 1}))
    tracer.record(SpanRecord("fsg.level", 6.0, 10.0, "main", {"level": 2}))
    tracer.record(SpanRecord("shard.slevel", 0.5, 2.5, "shard0", {"level": 1}))
    tracer.record(SpanRecord("shard.slevel", 0.5, 4.5, "shard1", {"level": 1}))
    tracer.record(SpanRecord("shard.slevel", 6.5, 7.5, "shard0", {"level": 2}))
    tracer.record(SpanRecord("shard.slevel", 6.5, 9.5, "shard1", {"level": 2}))
    tracer.metrics.counter("wire_bytes", 1200, level="2")
    tracer.metrics.counter("searches", 40, shard="0")
    tracer.metrics.counter("searches", 60, shard="1")
    return tracer


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, TraceData.from_tracer(tracer, meta={"command": "test"}))
        data = read_jsonl(path)
        assert data.meta["command"] == "test"
        assert len(data.spans) == len(tracer.spans)
        assert data.metrics.counter_total("searches") == 100
        assert data.workers()[0] == "main"
        assert set(data.workers()) == {"main", "shard0", "shard1"}

    def test_chrome_trace_events(self, tmp_path):
        data = TraceData.from_tracer(_sample_tracer(), meta={})
        events = chrome_trace_events(data)
        names = {event["ph"] for event in events}
        assert names == {"M", "X"}
        complete = [event for event in events if event["ph"] == "X"]
        assert len(complete) == len(data.spans)
        assert all(event["dur"] >= 0 for event in complete)
        # Microsecond timestamps on the shared timeline.
        first = min(complete, key=lambda event: event["ts"])
        assert first["ts"] == 0.0

    def test_read_jsonl_tolerates_unknown_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = [
            json.dumps({"type": "meta", "command": "x"}),
            json.dumps({"type": "mystery", "payload": 1}),
            json.dumps(
                {
                    "type": "span",
                    "name": "fsg.level",
                    "worker": "main",
                    "start": 0.0,
                    "end": 1.0,
                    "attrs": {"level": 1},
                }
            ),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        data = read_jsonl(path)
        assert len(data.spans) == 1


    @pytest.mark.parametrize(
        "line, problem",
        [
            ("{not json", "Expecting property name"),
            ("[1, 2]", "expected a JSON object"),
            ('{"type": "span", "start": 0, "end": 1}', "string 'name'"),
            ('{"type": "span", "name": 3, "start": 0, "end": 1}', "string 'name'"),
            ('{"type": "span", "name": "a", "start": "0", "end": 1}', "numeric 'start'"),
            ('{"type": "span", "name": "a", "start": 0}', "numeric 'start'"),
            ('{"type": "span", "name": "a", "start": true, "end": 1}', "numeric 'start'"),
            ('{"type": "metrics"}', "'snapshot' object"),
            ('{"type": "metrics", "snapshot": [1]}', "'snapshot' object"),
            ('{"type": "metrics", "snapshot": {"counters": [{"value": 1}]}}', "'name'"),
        ],
    )
    def test_read_jsonl_rejects_malformed_lines(self, tmp_path, line, problem):
        path = tmp_path / "trace.jsonl"
        meta = json.dumps({"type": "meta", "command": "x"})
        path.write_text(meta + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=problem) as raised:
            read_jsonl(path)
        # The error names the file and the line.
        assert f"{path}:2:" in str(raised.value)

    @given(cut=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_truncated_trace_loads_or_raises_value_error(self, tmp_path_factory, cut):
        path = tmp_path_factory.mktemp("trunc") / "trace.jsonl"
        tracer = _sample_tracer()
        tracer.record(SpanRecord("fsg.level", 0.0, 1.0, "main", {"label": "Zürich"}))
        write_jsonl(path, TraceData.from_tracer(tracer, meta={"command": "x"}))
        payload = path.read_bytes()
        path.write_bytes(payload[: cut % (len(payload) + 1)])
        try:
            data = read_jsonl(path)
        except ValueError:
            return
        assert len(data.spans) <= len(tracer.spans)

    def test_older_snapshot_with_gauges_and_histograms_still_loads(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        snapshot = {
            "counters": [{"name": "wire_bytes", "labels": {"level": "2"}, "value": 7}],
            "gauges": [{"name": "fsg.level_seconds", "labels": {"level": "2"}, "value": 0.5}],
            "histograms": [
                {
                    "name": "recovery_seconds",
                    "labels": {"shard": "1"},
                    "count": 1,
                    "total": 0.2,
                    "min": 0.2,
                    "max": 0.2,
                }
            ],
        }
        path.write_text(
            json.dumps({"type": "metrics", "snapshot": snapshot}) + "\n", encoding="utf-8"
        )
        metrics = read_jsonl(path).metrics
        assert metrics.counter_names() == ["wire_bytes"]
        assert metrics.counter_value("wire_bytes", level="2") == 7
        assert list(metrics.snapshot()) == ["counters"]


class TestReport:
    def test_report_renders_skew_table_and_metrics(self):
        report = render_report(TraceData.from_tracer(_sample_tracer(), meta={"command": "t"}))
        assert "repro run report" in report
        assert "level" in report
        assert "shard0" in report and "shard1" in report
        # shard1 is 2x slower at both levels -> imbalance column present.
        assert "imbalance" in report
        assert "fsg.mine" in report  # top spans
        assert "searches" in report  # counter totals

    def test_report_without_shard_spans_uses_main_levels(self):
        tracer = Tracer(worker="main")
        tracer.record(SpanRecord("fsg.level", 0.0, 1.0, "main", {"level": 1}))
        report = render_report(TraceData.from_tracer(tracer, meta={}))
        assert "level" in report
        assert "main" in report


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestCLI:
    def test_traced_run_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        exit_code = main(["run", "T1", "--scale", "0.012", "--trace", str(path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert path.exists()
        assert f"wrote trace to {path}" in captured.err
        data = read_jsonl(path)
        assert data.meta["command"] == "run"
        assert data.spans
        assert get_tracer() is NULL_TRACER

    def test_traced_and_untraced_scenario_stdout_identical(self, tmp_path, capsys):
        assert main(["scenarios", "run", "dense-uniform"]) == 0
        untraced = capsys.readouterr().out
        path = tmp_path / "scenario.jsonl"
        assert main(["scenarios", "run", "dense-uniform", "--trace", str(path)]) == 0
        traced = capsys.readouterr().out
        assert traced == untraced
        assert path.exists()

    def test_traced_f1_records_subdue_spans(self, tmp_path, capsys):
        assert main(["run", "F1", "--scale", "0.01"]) == 0
        untraced = capsys.readouterr().out
        path = tmp_path / "f1.jsonl"
        assert main(["run", "F1", "--scale", "0.01", "--trace", str(path)]) == 0
        assert capsys.readouterr().out == untraced
        spans = read_jsonl(path).spans
        (mine,) = [span for span in spans if span.name == "subdue.mine"]
        assert mine.attrs == {"vertices": 60, "edges": 167, "evaluated": 313}
        for name in ("subdue.expand", "subdue.group", "subdue.evaluate"):
            inner = [span for span in spans if span.name == name]
            assert inner, name
            assert all(mine.start <= span.start and span.end <= mine.end for span in inner)
        assert len([span for span in spans if span.name == "subdue.evaluate"]) == 313

    def test_trace_summarize(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, TraceData.from_tracer(_sample_tracer(), meta={"command": "x"}))
        assert main(["trace", "summarize", str(path)]) == 0
        captured = capsys.readouterr()
        assert "repro run report" in captured.out
        assert "shard1" in captured.out

    def test_trace_export_chrome(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        out = tmp_path / "trace.chrome.json"
        write_jsonl(path, TraceData.from_tracer(_sample_tracer(), meta={}))
        assert main(["trace", "export", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"

    def test_trace_summarize_missing_file(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["summarize", "export"])
    def test_trace_commands_reject_malformed_trace(self, tmp_path, capsys, command):
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, TraceData.from_tracer(_sample_tracer(), meta={"command": "x"}))
        # A crash mid-write leaves the last line cut short.
        path.write_bytes(path.read_bytes()[:-15])
        argv = ["trace", command, str(path)]
        if command == "export":
            argv += ["--out", str(tmp_path / "out.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "malformed trace file" in captured.err
        assert str(path) in captured.err
