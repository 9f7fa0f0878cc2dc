"""Outside-in layer tracing for the benchmark's traced runs.

The program is not changed to be measured.  Instead :class:`LayerTracer`
wraps the public functions behind each span name in :data:`SPANS`,
rebinding every module attribute and class attribute that refers to a
target (callers import by name, e.g. ``repro.mining.fsg.miner`` holds its
own ``generate_candidates``), and restores the originals afterwards.

A span's self time is its duration minus its child spans minus the
garbage-collector pauses inside it; pauses come from ``gc.callbacks``.  The
job itself is the root span, whose self time is the ``other`` bucket, so
the self times of all spans plus ``other`` plus ``py.gc`` add up to the
job's wall time.

Shard workers are separate processes.  Their busy time comes from the
program's own tracer (:mod:`repro.obs`), which the traced run turns on:
its ``shard.*`` spans, plus a ``wire.decode`` span that this module
records on the worker's tracer around each message decode.
"""

from __future__ import annotations

import functools
import gc
import importlib
import os
import sys
import time

#: ``(span name, module, attribute)``; ``Class.method`` names a method.
#: Several targets may share a span name.
SPANS = (
    ("runtime.add", "repro.runtime.base", "SerialRuntime.add_transactions"),
    ("runtime.add", "repro.runtime.shards", "ShardedEngine.add_transactions"),
    ("runtime.support_level", "repro.runtime.base", "DelegatingSession.support_level"),
    ("runtime.support_level", "repro.runtime.shards", "ShardedSession.support_level"),
    ("fsg.level1", "repro.mining.fsg.candidates", "frequent_single_edges"),
    ("fsg.candidates", "repro.mining.fsg.candidates", "generate_candidates"),
    ("fsg.dedup", "repro.mining.fsg.candidates", "deduplicate"),
    ("graphs.canonical_code", "repro.graphs.canonical", "canonical_code"),
    ("graphs.are_isomorphic", "repro.graphs.engine", "MatchEngine.are_isomorphic"),
    ("graphs.invariant", "repro.graphs.canonical", "graph_invariant"),
    ("runtime.plan", "repro.runtime.planner", "BatchSupportPlanner.plan"),
    ("runtime.plan", "repro.runtime.planner", "BatchSupportPlanner.plan_level"),
    ("runtime.plan", "repro.runtime.planner", "BatchSupportPlanner.plan_session_level"),
    ("wire.encode", "repro.runtime.wire", "encode_message"),
    ("pool.send", "repro.runtime.pool", "ProcessBackend.send"),
    ("pool.wait", "repro.runtime.pool", "ProcessBackend.recv"),
    ("runtime.start", "repro.runtime.shards", "ShardedEngine.__init__"),
    ("runtime.close", "repro.runtime.shards", "ShardedEngine.close"),
    ("subdue.expand", "repro.mining.subdue.expansion", "expand_substructure"),
    ("subdue.group", "repro.mining.subdue.substructure", "group_instances_by_pattern"),
    ("subdue.instance_pattern", "repro.mining.subdue.substructure", "instance_pattern"),
    ("subdue.evaluate", "repro.mining.subdue.evaluation", "evaluate"),
    ("partition.temporal", "repro.partitioning.temporal", "partition_by_date"),
    ("partition.temporal", "repro.partitioning.temporal", "prepare_temporal_transactions"),
    ("partition.split", "repro.partitioning.split_graph", "split_graph"),
    ("partition.split", "repro.partitioning.multilevel", "multilevel_partition"),
    ("patterns.recall", "repro.patterns.recall", "measure_recall"),
)

#: Span names whose call counts are reported.
COUNTED_CALLS = (
    "graphs.canonical_code",
    "graphs.are_isomorphic",
    "graphs.invariant",
    "subdue.instance_pattern",
    "subdue.evaluate",
)


#: The tracer whose wrappers are installed in this process, if any.
_installed: "LayerTracer | None" = None
_fork_hook_registered = False

#: The shard worker of this process, captured when its tracing starts;
#: only ever set inside a forked shard worker.
_shard_worker = None


def _after_fork_in_child() -> None:
    # A forked shard worker inherits the wrappers mid-span; its time is
    # the parent's pool.wait, so it must record nothing of its own.
    if _installed is not None:
        _installed.active = False


def resolve(module_name: str, attribute: str):
    """``(owner, name, target)`` for one wrapper target; raises if missing.

    Modules are looked up by import name, never by attribute walk:
    ``repro.partitioning.split_graph`` the attribute is the function, the
    module of the same name is what owns it.
    """
    owner = importlib.import_module(module_name)
    *classes, name = attribute.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
    target = vars(owner).get(name)
    if target is None or not callable(target):
        raise LookupError(f"wrapper target {module_name}.{attribute} is missing")
    return owner, name, target


class LayerTracer:
    """Per-layer self time, call counts and exact counts for one traced job."""

    def __init__(self) -> None:
        self.active = False
        self._patches: list[tuple[object, str, object]] = []
        self._clock = time.perf_counter
        # Open spans as parallel stacks of floats: a frame allocates no
        # container, so tracing barely shifts when the collector runs.
        self._starts: list[float] = []
        self._child: list[float] = []
        self._gc_marks: list[float] = []
        self._child_gc: list[float] = []
        self._gc_started = 0.0
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = {name: 0.0 for name, _, _ in SPANS}
        #: Collector pauses inside each span and outside its child spans:
        #: what its self time would hold if pauses were not taken out.
        self.gc_in: dict[str, float] = {name: 0.0 for name, _, _ in SPANS}
        self.calls: dict[str, int] = {name: 0 for name, _, _ in SPANS}
        self.gc_s = 0.0
        self.counts: dict[str, int] = {
            "fsg.candidates": 0,
            "fsg.patterns": 0,
            "subdue.evaluated": 0,
        }
        self.engines: list = []

    # -- spans -----------------------------------------------------------
    def _enter(self) -> None:
        self._starts.append(self._clock())
        self._child.append(0.0)
        self._gc_marks.append(self.gc_s)
        self._child_gc.append(0.0)

    def _exit(self, name: str) -> float:
        end = self._clock()
        duration = end - self._starts.pop()
        child = self._child.pop()
        gc_inside = self.gc_s - self._gc_marks.pop()
        child_gc = self._child_gc.pop()
        self.self_s[name] = self.self_s.get(name, 0.0) + (
            duration - child - (gc_inside - child_gc)
        )
        self.gc_in[name] = self.gc_in.get(name, 0.0) + (gc_inside - child_gc)
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._starts:
            self._child[-1] += duration
            self._child_gc[-1] += gc_inside
        return duration

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_started = self._clock()
        else:
            self.gc_s += self._clock() - self._gc_started

    def _span(self, name: str, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name)
            if on_return is not None:
                on_return(args, result)
            return result

        return span

    def _hook(self, fn, on_return):
        tracer = self

        @functools.wraps(fn)
        def hook(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                on_return(args, result)
            return result

        return hook

    # -- exact counts ------------------------------------------------------
    def _count_candidates(self, args, result) -> None:
        self.counts["fsg.candidates"] += len(result)

    def _count_patterns(self, args, result) -> None:
        self.counts["fsg.patterns"] += len(result.patterns)

    def _count_evaluated(self, args, result) -> None:
        self.counts["subdue.evaluated"] += result.evaluated

    def _register_engine(self, args, result) -> None:
        self.engines.append(args[0].stats)

    # -- install / remove --------------------------------------------------
    def _patch(self, owner, name: str, target, wrapper) -> None:
        """Rebind *target* to *wrapper* on *owner* and on every ``repro``
        module that imported it by name."""
        self._patches.append((owner, name, target))
        setattr(owner, name, wrapper)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is target:
                    self._patches.append((module, attribute, target))
                    setattr(module, attribute, wrapper)

    def install(self) -> None:
        """Wrap every target; raises :class:`LookupError` if one is missing."""
        global _installed, _fork_hook_registered
        if self._patches:
            raise RuntimeError("layer tracer is already installed")
        if not _fork_hook_registered:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _fork_hook_registered = True
        on_return = {
            "fsg.level1": self._count_candidates,
            "fsg.candidates": self._count_candidates,
        }
        resolved = [
            (span_name, *resolve(module, attribute)) for span_name, module, attribute in SPANS
        ]
        hooks = [
            (*resolve("repro.graphs.engine", "MatchEngine.__init__"), self._register_engine),
            (*resolve("repro.mining.fsg.miner", "FSGMiner.mine"), self._count_patterns),
            (*resolve("repro.mining.subdue.miner", "SubdueMiner.mine"), self._count_evaluated),
        ]
        decode = resolve("repro.runtime.wire", "decode_message")
        enable = resolve("repro.runtime.shards", "ShardWorker._enable_tracing")
        for span_name, owner, name, target in resolved:
            self._patch(owner, name, target, self._span(span_name, target, on_return.get(span_name)))
        for owner, name, target, callback in hooks:
            self._patch(owner, name, target, self._hook(target, callback))
        self._patch(*decode, _worker_decode(decode[2]))
        self._patch(*enable, _capture_worker(enable[2]))
        gc.callbacks.append(self._on_gc)
        _installed = self

    def remove(self) -> None:
        """Restore every original binding, newest patch first."""
        global _installed
        for owner, name, target in reversed(self._patches):
            setattr(owner, name, target)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        _installed = None

    # -- one job -------------------------------------------------------------
    def begin_job(self) -> None:
        """Reset the totals and open the job's root span."""
        self.reset()
        self.active = True
        self._enter()

    def end_job(self) -> float:
        """Close the root span; returns the job's wall time."""
        duration = self._exit("other")
        self.active = False
        return duration

    def layer_seconds(self) -> dict[str, float]:
        """Self seconds per span name, ``other`` and ``py.gc``."""
        layers = dict(self.self_s)
        layers["py.gc"] = self.gc_s
        return layers

    def engine_counts(self) -> dict[str, int]:
        """Every engine counter, summed over the engines this job created."""
        totals: dict[str, int] = {}
        for stats in self.engines:
            for key, value in stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
        return totals


def _worker_decode(decode):
    """``decode_message``, recorded as a ``wire.decode`` span on the shard
    worker's own tracer once that worker has tracing on."""

    @functools.wraps(decode)
    def traced_decode(*args, **kwargs):
        worker = _shard_worker
        if worker is None or worker.tracer is None:
            return decode(*args, **kwargs)
        with worker.tracer.span("wire.decode"):
            return decode(*args, **kwargs)

    return traced_decode


def _capture_worker(enable_tracing):
    """``ShardWorker._enable_tracing``, remembering the worker it ran on."""

    @functools.wraps(enable_tracing)
    def capture(self, *args, **kwargs):
        global _shard_worker
        _shard_worker = self
        return enable_tracing(self, *args, **kwargs)

    return capture


def worker_trace(obs_tracer) -> dict:
    """Shard-side figures of one job from the program tracer's output.

    Busy time per shard is the summed duration of its ``shard.*`` message
    spans plus its ``wire.decode`` spans; the shards' engine and session
    counters arrive as per-shard deltas on the replies.
    """
    busy: dict[str, float] = {}
    decode_s = 0.0
    for record in obs_tracer.spans:
        if record.worker == "main":
            continue
        if record.name == "wire.decode":
            decode_s += record.duration
        elif not record.name.startswith("shard."):
            continue
        busy[record.worker] = busy.get(record.worker, 0.0) + record.duration
    metrics = obs_tracer.metrics
    counters: dict[str, int] = {}
    for name in metrics.counter_names():
        shard_total = sum(
            value
            for labels, value in metrics.counter_series(name).items()
            if any(key == "shard" for key, _ in labels)
        )
        if shard_total:
            counters[name] = int(shard_total)
    return {"busy": busy, "decode_s": decode_s, "counters": counters}
