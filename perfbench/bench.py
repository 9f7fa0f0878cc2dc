"""One run of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script with a clean environment; run it directly
only for debugging::

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/bench.py \\
        --workload fsg-serial --seed 20050405 --seconds 10 --trace 0

Set-up (imports and input generation) is timed from the first line of
this file.  The first job is a warm-up: its digest is checked and it
counts as an operation, but it is not timed.  Timed jobs then run back to
back until ``--seconds`` have passed.  Before each job the default engine
is reset and the collector runs, so no job inherits another's garbage.
A fixed reference loop times the host (``host.ref_s``) just before and
just after each job, and the bounded metrics divide by it.

With ``--trace 1`` timed jobs alternate between untraced and traced, so
both see the same host; the traced jobs give the per-layer metrics and the
difference of the two medians is the tracing overhead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``, and this process's ``setup_s`` and
``setup_wall_s``, which ``run.py`` folds into the median over its set-up
samples.
"""

import time

ENTRY = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.graphs.engine import EngineStats, reset_default_engine, resolve_kernel  # noqa: E402
from repro.obs import Tracer, activate  # noqa: E402
from repro.runtime import resolve_placement, resolve_wire  # noqa: E402

#: Units of every metric this script reports.
END_TO_END_UNITS = {
    "job_ref": "ratio",
    "cpu_ref": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "job_s": "s",
    "cpu_s": "s",
    "datasets.generate_s": "s",
    "host.ref_s": "s",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
    "other.self_s": "s",
    "py.gc.self_s": "s",
    "py.gc.collections": "count",
    "py.gc.gen2": "count",
    **{f"{name}.self_s": "s" for name in dict.fromkeys(name for name, _, _ in layers.SPANS)},
    **{f"{name}.calls": "count" for name in layers.COUNTED_CALLS},
    "fsg.candidates": "count",
    "fsg.patterns": "count",
    "fsg.survival": "ratio",
    "graphs.indexes_built": "count",
    "graphs.anchor_extensions": "count",
    "graphs.support_aborts": "count",
    "graphs.verdict_hit_ratio": "ratio",
    "wire.decode.self_s": "s",
    "wire.bytes": "B",
    "runtime.worker_restarts": "count",
    "runtime.level_replays": "count",
    "shard.busy_max_s": "s",
    "shard.busy_min_s": "s",
    "runtime.shard_scan_max": "count",
    "runtime.shard_scan_min": "count",
    "worker_peak_rss_mb": "MB",
    "subdue.evaluated": "count",
}
#: Per-layer times measured inside shard workers: they overlap the
#: parent's ``pool.wait`` and are not part of the job's layer sum.
WORKER_SIDE = ("wire.decode.self_s", "shard.busy_max_s", "shard.busy_min_s")
#: Counter names of the match engine; shard workers add their own.
ENGINE_KEYS = frozenset(field.name for field in dataclasses.fields(EngineStats))


#: The reference loop's time on a host of nominal speed.  ``setup_s`` is
#: scaled to it, so set-up time reads in seconds of that host.
REF_NOMINAL_S = 0.020

#: Operands of the reference loop, made once so the loop allocates nothing.
_REF_WORDS = tuple(f"w{i % 97}" for i in range(512))
_REF_TABLE = {word: index for index, word in enumerate(_REF_WORDS)}


def _ref_work(rounds: int = 300) -> int:
    """Dict lookups, string compares and small-int arithmetic over fixed
    operands.  It allocates nothing, so the state the previous job left the
    allocator in cannot change its time; only the host's speed can."""
    total = 0
    table = _REF_TABLE
    for _ in range(rounds):
        previous = ""
        for word in _REF_WORDS:
            total += table[word] & 7
            if word < previous:
                total += 1
            previous = word
    return total


def host_ref_s(repeats: int = 3) -> list[float]:
    """*repeats* timings of the fixed reference loop, collector off."""
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            _ref_work()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return times


def cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def gc_delta(before: list[dict], after: list[dict]) -> dict:
    delta = {}
    for generation, (old, new) in enumerate(zip(before, after)):
        for key in ("collections", "collected", "uncollectable"):
            delta[f"py.gc.gen{generation}.{key}"] = new[key] - old[key]
    return delta


def env_stamp() -> dict:
    """What shaped the numbers: resolved program defaults and the host."""
    try:
        load_avg = round(os.getloadavg()[0], 2)
    except OSError:
        load_avg = None
    return {
        "kernel": resolve_kernel(None),
        "wire": resolve_wire(None),
        "placement": resolve_placement(None),
        "cpu_count": os.cpu_count(),
        "load_avg": load_avg,
        "python": platform.python_version(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "repro_env": sorted(key for key in os.environ if key.startswith("REPRO_")),
    }


class Run:
    """The jobs of one run and the checks on their outputs."""

    def __init__(self, workload: workloads.Workload, seed: int, inputs) -> None:
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.reference = workload.pinned_digest(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = layers.LayerTracer()

    def _check(self, output) -> bool:
        leftover = workloads.leftover_shm_segments() if self.workload.sharded else []
        if leftover:
            self.problems.append(f"shared-memory segments left behind: {leftover}")
            for name in leftover:
                os.unlink(os.path.join("/dev/shm", name))
            return False
        digest = self.workload.digest(output)
        if self.reference is None:
            self.reference = digest
        if digest != self.reference:
            self.problems.append(f"digest {digest} != expected {self.reference}")
            return False
        return True

    def job(self, traced: bool) -> dict:
        """Run, time and check one job, timing the host just before and
        just after it."""
        reset_default_engine()
        tracer = self.tracer
        # The program's tracer carries the shard workers' spans home; it
        # runs in traced jobs of workloads that start workers.
        obs = Tracer() if traced and self.workload.sharded else None
        refs = host_ref_s()
        if traced:
            tracer.install()
        gc.collect()
        gc_before = gc.get_stats()
        cpu_before = cpu_seconds()
        if traced:
            tracer.begin_job()
        start = time.perf_counter()
        try:
            with activate(obs):
                output = self.workload.job(self.inputs)
        except Exception:
            output = None
            error = traceback.format_exc()
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu_before
        if traced:
            wall = tracer.end_job()
        gc_after = gc.get_stats()
        if traced:
            tracer.remove()
        refs += host_ref_s()
        self.attempted += 1
        record = {"wall": wall, "cpu": cpu, "traced": traced, "refs": refs}
        if output is None:
            self.failed += 1
            self.problems.append(error)
            return record
        if not self._check(output):
            self.failed += 1
        counts = {**gc_delta(gc_before, gc_after), **output.counts}
        if traced:
            shards = layers.worker_trace(obs) if obs is not None else None
            counts.update(self._traced_counts(shards))
            record["layers"] = tracer.layer_seconds()
            record["gc_in"] = dict(tracer.gc_in)
            record["busy"] = shards["busy"] if shards is not None else {}
            if shards is not None:
                record["layers"]["wire.decode"] = shards["decode_s"]
        record["counts"] = counts
        return record

    def _traced_counts(self, shards: dict | None) -> dict:
        """Counts only tracing can see: call counts, and the counters of
        every engine the job created, shard engines included."""
        tracer = self.tracer
        counts = dict(tracer.counts)
        for name in layers.COUNTED_CALLS:
            counts[f"{name}.calls"] = tracer.calls[name]
        totals = tracer.engine_counts()
        for key, value in (shards["counters"] if shards is not None else {}).items():
            totals[key] = totals.get(key, 0) + value
        for key, value in totals.items():
            counts[f"graphs.{key}" if key in ENGINE_KEYS else f"shard.{key}"] = value
        return counts

    def check_reference(self) -> None:
        """On seeds without a pin, compare with an independent configuration."""
        job = self.workload.reference
        if job is None or self.workload.pinned_digest(self.seed) is not None:
            return
        reset_default_engine()
        digest = self.workload.digest(job(self.inputs))
        if digest != self.reference:
            self.problems.append(f"reference configuration gave digest {digest}")
            self.failed = self.attempted


def median(values):
    return statistics.median(values) if values else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(jobs: list[dict], setup_s: float) -> dict:
    """The end-to-end metrics of the run's untraced jobs, host-normalised.

    Each job is divided by the median of the reference samples taken just
    before and just after it.  Two sets of runs of the same code moved run
    medians of raw wall time by up to 26% and of normalised job time by
    far less; ``perfbench/README.md`` has the measured figures.
    """
    timed = [(job, statistics.median(job["refs"])) for job in jobs if not job["traced"]]
    values = {
        "job_ref": median([job["wall"] / ref for job, ref in timed]),
        "cpu_ref": median([job["cpu"] / ref for job, ref in timed]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def raw_times(jobs: list[dict]) -> dict:
    """Median wall and CPU seconds of the untraced jobs, as measured."""
    timed = [job for job in jobs if not job["traced"]]
    return {
        "job_s": median([job["wall"] for job in timed]),
        "cpu_s": median([job["cpu"] for job in timed]),
    }


def median_traced_job(jobs: list[dict]) -> dict:
    """The completed traced job of median wall time."""
    traced = sorted((job for job in jobs if "layers" in job), key=lambda job: job["wall"])
    if not traced:
        raise RuntimeError("no traced job completed, so there is no layer breakdown")
    return traced[(len(traced) - 1) // 2]


def per_layer(jobs: list[dict], generate_s: float) -> dict:
    """Per-layer metrics of the traced job of median wall time.

    One job's layers, not per-layer medians, so that the layers plus
    ``other`` add up to the reported ``trace.job_s``.
    """
    traced = [job["wall"] for job in jobs if "layers" in job]
    untraced = [job["wall"] for job in jobs if not job["traced"]]
    chosen = median_traced_job(jobs)
    counts = chosen["counts"]
    busy = chosen["busy"].values()
    hits = counts.get("graphs.verdict_hits", 0)
    lookups = hits + counts.get("graphs.verdict_misses", 0)
    values = {name: counts[name] for name in PER_LAYER_UNITS if name in counts}
    values.update({f"{name}.self_s": seconds for name, seconds in chosen["layers"].items()})
    values.update(raw_times(jobs))
    values.update(
        {
            "datasets.generate_s": generate_s,
            "host.ref_s": median([ref for job in jobs for ref in job["refs"]]),
            "trace.job_s": chosen["wall"],
            "trace.overhead_s": median(traced) - median(untraced),
            "py.gc.collections": sum(
                value for key, value in counts.items() if key.endswith(".collections")
            ),
            "py.gc.gen2": counts["py.gc.gen2.collections"],
            "fsg.survival": (
                counts["fsg.patterns"] / counts["fsg.candidates"] if counts["fsg.candidates"] else 0.0
            ),
            "graphs.verdict_hit_ratio": hits / lookups if lookups else 0.0,
            "shard.busy_max_s": max(busy, default=0.0),
            "shard.busy_min_s": min(busy, default=0.0),
            "worker_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
    )
    return {name: metric(values.get(name, 0), unit) for name, unit in PER_LAYER_UNITS.items()}


def counts_repeat(jobs: list[dict]) -> bool:
    """Whether every job of the same kind reported identical counts."""
    for traced in (False, True):
        seen = [job["counts"] for job in jobs if job["traced"] == traced and "counts" in job]
        if any(counts != seen[0] for counts in seen[1:]):
            return False
    return True


def print_layers(values: dict, gc_in: dict) -> None:
    """The traced job's layers, largest first; the last column adds back
    the collector pauses that fell inside each span's own code."""
    total = values["trace.job_s"]["value"]
    rows = sorted(
        (
            (item["value"], name.removesuffix(".self_s"))
            for name, item in values.items()
            if name.endswith(".self_s") and item["value"] and name not in WORKER_SIDE
        ),
        reverse=True,
    )
    print(f"traced job {total:.3f} s; overhead {values['trace.overhead_s']['value']:+.3f} s")
    print(f"  {'layer':36s} {'self':>10s} {'share':>6s}  {'with gc inside':>14s}")
    for seconds, name in rows:
        with_gc = seconds + gc_in.get(name, 0.0)
        print(
            f"  {name:36s} {seconds:8.4f} s {100 * seconds / total:5.1f}%"
            f"  {with_gc:8.4f} s {100 * with_gc / total:5.1f}%"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    generate_started = time.perf_counter()
    inputs = workload.setup(args.seed)
    generate_s = time.perf_counter() - generate_started
    setup_wall_s = time.perf_counter() - ENTRY
    setup_s = setup_wall_s * REF_NOMINAL_S / statistics.median(host_ref_s(5))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0
    print("env:", json.dumps(env_stamp(), sort_keys=True))

    run = Run(workload, args.seed, inputs)
    run.job(traced=False)  # warm-up: checked, counted, not timed
    jobs: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        jobs.append(run.job(traced=bool(args.trace) and len(jobs) % 2 == 1))
        if time.perf_counter() >= deadline and len(jobs) >= 1 + args.trace:
            break
    if args.trace:
        metrics = per_layer(jobs, generate_s)
        print_layers(metrics, median_traced_job(jobs)["gc_in"])
    else:
        metrics = end_to_end(jobs, setup_s)
        print("raw:", json.dumps({**raw_times(jobs), "setup_wall_s": setup_wall_s}))
    # After the metrics: the reference job must not count toward peak RSS.
    run.check_reference()
    traced_counts = [job["counts"] for job in jobs if job["traced"] and "counts" in job]
    untraced_counts = [job["counts"] for job in jobs if not job["traced"] and "counts" in job]
    print("counts:", json.dumps((traced_counts or untraced_counts or [{}])[0], sort_keys=True))
    print(f"digest: {run.reference}; counts repeat across jobs: {counts_repeat(jobs)}")
    print("jobs:", json.dumps({key: [job[key] for job in jobs] for key in ("wall", "cpu", "traced")}))
    print("host.ref_s samples:", json.dumps([job["refs"] for job in jobs]))
    for problem in run.problems:
        print("problem:", problem.rstrip())
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
                "setup_s": setup_s,
                "setup_wall_s": setup_wall_s,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
