"""The four benchmark workloads: their inputs, one job each, and output digests.

Every workload is a closed loop with one client: the timing loop in
``bench.py`` starts the next job only when the previous one returned.  A
job builds every miner, engine and runtime it uses afresh, so no job can
reuse another job's caches.

* ``fsg-serial`` and ``fsg-sharded`` mine a random 3000-transaction corpus
  generated from the workload seed (:func:`build_corpus`).  Its shape is
  fixed, so the mining work is the same for every seed: 36 frequent
  patterns from 1014 candidates on each seed tried.
* ``subdue-f1`` and ``paper-fsg`` run the paper's experiments on the
  paper's dataset (:data:`PAPER_SEED`).  Their cost depends strongly on the
  dataset seed (F1 took 4.6 s to 18.9 s over six seeds), so the workload
  seed does not change their input; their digests are pinned for every
  seed.

Outputs are reduced to digests outside the timed region, through
:func:`repro.scenarios.harness.pattern_code` on an engine of their own.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.core.config import ExperimentConfig
from repro.core.experiments import ALL_EXPERIMENTS, experiment_figure1_subdue_mdl
from repro.graphs.engine import MatchEngine
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.fsg.miner import FSGMiner
from repro.runtime import ShardedEngine
from repro.scenarios.harness import pattern_code, payload_digest

DEFAULT_SEED = 20050405
#: Dataset seed of the paper workloads (the experiments' own default).
PAPER_SEED = 20050405
PAPER_SCALE = 0.01
CORPUS_TRANSACTIONS = 3000
MIN_SUPPORT = 0.05
MAX_EDGES = 5
SHARDS = 2
#: Experiments of the ``paper-fsg`` job, in the order they run.
PAPER_FSG_EXPERIMENTS = ("F2/F3", "FN2", "T3/F4", "S6.1", "ABL")

#: Output digests on :data:`DEFAULT_SEED`.  ``fsg-serial`` and
#: ``fsg-sharded`` share one: sharding must never change mining output.
PINNED_DIGESTS = {
    "fsg-serial": "5fdc785023a00561742029ea2daa7d2f99dec10856579d9eb011edb0faa2b86b",
    "fsg-sharded": "5fdc785023a00561742029ea2daa7d2f99dec10856579d9eb011edb0faa2b86b",
    "subdue-f1": "f3f2176b04c9567156465e738ce976655cf9065981761ef7f91d58b937e767b8",
    "paper-fsg": "a48daf2d0429ee4803d8a29a9d0c66fc0bae02bcac75314f05c25fa9efdaa1ca",
}


@dataclass
class JobOutput:
    """What one job produced: the value its digest is taken over, and the
    exact counts the job can report without tracing."""

    result: object
    counts: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    #: ``setup(seed)`` builds the inputs every job of a run shares.
    setup: Callable[[int], object]
    #: ``job(inputs)`` runs one timed job.
    job: Callable[[object], JobOutput]
    #: ``digest(output)`` reduces a job's result to a hex digest.
    digest: Callable[[JobOutput], str]
    #: Whether the workload seed changes the inputs (and so the digest).
    seeded: bool
    #: Whether jobs start shard worker processes.
    sharded: bool = False
    #: A job of an independent configuration whose digest this
    #: workload's jobs must equal on seeds without a pinned digest.
    reference: Callable[[object], JobOutput] | None = None

    def pinned_digest(self, seed: int) -> str | None:
        """The digest every job must produce on *seed*, when known."""
        if self.seeded and seed != DEFAULT_SEED:
            return None
        return PINNED_DIGESTS[self.name]


def build_corpus(n_transactions: int, seed: int):
    """Random small transaction graphs over a shared label alphabet.

    The same shape as the parallel-support benchmark's corpus: 8 to 14
    vertices and a few more edges than vertices per transaction, three
    vertex labels and four edge labels, so patterns recur across many
    transactions.
    """
    rng = random.Random(seed)
    vertex_labels = ["depot", "hub", "stop"]
    edge_labels = [f"w{i}" for i in range(4)]
    corpus = []
    for index in range(n_transactions):
        n_vertices = rng.randint(8, 14)
        graph = LabeledGraph(name=f"t{index}")
        for v in range(n_vertices):
            graph.add_vertex(f"v{v}", rng.choice(vertex_labels))
        n_edges = rng.randint(n_vertices, n_vertices + 6)
        added = 0
        while added < n_edges:
            a, b = rng.sample(range(n_vertices), 2)
            if graph.has_edge(f"v{a}", f"v{b}"):
                continue
            graph.add_edge(f"v{a}", f"v{b}", rng.choice(edge_labels))
            added += 1
        corpus.append(graph)
    return corpus


def _scan_totals(result) -> dict:
    """Per-level shard scan units summed over the run's levels."""
    levels = result.level_telemetry.values()
    return {
        "runtime.shard_scan_max": int(sum(t.get("shard_scan_max", 0) for t in levels)),
        "runtime.shard_scan_min": int(sum(t.get("shard_scan_min", 0) for t in levels)),
    }


def _fsg_counts(result) -> dict:
    return {
        "fsg.candidates": result.candidates_generated,
        "fsg.patterns": len(result.patterns),
        **_scan_totals(result),
    }


def fsg_serial_job(corpus) -> JobOutput:
    result = FSGMiner(min_support=MIN_SUPPORT, max_edges=MAX_EDGES).mine(corpus)
    return JobOutput(result, _fsg_counts(result))


def fsg_sharded_job(corpus) -> JobOutput:
    """Mine on a fresh two-shard process runtime, built and closed in the
    job: users pay that start-up on every run, and a runtime reused across
    jobs ships more bytes per job as its global tids grow."""
    runtime = ShardedEngine(shards=SHARDS, backend="process")
    try:
        result = FSGMiner(
            min_support=MIN_SUPPORT, max_edges=MAX_EDGES, runtime=runtime
        ).mine(corpus)
    finally:
        runtime.close()
    counts = _fsg_counts(result)
    counts["wire.bytes"] = runtime.wire_bytes_shipped
    counts["runtime.worker_restarts"] = runtime.recovery["worker_restarts"]
    counts["runtime.level_replays"] = runtime.recovery["level_replays"]
    return JobOutput(result, counts)


def leftover_shm_segments() -> list[str]:
    """Shared-memory segments this process's shard pools left behind."""
    prefix = f"repro_shm_{os.getpid()}_"
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(name for name in names if name.startswith(prefix))


def fsg_digest(output: JobOutput) -> str:
    """Digest of the sorted ``(canonical code, support)`` pairs."""
    engine = MatchEngine()
    pairs = sorted(
        [pattern_code(engine, entry.pattern), entry.support]
        for entry in output.result.patterns
    )
    return payload_digest({"patterns": pairs})


def paper_config():
    """The paper workloads' configuration, with its dataset generated."""
    config = ExperimentConfig(scale=PAPER_SCALE, seed=PAPER_SEED)
    config.dataset()
    return config


def subdue_f1_job(config) -> JobOutput:
    report = experiment_figure1_subdue_mdl(config)
    return JobOutput(report, {"subdue.evaluated": report.details["result"].evaluated})


def subdue_f1_digest(output: JobOutput) -> str:
    """Digest of F1's best substructures and its ``measured`` dict."""
    engine = MatchEngine()
    report = output.result
    best = [
        [pattern_code(engine, sub.pattern), round(sub.value, 9), sub.n_non_overlapping]
        for sub in report.details["result"].best
    ]
    return payload_digest({"best": best, "measured": report.measured})


def paper_fsg_job(config) -> JobOutput:
    reports = [ALL_EXPERIMENTS[name](config) for name in PAPER_FSG_EXPERIMENTS]
    return JobOutput(reports)


def paper_fsg_digest(output: JobOutput) -> str:
    """Digest of every experiment's ``measured`` dict."""
    return payload_digest(
        {report.experiment_id: report.measured for report in output.result}
    )


def _corpus(seed: int):
    return build_corpus(CORPUS_TRANSACTIONS, seed)


def _paper_inputs(seed: int):
    return paper_config()


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("fsg-serial", _corpus, fsg_serial_job, fsg_digest, seeded=True),
        Workload(
            "fsg-sharded",
            _corpus,
            fsg_sharded_job,
            fsg_digest,
            seeded=True,
            sharded=True,
            reference=fsg_serial_job,
        ),
        Workload("subdue-f1", _paper_inputs, subdue_f1_job, subdue_f1_digest, seeded=False),
        Workload("paper-fsg", _paper_inputs, paper_fsg_job, paper_fsg_digest, seeded=False),
    )
}
