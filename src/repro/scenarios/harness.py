"""The differential verification harness.

One scenario run drives the whole mining stack — FSG, SUBDUE, structural
partitioning, and planted-pattern recall — and condenses the outcome into
a canonical, JSON-serialisable payload whose SHA-256 is the scenario's
*digest*.  The digest is what everything else compares:

* **runtime differential** — the same scenario mined under the serial
  runtime and under :class:`~repro.runtime.shards.ShardedEngine` with
  K = 2, 3 shards on the ``serial`` and ``process`` backends must produce
  byte-identical payloads;
* **legacy oracle** — every mined pattern's support set is recomputed
  with the pre-kernel ``legacy_has_embedding`` matcher and must agree;
* **golden regression** — digests are pinned in ``tests/golden/`` (see
  :mod:`repro.scenarios.golden`);
* **invariants** — support antimonotonicity, canonical-code stability
  under relabeling, and recall-report consistency hold for every run.

Pattern graphs are summarised by canonical code (falling back to the
graph invariant for patterns too symmetric to canonicalise), so payloads
are independent of vertex naming, discovery order, and hash seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Sequence

from repro.graphs.canonical import CanonicalizationError
from repro.graphs.engine import MatchEngine
from repro.graphs.isomorphism import legacy_has_embedding
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.fsg.miner import FSGMiner
from repro.mining.fsg.results import FSGResult
from repro.obs.tracer import get_tracer
from repro.mining.subdue.evaluation import EvaluationPrinciple
from repro.mining.subdue.miner import SubdueMiner
from repro.partitioning.structural import StructuralMiningConfig, mine_single_graph
from repro.patterns.recall import measure_recall
from repro.runtime import MiningRuntime, SerialRuntime, ShardedEngine, resolve_faults
from repro.scenarios.base import Scenario, ScenarioData

#: Shard counts exercised by the full differential check.
DEFAULT_SHARD_COUNTS = (2, 3)


def pattern_code(engine: MatchEngine, pattern: LabeledGraph) -> str:
    """A naming-independent string identity for *pattern*.

    The exact canonical code when it exists; otherwise the graph invariant
    prefixed so the fallback is visible in payloads (symmetric patterns
    share an invariant only if they also share all fast fingerprints).
    """
    try:
        return engine.canonical_code(pattern)
    except CanonicalizationError:
        get_tracer().metrics.counter("canonical_fallbacks", site="digest")
        return f"invariant:{engine.graph_invariant(pattern)}"


@dataclass
class ScenarioOutcome:
    """Everything one scenario run produced, in canonical form.

    ``fsg_result`` carries the live mining result for the oracle /
    invariant checkers; an outcome rebuilt from a stored payload does
    not have one, and the checkers require it.
    """

    scenario: str
    payload: dict
    fsg_result: FSGResult | None = field(repr=False, compare=False, default=None)

    @property
    def digest(self) -> str:
        return payload_digest(self.payload)


def payload_digest(payload: dict) -> str:
    """SHA-256 of the canonical JSON encoding of *payload*."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def corpus_fingerprint(data: ScenarioData) -> str:
    """A naming-independent digest of a built corpus, before any mining.

    One canonical code per transaction plus the host dimensions — enough
    to catch a builder whose output drifts across processes or hash
    seeds, cheap enough to recompute in a subprocess determinism test.
    """
    engine = MatchEngine()
    return payload_digest(
        {
            "corpus": sorted(pattern_code(engine, graph) for graph in data.transactions),
            "host": {"n_vertices": data.host.n_vertices, "n_edges": data.host.n_edges},
            "n_ground_truth": len(data.ground_truth),
        }
    )


def _fsg_payload(engine: MatchEngine, result: FSGResult) -> list[dict]:
    rows = [
        {
            "code": pattern_code(engine, entry.pattern),
            "n_vertices": entry.pattern.n_vertices,
            "n_edges": entry.pattern.n_edges,
            "support": entry.support,
            "tids": sorted(entry.supporting_transactions),
        }
        for entry in result.patterns
    ]
    return sorted(rows, key=lambda row: (row["n_edges"], row["code"], row["tids"]))


def _subdue_payload(engine: MatchEngine, miner_result) -> list[dict]:
    rows = [
        {
            "code": pattern_code(engine, substructure.pattern),
            "n_vertices": substructure.pattern.n_vertices,
            "n_edges": substructure.pattern.n_edges,
            "instances": substructure.n_non_overlapping,
            "value": round(substructure.value, 9),
        }
        for substructure in miner_result.best
    ]
    return sorted(rows, key=lambda row: (-row["value"], row["code"]))


def _structural_payload(engine: MatchEngine, result) -> list[dict]:
    rows = [
        {
            "code": pattern_code(engine, entry.pattern),
            "n_edges": entry.pattern.n_edges,
            "support": entry.support,
        }
        for entry in result.patterns
    ]
    return sorted(rows, key=lambda row: (row["n_edges"], row["code"], row["support"]))


def _recall_payload(report) -> dict:
    return {
        "recall": round(report.recall, 9),
        "partial_recall": round(report.partial_recall, 9),
        "recovered": sorted(report.recovered),
        "partially_recovered": sorted(report.partially_recovered),
        "missed": sorted(report.missed),
        "n_mined_patterns": report.n_mined_patterns,
    }


def _mine_runtime_sections(
    scenario: Scenario,
    built: ScenarioData,
    runtime: MiningRuntime,
):
    """The two mining stages whose support counting routes through a runtime."""
    params = scenario.params
    fsg = FSGMiner(
        min_support=params.fsg_min_support,
        max_edges=params.fsg_max_edges,
        runtime=runtime,
    ).mine(built.transactions)
    structural = mine_single_graph(
        built.host,
        StructuralMiningConfig(
            k=params.structural_k,
            repetitions=params.structural_repetitions,
            min_support=params.structural_min_support,
            max_pattern_edges=params.structural_max_edges,
            seed=scenario.seed,
        ),
        runtime=runtime,
    )
    return fsg, structural


def run_scenario(
    scenario: Scenario,
    data: ScenarioData | None = None,
    runtime: MiningRuntime | None = None,
) -> ScenarioOutcome:
    """Run *scenario* through every engine and return the canonical outcome.

    *runtime* routes FSG and structural-partitioning support counting,
    and those two deduplicate on its engine.  ``None`` means a
    :class:`SerialRuntime` over the run's engine, which SUBDUE and the
    digests share, never a runtime built from ``REPRO_WORKERS``, so the
    reference run of a differential check stays serial.  SUBDUE and
    recall are engine-level and runtime-independent by construction.
    The caller owns a supplied runtime's lifecycle.
    """
    params = scenario.params
    built = data if data is not None else scenario.build()
    engine = MatchEngine()
    tracer = get_tracer()
    if runtime is None:
        runtime = SerialRuntime(engine=engine)

    with tracer.span("scenario.mine", scenario=scenario.name):
        fsg, structural = _mine_runtime_sections(scenario, built, runtime)

    subdue = SubdueMiner(
        beam_width=params.subdue_beam,
        max_best=params.subdue_max_best,
        max_substructure_edges=params.subdue_max_edges,
        limit=params.subdue_limit,
        principle=EvaluationPrinciple.MDL,
        engine=engine,
    ).mine(built.host)

    payload = {
        "scenario": scenario.name,
        "n_transactions": len(built.transactions),
        "host": {"n_vertices": built.host.n_vertices, "n_edges": built.host.n_edges},
        # Corpus fingerprint: one naming-independent code per transaction.
        # It pins the input data inside the digest (a drifting builder can
        # never masquerade as a mining change) and, on corpora with members
        # too symmetric to canonicalise, exercises the invariant fallback
        # on the digest path itself.
        "corpus": sorted(pattern_code(engine, graph) for graph in built.transactions),
        "fsg": _fsg_payload(engine, fsg),
        "subdue": _subdue_payload(engine, subdue),
        "structural": _structural_payload(engine, structural),
    }
    if built.ground_truth:
        report = measure_recall(
            built.ground_truth,
            fsg.patterns,
            partial_fraction=params.recall_partial_fraction,
            engine=engine,
        )
        payload["recall"] = _recall_payload(report)
    return ScenarioOutcome(scenario=scenario.name, payload=payload, fsg_result=fsg)


# ----------------------------------------------------------------------
# Invariant checks
# ----------------------------------------------------------------------
def _shuffled_copy(pattern: LabeledGraph) -> LabeledGraph:
    """A structure-preserving rename (reversed insertion order)."""
    renamed = {vertex: f"inv:{vertex}" for vertex in pattern.vertices()}
    clone = LabeledGraph(name="invariant-copy")
    for vertex in reversed(list(pattern.vertices())):
        clone.add_vertex(renamed[vertex], pattern.vertex_label(vertex))
    for edge in pattern.edges():
        clone.add_edge(renamed[edge.source], renamed[edge.target], edge.label)
    return clone


def _pattern_sample(result: FSGResult, max_patterns: int | None):
    """The patterns a capped check should look at.

    ``None`` means every mined pattern.  A cap keeps the fast test tier
    quick, but FSG results are level-ordered, so a head slice would check
    only trivial single edges — the capped sample therefore takes the
    *deepest* patterns first (the ones the kernel and runtimes are most
    likely to get wrong).
    """
    if max_patterns is None:
        return result.patterns
    by_depth = sorted(result.patterns, key=lambda entry: -entry.pattern.n_edges)
    return by_depth[:max_patterns]


def check_invariants(outcome: ScenarioOutcome, max_patterns: int | None = None) -> list[str]:
    """Structural invariants every correct run satisfies; returns failures.

    * **support antimonotonicity** — a pattern's support never exceeds the
      support of any single edge it contains (each edge triple is itself a
      level-1 frequent pattern of the same run);
    * **canonical-code stability** — a pattern's code is unchanged by
      vertex renaming and by recomputation in a fresh engine;
    * **recall consistency** — recall fractions match the recovered /
      missed partition sizes.

    Every mined pattern is checked by default; ``max_patterns`` caps the
    sweep (deepest patterns first) where speed matters more.
    """
    failures: list[str] = []
    result = outcome.fsg_result
    if result is None:
        raise ValueError(
            f"outcome for {outcome.scenario!r} carries no FSG result "
            "(rebuilt from a stored payload?); invariant checks need a live run"
        )
    engine = MatchEngine()

    edge_support: dict[tuple, int] = {}
    for entry in result.patterns:
        if entry.pattern.n_edges != 1:
            continue
        edge = next(iter(entry.pattern.edges()))
        triple = (
            str(entry.pattern.vertex_label(edge.source)),
            str(edge.label),
            str(entry.pattern.vertex_label(edge.target)),
        )
        edge_support[triple] = entry.support

    for entry in _pattern_sample(result, max_patterns):
        for edge in entry.pattern.edges():
            triple = (
                str(entry.pattern.vertex_label(edge.source)),
                str(edge.label),
                str(entry.pattern.vertex_label(edge.target)),
            )
            bound = edge_support.get(triple)
            if bound is None:
                failures.append(
                    f"{outcome.scenario}: edge {triple} of a frequent pattern is "
                    "not itself reported frequent (antimonotonicity violated)"
                )
            elif entry.support > bound:
                failures.append(
                    f"{outcome.scenario}: pattern support {entry.support} exceeds "
                    f"edge {triple} support {bound} (antimonotonicity violated)"
                )

        fresh = MatchEngine()
        code = pattern_code(engine, entry.pattern)
        if pattern_code(fresh, entry.pattern) != code:
            failures.append(f"{outcome.scenario}: canonical code differs across engines")
        if pattern_code(fresh, _shuffled_copy(entry.pattern)) != code:
            failures.append(
                f"{outcome.scenario}: canonical code changed under vertex renaming"
            )

    recall = outcome.payload.get("recall")
    if recall is not None:
        total = (
            len(recall["recovered"])
            + len(recall["partially_recovered"])
            + len(recall["missed"])
        )
        expected = len(recall["recovered"]) / total if total else 0.0
        if abs(recall["recall"] - expected) > 1e-9:
            failures.append(f"{outcome.scenario}: recall fraction inconsistent")
    return failures


def check_legacy_oracle(
    outcome: ScenarioOutcome,
    transactions: Sequence[LabeledGraph],
    max_patterns: int | None = None,
) -> list[str]:
    """Recompute pattern supports with the legacy matcher; returns failures.

    The legacy pure-python backtracking matcher predates the indexed
    kernel and every runtime, so agreement here ties the whole stack back
    to the original reference implementation.  Every mined pattern is
    recounted by default; ``max_patterns`` caps the sweep (deepest
    patterns first) where speed matters more.
    """
    if outcome.fsg_result is None:
        raise ValueError(
            f"outcome for {outcome.scenario!r} carries no FSG result "
            "(rebuilt from a stored payload?); the oracle needs a live run"
        )
    failures: list[str] = []
    for entry in _pattern_sample(outcome.fsg_result, max_patterns):
        expected = frozenset(
            tid
            for tid, transaction in enumerate(transactions)
            if legacy_has_embedding(entry.pattern, transaction)
        )
        if frozenset(entry.supporting_transactions) != expected:
            failures.append(
                f"{outcome.scenario}: support {sorted(entry.supporting_transactions)} "
                f"!= legacy matcher support {sorted(expected)}"
            )
    return failures


# ----------------------------------------------------------------------
# The differential check
# ----------------------------------------------------------------------
@dataclass
class DifferentialReport:
    """Result of one scenario's cross-runtime differential check."""

    scenario: str
    digest: str
    payload: dict = field(default_factory=dict, repr=False)
    runs: dict[str, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    #: Per-run aggregated runtime counters (`MiningRuntime.stats()`):
    #: matching/cache counters (``batch_patterns`` counts the patterns the
    #: shards scanned) plus ``wire_bytes_shipped`` and the recovery counters
    #: (worker_restarts, level_replays, worker_degradations — the chaos
    #: lane's artifact of what each faulted run survived).  Observational
    #: — shown in ``scenarios verify --report`` output, never pinned in
    #: golden files.
    runtime_stats: dict[str, dict[str, int]] = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return not self.failures


def differential_check(
    scenario: Scenario,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    backends: Sequence[str] = ("serial",),
    check_oracle: bool = True,
    faults=None,
) -> DifferentialReport:
    """Run *scenario* under every runtime configuration and compare digests.

    The serial run is the reference.  Each ``(shards, backend)``
    combination re-mines the runtime-dependent payload sections — FSG and
    structural partitioning, the two stages whose support counting routes
    through the runtime — and must reproduce the reference sections
    byte for byte.  SUBDUE and recall never touch a runtime, so they are
    mined once, in the reference (re-running them per combination would
    repeat identical work without adding coverage).  Invariant checks and
    (by default) the legacy-matcher oracle also run against the
    reference.

    *faults* adds the faulted axis: a fault plan (or spec string;
    ``None`` consults ``REPRO_FAULTS``, so the chaos CI lane needs no
    code) armed on every sharded run.  The serial reference always runs
    unfaulted — that is the point: recovery must reproduce the unfaulted
    sections byte for byte, and the per-run ``runtime_stats`` record the
    respawns and replays it took.
    """
    tracer = get_tracer()
    faults = resolve_faults(faults)
    data = scenario.build()
    with tracer.span("scenario.run", scenario=scenario.name, runtime="serial"):
        reference = run_scenario(scenario, data=data)
    report = DifferentialReport(
        scenario=scenario.name, digest=reference.digest, payload=reference.payload
    )
    reference_sections = payload_digest(
        {"fsg": reference.payload["fsg"], "structural": reference.payload["structural"]}
    )
    # Every entry in `runs` is a digest of the runtime-dependent sections
    # (fsg + structural), so the values are directly comparable; the full
    # payload digest lives in `digest`.
    report.runs["serial"] = reference_sections

    report.failures.extend(check_invariants(reference))
    if check_oracle:
        report.failures.extend(check_legacy_oracle(reference, data.transactions))

    for backend in backends:
        for shards in shard_counts:
            label = f"sharded-{backend}-k{shards}"
            if faults is not None:
                label += "-faulted"
            runtime = ShardedEngine(shards=shards, backend=backend, faults=faults)
            try:
                with tracer.span(
                    "scenario.run", scenario=scenario.name, runtime=label
                ):
                    fsg, structural = _mine_runtime_sections(scenario, data, runtime)
                report.runtime_stats[label] = runtime.stats()
            finally:
                runtime.close()
            sections = payload_digest(
                {
                    "fsg": _fsg_payload(runtime.engine, fsg),
                    "structural": _structural_payload(runtime.engine, structural),
                }
            )
            report.runs[label] = sections
            if sections != reference_sections:
                report.failures.append(
                    f"{scenario.name}: {label} mining sections {sections[:12]} != "
                    f"serial sections {reference_sections[:12]}"
                )
    return report
