"""Golden digests of the paper experiments' outputs.

Every experiment in :data:`~repro.core.experiments.ALL_EXPERIMENTS` runs
once at ``scale=0.01`` from one shared configuration, and F1 runs once
more at ``scale=0.1``.  Each report is reduced to digests by
:func:`experiment_digests` and compared with
``tests/golden/experiments.json``, so SUBDUE and candidate-path changes
answer to the paper's outputs, not only to the scenario corpora.  The
outputs do not depend on the runtime, so the same file holds under
``REPRO_WORKERS=2``.

Wall-clock values are left out: S5.1's ``runtime_grows_with_size``
claim and its ``runtimes_seconds`` detail.

After an intentional change to an experiment's output, regenerate the
file from the repository root with::

    PYTHONPATH=src python tests/test_experiment_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiments import ALL_EXPERIMENTS, experiment_figure1_subdue_mdl
from repro.core.results import ExperimentReport
from repro.graphs.engine import MatchEngine
from repro.scenarios.harness import pattern_code, payload_digest

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "experiments.json"
SEED = 20050405
SCALE = 0.01
#: F1's through-traffic claim fails at ``SCALE`` and holds here.
F1_LARGE_SCALE = 0.1


def _scale_key(scale: float) -> str:
    return f"scale={scale}"


def _best_rows(engine: MatchEngine, best) -> list[list]:
    return [
        [pattern_code(engine, sub.pattern), round(sub.value, 9), sub.n_non_overlapping]
        for sub in best
    ]


def experiment_digests(report: ExperimentReport) -> dict[str, str]:
    """``measured`` digest of *report*, plus a ``best`` digest for SUBDUE.

    The ``best`` digest covers each reported substructure as
    ``(canonical code, value to 9 places, non-overlapping instances)``;
    for S5.1 it covers every run of the sweep and the best-edge tables.
    """
    engine = MatchEngine()
    measured = dict(report.measured)
    digests: dict[str, str] = {}
    if report.experiment_id == "F1":
        digests["best"] = payload_digest({"best": _best_rows(engine, report.details["result"].best)})
    elif report.experiment_id == "S5.1":
        del measured["runtime_grows_with_size"]
        digests["best"] = payload_digest(
            {
                "best": {
                    run: _best_rows(engine, result.best)
                    for run, result in report.details["results"].items()
                },
                "mdl_best_edges": report.details["mdl_best_edges"],
                "size_best_edges": report.details["size_best_edges"],
            }
        )
    digests["measured"] = payload_digest(measured)
    return digests


def run_experiments() -> dict[str, ExperimentReport]:
    """Every experiment at ``SCALE``, sharing one configuration (and dataset)."""
    config = ExperimentConfig(scale=SCALE, seed=SEED)
    return {experiment_id: run(config) for experiment_id, run in ALL_EXPERIMENTS.items()}


def run_f1_large() -> ExperimentReport:
    return experiment_figure1_subdue_mdl(ExperimentConfig(scale=F1_LARGE_SCALE, seed=SEED))


def write_golden(path: Path = GOLDEN_PATH) -> None:
    """Recompute every pinned digest and rewrite the golden file."""
    entries = {
        _scale_key(SCALE): {
            experiment_id: experiment_digests(report)
            for experiment_id, report in run_experiments().items()
        },
        _scale_key(F1_LARGE_SCALE): {"F1": experiment_digests(run_f1_large())},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, dict[str, str]]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def reports() -> dict[str, ExperimentReport]:
    return run_experiments()


@pytest.fixture(scope="module")
def f1_large() -> ExperimentReport:
    return run_f1_large()


def test_every_experiment_is_pinned(golden):
    assert set(golden[_scale_key(SCALE)]) == set(ALL_EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
def test_experiment_matches_golden(experiment_id, reports, golden):
    report = reports[experiment_id]
    assert experiment_digests(report) == golden[_scale_key(SCALE)][experiment_id], report.measured


def test_f1_at_larger_scale_matches_golden(f1_large, golden):
    assert experiment_digests(f1_large) == golden[_scale_key(F1_LARGE_SCALE)]["F1"], f1_large.measured


def test_f1_through_traffic_claim_depends_on_scale(reports, f1_large):
    assert reports["F1"].measured["includes_through_traffic_deadhead"] is False
    assert f1_large.measured["includes_through_traffic_deadhead"] is True


if __name__ == "__main__":
    write_golden()
