"""Tests of the benchmark itself, on small inputs.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SMALL = 200
SEED = 7

#: Prints the counts of two traced and two untraced small serial jobs.
COUNTS_SCRIPT = f"""
import json, sys
sys.path.insert(0, {str(HERE)!r})
import bench, workloads
run = bench.Run(workloads.WORKLOADS["fsg-serial"], {SEED}, workloads.build_corpus({SMALL}, {SEED}))
print(json.dumps([run.job(traced=traced)["counts"] for traced in (False, True, False, True)]))
"""


@pytest.fixture(scope="module")
def corpus():
    return workloads.build_corpus(SMALL, SEED)


def small_run(name: str, corpus) -> bench.Run:
    return bench.Run(workloads.WORKLOADS[name], SEED, corpus)


def test_serial_and_sharded_agree_on_a_small_corpus(corpus):
    serial = workloads.fsg_digest(workloads.fsg_serial_job(corpus))
    sharded = workloads.fsg_digest(workloads.fsg_sharded_job(corpus))
    assert serial == sharded
    assert workloads.leftover_shm_segments() == []


@pytest.mark.parametrize("name", ["fsg-serial", "fsg-sharded"])
def test_traced_and_untraced_jobs_give_the_same_digest(name, corpus):
    run = small_run(name, corpus)
    for traced in (False, True, False, True):
        run.job(traced=traced)
    assert run.attempted == 4
    assert run.failed == 0, run.problems


@pytest.mark.parametrize("name", ["fsg-serial", "fsg-sharded"])
def test_counts_repeat_across_jobs(name, corpus):
    run = small_run(name, corpus)
    jobs = [run.job(traced=traced) for traced in (False, True, False, True)]
    assert bench.counts_repeat(jobs)
    traced = jobs[1]["counts"]
    assert traced["fsg.candidates"] > traced["fsg.patterns"] > 0
    assert traced["graphs.indexes_built"] > 0
    if name == "fsg-sharded":
        assert traced["wire.bytes"] > 0
        assert set(jobs[1]["busy"]) == {"shard0", "shard1"}


def test_counts_repeat_across_processes(corpus):
    run = small_run("fsg-serial", corpus)
    here = [run.job(traced=traced)["counts"] for traced in (False, True, False, True)]
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(ROOT / "src")}
    for hash_seed in ("0", "1"):
        env["PYTHONHASHSEED"] = hash_seed
        out = subprocess.run(
            [sys.executable, "-c", COUNTS_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        there = json.loads(out.stdout.strip().splitlines()[-1])
        assert there == here


def test_layers_add_up_to_the_job_time(corpus):
    record = small_run("fsg-serial", corpus).job(traced=True)
    layer_sum = sum(record["layers"].values())
    assert math.isclose(layer_sum, record["wall"], rel_tol=1e-9, abs_tol=1e-9)
    assert record["layers"]["runtime.support_level"] > 0
    assert record["layers"]["other"] > 0
    # Every collector pause lands inside exactly one span's own code.
    assert math.isclose(
        sum(record["gc_in"].values()), record["layers"]["py.gc"], rel_tol=1e-9, abs_tol=1e-9
    )


def test_remove_restores_every_binding():
    from repro.mining.fsg import candidates, miner

    original = candidates.generate_candidates
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        assert miner.generate_candidates is not original
        assert candidates.generate_candidates is miner.generate_candidates
    finally:
        tracer.remove()
    assert miner.generate_candidates is original
    assert candidates.generate_candidates is original


def test_a_missing_wrapper_target_fails_the_install(monkeypatch):
    from repro.mining.fsg import miner

    original = miner.generate_candidates
    monkeypatch.setattr(
        layers,
        "SPANS",
        layers.SPANS + (("fsg.gone", "repro.mining.fsg.candidates", "no_such_function"),),
    )
    tracer = layers.LayerTracer()
    with pytest.raises(LookupError, match="no_such_function"):
        tracer.install()
    assert miner.generate_candidates is original


def test_split_graph_resolves_to_the_function_not_the_module():
    owner, name, target = layers.resolve("repro.partitioning.split_graph", "split_graph")
    assert owner is sys.modules["repro.partitioning.split_graph"]
    assert callable(target) and name == "split_graph"


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_run_refuses_a_tree_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [*spec["command"], "--workload", "fsg-serial", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
