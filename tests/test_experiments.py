"""Smoke tests for the per-table/figure experiment drivers.

The benchmark harness runs the experiments at a larger scale; here each
driver is exercised at a very small scale to confirm it runs end to end,
produces a paper-versus-measured comparison, and populates the metrics the
benchmarks rely on.  The heavier graph-mining drivers are marked ``slow``
so the default test run stays fast (run them with ``-m slow``).
"""

from __future__ import annotations

import functools
import sys

import pytest

from repro.core.config import ExperimentConfig
from repro.core import experiments
from repro.core.results import ExperimentReport
from repro.graphs import engine as engine_module
from repro.graphs.engine import MatchEngine, reset_default_engine
from repro.partitioning.temporal import partition_by_date
from repro.reporting.comparison import render_comparison


@pytest.fixture(scope="module")
def tiny_config() -> ExperimentConfig:
    """A very small configuration shared by the experiment smoke tests."""
    return ExperimentConfig(scale=0.012, seed=29)


def _check_report(report: ExperimentReport) -> None:
    assert report.experiment_id
    assert report.description
    assert report.paper and report.measured
    rendered = render_comparison(report)
    assert report.experiment_id in rendered


class TestFastExperiments:
    def test_table1(self, tiny_config):
        report = experiments.experiment_table1(tiny_config)
        _check_report(report)
        assert report.measured["n_transactions"] > 0
        assert report.measured["out_degree_max"] >= report.measured["out_degree_avg"]

    def test_table2(self, tiny_config):
        report = experiments.experiment_table2_temporal(tiny_config)
        _check_report(report)
        assert report.measured["distinct_edge_labels"] <= 7

    def test_sec71_association(self, tiny_config):
        report = experiments.experiment_sec71_association(tiny_config)
        _check_report(report)
        assert report.measured["weight_to_ltl_rule_found"] is True

    def test_sec72_classification(self, tiny_config):
        report = experiments.experiment_sec72_classification(tiny_config)
        _check_report(report)
        assert report.measured["trans_mode_accuracy"] > 0.8
        assert report.measured["root_split_attribute"] == "GROSS_WEIGHT"

    def test_fig5_fig6_clustering(self, tiny_config):
        report = experiments.experiment_fig5_fig6_clustering(tiny_config, n_clusters=6)
        _check_report(report)
        assert report.measured["n_clusters"] <= 6
        assert report.measured["largest_cluster_size"] >= report.measured["smallest_cluster_size"]

    def test_footnote2_recall(self, tiny_config):
        report = experiments.experiment_footnote2_recall(tiny_config, copies=6, partitions=8)
        _check_report(report)
        assert report.measured["recall_breadth_first"] >= 0.0

    def test_ablation_partitioning(self, tiny_config):
        report = experiments.experiment_ablation_partitioning(tiny_config, copies=6, partitions=8)
        _check_report(report)
        assert set(report.details["shape_mixes"]) == {"breadth_first", "depth_first", "multilevel"}

    def test_all_experiments_registry(self):
        assert len(experiments.ALL_EXPERIMENTS) == 12
        assert "T1" in experiments.ALL_EXPERIMENTS


#: The graph-mining experiments: each builds one mining runtime per run.
GRAPH_MINING_EXPERIMENTS = ("F2/F3", "FN2", "T3/F4", "S6.1", "ABL")


@pytest.mark.parametrize("experiment_id", GRAPH_MINING_EXPERIMENTS)
def test_graph_mining_experiments_mine_through_the_configured_runtime(
    experiment_id, two_serial_shards_env, sharded_engines
):
    """``workers=2`` mines each run on one sharded runtime, closed after
    the run; an explicit ``workers=0`` beats ``REPRO_WORKERS=2``."""
    built, closed = sharded_engines
    driver = experiments.ALL_EXPERIMENTS[experiment_id]
    sharded = driver(ExperimentConfig(scale=0.01, workers=2, backend="serial"))
    assert len(built) == 1 and closed == built
    assert built[0].stats()["batch_calls"] > 0
    serial = driver(ExperimentConfig(scale=0.01, workers=0))
    assert len(built) == 1
    assert sharded.measured == serial.measured


def _record_calls(monkeypatch, function) -> list:
    """Record each call of *function*, under every name a ``repro``
    module imported it by; returns the list of recorded arguments."""
    calls = []

    @functools.wraps(function)
    def recording(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            for attribute, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attribute, recording)
    return calls


@pytest.mark.parametrize("experiment_id", GRAPH_MINING_EXPERIMENTS)
def test_graph_mining_experiments_build_one_engine_per_run(experiment_id, monkeypatch):
    """A serial run deduplicates, counts, merges and measures recall on
    one engine, the one its runtime owns; recall does not fall back to
    the process-global default engine."""
    built = []
    init = MatchEngine.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    reset_default_engine()
    monkeypatch.setattr(MatchEngine, "__init__", recording_init)
    experiments.ALL_EXPERIMENTS[experiment_id](ExperimentConfig(scale=0.01, workers=0))
    assert len(built) == 1
    assert engine_module._default_engine is None


def test_table3_fig4_partitions_the_dataset_once(monkeypatch):
    calls = _record_calls(monkeypatch, partition_by_date)
    report = experiments.experiment_table3_fig4_temporal_fsg(ExperimentConfig(scale=0.01, workers=0))
    assert len(calls) == 1
    assert report.measured["n_frequent_patterns"] > 0


@pytest.mark.slow
class TestSlowExperiments:
    def test_figure1_subdue(self, tiny_config):
        report = experiments.experiment_figure1_subdue_mdl(tiny_config, n_vertices=25)
        _check_report(report)
        assert report.measured["best_patterns_reported"] >= 1

    def test_sec51_subdue_scaling(self, tiny_config):
        report = experiments.experiment_sec51_subdue_scaling(tiny_config, sizes=(10, 20))
        _check_report(report)
        assert report.measured["runtime_grows_with_size"] in (True, False)

    def test_fig2_fig3_partitioning(self, tiny_config):
        report = experiments.experiment_fig2_fig3_fsg_partitioning(
            tiny_config, paper_partition_counts=(400,), max_pattern_edges=2
        )
        _check_report(report)
        assert report.measured["avg_patterns_breadth_first"] > 0

    def test_table3_fig4(self, tiny_config):
        report = experiments.experiment_table3_fig4_temporal_fsg(tiny_config)
        _check_report(report)

    def test_sec61_memory(self, tiny_config):
        report = experiments.experiment_sec61_fsg_memory(tiny_config, memory_budget=150)
        _check_report(report)
