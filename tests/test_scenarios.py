"""Tests for the scenario workload subsystem and its verification harness.

Three layers of assurance, mirroring how the subsystem is meant to be
used:

* registry / builder hygiene — every scenario is deterministic and
  produces a well-formed corpus;
* the differential harness — serial vs sharded runtimes vs the legacy
  matcher agree on every scenario (K=3 and the process backend are
  ``slow``-marked; the CI scenario-matrix job runs them);
* golden regression — each scenario's digest matches the pinned value in
  ``tests/golden/scenarios.json``.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.runtime import ShardedEngine
from repro.scenarios import (
    check_invariants,
    check_legacy_oracle,
    default_golden_path,
    differential_check,
    get_scenario,
    load_golden,
    run_scenario,
    scenario_names,
    verify_scenarios,
)
from repro.scenarios.base import BRIDGE_LABEL

ALL_SCENARIOS = scenario_names()


@pytest.fixture(scope="module")
def scenario_runs():
    """One cached serial reference run per scenario for this module.

    Several tests need the same (scenario, built data, serial outcome)
    triple; mining is the expensive part, so it runs once per scenario.
    Tests that mutate an outcome must do their own `run_scenario` call.
    """
    cache: dict[str, tuple] = {}

    def run(name: str):
        if name not in cache:
            scenario = get_scenario(name)
            data = scenario.build()
            cache[name] = (scenario, data, run_scenario(scenario, data=data))
        return cache[name]

    return run


class TestRegistry:
    def test_at_least_seven_scenarios_registered(self):
        assert len(ALL_SCENARIOS) >= 7

    def test_names_are_unique_and_kebab_case(self):
        assert len(set(ALL_SCENARIOS)) == len(ALL_SCENARIOS)
        for name in ALL_SCENARIOS:
            assert name == name.lower()
            assert " " not in name

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("no-such-scenario")

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_builds_are_deterministic(self, name):
        scenario = get_scenario(name)
        first, second = scenario.build(), scenario.build()
        assert len(first.transactions) == len(second.transactions)
        for a, b in zip(first.transactions, second.transactions):
            assert sorted(map(str, a.vertices())) == sorted(map(str, b.vertices()))
            assert a.n_edges == b.n_edges
        assert first.host.n_vertices == second.host.n_vertices
        assert first.host.n_edges == second.host.n_edges

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_corpus_is_well_formed(self, name):
        data = get_scenario(name).build()
        assert data.transactions
        assert data.host.n_edges > 0
        for transaction in data.transactions:
            assert transaction.n_vertices > 0
            # The bridge label is reserved for host stitching.
            assert BRIDGE_LABEL not in transaction.edge_label_counts()


class TestHarness:
    @pytest.mark.scenario
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_serial_outcome_matches_golden_digest(self, name, scenario_runs):
        _, _, outcome = scenario_runs(name)
        golden = load_golden()
        assert name in golden, "golden file out of date: run `repro scenarios verify --update-golden`"
        assert outcome.digest == golden[name]["digest"]
        assert len(outcome.payload["fsg"]) == golden[name]["n_fsg_patterns"]

    @pytest.mark.scenario
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_sharded_k2_matches_serial(self, name, scenario_runs):
        scenario, data, reference = scenario_runs(name)
        runtime = ShardedEngine(shards=2, backend="serial")
        try:
            sharded = run_scenario(scenario, data=data, runtime=runtime)
        finally:
            runtime.close()
        assert sharded.payload == reference.payload

    @pytest.mark.scenario
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_invariants_and_legacy_oracle(self, name, scenario_runs):
        _, data, outcome = scenario_runs(name)
        assert check_invariants(outcome) == []
        assert check_legacy_oracle(outcome, data.transactions, max_patterns=10) == []

    @pytest.mark.slow
    @pytest.mark.scenario
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_full_differential_k2_k3(self, name):
        report = differential_check(get_scenario(name), shard_counts=(2, 3))
        assert report.ok, report.failures

    @pytest.mark.slow
    @pytest.mark.scenario
    @pytest.mark.parametrize("name", ["sparse-chains", "planted-patterns"])
    def test_process_backend_differential(self, name):
        report = differential_check(
            get_scenario(name), shard_counts=(2,), backends=("process",), check_oracle=False
        )
        assert report.ok, report.failures

    def test_reference_run_stays_serial_under_env(self, two_serial_shards_env, sharded_engines):
        # The differential check builds its one K=2 runtime itself; the
        # serial reference must build none from REPRO_WORKERS.
        built, closed = sharded_engines
        report = differential_check(
            get_scenario("sparse-chains"), shard_counts=(2,), check_oracle=False
        )
        assert report.ok, report.failures
        assert len(built) == 1 and closed == built
        assert list(report.runtime_stats) == ["sharded-serial-k2"]

    def test_recall_ground_truth_fully_recovered(self, scenario_runs):
        _, _, outcome = scenario_runs("planted-patterns")
        recall = outcome.payload["recall"]
        assert recall["recall"] == 1.0
        assert recall["missed"] == []

    def test_adversarial_scenario_exercises_canonicalisation_fallback(self, scenario_runs):
        _, _, outcome = scenario_runs("adversarial-isomorphs")
        assert outcome.payload["fsg"], "expected frequent patterns"
        # The corpus contains 9-spoke uniform stars whose canonical codes
        # are uncomputable; their digest entries must have gone through
        # the invariant fallback (pattern_code's 'invariant:' prefix), so
        # the fallback path is provably on the digest trail.
        fallback = [
            code for code in outcome.payload["corpus"] if code.startswith("invariant:")
        ]
        assert fallback, "expected canonicalisation-defeating corpus members"

    def test_invariant_checker_flags_corrupted_support(self):
        outcome = run_scenario(get_scenario("sparse-chains"))
        multi_edge = [p for p in outcome.fsg_result.patterns if p.pattern.n_edges > 1]
        assert multi_edge
        multi_edge[0].support = 10_000  # corrupt: exceeds every edge bound
        assert check_invariants(outcome) != []


class TestGolden:
    def test_golden_file_covers_every_scenario(self):
        golden = load_golden()
        assert sorted(golden) == sorted(ALL_SCENARIOS)
        for entry in golden.values():
            assert set(entry) >= {"digest", "n_fsg_patterns", "n_transactions"}
            assert len(entry["digest"]) == 64

    def test_default_golden_path_is_checked_in(self):
        assert default_golden_path().exists()

    def test_verify_scenarios_update_round_trip(self, tmp_path):
        golden_path = tmp_path / "golden.json"
        updated = verify_scenarios(
            names=["sparse-chains"],
            shard_counts=(),
            update=True,
            golden_path=golden_path,
            check_oracle=False,
        )
        assert updated.ok and golden_path.exists()
        verified = verify_scenarios(
            names=["sparse-chains"],
            shard_counts=(),
            golden_path=golden_path,
            check_oracle=False,
        )
        assert verified.ok

    @staticmethod
    def _fake_check(failures=()):
        from repro.scenarios import DifferentialReport

        def check(scenario, **kwargs):
            return DifferentialReport(
                scenario=scenario.name,
                digest="0" * 64,
                payload={"n_transactions": 1, "fsg": [], "subdue": [], "structural": []},
                failures=[f.format(name=scenario.name) for f in failures],
            )

        return check

    def test_update_refuses_to_pin_digests_from_a_failing_run(self, tmp_path, monkeypatch):
        import repro.scenarios.golden as golden_module

        monkeypatch.setattr(
            golden_module, "differential_check", self._fake_check(["{name}: sharded diverged"])
        )
        golden_path = tmp_path / "golden.json"
        result = golden_module.verify_scenarios(
            names=["sparse-chains"], update=True, golden_path=golden_path
        )
        assert not result.ok
        assert result.updated_path is None
        assert not golden_path.exists()

    def test_full_update_prunes_entries_for_removed_scenarios(self, tmp_path, monkeypatch):
        import repro.scenarios.golden as golden_module

        monkeypatch.setattr(golden_module, "differential_check", self._fake_check())
        golden_path = tmp_path / "golden.json"
        golden_path.write_text(
            json.dumps({"removed-scenario": {"digest": "a" * 64}}), encoding="utf-8"
        )
        result = golden_module.verify_scenarios(update=True, golden_path=golden_path)
        assert result.ok
        refreshed = json.loads(golden_path.read_text(encoding="utf-8"))
        assert "removed-scenario" not in refreshed
        assert sorted(refreshed) == sorted(ALL_SCENARIOS)
        # A partial update must still leave unrelated entries alone.
        partial = golden_module.verify_scenarios(
            names=["sparse-chains"], update=True, golden_path=golden_path
        )
        assert partial.ok
        assert sorted(json.loads(golden_path.read_text(encoding="utf-8"))) == sorted(
            ALL_SCENARIOS
        )

    def test_verify_scenarios_flags_missing_and_stale_digests(self, tmp_path):
        golden_path = tmp_path / "golden.json"
        missing = verify_scenarios(
            names=["sparse-chains"], shard_counts=(), golden_path=golden_path,
            check_oracle=False,
        )
        assert not missing.ok
        assert "no golden digest" in missing.failures[0]
        golden_path.write_text(
            json.dumps({"sparse-chains": {"digest": "0" * 64}}), encoding="utf-8"
        )
        stale = verify_scenarios(
            names=["sparse-chains"], shard_counts=(), golden_path=golden_path,
            check_oracle=False,
        )
        assert not stale.ok
        assert "!= golden" in stale.failures[0]


class TestScenarioCli:
    def test_scenarios_list(self, capsys):
        assert cli_main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_SCENARIOS:
            assert name in out

    def test_scenarios_run_prints_digest(self, capsys):
        assert cli_main(["scenarios", "run", "temporal-drift"]) == 0
        out = capsys.readouterr().out
        assert "temporal-drift" in out and "digest=" in out

    def test_scenarios_run_unknown_name_fails(self, capsys):
        assert cli_main(["scenarios", "run", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "available:" in err

    def test_scenarios_run_only_filter(self, capsys):
        assert cli_main(["scenarios", "run", "--only", "temporal-drift,sparse-chains"]) == 0
        out = capsys.readouterr().out
        assert "temporal-drift" in out and "sparse-chains" in out
        assert "dense-uniform" not in out

    def test_scenarios_run_only_intersects_positional_names(self, capsys):
        assert cli_main([
            "scenarios", "run", "temporal-drift", "sparse-chains",
            "--only", "sparse-chains",
        ]) == 0
        out = capsys.readouterr().out
        assert "sparse-chains" in out
        assert "temporal-drift" not in out

    def test_scenarios_only_rejects_unknown_and_empty_selection(self, capsys):
        assert cli_main(["scenarios", "run", "--only", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "available:" in err
        assert cli_main(["scenarios", "verify", "--only", "bogus"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
        assert cli_main([
            "scenarios", "run", "temporal-drift", "--only", "sparse-chains"
        ]) == 2
        assert "no scenarios selected" in capsys.readouterr().err

    def test_scenarios_verify_with_report(self, tmp_path, capsys):
        golden_path = tmp_path / "golden.json"
        report_path = tmp_path / "digests.json"
        assert cli_main([
            "scenarios", "verify", "temporal-drift",
            "--update-golden", "--golden", str(golden_path),
            "--shards", "2", "--no-oracle", "--report", str(report_path),
        ]) == 0
        assert cli_main([
            "scenarios", "verify", "temporal-drift",
            "--golden", str(golden_path), "--shards", "2", "--no-oracle",
        ]) == 0
        entries = json.loads(report_path.read_text(encoding="utf-8"))
        assert "temporal-drift" in entries
        # The report carries each sharded run's aggregated runtime
        # counters, shipping counters included...
        stats = entries["temporal-drift"]["runtime_stats"]["sharded-serial-k2"]
        for counter in ("wire_bytes_shipped", "batch_patterns"):
            assert counter in stats
        assert stats["wire_bytes_shipped"] > 0
        # ...but the golden file itself stays free of observational noise.
        golden = json.loads(golden_path.read_text(encoding="utf-8"))
        assert "runtime_stats" not in golden["temporal-drift"]

    def test_scenarios_verify_rejects_bad_shards_and_backends(self, capsys):
        assert cli_main(["scenarios", "verify", "--shards", "0"]) == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert cli_main(["scenarios", "verify", "--shards", "two"]) == 2
        assert "invalid --shards" in capsys.readouterr().err
        assert cli_main(["scenarios", "verify", "--backends", "threads"]) == 2
        assert "invalid --backends" in capsys.readouterr().err

    def test_scenarios_verify_fails_on_stale_golden(self, tmp_path, capsys):
        golden_path = tmp_path / "golden.json"
        golden_path.write_text(
            json.dumps({"temporal-drift": {"digest": "f" * 64}}), encoding="utf-8"
        )
        assert cli_main([
            "scenarios", "verify", "temporal-drift",
            "--golden", str(golden_path), "--shards", "", "--no-oracle",
        ]) == 1
        assert "!= golden" in capsys.readouterr().err
