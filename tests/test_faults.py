"""Tests for deterministic fault injection and worker recovery.

Four layers, bottom up:

* **plan grammar** — ``REPRO_FAULTS`` specs parse, roundtrip, and reject
  garbage eagerly (the CLI refuses a bad ``--faults`` before any work);
* **pool failure typing** — a dead, hung, or corrupted worker surfaces
  as :class:`WorkerDeath` (never a bare hang, never a
  :class:`WorkerError`), on both backends, and shutdown always returns
  even for workers that ignore ``close()``;
* **recovery invisibility** — the supervision loop (respawn → rebuild →
  replay → degrade) produces byte-identical mining output under every
  injected fault placement, which is the property the paper's
  MapReduce-style re-execution argument rests on;
* **observability** — recovery is invisible in the *output* but loud in
  the trace: each recovery is one ``runtime.recovery`` span, its restarts
  and replays are counted once in the metrics registry and in runtime
  stats, and all of it is exactly zero on clean runs.
"""

from __future__ import annotations

import os
import random
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.graphs.labeled_graph import LabeledGraph
from repro.mining.fsg.miner import FSGMiner
from repro.obs import Tracer, activate
from repro.runtime import (
    FaultClause,
    FaultPlan,
    ProcessBackend,
    SerialBackend,
    ShardedEngine,
    ShardWorker,
    SimulatedWorkerDeath,
    WorkerDeath,
    resolve_faults,
)
from repro.runtime.faults import CORRUPTED_REPLY, FaultInjector, compile_injector
from repro.runtime.wire import SHARD_OPS
from repro.scenarios import differential_check, get_scenario


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


def random_corpus(seed: int, size: int = 16) -> list[LabeledGraph]:
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


def mine_sharded(corpus, *, faults=None, backend="serial", **engine_kwargs):
    runtime = ShardedEngine(shards=2, backend=backend, faults=faults, **engine_kwargs)
    try:
        mined = FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
        stats = runtime.stats()
    finally:
        runtime.close()
    return mined, stats


# ----------------------------------------------------------------------
# Plan grammar
# ----------------------------------------------------------------------
class TestFaultPlanGrammar:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "kill:shard=1,level=3; hang:shard=0,op=slevel; "
            "corrupt-reply:shard=2,nth=4,times=2,sticky"
        )
        assert len(plan.clauses) == 3
        assert plan.clauses[0] == FaultClause(kind="kill", shard=1, level=3)
        assert plan.clauses[1] == FaultClause(kind="hang", shard=0, op="slevel")
        assert plan.clauses[2] == FaultClause(
            kind="corrupt-reply", shard=2, nth=4, times=2, sticky=True
        )

    def test_spec_roundtrip(self):
        for spec in (
            "kill:shard=1,level=2; hang:op=slevel,times=3,sticky; corrupt-reply",
            # The CI chaos lane's three plans.
            "kill:shard=1,level=2",
            "hang:shard=0,op=slevel",
            "corrupt-reply:shard=1,nth=3",
        ):
            plan = FaultPlan.parse(spec)
            assert FaultPlan.parse(plan.to_spec()) == plan

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse(" ; ; ")
        assert FaultPlan.parse("kill")

    @pytest.mark.parametrize(
        "bad",
        [
            "explode",                  # unknown kind
            "kill:when=later",          # unknown key
            "kill:shard=one",           # non-integer
            "kill:level=0",             # out of range (1-based)
            "kill:times=0",             # empty fire budget
            "kill:shard=-1",            # negative shard
            "kill:sticky=perhaps",      # non-boolean
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    @pytest.mark.parametrize("op", ["nope", "level", "batch", "trace"])
    def test_op_naming_no_shard_message_rejected(self, op):
        # A clause whose op no shard message carries would never fire, so
        # a chaos lane with a typo would pass without injecting anything.
        with pytest.raises(ValueError, match="slevel") as failure:
            FaultPlan.parse(f"kill:op={op}")
        assert all(name in str(failure.value) for name in SHARD_OPS)

    def test_every_shard_op_has_a_worker_handler(self):
        # Fault clauses and the worker dispatch read the same op tuple.
        for op in SHARD_OPS:
            assert FaultClause.parse(f"kill:op={op}").op == op
            assert callable(getattr(ShardWorker, f"_op_{op}"))
        with pytest.raises(ValueError, match="expected one of"):
            ShardWorker()._handle(("batch",), "batch")

    def test_sticky_only_and_for_shard_filters(self):
        plan = FaultPlan.parse("kill:shard=0; hang:shard=1,sticky; corrupt-reply")
        assert plan.sticky_only().to_spec() == "hang:shard=1,sticky"
        assert plan.for_shard(1).to_spec() == "hang:shard=1,sticky; corrupt-reply"

    def test_resolve_faults_normalises(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert resolve_faults(None) is None
        assert resolve_faults("") is None
        plan = resolve_faults("kill:shard=1")
        assert isinstance(plan, FaultPlan) and plan
        assert resolve_faults(plan) is plan
        monkeypatch.setenv("REPRO_FAULTS", "hang:shard=0")
        assert resolve_faults(None) == FaultPlan.parse("hang:shard=0")
        with pytest.raises(ValueError):
            resolve_faults(42)

    def test_cli_rejects_bad_plan_eagerly(self, capsys):
        exit_code = cli_main(["scenarios", "run", "dense-uniform", "--faults", "explode"])
        assert exit_code == 2
        assert "invalid --faults plan" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Injector mechanics (counters, filters, determinism)
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_compile_skips_plans_that_cannot_fire(self):
        assert compile_injector(None, shard=0, inline=True) is None
        assert compile_injector("", shard=0, inline=True) is None
        # A shard-1-only clause compiles to nothing on shard 0.
        assert compile_injector("kill:shard=1", shard=0, inline=True) is None
        assert compile_injector("kill:shard=1", shard=1, inline=True) is not None

    def test_nth_counts_matching_messages_only(self):
        injector = FaultInjector(
            FaultPlan.parse("kill:op=slevel,nth=2"), shard=0, inline=True
        )
        injector.on_message("add")      # not an slevel: no match consumed
        injector.on_message("slevel")   # match 1 of 2
        with pytest.raises(SimulatedWorkerDeath):
            injector.on_message("slevel")

    def test_level_filter_counts_level_ops(self):
        injector = FaultInjector(FaultPlan.parse("kill:level=2"), shard=0, inline=True)
        injector.on_message("labels")
        injector.on_message("slevel")   # level 1
        with pytest.raises(SimulatedWorkerDeath):
            injector.on_message("slevel")  # level 2

    def test_times_budget_is_exhausted(self):
        injector = FaultInjector(
            FaultPlan.parse("corrupt-reply:op=stats,times=2"), shard=0, inline=True
        )
        assert injector.on_reply("stats", {"n": 1}) == CORRUPTED_REPLY
        assert injector.on_reply("stats", {"n": 1}) == CORRUPTED_REPLY
        assert injector.on_reply("stats", {"n": 1}) == {"n": 1}
        assert injector.on_reply("add", [0]) == [0]  # op filter still holds


# ----------------------------------------------------------------------
# Pool-level failure typing
# ----------------------------------------------------------------------
class _DieOnGo:
    """Handler that simulates its worker's death on a ("go",) message."""

    def __call__(self, message):
        if message[0] == "go":
            raise SimulatedWorkerDeath("scripted death")
        return ("ok", message[0])


class _Echo:
    def __call__(self, message):
        return ("echo",) + tuple(message)


class _Sleeper:
    """Hangs on any message; killable by SIGTERM (respawn reaps it fast)."""

    def __call__(self, message):
        time.sleep(60)


class _StubbornSleeper:
    """Ignores SIGTERM and hangs: only close()'s SIGKILL escalation wins."""

    def __call__(self, message):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(60)


class TestPoolFailureTyping:
    def test_serial_simulated_death_marks_slot_dead_until_respawn(self):
        pool = SerialBackend(2, _DieOnGo)
        pool.send(0, ("go",))
        pool.send(0, ("after",))  # queued behind the death: also dead
        pool.send(1, ("fine",))
        with pytest.raises(WorkerDeath) as death:
            pool.recv(0)
        assert death.value.worker == 0
        assert death.value.last_op == "go"
        assert not death.value.hung
        with pytest.raises(WorkerDeath):
            pool.recv(0)
        assert pool.recv(1) == ("ok", "fine")  # the other slot is untouched
        pool.respawn(0)
        assert pool.call(0, ("fine",)) == ("ok", "fine")
        pool.close()

    def test_process_recv_raises_death_on_killed_worker(self):
        pool = ProcessBackend(1, _Echo)
        try:
            assert pool.call(0, ("ping",)) == ("echo", "ping")
            os.kill(pool.worker_pid(0), signal.SIGKILL)
            pool.send(0, ("after-death",))
            with pytest.raises(WorkerDeath) as death:
                pool.recv(0)
            assert death.value.worker == 0
            assert death.value.last_op == "after-death"
            assert not death.value.hung
            pool.respawn(0)
            assert pool.call(0, ("again",)) == ("echo", "again")
        finally:
            pool.close()

    def test_process_recv_deadline_flags_hung_worker(self):
        pool = ProcessBackend(1, _Sleeper, timeout=0.5)
        try:
            pool.send(0, ("anything",))
            started = time.monotonic()
            with pytest.raises(WorkerDeath) as death:
                pool.recv(0)
            assert death.value.hung
            assert "0.5" in str(death.value)
            assert time.monotonic() - started < 10  # deadline, not the 60s sleep
            pool.respawn(0)  # reaps the sleeper so close() below is instant
        finally:
            pool.close()

    def test_degraded_slot_serves_inline(self):
        pool = ProcessBackend(1, _Echo)
        try:
            pool.degrade(0)
            assert pool.is_degraded(0)
            assert pool.worker_pid(0) is None
            assert pool.call(0, ("inline",)) == ("echo", "inline")
        finally:
            pool.close()

    @pytest.mark.slow
    def test_close_escalates_to_kill_for_stop_ignoring_worker(self):
        # Regression: close() used to block forever on a worker wedged in
        # its handler.  A SIGTERM-immune sleeper forces the full
        # escalation (STOP ignored -> terminate ignored -> SIGKILL).
        pool = ProcessBackend(1, _StubbornSleeper)
        pool.send(0, ("wedge",))
        time.sleep(0.3)  # let the worker install its SIGTERM handler
        started = time.monotonic()
        pool.close()
        assert time.monotonic() - started < 30


# ----------------------------------------------------------------------
# Recovery invisibility: identical output under injected faults
# ----------------------------------------------------------------------
class TestRecoveryEquivalence:
    @pytest.fixture(scope="class")
    def baseline(self):
        corpus = random_corpus(113)
        return corpus, mining_signature(FSGMiner(min_support=3, max_edges=3).mine(corpus))

    @pytest.mark.parametrize(
        "spec",
        [
            "kill:shard=1,level=2",
            "kill:shard=0,op=slevel",
            "kill:shard=1,op=add",
            "hang:shard=0,level=1",
            "corrupt-reply:shard=0,nth=3",
            "kill:shard=1,level=1; kill:shard=0,level=3",
        ],
    )
    def test_serial_backend_recovers_invisibly(self, baseline, spec):
        corpus, reference = baseline
        mined, stats = mine_sharded(corpus, faults=spec)
        assert mining_signature(mined) == reference
        assert stats["worker_restarts"] >= 1

    @pytest.mark.parametrize("op", ["add", "slevel"])
    def test_short_reply_is_recovered(self, baseline, monkeypatch, op):
        # A well-typed reply with fewer entries than its message asks for
        # (one local tid per wire, one hit list per pattern) is corrupt:
        # the parent zips it against what it sent, so accepting it would
        # silently drop entries.  Shard 1 truncates one reply, once (for
        # slevel, past the level-1 priming message); the respawned worker
        # answers in full.
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        corpus, reference = baseline
        runtime = ShardedEngine(shards=2, backend="serial")
        worker = runtime._pool._handlers[1]
        handle = getattr(worker, f"_op_{op}")
        truncate_at = 2 if op == "slevel" else 1
        calls = 0

        def truncated_once(message):
            nonlocal calls
            reply = handle(message)
            calls += 1
            return reply[: len(reply) // 2] if calls == truncate_at else reply

        monkeypatch.setattr(worker, f"_op_{op}", truncated_once)
        try:
            mined = FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
            recovery = dict(runtime.recovery)
        finally:
            runtime.close()
        assert calls >= truncate_at
        assert mining_signature(mined) == reference
        assert recovery["worker_restarts"] == 1
        assert recovery["level_replays"] == (1 if op == "slevel" else 0)

    def test_sticky_exhaustion_degrades_and_still_matches(self, baseline):
        corpus, reference = baseline
        mined, stats = mine_sharded(corpus, faults="kill:shard=1,op=slevel,times=99,sticky")
        assert mining_signature(mined) == reference
        assert stats["worker_degradations"] >= 1
        assert stats["worker_restarts"] >= 1

    @settings(max_examples=10, deadline=None)
    @given(
        kind=st.sampled_from(["kill", "hang", "corrupt-reply"]),
        shard=st.integers(min_value=0, max_value=1),
        level=st.integers(min_value=1, max_value=3),
    )
    def test_any_single_fault_placement_is_invisible(self, kind, shard, level):
        # The property behind the chaos gate: wherever one fault lands in
        # the (kind, shard, level) space, mining output is unchanged.
        # (A placement past the end of the run simply never fires.)
        corpus = random_corpus(127, size=12)
        reference = mining_signature(FSGMiner(min_support=2, max_edges=2).mine(corpus))
        spec = f"{kind}:shard={shard},level={level}"
        runtime = ShardedEngine(shards=2, backend="serial", faults=spec)
        try:
            mined = FSGMiner(min_support=2, max_edges=2, runtime=runtime).mine(corpus)
        finally:
            runtime.close()
        assert mining_signature(mined) == reference

    # The "delta" id is historical (levels once shipped delta tokens);
    # it is kept so the test keeps its name.
    @pytest.mark.parametrize("protocol", ["delta"])
    def test_process_backend_sigkill_mid_level(self, baseline, protocol):
        corpus, reference = baseline
        mined, stats = mine_sharded(
            corpus,
            faults="kill:shard=1,level=2",
            backend="process",
        )
        assert mining_signature(mined) == reference
        assert stats["worker_restarts"] >= 1

    def test_process_backend_hang_detected_and_recovered(self, baseline):
        corpus, reference = baseline
        started = time.monotonic()
        mined, stats = mine_sharded(
            corpus,
            faults="hang:shard=0,op=slevel",
            backend="process",
            worker_timeout=1.0,
        )
        assert mining_signature(mined) == reference
        assert stats["worker_restarts"] >= 1
        assert time.monotonic() - started < 30

    def test_process_backend_corrupt_reply_recovered(self, baseline):
        corpus, reference = baseline
        mined, stats = mine_sharded(
            corpus,
            faults="corrupt-reply:shard=1,nth=4",
            backend="process",
        )
        assert mining_signature(mined) == reference
        assert stats["worker_restarts"] >= 1

    def test_golden_scenario_digest_survives_kill(self):
        report = differential_check(
            get_scenario("dense-uniform"),
            shard_counts=(2,),
            backends=("serial",),
            check_oracle=False,
            faults="kill:shard=1,level=2; corrupt-reply:shard=0,nth=4",
        )
        assert report.ok, report.failures

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["sparse-chains", "label-skew"])
    def test_golden_scenario_digest_survives_process_kill(self, name):
        report = differential_check(
            get_scenario(name),
            shard_counts=(2,),
            backends=("process",),
            check_oracle=False,
            faults="kill:shard=1,level=2",
        )
        assert report.ok, report.failures

    @pytest.mark.slow
    def test_golden_scenario_digest_survives_process_hang(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "2")
        report = differential_check(
            get_scenario("dense-uniform"),
            shard_counts=(2,),
            backends=("process",),
            check_oracle=False,
            faults="hang:shard=0,level=2",
        )
        assert report.ok, report.failures


# ----------------------------------------------------------------------
# Observability: loud in telemetry, silent in output
# ----------------------------------------------------------------------
class TestRecoveryObservability:
    def test_recovery_counters_reach_telemetry_and_stats(self):
        corpus = random_corpus(131)
        with activate(Tracer()) as tracer:
            _, stats = mine_sharded(corpus, faults="kill:shard=1,level=2")
        assert stats["worker_restarts"] >= 1
        assert stats["level_replays"] >= 1
        # The recovery is one span, and it falls inside the level it
        # replayed: the trace attributes it to level 2.
        [recovery] = [record for record in tracer.spans if record.name == "runtime.recovery"]
        assert (recovery.attrs["shard"], recovery.attrs["op"]) == (1, "slevel")
        [level] = [
            record
            for record in tracer.spans
            if record.name == "fsg.level" and record.attrs["level"] == 2
        ]
        assert level.start <= recovery.start <= recovery.end <= level.end

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_registry_counts_each_recovery_once(self, backend):
        corpus = random_corpus(131)
        with activate(Tracer()) as tracer:
            runtime = ShardedEngine(
                shards=2, backend=backend, faults="kill:shard=1,level=2"
            )
            try:
                FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
                recovery = dict(runtime.recovery)
            finally:
                runtime.close()
        assert recovery["worker_restarts"] == recovery["level_replays"] == 1
        [span] = [record for record in tracer.spans if record.name == "runtime.recovery"]
        assert span.attrs["attempts"] == 1
        for key in ("worker_restarts", "level_replays"):
            assert tracer.metrics.counter_total(key) == recovery[key], key

    def test_clean_run_counts_zero_and_arms_nothing(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        corpus = random_corpus(137, size=10)
        with activate(Tracer()) as tracer:
            runtime = ShardedEngine(shards=2, backend="serial")
            try:
                assert runtime.faults is None
                # Zero-overhead null pattern: no injector object exists on any
                # worker, so the per-message cost is a single `is None` check.
                assert all(worker.faults is None for worker in runtime._pool._handlers)
                FSGMiner(min_support=3, max_edges=3, runtime=runtime).mine(corpus)
                stats = runtime.stats()
            finally:
                runtime.close()
        assert stats["worker_restarts"] == 0
        assert stats["level_replays"] == 0
        assert stats["worker_degradations"] == 0
        assert not any(record.name == "runtime.recovery" for record in tracer.spans)
        assert tracer.metrics.counter_total("worker_restarts") == 0
