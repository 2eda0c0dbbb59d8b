"""The adaptive planner: ledger, policy, service loop, wire op, CLI.

The load-bearing contracts:

* **Correctness-preserving revision** — the replanner only drops branches
  the fleet's profiles show as concrete-only (four-case hook policy, case
  3 -> 4), so a trace recorded under the revised plan still reproduces,
  byte-identically to its own single-shot search.
* **Mixed-fingerprint fleets keep working** — traces recorded under an
  older plan version still ingest after a replan, cluster separately from
  newer-plan traces, and are verified against the plan they actually ran
  (routed through the ledger by fingerprint).
* **Determinism** — the same fleet history and seed yield a byte-identical
  ``plan_ledger.json``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import InstrumentationMethod, PipelineConfig, ReplayBudget
from repro.instrument.plan import InstrumentationPlan
from repro.lang.cfg import BranchLocation
from repro.planner import (
    LEDGER_FILE,
    FleetObservations,
    PlanLedger,
    ReplanPolicy,
    Replanner,
    plan_fingerprint_digest,
    plan_version_of,
    replan_method,
)
from repro.service import (
    ReproService,
    TraceInbox,
    UploadClient,
    UploadRejected,
    UploadServer,
    outcome_fingerprint,
    workload_pipeline,
)
from repro.service.cli import main as cli_main


def planner_config() -> PipelineConfig:
    return PipelineConfig(
        replay_budget=ReplayBudget(max_runs=1500, max_seconds=60))


@pytest.fixture(scope="module")
def mkdir_setup():
    pipeline, environment = workload_pipeline("mkdir-bug",
                                              config=planner_config())
    plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                              environment=environment)
    return pipeline, environment, plan


def replanned_root(tmp_path, mkdir_setup, **service_kwargs):
    """A service root with one processed mkdir trace and one replan done."""

    pipeline, environment, plan = mkdir_setup
    os.makedirs(str(tmp_path), exist_ok=True)
    root = str(tmp_path / "inbox")
    trace_path = str(tmp_path / "gen0.trace")
    pipeline.record_trace(plan, environment, trace_path)
    service = ReproService(root, config=planner_config(), **service_kwargs)
    result = service.ingest_file(trace_path)
    service.process()
    revisions = service.replan()
    return service, result, revisions


class TestVersionHelpers:
    def test_replan_method_round_trips_version(self):
        assert replan_method(3) == "replan/v3"
        assert plan_version_of("replan/v3") == 3
        assert plan_version_of("replan/v") is None
        assert plan_version_of("all branches") is None
        assert plan_version_of(InstrumentationMethod.ALL_BRANCHES) is None

    def test_fingerprint_digest_matches_plan_and_tuple(self, mkdir_setup):
        _pipeline, _environment, plan = mkdir_setup
        digest = plan_fingerprint_digest(plan)
        assert digest == plan_fingerprint_digest(plan.fingerprint())
        assert len(digest) == 16 and int(digest, 16) >= 0
        # Method and syscall logging are not part of the identity.
        relabeled = InstrumentationPlan.from_sets(
            method=replan_method(9), instrumented=plan.instrumented,
            all_locations=plan.all_locations, log_syscalls=False)
        assert plan_fingerprint_digest(relabeled) == digest


class TestPlanLedger:
    def test_register_and_lookup_round_trip(self, tmp_path, mkdir_setup):
        _pipeline, _environment, plan = mkdir_setup
        ledger = PlanLedger.load(str(tmp_path))
        base = ledger.register_base("mkdir-bug", plan)
        assert (base.version, base.parent) == (1, None)
        # Idempotent by fingerprint: same plan, same entry.
        assert ledger.register_base("mkdir-bug", plan) is base

        revised = InstrumentationPlan.from_sets(
            method=replan_method(2),
            instrumented=set(list(sorted(plan.instrumented))[:-2]),
            all_locations=plan.all_locations,
            log_syscalls=plan.log_syscalls)
        entry = ledger.register("mkdir-bug", revised, {"seed": 0})
        assert (entry.version, entry.parent) == (2, 1)
        ledger.save()

        reborn = PlanLedger.load(str(tmp_path))
        assert reborn.latest("mkdir-bug").version == 2
        assert reborn.version("mkdir-bug", 1).fingerprint == base.fingerprint
        routed = reborn.by_fingerprint("mkdir-bug",
                                       plan_fingerprint_digest(revised))
        assert routed is not None and routed.version == 2
        assert routed.revision == {"seed": 0}
        # The rebuilt plan carries the same identity as what registered it.
        assert plan_fingerprint_digest(routed.plan()) == routed.fingerprint
        assert routed.plan().instrumented == revised.instrumented

    def test_save_is_canonical(self, tmp_path, mkdir_setup):
        _pipeline, _environment, plan = mkdir_setup
        first = PlanLedger.load(str(tmp_path / "a"))
        second = PlanLedger.load(str(tmp_path / "b"))
        for ledger in (first, second):
            ledger.register_base("mkdir-bug", plan)
            ledger.save()
        with open(first.path, "rb") as handle_a, \
                open(second.path, "rb") as handle_b:
            assert handle_a.read() == handle_b.read()

    def test_load_rejects_unsupported_version(self, tmp_path):
        path = tmp_path / LEDGER_FILE
        path.write_text(json.dumps({"version": 999, "programs": {}}))
        with pytest.raises(ValueError, match="unsupported"):
            PlanLedger(str(path))
        path.write_text("{not json")
        with pytest.raises(ValueError, match="unreadable"):
            PlanLedger(str(path))


def _location(function, node_id, line, kind="if"):
    return BranchLocation(function=function, node_id=node_id, line=line,
                          kind=kind)


class TestReplanner:
    def _observations(self, plan, all_locations):
        """Hand-built fleet evidence: two concrete hot branches, one
        symbolic logged branch, one symbolic *unlogged* branch in the
        (expensive) crashing function."""

        observations = FleetObservations()
        obs = observations.for_program("p")
        hot, warm, symbolic, candidate = all_locations
        for location, logged, sym in ((hot, 100, 0), (warm, 40, 0),
                                      (symbolic, 10, 10)):
            record = obs.evidence(location)
            record.logged_executions = logged
            record.symbolic_executions = sym
            record.concrete_executions = logged - sym
            record.last_executions = logged
        record = obs.evidence(candidate)
        record.symbolic_executions = 5
        record.last_executions = 5
        obs.search_runs_by_function = {"crashy": 100, "other": 1}
        obs.base_units = 1000
        return observations

    def _plan_and_locations(self):
        hot = _location("other", 1, 10)
        warm = _location("other", 2, 12)
        symbolic = _location("crashy", 3, 20)
        candidate = _location("crashy", 4, 22)
        plan = InstrumentationPlan.from_sets(
            method="all branches", instrumented={hot, warm, symbolic},
            all_locations={hot, warm, symbolic, candidate})
        return plan, (hot, warm, symbolic, candidate)

    def test_drops_concrete_keeps_symbolic_adds_candidate(self):
        plan, locations = self._plan_and_locations()
        hot, warm, symbolic, candidate = locations
        observations = self._observations(plan, locations)
        replanner = Replanner(ReplanPolicy(seed=0, max_drop_fraction=1.0))
        revised, revision = replanner.propose("p", plan, observations,
                                              version=2, parent=1)
        assert not revised.is_instrumented(hot)
        assert not revised.is_instrumented(warm)
        # Symbolic branches are never dropped (case 2 -> 1 raises cost)...
        assert revised.is_instrumented(symbolic)
        # ...and freed budget goes to the expensive function's symbolic
        # branch (case 1 -> 2 prunes its search).
        assert revised.is_instrumented(candidate)
        assert revised.method == replan_method(2)
        assert revision.dropped == [["other", 1, 10, "if"],
                                    ["other", 2, 12, "if"]]
        assert revision.added == [["crashy", 4, 22, "if"]]
        # Additions spend strictly less than drops freed.
        assert revision.predicted_units_delta < 0
        assert revision.predicted_overhead_delta_percent < 0

    def test_converged_and_empty_histories_return_none(self):
        plan, locations = self._plan_and_locations()
        replanner = Replanner()
        assert replanner.propose("p", plan, FleetObservations(),
                                 version=2, parent=1) is None
        # All-symbolic evidence: nothing droppable, even with history.
        observations = FleetObservations()
        record = observations.for_program("p").evidence(locations[2])
        record.logged_executions = record.symbolic_executions = 10
        assert replanner.propose("p", plan, observations,
                                 version=2, parent=1) is None

    def test_same_seed_same_revision(self):
        plan, locations = self._plan_and_locations()
        observations = self._observations(plan, locations)
        proposals = [
            Replanner(ReplanPolicy(seed=7)).propose(
                "p", plan, observations, version=2, parent=1)
            for _ in range(2)]
        (plan_a, rev_a), (plan_b, rev_b) = proposals
        assert plan_a.fingerprint() == plan_b.fingerprint()
        assert rev_a.to_json() == rev_b.to_json()


class TestServiceReplanLoop:
    def test_replan_registers_and_persists_versions(self, tmp_path,
                                                    mkdir_setup):
        service, _result, revisions = replanned_root(tmp_path, mkdir_setup)
        assert "mkdir-bug" in revisions
        latest = service.plan_ledger.latest("mkdir-bug")
        assert latest.version == 2 and latest.parent == 1
        assert latest.method == replan_method(2)
        revision = latest.revision
        assert revision["dropped"] and revision["predicted_units_delta"] < 0
        assert os.path.exists(os.path.join(service.inbox.root, LEDGER_FILE))
        # A fresh service on the same root sees the same ledger.
        reread = ReproService(service.inbox.root, config=planner_config())
        assert reread.plan_ledger.latest("mkdir-bug").fingerprint \
            == latest.fingerprint

    def test_mixed_fingerprint_fleet_clusters_and_reproduces(self, tmp_path,
                                                             mkdir_setup):
        """After a replan, generation-0 and generation-2 traces coexist:
        separate clusters, both reproduced, each byte-identical to its own
        single-shot search under the plan it was recorded with."""

        pipeline, environment, base_plan = mkdir_setup
        service, gen0, _revisions = replanned_root(tmp_path, mkdir_setup)
        revised_plan = service.plan_ledger.latest("mkdir-bug").plan()
        assert revised_plan.fingerprint() != base_plan.fingerprint()

        gen2_path = str(tmp_path / "gen2.trace")
        pipeline.record_trace(revised_plan, environment, gen2_path)
        gen2 = service.ingest_file(gen2_path)
        assert not gen2.duplicate
        assert gen2.cluster_id != gen0.cluster_id

        old_cluster = service.inbox.cluster_of(gen0.trace_id)
        new_cluster = service.inbox.cluster_of(gen2.trace_id)
        assert old_cluster.plan_version == 0
        assert new_cluster.plan_version == 2
        assert old_cluster.plan_fingerprint \
            == plan_fingerprint_digest(base_plan)
        assert new_cluster.plan_fingerprint \
            == plan_fingerprint_digest(revised_plan)

        reports = service.process()
        report = reports[gen2.trace_id]
        assert report.reproduced
        single = pipeline.reproduce_from_trace(gen2_path,
                                               expect_plan=revised_plan)
        assert report.fingerprint() == outcome_fingerprint(single.outcome)
        # The generation-0 report survived the replan untouched.
        old_report = service.report(gen0.trace_id)
        assert old_report is not None and old_report.reproduced

    def test_replan_trigger_after_n_reports(self, tmp_path, mkdir_setup):
        pipeline, environment, plan = mkdir_setup
        config = planner_config()
        config.service.replan_after_reports = 1
        trace_path = str(tmp_path / "gen0.trace")
        pipeline.record_trace(plan, environment, trace_path)
        service = ReproService(str(tmp_path / "inbox"), config=config)
        service.ingest_file(trace_path)
        service.process()  # fans out 1 report >= threshold -> replans
        assert service.plan_ledger.latest("mkdir-bug").version == 2
        assert os.path.exists(os.path.join(service.inbox.root, LEDGER_FILE))

    def test_replan_deterministic_across_roots(self, tmp_path, mkdir_setup):
        ledgers = []
        for name in ("left", "right"):
            service, _result, _revisions = replanned_root(
                tmp_path / name, mkdir_setup)
            with open(os.path.join(service.inbox.root, LEDGER_FILE),
                      "rb") as handle:
                ledgers.append(handle.read())
        assert ledgers[0] == ledgers[1]

    def test_replan_without_history_is_a_noop(self, tmp_path):
        service = ReproService(str(tmp_path / "inbox"),
                               config=planner_config())
        assert service.replan() == {}
        assert not os.path.exists(
            os.path.join(service.inbox.root, LEDGER_FILE))


class TestPlanWireOp:
    def test_plan_fetch_latest_and_by_version(self, tmp_path, mkdir_setup):
        service, _result, _revisions = replanned_root(
            tmp_path, mkdir_setup)
        server = UploadServer(service.inbox.root,
                              config=planner_config()).start()
        try:
            client = UploadClient(server.host, server.port,
                                  client_id="planner-test")
            body = client.plan("mkdir-bug")
            assert body["latest"] == 2
            assert body["plan"]["version"] == 2
            assert body["plan"]["method"] == replan_method(2)
            assert body["plan"]["instrumented"]
            base = client.plan("mkdir-bug", version=1)
            assert base["plan"]["version"] == 1
            assert base["latest"] == 2
            with pytest.raises(UploadRejected):
                client.plan("no-such-program")
        finally:
            server.shutdown()


class TestInboxPlanMetadata:
    def test_plan_fields_survive_restart(self, tmp_path, mkdir_setup):
        pipeline, environment, plan = mkdir_setup
        trace_path = str(tmp_path / "gen0.trace")
        pipeline.record_trace(plan, environment, trace_path)
        root = str(tmp_path / "inbox")
        inbox = TraceInbox(root)
        result = inbox.ingest_file(trace_path)
        reborn = TraceInbox(root)
        cluster = reborn.cluster_of(result.trace_id)
        assert cluster.plan_fingerprint == plan_fingerprint_digest(plan)
        assert cluster.plan_version == 0

    def test_info_prints_plan_fingerprint_and_version(self, tmp_path,
                                                      mkdir_setup, capsys):
        pipeline, environment, plan = mkdir_setup
        trace_path = str(tmp_path / "gen0.trace")
        pipeline.record_trace(plan, environment, trace_path)
        assert cli_main(["info", "--trace", trace_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan_fingerprint"] == plan_fingerprint_digest(plan)
        assert payload["plan_version"] == 0


class TestPlannerCli:
    def test_replan_command_reports_revisions(self, tmp_path, mkdir_setup,
                                              capsys):
        service, _result, _revisions = replanned_root(tmp_path, mkdir_setup)
        capsys.readouterr()
        assert cli_main(["replan", "--root", service.inbox.root]) == 0
        out = capsys.readouterr().out
        # The CLI run starts from the persisted v2 ledger and (history
        # unchanged) either advances or reports convergence — both print
        # the ledger path.
        assert "mkdir-bug" in out and LEDGER_FILE in out

    def test_replan_command_empty_root(self, tmp_path, capsys):
        root = tmp_path / "empty"
        root.mkdir()
        assert cli_main(["replan", "--root", str(root)]) == 0
        assert "nothing to replan" in capsys.readouterr().out

    def test_replan_command_missing_root(self, tmp_path, capsys):
        # A mistyped root is an error, as for `stats`, and creates nothing.
        root = tmp_path / "missing"
        assert cli_main(["replan", "--root", str(root)]) == 2
        assert f"no service state at {root}" in capsys.readouterr().err
        assert not root.exists()

    def test_stats_without_profile_prints_hint(self, tmp_path, capsys):
        jsonl = tmp_path / "telemetry.jsonl"
        jsonl.write_text(json.dumps({"type": "counter",
                                     "name": "service.ingested",
                                     "value": 3}) + "\n")
        assert cli_main(["stats", "--jsonl", str(jsonl), "--opcodes"]) == 0
        assert "no profile recorded" in capsys.readouterr().out
