"""repro.telemetry: registry semantics, determinism contract, shims, CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro import (
    InstrumentationMethod,
    Pipeline,
    PipelineConfig,
    ReplayBudget,
)
from repro.replay.engine import ReplayEngine
from repro.service import ReproService
from repro.service.cli import main as cli_main
from repro.service.service import outcome_fingerprint
from repro.telemetry import (
    COUNT_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    SECONDS_BUCKETS,
    active,
    read_jsonl,
    render_summary,
    scoped,
    span,
    write_jsonl,
)
from repro.vm import compiler as vm_compiler
from repro.vm.machine import VirtualMachine
from repro.workloads import workload_registry

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BUDGET = ReplayBudget(max_runs=400, max_seconds=60)


def _pipeline_for(name, **overrides):
    source, environment, library = workload_registry()[name]
    config = PipelineConfig(backend="vm", library_functions=set(library),
                            replay_budget=BUDGET, **overrides)
    pipeline = Pipeline.from_source(source, name=name, config=config,
                                    library_functions=set(library))
    plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                              environment=environment)
    return pipeline, plan, environment


def _search(pipeline, recording, *, telemetry, profile=False):
    engine = ReplayEngine(
        program=pipeline.program, plan=recording.plan,
        bitvector=recording.bitvector, syscall_log=recording.syscall_log,
        crash_site=recording.crash_site,
        environment=recording.environment.scaffold(),
        budget=BUDGET, backend="vm",
        telemetry=telemetry, profile_opcodes=profile)
    return engine.reproduce()


def _counters(outcome) -> tuple:
    """The outcome's cost counters, which telemetry must not move either."""

    return (outcome.runs, outcome.solver_calls, outcome.solver_nodes,
            outcome.warm_start_hits, outcome.compile_cache_hits,
            outcome.compile_cache_misses)


# ---------------------------------------------------------------------------
# Registry unit semantics
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_gauge_get_or_create(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        registry.gauge("g").set(7)
        snap = registry.snapshot()
        assert snap.counters["a"] == 5
        assert snap.gauges["g"] == 7

    def test_histogram_buckets_upper_inclusive_with_overflow(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1, 10, 100))
        for value in (0, 1, 2, 10, 11, 100, 101, 10_000):
            hist.observe(value)
        assert hist.counts == [2, 2, 2, 2]  # <=1, <=10, <=100, overflow
        assert hist.count == 8
        assert hist.sum == 0 + 1 + 2 + 10 + 11 + 100 + 101 + 10_000

    def test_histogram_rejects_unsorted_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="sorted"):
            registry.histogram("bad", buckets=(5, 1))

    def test_merge_is_exact_bucketwise_addition(self):
        parts = []
        for chunk in ((1, 7, 300), (2, 40, 9_999)):
            registry = MetricsRegistry()
            for value in chunk:
                registry.histogram("h", buckets=(1, 10, 100)).observe(value)
            registry.counter("c").inc(len(chunk))
            parts.append(registry.snapshot())
        serial = MetricsRegistry()
        for value in (1, 7, 300, 2, 40, 9_999):
            serial.histogram("h", buckets=(1, 10, 100)).observe(value)
        serial.counter("c").inc(6)
        merged = MetricsRegistry()
        for part in parts:
            merged.merge_snapshot(part)
        assert merged.snapshot().canonical_bytes() \
            == serial.snapshot().canonical_bytes()

    def test_merge_rejects_differing_buckets(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1, 2)).observe(1)
        b = MetricsRegistry()
        b.histogram("h", buckets=(1, 3)).observe(1)
        with pytest.raises(ValueError, match="boundaries"):
            a.merge_snapshot(b.snapshot())

    def test_deterministic_drops_timing_metrics_and_spans(self):
        registry = MetricsRegistry()
        registry.counter("keep").inc()
        registry.counter("wall", timing=True).inc()
        registry.histogram("lat", buckets=SECONDS_BUCKETS,
                           timing=True).observe(0.5)
        with scoped(registry):
            with span("op"):
                pass
        snap = registry.snapshot()
        assert "wall" in snap.counters and snap.spans
        det = snap.deterministic()
        assert set(det.counters) == {"keep"}
        assert not det.histograms
        assert not det.spans

    def test_jsonl_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h").observe(12)
        path = str(tmp_path / "sink.jsonl")
        write_jsonl(path, registry.snapshot(), context={"run": 1},
                    append=False)
        write_jsonl(path, registry.snapshot(), context={"run": 2})
        records = read_jsonl(path)
        assert len(records) == 4
        assert {r["run"] for r in records} == {1, 2}
        counter = next(r for r in records if r["type"] == "counter")
        assert counter["name"] == "c" and counter["value"] == 3
        hist = next(r for r in records if r["type"] == "histogram")
        assert hist["buckets"] == list(COUNT_BUCKETS)
        assert sum(hist["counts"]) == hist["count"] == 1
        rendered = render_summary(records)
        assert "c = 3" in rendered and "histograms:" in rendered


class TestRuntime:
    def test_default_is_shared_noop(self):
        assert active() is NULL_REGISTRY
        assert not active().enabled
        # No-ops must absorb the full instrument API without state.
        active().counter("x").inc()
        active().gauge("x").set(3)
        active().histogram("x").observe(1)
        assert active().snapshot().counters == {}

    def test_scopes_nest(self):
        registry = MetricsRegistry()
        outer = MetricsRegistry()
        with scoped(outer):
            assert active() is outer
            with scoped(registry):
                assert active() is registry
                active().counter("in").inc()
            assert active() is outer
        assert active() is NULL_REGISTRY
        assert registry.snapshot().counters == {"in": 1}
        assert outer.snapshot().counters == {}

    def test_spans_nest_with_depth(self):
        registry = MetricsRegistry()
        with scoped(registry):
            with span("outer", kind="test"):
                with span("inner"):
                    pass
        spans = registry.snapshot().spans
        assert [(s.name, s.depth) for s in spans] == [("inner", 1),
                                                      ("outer", 0)]
        outer = spans[1]
        assert dict(outer.attrs) == {"kind": "test"}
        assert outer.seconds >= 0


# ---------------------------------------------------------------------------
# The determinism contract: telemetry never affects the explored set
# ---------------------------------------------------------------------------


class TestDifferentialOnOff:
    @pytest.mark.parametrize("name", sorted(workload_registry()))
    def test_every_workload_identical_with_telemetry_on(self, name):
        pipeline_off, plan_off, environment = _pipeline_for(name)
        recording_off = pipeline_off.record(plan_off, environment)
        pipeline_on, plan_on, _ = _pipeline_for(
            name, telemetry_enabled=True, profile_opcodes=True)
        recording_on = pipeline_on.record(plan_on, environment)
        # Recording: byte-identical bitvector, same execution.
        assert (recording_on.bitvector.to_bytes()
                == recording_off.bitvector.to_bytes())
        assert recording_on.execution.steps == recording_off.execution.steps
        assert ((recording_on.crash_site is None)
                == (recording_off.crash_site is None))
        # Replay: byte-identical explored tree and counters.
        off = _search(pipeline_off, recording_off, telemetry=False)
        on = _search(pipeline_on, recording_on, telemetry=True, profile=True)
        assert outcome_fingerprint(on) == outcome_fingerprint(off)
        assert _counters(on) == _counters(off)
        assert off.telemetry is None
        assert on.telemetry is not None
        assert on.telemetry.counters["replay.runs"] == off.runs

    @pytest.mark.parametrize("name", ["userver-exp1", "paste-bug",
                                      "diff-exp1"])
    def test_profiled_search_keeps_every_published_count(self, monkeypatch,
                                                         name):
        # A run repaired in place publishes its opcode counts when the
        # physical run ends, after the items it ran were committed: the
        # search's registry must still receive them.
        published = []
        publish = VirtualMachine._publish_opcode_counts

        def spy(vm):
            published.append(sum(vm.opcode_counts.values()))
            publish(vm)

        monkeypatch.setattr(VirtualMachine, "_publish_opcode_counts", spy)
        pipeline, plan, environment = _pipeline_for(
            name, telemetry_enabled=True, profile_opcodes=True)
        recording = pipeline.record(plan, environment)
        del published[:]
        outcome = _search(pipeline, recording, telemetry=True, profile=True)
        assert outcome.reproduced and outcome.repairs > 0
        kept = sum(value for key, value in outcome.telemetry.counters.items()
                   if key.startswith("vm.opcode."))
        assert kept == sum(published) > 0

    def test_profiled_vm_execution_parity(self):
        pipeline, plan, environment = _pipeline_for(
            "fibonacci-a", telemetry_enabled=True, profile_opcodes=True)
        registry = MetricsRegistry()
        with scoped(registry):
            recording = pipeline.record(plan, environment)
        baseline_pipeline, baseline_plan, _ = _pipeline_for("fibonacci-a")
        baseline = baseline_pipeline.record(baseline_plan, environment)
        assert recording.execution.steps == baseline.execution.steps
        assert (recording.bitvector.to_bytes()
                == baseline.bitvector.to_bytes())
        snapshot = registry.snapshot()
        opcode_counts = {k[len("vm.opcode."):]: v
                         for k, v in snapshot.counters.items()
                         if k.startswith("vm.opcode.")}
        assert opcode_counts, "profiler published no opcode counts"
        # A resumed search re-runs from main what an uninterrupted one
        # repaired in place, so the counts are timing metrics.
        assert {f"vm.opcode.{name}" for name in opcode_counts} \
            <= set(snapshot.timing_names)
        # The run supplies the logged-vs-unlogged branch split: every
        # logged execution appended one bit to the recording.
        assert (snapshot.counters["vm.branches.logged"]
                == len(recording.bitvector) > 0)


# ---------------------------------------------------------------------------
# Shims: the legacy accessors stay truthful
# ---------------------------------------------------------------------------


class TestShims:
    def test_cache_stats_shim_and_registry_mirror(self):
        before = vm_compiler.cache_stats()
        registry = MetricsRegistry()
        pipeline, plan, environment = _pipeline_for("fibonacci-b")
        with scoped(registry):
            pipeline.record(plan, environment)
        after = vm_compiler.cache_stats()
        lookups = (after["hits"] + after["misses"]
                   - before["hits"] - before["misses"])
        counters = registry.snapshot().counters
        mirrored = (counters.get("vm.compile_cache.hits", 0)
                    + counters.get("vm.compile_cache.misses", 0))
        assert lookups == mirrored > 0
        assert "vm.compile_cache.misses" in registry.snapshot().timing_names \
            or "vm.compile_cache.hits" in registry.snapshot().timing_names

    def test_cache_scope_still_counts(self):
        pipeline, plan, environment = _pipeline_for("fibonacci-a")
        with vm_compiler.cache_scope() as events:
            pipeline.record(plan, environment)
        assert events["hits"] + events["misses"] > 0

    def test_service_stats_round_trip(self, tmp_path):
        # ReproService.stats() is plain JSON data read off the registry:
        # no dedup_ratio before the first search, fanned-out reports per
        # search after it.
        _record_trace("mkdir-bug", tmp_path / "a.trace")
        _record_trace("mkfifo-bug", tmp_path / "b.trace")
        with ReproService(str(tmp_path / "svc")) as service:
            for name in ("a.trace", "a.trace", "b.trace"):
                service.ingest_file(str(tmp_path / name))
            idle = service.stats()
            assert idle["searches_run"] == 0
            assert "dedup_ratio" not in idle
            assert json.loads(json.dumps(idle)) == idle
            service.process()
            stats = service.stats()
        assert json.loads(json.dumps(stats)) == stats
        assert stats["searches_run"] == 2
        assert stats["reports_fanned_out"] == 3
        assert stats["dedup_ratio"] == 1.5
        assert stats["traces_ingested"] == 3


# ---------------------------------------------------------------------------
# Service + config + CLI integration
# ---------------------------------------------------------------------------


def _record_trace(name, path):
    pipeline, plan, environment = _pipeline_for(name)
    pipeline.record_trace(plan, environment, str(path))


class TestServiceTelemetry:
    def test_ingest_latency_and_sink(self, tmp_path):
        trace = tmp_path / "a.trace"
        _record_trace("diff-exp1", trace)
        sink = tmp_path / "sink.jsonl"
        config = PipelineConfig(telemetry_enabled=True)
        config.service.telemetry_jsonl_path = str(sink)
        with ReproService(str(tmp_path / "svc"), config=config) as service:
            service.ingest_file(str(trace))
            service.ingest_file(str(trace))
            reports = service.process()
            assert all(r.reproduced for r in reports.values())
            snap = service.telemetry()
        assert snap.counters["service.searches_run"] == 1
        assert snap.counters["service.reports_fanned_out"] == 2
        assert snap.counters["service.duplicate_traces"] == 1
        latency = snap.histograms["service.ingest_latency"]
        assert latency[2] == 2  # both traces measured ingest->report
        assert "service.ingest_latency" in snap.timing_names
        assert any(s.name == "replay.search" for s in snap.spans)
        records = read_jsonl(str(sink))
        assert any(r.get("name") == "service.ingest_latency"
                   for r in records)

    def test_stats_reads_each_flush_of_the_sink_once(self, tmp_path, capsys):
        # Every processed batch appends the whole cumulative registry to the
        # sink, so only each source's last flush counts.
        sink = tmp_path / "sink.jsonl"
        config = PipelineConfig(telemetry_enabled=True, profile_opcodes=True)
        config.service.telemetry_jsonl_path = str(sink)
        with ReproService(str(tmp_path / "svc"), config=config) as service:
            for name in ("diff-exp1", "userver-exp1"):
                trace = tmp_path / f"{name}.trace"
                _record_trace(name, trace)
                service.ingest_file(str(trace))
                service.process()
            live = service.telemetry().counters
        assert {r.get("flush") for r in read_jsonl(str(sink))} == {1, 2}
        dispatches = sum(value for name, value in live.items()
                         if name.startswith("vm.opcode."))
        assert cli_main(["stats", "--jsonl", str(sink), "--opcodes",
                         "100"]) == 0
        table = capsys.readouterr().out
        assert f"total dispatches: {dispatches} " in table
        assert cli_main(["stats", "--jsonl", str(sink)]) == 0
        listed = [line.split(" = ")[0].strip()
                  for line in capsys.readouterr().out.splitlines()
                  if " = " in line]
        assert len(listed) == len(set(listed))
        assert "service.searches_run" in listed
        assert set(live) <= set(listed)

    def test_stats_identical_with_telemetry_on_and_off(self, tmp_path):
        trace = tmp_path / "a.trace"
        _record_trace("userver-exp1", trace)
        results = {}
        for label, enabled in (("off", False), ("on", True)):
            root = tmp_path / f"svc-{label}"
            config = PipelineConfig(telemetry_enabled=enabled)
            with ReproService(str(root), config=config) as svc:
                svc.ingest_file(str(trace))
                reports = svc.process()
                results[label] = (svc.stats(), reports)
        on_json, off_json = results["on"][0], results["off"][0]
        on_json.pop("process_wall_seconds")
        off_json.pop("process_wall_seconds")
        assert on_json == off_json
        fingerprints = [
            {tid: r.fingerprint() for tid, r in reports.items()}
            for _stats, reports in results.values()]
        assert fingerprints[0] == fingerprints[1]


class TestCli:
    def _run(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT)

    def test_info_telemetry_sections_and_crc(self, tmp_path):
        trace = tmp_path / "a.trace"
        _record_trace("fibonacci-a", trace)
        proc = self._run("info", "--trace", str(trace), "--telemetry")
        assert proc.returncode == 0, proc.stderr
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        sections = [r for r in records if r["type"] == "trace_section"]
        total = next(r for r in records if r["type"] == "trace_total")
        assert [s["name"] for s in sections] == ["META", "PLAN", "BITV",
                                                "SYSC", "CRSH", "ENVS"]
        assert all(r["crc_ok"] for r in records)
        assert (sum(s["bytes"] for s in sections) + 12 * len(sections)
                + total["header_bytes"] == total["total_bytes"])

    def test_serve_batch_telemetry_then_stats(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        _record_trace("diff-exp1", spool / "u1.trace")
        _record_trace("diff-exp1", spool / "u2.trace")
        sink = tmp_path / "sink.jsonl"
        proc = self._run("serve-batch", "--root", str(tmp_path / "inbox"),
                         "--spool", str(spool), "--telemetry",
                         "--telemetry-jsonl", str(sink))
        assert proc.returncode == 0, proc.stderr
        records = read_jsonl(str(sink))
        assert any(r.get("name") == "service.ingest_latency" for r in records)
        rendered = self._run("stats", "--jsonl", str(sink))
        assert rendered.returncode == 0, rendered.stderr
        assert "service.ingest_latency" in rendered.stdout
