"""Config compatibility: ReproConfig subsumes the legacy config objects.

Every pre-service construction pattern the repo uses —
``PipelineConfig(...)`` in tests, examples, experiments and the trace tool,
``ExecutionConfig(...)`` in the backend benchmarks and parity tests — must
round-trip through the :class:`~repro.service.config.ReproConfig` shims
losslessly, and a pipeline built from the lifted config must behave
identically to one built from the original.  ``from_dict``/``to_dict``
round-trip exactly and unknown keys are rejected loudly.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    ConcolicBudget,
    InstrumentationMethod,
    Pipeline,
    PipelineConfig,
    ReplayBudget,
    ReproConfig,
)
from repro.core.config import coerce_pipeline_config
from repro.interp.inputs import ExecutionMode
from repro.interp.interpreter import ExecutionConfig
from repro.service.config import (
    ExecutionSection,
    InstrumentationSection,
    ReplaySection,
    ServiceSection,
)
from repro.workloads import userver
from repro.workloads.coreutils import mkdir

#: Every distinct ``PipelineConfig(...)`` construction pattern found in the
#: repo's tests, examples, experiments and tools before the service layer.
LEGACY_PIPELINE_PATTERNS = [
    ("default", lambda: PipelineConfig()),
    ("backend-vm", lambda: PipelineConfig(backend="vm")),
    ("budgets", lambda: PipelineConfig(
        concolic_budget=ConcolicBudget(max_iterations=24, max_seconds=6),
        replay_budget=ReplayBudget(max_runs=150, max_seconds=10))),
    ("library", lambda: PipelineConfig(
        library_functions=set(userver.LIBRARY_FUNCTIONS))),
    ("library-no-skip", lambda: PipelineConfig(
        library_functions={"helper"}, static_skips_library=False)),
    ("backend-library", lambda: PipelineConfig(
        backend="vm", library_functions=set(userver.LIBRARY_FUNCTIONS))),
    ("warm-start", lambda: PipelineConfig(
        backend="vm", replay_warm_start=False)),
    ("search-order", lambda: PipelineConfig(
        replay_search_order="bfs", record_max_steps=123_456,
        log_syscalls=False)),
    ("concolic-only", lambda: PipelineConfig(
        concolic_budget=ConcolicBudget(max_iterations=4, max_seconds=8))),
]

LEGACY_EXECUTION_PATTERNS = [
    ("default", lambda: ExecutionConfig()),
    ("vm", lambda: ExecutionConfig(backend="vm")),
    ("mode-steps", lambda: ExecutionConfig(mode=ExecutionMode.REPLAY,
                                           max_steps=5_000, backend="vm")),
    ("depth", lambda: ExecutionConfig(max_call_depth=64, backend="vm")),
    ("knobs", lambda: ExecutionConfig(mode=ExecutionMode.RECORD,
                                      backend="interp",
                                      profile_opcodes=True)),
]


class TestLegacyRoundTrip:
    @pytest.mark.parametrize("name,make",
                             LEGACY_PIPELINE_PATTERNS,
                             ids=[p[0] for p in LEGACY_PIPELINE_PATTERNS])
    def test_pipeline_config_round_trips(self, name, make):
        original = make()
        lifted = ReproConfig.from_legacy(original)
        assert lifted.to_pipeline_config() == original

    @pytest.mark.parametrize("name,make",
                             LEGACY_EXECUTION_PATTERNS,
                             ids=[p[0] for p in LEGACY_EXECUTION_PATTERNS])
    def test_execution_config_round_trips(self, name, make):
        original = make()
        lifted = ReproConfig.from_legacy(original)
        rebuilt = lifted.execution_config(
            mode=original.mode,
            syscall_result_provider=original.syscall_result_provider)
        assert rebuilt == original

    def test_from_legacy_rejects_other_types(self):
        with pytest.raises(TypeError):
            ReproConfig.from_legacy({"backend": "vm"})

    def test_coerce_accepts_both_and_rejects_garbage(self):
        legacy = PipelineConfig(backend="vm")
        assert coerce_pipeline_config(legacy) is legacy
        layered = ReproConfig(execution=ExecutionSection(backend="vm"))
        assert coerce_pipeline_config(layered) == legacy
        assert coerce_pipeline_config(None) == PipelineConfig()
        with pytest.raises(TypeError):
            coerce_pipeline_config(42)


class TestBehaviourDifferential:
    """The same pipeline run under the legacy config and its lifted twin."""

    @staticmethod
    def _end_to_end(config):
        pipeline = Pipeline.from_source(mkdir.SOURCE, name="mkdir",
                                        config=config)
        environment = mkdir.bug_scenario()
        plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                                  environment=environment)
        recording = pipeline.record(plan, environment)
        report = pipeline.reproduce(recording)
        outcome = report.outcome
        return (
            list(recording.bitvector),
            recording.execution.steps,
            (recording.crash_site.function, recording.crash_site.line),
            outcome.reproduced,
            outcome.runs,
            tuple((r.outcome, r.consumed_bits, r.constraints, r.deviation)
                  for r in outcome.run_records),
            tuple(sorted(outcome.found_input.items())),
        )

    @pytest.mark.parametrize("backend", ["interp", "vm"])
    def test_identical_pipeline_behaviour(self, backend):
        legacy = PipelineConfig(
            backend=backend,
            replay_budget=ReplayBudget(max_runs=400, max_seconds=30))
        lifted = ReproConfig.from_legacy(legacy)
        baseline = self._end_to_end(legacy)
        assert self._end_to_end(lifted) == baseline
        assert baseline[3] is True  # reproduced


class TestDictRoundTrip:
    def test_default_round_trips(self):
        config = ReproConfig()
        assert ReproConfig.from_dict(config.to_dict()) == config

    def test_customised_round_trips_through_json(self):
        config = ReproConfig(
            execution=ExecutionSection(backend="interp",
                                       record_max_steps=1_000),
            instrumentation=InstrumentationSection(
                log_syscalls=False, library_functions={"b", "a"},
                concolic_budget=ConcolicBudget(max_iterations=3,
                                               max_seconds=1.5, label="LC")),
            replay=ReplaySection(budget=ReplayBudget(max_runs=7),
                                 warm_start=False),
            service=ServiceSection(workers=2, priority="arrival",
                                   persist=False),
        )
        wire = json.loads(json.dumps(config.to_dict()))
        assert ReproConfig.from_dict(wire) == config

    def test_partial_dict_keeps_defaults(self):
        config = ReproConfig.from_dict({"execution": {"backend": "vm"}})
        assert config.execution.backend == "vm"
        assert config.replay == ReplaySection()
        assert config.service == ServiceSection()

    @pytest.mark.parametrize("payload,needle", [
        ({"exeggution": {}}, "exeggution"),
        ({"execution": {"backnd": "vm"}}, "backnd"),
        ({"replay": {"budget": {"max_rnus": 3}}}, "max_rnus"),
        ({"instrumentation": {"concolic_budget": {"depth": 2}}}, "depth"),
        ({"service": {"pool": 3}}, "pool"),
        # The retired replay pool and unsupervised dispatch knobs.
        ({"replay": {"workers": 2}}, "workers"),
        ({"service": {"supervised": False}}, "supervised"),
    ], ids=["section", "execution-key", "budget-key", "concolic-key",
            "service-key", "replay-workers", "service-supervised"])
    def test_unknown_keys_rejected(self, payload, needle):
        with pytest.raises(ValueError, match=needle):
            ReproConfig.from_dict(payload)

    def test_bad_priority_rejected(self):
        with pytest.raises(ValueError, match="priority"):
            ReproConfig.from_dict({"service": {"priority": "biggest-first"}})

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            ReproConfig.from_dict({"execution": ["vm"]})
