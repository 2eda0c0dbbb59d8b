"""uServer experiments: Figure 3, Table 2, Figure 4, Tables 3, 4, 5 and 8 (§5.3).

The dynamic analysis runs against a generic GET workload (the developer's
pre-deployment testing), while the recorded experiments use the five request
scenarios of :func:`repro.workloads.httpgen.scenario_requests` — so scenarios
that exercise parser areas the analysis never covered are exactly the ones on
which the *dynamic* configuration struggles, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.concolic.budget import ConcolicBudget
from repro.core.config import PipelineConfig
from repro.core.pipeline import Pipeline
from repro.core.results import AnalysisResult
from repro.instrument.methods import InstrumentationMethod
from repro.replay.budget import ReplayBudget
from repro.workloads import userver

LC_BUDGET = ConcolicBudget(max_iterations=3, max_seconds=6, label="LC")
HC_BUDGET = ConcolicBudget(max_iterations=16, max_seconds=20, label="HC")
DEFAULT_REPLAY_BUDGET = ReplayBudget(max_runs=400, max_seconds=25)
DEFAULT_SCENARIOS: Sequence[int] = (1, 2, 4)
"""Scenarios regenerated by default; pass ``scenarios=httpgen.ALL_SCENARIOS``
for the full Table 3/4 sweep (slower)."""


@dataclass
class UServerSetup:
    """A pipeline plus the LC/HC analyses, shared across the uServer tables."""

    pipeline: Pipeline
    analyses: Dict[str, AnalysisResult]

    @classmethod
    def create(cls, coverages: Iterable[str] = ("LC", "HC"),
               analysis_requests: int = 3) -> "UServerSetup":
        config = PipelineConfig(
            library_functions=set(userver.LIBRARY_FUNCTIONS))
        pipeline = Pipeline.from_source(userver.SOURCE, name="userver", config=config)
        analysis_env = userver.saturation_workload(analysis_requests)
        analyses = {}
        for coverage in coverages:
            budget = LC_BUDGET if coverage == "LC" else HC_BUDGET
            analyses[coverage] = pipeline.analyze(analysis_env, budget)
        return cls(pipeline=pipeline, analyses=analyses)

    def plan(self, method: InstrumentationMethod, coverage: str,
             log_syscalls: bool = True):
        return self.pipeline.make_plan(method, self.analyses[coverage],
                                       log_syscalls=log_syscalls)


def figure3_rows(request_count: int = 10) -> List[Dict[str, object]]:
    """Figure 3: per-branch-location executions, split app vs library."""

    config = PipelineConfig(library_functions=set(userver.LIBRARY_FUNCTIONS))
    pipeline = Pipeline.from_source(userver.SOURCE, name="userver", config=config)
    profile = pipeline.profile_branch_behavior(userver.profiling_workload(request_count))
    rows = []
    for row in profile.location_stats():
        rows.append({
            "branch_location": row["location"],
            "code": "library" if row["function"] in userver.LIBRARY_FUNCTIONS else "application",
            "executions": row["executions"],
            "symbolic_executions": row["symbolic_executions"],
        })
    return rows


def figure3_summary(rows: List[Dict[str, object]]) -> Dict[str, float]:
    """Aggregate shares used to check the figure's shape."""

    total = sum(row["executions"] for row in rows) or 1
    symbolic = sum(row["symbolic_executions"] for row in rows)
    library = sum(row["executions"] for row in rows if row["code"] == "library")
    symbolic_library = sum(row["symbolic_executions"] for row in rows
                           if row["code"] == "library")
    return {
        "symbolic_fraction": symbolic / total,
        "library_fraction": library / total,
        "library_share_of_symbolic": symbolic_library / max(1, symbolic),
        "symbolic_locations": sum(1 for row in rows if row["symbolic_executions"] > 0),
    }


def table2_rows(setup: Optional[UServerSetup] = None) -> List[Dict[str, object]]:
    """Table 2: number of instrumented branch locations per method and coverage."""

    setup = setup or UServerSetup.create()
    rows = []
    for method in InstrumentationMethod.paper_methods():
        row: Dict[str, object] = {"configuration": method.value}
        for coverage in setup.analyses:
            row[coverage] = setup.plan(method, coverage).instrumented_count()
        rows.append(row)
    return rows


def figure4_rows(setup: Optional[UServerSetup] = None,
                 request_count: int = 10,
                 coverage_list: Sequence[str] = ("LC", "HC")) -> List[Dict[str, object]]:
    """Figure 4: CPU time and storage per request for each configuration."""

    setup = setup or UServerSetup.create()
    env = userver.saturation_workload(request_count)
    rows = []
    for method in InstrumentationMethod.paper_methods():
        coverages = coverage_list if method in (InstrumentationMethod.DYNAMIC,
                                                InstrumentationMethod.DYNAMIC_PLUS_STATIC) \
            else coverage_list[-1:]
        for coverage in coverages:
            recording = setup.pipeline.record(setup.plan(method, coverage), env)
            label = method.value
            if len(coverages) > 1:
                label = f"{method.value} ({coverage.lower()})"
            rows.append({
                "configuration": label,
                "cpu_time_percent": round(recording.overhead.cpu_time_percent, 1),
                "storage_bytes_per_request": round(recording.storage_bytes() / request_count, 1),
                "logged_bits": len(recording.bitvector),
            })
    return rows


def table3_rows(setup: Optional[UServerSetup] = None,
                scenarios: Sequence[int] = DEFAULT_SCENARIOS,
                replay_budget: Optional[ReplayBudget] = None,
                log_syscalls: bool = True) -> List[Dict[str, object]]:
    """Table 3 (and Table 5 when ``log_syscalls=False``): reproduction times."""

    setup = setup or UServerSetup.create()
    replay_budget = replay_budget or DEFAULT_REPLAY_BUDGET
    rows = []
    for method in InstrumentationMethod.paper_methods():
        row: Dict[str, object] = {"configuration": method.value}
        for coverage in setup.analyses:
            plan = setup.plan(method, coverage, log_syscalls=log_syscalls)
            for number in scenarios:
                env = userver.experiment(number)
                recording = setup.pipeline.record(plan, env)
                report = setup.pipeline.reproduce(recording, budget=replay_budget,
                                                  scenario=f"exp{number}")
                key = f"exp{number}/{coverage}"
                row[key] = (f"{report.replay_seconds:.1f}s"
                            if report.reproduced else "TIMEOUT")
        rows.append(row)
    return rows


def table4_rows(setup: Optional[UServerSetup] = None,
                scenarios: Sequence[int] = DEFAULT_SCENARIOS,
                log_syscalls: bool = True) -> List[Dict[str, object]]:
    """Table 4 (and Table 8 without syscall logging): symbolic branch locations
    and executions logged vs not logged, per configuration and scenario."""

    setup = setup or UServerSetup.create()
    rows = []
    for number in scenarios:
        env = userver.experiment(number)
        for method in InstrumentationMethod.paper_methods():
            for coverage in setup.analyses:
                plan = setup.plan(method, coverage, log_syscalls=log_syscalls)
                stats = setup.pipeline.branch_logging_stats(plan, env,
                                                            scenario=f"exp{number}")
                rows.append({
                    "experiment": f"exp{number}",
                    "configuration": f"{method.value} ({coverage.lower()})",
                    "logged (locations/executions)":
                        f"{stats.logged_locations} / {stats.logged_executions}",
                    "not logged (locations/executions)":
                        f"{stats.not_logged_locations} / {stats.not_logged_executions}",
                })
    return rows


def table5_rows(setup: Optional[UServerSetup] = None,
                scenarios: Sequence[int] = (1, 4),
                replay_budget: Optional[ReplayBudget] = None) -> List[Dict[str, object]]:
    """Table 5: reproduction times when syscall results are *not* logged."""

    return table3_rows(setup, scenarios=scenarios, replay_budget=replay_budget,
                       log_syscalls=False)


def table8_rows(setup: Optional[UServerSetup] = None,
                scenarios: Sequence[int] = (1, 4)) -> List[Dict[str, object]]:
    """Table 8: logged/unlogged symbolic branches without syscall logging."""

    return table4_rows(setup, scenarios=scenarios, log_syscalls=False)
