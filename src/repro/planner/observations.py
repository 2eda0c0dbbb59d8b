"""Fleet history distilled into per-branch and per-region evidence.

The replanner needs three signals, all of which already flow through the
service:

* **What did logging cost?**  Per-branch execution counts from re-profiling
  reproduced runs at the developer site (``ConcolicEngine.profile_run`` with
  the report's ``found_input``), weighted by the overhead model's per-branch
  charge; plus the measured per-plan recording overhead carried in traces.
* **What did logging buy?**  Which branches the profile shows as
  *symbolic* — input-dependent, exactly the ones whose logged outcomes
  prune the replay search (four-case hook policy, case 2).  A branch that
  executed under instrumentation but was never symbolic in any reproduced
  run paid full freight and pruned nothing.
* **Where was search expensive?**  Per-report run counts and solver time
  from :class:`~repro.service.service.ReproductionReport`, attributed to
  the crash site's function so the replanner can concentrate budget there.

:class:`FleetObservations` accumulates those signals across any number of
clusters and programs; it is a pure accumulator with deterministic
iteration order, so feeding the same history twice (or in two processes)
yields identical replanning decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.instrument.plan import InstrumentationPlan
from repro.lang.cfg import BranchLocation

__all__ = ["BranchEvidence", "FleetObservations", "ProgramObservations"]

BranchKey = Tuple[str, int]


@dataclass
class BranchEvidence:
    """Accumulated evidence about one static branch of one program."""

    location: BranchLocation
    #: Executions observed while the branch was in the instrumented set.
    logged_executions: int = 0
    #: Executions whose outcome depended on input (search-relevant).
    symbolic_executions: int = 0
    #: Executions with a fixed outcome (logging them buys nothing).
    concrete_executions: int = 0
    #: Executions in the most recent profile — the prediction basis.
    last_executions: int = 0
    #: How many reproduced runs this branch went symbolic in.
    helped_reproductions: int = 0

    def describe(self) -> Dict[str, object]:
        return {"location": self.location.short(),
                "logged_executions": self.logged_executions,
                "symbolic_executions": self.symbolic_executions,
                "concrete_executions": self.concrete_executions,
                "helped_reproductions": self.helped_reproductions}


@dataclass
class ProgramObservations:
    """Everything the fleet taught us about one program."""

    program: str
    branches: Dict[BranchKey, BranchEvidence] = field(default_factory=dict)
    #: Replay-search runs attributed to the crash site's function.
    search_runs_by_function: Dict[str, int] = field(default_factory=dict)
    reports: int = 0
    reproduced: int = 0
    search_runs: int = 0
    solver_seconds: float = 0.0
    #: Base (uninstrumented) work units of the latest observed recording.
    base_units: int = 0

    def evidence(self, location: BranchLocation) -> BranchEvidence:
        key = (location.function, location.node_id)
        record = self.branches.get(key)
        if record is None:
            record = self.branches[key] = BranchEvidence(location=location)
        return record

    def sorted_evidence(self) -> List[BranchEvidence]:
        return [self.branches[key] for key in sorted(self.branches)]

    def expensive_functions(self) -> List[str]:
        """Functions whose searches cost more than the per-function mean."""

        costs = self.search_runs_by_function
        if not costs:
            return []
        mean = sum(costs.values()) / len(costs)
        return sorted(name for name, runs in costs.items() if runs > mean)


class FleetObservations:
    """Accumulates profiles, reports and overhead across the fleet."""

    def __init__(self) -> None:
        self.programs: Dict[str, ProgramObservations] = {}

    def for_program(self, program: str) -> ProgramObservations:
        record = self.programs.get(program)
        if record is None:
            record = self.programs[program] = ProgramObservations(program)
        return record

    def observe_profile(self, program: str, plan: InstrumentationPlan,
                        recorder) -> None:
        """Fold one developer-site re-profile of a reproduced run.

        *recorder* is the :class:`~repro.interp.tracer.TraceRecorder`
        of ``ConcolicEngine.profile_run`` driven by the report's
        ``found_input`` — i.e. the branch behaviour of the run the fleet
        actually crashed on, observed with full visibility.
        """

        obs = self.for_program(program)
        symbolic = recorder.symbolic_executions
        for location in sorted(recorder.executions):
            executions = recorder.executions[location]
            symbolic_count = symbolic.get(location, 0)
            record = obs.evidence(location)
            if plan.is_instrumented(location):
                record.logged_executions += executions
            record.symbolic_executions += symbolic_count
            record.concrete_executions += executions - symbolic_count
            record.last_executions = executions
            if symbolic_count:
                record.helped_reproductions += 1

    def observe_report(self, program: str, report,
                       crash_site: Optional[str] = None) -> None:
        """Fold one :class:`ReproductionReport` (the search-cost signal)."""

        obs = self.for_program(program)
        obs.reports += 1
        if report.reproduced:
            obs.reproduced += 1
        obs.search_runs += report.runs
        obs.solver_seconds += float(
            (report.pending_stats or {}).get("solver_seconds", 0.0)
            if isinstance(report.pending_stats, dict) else 0.0)
        site = crash_site if crash_site is not None else report.crash_site
        if isinstance(site, (tuple, list)):
            function = str(site[0]) if site else ""
        else:
            function = (site or "").split(":", 1)[0]
        if function:
            obs.search_runs_by_function[function] = (
                obs.search_runs_by_function.get(function, 0) + report.runs)

    def observe_recording(self, program: str, base_units: int) -> None:
        """Record the base work units of the latest observed recording."""

        if base_units > 0:
            self.for_program(program).base_units = base_units

    def describe(self) -> Dict[str, object]:
        return {
            program: {
                "reports": obs.reports,
                "reproduced": obs.reproduced,
                "search_runs": obs.search_runs,
                "branches": [record.describe()
                             for record in obs.sorted_evidence()],
                "expensive_functions": obs.expensive_functions(),
            }
            for program, obs in sorted(self.programs.items())
        }
