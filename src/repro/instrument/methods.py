"""The four instrumentation methods (§2.3) and the uninstrumented baseline.

Given the outputs of the dynamic analysis (branch labels: symbolic / concrete /
unvisited) and the static analysis (symbolic / concrete), each method selects
the set of branch locations to instrument:

* ``DYNAMIC`` — only branches the dynamic analysis labelled symbolic,
* ``STATIC`` — every branch the static analysis labelled symbolic,
* ``DYNAMIC_PLUS_STATIC`` — the paper's combined rule: branches visited by the
  dynamic analysis keep its label; unvisited branches fall back to the static
  label,
* ``ALL_BRANCHES`` — the naive baseline.

``NONE`` logs no branch (the uninstrumented run).
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional, Set

from repro.analysis.dataflow import StaticAnalysisResult
from repro.concolic.labels import BranchLabels
from repro.instrument.plan import InstrumentationPlan
from repro.lang.cfg import BranchLocation


class InstrumentationMethod(enum.Enum):
    """How the set of instrumented branch locations is chosen."""

    NONE = "none"
    DYNAMIC = "dynamic"
    STATIC = "static"
    DYNAMIC_PLUS_STATIC = "dynamic+static"
    ALL_BRANCHES = "all branches"

    @classmethod
    def paper_methods(cls) -> Iterable["InstrumentationMethod"]:
        """The four instrumented configurations evaluated in the paper."""

        return (cls.DYNAMIC, cls.DYNAMIC_PLUS_STATIC, cls.STATIC, cls.ALL_BRANCHES)


def _require(value, what: str):
    if value is None:
        raise ValueError(f"{what} is required for this instrumentation method")
    return value


def select_branches(method: InstrumentationMethod,
                    all_locations: Set[BranchLocation],
                    dynamic_labels: Optional[BranchLabels] = None,
                    static_result: Optional[StaticAnalysisResult] = None) -> Set[BranchLocation]:
    """Compute the instrumented branch-location set for *method*."""

    if method is InstrumentationMethod.NONE:
        return set()
    if method is InstrumentationMethod.ALL_BRANCHES:
        return set(all_locations)
    if method is InstrumentationMethod.DYNAMIC:
        labels = _require(dynamic_labels, "dynamic analysis labels")
        return set(labels.symbolic)
    if method is InstrumentationMethod.STATIC:
        static = _require(static_result, "static analysis result")
        return set(static.symbolic_branches)
    if method is InstrumentationMethod.DYNAMIC_PLUS_STATIC:
        labels = _require(dynamic_labels, "dynamic analysis labels")
        static = _require(static_result, "static analysis result")
        # Branches labelled symbolic by the dynamic analysis are always
        # instrumented.  Branches labelled symbolic by the static analysis are
        # instrumented unless the dynamic analysis visited them and found them
        # concrete (dynamic overrides static on visited branches).
        selected = set(labels.symbolic)
        for location in static.symbolic_branches:
            if location in labels.concrete:
                continue
            selected.add(location)
        return selected
    raise ValueError(f"unknown instrumentation method: {method!r}")


def build_plan(method: InstrumentationMethod,
               all_locations: Iterable[BranchLocation],
               dynamic_labels: Optional[BranchLabels] = None,
               static_result: Optional[StaticAnalysisResult] = None,
               log_syscalls: bool = True) -> InstrumentationPlan:
    """Build the :class:`InstrumentationPlan` for *method*."""

    locations = set(all_locations)
    instrumented = select_branches(method, locations, dynamic_labels, static_result)
    metadata = {}
    if dynamic_labels is not None:
        metadata["dynamic_labels"] = dynamic_labels.counts()
        metadata["dynamic_coverage"] = dynamic_labels.coverage()
    if static_result is not None:
        metadata["static_counts"] = static_result.counts()
    return InstrumentationPlan.from_sets(method.value, instrumented, locations,
                                         log_syscalls=log_syscalls,
                                         analysis_metadata=metadata)
