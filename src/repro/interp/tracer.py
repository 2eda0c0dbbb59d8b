"""Execution hooks and trace recording.

The interpreter reports two kinds of events:

* every executed branch (its static :class:`BranchLocation`, the direction
  taken, whether the condition depended on symbolic input, and the symbolic
  condition for the direction actually taken), and
* every executed syscall (as a :class:`~repro.osmodel.syscalls.SyscallEvent`).

Different pipeline stages plug in different hook implementations: the branch
logger during recording, the concolic engine during dynamic analysis, and the
replay engine during bug reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.lang.cfg import BranchLocation
from repro.osmodel.syscalls import SyscallEvent
from repro.symbolic.expr import SymExpr


@dataclass
class BranchEvent:
    """One dynamic execution of a branch location."""

    location: BranchLocation
    taken: bool
    symbolic: bool
    condition: Optional[SymExpr]
    """The path condition for the direction actually taken (``None`` when the
    condition did not depend on input)."""

    index: int = 0
    """Sequence number of this branch execution within the run."""


class ExecutionHooks:
    """Interface observed by the interpreter.  All methods are optional."""

    def on_branch(self, event: BranchEvent) -> None:
        """Called after every branch evaluation (before the body executes)."""

    def on_syscall(self, event: SyscallEvent) -> None:
        """Called after every syscall the guest performs."""


class NullHooks(ExecutionHooks):
    """Hooks that ignore every event (plain execution)."""


class TraceRecorder(ExecutionHooks):
    """Hooks that remember every branch event and per-location statistics.

    This is what the branch-behaviour experiments (the paper's Figures 1
    and 3) use: for every branch *location* it records how many times it
    executed and how many of those executions had a symbolic condition.
    """

    def __init__(self, keep_events: bool = True) -> None:
        self.keep_events = keep_events
        self.events: List[BranchEvent] = []
        self.executions: Dict[BranchLocation, int] = {}
        self.symbolic_executions: Dict[BranchLocation, int] = {}
        self.syscalls: List[SyscallEvent] = []
        self.total_branches = 0
        self.total_symbolic = 0

    def on_branch(self, event: BranchEvent) -> None:
        self.total_branches += 1
        self.executions[event.location] = self.executions.get(event.location, 0) + 1
        if event.symbolic:
            self.total_symbolic += 1
            self.symbolic_executions[event.location] = (
                self.symbolic_executions.get(event.location, 0) + 1)
        if self.keep_events:
            self.events.append(event)

    def on_syscall(self, event: SyscallEvent) -> None:
        self.syscalls.append(event)

    # -- derived statistics -------------------------------------------------------

    def visited_locations(self) -> List[BranchLocation]:
        return sorted(self.executions)

    def symbolic_locations(self) -> List[BranchLocation]:
        return sorted(self.symbolic_executions)

    def location_stats(self) -> List[Dict[str, object]]:
        """Per-location rows used by the Figure 1 / Figure 3 benchmarks."""

        rows = []
        for location in self.visited_locations():
            rows.append({
                "location": location.short(),
                "function": location.function,
                "line": location.line,
                "executions": self.executions[location],
                "symbolic_executions": self.symbolic_executions.get(location, 0),
            })
        return rows

    def mixed_locations(self) -> List[BranchLocation]:
        """Locations executed sometimes with symbolic and sometimes with
        concrete conditions — the paper observes these are rare."""

        mixed = []
        for location, count in self.executions.items():
            symbolic = self.symbolic_executions.get(location, 0)
            if 0 < symbolic < count:
                mixed.append(location)
        return sorted(mixed)
