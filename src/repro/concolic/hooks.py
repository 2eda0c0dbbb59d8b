"""Execution hooks used by the concolic engine.

A :class:`ConcolicRunTrace` observes one interpreter run: it updates the
branch labelling and accumulates the ordered path constraints produced by
symbolic branches.
"""

from __future__ import annotations

from typing import Optional

from repro.concolic.labels import BranchLabels
from repro.interp.tracer import BranchEvent, ExecutionHooks
from repro.symbolic.constraints import Constraint, ConstraintSet


class ConcolicRunTrace(ExecutionHooks):
    """Trace of one concolic run: the labels it marks and its path constraints."""

    def __init__(self, labels: Optional[BranchLabels] = None) -> None:
        self.labels = labels if labels is not None else BranchLabels()
        self.path_constraints = ConstraintSet()

    def on_branch(self, event: BranchEvent) -> None:
        self.labels.observe(event.location, event.symbolic)
        if event.symbolic and event.condition is not None:
            self.path_constraints.add(Constraint(event.condition,
                                                 origin=event.location.node_id,
                                                 description=event.location.short()))

    # -- convenience used by the engine --------------------------------------------

    def constraint_count(self) -> int:
        return len(self.path_constraints)

    def constraint_at(self, index: int) -> Constraint:
        return self.path_constraints[index]

    def prefix_flipped(self, index: int) -> ConstraintSet:
        """Constraints 0..index-1 plus the negation of constraint *index*."""

        flipped = self.path_constraints.prefix(index)
        flipped.add(self.path_constraints[index].negated())
        return flipped
