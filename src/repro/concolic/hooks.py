"""Execution hooks used by the concolic engine.

A :class:`ConcolicRunTrace` observes one run: it updates the branch
labelling and accumulates the ordered path constraints produced by symbolic
branches.  The interpreter reports every branch to :meth:`on_branch`; the
bytecode VM recognises ``vm_inline = "analyze"`` and reports only symbolic
branches there, marking each concrete one inline and handing the marks to
:meth:`vm_fold_marks` once at the end of the run.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.concolic.labels import BranchLabels
from repro.interp.tracer import BranchEvent, ExecutionHooks
from repro.lang.cfg import BranchLocation
from repro.symbolic.constraints import Constraint, ConstraintSet


class ConcolicRunTrace(ExecutionHooks):
    """Trace of one concolic run: the labels it marks and its path constraints."""

    #: Opt-in marker for the VM's inline analyze mode.
    vm_inline = "analyze"

    def __init__(self, labels: Optional[BranchLabels] = None) -> None:
        self.labels = labels if labels is not None else BranchLabels()
        self.path_constraints = ConstraintSet()

    def on_branch(self, event: BranchEvent) -> None:
        self.labels.observe(event.location, event.symbolic)
        if event.symbolic and event.condition is not None:
            self.path_constraints.add(Constraint(event.condition,
                                                 origin=event.location.node_id,
                                                 description=event.location.short()))

    def vm_fold_marks(self, locations: Sequence[BranchLocation],
                      marks: Sequence[bool]) -> None:
        """Label concrete every location the VM marked (``marks[i]`` for
        ``locations[i]``) during the run.

        The labels end up as per-event dispatch would have left them: a
        symbolic observation wins in either order.
        """

        observe = self.labels.observe
        for location, marked in zip(locations, marks):
            if marked:
                observe(location, False)

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
