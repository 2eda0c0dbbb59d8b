"""Per-run replay hooks: the four branch cases of §3.1.

For every executed branch the hooks decide, based on whether the branch is
symbolic (its condition carries input) and whether it is instrumented (present
in the plan), one of:

1. **symbolic, not instrumented** — record the taken direction in the run's
   constraint set and push the untaken alternative onto the pending list;
2. **symbolic, instrumented** — compare against the next bit of the recorded
   bitvector; on a match record the constraint and continue, on a mismatch
   push "follow the recorded direction" onto the pending list and abort (on
   the VM the engine may instead continue the run on that alternative's
   input, see :attr:`ReplayRunHooks.continuation`);
3. **concrete, instrumented** — compare against the next bit; a mismatch means
   an earlier uninstrumented symbolic branch went the wrong way, so abort;
4. **concrete, not instrumented** — continue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.instrument.logger import BitvectorLog
from repro.instrument.plan import InstrumentationPlan
from repro.interp.interpreter import AbortRun
from repro.interp.tracer import BranchEvent, ExecutionHooks
from repro.lang.cfg import BranchLocation
from repro.symbolic.constraints import Constraint, ConstraintSet
from repro.symbolic.expr import SymExpr


@dataclass
class RunDeviation:
    """Why a replay run was aborted."""

    kind: str  # "symbolic-mismatch" | "concrete-mismatch" | "log-exhausted"
    location: Optional[BranchLocation] = None
    bit_index: int = 0


class ReplayRunHooks(ExecutionHooks):
    """Observes one replay run and applies the four-case policy.

    With the tree-walking interpreter (or the VM on unspecialized code) every
    branch arrives through :meth:`on_branch`.  The bytecode VM instead
    recognises ``vm_inline = "replay"`` and runs plan-specialized code that
    walks ``cursor_cell`` and compares recorded bits inline for the dominant
    case 3 (concrete, instrumented); only the rare cases — symbolic
    conditions and deviations — call back through the ``vm_*`` entry points
    below, which share the exact code paths of the hook dispatch so the two
    modes cannot drift.
    """

    #: Opt-in marker for the VM's inline replay fast path.
    vm_inline = "replay"

    def __init__(self, plan: InstrumentationPlan, bitvector: BitvectorLog) -> None:
        self.plan = plan
        self.bitvector = bitvector
        # The bitvector read cursor, in a one-element list so the VM's inline
        # fast path and these hooks share one mutable cell.
        self.cursor_cell = [0]
        self.run_constraints = ConstraintSet()
        # Alternatives discovered during this run, to be merged into the
        # engine's pending list: (constraint set, reason).
        self.alternatives: List[tuple] = []
        self.deviation: Optional[RunDeviation] = None
        self.branch_executions = 0
        self.symbolic_not_logged: Dict[BranchLocation, int] = {}
        self.symbolic_logged: Dict[BranchLocation, int] = {}
        # Called by the VM path at a logged symbolic mismatch, with the
        # mismatching event and the VM's live operand stacks.  Returning True
        # means the run was committed and moved in place onto the input of
        # the alternative that follows the log; the run then goes on as that
        # alternative's run.  None (and always on the interpreter) aborts.
        self.continuation: Optional[Callable[[BranchEvent, tuple], bool]] = None

    @property
    def cursor(self) -> int:
        return self.cursor_cell[0]

    @cursor.setter
    def cursor(self, value: int) -> None:
        self.cursor_cell[0] = value

    # -- helpers -------------------------------------------------------------------

    def _next_bit(self, event: BranchEvent) -> Optional[bool]:
        if self.cursor >= len(self.bitvector):
            self.deviation = RunDeviation("log-exhausted", event.location, self.cursor)
            raise AbortRun("recorded branch log exhausted")
        bit = self.bitvector[self.cursor]
        self.cursor += 1
        return bit

    def _push_alternative(self, constraints: ConstraintSet, reason: str) -> None:
        self.alternatives.append((constraints, reason))

    # -- the four cases ------------------------------------------------------------------

    def on_branch(self, event: BranchEvent) -> None:
        self.branch_executions += 1
        instrumented = self.plan.is_instrumented(event.location)
        if event.symbolic and event.condition is not None:
            if instrumented:
                self.symbolic_logged[event.location] = (
                    self.symbolic_logged.get(event.location, 0) + 1)
                self._symbolic_instrumented(event)
            else:
                self.symbolic_not_logged[event.location] = (
                    self.symbolic_not_logged.get(event.location, 0) + 1)
                self._symbolic_uninstrumented(event)
        else:
            if instrumented:
                self._concrete_instrumented(event)
            # Case 4 (concrete, not instrumented): nothing to do.

    def _symbolic_uninstrumented(self, event: BranchEvent) -> None:
        taken_constraint = self._constraint(event)
        alternative = self.run_constraints.extended(taken_constraint.negated())
        self._push_alternative(alternative, "unlogged symbolic branch")
        self.run_constraints.add(taken_constraint)

    def _symbolic_instrumented(self, event: BranchEvent) -> None:
        if not self._follows_log(event):
            raise AbortRun(f"bitvector mismatch at {event.location.short()}")

    def _follows_log(self, event: BranchEvent) -> bool:
        """Compare *event* with the next recorded bit; False on a mismatch.

        A match records the taken constraint.  A mismatch schedules the
        constraint set that forces the recorded direction and marks the
        run's deviation; the caller then ends (or continues) the run.
        """

        recorded_taken = self._next_bit(event)
        taken_constraint = self._constraint(event)
        if recorded_taken == event.taken:
            self.run_constraints.add(taken_constraint)
            return True
        forced = self.run_constraints.extended(taken_constraint.negated())
        self._push_alternative(forced, "bitvector mismatch at symbolic branch")
        self.deviation = RunDeviation("symbolic-mismatch", event.location, self.cursor - 1)
        return False

    @staticmethod
    def _constraint(event: BranchEvent) -> Constraint:
        return Constraint(event.condition, origin=event.location.node_id,
                          description=event.location.short())

    def _concrete_instrumented(self, event: BranchEvent) -> None:
        recorded_taken = self._next_bit(event)
        if recorded_taken == event.taken:
            return
        # A concrete branch cannot disagree with the log unless an earlier
        # uninstrumented symbolic branch sent the run down the wrong path.
        self.deviation = RunDeviation("concrete-mismatch", event.location, self.cursor - 1)
        raise AbortRun(f"concrete branch deviated at {event.location.short()}")

    # -- VM inline-replay integration ---------------------------------------------------
    #
    # Called by the bytecode VM from plan-specialized code for the cases its
    # inline cursor walk cannot decide alone.  Instrumented-ness is already
    # baked into the branch's slot operand, so no plan lookup happens here.

    def vm_bare_symbolic(self, event: BranchEvent) -> None:
        """Case 1 slow path: symbolic condition at an uninstrumented branch."""

        self.symbolic_not_logged[event.location] = (
            self.symbolic_not_logged.get(event.location, 0) + 1)
        self._symbolic_uninstrumented(event)

    def vm_logged_symbolic(self, location: BranchLocation, taken: bool,
                           expr: SymExpr, index: int, stack: list,
                           call_stack: list) -> bool:
        """Case 2 slow path: symbolic condition *expr* at an instrumented branch.

        Returns the direction the run follows.  On a mismatch the
        :attr:`continuation` (given the VM's live operand stacks) may commit
        this run and repair the VM onto the next input; the run is then the
        forced alternative's run, which reaches this branch on the same path
        and follows the recorded direction.  Otherwise the run aborts.
        """

        self.symbolic_logged[location] = self.symbolic_logged.get(location, 0) + 1
        event = BranchEvent(location=location, taken=taken, symbolic=True,
                            condition=expr if taken else expr.negated(),
                            index=index)
        if self._follows_log(event):
            return taken
        if self.continuation is not None and self.continuation(
                event, (stack, call_stack)):
            # Exactly what the alternative's own run has at this point: the
            # same prefix alternatives and constraints, no deviation, and the
            # constraint of the direction it takes here.
            self.alternatives.pop()
            self.deviation = None
            self.run_constraints.add(self._constraint(BranchEvent(
                location=location, taken=not taken, symbolic=True,
                condition=expr.negated() if taken else expr, index=index)))
            return not taken
        raise AbortRun(f"bitvector mismatch at {location.short()}")

    def vm_concrete_mismatch(self, location: BranchLocation, bit_index: int) -> None:
        """Case 3 deviation: the VM's inline compare saw the wrong direction.

        The VM has already advanced the cursor past the mismatching bit,
        mirroring ``_next_bit`` + ``_concrete_instrumented``.
        """

        self.deviation = RunDeviation("concrete-mismatch", location, bit_index)
        raise AbortRun(f"concrete branch deviated at {location.short()}")

    def vm_log_exhausted(self, location: BranchLocation) -> None:
        """The recorded bitvector ran out at an instrumented branch."""

        self.deviation = RunDeviation("log-exhausted", location, self.cursor)
        raise AbortRun("recorded branch log exhausted")

    def vm_finish(self, branch_executions: int) -> None:
        """End-of-run merge of the VM's inline per-run counters."""

        self.branch_executions += branch_executions

    # -- statistics --------------------------------------------------------------------------

    def consumed_bits(self) -> int:
        return self.cursor

    def symbolic_counts(self) -> tuple:
        """``(logged locations, logged execs, unlogged locations, unlogged execs)``.

        The distilled per-run numbers the engine folds into its outcome; plain
        ints so a worker process can ship them home without pickling the
        per-location dictionaries.
        """

        return (len(self.symbolic_logged), sum(self.symbolic_logged.values()),
                len(self.symbolic_not_logged), sum(self.symbolic_not_logged.values()))

    def not_logged_summary(self) -> Dict[str, int]:
        return {
            "locations": len(self.symbolic_not_logged),
            "executions": sum(self.symbolic_not_logged.values()),
        }
