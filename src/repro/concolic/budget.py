"""The exploration budget: the paper's main tuning knob for dynamic analysis.

The paper stops symbolic execution of the uServer after one hour (LC, ~20 %
branch coverage) or two hours (HC, ~33 %).  In this reproduction the budget is
expressed in iterations and wall-clock seconds; the LC/HC experiment pairs use
two budgets that differ in the same direction.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConcolicBudget:
    """Bounds on one dynamic-analysis exploration."""

    max_iterations: int = 64
    max_seconds: float = 20.0
    max_steps_per_run: int = 2_000_000
    label: str = ""

    @classmethod
    def low_coverage(cls) -> "ConcolicBudget":
        """The paper's LC configuration (shorter exploration)."""

        return cls(max_iterations=8, max_seconds=5.0, label="LC")

    @classmethod
    def high_coverage(cls) -> "ConcolicBudget":
        """The paper's HC configuration (longer exploration)."""

        return cls(max_iterations=48, max_seconds=20.0, label="HC")
