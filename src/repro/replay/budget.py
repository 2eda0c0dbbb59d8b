"""Replay budget: how long the developer site is willing to search.

The paper gives every reproduction attempt one hour and reports ``∞`` when the
attempt does not finish.  The reproduction uses wall-clock seconds and a cap on
the number of concolic runs; benchmarks translate "budget exhausted" into the
paper's time-out marker.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReplayBudget:
    """Limits for one bug-reproduction attempt."""

    max_runs: int = 400
    max_seconds: float = 30.0
    max_steps_per_run: int = 2_000_000
    max_pending: int = 5_000

    @classmethod
    def quick(cls) -> "ReplayBudget":
        """A small budget used by unit tests."""

        return cls(max_runs=40, max_seconds=5.0)
