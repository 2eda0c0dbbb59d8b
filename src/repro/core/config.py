"""Pipeline configuration objects.

:class:`ConcolicBudget` and :class:`ReplayBudget` are defined next to the
engines that consume them and re-exported here so that user code only needs to
import from :mod:`repro` / :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.concolic.budget import ConcolicBudget
from repro.replay.budget import ReplayBudget

__all__ = ["ConcolicBudget", "PipelineConfig", "ReplayBudget",
           "coerce_pipeline_config"]


@dataclass
class PipelineConfig:
    """Knobs shared by every stage of a :class:`~repro.core.pipeline.Pipeline`.

    ``library_functions`` plays the role of uClibc in the paper's uServer
    experiment: those functions are excluded from the static analysis (all
    their branches are conservatively treated as symbolic) and reported
    separately in branch-behaviour statistics.
    """

    concolic_budget: ConcolicBudget = field(default_factory=ConcolicBudget)
    replay_budget: ReplayBudget = field(default_factory=ReplayBudget)
    log_syscalls: bool = True
    library_functions: Set[str] = field(default_factory=set)
    static_skips_library: bool = True
    replay_search_order: str = "dfs"
    record_max_steps: int = 10_000_000
    # Execution engine used by every stage (record, replay, analysis): "vm"
    # (bytecode VM) or "interp" (the tree-walking interpreter, kept as the
    # reference oracle the VM is tested against).
    backend: str = "vm"
    # Seed each pending item's search from the parent run's satisfying
    # assignment; skips the solver whenever flipping one branch only moves
    # one input variable (see repro.symbolic.solver.warm_start_assignment).
    replay_warm_start: bool = True
    # Guest call-stack depth limit applied to record and replay runs.
    max_call_depth: int = 256
    # Record metrics and spans into repro.telemetry registries during record
    # and replay.  Telemetry never affects the explored search tree (the
    # on/off differential tests assert byte-identical outcomes); off (the
    # default) costs nothing — instrumentation sites resolve to shared no-op
    # singletons and the VM runs its unmodified dispatch loop.
    telemetry_enabled: bool = False
    # Swap in the VM's per-opcode profiling dispatch loop (exact execution
    # counts per opcode, incl. the logged-vs-bare branch split).  Costs one
    # dict update per dispatched instruction, so it is a separate knob.
    profile_opcodes: bool = False

    def static_skip_set(self) -> Set[str]:
        return set(self.library_functions) if self.static_skips_library else set()


def coerce_pipeline_config(config) -> PipelineConfig:
    """Accept a :class:`PipelineConfig`, a layered config, or ``None``.

    The canonical configuration object is
    :class:`repro.service.config.ReproConfig`; this shim lets every
    :class:`~repro.core.pipeline.Pipeline` entry point take either form
    without the core package importing the service layer (the layered config
    is recognised duck-typed via its ``to_pipeline_config`` method).
    """

    if config is None:
        return PipelineConfig()
    if isinstance(config, PipelineConfig):
        return config
    to_pipeline = getattr(config, "to_pipeline_config", None)
    if callable(to_pipeline):
        return to_pipeline()
    raise TypeError(
        f"expected PipelineConfig or ReproConfig, got {type(config).__name__}")
