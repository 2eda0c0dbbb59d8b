"""The top-level pipeline API tying every stage together.

:class:`~repro.core.pipeline.Pipeline` is the programmatic equivalent of the
paper's workflow:

1. ``analyze`` — run the bounded dynamic (concolic) analysis and the static
   analysis;
2. ``make_plan`` — pick an instrumentation method and derive the set of branch
   locations to log;
3. ``record`` — execute the instrumented program at the (simulated) user site,
   producing the branch bitvector, the optional syscall-result log, and the
   crash site;
4. ``reproduce`` — hand the bug report to the replay engine at the developer
   site and search for an input reaching the same crash.
"""

from repro.core.config import ConcolicBudget, PipelineConfig, ReplayBudget
from repro.core.pipeline import Pipeline
from repro.core.results import (
    AnalysisResult,
    RecordingResult,
    ReplayReport,
)

__all__ = [
    "AnalysisResult",
    "ConcolicBudget",
    "Pipeline",
    "PipelineConfig",
    "RecordingResult",
    "ReplayBudget",
    "ReplayReport",
]
