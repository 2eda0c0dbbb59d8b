"""Reproduction of *Striking a New Balance Between Program Instrumentation and
Debugging Time* (Crameri, Bianchini, Zwaenepoel — EuroSys 2011).

The package is organised as a set of substrates (a small C-like language, a
symbolic expression layer with a constraint solver, a simulated OS, an
interpreter) on top of which the paper's contribution is implemented: the
dynamic/static/combined branch-instrumentation methods, the bitvector branch
logger, and the bitvector-guided replay (bug reproduction) engine.

The most convenient entry point for a single program is
:class:`repro.Pipeline`::

    from repro import InstrumentationMethod, Pipeline
    from repro.environment import simple_environment
    from repro.workloads import fibonacci

    pipeline = Pipeline.from_source(fibonacci.SOURCE, name="fib")
    env = fibonacci.scenario_b()
    analysis = pipeline.analyze(env)
    plan = pipeline.make_plan(InstrumentationMethod.DYNAMIC_PLUS_STATIC, analysis)
    recording = pipeline.record(plan, env)
    report = pipeline.reproduce(recording)

:class:`repro.PipelineConfig` configures every stage, and the service too.
For batches of shipped bug reports — ingestion, ``(fingerprint, crash
site)`` deduplication and scheduled replay searches — use the service layer
(:class:`repro.service.ReproService`, see :mod:`repro.service`; importing
:mod:`repro` alone does not load it); ``python -m repro`` is its
command-line face.
"""

from repro.core.config import ConcolicBudget, PipelineConfig, ReplayBudget
from repro.core.pipeline import Pipeline
from repro.core.results import (
    AnalysisResult,
    BranchLoggingStats,
    RecordingResult,
    ReplayReport,
)
from repro.environment import Environment, simple_environment
from repro.instrument.methods import InstrumentationMethod
from repro.instrument.plan import InstrumentationPlan
from repro.trace import (
    Trace,
    TraceError,
    TraceFingerprintMismatch,
    TraceFormatError,
    load_trace,
    save_trace,
    trace_from_recording,
)

__all__ = [
    "AnalysisResult",
    "BranchLoggingStats",
    "ConcolicBudget",
    "Environment",
    "InstrumentationMethod",
    "InstrumentationPlan",
    "Pipeline",
    "PipelineConfig",
    "RecordingResult",
    "ReplayBudget",
    "ReplayReport",
    "Trace",
    "TraceError",
    "TraceFingerprintMismatch",
    "TraceFormatError",
    "load_trace",
    "save_trace",
    "simple_environment",
    "trace_from_recording",
]

__version__ = "0.3.0"
