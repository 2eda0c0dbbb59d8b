"""The simulated user site shared by ``triage`` and ``fleet``.

It holds one deployed build per program (parsed, analysed once, plans built),
records each bug under its plan and serializes the bug report a user ships.
It also holds the correctness oracle: the tree-walking interpreter re-running
a reproduced input against the report's scaffold and syscall log.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Optional, Tuple

from perfbench import inputs
from repro import InstrumentationMethod, Pipeline, PipelineConfig
from repro.interp.backend import create_backend
from repro.interp.inputs import ExecutionMode, InputBinder
from repro.interp.interpreter import ExecutionConfig
from repro import trace as trace_format


def deploy(job: inputs.AnalysisJob) -> Tuple[Pipeline, object]:
    """Parse *job*'s program and analyse it: ``(pipeline, analysis)``."""

    pipeline = Pipeline.from_source(
        job.source, name=inputs.PROGRAM[job.kind],
        config=PipelineConfig(backend="vm"),
        library_functions=set(job.library))
    return pipeline, pipeline.analyze(job.analysis_env, inputs.ANALYSIS_BUDGET)


class UserSite:
    """Deployed builds plus the recordings of every bug shipped so far."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"usersite-{seed}")
        self.pipelines: Dict[str, Pipeline] = {}
        self.analyses: Dict[str, object] = {}
        self.overheads = []  # dynamic+static recordings only
        self.trace_bytes = 0
        self.logged_bits = 0
        self.recorded_steps = 0
        self._plans = set()

    def pipeline(self, kind: str) -> Pipeline:
        pipeline = self.pipelines.get(kind)
        if pipeline is None:
            pipeline, self.analyses[kind] = deploy(
                inputs.analysis_job(self._rng, kind, 0))
            self.pipelines[kind] = pipeline
        return pipeline

    def record(self, bug: inputs.Bug) -> Tuple[object, bytes]:
        """Record *bug* under its plan; returns ``(recording, report bytes)``."""

        pipeline = self.pipeline(bug.kind)
        plan = pipeline.make_plan(bug.method, self.analyses[bug.kind],
                                  log_syscalls=bug.log_syscalls)
        recording = pipeline.record(plan, bug.env)
        if bug.method is InstrumentationMethod.DYNAMIC_PLUS_STATIC:
            self.overheads.append(recording.overhead.cpu_time_percent)
        data = trace_format.dump_trace_bytes(trace_format.trace_from_recording(
            recording, scaffold=True, program_name=inputs.PROGRAM[bug.kind]))
        self.trace_bytes += len(data)
        self.logged_bits += len(recording.bitvector)
        self.recorded_steps += recording.execution.steps
        self._plans.add(repr((bug.kind, plan.fingerprint())))
        return recording, data

    def counters(self) -> Dict[str, object]:
        """Machine-independent counts of what the user site recorded."""

        digest = hashlib.sha256("\n".join(sorted(self._plans)).encode())
        return {"logged_bits": self.logged_bits,
                "recorded_steps": self.recorded_steps,
                "trace_bytes": self.trace_bytes,
                "plan_fingerprint_digest": digest.hexdigest()[:16]}

    def overhead_pct(self) -> float:
        return sum(self.overheads) / max(1, len(self.overheads))


def replays_on_interpreter(program, recording, found_input: Dict[str, int]
                           ) -> Optional[str]:
    """``None`` when *found_input* reproduces *recording*, else why not.

    The input is re-run on the interpreter against the report's scaffold
    (and syscall log, when the plan logged one).  It must crash at the
    recorded site after the recorded number of branch executions; step
    counts may legitimately differ.
    """

    scaffold = recording.environment.scaffold()
    provider = None
    if recording.plan.log_syscalls:
        cursor = recording.syscall_log.cursor()

        def provider(kind, _cursor=cursor):
            return _cursor.next_result(kind)

    executor = create_backend(
        program, kernel=scaffold.make_kernel(),
        binder=InputBinder(mode=ExecutionMode.REPLAY,
                           overrides=dict(found_input)),
        config=ExecutionConfig(mode=ExecutionMode.REPLAY, backend="interp",
                               syscall_result_provider=provider))
    result = executor.run(scaffold.argv)
    site = recording.crash_site
    if result.crash is None:
        return "oracle: no crash"
    if (result.crash.function, result.crash.line) != (site.function, site.line):
        return "oracle: wrong crash site"
    if result.branch_executions != recording.execution.branch_executions:
        return "oracle: branch executions differ"
    return None
