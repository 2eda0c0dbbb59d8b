"""The traced run: spans around every layer's public entry points.

Nothing inside ``src/`` is changed.  :func:`install` wraps each public
function at the module attribute its caller looks it up from, so wrapping
``repro.concolic.engine.solve`` apart from ``repro.replay.engine.solve``
splits solver time by caller, and the executors ``create_backend`` returns
give VM run time per mode.  Each span records its name, start, end, parent
and bug id; spans stay in memory and are written out when the run ends.
``serve_traced.py`` installs the same wrappers in the server process.

Layers are the modules of ``src/repro``.  ``interp`` runs only as the
correctness oracle and is not timed; ``planner``, the supervisor and
telemetry are off because ``serve``'s defaults do not run them.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("lang", "concolic", "symbolic", "analysis", "instrument", "vm",
          "trace", "replay", "service")

#: ``(name, unit, better)`` of every per-layer metric, in BENCHMARK.json order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("lang.parse_s", "s", "lower"),
    ("lang.branch_locations", "count", "lower"),
    ("concolic.explore_s", "s", "lower"),
    ("concolic.run_s", "s", "lower"),
    ("concolic.iterations", "count", "lower"),
    ("concolic.new_path_ratio", "ratio", "higher"),
    ("concolic.time_capped", "count", "lower"),
    ("concolic.coverage", "ratio", "higher"),
    ("symbolic.solve_s.concolic", "s", "lower"),
    ("symbolic.solve_calls.concolic", "count", "lower"),
    ("symbolic.solve_s.replay", "s", "lower"),
    ("symbolic.solve_calls.replay", "count", "lower"),
    ("symbolic.solver_nodes", "count", "lower"),
    ("symbolic.sat_ratio", "ratio", "higher"),
    ("symbolic.budget_exhausted", "count", "lower"),
    ("symbolic.warm_start_s", "s", "lower"),
    ("symbolic.warm_start_hit_ratio", "ratio", "higher"),
    ("analysis.static_s", "s", "lower"),
    ("analysis.symbolic_branches", "count", "lower"),
    ("instrument.plan_s", "s", "lower"),
    ("instrument.logged_locations.dynamic", "count", "lower"),
    ("instrument.logged_locations.dynamic_static", "count", "lower"),
    ("instrument.logged_locations.static", "count", "lower"),
    ("instrument.logged_locations.all_branches", "count", "lower"),
    ("instrument.logged_bits", "count", "lower"),
    ("vm.compile_s", "s", "lower"),
    ("vm.compile_cache_hit_ratio", "ratio", "higher"),
    ("vm.record_steps_per_s", "1/s", "higher"),
    ("vm.replay_steps_per_s", "1/s", "higher"),
    ("trace.encode_s", "s", "lower"),
    ("trace.decode_s", "s", "lower"),
    ("trace.bytes", "bytes", "lower"),
    ("replay.search_s", "s", "lower"),
    ("replay.runs", "count", "lower"),
    ("replay.run_s", "s", "lower"),
    ("replay.other_s", "s", "lower"),
    ("replay.abort_ratio", "ratio", "lower"),
    ("replay.pending_dropped", "count", "lower"),
    ("replay.solver_share.userver", "ratio", "lower"),
    ("replay.solver_share.diff_big", "ratio", "lower"),
    ("service.journal_write_s", "s", "lower"),
    ("service.ingest_s", "s", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.state_bytes", "bytes", "lower"),
    ("service.retries", "count", "lower"),
    ("service.process_s", "s", "lower"),
    ("service.commit_s", "s", "lower"),
    ("service.dedup_ratio", "ratio", "higher"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS] + [
    ("untraced_s", "s", "lower"),
    ("op_wall_s", "s", "lower"),
    ("tracing.overhead_pct", "%", "lower"),
]


class SpanLog:
    """In-memory spans of one process."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, bug id, attrs]`` per span.
        self.spans: List[list] = []
        self.bug = ""
        #: While set, wrapped functions run without a span (the benchmark's
        #: own output checks, which are not part of the measured work).
        self.paused = False
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             describe: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """*fn* under a span; ``describe(args, result, before())`` gives its
        attributes once *fn* returns something other than None."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.bug, None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            pre = before() if before is not None else None
            result = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if describe is not None and result is not None:
                    span[5] = describe(args, result, pre)

        return traced

    @contextlib.contextmanager
    def pausing(self):
        """Run the block with spans off."""

        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load_spans(path: str) -> List[list]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def install(log: SpanLog) -> Callable[[], None]:
    """Wrap every layer's entry points; returns a function undoing it."""

    import repro.analysis.dataflow as dataflow
    import repro.concolic.engine as concolic_engine
    import repro.core.pipeline as core_pipeline
    import repro.lang.program as lang_program
    import repro.replay.engine as replay_engine
    import repro.service.inbox as service_inbox
    import repro.service.net as service_net
    import repro.service.service as service_service
    import repro.trace as trace_format
    import repro.vm.compiler as vm_compiler
    import repro.vm.machine as vm_machine

    patched: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def executors(name: str, factory: Callable) -> Callable:
        @functools.wraps(factory)
        def create_backend(*args, **kwargs):
            executor = factory(*args, **kwargs)
            executor.run = log.wrap(
                name, executor.run,
                lambda _a, result, _p: {"steps": result.steps})
            return executor
        return create_backend

    def solved(_args, result, _pre):
        return {"sat": bool(result.satisfiable), "nodes": result.stats.nodes,
                "exhausted": bool(result.stats.budget_exhausted)}

    def cache_hits() -> int:
        return vm_compiler.cache_stats()["hits"]

    program_cls = lang_program.Program
    patch(program_cls, "from_source", classmethod(log.wrap(
        "lang.parse", program_cls.__dict__["from_source"].__func__,
        lambda _a, result, _p: {"locations": len(result.branch_locations)})))
    engine_cls = concolic_engine.ConcolicEngine
    patch(engine_cls, "explore", log.wrap(
        "concolic.explore", engine_cls.explore,
        lambda args, r, _p: {"iterations": r.iterations, "paths": r.explored_paths,
                         "coverage": r.coverage,
                         "capped": r.wall_seconds >= args[0].budget.max_seconds}))
    for module, mode in ((concolic_engine, "analyze"), (replay_engine, "replay"),
                         (core_pipeline, "record")):
        patch(module, "create_backend",
              executors(f"vm.run.{mode}", module.create_backend))
    patch(concolic_engine, "solve", log.wrap(
        "symbolic.solve.concolic", concolic_engine.solve, solved))
    patch(replay_engine, "solve", log.wrap(
        "symbolic.solve.replay", replay_engine.solve, solved))
    patch(replay_engine, "warm_start_assignment", log.wrap(
        "symbolic.warm_start", replay_engine.warm_start_assignment,
        lambda _a, _r, _p: {"hit": True}))
    analyzer_cls = dataflow.StaticAnalyzer
    patch(analyzer_cls, "run", log.wrap(
        "analysis.static", analyzer_cls.run,
        lambda _a, r, _p: {"symbolic": len(r.symbolic_branches)}))
    patch(core_pipeline, "build_plan", log.wrap(
        "instrument.plan", core_pipeline.build_plan,
        lambda _a, r, _p: {"method": r.method, "logged": r.instrumented_count()}))
    pipeline_cls = core_pipeline.Pipeline
    patch(pipeline_cls, "record", log.wrap(
        "instrument.record", pipeline_cls.record,
        lambda _a, r, _p: {"bits": len(r.bitvector)}))
    patch(vm_machine, "compile_program", log.wrap(
        "vm.compile", vm_machine.compile_program,
        lambda _a, _r, hits: {"hit": cache_hits() > hits}, cache_hits))
    patch(trace_format, "dump_trace_bytes", log.wrap(
        "trace.encode", trace_format.dump_trace_bytes,
        lambda _a, r, _p: {"bytes": len(r)}))
    for module in (trace_format, service_net, service_inbox):
        patch(module, "load_trace_bytes", log.wrap(
            "trace.decode", module.load_trace_bytes))
    engine_cls = replay_engine.ReplayEngine
    patch(engine_cls, "reproduce", log.wrap(
        "replay.search", engine_cls.reproduce,
        lambda _a, r, _p: {"runs": r.runs, "timed_out": bool(r.timed_out),
                       "aborted": sum(1 for record in r.run_records
                                      if record.outcome == "aborted"),
                       "dropped": r.pending_stats.get("dropped", 0)}))
    patch(service_net, "journaled_spool_write", log.wrap(
        "service.journal_write", service_net.journaled_spool_write))
    service_cls = service_service.ReproService
    patch(service_cls, "ingest_spooled", log.wrap(
        "service.ingest", service_cls.ingest_spooled,
        lambda args, _r, _p: {"state_bytes": _state_bytes(args[0])}))
    patch(service_cls, "process", log.wrap(
        "service.process", service_cls.process))
    inbox_cls = service_inbox.TraceInbox
    patch(inbox_cls, "mark_done", log.wrap(
        "service.commit", inbox_cls.mark_done))

    def restore() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return restore


def _state_bytes(service) -> int:
    try:
        return os.path.getsize(os.path.join(service.inbox.root, "inbox.json"))
    except OSError:
        return 0


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------


def _union(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _covered(spans: List[Tuple[float, float]],
             windows: List[Tuple[float, float]]) -> float:
    """Summed over *windows*, the length of ``union(spans)`` inside each."""

    merged = _union(spans)
    starts = [start for start, _end in merged]
    total = 0.0
    for w_start, w_end in windows:
        index = max(0, bisect.bisect_right(starts, w_start) - 1)
        while index < len(merged) and merged[index][0] < w_end:
            low = max(w_start, merged[index][0])
            high = min(w_end, merged[index][1])
            if high > low:
                total += high - low
            index += 1
    return total


def layer_metrics(processes: List[List[list]],
                  ops: List[Tuple[str, float, float, str]],
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value from the spans of all processes.

    *ops* are the workload's measured operations ``(kind, start, end,
    label)``; the time inside them that no layer span covers is
    ``untraced_s``.  *extra* supplies values measured outside spans
    (service retries and dedup ratio, the tracing overhead).
    """

    busy: Dict[str, float] = {}
    count: Dict[str, int] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    attrs: Dict[str, List[dict]] = {}
    intervals: List[Tuple[float, float]] = []
    for spans in processes:
        children = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                children[span[3]] += span[2] - span[1]
        for index, (name, start, end, _parent, _bug, info) in enumerate(spans):
            busy[name] = busy.get(name, 0.0) + (end - start)
            count[name] = count.get(name, 0) + 1
            self_s[name.split(".")[0]] += (end - start) - children[index]
            attrs.setdefault(name, []).append(info or {})
            intervals.append((start, end))

    def total(name: str) -> float:
        return busy.get(name, 0.0)

    def summed(name: str, key: str) -> float:
        return float(sum(a.get(key, 0) for a in attrs.get(name, [])))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def mean(name: str, key: str) -> float:
        values = [a[key] for a in attrs.get(name, []) if key in a]
        return sum(values) / len(values) if values else 0.0

    solves = attrs.get("symbolic.solve.replay", [])
    warm = attrs.get("symbolic.warm_start", [])
    compiles = attrs.get("vm.compile", [])
    plans: Dict[str, List[int]] = {}
    for info in attrs.get("instrument.plan", []):
        plans.setdefault(info.get("method", ""), []).append(info.get("logged", 0))
    windows = [(start, end) for _kind, start, end, _label in ops]
    uploads = [(start, end) for kind, start, end, _label in ops
               if kind == "upload"]
    ingest_path = [(span[1], span[2]) for spans in processes for span in spans
                   if span[0] in ("service.journal_write", "service.ingest")
                   or (span[0] == "trace.decode" and span[3] < 0)]
    values = {
        "lang.parse_s": total("lang.parse"),
        "lang.branch_locations": mean("lang.parse", "locations"),
        "concolic.explore_s": total("concolic.explore"),
        "concolic.run_s": total("vm.run.analyze"),
        "concolic.iterations": summed("concolic.explore", "iterations"),
        "concolic.new_path_ratio": ratio(summed("concolic.explore", "paths"),
                                         summed("concolic.explore", "iterations")),
        "concolic.time_capped": summed("concolic.explore", "capped"),
        "concolic.coverage": mean("concolic.explore", "coverage"),
        "symbolic.solve_s.concolic": total("symbolic.solve.concolic"),
        "symbolic.solve_calls.concolic": float(count.get("symbolic.solve.concolic", 0)),
        "symbolic.solve_s.replay": total("symbolic.solve.replay"),
        "symbolic.solve_calls.replay": float(len(solves)),
        "symbolic.solver_nodes": float(sum(a.get("nodes", 0) for a in solves)),
        "symbolic.sat_ratio": ratio(sum(1 for a in solves if a.get("sat")),
                                    len(solves)),
        "symbolic.budget_exhausted": float(sum(1 for name in ("symbolic.solve.replay",
                                                              "symbolic.solve.concolic")
                                               for a in attrs.get(name, [])
                                               if a.get("exhausted"))),
        "symbolic.warm_start_s": total("symbolic.warm_start"),
        # A warm-start span without attrs returned None: the solver ran.
        "symbolic.warm_start_hit_ratio": ratio(sum(1 for a in warm if a),
                                               len(warm)),
        "analysis.static_s": total("analysis.static"),
        "analysis.symbolic_branches": mean("analysis.static", "symbolic"),
        "instrument.plan_s": total("instrument.plan"),
        "instrument.logged_bits": mean("instrument.record", "bits"),
        "vm.compile_s": total("vm.compile"),
        "vm.compile_cache_hit_ratio": ratio(sum(1 for a in compiles if a.get("hit")),
                                            len(compiles)),
        "vm.record_steps_per_s": ratio(summed("vm.run.record", "steps"),
                                       total("vm.run.record")),
        "vm.replay_steps_per_s": ratio(summed("vm.run.replay", "steps"),
                                       total("vm.run.replay")),
        "trace.encode_s": total("trace.encode"),
        "trace.decode_s": total("trace.decode"),
        "trace.bytes": summed("trace.encode", "bytes"),
        "replay.search_s": total("replay.search"),
        "replay.runs": summed("replay.search", "runs"),
        "replay.run_s": total("vm.run.replay"),
        "replay.other_s": max(0.0, total("replay.search") - total("vm.run.replay")
                              - total("symbolic.solve.replay")
                              - total("symbolic.warm_start")),
        "replay.abort_ratio": ratio(summed("replay.search", "aborted"),
                                    summed("replay.search", "runs")),
        "replay.pending_dropped": summed("replay.search", "dropped"),
        "service.journal_write_s": total("service.journal_write"),
        "service.ingest_s": total("service.ingest"),
        "service.state_bytes": float(max((a.get("state_bytes", 0)
                                          for a in attrs.get("service.ingest", [])),
                                         default=0)),
        "service.process_s": total("service.process"),
        # Upload ack time (client side) that the journal write, the ingest
        # and the listener's own decode leave uncovered: queueing for the
        # spool writer and the server lock, framing, the loopback round trip.
        "service.queue_wait_s": sum(end - start for start, end in uploads)
        - _covered(ingest_path, uploads),
        "service.commit_s": total("service.commit"),
    }
    for method, key in (("dynamic", "dynamic"), ("dynamic+static", "dynamic_static"),
                        ("static", "static"), ("all branches", "all_branches")):
        logged = plans.get(method, [])
        values[f"instrument.logged_locations.{key}"] = (
            sum(logged) / len(logged) if logged else 0.0)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer]
    op_wall = sum(end - start for start, end in _union(windows))
    values["op_wall_s"] = op_wall
    values["untraced_s"] = op_wall - _covered(intervals, _union(windows))
    values.update(extra)
    return values


def solver_share(server: List[list], ops: List[Tuple[str, float, float, str]],
                 label: str) -> float:
    """Solver plus warm-start share of search time for bugs of *label*."""

    windows = [(start, end) for _kind, start, end, bug in ops if bug == label]
    search = solve = 0.0
    for name, start, end, _parent, _bug, _info in server:
        if not any(w_start <= start and end <= w_end for w_start, w_end in windows):
            continue
        if name == "replay.search":
            search += end - start
        elif name in ("symbolic.solve.replay", "symbolic.warm_start"):
            solve += end - start
    return solve / search if search else 0.0


def traced_run(module, workload: str, seed: int, seconds: float,
               plain: Dict[str, object]) -> Dict[str, object]:
    """Run *workload* again with tracing on; per-layer metrics and lines."""

    from perfbench.common import OUT_DIR

    os.makedirs(OUT_DIR, exist_ok=True)
    server_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-serve.jsonl")
    if os.path.exists(server_path):
        os.remove(server_path)
    log = SpanLog()
    restore = install(log)
    try:
        traced = module.run(seed, seconds, spans_path=server_path, log=log)
    finally:
        restore()
    log.dump(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}-bench.jsonl"))
    server = load_spans(server_path) if os.path.exists(server_path) else []
    ops = traced["ops"]
    base = plain["metrics"]["op_gmean"]
    overhead = 100.0 * (traced["metrics"]["op_gmean"] / base - 1.0) if base else 0.0
    extra = {
        "service.retries": float(traced["counters"].get("client_retries", 0)),
        "service.dedup_ratio": float(traced["counters"].get("dedup_ratio") or 0.0),
        "tracing.overhead_pct": overhead,
        "replay.solver_share.userver": solver_share(server, ops, "userver"),
        "replay.solver_share.diff_big": solver_share(server, ops, "diff-big"),
    }
    values = layer_metrics([log.spans, server], ops, extra)
    lines = [f"traced: {len(log.spans)} benchmark spans, {len(server)} serve spans; "
             f"overhead {overhead:+.1f}% on op_gmean "
             f"({base:.3f} ms untraced -> {traced['metrics']['op_gmean']:.3f} ms)"]
    width = max(len(name) for name, _unit, _better in PER_LAYER)
    for name, unit, _better in PER_LAYER:
        lines.append(f"{name:{width}s} {values[name]:16.6f} {unit}")
    return {"metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, _better in PER_LAYER},
            "lines": lines, "traced": traced}
