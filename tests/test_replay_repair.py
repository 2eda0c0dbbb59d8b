"""Repair in place: a replay run continued at a logged symbolic mismatch.

A serial search on the VM does not restart the run that took a logged
symbolic branch the wrong way: it moves the run's live state onto the input
of the forced alternative and keeps going.  That is only sound if the
repaired run is the alternative's run from ``main``, so the tests here check

* at **every** repair, the repaired live state against a from-``main`` run of
  the same input stopped at the same branch: operand stacks, frames,
  globals, string literals, the reachable heap, the binder, the counters,
  the hooks' bookkeeping, the guard log and the kernel (stdout excepted);
* one small program per guard family and per output sink, where the
  flipped input changes the guarded decision: the search must restart there
  and still explore the interpreter's tree;
* the search against the (always restarting) interpreter at every run cap;
* the safety net: a wrong repair of a reproducing run raises
  :class:`~repro.replay.engine.ReplayRepairError`;
* the invariant repair relies on, over all 256 byte values: every builtin
  that returns a symbolic value has ``evaluate(symbolic) == concrete``.
"""

from __future__ import annotations

import enum

import pytest

from repro import InstrumentationMethod, Pipeline, PipelineConfig, ReplayBudget
from repro.environment import simple_environment
from repro.instrument.methods import build_plan
from repro.interp.backend import engine_for
from repro.interp.builtins import lookup_builtin
from repro.interp.values import ArrayObject, ConcolicValue, Pointer
from repro.replay import engine as replay_engine
from repro.replay.engine import ReplayEngine, ReplayRepairError
from repro.replay.hooks import ReplayRunHooks
from repro.symbolic.expr import sym_var
from repro.symbolic.simplify import evaluate
from repro.vm import machine
from repro.workloads import diffutil, userver
from repro.workloads.coreutils import ALL_PROGRAMS


def _recorded(source, environment, library=(), log_syscalls=True, plan=None):
    pipeline = Pipeline.from_source(
        source, name=environment.name,
        config=PipelineConfig(library_functions=set(library)))
    if plan is None:
        plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                                  environment=environment,
                                  log_syscalls=log_syscalls)
    else:
        plan = plan(pipeline)
    return pipeline, pipeline.record(plan, environment)


def _engine(pipeline, recording, backend="vm", max_runs=2000):
    plan = recording.plan
    return ReplayEngine(
        program=pipeline.program, plan=plan, bitvector=recording.bitvector,
        syscall_log=recording.syscall_log if plan.log_syscalls else None,
        crash_site=recording.crash_site,
        environment=recording.environment.scaffold(),
        budget=ReplayBudget(max_runs=max_runs, max_seconds=600),
        backend=backend)


def fingerprint(outcome) -> tuple:
    """The committed search: identical for repair and restart."""

    return (outcome.reproduced, outcome.runs, outcome.solver_calls,
            outcome.warm_start_hits, outcome.solver_nodes,
            tuple((r.outcome, r.consumed_bits, r.constraints, r.deviation)
                  for r in outcome.run_records),
            tuple(sorted(outcome.pending_stats.items())),
            tuple(sorted(outcome.found_input.items())),
            None if outcome.crash_site is None
            else (outcome.crash_site.function, outcome.crash_site.line))


# ---------------------------------------------------------------------------
# The state walk
# ---------------------------------------------------------------------------


def _plain(obj, depth=0):
    """A comparable rendering of kernel state (object identity dropped)."""

    if depth > 12 or isinstance(obj, (int, float, str, bool, type(None),
                                      bytes)):
        return obj
    if isinstance(obj, bytearray):
        return bytes(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return sorted((repr(k), _plain(v, depth + 1)) for k, v in obj.items())
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(v) for v in obj)
    if isinstance(obj, (list, tuple)):
        return [_plain(v, depth + 1) for v in obj]
    if callable(obj):
        return "<callable>"
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__,
                sorted((name, _plain(value, depth + 1))
                       for name, value in vars(obj).items()
                       if name != "stdout"))
    return repr(obj)


def live_state(vm, hooks: ReplayRunHooks, stack: list, call_stack: list):
    """Everything the rest of a run can observe, block identity renumbered."""

    order = {}
    blocks = []

    def value(v):
        if v is None or v is machine._MISSING:
            return repr(v is None)
        if isinstance(v, ConcolicValue):
            return (v.concrete,
                    None if v.symbolic is None else str(v.symbolic))
        assert isinstance(v, Pointer), v
        if id(v.block) not in order:
            order[id(v.block)] = len(blocks)
            blocks.append(v.block)
        return ("ptr", order[id(v.block)], v.offset)

    state = {
        "stacks": [[value(v) for v in stack]]
        + [[value(v) for v in parked[3]] for parked in call_stack],
        "pcs": [parked[2] for parked in call_stack],
        "frames": [(frame.function_name, [value(v) for v in frame.slots])
                   for frame in vm._frames],
        "globals": [(name, value(v)) for name, v in sorted(vm.globals.items())],
        "strings": [(key, value(Pointer(block, 0)))
                    for key, block in sorted(vm._string_cache.items())],
    }
    heap = []
    while len(heap) < len(blocks):
        block: ArrayObject = blocks[len(heap)]
        heap.append((block.label, [value(v) for v in block.cells]))
    binder = vm.binder
    state.update(
        heap=heap,
        binder=(list(binder.concrete_values.items()),
                sorted(binder.overrides.items()), list(binder.variables),
                sorted(binder._counters.items())),
        counters=(vm.steps, vm.branch_counter, vm.symbolic_branch_counter),
        hooks=(hooks.cursor, hooks.run_constraints.signature(),
               [(c.signature(), reason) for c, reason in hooks.alternatives],
               hooks.deviation,
               sorted((repr(k), n) for k, n in hooks.symbolic_logged.items()),
               sorted((repr(k), n)
                      for k, n in hooks.symbolic_not_logged.items())),
        guards=[(kind, str(expr), observed)
                for kind, expr, observed in vm.guards],
        kernel=_plain(vm.kernel),
    )
    return state


class _Stop(Exception):
    def __init__(self, state):
        super().__init__("stopped at the repaired branch")
        self.state = state


def search_checking_repairs(monkeypatch, pipeline, recording, max_runs=2000):
    """Search with repair, then replay every repair's input from ``main``.

    Each repair snapshots the live state right after the repaired branch;
    the from-``main`` run of the same input must reach that branch (same
    branch index) in exactly that state.
    """

    captures = []
    stop = {"index": None, "vm": None}

    class Probe(ReplayRunHooks):
        def vm_logged_symbolic(self, location, taken, expr, index, stack,
                               call_stack):
            direction = super().vm_logged_symbolic(location, taken, expr,
                                                   index, stack, call_stack)
            if stop["index"] is not None:
                if index == stop["index"]:
                    raise _Stop(live_state(stop["vm"], self, stack,
                                           call_stack))
            elif direction != taken:  # continued in place
                vm = self.continuation.__self__.vm
                captures.append((index, dict(vm.binder.overrides),
                                 live_state(vm, self, stack, call_stack)))
            return direction

    factory = replay_engine.create_backend

    def tracked(*args, **kwargs):
        stop["vm"] = factory(*args, **kwargs)
        # From-main runs log guards too, so the two logs can be compared.
        stop["vm"].guards = []
        return stop["vm"]

    monkeypatch.setattr(replay_engine, "ReplayRunHooks", Probe)
    monkeypatch.setattr(replay_engine, "create_backend", tracked)
    engine = _engine(pipeline, recording, max_runs=max_runs)
    outcome = engine.reproduce()
    assert len(captures) == outcome.repairs
    for index, overrides, repaired in captures:
        stop["index"] = index
        with pytest.raises(_Stop) as stopped:
            engine._run_once(overrides)
        restarted = stopped.value.state
        for key in repaired:
            assert restarted[key] == repaired[key], (
                f"repair at branch {index} differs from main in {key}")
    return outcome


def restarted_on_the_vm(monkeypatch, pipeline, recording, max_runs=2000):
    """The same search with every mismatch ending its run (no repair)."""

    monkeypatch.setattr(replay_engine._Chain, "resume",
                        lambda self, event, live: False)
    outcome = _engine(pipeline, recording, max_runs=max_runs).reproduce()
    monkeypatch.undo()
    return outcome


SCENARIOS = {
    **{f"userver-exp{n}{suffix}": (userver.SOURCE, lambda n=n: userver.experiment(n),
                                   userver.LIBRARY_FUNCTIONS, logs)
       for n in range(1, 6)
       for suffix, logs in (("", True), ("-nolog", False))},
    "diff-exp1": (diffutil.SOURCE, diffutil.experiment_1, (), True),
    "diff-big6": (diffutil.SOURCE, lambda: diffutil.experiment_big(6), (),
                  True),
    **{f"{name}-bug": (ALL_PROGRAMS[name].SOURCE,
                       ALL_PROGRAMS[name].bug_scenario, (), True)
       for name in ("paste", "mkdir", "mknod", "mkfifo")},
    "paste-big": (ALL_PROGRAMS["paste"].SOURCE,
                  ALL_PROGRAMS["paste"].big_bug_scenario, (), True),
}


class TestRepairExactness:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_repair_matches_main(self, monkeypatch, name):
        source, environment, library, logs = SCENARIOS[name]
        pipeline, recording = _recorded(source, environment(), library,
                                        log_syscalls=logs)
        outcome = search_checking_repairs(monkeypatch, pipeline, recording)
        monkeypatch.undo()
        restarted = restarted_on_the_vm(monkeypatch, pipeline, recording)
        assert fingerprint(outcome) == fingerprint(restarted)
        assert outcome.compile_cache_lookups == outcome.runs
        assert restarted.repairs == 0
        assert outcome.reproduced and outcome.stop_reason == "reproduced"
        if name in ("mknod-bug", "mkfifo-bug"):
            # Every continuation there is blocked by a short-circuit guard.
            assert outcome.repairs == 0 and outcome.repair_blocked
            assert outcome.vm_steps == restarted.vm_steps
        else:
            assert outcome.repairs > 0
            assert outcome.vm_steps < restarted.vm_steps

    def test_partial_plan_fat_pending(self, monkeypatch):
        """Unlogged alternatives pile up on the pending list around the
        chain (DFS still pops each forced alternative first); capped at 40
        runs."""

        def partial(pipeline):
            locations = sorted(pipeline.program.branch_locations)
            return build_plan(InstrumentationMethod.ALL_BRANCHES,
                              pipeline.program.branch_locations).from_sets(
                                  "partial", locations[::2], locations)

        pipeline, recording = _recorded(userver.SOURCE, userver.experiment(1),
                                        userver.LIBRARY_FUNCTIONS,
                                        plan=partial)
        outcome = search_checking_repairs(monkeypatch, pipeline, recording,
                                          max_runs=40)
        monkeypatch.undo()
        restarted = restarted_on_the_vm(monkeypatch, pipeline, recording,
                                        max_runs=40)
        assert fingerprint(outcome) == fingerprint(restarted)
        assert outcome.repairs > 0
        assert outcome.stop_reason == restarted.stop_reason
        assert outcome.pending_stats["pending"] > 0


#: Programs whose repairs must move input-derived values held where the
#: workloads hold none: ``(source, stdin, repairs)``.
LIVE_STATE_PROGRAMS = {
    # A caller's operand stack (``a`` waits there for ``probe``) and a
    # global.
    "parked-and-global": (r"""
int LAST;
int probe(int c) {
    if (c == 'x') { return 1; }
    return 0;
}
int main() {
    int a = getchar();
    LAST = a;
    int total = a + probe(a);
    if (total == 121) {
        if (LAST == 'x') { crash("parked"); }
    }
    return 0;
}
""", b"x", 1),
    # The globals code's frame, parked under a global initializer's call.
    "global-initializer": (r"""
int pick() {
    int a = getchar();
    int b = getchar();
    int sum = a + b;
    if (a == 'x') {
        if (b == 'y') { return sum; }
    }
    return 0;
}
int PICKED = pick();
int main() {
    if (PICKED == 241) { crash("picked"); }
    return 0;
}
""", b"xy", 2),
}


@pytest.mark.parametrize("name", sorted(LIVE_STATE_PROGRAMS))
def test_repair_moves_every_kind_of_live_value(monkeypatch, name):
    source, stdin, repairs = LIVE_STATE_PROGRAMS[name]
    environment = simple_environment([name], stdin=stdin, name=name)
    pipeline, recording = _recorded(source, environment, log_syscalls=False)
    outcome = search_checking_repairs(monkeypatch, pipeline, recording)
    monkeypatch.undo()
    restarted = _engine(pipeline, recording, backend="interp").reproduce()
    assert fingerprint(outcome) == fingerprint(restarted)
    assert outcome.reproduced and outcome.repairs == repairs


def test_unresolved_program_searches_on_the_interpreter():
    """``v`` is declared on one path only, so the resolver cannot slot it:
    the whole program runs on the interpreter under ``backend="vm"``, whose
    search restarts every run and commits the interpreter's tree."""

    source = r"""
int main() {
    int a = getchar();
    int b = getchar();
    if (a != 7) v = a + b;
    if (a == 'x') { b = b + 0; }
    {
        int v = 5;
        if (b == 'y') { v = 6; }
    }
    if (v == 241) { crash("unresolved"); }
    return 0;
}
"""
    environment = simple_environment(["unresolved"], stdin=b"xy",
                                     name="unresolved")
    pipeline, recording = _recorded(source, environment, log_syscalls=False)
    assert engine_for(pipeline.program, "vm") == "interp"
    outcome = _engine(pipeline, recording).reproduce()
    reference = _engine(pipeline, recording, backend="interp").reproduce()
    assert fingerprint(outcome) == fingerprint(reference)
    assert outcome.reproduced and outcome.runs > 1
    assert outcome.repairs == 0 and not outcome.repair_blocked


# ---------------------------------------------------------------------------
# One program per guard family and output sink: the flipped byte changes the
# guarded decision
# ---------------------------------------------------------------------------

_READ_AB = "    int a = getchar();\n    int b = getchar();\n"
_XY = {"stdin": b"xy"}
#: ``a - 'x'`` is NUL only for the recorded 'x', not for the first run's 'A'.
_ONE_CHAR = """
    char s[2];
    s[0] = a - 'x';
    s[1] = 0;"""
_CONNECTION = """
    int conn = accept(net_listen());
    char buf[4];
    recv(conn, buf, 2);
    int a = buf[0];"""

#: ``name -> (guard kind, body of main, environment)``.
GUARD_PROGRAMS = {
    "short-circuit": ("short-circuit", _READ_AB + """
    int t = (a == 'x') && (b == 'y');
    if (a == 'x') {
        if (t) { crash("short-circuit"); }
    }""", _XY),
    "index": ("index", _READ_AB + """
    char table[4];
    int i;
    for (i = 0; i < 4; i = i + 1) { table[i] = i; }
    int v = table[a % 4];
    if (a == 'x') {
        if (v == 0) { crash("index"); }
    }""", _XY),
    "pointer": ("pointer", _READ_AB + """
    char cells[4];
    int i;
    for (i = 0; i < 4; i = i + 1) { cells[i] = i; }
    char *p = cells + a % 4;
    int v = *p;
    if (a == 'x') {
        if (v == 0) { crash("pointer"); }
    }""", _XY),
    "array-size": ("array-size", _READ_AB + """
    int n = a % 4 + 1;
    int cells[n];
    cells[0] = n;
    if (a == 'x') {
        if (cells[0] == 1) { crash("array-size"); }
    }""", _XY),
    # At the flipped input the divisor is zero: the restarted run crashes
    # at the division instead, so this search ends without a reproduction.
    "divisor": ("divisor", _READ_AB + """
    int q = 1000 / (b - a + 55);
    if (a == 'x') { crash("divisor"); }""", {"stdin": b"xz"}),
    "count": ("count", """
    char buf[8];
    int n = read(0, buf, 4);
    if (n == 2) { crash("count"); }""", _XY),
    "fd": ("fd", _READ_AB + """
    char buf[4];
    int n = read(a % 2, buf, 1);
    if (a == 'x') { crash("fd"); }""", {"stdin": b"xyz"}),
    "newline": ("newline", """
    char line[8];
    int n = read_line(0, line, 8);
    if (line[0] == 10) { crash("newline"); }""", {"stdin": b"\nab"}),
    "libc": ("libc", _READ_AB + """
    int u = toupper(a);
    if (a == 'x') {
        if (u == 'X') { crash("libc"); }
    }""", _XY),
    "path": ("path", _READ_AB + """
    char path[4];
    path[0] = '/';
    path[1] = a;
    path[2] = 0;
    mkdir(path, 0);
    if (a == 'x') { crash("path"); }""", _XY),
    # The output sinks: what they write is output, what they return is not.
    "putchar": ("output", _READ_AB + """
    int e = putchar(a);
    if (a == 'x') {
        if (e == 'x') { crash("putchar"); }
    }""", _XY),
    "printf": ("output", _READ_AB + """
    int e = printf("%d", a);
    if (a == 'x') {
        if (e == 3) { crash("printf"); }
    }""", _XY),
    "puts": ("output", _READ_AB + _ONE_CHAR + """
    int e = puts(s);
    if (a == 'x') {
        if (e == 1) { crash("puts"); }
    }""", _XY),
    "fprintf_err": ("output", _READ_AB + _ONE_CHAR + """
    int e = fprintf_err("<%s>", s);
    if (a == 'x') {
        if (e == 2) { crash("fprintf_err"); }
    }""", _XY),
    "send": ("count", _CONNECTION + """
    int e = send(conn, buf, a % 3);
    if (a == 'x') {
        if (e == 0) { crash("send"); }
    }""", {"requests": [b"xy"]}),
    "send_str": ("output", _CONNECTION + _ONE_CHAR + """
    int e = send_str(conn, s);
    if (a == 'x') {
        if (e == 0) { crash("send_str"); }
    }""", {"requests": [b"xy"]}),
}


@pytest.mark.parametrize("name", sorted(GUARD_PROGRAMS))
def test_guard_family_restarts_like_the_interpreter(name):
    kind, body, inputs = GUARD_PROGRAMS[name]
    source = "int main() {\n" + body + "\n    return 0;\n}\n"
    environment = simple_environment([f"guard-{name}"], name=f"guard-{name}",
                                     **inputs)
    # No syscall log: getchar results are not replayed from it, and the
    # read count stays symbolic.
    pipeline, recording = _recorded(source, environment, log_syscalls=False)
    assert recording.crash_site is not None
    vm = _engine(pipeline, recording).reproduce()
    interp = _engine(pipeline, recording, backend="interp").reproduce()
    assert vm.repair_blocked.get(kind, 0) >= 1, vm.repair_blocked
    assert fingerprint(vm) == fingerprint(interp)
    assert vm.reproduced == (name != "divisor")


# ---------------------------------------------------------------------------
# Run caps, the safety net, the value invariant
# ---------------------------------------------------------------------------


def test_every_run_cap_matches_the_interpreter():
    pipeline, recording = _recorded(userver.SOURCE, userver.experiment(1),
                                    userver.LIBRARY_FUNCTIONS)
    full = _engine(pipeline, recording).reproduce()
    assert full.repairs > 0
    for cap in range(1, full.runs + 1):
        vm = _engine(pipeline, recording, max_runs=cap).reproduce()
        interp = _engine(pipeline, recording, backend="interp",
                         max_runs=cap).reproduce()
        assert fingerprint(vm) == fingerprint(interp), cap
        assert vm.stop_reason == interp.stop_reason
        assert vm.stop_reason == ("reproduced" if cap == full.runs
                                  else "run-cap")


def test_wrong_repair_raises(monkeypatch):
    """A repair that forgets to move the reported input is caught."""

    pipeline, recording = _recorded(diffutil.SOURCE, diffutil.experiment_1())
    honest = _engine(pipeline, recording).reproduce()
    assert honest.reproduced and honest.repairs == honest.runs - 1
    repair = machine.VirtualMachine.repair

    def forgetful(vm, live, overrides, condition):
        before = dict(vm.binder.concrete_values)
        blocked = repair(vm, live, overrides, condition)
        vm.binder.concrete_values.update(before)
        return blocked

    monkeypatch.setattr(machine.VirtualMachine, "repair", forgetful)
    with pytest.raises(ReplayRepairError):
        _engine(pipeline, recording).reproduce()


def test_search_counters_are_published_as_timing_metrics():
    pipeline, recording = _recorded(userver.SOURCE, userver.experiment(1),
                                    userver.LIBRARY_FUNCTIONS)
    engine = _engine(pipeline, recording)
    engine.telemetry = True
    outcome = engine.reproduce()
    counters = outcome.telemetry.counters
    assert counters["replay.vm_steps"] == outcome.vm_steps > 0
    assert counters["replay.repairs"] == outcome.repairs > 0
    assert {name.rsplit(".", 1)[1]: value for name, value in counters.items()
            if name.startswith("replay.repair_blocked.")} \
        == outcome.repair_blocked
    # Repair depends on the backend: none of it is deterministic.
    deterministic = outcome.telemetry.deterministic().counters
    assert not [name for name in deterministic
                if name.startswith(("replay.vm_steps", "replay.repair"))]


def test_interpreter_never_repairs():
    pipeline, recording = _recorded(diffutil.SOURCE, diffutil.experiment_1())
    outcome = _engine(pipeline, recording, backend="interp").reproduce()
    assert outcome.repairs == 0 and outcome.repair_blocked == {}


class _NoGuards:
    guards = None


@pytest.mark.parametrize("name", ["isdigit", "isalpha", "isspace", "toupper",
                                  "tolower", "abs", "atoi"])
def test_symbolic_builtins_evaluate_to_their_concrete_value(name):
    fn = lookup_builtin(name)
    byte = sym_var("b")
    for value in range(256):
        arg = ConcolicValue(value, byte)
        if name == "atoi":
            text = ArrayObject(3, array_id=1)
            text.cells[0] = arg
            text.cells[1] = ConcolicValue(ord("7"))
            arg = Pointer(text, 0)
        result = fn(_NoGuards(), [arg], None)
        if result.symbolic is not None:
            assert evaluate(result.symbolic, {"b": value}) \
                == result.concrete, (name, value)
