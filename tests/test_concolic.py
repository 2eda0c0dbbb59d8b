"""Tests for the dynamic (concolic) analysis engine and branch labels."""

import pytest

from repro.concolic.budget import ConcolicBudget
from repro.concolic.engine import ConcolicEngine
from repro.concolic.labels import BranchLabel, BranchLabels
from repro.environment import simple_environment
from repro.interp.backend import engine_for
from repro.lang.cfg import BranchLocation
from repro.lang.program import Program
from repro.workloads import (all_cases, fibonacci, library_functions_for,
                             microbench, workload_registry)


def location(line, node_id=0, fn="main", kind="if"):
    return BranchLocation(function=fn, node_id=node_id or line, line=line, kind=kind)


class TestBranchLabels:
    def test_initial_state_is_unvisited(self):
        labels = BranchLabels.for_program([location(1), location(2)])
        assert labels.label_of(location(1)) is BranchLabel.UNVISITED
        assert labels.coverage() == 0.0

    def test_observe_concrete_then_symbolic_upgrades(self):
        labels = BranchLabels.for_program([location(1)])
        labels.observe(location(1), symbolic=False)
        assert labels.label_of(location(1)) is BranchLabel.CONCRETE
        labels.observe(location(1), symbolic=True)
        assert labels.label_of(location(1)) is BranchLabel.SYMBOLIC

    def test_symbolic_label_is_sticky(self):
        labels = BranchLabels.for_program([location(1)])
        labels.observe(location(1), symbolic=True)
        labels.observe(location(1), symbolic=False)
        assert labels.label_of(location(1)) is BranchLabel.SYMBOLIC

    def test_coverage_counts_visited_fraction(self):
        labels = BranchLabels.for_program([location(i) for i in range(1, 5)])
        labels.observe(location(1), symbolic=True)
        labels.observe(location(2), symbolic=False)
        assert labels.coverage() == pytest.approx(0.5)

    def test_merge_applies_same_rules(self):
        a = BranchLabels.for_program([location(1), location(2)])
        a.observe(location(1), symbolic=False)
        b = BranchLabels.for_program([location(1), location(2)])
        b.observe(location(1), symbolic=True)
        b.observe(location(2), symbolic=False)
        a.merge(b)
        assert a.label_of(location(1)) is BranchLabel.SYMBOLIC
        assert a.label_of(location(2)) is BranchLabel.CONCRETE

    def test_counts_and_summary(self):
        labels = BranchLabels.for_program([location(i) for i in range(1, 4)])
        labels.observe(location(1), symbolic=True)
        counts = labels.counts()
        assert counts == {"symbolic": 1, "concrete": 0, "unvisited": 2, "total": 3}
        assert "1 symbolic" in labels.summary()


class TestConcolicEngine:
    BRANCHY = r"""
    int classify(char c) {
        if (c == 'a') { return 1; }
        if (c == 'b') { return 2; }
        if (c < 'a') { return 3; }
        return 0;
    }
    int main(int argc, char **argv) {
        int fixed = 0;
        if (argc > 99) { fixed = 1; }
        return classify(argv[1][0]);
    }
    """

    def make_engine(self, budget=None):
        program = Program.from_source(self.BRANCHY, name="branchy")
        env = simple_environment(["branchy", "z"], name="branchy-env")
        return ConcolicEngine(program, env, budget or ConcolicBudget(max_iterations=20,
                                                                     max_seconds=5))

    def test_profile_run_labels_symbolic_branches(self):
        engine = self.make_engine()
        recorder = engine.profile_run()
        symbolic_lines = {loc.line for loc in recorder.symbolic_locations()}
        assert 3 in symbolic_lines or 4 in symbolic_lines

    def test_exploration_reaches_full_coverage(self):
        engine = self.make_engine()
        result = engine.explore()
        assert result.coverage == pytest.approx(1.0)
        # The three input-dependent checks in classify are symbolic; the argc
        # check in main depends on input too (argc is derived from argv).
        assert len(result.labels.symbolic) >= 3

    def test_exploration_distinguishes_concrete_branches(self):
        program = Program.from_source(
            "int main(int argc, char **argv) {"
            " int i; int t = 0;"
            " for (i = 0; i < 3; i = i + 1) { t = t + i; }"
            " if (argv[1][0] == 'q') { t = 0; }"
            " return t; }",
            name="mix")
        env = simple_environment(["mix", "q"], name="mix-env")
        result = ConcolicEngine(program, env, ConcolicBudget(max_iterations=8,
                                                             max_seconds=5)).explore()
        kinds = {loc.kind: result.labels.label_of(loc) for loc in program.branch_locations}
        assert kinds["for"] is BranchLabel.CONCRETE
        assert kinds["if"] is BranchLabel.SYMBOLIC

    def test_budget_limits_iterations(self):
        engine = self.make_engine(ConcolicBudget(max_iterations=1, max_seconds=5))
        result = engine.explore()
        assert result.iterations == 1

    def test_larger_budget_never_reduces_coverage(self):
        small = self.make_engine(ConcolicBudget(max_iterations=1, max_seconds=5)).explore()
        large = self.make_engine(ConcolicBudget(max_iterations=16, max_seconds=5)).explore()
        assert large.coverage >= small.coverage

    def test_runs_are_recorded(self):
        result = self.make_engine().explore()
        assert len(result.runs) == result.iterations
        assert result.runs[0].iteration == 1

    def test_listing1_has_exactly_two_symbolic_locations(self):
        program = Program.from_source(fibonacci.SOURCE, name="fib")
        env = fibonacci.scenario_b()
        result = ConcolicEngine(program, env,
                                ConcolicBudget(max_iterations=6, max_seconds=10)).explore()
        symbolic_functions = {loc.function for loc in result.labels.symbolic}
        assert symbolic_functions == {"main"}
        assert len(result.labels.symbolic) == 2

    def test_budget_presets(self):
        assert ConcolicBudget.low_coverage().max_iterations < ConcolicBudget.high_coverage().max_iterations


def _exploration(program, environment, backend, max_steps_per_run=2_000_000):
    """What one exploration learned, minus wall-clock times."""

    budget = ConcolicBudget(max_iterations=8, max_seconds=120,
                            max_steps_per_run=max_steps_per_run)
    result = ConcolicEngine(program, environment, budget,
                            backend=backend).explore()
    return {
        "symbolic": result.labels.symbolic,
        "concrete": result.labels.concrete,
        "unvisited": result.labels.unvisited,
        # A step-capped VM run may overshoot the budget by one lumped
        # instruction charge (see test_vm_parity), so its steps are left out.
        "runs": [(run.overrides, run.constraints, run.new_locations,
                  None if run.result.step_limit_hit else run.result.steps,
                  run.result.branch_executions,
                  run.result.symbolic_branch_executions,
                  run.result.step_limit_hit, run.result.exit_code)
                 for run in result.runs],
        "counters": (result.iterations, result.explored_paths,
                     result.solver_calls, result.warm_start_hits),
    }


def _parity_cases():
    """The registry cases, each with the environment its parity check uses.

    The counting loop's registry input (a limit of 200) makes exploration
    solver-bound, at 0.1 to 35 s depending on the hash seed (the solver's
    tie-break follows it), so its check explores a limit of 9 instead.
    """

    for name, source, environment in all_cases():
        if name == "microbench":
            environment = microbench.scenario(9)
        yield pytest.param(name, source, environment, id=name)


class TestAnalyzeModeParity:
    """The VM's analyze mode (concrete branches marked inline) learns what
    the interpreter, reporting every branch event, learns."""

    @pytest.mark.parametrize("name,source,environment", _parity_cases())
    def test_exploration_matches_the_interpreter(self, name, source,
                                                 environment):
        program = Program.from_source(
            source, name=name, library_functions=library_functions_for(source))
        assert engine_for(program, "vm") == "vm"
        vm = _exploration(program, environment, "vm")
        assert vm == _exploration(program, environment, "interp")
        assert vm["concrete"] or vm["symbolic"]

    def test_step_capped_runs_keep_their_marks(self):
        # Every run stops on the step budget inside the server's event
        # loop; the branches it executed before that are still labelled.
        source, environment, library = workload_registry()["userver-exp1"]
        program = Program.from_source(source, name="userver",
                                      library_functions=library)
        vm = _exploration(program, environment, "vm", max_steps_per_run=3000)
        assert all(run[6] for run in vm["runs"])
        assert vm["concrete"] and vm["symbolic"]
        assert vm == _exploration(program, environment, "interp",
                                  max_steps_per_run=3000)
