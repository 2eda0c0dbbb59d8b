"""Tests for instrumentation methods, the branch logger and the overhead model."""

import pytest

from repro.analysis.dataflow import StaticAnalysisResult
from repro.concolic.labels import BranchLabels
from repro.instrument.logger import (
    LOG_BUFFER_BYTES,
    BitvectorLog,
    BranchLogger,
    SyscallResultLog,
)
from repro.instrument.methods import InstrumentationMethod, build_plan, select_branches
from repro.instrument.overhead import OverheadModel, OverheadReport
from repro.instrument.plan import InstrumentationPlan
from repro.interp.tracer import BranchEvent
from repro.lang.cfg import BranchLocation
from repro.osmodel.syscalls import SyscallEvent, SyscallKind


def loc(number, fn="main"):
    return BranchLocation(function=fn, node_id=number, line=number, kind="if")


ALL = {loc(i) for i in range(1, 11)}


def make_labels(symbolic, concrete):
    labels = BranchLabels.for_program(ALL)
    for location in symbolic:
        labels.observe(location, symbolic=True)
    for location in concrete:
        labels.observe(location, symbolic=False)
    return labels


def make_static(symbolic):
    return StaticAnalysisResult(symbolic_branches=set(symbolic),
                                concrete_branches=ALL - set(symbolic))


class TestMethodSelection:
    # Dynamic saw 1,2 symbolic and 3,4 concrete; 5..10 unvisited.
    labels = make_labels({loc(1), loc(2)}, {loc(3), loc(4)})
    # Static over-approximates: everything the dynamic saw as symbolic, plus
    # branch 3 (incorrectly) and branches 5,6 among the unvisited ones.
    static = make_static({loc(1), loc(2), loc(3), loc(5), loc(6)})

    def test_all_branches(self):
        assert select_branches(InstrumentationMethod.ALL_BRANCHES, ALL) == ALL

    def test_none(self):
        assert select_branches(InstrumentationMethod.NONE, ALL) == set()

    def test_dynamic_only_symbolic_labels(self):
        selected = select_branches(InstrumentationMethod.DYNAMIC, ALL, self.labels)
        assert selected == {loc(1), loc(2)}

    def test_static_selects_its_symbolic_set(self):
        selected = select_branches(InstrumentationMethod.STATIC, ALL,
                                   static_result=self.static)
        assert selected == {loc(1), loc(2), loc(3), loc(5), loc(6)}

    def test_dynamic_plus_static_override_rule(self):
        selected = select_branches(InstrumentationMethod.DYNAMIC_PLUS_STATIC, ALL,
                                   self.labels, self.static)
        # 1,2 from dynamic; 3 excluded because dynamic saw it concrete;
        # 5,6 from static because dynamic never visited them.
        assert selected == {loc(1), loc(2), loc(5), loc(6)}

    def test_missing_analysis_raises(self):
        with pytest.raises(ValueError):
            select_branches(InstrumentationMethod.DYNAMIC, ALL)
        with pytest.raises(ValueError):
            select_branches(InstrumentationMethod.STATIC, ALL)

    def test_build_plan_metadata(self):
        plan = build_plan(InstrumentationMethod.DYNAMIC_PLUS_STATIC, ALL,
                          self.labels, self.static)
        assert plan.method == "dynamic+static"
        assert plan.instrumented_count() == 4
        assert "dynamic_labels" in plan.analysis_metadata
        assert 0 < plan.fraction_instrumented() < 1

    def test_ordering_of_overhead_across_methods(self):
        sizes = {method: len(select_branches(method, ALL, self.labels, self.static))
                 for method in InstrumentationMethod.paper_methods()}
        assert (sizes[InstrumentationMethod.DYNAMIC]
                <= sizes[InstrumentationMethod.DYNAMIC_PLUS_STATIC]
                <= sizes[InstrumentationMethod.STATIC]
                <= sizes[InstrumentationMethod.ALL_BRANCHES])


class TestPlan:
    def test_without_syscall_logging_copy(self):
        plan = InstrumentationPlan.from_sets("static", {loc(1)}, ALL)
        no_sys = plan.without_syscall_logging()
        assert plan.log_syscalls and not no_sys.log_syscalls
        assert no_sys.instrumented == plan.instrumented

    def test_instrumented_in_function_filter(self):
        plan = InstrumentationPlan.from_sets("x", {loc(1), loc(2, "lib")}, ALL)
        assert plan.instrumented_in(["lib"]) == {loc(2, "lib")}


class TestBitvectorLog:
    def test_append_and_roundtrip(self):
        log = BitvectorLog()
        bits = [True, False, True, True, False, False, True, False, True]
        for bit in bits:
            log.append(bit)
        assert list(log) == bits
        assert log.storage_bytes() == 2
        packed = log.to_bytes()
        assert len(packed) == 2
        rebuilt = BitvectorLog.from_bits(bits)
        assert rebuilt.to_bytes() == packed

    def test_flush_accounting(self):
        log = BitvectorLog()
        for _ in range(LOG_BUFFER_BYTES * 8 * 2):
            log.append(True)
        assert log.flushes == 2


class TestSyscallLog:
    def test_only_selected_kinds_recorded(self):
        log = SyscallResultLog()
        log.record(SyscallEvent(kind=SyscallKind.READ, result=42))
        log.record(SyscallEvent(kind=SyscallKind.WRITE, result=10))
        log.record(SyscallEvent(kind=SyscallKind.SELECT, result=5))
        assert log.of_kind(SyscallKind.READ) == [42]
        assert log.of_kind(SyscallKind.WRITE) == []
        assert log.count() == 2
        assert log.storage_bytes() == 8

    def test_cursor_consumes_in_order(self):
        log = SyscallResultLog()
        for value in (3, 7, 9):
            log.record(SyscallEvent(kind=SyscallKind.RECV, result=value))
        cursor = log.cursor()
        assert [cursor.next_result(SyscallKind.RECV) for _ in range(4)] == [3, 7, 9, None]
        assert cursor.remaining(SyscallKind.RECV) == 0


class TestBranchLogger:
    def make_event(self, location, taken):
        return BranchEvent(location=location, taken=taken, symbolic=False, condition=None)

    def test_only_instrumented_branches_logged(self):
        plan = InstrumentationPlan.from_sets("test", {loc(1)}, ALL)
        logger = BranchLogger(plan)
        logger.on_branch(self.make_event(loc(1), True))
        logger.on_branch(self.make_event(loc(2), False))
        logger.on_branch(self.make_event(loc(1), False))
        assert logger.total_branch_executions == 3
        assert logger.instrumented_executions == 2
        assert list(logger.bitvector) == [True, False]

    def test_syscall_logging_respects_plan(self):
        plan = InstrumentationPlan.from_sets("test", set(), ALL, log_syscalls=False)
        logger = BranchLogger(plan)
        logger.on_syscall(SyscallEvent(kind=SyscallKind.READ, result=4))
        assert logger.syscall_log.count() == 0
        assert logger.storage_bytes() == 0


class TestOverheadModel:
    def test_no_instrumentation_means_no_overhead(self):
        report = OverheadModel().report("none", base_units=1000,
                                        instrumented_branch_executions=0)
        assert report.cpu_time_percent == pytest.approx(100.0)
        assert report.overhead_percent == pytest.approx(0.0)

    def test_tight_loop_overhead_matches_paper_magnitude(self):
        # ~13 base units per iteration against 17 charged per logged branch
        # puts the all-branches overhead in the paper's 100%+ ballpark.
        iterations = 1000
        report = OverheadModel().report("all branches", base_units=13 * iterations,
                                        instrumented_branch_executions=iterations)
        assert 80.0 <= report.overhead_percent <= 160.0

    def test_overhead_monotone_in_logged_branches(self):
        model = OverheadModel()
        low = model.report("dynamic", 10_000, 100)
        high = model.report("static", 10_000, 1_000)
        assert high.cpu_time_percent > low.cpu_time_percent

    def test_syscall_logging_cost_is_marginal(self):
        model = OverheadModel()
        without = model.report("dynamic", 100_000, 2_000, logged_syscall_results=0)
        with_sys = model.report("dynamic", 100_000, 2_000, logged_syscall_results=20)
        delta = with_sys.cpu_time_percent - without.cpu_time_percent
        assert 0 < delta < 2.0

    def test_nanosecond_estimate(self):
        report = OverheadModel().report("static", 100, 10)
        assert report.estimated_instrumentation_nanoseconds == pytest.approx(30.0)

    def test_describe_round_trips_key_fields(self):
        report = OverheadModel().report("static", 100, 10, storage_bytes=5)
        info = report.describe()
        assert info["method"] == "static"
        assert info["storage_bytes"] == 5
