"""Tests for the persistent trace format (save/load, identity, corruption)."""

import pickle
import struct

import pytest

from repro import (
    InstrumentationMethod,
    InstrumentationPlan,
    Pipeline,
    PipelineConfig,
    ReplayBudget,
    TraceFingerprintMismatch,
    TraceFormatError,
    load_trace,
    save_trace,
    trace_from_recording,
)
from repro.replay.engine import ReplayEngine
from repro.trace import dump_trace_bytes, load_trace_bytes
from repro.workloads import diffutil, userver
from repro.workloads.coreutils import mkdir
from tests.conftest import GUARD_SOURCE

WORKLOADS = [
    ("guard", GUARD_SOURCE, None, frozenset()),
    ("diff", diffutil.SOURCE, diffutil.experiment_1(), frozenset()),
    ("userver", userver.SOURCE, userver.experiment(2),
     frozenset(userver.LIBRARY_FUNCTIONS)),
]


def record_workload(name, source, environment, library):
    from repro.environment import simple_environment

    if environment is None:
        environment = simple_environment(["guard", "crash"], name="guard-crash")
    pipeline = Pipeline.from_source(
        source, name=name, config=PipelineConfig(library_functions=set(library)))
    plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                              environment=environment)
    recording = pipeline.record(plan, environment)
    return pipeline, plan, recording


@pytest.fixture(scope="module")
def diff_recording():
    return record_workload("diff", diffutil.SOURCE, diffutil.experiment_1(),
                           frozenset())


class TestRoundTrip:
    @pytest.mark.parametrize("name,source,environment,library", WORKLOADS,
                             ids=[w[0] for w in WORKLOADS])
    def test_logs_are_bit_exact(self, name, source, environment, library):
        pipeline, plan, recording = record_workload(name, source, environment,
                                                    library)
        trace = trace_from_recording(recording, program_name=name)
        back = load_trace_bytes(dump_trace_bytes(trace), expect_plan=plan)
        assert list(back.bitvector) == list(recording.bitvector)
        assert back.bitvector.flushes == recording.bitvector.flushes
        assert back.syscall_log.to_payload() == recording.syscall_log.to_payload()
        assert back.syscall_log.logged_kinds == recording.syscall_log.logged_kinds
        assert back.plan.fingerprint() == plan.fingerprint()
        assert back.plan.method == plan.method
        assert back.plan.all_locations == plan.all_locations
        if recording.crash_site is None:
            assert back.crash_site is None
        else:
            assert back.crash_site.same_location(recording.crash_site)
            assert back.crash_site.message == recording.crash_site.message
        assert back.program_name == name
        assert back.scenario == recording.environment.name

    def test_file_round_trip(self, tmp_path, diff_recording):
        pipeline, plan, recording = diff_recording
        trace = trace_from_recording(recording, program_name="diff")
        path = str(tmp_path / "diff.trace")
        assert save_trace(path, trace) == path
        back = load_trace(path, expect_plan=plan)
        assert list(back.bitvector) == list(recording.bitvector)

    def test_scaffold_blanks_user_data(self, diff_recording):
        _, _, recording = diff_recording
        trace = trace_from_recording(recording)
        contents = {path: data for path, data, _, _ in
                    trace.environment.files}
        # Structure (paths, sizes) survives; contents do not.
        assert set(contents) == {"/old.txt", "/new.txt"}
        for path, data in contents.items():
            assert len(data) == len(diffutil.EXP1_FILES[path])
            assert data != diffutil.EXP1_FILES[path]
        # Path-naming argv entries stay verbatim (the scaffold contract).
        assert trace.environment.argv[1:] == ("/old.txt", "/new.txt")

    def test_replay_from_loaded_trace_reproduces(self, diff_recording):
        pipeline, plan, recording = diff_recording
        data = dump_trace_bytes(trace_from_recording(recording))
        trace = load_trace_bytes(data, expect_plan=plan)
        # A *fresh* pipeline over the same source stands in for the developer
        # machine's copy of the binary.
        developer = Pipeline.from_source(diffutil.SOURCE, name="diff")
        report = developer.reproduce_from_trace(
            trace, budget=ReplayBudget(max_runs=500, max_seconds=30),
            expect_plan=plan)
        assert report.outcome.reproduced
        assert report.outcome.crash_site.same_location(recording.crash_site)
        assert report.scenario == recording.environment.name


class TestBinaryIdentity:
    def test_fingerprint_mismatch_rejected(self, diff_recording):
        pipeline, plan, recording = diff_recording
        data = dump_trace_bytes(trace_from_recording(recording))
        fewer = list(plan.instrumented)[:-2]
        other = InstrumentationPlan.from_sets(plan.method, fewer,
                                              plan.all_locations)
        with pytest.raises(TraceFingerprintMismatch) as excinfo:
            load_trace_bytes(data, expect_plan=other)
        assert "matched binaries" in str(excinfo.value)

    def test_same_branch_set_different_options_accepted(self, diff_recording):
        # The fingerprint is the instrumented branch set: syscall-logging
        # options do not change binary identity.
        pipeline, plan, recording = diff_recording
        data = dump_trace_bytes(trace_from_recording(recording))
        load_trace_bytes(data, expect_plan=plan.without_syscall_logging())

    def test_engine_rejects_foreign_program(self, diff_recording):
        pipeline, plan, recording = diff_recording
        trace = load_trace_bytes(dump_trace_bytes(trace_from_recording(recording)))
        other = Pipeline.from_source(mkdir.SOURCE, name="mkdir")
        with pytest.raises(TraceFingerprintMismatch):
            ReplayEngine.from_trace(other.program, trace)

    def test_branch_ids_pure_under_concurrent_parsing(self):
        """Node ids must be a function of the source even with parallel parses.

        The fingerprint check is only sound if two parses of the same source
        agree on branch identities; the parse lock keeps the global node-id
        counter from interleaving across threads.
        """

        import threading

        from repro.lang.program import Program

        reference = Program.from_source(diffutil.SOURCE).branch_locations
        results = []
        barrier = threading.Barrier(4)

        def parse():
            barrier.wait()
            results.append(Program.from_source(diffutil.SOURCE).branch_locations)

        threads = [threading.Thread(target=parse) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(locations == reference for locations in results)

    def test_pipeline_reproduce_checks_plan(self, diff_recording):
        pipeline, plan, recording = diff_recording
        trace = load_trace_bytes(dump_trace_bytes(trace_from_recording(recording)))
        other = Pipeline.from_source(mkdir.SOURCE, name="mkdir")
        wrong_plan = other.make_plan(InstrumentationMethod.ALL_BRANCHES)
        with pytest.raises(TraceFingerprintMismatch):
            pipeline.reproduce_from_trace(trace, expect_plan=wrong_plan)


class TestCorruption:
    @pytest.fixture(scope="class")
    def blob(self):
        _, _, recording = record_workload("diff", diffutil.SOURCE,
                                          diffutil.experiment_1(), frozenset())
        return dump_trace_bytes(trace_from_recording(recording))

    def test_bad_magic(self, blob):
        with pytest.raises(TraceFormatError, match="bad magic"):
            load_trace_bytes(b"NOTTRACE" + blob[8:])

    def test_unsupported_version(self, blob):
        bumped = blob[:8] + struct.pack("<I", 99) + blob[12:]
        with pytest.raises(TraceFormatError, match="version 99"):
            load_trace_bytes(bumped)

    @pytest.mark.parametrize("keep", [4, 12, 30])
    def test_truncated(self, blob, keep):
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace_bytes(blob[:keep])

    def test_truncated_payload(self, blob):
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace_bytes(blob[:-10])

    def test_bit_rot_detected_by_checksum(self, blob):
        for offset in (40, len(blob) // 2, len(blob) - 5):
            flipped = bytearray(blob)
            flipped[offset] ^= 0x40
            with pytest.raises(TraceFormatError, match="checksum"):
                load_trace_bytes(bytes(flipped))

    def test_trailing_garbage(self, blob):
        with pytest.raises(TraceFormatError, match="trailing"):
            load_trace_bytes(blob + b"extra")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError):
            load_trace(str(path))


class TestEnvironmentSpec:
    """An :class:`Environment` is the one, plain-data description of a
    run's inputs: traces encode it, checkpoints and workers pickle it."""

    def test_capture_rebuild_identical_kernels(self):
        env = userver.experiment(2)
        _, _, recording = record_workload("userver", userver.SOURCE, env,
                                          frozenset(userver.LIBRARY_FUNCTIONS))
        trace = trace_from_recording(recording, scaffold=False)
        back = load_trace_bytes(dump_trace_bytes(trace)).environment
        assert back == env
        original, rebuilt = env.make_kernel(), back.make_kernel()
        assert rebuilt.fs.snapshot() == original.fs.snapshot()
        assert rebuilt.config == original.config
        originals = original.net.script.connections
        rebuilts = rebuilt.net.script.connections
        assert [(c.request, c.arrival_step, list(c.chunks)) for c in rebuilts] == \
               [(c.request, c.arrival_step, list(c.chunks)) for c in originals]

    def test_kinds_and_modes_survive(self):
        from repro.environment import Environment

        env = Environment(argv=("x",), files=(
            ("/plain.txt", b"abc", "file", 0o644),
            ("/dir", b"", "dir", 0o750),
            ("/dev.node", b"", "node", 0o600)))
        scaffold = env.scaffold()
        for kernel in (env.make_kernel(), scaffold.make_kernel()):
            for path, data, kind, mode in env.files:
                entry = kernel.fs.get(path)
                assert (entry.kind, entry.mode, len(entry.data)) == \
                       (kind, mode, len(data))
        assert scaffold.make_kernel().fs.get("/plain.txt").data == b"AAA"

    def test_spec_and_environment_pickle(self):
        env = diffutil.experiment_1()
        clone = pickle.loads(pickle.dumps(env))
        assert clone == env
        assert clone.make_kernel().fs.snapshot() == \
               env.make_kernel().fs.snapshot()