"""Shared pieces of the benchmark: paths, statistics, machine info and the
``python -m repro serve`` process the developer-site workloads drive."""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Everything a run leaves behind (spans, per-run results, serve state).
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Tracing on/off is an environment variable so the serve launcher sees it.
SPANS_ENV = "PERFBENCH_SPANS"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a server that never
    came up, ...): exit non-zero without printing a result."""


def require_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no repro sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop(SPANS_ENV, None)
    env.update(extra or {})
    return env


def work_dir(label: str) -> str:
    path = os.path.join(OUT_DIR, f"work-{label}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100) of *values*."""

    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_pct(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it.

    Never below the median: with fewer than 20 samples the tail is the p50.
    """

    if count <= 0:
        return 50
    return max(50, min(99, math.floor(100.0 * (count - 10) / count)))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """``{"n", "p50", "tail_pct", "tail"}`` of one latency sample set."""

    tail = tail_pct(len(values))
    return {"n": len(values), "p50": percentile(values, 50),
            "tail_pct": tail, "tail": percentile(values, tail)}


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive *values*.

    The gated central figure of a run's operations.  A run's operations are
    a fixed, mixed set (30 ms coreutils bugs to 2 s diff-big ones); their
    median sits between two neighbouring operations and steps from one to
    the other from run to run, while the geometric mean moves smoothly.
    """

    if not values:
        return float("nan")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def machine_info() -> Dict[str, object]:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": model}


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""

    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def cold_start(argv: List[str], ready_line: str, cwd: str) -> float:
    """Seconds from spawning *argv* until it prints *ready_line*."""

    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        took = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line != ready_line or proc.returncode != 0:
        raise BenchError(f"cold start of {argv} failed: {line!r}")
    return took


# ---------------------------------------------------------------------------
# the process under test for triage and fleet
# ---------------------------------------------------------------------------


class ServeProcess:
    """``python -m repro serve`` at CLI defaults (VM backend, inline search).

    With tracing on, the benchmark's launcher (``serve_traced.py``) installs
    the layer wrappers first and then runs the same CLI entry point.
    """

    def __init__(self, root: str, spans_path: str = "",
                 cpus: Optional[set] = None) -> None:
        self.root = root
        self.spans_path = spans_path
        self.cpus = cpus
        self.port_file = os.path.join(root, "port")
        self.log_path = os.path.join(root, "serve.log")
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.peak_rss_mb = 0.0

    def start(self, timeout: float = 60.0) -> float:
        """Launch and wait until a stats request answers; returns seconds."""

        os.makedirs(self.root, exist_ok=True)
        state = os.path.join(self.root, "state")
        if self.spans_path:
            argv = [sys.executable, os.path.join(BENCH_DIR, "serve_traced.py")]
            extra = {SPANS_ENV: self.spans_path}
        else:
            argv = [sys.executable, "-m", "repro"]
            extra = {}
        argv += ["serve", "--root", state, "--port-file", self.port_file]
        start = time.perf_counter()
        cpus = self.cpus

        def pin() -> None:  # in the child, before exec: every thread inherits
            if cpus:
                os.sched_setaffinity(0, cpus)

        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(extra),
                                         stdout=log, stderr=log,
                                         preexec_fn=pin)
        deadline = start + timeout
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"serve exited early: {self.log_tail()}")
            if time.perf_counter() > deadline:
                self.stop()
                raise BenchError("serve did not come up in time")
            if os.path.exists(self.port_file):
                with open(self.port_file) as handle:
                    self.port = int(handle.read().strip())
                if self._answers():
                    return time.perf_counter() - start
            time.sleep(0.005)

    def _answers(self) -> bool:
        from repro.service import UploadClient

        try:
            UploadClient("127.0.0.1", self.port, timeout=2.0).stats_remote()
        except OSError:
            return False
        return True

    def stop(self) -> None:
        """Record peak RSS, then SIGTERM (graceful drain) and reap."""

        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                self.peak_rss_mb = peak_rss_mb_of(self.proc.pid)
            except (OSError, BenchError):
                pass
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc = None

    def log_tail(self, lines: int = 20) -> str:
        try:
            with open(self.log_path, errors="replace") as handle:
                return "".join(handle.readlines()[-lines:])
        except OSError:
            return ""


def shared_cpu() -> set:
    """One CPU for the client and the server under test.

    The reference timing (perfbench/calibrate.py) runs in the client; pinned
    to the server's CPU it sees the speed the server's work runs at.  In the
    closed loop only one of the two is busy at a time.
    """

    return {max(os.sched_getaffinity(0))}


@contextlib.contextmanager
def pinned(cpus: set):
    """Run this process on *cpus* for the duration of the block."""

    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def serve_cold_start(root: str, cpus: Optional[set] = None) -> float:
    """Seconds a server took to come up on the fresh *root*."""

    server = ServeProcess(root, cpus=cpus)
    try:
        return server.start()
    finally:
        server.stop()


def write_json(path: str, payload: Dict[str, object]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
