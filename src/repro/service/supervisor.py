"""Supervised two-level scheduler for cluster replay searches.

This is the service's one home for parallelism: every replay search is
serial, and the supervisor runs up to ``service.workers`` of them at once.
A fire-and-forget process pool would surface a worker OOM-kill as a raw
:class:`BrokenProcessPool`, let a wedged solver block the batch forever,
and throw away every in-flight search on a service restart.  The
supervisor instead treats searches the way the upload server treats
uploads — as resumable, exactly-once work items:

* each cluster search runs in its own ``multiprocessing.Process``, given
  the cluster's (picklable) :class:`~repro.replay.engine.ReplayEngine`
  and a :class:`~repro.replay.checkpoint.CheckpointPolicy` pointing at
  ``<checkpoint dir>/<cluster id>.ckpt``;
* the worker checkpoints every N committed items and touches a heartbeat
  file per commit; the supervisor detects death (exit code), silence
  (heartbeat timeout) and overrun (wall-clock deadline), and restarts
  crashed workers **from their last checkpoint** with bounded retries and
  exponential backoff — the engine's commit discipline makes the resumed
  explored set byte-identical, so a crashed-and-resumed cluster produces
  the same report as an undisturbed one;
* after ``max_search_retries`` crash-restarts the cluster is quarantined
  (a poison search must not wedge the queue) — the service records it in
  the rejection ledger with the typed error;
* a corrupt or truncated checkpoint is poison, not a shrug: the worker
  reports the typed :class:`~repro.replay.checkpoint.CheckpointFormatError`
  and the cluster is quarantined — never silently restarted into a
  possibly-divergent report.

Results cross the process boundary as pickle files written with
:func:`~repro.trace.write_atomic` (one per attempt, nonce-named so an
orphaned worker from a SIGKILLed service cannot race a successor), because
a SIGKILLed worker must be distinguishable from one that finished — a pipe
would conflate the two.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.config import PipelineConfig
from repro.replay.checkpoint import CheckpointError, CheckpointPolicy
from repro.replay.engine import ReplayEngine
from repro.trace import write_atomic

__all__ = ["SearchDeadlineExceeded", "SearchJob", "SearchResult",
           "SearchSupervisor"]

#: A worker silent this long (no commit, no heartbeat) is treated as dead:
#: killed and restarted from its last checkpoint.
HEARTBEAT_TIMEOUT_SECONDS = 30.0

#: Base of the exponential backoff between crash-restarts of one search.
RETRY_BACKOFF_SECONDS = 0.05


class SearchDeadlineExceeded(Exception):
    """A cluster search overran ``search_deadline_seconds`` and was killed."""


@dataclass
class SearchJob:
    """One cluster search as the supervisor schedules it."""

    cluster_id: str
    engine: ReplayEngine
    attempts: int = 0
    run_seconds: float = 0.0  # cumulative wall time across attempts
    next_eligible: float = 0.0  # monotonic time the next attempt may start


@dataclass
class SearchResult:
    """Terminal state of one cluster search."""

    kind: str  # "ok" | "deadline" | "quarantined" | "failed"
    outcome: Any = None  # ReplayOutcome when kind == "ok"
    error: str = ""


@dataclass
class _Running:
    job: SearchJob
    process: multiprocessing.Process
    started: float
    result_path: str
    policy: CheckpointPolicy
    checkpoint_seen: bool = False


def _write_result(path: str, payload: Dict[str, Any]) -> None:
    write_atomic(path, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def _supervised_search_worker(engine: ReplayEngine, policy: CheckpointPolicy,
                              result_path: str) -> None:
    """Child-process entry point: run (or resume) one cluster search.

    The final state always lands in *result_path* as an atomically written
    pickle — unless the process dies first, which is exactly the signal the
    supervisor reads from the missing file plus the exit code.
    """

    try:
        if policy.path and os.path.exists(policy.path):
            try:
                engine = ReplayEngine.from_checkpoint(policy.path,
                                                      policy=policy)
            except CheckpointError as exc:
                _write_result(result_path, {
                    "kind": "checkpoint-corrupt",
                    "error": f"{type(exc).__name__}: {exc}",
                })
                return
        else:
            engine.attach_checkpointing(policy)
        _write_result(result_path, {"kind": "ok",
                                    "outcome": engine.reproduce()})
    except BaseException as exc:  # report, then let the process die loudly
        try:
            _write_result(result_path, {
                "kind": "error",
                "error": f"{type(exc).__name__}: {exc}",
            })
        except OSError:
            pass
        raise


class SearchSupervisor:
    """Runs a batch of cluster searches under crash/deadline supervision."""

    #: Monitor loop cadence; every liveness decision is made at this grain.
    _POLL_SECONDS = 0.005

    def __init__(self, root: str, config: PipelineConfig, registry=None,
                 faults=None) -> None:
        svc = config.service
        self.checkpoint_dir = os.path.join(root, "checkpoints")
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        self.workers = max(1, int(svc.workers))
        self.deadline = svc.search_deadline_seconds
        self.max_retries = max(0, int(svc.max_search_retries))
        self.every_commits = svc.checkpoint_every_runs
        self.registry = registry
        # The live injector fires the crash points here; each worker rolls
        # its seeded streams from the (picklable) spec.
        self.faults = faults
        self._nonce = 0

    # -- paths ---------------------------------------------------------------------------

    def checkpoint_path(self, cluster_id: str) -> str:
        return os.path.join(self.checkpoint_dir, f"{cluster_id}.ckpt")

    def _heartbeat(self, cluster_id: str) -> str:
        return os.path.join(self.checkpoint_dir, f"{cluster_id}.heartbeat")

    # -- the scheduling loop --------------------------------------------------------------

    def run(self, jobs: List[SearchJob]) -> Dict[str, SearchResult]:
        """Drive every job to a terminal :class:`SearchResult`.

        *jobs* arrive in the service's dispatch order; a crashed job
        rejoins the head of the queue (it was first when launched).
        """

        queue: List[SearchJob] = list(jobs)
        running: List[_Running] = []
        results: Dict[str, SearchResult] = {}
        while queue or running:
            now = time.monotonic()
            while queue and len(running) < self.workers:
                index = next((i for i, job in enumerate(queue)
                              if job.next_eligible <= now), None)
                if index is None:
                    break
                running.append(self._launch(queue.pop(index)))
            self._monitor(running, queue, results)
            if queue or running:
                time.sleep(self._POLL_SECONDS)
        return results

    def _launch(self, job: SearchJob) -> _Running:
        cluster_id = job.cluster_id
        policy = CheckpointPolicy(
            path=self.checkpoint_path(cluster_id),
            every_commits=self.every_commits,
            heartbeat_path=self._heartbeat(cluster_id),
            fault_spec=self.faults.spec if self.faults is not None else None,
        )
        resumed = os.path.exists(policy.path)
        self._nonce += 1
        result_path = os.path.join(
            self.checkpoint_dir,
            f"{cluster_id}.{os.getpid()}.{self._nonce}.result")
        process = multiprocessing.Process(
            target=_supervised_search_worker,
            args=(job.engine, policy, result_path),
            name=f"replay-search-{cluster_id[:12]}")
        process.start()
        job.attempts += 1
        self._count("service.supervisor.launched")
        if resumed:
            self._count("service.supervisor.resumes")
        return _Running(job=job, process=process, started=time.monotonic(),
                        result_path=result_path, policy=policy)

    def _monitor(self, running: List[_Running], queue: List[SearchJob],
                 results: Dict[str, SearchResult]) -> None:
        now = time.monotonic()
        for entry in list(running):
            job = entry.job
            if not entry.checkpoint_seen and os.path.exists(entry.policy.path):
                entry.checkpoint_seen = True
                # Chaos hook: deterministically SIGKILL the *service* right
                # after the first checkpoint lands — the mid-search service
                # crash the restart-recovery tests replay.
                if self.faults is not None:
                    self.faults.crash_point("supervisor.after_checkpoint")
            if entry.process.is_alive():
                elapsed = now - entry.started
                if (self.deadline > 0
                        and job.run_seconds + elapsed > self.deadline):
                    self._kill(entry)
                    self._finish(entry, running, results, SearchResult(
                        kind="deadline",
                        error=(f"search exceeded its "
                               f"{self.deadline:g}s deadline after "
                               f"{job.attempts} attempt(s)")))
                    self._count("service.supervisor.deadline_exceeded")
                    continue
                if self._silent_for(entry, now) > HEARTBEAT_TIMEOUT_SECONDS:
                    # A wedged worker: no commits, no heartbeat.  Kill it and
                    # take the crash path — its checkpoint (if any) resumes.
                    self._kill(entry)
                    entry.process.join()
                    self._handle_crash(entry, running, queue, results,
                                       reason="heartbeat timeout")
                continue
            entry.process.join()
            payload = self._read_result(entry.result_path)
            if payload is None:
                self._handle_crash(
                    entry, running, queue, results,
                    reason=f"worker died (exit code {entry.process.exitcode})")
                continue
            kind = payload.get("kind")
            if kind == "ok":
                self._finish(entry, running, results, SearchResult(
                    kind="ok", outcome=payload["outcome"]))
            elif kind == "checkpoint-corrupt":
                self._count("service.supervisor.checkpoint_corrupt")
                self._finish(entry, running, results, SearchResult(
                    kind="quarantined", error=payload.get("error", "")))
            else:  # in-worker exception: deterministic, retrying cannot help
                self._finish(entry, running, results, SearchResult(
                    kind="failed", error=payload.get("error", "worker error")))

    def _handle_crash(self, entry: _Running, running: List[_Running],
                      queue: List[SearchJob],
                      results: Dict[str, SearchResult],
                      reason: str) -> None:
        job = entry.job
        job.run_seconds += time.monotonic() - entry.started
        running.remove(entry)
        self._remove(entry.result_path)
        if job.attempts > self.max_retries:
            self._count("service.supervisor.quarantined")
            results[job.cluster_id] = SearchResult(
                kind="quarantined",
                error=(f"{reason}; gave up after {job.attempts} attempt(s) "
                       f"(max_search_retries={self.max_retries})"))
            self._clear_files(job.cluster_id)
            return
        self._count("service.supervisor.restarts")
        backoff = RETRY_BACKOFF_SECONDS * (2 ** (job.attempts - 1))
        job.next_eligible = time.monotonic() + backoff
        queue.insert(0, job)  # it was first in line when launched

    # -- completion & bookkeeping ---------------------------------------------------------

    def _finish(self, entry: _Running, running: List[_Running],
                results: Dict[str, SearchResult],
                result: SearchResult) -> None:
        running.remove(entry)
        self._remove(entry.result_path)
        self._clear_files(entry.job.cluster_id)
        results[entry.job.cluster_id] = result

    def _clear_files(self, cluster_id: str) -> None:
        self._remove(self.checkpoint_path(cluster_id))
        self._remove(self._heartbeat(cluster_id))

    def _silent_for(self, entry: _Running, now: float) -> float:
        try:
            last = os.path.getmtime(entry.policy.heartbeat_path)
        except OSError:
            return now - entry.started
        return now - max(last, entry.started)

    def _kill(self, entry: _Running) -> None:
        process = entry.process
        if not process.is_alive():
            return
        process.terminate()
        process.join(timeout=1.0)
        if process.is_alive():
            process.kill()
            process.join()

    def _count(self, name: str) -> None:
        # Supervision events are machine facts (who crashed when), never
        # part of a report's identity — timing-marked like all chaos
        # telemetry so deterministic snapshots stay comparable.
        if self.registry is not None:
            self.registry.counter(name, timing=True).inc()

    @staticmethod
    def _remove(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    @staticmethod
    def _read_result(path: str) -> Optional[Dict[str, Any]]:
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ValueError):
            return None
