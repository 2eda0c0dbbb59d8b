"""``fleet``: the ingest path under an open loop of simulated users.

One process, at most two connections, against ``python -m repro serve`` at
CLI defaults.  Users upload duplicate-heavy reports of a few cheap bugs at a
few fixed rates (evenly spaced, so each phase offers exactly its rate), a
never-seen bug arrives every second, and a ``process`` call fires on a fixed
cadence while uploads continue.  A last phase uploads back to back on both
connections to find the rate past which the backlog grows.  The inbox keeps
growing through the run, so the cost of rewriting ``inbox.json`` on every
ingest shows; ``process`` holds the server lock that ingest needs, so the
cadence shows in the upload tail.

Its timings are raw wall times: they did not follow the reference host
speed (``perfbench/calibrate.py``), and on the development VM they spread
too far from run to run to gate, so BENCHMARK.json leaves this workload out.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

from perfbench import inputs
from perfbench.common import (ServeProcess, geomean, percentile, pinned,
                              serve_cold_start, shared_cpu, summarize,
                              work_dir)
from perfbench.usersite import UserSite, replays_on_interpreter
from repro import trace as trace_format
from repro.service import UploadClient, outcome_fingerprint

#: Offered upload rates, one phase each (uploads per second).  All stay well
#: below what two connections sustain, so the headline upload latency (over
#: all three phases) measures service time and lock waits, not a backlog.
RATES = (5.0, 10.0, 20.0)
#: Share of ``--seconds`` each fixed-rate phase lasts.
PHASE_SHARE = 0.25
CADENCE_S = 0.5
#: Process calls fire this long after a cadence tick, half-way between two
#: uploads of the fastest phase, so an upload and a process call never race
#: for the server lock from the same instant.
CADENCE_OFFSET_S = 0.025
#: Never-seen bugs per phase, one every other cadence window, each due at
#: its own point of the window.
NEW_BUG_PHASES = (0.1, 0.3, 0.5, 0.7, 0.9)
SATURATION_UPLOADS = 250
CONNECTIONS = 2
LATENCY_LIMIT_MS = 100.0
SETUP_REPEATS = 5
TIMEOUT = 60.0


class _Upload:
    __slots__ = ("due", "phase", "data", "new", "user", "sent", "acked",
                 "receipt", "error", "retries")

    def __init__(self, due: float, phase: int, data: bytes, new: bool,
                 user: str) -> None:
        self.due = due
        self.phase = phase
        self.data = data
        self.new = new
        self.user = user
        self.sent = self.acked = 0.0
        self.receipt = None
        self.error = ""
        self.retries = 0


def _phases(seed: int, seconds: float, known: List[bytes],
            new: List[bytes]) -> List[List[_Upload]]:
    """Each fixed-rate phase's uploads, due in seconds from its start."""

    phase_s = seconds * PHASE_SHARE
    counts = [int(round(rate * phase_s)) for rate in RATES]
    picks = iter(inputs.fleet_picks(seed, sum(counts), len(known)))
    fresh = iter(new)
    phases = []
    for phase, (rate, count) in enumerate(zip(RATES, counts)):
        uploads = [_Upload(index / rate, phase, known[next(picks)], False, "")
                   for index in range(count)]
        for index, point in enumerate(NEW_BUG_PHASES):
            due = (2 * index + 1 + point) * CADENCE_S
            data = next(fresh, None)
            if data is None or (index and due > phase_s - CADENCE_S):
                break
            uploads.append(_Upload(due, phase, data, True, ""))
        uploads.sort(key=lambda upload: upload.due)
        phases.append(uploads)
    for index, upload in enumerate(u for uploads in phases for u in uploads):
        upload.user = f"user{index}"
    return phases


class _OpenLoop:
    """Senders and the process cadence sharing ``CONNECTIONS`` slots."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.slots = threading.BoundedSemaphore(CONNECTIONS)
        self.lock = threading.Lock()
        self.pending = iter(())
        #: trace id -> (start, end) of the process call that first returned
        #: its report.
        self.ready: Dict[str, Tuple[float, float]] = {}
        self.process_s: List[Tuple[float, float]] = []
        self.process_errors = 0

    def _take(self) -> Optional[_Upload]:
        with self.lock:
            return next(self.pending, None)

    def _send(self, upload: _Upload) -> None:
        client = UploadClient("127.0.0.1", self.port, client_id=upload.user,
                              timeout=TIMEOUT)
        with self.slots:
            upload.sent = time.perf_counter()
            try:
                upload.receipt = client.upload(upload.data)
            except Exception as exc:  # a failed upload is a failed operation
                upload.error = f"exception:{type(exc).__name__}"
            upload.acked = time.perf_counter()
        upload.retries = client.stats["retries"]

    def _sender(self, origin: float) -> None:
        while True:
            upload = self._take()
            if upload is None:
                return
            upload.due += origin
            delay = upload.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self._send(upload)

    def _processor(self, origin: float, dues: List[float]) -> None:
        control = UploadClient("127.0.0.1", self.port, client_id="control",
                               timeout=TIMEOUT)
        for due in dues:
            delay = origin + due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.process_once(control)

    def process_once(self, control: UploadClient) -> None:
        with self.slots:
            began = time.perf_counter()
            try:
                body = control.process()
            except Exception:  # counted; the checks then find lost reports
                self.process_errors += 1
                return
            done = time.perf_counter()
        self.process_s.append((began, done))
        for trace_id in body.get("reports", {}):
            self.ready.setdefault(trace_id, (began, done))

    def run(self, uploads: List[_Upload], process_dues: List[float]) -> None:
        """Send *uploads* when due and process at *process_dues* (seconds
        from now); returns once every upload is acked."""

        origin = time.perf_counter() + 0.05
        self.pending = iter(uploads)
        threads = [threading.Thread(target=self._sender, args=(origin,))
                   for _ in range(CONNECTIONS)]
        if process_dues:
            threads.append(threading.Thread(
                target=self._processor, args=(origin, process_dues)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()


def _served_fingerprint(report: Dict[str, object]) -> tuple:
    """:func:`repro.service.outcome_fingerprint` of a served JSON report."""

    crash = report["crash_site"]
    return (report["reproduced"], report["runs"],
            tuple(tuple(record) for record in report["run_records"]),
            tuple(sorted(report["pending_stats"].items())),
            tuple(sorted(report["found_input"].items())),
            tuple(crash) if crash else None)


def run(seed: int, seconds: float, spans_path: str = "",
        log=None) -> Dict[str, object]:
    base = work_dir(f"fleet-{seed}")
    cpus = shared_cpu()
    setup = [serve_cold_start(os.path.join(base, f"setup{index}"), cpus)
             for index in range(SETUP_REPEATS - 1)]
    server = ServeProcess(os.path.join(base, "serve"), spans_path=spans_path,
                          cpus=cpus)
    setup.append(server.start())
    try:
        site = UserSite(seed)
        known_bugs = inputs.fleet_known_bugs()
        new_bugs = inputs.fleet_new_bugs(seed)
        recorded = [site.record(bug) for bug in known_bugs + new_bugs]
        known = [data for _recording, data in recorded[:len(known_bugs)]]
        new = [data for _recording, data in recorded[len(known_bugs):]]
        control = UploadClient("127.0.0.1", server.port, client_id="control",
                               timeout=TIMEOUT)
        # Users have reported the known bugs before: their clusters are done.
        for index, data in enumerate(known):
            UploadClient("127.0.0.1", server.port, client_id=f"early{index}",
                         timeout=TIMEOUT).upload(data)
        control.process()

        phases = _phases(seed, seconds, known, new)
        uploads = [upload for phase in phases for upload in phase]
        saturated = [_Upload(0.0, len(RATES), known[index % len(known)],
                             False, f"sat{index}")
                     for index in range(SATURATION_UPLOADS)]
        phase_s = seconds * PHASE_SHARE
        dues = [CADENCE_S * k + CADENCE_OFFSET_S
                for k in range(1, int(phase_s / CADENCE_S) + 1)]
        loop = _OpenLoop(server.port)
        with pinned(cpus):
            for phase in phases + [saturated]:
                loop.run(phase, [] if phase is saturated else dues)
                # Flush: every report of the phase is fetchable now.
                loop.process_once(control)
        stats = control.stats_remote()

        # Output checks: no lost report, one search per cluster, and every
        # report equals that of a search of its payload run here.
        failures: Dict[str, int] = {}

        def fail(reason: str) -> None:
            failures[reason] = failures.get(reason, 0) + 1

        shipped = {upload.data for upload in uploads + saturated}
        # Overhead of what the run's users ship: every known bug plus the
        # new bugs the schedule reaches.
        overheads = [recording.overhead.cpu_time_percent
                     for bug, (recording, data) in zip(known_bugs + new_bugs,
                                                       recorded)
                     if bug.method is inputs.DS and data in shipped]
        overhead_pct = sum(overheads) / len(overheads)
        expected: Dict[bytes, tuple] = {}
        oracle: Dict[bytes, str] = {}
        with log.pausing() if log is not None else contextlib.nullcontext():
            for bug, (recording, data) in zip(known_bugs + new_bugs, recorded):
                if data not in shipped:
                    continue
                pipeline = site.pipeline(bug.kind)
                found = pipeline.reproduce_from_trace(
                    trace_format.load_trace_bytes(data))
                expected[data] = outcome_fingerprint(found.outcome)
                oracle[data] = replays_on_interpreter(
                    pipeline.program, recording,
                    found.outcome.found_input) or ""
        for upload in uploads + saturated:
            if upload.error:
                fail(upload.error)
                continue
            body = control.report(upload.receipt.trace_id)
            if body.get("status") != "done":
                fail("lost-report")
                continue
            report = body["report"]
            if not report["reproduced"] or report.get("error"):
                fail("not-reproduced")
            elif _served_fingerprint(report) != expected[upload.data]:
                fail("report-differs-from-search")
            elif oracle[upload.data]:
                fail(oracle[upload.data])
        clusters = stats["inbox"]["clusters"]
        if stats["stats"]["searches_run"] != clusters:
            fail("searches-not-one-per-cluster")
        if loop.process_errors:
            fail("process-error")
    finally:
        server.stop()
    setup_s = percentile(setup, 50)

    ok = [u for u in uploads if not u.error]
    per_rate = []
    for phase, rate in enumerate(RATES):
        mine = [u for u in ok if u.phase == phase]
        latencies = [u.acked - u.due for u in mine]
        late = max((u.sent - u.due for u in mine), default=0.0)
        summary = summarize(latencies)
        passed = (summary["tail"] * 1e3 <= LATENCY_LIMIT_MS
                  and late * 1e3 <= LATENCY_LIMIT_MS)
        per_rate.append((rate, summary, late, passed))
    latencies = [u.acked - u.due for u in ok]
    ref = summarize(latencies)
    fresh = [(u.acked, loop.ready[u.receipt.trace_id]) for u in ok
             if u.new and not u.receipt.duplicate
             and u.receipt.trace_id in loop.ready]
    # Search side: the process call that returned the report, from when it
    # started (or from the ack, if the upload landed during the call).
    searches = [done - max(acked, began) for acked, (began, done) in fresh]
    search = summarize(searches)
    wait = summarize([done - acked for acked, (_began, done) in fresh])
    sat_ok = [u for u in saturated if not u.error]
    sat_s = (max(u.acked for u in sat_ok) - min(u.sent for u in sat_ok)
             if sat_ok else float("nan"))
    saturation = len(sat_ok) / sat_s
    sat = summarize([u.acked - u.sent for u in sat_ok])
    passing = [rate for rate, _s, _l, passed in per_rate if passed]
    retries = sum(u.retries for u in uploads + saturated)
    attempted = len(uploads) + len(saturated)
    failed = sum(failures.values())
    rates = "/".join(f"{rate:g}" for rate in RATES)
    named = [
        ("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} serve cold starts"),
        ("upload_p50_ms", ref["p50"] * 1e3, "ms",
         f"at {rates} per s from due time, n={ref['n']}"),
        (f"upload_p{ref['tail_pct']}_ms", ref["tail"] * 1e3, "ms",
         f"at {rates} per s from due time, n={ref['n']}"),
        ("ingest_max_per_s", saturation, "1/s",
         f"{CONNECTIONS} connections back to back, n={sat['n']}, "
         f"p{sat['tail_pct']}={sat['tail'] * 1e3:.1f} ms "
         f"(limit {LATENCY_LIMIT_MS:g} ms)"),
        ("report_p50_s", wait["p50"], "s",
         f"ack -> report fetchable, new bugs, n={wait['n']}, "
         f"process every {CADENCE_S:g} s"),
        ("report_search_p50_ms", search["p50"] * 1e3, "ms",
         f"the process call that returned it, n={search['n']}"),
        ("record_overhead_pct", overhead_pct, "%",
         f"mean of n={len(overheads)} dynamic+static recordings shipped"),
        ("peak_rss_mb", server.peak_rss_mb, "MB", "serve process"),
    ]
    for rate, summary, late, passed in per_rate:
        named.append((f"upload_p50_ms[{rate:g}/s]", summary["p50"] * 1e3, "ms",
                      f"p{summary['tail_pct']}={summary['tail'] * 1e3:.1f} ms "
                      f"n={summary['n']} max-late={late * 1e3:.1f} ms "
                      f"{'meets' if passed else 'misses'} limit"))
    ops = [("upload", u.sent, u.acked, "") for u in ok + sat_ok]
    ops.extend(("process", began, done, "") for began, done in loop.process_s)
    return {
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "failures": failures,
        "time_capped": 0,
        "metrics": {
            "setup_s": setup_s,
            "op_gmean": geomean(latencies) * 1e3,
            "throughput": saturation,
            "stage2_gmean": geomean(searches) * 1e3,
            "record_overhead_pct": overhead_pct,
            "peak_rss_mb": server.peak_rss_mb,
        },
        "named": named,
        "counters": dict(site.counters(), **{
            "uploads": attempted, "inbox_traces": stats["inbox"]["traces"],
            "clusters": clusters,
            "searches_run": stats["stats"]["searches_run"],
            "dedup_ratio": stats["stats"].get("dedup_ratio"),
            "client_retries": retries,
            "process_calls": len(loop.process_s),
            "highest_passing_fixed_rate": max(passing, default=0.0),
            "generator_max_late_ms": round(max(
                (u.sent - u.due for u in ok), default=0.0) * 1e3, 3),
        }),
        "loop": f"open, 1 process, <= {CONNECTIONS} connections, rates "
                f"{rates} per s for {phase_s:g} s each, a new bug every "
                f"{2 * CADENCE_S:g} s, process every {CADENCE_S:g} s, then "
                f"{SATURATION_UPLOADS} back-to-back; "
                f"inbox reached {stats['inbox']['traces']} traces",
    }
