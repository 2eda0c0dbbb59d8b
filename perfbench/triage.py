"""``triage``: the paper's time to reproduce, one bug at a time.

A closed loop: one developer client against ``python -m repro serve`` at CLI
defaults.  For each distinct seeded bug report the client uploads it, calls
``process``, fetches the report, and only then moves on.  The draw mixes
VM-bound searches (uServer) with solver-bound ones (diff-big), so a VM change
and a solver change each have bugs that show them and bugs that do not.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

from perfbench import inputs
from perfbench.calibrate import Calibration
from perfbench.common import (ServeProcess, geomean, percentile, pinned,
                              serve_cold_start, shared_cpu, summarize,
                              work_dir)
from perfbench.usersite import UserSite, replays_on_interpreter
from repro.service import UploadClient

#: Seconds one round of eight bugs takes on the reference machine.
NOMINAL_ROUND_S = 6.0
SETUP_REPEATS = 5
CLIENT_TIMEOUT = 120.0
#: Pause after each report before the reference timing, so the server's
#: connection teardown does not share the CPU with it.
SETTLE_S = 0.01


def _reproduce(client: UploadClient, data: bytes):
    """Upload, process, fetch: ``(ack s, total s, report body)``."""

    began = time.perf_counter()
    receipt = client.upload(data)
    acked = time.perf_counter()
    client.process()
    body = client.report(receipt.trace_id)
    return acked - began, time.perf_counter() - began, body


def _check(body: Dict[str, object], program, recording) -> str:
    """Empty when the report is a correct reproduction, else the reason."""

    if body.get("status") != "done":
        return "lost-report"
    report = body["report"]
    if report.get("error"):
        return "search-error"
    if report.get("timed_out"):
        return "time-capped"
    if not report.get("reproduced"):
        return "not-reproduced"
    return replays_on_interpreter(program, recording,
                                  report["found_input"]) or ""


def _probe(root: str, site: UserSite, probe, reports) -> List[str]:
    """The known-defect probe, on a ``serve`` of its own.

    The defect wedges that server's process path for good; a server of its
    own keeps the probe's memory and spans out of the measured server's.
    """

    server = ServeProcess(root)
    server.start()
    outcomes = []
    try:
        client = UploadClient("127.0.0.1", server.port, client_id="probe",
                              timeout=CLIENT_TIMEOUT)
        for bug, (recording, data) in zip(probe, reports):
            try:
                _acked, _took, body = _reproduce(client, data)
                reason = _check(body, site.pipeline(bug.kind).program,
                                recording)
            except Exception as exc:  # the defect surfaces as a dead request
                reason = f"exception:{type(exc).__name__}"
            outcomes.append(f"{bug.env.name}: {reason or 'reproduced'}")
    finally:
        server.stop()
    return outcomes


def run(seed: int, seconds: float, spans_path: str = "",
        log=None) -> Dict[str, object]:
    base = work_dir(f"triage-{seed}")
    rounds = min(inputs.MAX_TRIAGE_ROUNDS,
                 max(1, round(seconds / NOMINAL_ROUND_S)))
    bugs = inputs.triage_bugs(seed, rounds)
    probe = inputs.known_defect_bugs()

    cpus = shared_cpu()
    calibration = Calibration()
    server = ServeProcess(os.path.join(base, "serve"), spans_path=spans_path,
                          cpus=cpus)
    with pinned(cpus):
        setup = [calibration.timed(lambda: serve_cold_start(
            os.path.join(base, f"setup{index}"), cpus))
            for index in range(SETUP_REPEATS - 1)]
        setup.append(calibration.timed(server.start))
    try:
        prep_began = time.perf_counter()
        site = UserSite(seed)
        reports = [site.record(bug) for bug in bugs + probe]
        prep_s = time.perf_counter() - prep_began
        client = UploadClient("127.0.0.1", server.port, client_id="triage",
                              timeout=CLIENT_TIMEOUT)

        failures: Dict[str, int] = {}
        bodies = []
        ops = []
        deadline = time.perf_counter() + max(3 * seconds, seconds + 60)
        with pinned(cpus):
            for index, (bug, (recording, data)) in enumerate(zip(bugs, reports)):
                if time.perf_counter() > deadline:
                    failures["deadline"] = failures.get("deadline", 0) + 1
                    continue
                if log is not None:
                    log.bug = f"{bug.label}#{index}"
                began = time.perf_counter()
                try:
                    acked, took, body = _reproduce(client, data)
                except Exception as exc:  # any failed operation, counted below
                    failures[f"exception:{type(exc).__name__}"] = (
                        failures.get(f"exception:{type(exc).__name__}", 0) + 1)
                    continue
                ops.append(("bug", began, began + took, bug.label))
                ops.append(("upload", began, began + acked, bug.label))
                bodies.append((bug, recording, body, acked, took, began))
                # Time the host's speed once the server has gone idle.
                time.sleep(SETTLE_S)
                calibration.sample()
        if log is not None:
            log.bug = ""
        stats = client.stats_remote()
    finally:
        server.stop()
    probe_failures = _probe(os.path.join(base, "probe"), site, probe,
                            reports[len(bugs):])

    # Output checks (after the timed loop, so they do not stretch it).
    counters = dict(site.counters(), runs=0, solver_calls=0,
                    warm_start_hits=0)
    raw = {"ack": [], "repro": [], "wait": []}
    scaled = {"repro": [], "wait": []}
    by_label: Dict[str, List[float]] = {}
    busy = scaled_busy = 0.0
    for bug, recording, body, acked, took, began in bodies:
        factor = calibration.factor(began, began + took)
        busy += took
        scaled_busy += took * factor
        raw["ack"].append(acked)
        reason = _check(body, site.pipeline(bug.kind).program, recording)
        if reason:
            failures[reason] = failures.get(reason, 0) + 1
            continue
        report = body["report"]
        counters["runs"] += report["runs"]
        counters["solver_calls"] += report["solver_calls"]
        counters["warm_start_hits"] += report["warm_start_hits"]
        raw["repro"].append(took)
        raw["wait"].append(took - acked)
        scaled["repro"].append(took * factor)
        scaled["wait"].append((took - acked) * factor)
        by_label.setdefault(bug.label, []).append(took)

    repro = summarize(raw["repro"])
    ack = summarize(raw["ack"])
    wait = summarize(raw["wait"])
    reproduced = len(raw["repro"])
    failed = sum(failures.values())
    setup_s = percentile([took for _start, took in setup], 50)
    named = [
        ("setup_s", setup_s, "s", f"median of {len(setup)} serve cold starts"),
        ("repro_p50_s", repro["p50"], "s", f"n={repro['n']}"),
        ("repro_gmean_s", geomean(raw["repro"]), "s",
         f"geometric mean, n={repro['n']}"),
        (f"repro_p{repro['tail_pct']}_s", repro["tail"], "s",
         f"n={repro['n']}"),
        ("upload_ack_p50_ms", ack["p50"] * 1e3, "ms", f"n={ack['n']}"),
        ("report_p50_s", wait["p50"], "s",
         f"upload ack -> report in hand, n={wait['n']}"),
        ("report_gmean_s", geomean(raw["wait"]), "s",
         f"geometric mean, n={wait['n']}"),
        ("bugs_per_min", 60.0 * reproduced / busy, "1/min",
         f"{reproduced} bugs in {busy:.2f} s"),
        ("record_overhead_pct", site.overhead_pct(), "%",
         f"mean of n={len(site.overheads)} dynamic+static recordings"),
        ("peak_rss_mb", server.peak_rss_mb, "MB", "serve process"),
        ("prep_s", prep_s, "s", "user-site analysis + recording, untimed"),
        calibration.line(),
    ]
    for label, values in sorted(by_label.items()):
        named.append((f"repro_p50_s[{label}]", percentile(values, 50), "s",
                      f"n={len(values)}"))
    return {
        "attempted": len(bugs),
        "failed": failed,
        "correct": failed == 0,
        "failures": failures,
        "time_capped": failures.get("time-capped", 0),
        "metrics": {
            "setup_s": percentile([calibration.scaled(start, took)
                                   for start, took in setup], 50),
            "op_gmean": geomean(scaled["repro"]) * 1e3,
            "throughput": reproduced / scaled_busy,
            "stage2_gmean": geomean(scaled["wait"]) * 1e3,
            "record_overhead_pct": site.overhead_pct(),
            "peak_rss_mb": server.peak_rss_mb,
        },
        "named": named,
        "counters": dict(counters, bugs=len(bugs), rounds=rounds,
                         searches_run=stats["stats"]["searches_run"],
                         inbox_traces=stats["inbox"]["traces"],
                         dedup_ratio=stats["stats"].get("dedup_ratio"),
                         client_retries=client.stats["retries"]),
        "probe": probe_failures,
        "ops": ops,
        "notes": [f"known-defect probe on a serve of its own, 2 failed "
                  f"operations outside attempted/failed: "
                  f"{'; '.join(probe_failures)}"],
        "loop": f"closed, 1 client, {len(bugs)} distinct bugs "
                f"({rounds} rounds of 8) + 2 known-defect probe bugs",
    }
