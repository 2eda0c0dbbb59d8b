"""Load-generator bench for the network trace-ingestion layer.

Simulates the paper's reporting fleet against a live
:class:`~repro.service.net.UploadServer`: C client threads ship a
duplicate-heavy batch of bug reports over TCP — once over a clean network
and once through the seeded fault injector (drops, truncations, in-flight
corruption, slow-loris stalls, plus a poison client uploading garbage) —
and the bench records sustained traces/sec and p99 ingest latency (read
from the ``service.ingest_latency`` histogram) into the ``net`` key of
``BENCH_replay.json``.

Every row re-asserts the robustness contract on the way out:

* zero lost reports — every acknowledged upload has a reproduction report;
* the rejection ledger absorbed exactly the poison uploads;
* every acked report's explored search tree is **byte-identical** to
  running that trace alone through ``Pipeline.reproduce_from_trace`` —
  faults on the wire never leak into reproduction results.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.core.config import PipelineConfig
from repro.instrument.methods import InstrumentationMethod
from repro.replay.budget import ReplayBudget
from repro.service import (
    FaultInjector,
    FaultSpec,
    UploadClient,
    UploadRejected,
    UploadServer,
    outcome_fingerprint,
    workload_pipeline,
)
from repro.telemetry import histogram_quantile
from repro.trace import dump_trace_bytes, trace_from_recording

__all__ = ["FLEETS", "FAULTY_RATES", "net_rows", "record_payloads",
           "run_fleet"]

#: ``(workload, copies)`` per fleet: how many users ship each bug.
FLEETS: Dict[str, List[Tuple[str, int]]] = {
    "smoke": [("mkdir-bug", 3), ("mkfifo-bug", 2)],
    "full": [("mkdir-bug", 6), ("mkfifo-bug", 4), ("diff-exp1", 2),
             ("paste-bug", 4)],
}

#: The fault mix of the chaos run (client-side network damage rates).
FAULTY_RATES: Dict[str, float] = {
    "drop_rate": 0.2,
    "truncate_rate": 0.2,
    "corrupt_rate": 0.15,
    "slow_rate": 0.1,
}


def fleet_config() -> PipelineConfig:
    config = PipelineConfig(
        backend="vm",
        replay_budget=ReplayBudget(max_runs=3000, max_seconds=120),
        telemetry_enabled=True)  # arrival stamps -> ingest latency p99
    config.service.read_timeout_seconds = 0.3  # sheds slow-loris fast
    return config


def record_payloads(fleet: List[Tuple[str, int]], config: PipelineConfig
                    ) -> List[Tuple[str, bytes]]:
    """The fleet's uploads, in ship order: ``[(workload, trace bytes)...]``.

    Each workload is recorded once; its duplicates are the same bytes
    shipped by different simulated users (distinct client ids), which is
    exactly what a crash fleet hitting one bug produces.
    """

    payloads: List[Tuple[str, bytes]] = []
    for workload, copies in fleet:
        pipeline, environment = workload_pipeline(workload, config=config)
        plan = pipeline.make_plan(InstrumentationMethod.ALL_BRANCHES,
                                  environment=environment)
        recording = pipeline.record(plan, environment)
        data = dump_trace_bytes(trace_from_recording(
            recording, scaffold=True, program_name=workload))
        payloads.extend((workload, data) for _ in range(copies))
    return payloads


def run_fleet(host: str, port: int, payloads: List[Tuple[str, bytes]],
              clients: int = 3, fault_spec: Optional[FaultSpec] = None,
              seed: int = 0, timeout: float = 1.0, max_attempts: int = 12,
              poison: int = 0) -> Dict[str, object]:
    """Ship *payloads* from a fleet of client threads; return the summary.

    Uploads are dealt round-robin over ``clients`` threads, each with its
    own client id and (when *fault_spec* is given) its own seeded injector
    — so each client's damage schedule is deterministic.  ``poison`` adds
    that many garbage uploads from a dedicated client, which must be
    permanently rejected (they feed the rejection ledger, not the inbox).
    """

    lanes: List[List[Tuple[int, str, bytes]]] = [[] for _ in range(clients)]
    for index, (workload, data) in enumerate(payloads):
        lanes[index % clients].append((index, workload, data))
    receipts: Dict[int, object] = {}
    failures: Dict[int, str] = {}
    injectors: List[FaultInjector] = []
    client_stats: List[Dict[str, int]] = []
    lock = threading.Lock()

    def ship(lane_index: int, lane: List[Tuple[int, str, bytes]]) -> None:
        faults = None
        if fault_spec is not None:
            faults = FaultInjector(FaultSpec(
                seed=fault_spec.seed + lane_index,
                drop_rate=fault_spec.drop_rate,
                truncate_rate=fault_spec.truncate_rate,
                corrupt_rate=fault_spec.corrupt_rate,
                slow_rate=fault_spec.slow_rate))
        client = UploadClient(host, port, client_id=f"u{lane_index:02d}",
                              seed=seed + lane_index, timeout=timeout,
                              max_attempts=max_attempts, faults=faults)
        for index, _workload, data in lane:
            try:
                receipt = client.upload(data)
            except Exception as exc:  # noqa: BLE001 - recorded, asserted on
                with lock:
                    failures[index] = f"{type(exc).__name__}: {exc}"
                continue
            with lock:
                receipts[index] = receipt
        with lock:
            if faults is not None:
                injectors.append(faults)
            client_stats.append(dict(client.stats))

    threads = [threading.Thread(target=ship, args=(i, lane), daemon=True)
               for i, lane in enumerate(lanes)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start

    rejected_uploads = 0
    if poison:
        poison_client = UploadClient(host, port, client_id="poison",
                                     seed=seed + 1000, timeout=timeout,
                                     max_attempts=3)
        for index in range(poison):
            try:
                poison_client.upload(
                    b"REPROTRC garbage payload %d " % index * 20)
            except UploadRejected:
                rejected_uploads += 1

    injected: Dict[str, int] = {}
    for injector in injectors:
        for kind, count in injector.counts().items():
            injected[kind] = injected.get(kind, 0) + count
    return {
        "uploads": len(payloads),
        "acked": len(receipts),
        "failed": dict(failures),
        "clients": clients,
        "wall_seconds": round(wall, 4),
        "traces_per_sec": round(len(receipts) / wall, 2) if wall else None,
        "attempts": sum(s["attempts"] for s in client_stats),
        "retries": sum(s["retries"] for s in client_stats),
        "connection_errors": sum(s["connection_errors"]
                                 for s in client_stats),
        "faults_injected": injected,
        "poison_uploads": poison,
        "poison_rejected": rejected_uploads,
        "receipts": receipts,
    }


def _p99(server: UploadServer) -> Optional[float]:
    value = histogram_quantile(server.service.telemetry(),
                               "service.ingest_latency", 0.99)
    if value is None or math.isinf(value):
        return None
    return value


def net_rows(smoke: bool = False) -> List[Dict[str, object]]:
    """One row per scenario (clean / fault-injected), invariants asserted."""

    fleet = FLEETS["smoke" if smoke else "full"]
    config = fleet_config()
    payloads = record_payloads(fleet, config)
    scenarios = [
        ("net-fleet-clean", None, 0),
        ("net-fleet-faulty",
         FaultSpec(seed=1234, **FAULTY_RATES), 2),
    ]
    rows: List[Dict[str, object]] = []
    for scenario, fault_spec, poison in scenarios:
        workdir = tempfile.mkdtemp(prefix="repro-net-bench-")
        server = UploadServer(os.path.join(workdir, "service"),
                              config=config).start()
        try:
            summary = run_fleet(server.host, server.port, payloads,
                                clients=2 if smoke else 4,
                                fault_spec=fault_spec, seed=7,
                                timeout=0.8, poison=poison)
            assert not summary["failed"], summary["failed"]
            assert summary["acked"] == len(payloads)
            assert summary["poison_rejected"] == poison
            if poison:
                assert len(server.service.inbox.rejected) >= poison

            # Run the searches and fan reports out, through the wire.
            control = UploadClient(server.host, server.port,
                                   client_id="control", seed=99)
            processed = control.process()
            receipts = summary.pop("receipts")
            lost = [receipt.trace_id for receipt in receipts.values()
                    if control.report(receipt.trace_id).get("status")
                    != "done"]
            assert not lost, f"acknowledged traces without reports: {lost}"

            # Byte-identity vs the single-shot path, per workload: wire
            # faults must never leak into reproduction results.
            by_workload: Dict[str, bytes] = {}
            for (workload, data) in payloads:
                by_workload.setdefault(workload, data)
            for workload, data in by_workload.items():
                path = os.path.join(workdir, f"{workload}.trace")
                with open(path, "wb") as handle:
                    handle.write(data)
                pipeline, _environment = workload_pipeline(workload,
                                                           config=config)
                single = pipeline.reproduce_from_trace(path)
                expected = outcome_fingerprint(single.outcome)
                for index, (shipped, _data) in enumerate(payloads):
                    if shipped != workload:
                        continue
                    report = server.service.report(
                        receipts[index].trace_id)
                    assert report.fingerprint() == expected, (
                        f"{workload}: fleet report != single-shot")

            stats = server.service.stats()
            rows.append({
                "scenario": scenario,
                "faults": (fault_spec.to_json()
                           if fault_spec is not None else None),
                "uploads": summary["uploads"],
                "acked": summary["acked"],
                "clients": summary["clients"],
                "attempts": summary["attempts"],
                "retries": summary["retries"],
                "connection_errors": summary["connection_errors"],
                "faults_injected": summary["faults_injected"],
                "poison_rejected": summary["poison_rejected"],
                "lost_reports": 0,
                "wall_seconds": summary["wall_seconds"],
                "traces_per_sec": summary["traces_per_sec"],
                "p99_ingest_seconds": _p99(server),
                "searches_run": stats.searches_run,
                "dedup_ratio": (None if stats.dedup_ratio is None
                                else round(stats.dedup_ratio, 2)),
                "reports_fanned_out": int(
                    processed["stats"]["reports_fanned_out"]),
            })
        finally:
            server.shutdown()
            shutil.rmtree(workdir, ignore_errors=True)
    return rows
