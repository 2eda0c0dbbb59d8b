"""Load generator for the network trace-ingestion layer (``repro loadgen``).

Simulates the paper's reporting fleet against a live
:class:`~repro.service.net.UploadServer`: C client threads ship a
duplicate-heavy batch of bug reports over TCP, optionally through the
seeded client-side fault injector (drops, truncations, in-flight
corruption, slow-loris stalls), plus a poison client uploading garbage
that the rejection ledger must absorb.  :func:`run_fleet` returns what
happened to every upload; ``python -m repro loadgen`` turns that into its
pass/fail summary, and ``tests/test_net.py`` asserts on it directly.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.core.config import PipelineConfig
from repro.instrument.methods import InstrumentationMethod
from repro.service import (
    FaultInjector,
    FaultSpec,
    UploadClient,
    UploadRejected,
    workload_pipeline,
)
from repro.trace import dump_trace_bytes, trace_from_recording

__all__ = ["FLEETS", "record_payloads", "run_fleet"]

#: ``(workload, copies)`` per fleet: how many users ship each bug.
FLEETS: Dict[str, List[Tuple[str, int]]] = {
    "smoke": [("mkdir-bug", 3), ("mkfifo-bug", 2)],
    "full": [("mkdir-bug", 6), ("mkfifo-bug", 4), ("diff-exp1", 2),
             ("paste-bug", 4)],
}


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
