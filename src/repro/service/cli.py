"""Record a workload crash to a trace file, or reproduce one from a file.

The command-line face of the paper's user/developer split, packaged as
``python -m repro`` (also installed as the ``repro`` console script and
wrapped by ``scripts/trace_tool.py``).  ``record`` plays the user machine
(instrument, run, crash, write the compact bug report); ``replay`` plays the
developer machine for a single trace; ``inbox`` and ``serve-batch`` play the
developer machine at fleet scale — ingest batches of traces into a
deduplicating inbox and run one replay search per ``(fingerprint, crash
site)`` cluster::

    python -m repro record --workload diff-exp1 --out spool/u1.trace
    python -m repro record --workload diff-exp1 --out spool/u2.trace
    python -m repro serve-batch --root inbox --spool spool

Exit codes: 0 success (replay: crash reproduced; serve-batch: every cluster
reproduced), 1 replay search failed, 2 usage / trace-format / fingerprint
errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict

from repro import (InstrumentationMethod, PipelineConfig, ReplayBudget,
                   TraceError, load_trace)
from repro.service import ReproService, workload_pipeline
from repro.service.service import ANALYSIS_FREE_METHODS
from repro.trace import write_atomic
from repro.workloads import workload_registry


#: The replay budget of every command; ``--max-runs``/``--max-seconds``
#: override it where a command has them.
CLI_REPLAY_BUDGET = ReplayBudget(max_runs=3000, max_seconds=120.0)


def build_config(args) -> PipelineConfig:
    """The pipeline and service config for one CLI invocation."""

    config = PipelineConfig(replay_budget=CLI_REPLAY_BUDGET)
    if hasattr(args, "backend"):
        config.backend = args.backend
    if hasattr(args, "no_warm_start"):
        config.replay_warm_start = not args.no_warm_start
    if hasattr(args, "max_runs"):
        config.replay_budget = ReplayBudget(max_runs=args.max_runs,
                                            max_seconds=args.max_seconds)
    if hasattr(args, "service_workers"):
        config.service.workers = args.service_workers
    if getattr(args, "telemetry", False):
        config.telemetry_enabled = True
        config.profile_opcodes = getattr(args, "profile_vm", False)
        config.service.telemetry_jsonl_path = getattr(args, "telemetry_jsonl",
                                                      None)
    return config


def _pipeline_for(workload: str, args):
    """``(pipeline, environment)`` or ``None`` after the usage message."""

    try:
        return workload_pipeline(workload, config=build_config(args))
    except KeyError:
        print(f"unknown workload {workload!r}; see `trace_tool.py list`",
              file=sys.stderr)
        return None


def cmd_list(_args) -> int:
    for name in sorted(workload_registry()):
        print(name)
    return 0


def cmd_record(args) -> int:
    resolved = _pipeline_for(args.workload, args)
    if resolved is None:
        return 2
    pipeline, environment = resolved
    method = InstrumentationMethod(args.method)
    plan = pipeline.make_plan(method, environment=environment)
    recording = pipeline.record_trace(plan, environment, args.out,
                                      scaffold=not args.keep_input_data)
    crash = recording.crash_site
    print(f"recorded {args.workload} -> {args.out}")
    print(f"  bits={len(recording.bitvector)} "
          f"syscall_results={recording.syscall_log.count()} "
          f"crash={crash.function + ':' + str(crash.line) if crash else 'none'}")
    return 0


def cmd_info(args) -> int:
    if getattr(args, "telemetry", False):
        # The storage-observability view: per-section byte sizes + CRC as
        # JSON lines (the same record shape the telemetry sink uses), the
        # first consumer of the JSONL conventions outside the service.
        from repro.trace import describe_sections

        with open(args.trace, "rb") as handle:
            data = handle.read()
        described = describe_sections(data)
        base = {"type": "trace_section", "trace": args.trace,
                "version": described["version"], "crc32": described["crc32"],
                "crc_ok": described["crc_ok"]}
        for section in described["sections"]:
            print(json.dumps(dict(base, name=section["tag"],
                                  bytes=section["bytes"]), sort_keys=True))
        print(json.dumps({"type": "trace_total", "trace": args.trace,
                          "version": described["version"],
                          "crc32": described["crc32"],
                          "crc_ok": described["crc_ok"],
                          "header_bytes": described["header_bytes"],
                          "payload_bytes": described["payload_bytes"],
                          "total_bytes": described["total_bytes"]},
                         sort_keys=True))
        return 0
    from repro.planner import plan_fingerprint_digest, plan_version_of

    trace = load_trace(args.trace)
    payload = dict(trace.describe())
    # Which plan generation this trace was recorded under: the fingerprint
    # digest the inbox clusters by, and the ledger version carried in a
    # replanned plan's method string (0 = unversioned base plan).
    payload["plan_fingerprint"] = plan_fingerprint_digest(trace.plan)
    payload["plan_version"] = plan_version_of(trace.plan.method) or 0
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def profile_from_records(records) -> Dict[str, int]:
    """``{opcode name: count}`` from the ``vm.opcode.*`` telemetry records.

    Accepts the dict stream of :func:`repro.telemetry.read_jsonl` (or a
    registry snapshot's ``jsonl_lines`` parsed the same way).
    """

    counts: Dict[str, int] = {}
    for record in records:
        name = record.get("name", "")
        if not name.startswith("vm.opcode."):
            continue
        value = record.get("value", record.get("count", 0))
        counts[name[len("vm.opcode."):]] = \
            counts.get(name[len("vm.opcode."):], 0) + int(value)
    return counts


def render_dispatch_table(counts: Dict[str, int], top: int = 12) -> str:
    """The ``python -m repro stats --opcodes`` view of a dispatch profile.

    Top-*top* opcodes by exact execution count, with each opcode's share of
    all dispatches and its observation class — ``logged`` (branch opcodes
    that append to the bitvector), ``bare`` (plan-specialized unlogged
    branches) or ``-`` (everything else).  The footer totals the
    logged-vs-bare split, which the distinct ``*_LOGGED`` / ``*_BARE``
    opcode forms make exact by construction, and the mean number of opcode
    tests a dispatch paid in the VM's arm order
    (:func:`~repro.vm.machine.mean_arm_position`).
    """

    from repro.vm.machine import mean_arm_position

    if not counts:
        return "(no vm.opcode.* records)"
    total = sum(counts.values())
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    width = max(len(name) for name, _count in ranked[:top])
    lines = [f"{'opcode':<{width}}  {'count':>12}  {'share':>6}  class"]
    for name, count in ranked[:top]:
        if name.endswith("_LOGGED"):
            klass = "logged"
        elif name.endswith("_BARE"):
            klass = "bare"
        else:
            klass = "-"
        lines.append(f"{name:<{width}}  {count:>12}  "
                     f"{100.0 * count / total:>5.1f}%  {klass}")
    logged = sum(c for n, c in counts.items() if n.endswith("_LOGGED"))
    bare = sum(c for n, c in counts.items() if n.endswith("_BARE"))
    lines.append(f"total dispatches: {total}  "
                 f"(logged branches: {logged}, bare branches: {bare}, "
                 f"shown: {min(top, len(ranked))}/{len(ranked)} opcodes)  "
                 f"mean arms tested per dispatch: "
                 f"{mean_arm_position(counts):.2f}")
    return "\n".join(lines)


_NO_PROFILE_LINE = ("no profile recorded: the telemetry source has no "
                    "vm.opcode.* counters (record with --telemetry "
                    "--profile-vm)")


def _no_service_state(root: str) -> bool:
    """True, after saying so, when *root* is not a directory.

    A mistyped root must not read as an idle service, nor be created.
    """

    if os.path.isdir(root):
        return False
    print(f"error: no service state at {root}", file=sys.stderr)
    return True


def cmd_stats(args) -> int:
    """Render telemetry: a service root's live counters or a JSONL sink."""

    from repro.telemetry import read_jsonl, render_summary

    service = snapshot = None
    if args.jsonl:
        records = read_jsonl(args.jsonl)
    elif _no_service_state(args.root):
        return 2
    else:
        service = ReproService(args.root, config=build_config(args))
        snapshot = service.telemetry()
        records = [json.loads(line) for line in snapshot.jsonl_lines()]
    if args.opcodes is not None:
        counts = profile_from_records(records)
        if not counts:
            print(_NO_PROFILE_LINE)
            return 0
        print(render_dispatch_table(counts, top=args.opcodes))
        return 0
    if args.jsonl:
        print(render_summary(records))
        return 0
    if args.json:
        print(json.dumps(service.stats(), sort_keys=True))
        print(json.dumps(snapshot.to_json(), sort_keys=True))
    else:
        print(f"inbox={json.dumps(service.inbox.describe(), sort_keys=True)}")
        print(render_summary(records))
    return 0


def cmd_replay(args) -> int:
    resolved = _pipeline_for(args.workload, args)
    if resolved is None:
        return 2
    pipeline, _environment = resolved
    trace = load_trace(args.trace)
    expect_plan = None
    if trace.plan.method in ANALYSIS_FREE_METHODS:
        expect_plan = pipeline.make_plan(InstrumentationMethod(trace.plan.method))
    report = pipeline.reproduce_from_trace(trace, expect_plan=expect_plan)
    outcome = report.outcome
    print(f"replay of {args.trace} ({trace.scenario}, method={trace.plan.method}): "
          f"{outcome.summary()}")
    print(f"  search: stop_reason={outcome.stop_reason} "
          f"vm_steps={outcome.vm_steps} repairs={outcome.repairs} "
          f"repair_blocked={json.dumps(outcome.repair_blocked, sort_keys=True)} "
          f"solver_unknowns={outcome.solver_unknowns} "
          f"solver_nodes={outcome.solver_nodes} "
          f"compile_cache_lookups={outcome.compile_cache_lookups}")
    # What the search committed, identical for every backend.
    found = json.dumps(sorted(outcome.found_input.items()))
    print(f"  digest: runs={outcome.runs} solver_calls={outcome.solver_calls} "
          f"warm_start_hits={outcome.warm_start_hits} "
          f"pending={json.dumps(outcome.pending_stats, sort_keys=True)} "
          f"input_sha256={hashlib.sha256(found.encode()).hexdigest()}")
    if outcome.reproduced:
        print(f"  crash={outcome.crash_site.function}:{outcome.crash_site.line}")
        shown = dict(sorted(outcome.found_input.items())[:12])
        print(f"  input ({len(outcome.found_input)} vars, first 12): {shown}")
    return 0 if outcome.reproduced else 1


def _print_ingests(results) -> None:
    for result in results:
        print(f"ingested {result.trace_id} cluster={result.cluster_id} "
              f"duplicate={result.duplicate} program={result.program} "
              f"crash={result.crash_site or 'none'} bits={result.bits}")


def cmd_inbox(args) -> int:
    service = ReproService(args.root, config=build_config(args))
    ingested = []
    for path in args.ingest or ():
        ingested.append(service.ingest_file(path))
    if args.spool:
        ingested.extend(service.poll_spool(args.spool))
    _print_ingests(ingested)
    for path, reason in sorted(service.inbox.rejected.items()):
        print(f"rejected {path}: {reason}", file=sys.stderr)
    for cluster in sorted(service.inbox.clusters.values(),
                          key=lambda c: c.arrival):
        print(f"cluster {cluster.cluster_id} [{cluster.status}] "
              f"bug={cluster.bug_key} program={cluster.program} "
              f"crash={cluster.crash_site or 'none'} "
              f"members={len(cluster.members)} bits={cluster.bits}")
    print(f"inbox={json.dumps(service.inbox.describe(), sort_keys=True)}")
    return 0


def cmd_serve(args) -> int:
    """Run the concurrent trace-upload server until SIGTERM/SIGINT."""

    import signal
    import threading

    from repro.service import FaultInjector, FaultSpec, UploadServer

    config = build_config(args)
    overrides = (("max_trace_bytes", "max_trace_bytes"),
                 ("queue_depth", "ingest_queue_depth"),
                 ("read_timeout", "read_timeout_seconds"),
                 ("client_quota", "client_quota"),
                 ("search_deadline", "search_deadline_seconds"),
                 ("checkpoint_every", "checkpoint_every_runs"),
                 ("search_retries", "max_search_retries"),
                 ("replan_after", "replan_after_reports"),
                 ("replan_seed", "replan_seed"))
    for arg_name, field_name in overrides:
        value = getattr(args, arg_name)
        if value is not None:
            setattr(config.service, field_name, value)
    faults = None
    if args.faults:
        faults = FaultInjector(FaultSpec.from_json(json.loads(args.faults)))

    server = UploadServer(args.root, config=config, host=args.host,
                          port=args.port, faults=faults)
    if args.port_file:
        # A watcher that sees the file sees the full port.
        write_atomic(args.port_file, str(server.port).encode("ascii"))

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    server.start()
    print(f"serving on {server.host}:{server.port} root={args.root} "
          f"recovered={len(server.recovered)}", flush=True)
    try:
        while not stop.is_set():
            stop.wait(0.2)
    finally:
        server.shutdown()  # graceful drain: admitted uploads spool + ack first
    print(f"drained; "
          f"stats={json.dumps(server.service.stats(), sort_keys=True)}")
    return 0


def cmd_loadgen(args) -> int:
    """Ship a duplicate-heavy upload fleet at a running ``serve`` process."""

    from repro.experiments import net_exp
    from repro.service import FaultSpec, UploadClient

    port = args.port
    if args.port_file:
        with open(args.port_file) as handle:
            port = int(handle.read().strip())
    if port is None:
        print("loadgen needs --port or --port-file", file=sys.stderr)
        return 2
    fault_spec = None
    if args.faults:
        fault_spec = FaultSpec.from_json(json.loads(args.faults))

    payloads = net_exp.record_payloads(net_exp.FLEETS[args.fleet],
                                       build_config(args))
    summary = net_exp.run_fleet(args.host, port, payloads,
                                clients=args.clients, fault_spec=fault_spec,
                                seed=args.seed, timeout=args.timeout,
                                max_attempts=args.max_attempts,
                                poison=args.poison)
    receipts = summary.pop("receipts")

    lost = []
    if args.process:
        control = UploadClient(args.host, port, client_id="loadgen-control",
                               timeout=args.timeout)
        control.process()
        for _index, receipt in sorted(receipts.items()):
            body = control.report(receipt.trace_id)
            if body.get("status") != "done":
                lost.append(receipt.trace_id)
    summary["lost_reports"] = sorted(set(lost))
    summary["ok"] = bool(
        not summary["failed"] and not lost
        and summary["acked"] == summary["uploads"]
        and summary["poison_rejected"] == args.poison)
    rendered = json.dumps(summary, indent=2, sort_keys=True)
    print(rendered)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered + "\n")
    return 0 if summary["ok"] else 1


def cmd_replan(args) -> int:
    """Revise instrumentation plans from a service root's fleet history.

    Offline counterpart of ``serve --replan-after``: fold the root's
    reproduced clusters into fleet observations, ask the seeded replanner
    for the next plan version of every observed program, and register the
    revisions in the plan ledger next to the spool.  Clients fetch the new
    versions through the server's ``plan`` op; traces recorded under older
    versions keep working (routed by fingerprint).
    """

    if _no_service_state(args.root):
        return 2
    with ReproService(args.root, config=build_config(args)) as service:
        revisions = service.replan(seed=args.seed,
                                   max_drop_fraction=args.max_drop_fraction)
        ledger = service.plan_ledger
        if not ledger.programs:
            print("no reproduced clusters with stored traces; nothing to "
                  "replan")
            return 0
        for program in sorted(ledger.programs):
            entry = ledger.latest(program)
            if program in revisions:
                revision = entry.revision or {}
                print(f"{program}: v{entry.parent} -> v{entry.version} "
                      f"dropped={len(revision.get('dropped', ()))} "
                      f"added={len(revision.get('added', ()))} "
                      f"logged={len(entry.instrumented)} "
                      "predicted_overhead_delta="
                      f"{revision.get('predicted_overhead_delta_percent')}%")
            else:
                print(f"{program}: converged at v{entry.version} "
                      f"({len(entry.instrumented)} branches logged)")
        print(f"ledger={ledger.path}")
    return 0


def cmd_serve_batch(args) -> int:
    from repro.service import FaultInjector, FaultSpec

    config = build_config(args)
    overrides = (("search_deadline", "search_deadline_seconds"),
                 ("checkpoint_every", "checkpoint_every_runs"),
                 ("search_retries", "max_search_retries"))
    for arg_name, field_name in overrides:
        value = getattr(args, arg_name, None)
        if value is not None:
            setattr(config.service, field_name, value)
    with ReproService(args.root, config=config) as service:
        if args.faults:
            service.search_faults = FaultInjector(
                FaultSpec.from_json(json.loads(args.faults)))
        resumable = service.resume_scan()
        if resumable:
            # Exactly-once across restarts: these clusters had a live search
            # when the previous process died; their checkpoints survive and
            # the supervisor resumes each from its last commit boundary.
            print(f"resuming {len(resumable)} in-flight searches")
        ingested = []
        if args.spool:
            ingested = service.poll_spool(args.spool)
        _print_ingests(ingested)
        for path, reason in sorted(service.inbox.rejected.items()):
            print(f"rejected {path}: {reason}", file=sys.stderr)
        reports = service.process(max_clusters=args.max_clusters)
        failed = 0
        for trace_id in sorted(reports):
            report = reports[trace_id]
            status = "reproduced" if report.reproduced else (
                "error" if report.error else "not reproduced")
            failed += 0 if report.reproduced else 1
            via = f" via={report.duplicate_of}" if report.duplicate_of else ""
            crash = (f"{report.crash_site[0]}:{report.crash_site[1]}"
                     if report.crash_site else "none")
            print(f"report {trace_id} [{status}] cluster={report.cluster_id} "
                  f"runs={report.runs} crash={crash}{via}")
        print(f"stats={json.dumps(service.stats(), sort_keys=True)}")
    return 0 if failed == 0 else 1


def _count_arg(text: str) -> int:
    """An argparse type: a whole number, 0 or more."""

    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a whole number >= 0, not {text!r}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list recordable workload scenarios")

    record = sub.add_parser("record", help="run a workload and write a trace file")
    record.add_argument("--workload", required=True)
    record.add_argument("--out", required=True)
    record.add_argument("--method", default=InstrumentationMethod.ALL_BRANCHES.value,
                        choices=[m.value for m in InstrumentationMethod])
    record.add_argument("--backend", default="vm", choices=["interp", "vm"])
    record.add_argument("--keep-input-data", action="store_true",
                        help="store real input bytes instead of the privacy scaffold")

    info = sub.add_parser("info", help="print a trace file's summary")
    info.add_argument("--trace", required=True)
    info.add_argument("--telemetry", action="store_true",
                      help="print per-section byte sizes and CRC as JSON lines")

    replay = sub.add_parser("replay", help="reproduce a crash from a trace file")
    replay.add_argument("--trace", required=True)
    replay.add_argument("--workload", required=True,
                        help="the developer's copy of the program")
    replay.add_argument("--backend", default="vm", choices=["interp", "vm"])
    replay.add_argument("--no-warm-start", action="store_true")
    replay.add_argument("--max-runs", type=int,
                        default=CLI_REPLAY_BUDGET.max_runs)
    replay.add_argument("--max-seconds", type=float,
                        default=CLI_REPLAY_BUDGET.max_seconds)

    inbox = sub.add_parser("inbox", help="ingest traces into a deduplicating inbox")
    inbox.add_argument("--root", required=True,
                       help="inbox state directory (created if missing)")
    inbox.add_argument("--spool", default=None,
                       help="poll this directory for *.trace spool files")
    inbox.add_argument("--ingest", nargs="*", default=None, metavar="TRACE",
                       help="trace files to ingest directly")

    serve = sub.add_parser(
        "serve-batch",
        help="ingest a spool and run one replay search per deduped cluster")
    serve.add_argument("--root", required=True)
    serve.add_argument("--spool", default=None)
    serve.add_argument("--backend", default="vm", choices=["interp", "vm"])
    serve.add_argument("--no-warm-start", action="store_true")
    serve.add_argument("--service-workers", type=int, default=1,
                       help="cluster searches the supervisor runs at once, "
                            "each in its own process (1 = inline)")
    serve.add_argument("--max-clusters", type=_count_arg, default=None)
    serve.add_argument("--max-runs", type=int,
                       default=CLI_REPLAY_BUDGET.max_runs)
    serve.add_argument("--max-seconds", type=float,
                       default=CLI_REPLAY_BUDGET.max_seconds)
    serve.add_argument("--search-deadline", type=float, default=None,
                       help="per-search wall-clock deadline, seconds "
                            "(0 = none)")
    serve.add_argument("--checkpoint-every", type=int, default=None,
                       help="checkpoint each search every N committed runs "
                            "(0 = never)")
    serve.add_argument("--search-retries", type=int, default=None,
                       help="restarts from checkpoint after a worker crash "
                            "before the cluster is quarantined")
    serve.add_argument("--faults", default=None, metavar="JSON",
                       help="FaultSpec JSON for chaos testing search workers, "
                            'e.g. \'{"worker_kill_rate": 0.1}\'')
    serve.add_argument("--telemetry", action="store_true",
                       help="record metrics/spans during the batch")
    serve.add_argument("--profile-vm", action="store_true",
                       help="with --telemetry: per-opcode VM dispatch counts")
    serve.add_argument("--telemetry-jsonl", default=None, metavar="PATH",
                       help="with --telemetry: append snapshots to this "
                            "JSON-lines sink")

    serve_net = sub.add_parser(
        "serve",
        help="run the concurrent trace-upload server (TCP, length-prefixed "
             "frames) until SIGTERM/SIGINT, then drain gracefully")
    serve_net.add_argument("--root", required=True,
                           help="service state directory (spool + inbox, "
                                "created if missing)")
    serve_net.add_argument("--host", default="127.0.0.1")
    serve_net.add_argument("--port", type=int, default=0,
                           help="TCP port (0 = pick an ephemeral port)")
    serve_net.add_argument("--port-file", default=None, metavar="PATH",
                           help="atomically write the bound port here once "
                                "listening (scripted-startup handshake)")
    serve_net.add_argument("--backend", default="vm",
                           choices=["interp", "vm"])
    serve_net.add_argument("--max-trace-bytes", type=int, default=None,
                           help="reject uploads larger than this many bytes")
    serve_net.add_argument("--queue-depth", type=int, default=None,
                           help="uploads admitted at once; more are "
                                "answered retry-after (backpressure)")
    serve_net.add_argument("--read-timeout", type=float, default=None,
                           help="per-read socket timeout, seconds "
                                "(slow-loris shedding)")
    serve_net.add_argument("--client-quota", type=int, default=None,
                           help="max distinct uploads per client per run "
                                "(0 = unlimited)")
    serve_net.add_argument("--search-deadline", type=float, default=None,
                           help="per-search wall-clock deadline, seconds "
                                "(0 = none)")
    serve_net.add_argument("--checkpoint-every", type=int, default=None,
                           help="checkpoint each search every N committed "
                                "runs (0 = never)")
    serve_net.add_argument("--search-retries", type=int, default=None,
                           help="restarts from checkpoint after a worker "
                                "crash before the cluster is quarantined")
    serve_net.add_argument("--replan-after", type=int, default=None,
                           help="revise instrumentation plans after this "
                                "many fanned-out reports (0 = never; see "
                                "the `replan` subcommand)")
    serve_net.add_argument("--replan-seed", type=int, default=None,
                           help="replanner tie-break seed")
    serve_net.add_argument("--faults", default=None, metavar="JSON",
                           help="FaultSpec JSON for chaos testing, e.g. "
                                '\'{"spool_fail_rate": 0.2, '
                                '"worker_kill_rate": 0.1, '
                                '"crash_points": ["net.after_ingest"]}\'')
    serve_net.add_argument("--telemetry", action="store_true")
    serve_net.add_argument("--profile-vm", action="store_true")
    serve_net.add_argument("--telemetry-jsonl", default=None, metavar="PATH",
                           help="with --telemetry: append snapshots to this "
                                "JSON-lines sink on every process request")

    loadgen = sub.add_parser(
        "loadgen",
        help="ship a duplicate-heavy upload fleet at a running `serve` "
             "process; exits 0 only if nothing was lost")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=None)
    loadgen.add_argument("--port-file", default=None, metavar="PATH",
                         help="read the server port from this file")
    loadgen.add_argument("--fleet", default="smoke",
                         choices=["smoke", "full"])
    loadgen.add_argument("--clients", type=int, default=3,
                         help="concurrent uploading client threads")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--timeout", type=float, default=1.0)
    loadgen.add_argument("--max-attempts", type=int, default=12)
    loadgen.add_argument("--poison", type=int, default=0,
                         help="extra garbage uploads that must be rejected")
    loadgen.add_argument("--faults", default=None, metavar="JSON",
                         help="client-side FaultSpec JSON (drop/truncate/"
                              "corrupt/slow rates)")
    loadgen.add_argument("--process", action="store_true",
                         help="after uploading, trigger replay searches and "
                              "verify every acked upload has a report")
    loadgen.add_argument("--out", default=None, metavar="PATH",
                         help="also write the JSON summary here")

    stats = sub.add_parser(
        "stats", help="render telemetry from a service root or a JSONL sink")
    stats.add_argument("--root", default=None,
                       help="service/inbox state directory")
    stats.add_argument("--jsonl", default=None, metavar="PATH",
                       help="render a telemetry JSON-lines sink file instead")
    stats.add_argument("--json", action="store_true",
                       help="machine-readable output")
    stats.add_argument("--opcodes", nargs="?", const=12, type=int,
                       default=None, metavar="N",
                       help="render the top-N VM dispatch table (vm.opcode.* "
                            "counters, logged-vs-bare branch split) instead "
                            "of the full summary (default N=12)")

    replan = sub.add_parser(
        "replan",
        help="revise instrumentation plans from a service root's reproduced "
             "clusters; registers new versions in the plan ledger")
    replan.add_argument("--root", required=True,
                        help="service/inbox state directory")
    replan.add_argument("--backend", default="vm", choices=["interp", "vm"])
    replan.add_argument("--seed", type=int, default=None,
                        help="replanner tie-break seed (default: config's "
                             "service.replan_seed)")
    replan.add_argument("--max-drop-fraction", type=float, default=None,
                        help="fraction of the droppable branch pool removed "
                             "per generation (default: 0.5)")

    args = parser.parse_args(argv)
    if args.command == "stats" and not (args.root or args.jsonl):
        parser.error("stats needs --root or --jsonl")
    handler = {"list": cmd_list, "record": cmd_record,
               "info": cmd_info, "replay": cmd_replay,
               "inbox": cmd_inbox, "serve-batch": cmd_serve_batch,
               "serve": cmd_serve, "loadgen": cmd_loadgen,
               "stats": cmd_stats, "replan": cmd_replan}[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # Output piped into a pager/grep that closed early (`... | head`):
        # the consumer got what it wanted, not an error on our side.
        return 0
    except TraceError as exc:
        # Bad trace files and mismatched binaries are user-facing outcomes,
        # not tool bugs: report a one-line reason and a distinct exit code
        # instead of a traceback (TraceFormatError covers corruption and
        # version skew, TraceFingerprintMismatch unmatched binaries).
        reason = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
