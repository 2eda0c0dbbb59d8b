"""Crash-recovery: SIGKILL the live server mid-ingest, restart, verify.

The crash harness runs the real CLI entry point (``python -m repro serve``)
in a subprocess with an injected crash point — the server SIGKILLs *itself*
the first time execution reaches the named location, the deterministic
stand-in for ``kill -9`` landing at exactly that moment.  A restart on the
same root must then recover to a state where:

* no **acknowledged** trace is lost (an acked upload is always in the inbox
  after restart, directly or via the restart's spool poll);
* nothing is ingested twice (the client's idempotent retry dedups against
  the recovered state instead of re-ingesting);
* no cluster is searched twice (one search per cluster, ever — a second
  process call runs zero searches).

The four crash points cover every window of the ack protocol::

    temp write + fsync -> [spool.after_temp] -> rename ->
    [spool.after_replace] -> inbox ingest -> [net.after_ingest] ->
    ack sent -> [net.after_ack]

A restart deletes the ``*.part`` temp the first window leaves behind.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service import UploadClient, UploadFailed, UploadServer

from test_net import net_config, record_trace_bytes

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: crash point -> (upload is acked, restart recovers a spool file,
#:                 inbox already holds the trace after restart)
CRASH_POINTS = {
    "spool.after_temp": (False, False, False),
    "spool.after_replace": (False, True, True),
    "net.after_ingest": (False, False, True),
    "net.after_ack": (True, False, True),
}


@pytest.fixture(scope="module")
def mkdir_bytes() -> bytes:
    return record_trace_bytes("mkdir-bug")


def launch_server(root: str, port_file: str, crash_points=(),
                  extra_args=()) -> subprocess.Popen:
    argv = [sys.executable, "-m", "repro", "serve", "--root", root,
            "--port-file", port_file]
    if crash_points:
        argv += ["--faults", json.dumps({"crash_points": list(crash_points)})]
    argv += list(extra_args)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen(argv, env=env, cwd=REPO_ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def wait_for_port(port_file: str, proc: subprocess.Popen,
                  timeout: float = 30.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(port_file):
            return int(open(port_file).read().strip())
        if proc.poll() is not None:
            raise AssertionError(
                f"server died before binding: {proc.stderr.read().decode()}")
        time.sleep(0.05)
    raise AssertionError("server never wrote its port file")


def wait_for_death(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    try:
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    return proc.returncode


@pytest.mark.parametrize("crash_point", sorted(CRASH_POINTS))
def test_sigkill_mid_ingest_recovers_exactly_once(tmp_path, mkdir_bytes,
                                                  crash_point):
    acked, recovers_spool_file, ingested_before_crash = \
        CRASH_POINTS[crash_point]
    root = str(tmp_path / "svc")
    port_file = str(tmp_path / "port")
    proc = launch_server(root, port_file, crash_points=[crash_point])
    receipt = None
    try:
        port = wait_for_port(port_file, proc)
        client = UploadClient("127.0.0.1", port, client_id="victim",
                              max_attempts=3, base_delay=0.01, timeout=10.0)
        if acked:
            receipt = client.upload(mkdir_bytes)
            assert receipt.trace_id
        else:
            # The server dies before the acknowledgement: every retry then
            # fails to connect, and the client reports honest failure --
            # nothing was promised, so nothing may be silently dropped.
            with pytest.raises((UploadFailed, OSError)):
                client.upload(mkdir_bytes)
        returncode = wait_for_death(proc)
        assert returncode == -signal.SIGKILL, (
            f"expected SIGKILL at {crash_point}, got {returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    # Restart on the crashed root: the temp sweep + spool poll.
    revived = UploadServer(root, config=net_config())
    try:
        assert not [name for name in os.listdir(revived.spool_root)
                    if name.endswith(".part")]
        assert len(revived.recovered) == (1 if recovers_spool_file else 0)
        described = revived.service.inbox.describe()
        if acked:
            # The acknowledged trace survived the kill.
            assert described["traces"] == 1
            assert receipt.trace_id in revived.service.inbox.traces
        assert described["traces"] == (1 if ingested_before_crash else 0)

        # The client retries its upload against the revived server (the
        # un-acked cases) or re-ships after a lost local state (the acked
        # case): either way, exactly one copy exists afterwards.
        revived.start()
        retry_client = UploadClient("127.0.0.1", revived.port,
                                    client_id="victim")
        retry = retry_client.upload(mkdir_bytes)
        assert retry.duplicate_upload == ingested_before_crash
        assert revived.service.inbox.describe()["traces"] == 1
        if acked:
            assert retry.trace_id == receipt.trace_id

        # One cluster, one search, ever: processing runs exactly one
        # search, and a second call runs none.
        first = retry_client.process()
        assert first["stats"]["searches_run"] == 1
        assert all(entry["reproduced"] for entry in first["reports"].values())
        again = retry_client.process()
        assert again["stats"]["searches_run"] == 1  # unchanged: no re-search
        assert again["reports"] == {}
    finally:
        revived.shutdown()


def test_sigkill_after_search_never_searches_again(tmp_path, mkdir_bytes):
    # The done-cluster half of the exactly-once contract across a hard
    # kill: search completes, reports persist, then the server is killed
    # from outside; the restarted server serves the old report and runs
    # zero new searches.
    root = str(tmp_path / "svc")
    port_file = str(tmp_path / "port")
    proc = launch_server(root, port_file)
    try:
        port = wait_for_port(port_file, proc)
        client = UploadClient("127.0.0.1", port, client_id="steady")
        receipt = client.upload(mkdir_bytes)
        processed = client.process()
        assert processed["stats"]["searches_run"] == 1
        os.kill(proc.pid, signal.SIGKILL)
        assert wait_for_death(proc) == -signal.SIGKILL
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    revived = UploadServer(root, config=net_config()).start()
    try:
        retry_client = UploadClient("127.0.0.1", revived.port,
                                    client_id="steady")
        body = retry_client.report(receipt.trace_id)
        assert body["status"] == "done"
        assert body["report"]["reproduced"]
        again = retry_client.process()
        assert again["stats"]["searches_run"] == 0
        assert again["reports"] == {}
    finally:
        revived.shutdown()


def test_sigkill_mid_search_resumes_byte_identical(tmp_path, mkdir_bytes):
    # The search half of crash recovery: the server SIGKILLs itself the
    # moment the supervisor first observes a search checkpoint on disk —
    # the deterministic stand-in for kill -9 landing mid-search.  A
    # restarted server must resume that search from the surviving snapshot
    # and fan out a report byte-identical to the undisturbed single-shot
    # run: exactly-once for searches, not just for ingests.
    import threading

    from repro.service import ReproService

    base_config = net_config()
    with ReproService(str(tmp_path / "inline"), config=base_config) as svc:
        svc.ingest_bytes(mkdir_bytes)
        (baseline,) = svc.process().values()
    base = baseline.to_json()

    root = str(tmp_path / "svc")
    port_file = str(tmp_path / "port")
    proc = launch_server(root, port_file,
                         crash_points=["supervisor.after_checkpoint"],
                         extra_args=["--checkpoint-every", "1"])
    receipt = None
    try:
        port = wait_for_port(port_file, proc)
        client = UploadClient("127.0.0.1", port, client_id="searcher",
                              timeout=10.0)
        receipt = client.upload(mkdir_bytes)

        # process() dies with the server; run it from a thread and only
        # require that the server went down by SIGKILL with a checkpoint
        # left on disk.
        def doomed_process():
            try:
                client.process()
            except Exception:
                pass

        threading.Thread(target=doomed_process, daemon=True).start()
        assert wait_for_death(proc, timeout=60) == -signal.SIGKILL
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    checkpoints = os.listdir(os.path.join(root, "checkpoints"))
    assert any(name.endswith(".ckpt") for name in checkpoints), checkpoints

    revived = UploadServer(
        root, config=net_config(checkpoint_every_runs=1)).start()
    try:
        retry_client = UploadClient("127.0.0.1", revived.port,
                                    client_id="searcher")
        processed = retry_client.process()
        assert processed["stats"]["searches_run"] == 1
        body = retry_client.report(receipt.trace_id)
        assert body["status"] == "done"
        report = body["report"]
        for field in ("found_input", "runs", "run_records",
                      "pending_stats", "crash_site", "reproduced"):
            assert report[field] == base[field], field
        # Terminal search: its snapshot is gone, and processing again
        # runs no second search.
        leftover = os.listdir(os.path.join(root, "checkpoints"))
        assert not any(name.endswith(".ckpt") for name in leftover)
        again = retry_client.process()
        assert again["stats"]["searches_run"] == 1
        assert again["reports"] == {}
    finally:
        revived.shutdown()


def test_graceful_sigterm_drains_and_acks(tmp_path, mkdir_bytes):
    # SIGTERM (the clean counterpart of the kill -9 cases): the CLI drains
    # the ingest queue, so the just-acked upload is durable and the server
    # exits 0.
    root = str(tmp_path / "svc")
    port_file = str(tmp_path / "port")
    proc = launch_server(root, port_file)
    try:
        port = wait_for_port(port_file, proc)
        client = UploadClient("127.0.0.1", port, client_id="polite")
        receipt = client.upload(mkdir_bytes)
        proc.send_signal(signal.SIGTERM)
        assert wait_for_death(proc) == 0
        stdout = proc.stdout.read().decode()
        assert "drained" in stdout
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    revived = UploadServer(root, config=net_config())
    try:
        assert revived.recovered == []
        assert receipt.trace_id in revived.service.inbox.traces
    finally:
        revived.shutdown()
