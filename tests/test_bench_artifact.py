"""``BENCH_replay.json``: one merge helper, one writer that owns the layout.

Three bench files write the artifact in any order: bench_replay_search
(:func:`replay_search_exp.write_artifact`), bench_backends (the
``backends`` key) and bench_planner (the ``planner`` key).
"""

from __future__ import annotations

import json

from repro.experiments import backend_exp, planner_exp, replay_search_exp

ROWS = [{"scenario": "mkdir-bug", "runs": 3}]
BACKENDS = [{"workload": "mkdir", "backend": "vm", "steps": 10}]
PLANNER = {"deterministic": True, "workloads": {}}


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def test_write_artifact_drops_keys_no_writer_owns(tmp_path):
    path = str(tmp_path / "BENCH_replay.json")
    with open(path, "w") as handle:
        json.dump({"configurations": ["serial", "process"],
                   "backends": BACKENDS, "planner": PLANNER}, handle)
    replay_search_exp.write_artifact(ROWS, path=path)
    payload = _load(path)
    assert "configurations" not in payload
    assert payload["backends"] == BACKENDS
    assert payload["planner"] == PLANNER
    assert payload["rows"] == ROWS


def test_writers_merge_in_any_order(tmp_path):
    path = str(tmp_path / "BENCH_replay.json")
    backend_exp.merge_backend_artifact(BACKENDS, path=path)
    replay_search_exp.write_artifact(ROWS, path=path, net=[{"clients": 2}])
    planner_exp.merge_planner_artifact(PLANNER, path=path)
    payload = _load(path)
    assert sorted(payload) == ["backends", "benchmark", "net", "planner",
                               "rows"]
    assert payload["backends"] == BACKENDS
    assert payload["planner"] == PLANNER


def test_unreadable_artifact_counts_as_empty(tmp_path):
    path = str(tmp_path / "BENCH_replay.json")
    with open(path, "w") as handle:
        handle.write("{not json")
    planner_exp.merge_planner_artifact(PLANNER, path=path)
    assert _load(path) == {"planner": PLANNER}
