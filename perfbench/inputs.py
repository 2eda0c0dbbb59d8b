"""Seeded inputs for the three workloads, built with public constructors only.

The seed picks the *contents* of every input (URIs, cookies, bodies, file
lines, changed-line positions); the *shape* of each slot (request count and
methods, file sizes, plan, syscall logging) is fixed by its position in the
run.  Every run therefore has the same mix of cheap and expensive operations
and differs from another seed's run only in the bytes, which keeps the
medians of one seed close to those of the next.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import List

from repro import ConcolicBudget, InstrumentationMethod
from repro.workloads import diffutil, httpgen, userver
from repro.workloads.coreutils import mkdir, mkfifo, mknod, paste

DS = InstrumentationMethod.DYNAMIC_PLUS_STATIC
ALL = InstrumentationMethod.ALL_BRANCHES

#: Analysis budget of every job: binds on iterations.  The wall-clock cap is
#: a safety net far above any job's cost; a job that reaches it is a failed
#: operation (exploration cut by time is not deterministic).
ANALYSIS_BUDGET = ConcolicBudget(max_iterations=16, max_seconds=120.0,
                                 label="bench")

#: Program name per kind: the name the trace carries, which ``serve``
#: resolves through :func:`repro.workloads.workload_registry`.
PROGRAM = {
    "userver": "userver-exp1",
    "diff": "diff-exp1",
    "paste": "paste-bug",
    "mkdir": "mkdir-bug",
    "mknod": "mknod-bug",
    "mkfifo": "mkfifo-bug",
}


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def _uri(rng: random.Random, length: int) -> str:
    return "/" + _word(rng, length - 1)


def userver_requests(rng: random.Random, shape: int) -> List[bytes]:
    """A request mix shaped like uServer experiment *shape* (1-5)."""

    if shape == 1:
        return [httpgen.get_request(_uri(rng, 8))]
    if shape == 2:
        return [httpgen.get_request(_uri(rng, 11)),
                httpgen.get_request(_uri(rng, 8))]
    if shape == 3:
        return [httpgen.get_request(_uri(rng, 11),
                                    cookie=f"sid={rng.randrange(10, 99)}"),
                httpgen.head_request(_uri(rng, 7))]
    if shape == 4:
        body = f"name={_word(rng, 5)}&score={rng.randrange(10, 99)}"
        return [httpgen.post_request(_uri(rng, 7), body=body.encode()),
                httpgen.get_request(_uri(rng, 10))]
    if shape == 5:
        body = f"payload={rng.randrange(10**9, 10**10)}"
        return [httpgen.get_request(_uri(rng, 30)),
                httpgen.post_request(_uri(rng, 7), body=body.encode(),
                                     cookie=f"token={_word(rng, 6)}"),
                httpgen.head_request(_uri(rng, 9))]
    raise ValueError(f"no uServer shape {shape}")


def userver_env(rng: random.Random, shape: int, name: str):
    return userver.environment_for(userver_requests(rng, shape), name=name)


def diff_small_env(rng: random.Random, lines: int, name: str):
    """Two files of seeded words; the first line differs in case.

    The changed line is fixed: where it sits decides whether the search
    needs one solver call of ~65k nodes or a few hundred, and a seeded
    position would make the cost of a slot depend on the seed.
    """

    old = [_word(rng, 6) for _ in range(lines)]
    new = [old[0].upper()] + old[1:]
    return diffutil.custom_scenario(("\n".join(old) + "\n").encode(),
                                    ("\n".join(new) + "\n").encode(),
                                    name=name)


def diff_big_env(lines: int, name: str):
    """``experiment_big`` with three changed lines spread over the file."""

    changed = sorted({1, lines // 2, lines - 2})
    return diffutil.experiment_big(lines, changed=changed, name=name)


def paste_files_env(rng: random.Random, lines: int):
    files = {"/a.txt": ("\n".join(_word(rng, 5) for _ in range(lines))
                        + "\n").encode(),
             "/b.txt": ("\n".join(f"{rng.randrange(100):02d}"
                                  for _ in range(lines)) + "\n").encode()}
    return paste.benign_scenario(files)


# ---------------------------------------------------------------------------
# predeploy: analysis jobs
# ---------------------------------------------------------------------------


@dataclass
class AnalysisJob:
    """One program version to analyse, plus the crash runs it records."""

    kind: str
    source: str
    library: frozenset
    analysis_env: object
    crash_envs: list


#: Job slots of one predeploy round.  An odd count of slots with distinct
#: cost bands puts the median inside one band (paste) rather than on the
#: edge between two; the coreutils slots rotate through the three programs.
JOB_SLOTS = ("userver", "diff", "paste", "coreutils-a", "coreutils-b")
COREUTILS = ("mkdir", "mknod", "mkfifo")
#: Seeded crash scenarios recorded per job under the dynamic+static plan.
CRASH_RUNS = 3


def analysis_job(rng: random.Random, kind: str, index: int) -> AnalysisJob:
    tag = f"{index}"
    if kind == "userver":
        return AnalysisJob(
            kind, userver.SOURCE, frozenset(userver.LIBRARY_FUNCTIONS),
            userver_env(rng, 2, f"userver-an{tag}"),
            [userver_env(rng, 1 + (index + k) % 5, f"userver-rec{tag}.{k}")
             for k in range(CRASH_RUNS)])
    if kind == "diff":
        return AnalysisJob(
            kind, diffutil.SOURCE, frozenset(),
            diffutil.experiment_big(6, changed=sorted(rng.sample(range(6), 3)),
                                    name=f"diff-an{tag}"),
            [diff_small_env(rng, 4 + k, f"diff-rec{tag}.{k}")
             for k in range(CRASH_RUNS)])
    if kind == "paste":
        return AnalysisJob(
            kind, paste.SOURCE, frozenset(), paste_files_env(rng, 8),
            [paste.big_bug_scenario(5 + 2 * k) for k in range(CRASH_RUNS)])
    if kind == "mkdir":
        paths = [_word(rng, 5), f"{_word(rng, 4)}/{_word(rng, 4)}"]
        return AnalysisJob(kind, mkdir.SOURCE, frozenset(),
                           mkdir.benign_scenario(paths),
                           [mkdir.bug_scenario()] * CRASH_RUNS)
    if kind == "mknod":
        env = (mknod.benign_scenario() if rng.random() < 0.5
               else mknod.device_scenario())
        return AnalysisJob(kind, mknod.SOURCE, frozenset(), env,
                           [mknod.bug_scenario()] * CRASH_RUNS)
    if kind == "mkfifo":
        env = (mkfifo.benign_scenario() if rng.random() < 0.5
               else mkfifo.multi_scenario())
        return AnalysisJob(kind, mkfifo.SOURCE, frozenset(), env,
                           [mkfifo.bug_scenario()] * CRASH_RUNS)
    raise ValueError(kind)


def predeploy_jobs(seed: int, rounds: int) -> List[AnalysisJob]:
    rng = random.Random(f"predeploy-{seed}")
    jobs = []
    for r in range(rounds):
        for slot in JOB_SLOTS:
            kind = slot
            if slot.startswith("coreutils"):
                kind = COREUTILS[(r + (slot == "coreutils-b")) % 3]
            jobs.append(analysis_job(rng, kind, len(jobs)))
    return jobs


# ---------------------------------------------------------------------------
# triage: one distinct bug report per slot
# ---------------------------------------------------------------------------


@dataclass
class Bug:
    """One bug report to record at the user site and reproduce."""

    kind: str          # program kind (key of PROGRAM)
    label: str         # configuration class, e.g. "userver", "diff-big"
    env: object
    method: InstrumentationMethod
    log_syscalls: bool


#: uServer exp1-5 x syscall logging x plan (Tables 3 and 5), dealt four per
#: round in an order whose every prefix mixes shapes, logging and plans.
USERVER_CONFIGS = [(1 + i % 5, (i // 5) % 2 == 0, DS if (i // 2) % 2 == 0
                    else ALL) for i in range(20)]
#: The coreutils bugs of Table 1 (plus paste's own), each once per run.
COREUTILS_CONFIGS = [(kind, method) for method in (DS, ALL)
                     for kind in ("mkdir", "mknod", "mkfifo", "paste")]
#: ``experiment_big`` sizes and plans: fixed inputs, so each pair once a run.
DIFF_BIG_CONFIGS = ((8, DS), (10, ALL), (12, DS), (6, ALL),
                    (8, ALL), (10, DS), (12, ALL), (6, DS))
PASTE_BIG_LINES = (12, 20, 16, 24, 14, 22, 18, 10)
#: Rounds a run can hold before a fixed-input report would repeat.
MAX_TRIAGE_ROUNDS = 8


def triage_bugs(seed: int, rounds: int) -> List[Bug]:
    """``rounds`` rounds of eight bugs; all reports in a run are distinct."""

    if not 1 <= rounds <= MAX_TRIAGE_ROUNDS:
        raise ValueError(f"triage runs 1-{MAX_TRIAGE_ROUNDS} rounds")
    rng = random.Random(f"triage-{seed}")
    bugs: List[Bug] = []
    for r in range(rounds):
        plan = DS if r % 2 == 0 else ALL
        for i in range(4):
            shape, log, method = USERVER_CONFIGS[(4 * r + i) % 20]
            bugs.append(Bug("userver", "userver",
                            userver_env(rng, shape, f"userver-t{r}.{i}"),
                            method, log))
        bugs.append(Bug("diff", "diff", diff_small_env(
            rng, 4 + r % 4, f"diff-t{r}"), plan, True))
        lines, method = DIFF_BIG_CONFIGS[r]
        bugs.append(Bug("diff", "diff-big", diff_big_env(
            lines, f"diff-big{lines}-t{r}"), method, True))
        bugs.append(Bug("paste", "paste-big",
                        paste.big_bug_scenario(PASTE_BIG_LINES[r]),
                        ALL if plan is DS else DS, True))
        kind, method = COREUTILS_CONFIGS[r]
        module = {"mkdir": mkdir, "mknod": mknod, "mkfifo": mkfifo,
                  "paste": paste}[kind]
        bugs.append(Bug(kind, "coreutils", module.bug_scenario(), method,
                        True))
    return bugs


def known_defect_bugs() -> List[Bug]:
    """The probe: diff-big10 without syscall logging, then a healthy bug.

    Searching the first raises ``RecursionError`` in the solver, which
    escapes ``ReproService.process``; every later ``process`` call meets the
    same pending cluster and raises again, so the healthy bug after it is
    never reported either.
    """

    return [Bug("diff", "probe",
                diffutil.experiment_big(10, name="diff-big10-nolog"), DS, False),
            Bug("mkdir", "probe", mkdir.bug_scenario(), ALL, False)]


# ---------------------------------------------------------------------------
# fleet: duplicate-heavy uploads of a few cheap bugs
# ---------------------------------------------------------------------------


def fleet_known_bugs() -> List[Bug]:
    """The cheap bugs every user keeps hitting, most popular first."""

    bugs = []
    for method in (DS, ALL):
        bugs.extend([
            Bug("mkdir", "mkdir", mkdir.bug_scenario(), method, True),
            Bug("mkfifo", "mkfifo", mkfifo.bug_scenario(), method, True),
            Bug("mknod", "mknod", mknod.bug_scenario(), method, True),
            Bug("paste", "paste", paste.bug_scenario(), method, True),
            Bug("diff", "diff-exp1", diffutil.experiment_1(), method, True),
        ])
    return bugs


def fleet_new_bugs(seed: int) -> List[Bug]:
    """Paste reports on short files: each one a cluster the inbox lacks.

    15 cheap variants (file length x plan x syscall logging), each search
    10-130 ms.  Every run ships the same set, so the median search cost is
    the same; the seed sets their order.
    """

    variants = [Bug("paste", "paste-new", paste.big_bug_scenario(lines),
                    method, log)
                for lines in range(1, 6)
                for method, log in ((DS, True), (ALL, True), (DS, False))]
    random.Random(f"fleet-new-{seed}").shuffle(variants)
    return variants


def fleet_picks(seed: int, count: int, pool_size: int) -> List[int]:
    """Which known bug each duplicate upload carries (Zipf-like popularity)."""

    rng = random.Random(f"fleet-picks-{seed}")
    weights = [1.0 / (rank + 1) for rank in range(pool_size)]
    return rng.choices(range(pool_size), weights, k=count)
