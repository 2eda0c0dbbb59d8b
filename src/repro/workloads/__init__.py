"""Benchmark workloads: MiniC re-implementations of the paper's programs.

Each module exposes a ``SOURCE`` string (the MiniC program), a set of
:class:`~repro.environment.Environment` scenario constructors, and — where the
paper defines one — the argument combination that triggers the crash bug.

* :mod:`repro.workloads.microbench` — the §5.1 counting-loop microbenchmark,
* :mod:`repro.workloads.fibonacci` — Listing 1,
* :mod:`repro.workloads.coreutils` — mkdir, mknod, mkfifo, paste with
  injected crash bugs in the style of the bugs used by the paper (and KLEE),
* :mod:`repro.workloads.diffutil` — a line-oriented diff,
* :mod:`repro.workloads.userver` — an event-driven HTTP server (select/accept/
  recv loop plus request parser) standing in for the uServer,
* :mod:`repro.workloads.httpgen` — the httperf-like request generator.
"""

from typing import List, Tuple

from repro.workloads import (  # noqa: F401
    coreutils,
    diffutil,
    fibonacci,
    httpgen,
    microbench,
    userver,
)

__all__ = [
    "all_cases",
    "coreutils",
    "diffutil",
    "fibonacci",
    "httpgen",
    "library_functions_for",
    "microbench",
    "userver",
    "workload_registry",
]


def library_functions_for(source: str) -> frozenset:
    """The library-function set (the paper's uClibc analogue) for a source.

    The single source of truth for "which workload treats which functions as
    library code": :func:`workload_registry` (behind the trace tool and the
    service) and the service's registered-source programs both resolve it
    here, so instrumentation plans for a workload are identical no matter
    which entry point constructed them.  Matching is by
    source *content*, not object identity, so variants that re-render the
    same program still resolve.
    """

    if source == userver.SOURCE:
        return frozenset(userver.LIBRARY_FUNCTIONS)
    return frozenset()


def all_cases() -> List[Tuple[str, str, "object"]]:
    """Every workload paired with its scenarios: ``(name, source, environment)``.

    One canonical enumeration used by the backend parity tests and the
    backend benchmarks, covering each program in this package with at least
    one benign and (where the workload defines one) one crashing scenario.
    """

    cases = [
        ("fibonacci-a", fibonacci.SOURCE, fibonacci.scenario_a()),
        ("fibonacci-b", fibonacci.SOURCE, fibonacci.scenario_b()),
        ("fibonacci-neither", fibonacci.SOURCE, fibonacci.scenario_neither()),
        ("microbench", microbench.SOURCE, microbench.small_scenario()),
        ("diff-exp1", diffutil.SOURCE, diffutil.experiment_1()),
        ("diff-exp2", diffutil.SOURCE, diffutil.experiment_2()),
        ("diff-identical", diffutil.SOURCE, diffutil.identical_scenario()),
        ("userver-exp1", userver.SOURCE, userver.experiment(1)),
        ("userver-exp2", userver.SOURCE, userver.experiment(2)),
    ]
    for name, module in coreutils.ALL_PROGRAMS.items():
        cases.append((f"{name}-bug", module.SOURCE, module.bug_scenario()))
        cases.append((f"{name}-benign", module.SOURCE, module.benign_scenario()))
    return cases


def workload_registry() -> dict:
    """``name -> (source, environment, library_functions)`` for every case.

    The canonical lookup table behind every workload-by-name entry point —
    the trace tool, the disassembler and the reproduction service's default
    program resolver all share it, so a workload name means the same program
    (and the same library-function set) everywhere.
    """

    return {name: (source, environment, library_functions_for(source))
            for name, source, environment in all_cases()}
