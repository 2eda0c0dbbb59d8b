"""Experiment generators: one function per table/figure of the paper.

These functions are shared by the ``benchmarks/`` harness (which times them and
prints the regenerated rows) and by the README's "Paper tables and figures"
map, which names the table or figure each bench file regenerates.  Every
function returns a list of row dictionaries so the output can be printed or
asserted on.

Scale note: the paper's absolute numbers come from native execution of the real
programs; this reproduction interprets MiniC re-implementations, so workload
sizes and budgets are scaled down (see the same README section).  The *shape*
of each table/figure — which method wins, roughly by how much, and where the
configurations fail — is what the generators reproduce.
"""

from repro.experiments.formatting import format_table, print_table
from repro.experiments import (
    backend_exp,
    coreutils_exp,
    diff_exp,
    micro_exp,
    net_exp,
    planner_exp,
    userver_exp,
)

__all__ = [
    "backend_exp",
    "coreutils_exp",
    "diff_exp",
    "format_table",
    "micro_exp",
    "net_exp",
    "planner_exp",
    "print_table",
    "userver_exp",
]
