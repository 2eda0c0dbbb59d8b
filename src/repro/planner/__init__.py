"""Fleet-level adaptive instrumentation planning (closes the paper's loop).

The paper treats the instrumentation plan as fixed per deployment; this
package revises it from what the fleet actually reported.  Three pieces:

* :mod:`repro.planner.ledger` — versioned plans per program, persisted next
  to the service spool, routed by the existing plan-fingerprint check so
  mixed-fingerprint fleets keep working.
* :mod:`repro.planner.observations` — per-branch cost/benefit evidence and
  per-region search cost, accumulated from reproduction reports and
  developer-site re-profiles.
* :mod:`repro.planner.replanner` — the seeded deterministic policy that
  drops logging from branches that never helped a reproduction and spends
  the freed budget on branches that would prune expensive searches.
"""

from .ledger import (LEDGER_FILE, PlanLedger, PlanLedgerError, PlanVersion,
                     plan_fingerprint_digest, plan_version_of, replan_method)
from .observations import BranchEvidence, FleetObservations, ProgramObservations
from .replanner import PlanRevision, ReplanPolicy, Replanner

__all__ = [
    "LEDGER_FILE",
    "BranchEvidence",
    "FleetObservations",
    "PlanLedger",
    "PlanLedgerError",
    "PlanRevision",
    "PlanVersion",
    "ProgramObservations",
    "ReplanPolicy",
    "Replanner",
    "plan_fingerprint_digest",
    "plan_version_of",
    "replan_method",
]
