#!/usr/bin/env python
"""Record a workload crash to a trace file, or reproduce one from a file.

Thin wrapper over the packaged service CLI (:mod:`repro.service.cli`, also
reachable as ``python -m repro``), kept at this path for the documented
two-process workflow::

    PYTHONPATH=src python scripts/trace_tool.py record \
        --workload diff-exp1 --out /tmp/diff.trace
    PYTHONPATH=src python scripts/trace_tool.py replay \
        --trace /tmp/diff.trace --workload diff-exp1 --workers 4

The fleet-scale half lives in the ``inbox`` and ``serve-batch`` subcommands
(batch ingestion + ``(fingerprint, crash site)`` dedup — see the README's
"Service API" section).

Exit codes: 0 success (replay: crash reproduced), 1 replay search failed,
2 usage / trace-format / fingerprint errors.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.service.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
