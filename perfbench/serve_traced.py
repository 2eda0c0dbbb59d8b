"""Launch ``python -m repro serve`` with the benchmark's layer wrappers.

Installs :func:`perfbench.tracing.install` in this process, runs the CLI
entry point with the given arguments, and writes the spans to the path in
``$PERFBENCH_SPANS`` once ``serve`` has drained and returned.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import SPANS_ENV, require_sources  # noqa: E402


def main() -> int:
    require_sources()
    from perfbench.tracing import SpanLog, install
    from repro.service.cli import main as repro_main

    log = SpanLog()
    install(log)
    code = repro_main(sys.argv[1:])
    log.dump(os.environ[SPANS_ENV])
    return code


if __name__ == "__main__":
    sys.exit(main())
