"""Host-speed calibration: a fixed reference workload timed during each run.

The development VM (2 vCPUs on a shared host) runs the same CPU-bound
Python work up to twice as fast or slow from one second to the next, with no
steal time the guest can see.  A wall-clock latency measured in one run
therefore carries the host's speed at that moment.

The CPU-bound workloads (``predeploy``, ``triage``) time :func:`reference`
after each operation — a small stack interpreter over dicts, tuples and
slotted objects, the shape of work the repro VM and solver do — and report
each duration scaled to the reference's nominal speed:
``t * (NOMINAL_MS / median(reference times within WINDOW_S)) ** EXPONENT``.
A scale per operation follows the host better than one per run.  The
reference is benchmark code, so a change to ``src/`` moves the scaled
timings and not the scale.  The raw timings are printed next to them.
"""

from __future__ import annotations

import bisect
import time
from typing import Callable, List, Tuple

from perfbench.common import percentile

#: The reference's median time on the development VM at a calm moment; it
#: only sets the scaled metrics' magnitude, close to milliseconds there.
NOMINAL_MS = 5.0
#: How strongly the measured work follows the reference: its time grows as
#: the reference's time to this power.  The tight reference loop reacts more
#: to the host's state than the searches and analyses do.  A log-log fit of
#: search time on the reference timings around it gave 0.8 for uServer,
#: 0.65 for paste-big and 0.5 for diff-big bugs, and 0.75 kept ten-run
#: spreads lowest.  Across a change of host speed it is not exact: when the
#: reference ran twice as fast for a whole set of runs, the scaled medians
#: came out 2-13% lower (with exponent 1 they had come out 13-18% higher).
EXPONENT = 0.75

_PROGRAM = (("push", 0), ("store", "i"), ("load", "i"), ("push", 1),
            ("add", None), ("store", "i"), ("load", "acc"), ("load", "i"),
            ("mul", None), ("push", 97), ("mod", None), ("store", "acc"),
            ("load", "i"), ("push", 400), ("lt", None), ("jump_if", 2))


class _Frame:
    __slots__ = ("names", "stack")

    def __init__(self) -> None:
        self.names = {"acc": 1}
        self.stack: List[int] = []


def reference() -> int:
    """Fixed interpreter-style work, about 5 ms on the development VM."""

    total = 0
    for _ in range(6):
        frame = _Frame()
        names, stack, pc = frame.names, frame.stack, 0
        while pc < len(_PROGRAM):
            op, arg = _PROGRAM[pc]
            pc += 1
            if op == "push":
                stack.append(arg)
            elif op == "store":
                names[arg] = stack.pop()
            elif op == "load":
                stack.append(names[arg])
            elif op == "add":
                right = stack.pop()
                stack.append(stack.pop() + right)
            elif op == "mul":
                right = stack.pop()
                stack.append(stack.pop() * right)
            elif op == "mod":
                right = stack.pop()
                stack.append(stack.pop() % right)
            elif op == "lt":
                right = stack.pop()
                stack.append(int(stack.pop() < right))
            elif stack.pop():
                pc = arg
        total += names["acc"]
    return total


class Calibration:
    """Reference timings taken through one run."""

    #: Reference timings after each operation.
    PER_OPERATION = 3
    #: The timings within this many seconds of an operation set its scale.
    #: Within one second the reference alone varies by up to 2x, so a few
    #: timings next to the operation would add noise of their own.
    WINDOW_S = 2.0

    def __init__(self) -> None:
        self.times: List[float] = []
        self.samples: List[float] = []

    def sample(self, count: int = PER_OPERATION) -> None:
        # Thread CPU time, not wall time: it is the CPU's speed alone, without
        # the time this thread waited for the GIL or for the CPU it shares
        # with the server under test.
        for _ in range(count):
            self.times.append(time.perf_counter())
            began = time.thread_time()
            reference()
            self.samples.append(time.thread_time() - began)

    def factor(self, start: float, end: float) -> float:
        """From raw durations to the reference's nominal speed, for an
        operation that ran from *start* to *end* (``perf_counter``)."""

        low = bisect.bisect_left(self.times, start - self.WINDOW_S)
        high = bisect.bisect_right(self.times, end + self.WINDOW_S)
        window = self.samples[low:high]
        if len(window) < self.PER_OPERATION:
            window = self.samples
        return (NOMINAL_MS / (percentile(window, 50) * 1e3)) ** EXPONENT

    def timed(self, operation: Callable[[], float]) -> Tuple[float, float]:
        """Run *operation*, which returns its own duration, and time the
        reference after it: ``(start, duration)``; scale it once the run's
        timings are all taken."""

        if not self.samples:
            self.sample()
        start = time.perf_counter()
        took = operation()
        self.sample()
        return start, took

    def scaled(self, start: float, took: float) -> float:
        return took * self.factor(start, start + took)

    def reference_ms(self) -> float:
        return percentile(self.samples, 50) * 1e3

    def line(self):
        """The human-readable output row describing this run's scale."""

        return ("reference_ms", self.reference_ms(), "ms",
                f"n={len(self.samples)}; JSON timings = raw x "
                f"({NOMINAL_MS:g} / reference_ms within {self.WINDOW_S:g} s "
                f"of each operation)^{EXPONENT:g}")
