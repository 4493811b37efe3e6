"""Reference loop: the yardstick for host speed on a shared machine.

A fixed piece of `Fraction` arithmetic from the standard library, with no
lynesslab code, so no change to the program can change its cost. It is the
same kind of work as the program's (interpreted Python over ints and
rationals). The benchmark runs it next to every timed operation and every
set-up, and divides each time by the loop's time measured beside it; see
NOTES.md.
"""

import time
from fractions import Fraction

ITERATIONS = 800

# Best time of the loop on the reference host (2-vCPU Intel Xeon VM,
# CPython 3.11.7), its uncontended speed. Ratios are multiplied by it so that
# normalised times read as seconds on that core.
NOMINAL_S = 0.0034


def _loop(n: int) -> Fraction:
    acc = Fraction(0)
    for i in range(1, n):
        acc += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 7 + 1)
    return acc


def reference() -> tuple:
    """Wall and CPU seconds of one run of the loop."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    _loop(ITERATIONS)
    return time.perf_counter() - t0, time.process_time() - c0
