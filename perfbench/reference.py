"""A fixed reference kernel that gauges the machine's momentary speed.

The shared virtual machines the benchmark runs on change speed by up to a
factor of two, in spells from under a second to minutes, and the same
program op reads 120 ms in one spell and 240 ms in the next.  The kernel
here does the same kind of work as the program (sparse polynomials as
dicts of exponent tuples, exact rational coefficients, many small
objects), so its time follows the program's through those spells: timed
between the ops, it divides the machine's speed out of their latencies
(``run.py``).

The kernel is the benchmark's own code.  It imports nothing from the
program and not ``fractions`` either, so a change to the program cannot
change the kernel's speed.
"""

from __future__ import annotations

import time
from math import gcd

# The speed every time is reported at: a kernel run of this many seconds.
# On the machine the benchmark was tuned on (2-vCPU virtual machine,
# Intel Xeon at 2.0 GHz, Python 3.11.7) a run took 0.8 to 1.6 ms within
# 20 seconds, 1.5 ms in the median.
NOMINAL_S = 0.0011

_BASE = {
    (1, 0, 0): (1, 1),
    (0, 1, 0): (2, 3),
    (0, 0, 1): (-1, 5),
    (0, 0, 0): (1, 1),
}


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ea, (na, da) in p.items():
        for eb, (nb, db) in q.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            n, d = na * nb, da * db
            if e in out:
                n0, d0 = out[e]
                n, d = n0 * d + n * d0, d0 * d
            g = gcd(n, d)
            if n:
                out[e] = (n // g, d // g)
            else:
                out.pop(e, None)
    return out


def kernel() -> int:
    """The eighth power of a fixed rational linear form in three
    variables; returns its number of terms."""
    power = dict(_BASE)
    for _ in range(7):
        power = _mul(power, _BASE)
    return len(power)


def sample(repeats: int = 1) -> float:
    """Seconds a kernel run takes now: the median of ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time, taken between kernel samples ``before``
    and ``after``, as seconds at the nominal speed."""
    return seconds * NOMINAL_S * 2 / (before + after)
