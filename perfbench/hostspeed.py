"""Host-speed correction for timings taken on a shared host.

Co-tenants of a shared host slow every call by up to 1.7x for minutes at a
time, which moves any plain timing between runs by more than a regression
bound.  ``reference()`` is a fixed pure-Python computation of the library's
flavour (tuple keys, dict updates, Fraction arithmetic); timed next to a
measurement it tells how fast the host runs at that moment.  A time t
measured while the reference takes r is reported as t * REF_NOMINAL_S / r:
seconds at the host speed at which the reference takes REF_NOMINAL_S.
"""

import math
import time
from fractions import Fraction

# About reference()'s time on an idle 2-vCPU Intel Xeon VM under Python 3.11.
REF_NOMINAL_S = 1.0e-3


def reference():
    acc = {}
    for i in range(1, 40):
        for j in range(1, 12):
            key = (i % 7, j % 5)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i, j)
    return acc


def host_ref() -> float:
    """Fastest of three timings of reference(), in s."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - start)
    return best


def factor(*refs: float) -> float:
    """The correction for a measurement bracketed by these reference times."""
    return REF_NOMINAL_S / (sum(refs) / len(refs))
