"""A fixed probe of how fast the machine runs this kind of Python right now.

The machine this benchmark runs on is shared: the speed of one virtual CPU
drifts by a factor of up to 1.6 within tens of seconds, and it moves all
pure-Python work alike.  The probe does a fixed mix of the work the library
does (small tuples and dicts of floats, ``Fraction`` arithmetic) and never
touches the library, so a change to the program cannot change it.  Timings
are reported at the reference speed: seconds as measured, times
``REFERENCE_S`` over the probe's seconds measured next to them.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

#: Probe seconds at the reference speed (the probe's fast-state median on
#: Linux, Python 3.11.7, 2 shared virtual CPUs).
REFERENCE_S = 0.008


def probe() -> float:
    """Seconds one fixed round of the probe's work takes now."""
    start = perf_counter()
    total = 0.0
    for i in range(1500):
        row = tuple(float(i + k) * 0.5 for k in range(8))
        table = {k: x for k, x in enumerate(row) if x}
        total += sum(table.values())
    exact = Fraction(0)
    for i in range(1, 800):
        exact += Fraction(i, 7) * Fraction(3, i + 1)
    if total <= 0 or exact <= 0:
        raise AssertionError("probe arithmetic went wrong")
    return perf_counter() - start
