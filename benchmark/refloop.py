"""The fixed reference loop the benchmark uses to gauge machine speed.

The loop never changes and runs no liecheck code, so its time says only how
fast the machine ran at that moment.  Every time the benchmark reports is
scaled to the speed at which one slice takes ``NOMINAL_S``
(``at_nominal_speed``).
"""

import time

# Iterations in one slice.  NOMINAL_S is about a slice's time at the fast
# speed of the 2-core Xeon the benchmark was tuned on.  There liecheck's
# times grew as about the EXPONENT power of the slice time, since its
# memory-heavy work slows more than the loop does (fitted on sweep passes:
# exponents 1.25 to 1.5 gave the most even pass totals).
LOOP = 3000
NOMINAL_S = 0.00025
EXPONENT = 1.5


def _loop(n=LOOP):
    s = 0
    for i in range(n):
        s += i * i ^ i
    return s


def ref_slice():
    """Seconds one slice of the reference loop takes now (about 0.25 ms)."""
    t = time.perf_counter()
    _loop()
    return time.perf_counter() - t


def at_nominal_speed(seconds, ref):
    """Scale a time measured while one slice took ``ref`` seconds to the
    speed at which it takes NOMINAL_S."""
    return seconds * (NOMINAL_S / ref) ** EXPONENT
