"""Speed probe: scales measured times to one reference core speed.

The machine the benchmark runs on is shared.  Other tenants slow its cores
down by up to about 2x for stretches of seconds to minutes (a loop of
``exact.build_table(2, 40)`` alone took 111-250 ms from one second to the
next, with CPU time tracking wall time, so it is the core that slows, not
the scheduler).  Every measured time is therefore reported as

    measured time * PROBE_REFERENCE_S / probe time next to it,

where the probe is the fixed pure-Python big-integer loop below, timed right
before and after what it scales.  It uses no zonocount code, so no change to
the program can move it.  Raw times are kept in the run record.
"""

from time import perf_counter

# The probe's time on a quiet core of the 2-core Xeon this benchmark was
# written on (5th percentile of 400 single loops, Python 3.11).
PROBE_REFERENCE_S = 0.0026


def _loop() -> float:
    start = perf_counter()
    cells = [1] * 1500
    for v in range(1, 25):
        for j in range(v, 1500):
            cells[j] += cells[j - v]
    return perf_counter() - start


def probe() -> float:
    """Seconds a fixed loop of cumulative big-integer sums takes now (median of three)."""
    return sorted(_loop() for _ in range(3))[1]


def scale(probe_s: float) -> float:
    """Factor that turns a time measured at this probe speed into reference seconds."""
    return PROBE_REFERENCE_S / probe_s
