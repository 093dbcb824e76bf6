"""Core-speed probe: reports timed intervals at a reference core speed.

On the shared host this benchmark was sized on (2 vCPUs), each vCPU
switches between its full speed and contended speeds about 1.7x and 2.1x
slower. The phases last from under a second to minutes and are not
aligned between the two vCPUs. A fixed loop of ``math.exp``/``math.log``
then takes about 24, 42 or 50 us, and the program's passes slow down
alike. Raw pass times of an unchanged program moved by up to 2x from run
to run, far wider than any useful regression bound.

While the passes run, a ``SIGALRM`` handler runs that fixed probe loop
every ``INTERVAL_S``. It runs the loop twice and times the second run,
so that the probe's own code and data are warm. The interval since the
previous probe then counts ``REFERENCE_PROBE_S / probe`` of its length:
a timed interval is reported in seconds at the speed of a core on which
the probe takes ``REFERENCE_PROBE_S``, the probe's time on an
uncontended core of that host (Intel Xeon at 2.1 GHz, Python 3.11.7).
Signal handlers run between bytecodes, so an interval that ends inside
a long numpy call is judged by the probe taken right after the call.

The raw times stay in the result's ``details``.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

INTERVAL_S = 0.01
REFERENCE_PROBE_S = 24e-6


def _probe_loop() -> float:
    s = 0.0
    for k in range(1, 120):
        s += math.exp(-k * 1e-3) * math.log(k + 0.5)
    return s


def _timed_probe() -> float:
    _probe_loop()
    start = time.perf_counter()
    _probe_loop()
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the probe while installed; then scales intervals of that time."""

    def __init__(self):
        self.times: list[float] = []
        self.factors: list[float] = []
        self._saved = None

    def _on_alarm(self, signum, frame) -> None:
        probe = _timed_probe()
        self.times.append(time.perf_counter())
        self.factors.append(REFERENCE_PROBE_S / probe)

    def __enter__(self) -> "SpeedProbe":
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def scaled(self, start: float, end: float) -> float:
        """Length of [start, end] in seconds at the reference speed.

        Each instant is scaled by the factor of the first probe taken
        after it; the time after the last probe by the last factor.
        """
        times, factors = self.times, self.factors
        if not factors:
            return end - start
        total = 0.0
        i = bisect.bisect_left(times, start)
        lo = start
        while lo < end:
            hi = min(end, times[i]) if i < len(times) else end
            total += (hi - lo) * factors[min(i, len(factors) - 1)]
            lo = hi
            i += 1
        return total
