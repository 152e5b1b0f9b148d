"""How fast the machine runs this process, sampled while the workload runs.

On a shared machine the speed of one process drifts: the same computation
takes up to half as long again in some stretches of seconds or minutes as
in others, with no steal time showing (the process keeps its CPU but gets
less done on it).  Best-of and median estimators do not remove a drift that
lasts as long as a run, so the benchmark measures the drift and divides it
out.

While a ``Speedometer`` is running, a ``SIGALRM`` handler times a fixed
probe (``probe.py``) every ``PERIOD`` seconds of wall time.  The handler
runs in the main thread between bytecodes, so no thread is added and the
library is never called concurrently.  ``normalize`` rescales a
measured interval to the time it would have taken at the reference speed,
at which one probe takes ``REF_PROBE_S``: it subtracts the probe time spent
inside the interval and multiplies by ``REF_PROBE_S`` over the mean probe
time around the interval.

Of the probes tried (integer arithmetic, dict lookups, elimination steps),
this one followed the drift best: for the same input run again and again
over a minute, the variation of its time went from 12-17% (raw) to 5-6%
(normalized).  The reference is a fixed number, not a quantile of the
run's own probes, because the fast stretches of one run can be slower than
those of another.  The metrics are therefore "seconds at the reference
speed".
"""

from __future__ import annotations

import bisect
import signal
import time

from probe import REF_PROBE_S, probe

PERIOD = 0.01  # seconds between probes; about 1.5% of the time goes to probes
WINDOW = 0.1  # seconds on either side of an interval whose probes are averaged


class Speedometer:
    """Probe times of a run; use as a context manager, as often as needed."""

    def __init__(self):
        self.starts = []
        self.durs = []
        self._saved = None

    def _sample(self, _signum, _frame):
        t = time.perf_counter()
        probe()
        self.starts.append(t)
        self.durs.append(time.perf_counter() - t)

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def normalize(self, t0, t1, *amounts):
        """Rescale measurements taken over ``[t0, t1]`` to the reference speed.

        Each amount (a wall or CPU time of that interval) loses the probe
        time spent inside the interval and is multiplied by ``REF_PROBE_S``
        over the mean probe time within ``WINDOW`` of the interval.
        """
        starts, durs = self.starts, self.durs
        i, j = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
        own = sum(durs[i:j])
        near = durs[bisect.bisect_left(starts, t0 - WINDOW):bisect.bisect_left(starts, t1 + WINDOW)]
        factor = REF_PROBE_S * len(near) / sum(near) if near else 1.0
        return [max(0.0, a - own) * factor for a in amounts]
