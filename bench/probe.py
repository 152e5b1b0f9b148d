"""The probe that ``speed.py`` and ``cli_shim.py`` time, and the reference speed.

The probe is a few steps of GF(2) elimination on int bitmasks, the kind of
work ``_gf2.solve`` does.  ``REF_PROBE_S`` is what one probe takes at the
reference speed: about the median on a 2-vCPU Intel Xeon VM under Python
3.11.  This module imports nothing but ``time``, so that timing a cold
start of the command line with it adds almost nothing to that start.
"""

import time

REF_PROBE_S = 150e-6

# 64 rows of 256 pseudo-random bits (a Weyl sequence)
_ROWS = [(k * 0x9E3779B97F4A7C15F39CC0605CEDC8341082276BF3A27251F86C6A11D0C18E95) % (1 << 256) for k in range(1, 65)]


def probe():
    """Twelve elimination steps on 64 rows of 256 bits."""
    rows = _ROWS
    for i in range(12):
        p = rows[i]
        rows = [r ^ p if (r >> i) & 1 else r for r in rows]
    return rows


def probe_times(n):
    """Run the probe ``n`` times back to back; returns each one's duration."""
    out = []
    for _ in range(n):
        t = time.perf_counter()
        probe()
        out.append(time.perf_counter() - t)
    return out


def rescale(amount, before, after):
    """``amount`` less the probes' own time, at the reference speed.

    ``before`` and ``after`` are probe times from the start and the end of
    the interval; the speed is the mean of their medians.  A median is
    used because one probe that lost its CPU would move a mean of ten a
    lot; the two ends are averaged because the speed often changes between
    them.
    """
    typical = (sorted(before)[len(before) // 2] + sorted(after)[len(after) // 2]) / 2
    return max(0.0, amount - sum(before) - sum(after)) * REF_PROBE_S / typical
