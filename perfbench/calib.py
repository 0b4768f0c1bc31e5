"""Machine-speed calibration for the timed loop and for set-up.

On the 2-vCPU VMs this benchmark was built on, the same operations ran up
to 40% slower in one run than in another a few minutes later, in CPU time
as well as wall time; that drift would swamp any change in drphase.  So
every benchmark process also times this fixed kernel, which uses no
drphase code: right after set-up, and about once a second between rounds
of the timed loop.  Every time metric is reported at a reference speed:
multiplied by REFERENCE_S / (median kernel time).  The raw values are
printed next to the scaled ones.

The kernel is a memory-bound pass over an 8 MB array: an FFT round trip
and an elementwise power.  The slow phases of those hosts were phases of
contended memory and cache; on a fixed sequence of operations, this
kernel's time followed the operations' time more closely than a kernel of
interpreter work or of small, cache-resident numpy calls did.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the reference host (2-vCPU VM, Python 3.11,
# numpy 2.4.6); a scaled time is the time the run would take there.
REFERENCE_S = 0.068
# Minimum loop time between two kernel runs.
INTERVAL_S = 1.0

_LARGE = np.linspace(0.0, 1.0, 1 << 20)


def kernel() -> float:
    """Run the fixed calibration work once; return its wall time."""
    t0 = time.perf_counter()
    spectrum = np.fft.rfft(_LARGE)
    np.fft.irfft(spectrum * 0.5)
    np.power(0.999, _LARGE)
    return time.perf_counter() - t0
