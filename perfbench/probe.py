"""The host-speed probe and the correction it feeds.

The virtual CPU this benchmark runs on changes speed under the program:
the same code runs up to twice as slow for seconds to minutes at a time,
and process CPU time slows with it, so neither wall time nor CPU time
compares across runs.  A fixed piece of work timed often enough tracks
that speed.  The probe is a short pure-Python loop and a small NumPy
op, about 0.6 ms.  The child (``child.py``) fires :func:`probe_once` every
``PERIOD_S`` of wall time with ``ITIMER_REAL`` and keeps every sample
as ``(monotonic time, probe duration)``.

:func:`corrected` scales a host-time interval to the reference speed::

    corrected = (t1 - t0) * mean(P_REF_S / P_i)   for samples i in [t0, t1)

Samples are evenly spaced in wall time, so ``mean(P_REF_S / P_i)`` is
the time average of the host's speed relative to the reference and the
product is the time the interval's work would take at the reference
speed, exact even when the speed switches inside the interval.
``P_REF_S`` is a constant of this file, fixed once and never re-measured
by a run, so two runs on different days report on one scale.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Wall time between two probe samples.
PERIOD_S = 0.05
#: Pure-Python loop length of one probe.
LOOP = 6000
#: The probe's duration at the reference speed, a constant: about the
#: median probe inside the workloads on the 2-vCPU Intel Xeon VM
#: (Python 3.11, NumPy 2.4) the benchmark was defined on.
P_REF_S = 0.00055

_ARRAY = np.arange(8192, dtype=np.float64)[::-1].copy()


def probe_once() -> float:
    """Run the fixed probe work once; its duration in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += i * i
    np.sort(_ARRAY).dot(_ARRAY)
    return time.perf_counter() - t0


class Sampler:
    """Probe samples fired by ``ITIMER_REAL`` from :meth:`start` on."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _fire(self, signum, frame) -> None:
        self.samples.append((time.monotonic(), probe_once()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed(samples, t0: float, t1: float, p_ref: float = P_REF_S):
    """``mean(p_ref / P_i)`` over the samples taken in ``[t0, t1)``.

    ``None`` when no sample falls in the interval.
    """
    ratios = [p_ref / d for t, d in samples if t0 <= t < t1]
    return sum(ratios) / len(ratios) if ratios else None


def corrected(samples, t0: float, t1: float, p_ref: float = P_REF_S,
              fallback: float = 1.0) -> float:
    """Interval ``[t0, t1)`` scaled to the reference speed.

    An interval too short to hold a sample takes the ``fallback`` speed,
    which the caller sets to the speed of the whole repetition.
    """
    s = speed(samples, t0, t1, p_ref)
    return (t1 - t0) * (fallback if s is None else s)
