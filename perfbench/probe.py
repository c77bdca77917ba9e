"""Machine-speed probe for a shared, noisy host.

On a machine shared with other tenants the same single-threaded work
takes up to a third longer in some stretches of a few seconds than in
others.  A fixed probe task, timed every ``INTERVAL_S`` while a pass
runs, tracks that speed.  ``Sampler`` runs it from a SIGALRM handler, so
samples are spread evenly over the pass, and ``spent`` sums the time the
handler took, so the worker can take it out of the pass time.  Dividing
a time by ``speed_factor`` (mean probe time over ``REFERENCE_S``)
expresses it at the reference speed; the runner reports both.

The task spends similar time in the kinds of work the library does,
because contention from neighbours slows each by a different amount:
interpreter loops over complex exponentials and tuple-keyed dicts
(``specialize``, ``lift_eigenvector``), a small in-cache LAPACK call (the
sector solves and root checks), real matrix-vector products over 4 MB,
more than the per-core L2 cache holds (the large sector solves), and a
real 3 MB matrix times a complex vector, which numpy runs by casting the
matrix to complex first (the lift residuals).  The numpy functions are
bound at import, before tracing can rebind them, so probes never produce
spans.  The probe never calls the library, so a change to the library
cannot change the scale.
"""
from __future__ import annotations

import cmath
import math
import signal
import time

from numpy import ones
from numpy.linalg import eig
from numpy.random import default_rng

# Mean probe time at the reference speed: roughly the task's time on
# the 2-core development host when no neighbour was busy.
REFERENCE_S = 0.0045
INTERVAL_S = 0.15
EDGE_SAMPLES = 10

_RNG = default_rng(0)
_SMALL = _RNG.standard_normal((32, 32)) + 1j * _RNG.standard_normal((32, 32))
_WIDE = _RNG.standard_normal((512, 1024))
_SQUARE = _RNG.standard_normal((640, 640))
_REAL = ones(1024)
_COMPLEX = ones(640, dtype=complex)


def task() -> float:
    """One fixed unit of probe work; returns its duration in seconds."""
    t = time.perf_counter()
    acc = 0j
    seen = {}
    for i in range(1200):
        acc += cmath.exp(2j * math.pi * ((i * 7) % 13) / 13)
        seen[(i % 31, i % 29)] = seen.get((i % 29, i % 31), 0) + 1
    eig(_SMALL)
    for _ in range(3):
        _WIDE @ _REAL
    _SQUARE @ _COMPLEX
    return time.perf_counter() - t


def speed_factor(samples) -> float:
    """Mean probe time relative to the reference; above 1 means slower."""
    return (sum(samples) / len(samples)) / REFERENCE_S


class Sampler:
    """Samples ``task`` on both sides of a block and, with ``during``, every
    INTERVAL_S inside it.

    Without the timer, EDGE_SAMPLES samples on each side of the block stand
    in for the samples during it.
    """

    def __init__(self, during: bool = True):
        self.during = during
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(task())
        self.spent += time.perf_counter() - t

    def _edge(self):
        self.samples.extend(task() for _ in range(1 if self.during else EDGE_SAMPLES))

    def __enter__(self):
        self._edge()
        if self.during:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self._edge()
        return False
