"""Reference loop that measures how fast the machine runs right now.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds and minutes, as neighbours come and go; CPU time drifts with
wall time, so it is no remedy.  Each timed piece of work is therefore
bracketed by this fixed loop, and its time is rescaled by

    NOMINAL_S / (mean of the reference times measured just before and after)

The result reads as seconds on a machine where the loop takes NOMINAL_S,
the quiet speed of the machine the baseline was recorded on.  The loop
imitates the program's mix: numpy calls on small arrays (decode, power-law
EOS, flux assembly, limiter) and scalar Python calls with frozen
dataclasses.  It uses numpy and the standard library only, so no change
to twophase can move it.
"""

import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

NOMINAL_S = 2.3e-3  # quiet-machine time of one reference loop
SAMPLES = 3

_rng = np.random.default_rng(12345)
_CELLS = np.column_stack(
    [
        0.5 + 0.1 * _rng.random(300),
        0.6 + 0.1 * _rng.random(300),
        1.0 + 0.2 * _rng.random(300),
        _rng.random(300) - 0.5,
        0.1 * _rng.random(300),
    ]
)


@dataclass(frozen=True)
class _Point:
    a: float
    b: float


def _array_step(u):
    w1, w2, w3, w4, w5 = (u[..., i] for i in range(5))
    a1 = w1 / w3
    c1 = w2 / w3
    um = w4 / w3
    u1 = um + (1.0 - c1) * w5
    u2 = um - c1 * w5
    r1 = w2 / a1
    r2 = (w3 - w2) / (1.0 - a1)
    if not (np.all(r1 > 0.0) and np.all(r2 > 0.0)):
        raise ArithmeticError("reference state left its domain")
    p1 = r1**1.4
    p2 = r2**2.0
    f = np.stack(
        [a1 * w4, w2 * u1, w4, w2 * u1**2 + (w3 - w2) * u2**2 + a1 * p1 + (1 - a1) * p2,
         0.5 * u1**2 - 0.5 * u2**2 + 3.5 * r1**0.4 - 2.0 * r2],
        axis=-1,
    )
    smax = np.maximum(np.abs(u1) + np.sqrt(1.4 * r1**0.4), np.abs(u2) + np.sqrt(2.0 * r2))
    dl = u[1:-1] - u[:-2]
    dr = u[2:] - u[1:-1]
    s = np.where((dl > 0) & (dr > 0), np.minimum(dl, dr), 0.0)
    s = np.where((dl < 0) & (dr < 0), np.maximum(dl, dr), s)
    return float(f.sum() + smax.max() + s.sum())


def _scalar_step(x, p):
    if np.ndim(x):
        raise ArithmeticError("reference expects a scalar")
    return replace(p, a=float(np.sqrt(x) + p.b**1.4))


def _loop():
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(20):
        acc += _array_step(_CELLS)
    p = _Point(1.0, 2.0)
    for i in range(400):
        p = _scalar_step(1.0 + i * 1e-3, p)
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc + p.a):
        raise ArithmeticError("reference loop lost its values")
    return elapsed


def reference_time():
    """Median of SAMPLES reference loops, in seconds."""
    return statistics.median(_loop() for _ in range(SAMPLES))


class Normalizer:
    """Rescales consecutive timings by the reference measured around each."""

    def __init__(self):
        self.before = reference_time()

    def scale(self, seconds):
        after = reference_time()
        speed = 0.5 * (self.before + after)
        self.before = after
        return seconds * NOMINAL_S / speed
