"""Reference computations that track the machine's speed during a run.

The machine these figures come from runs the same code at speeds that
differ by up to two times over minutes, because of load outside the
container (hypervisor steal stays near zero; wall time equals CPU time).
A run therefore also times a fixed reference computation, owned by the
benchmark and never changed by a kpd change, every fraction of a second.
Each operation's time is rescaled by the reference speed around it
(``Speed.scaled``) and reads as if the machine ran at the speed where the
reference takes ``NOMINAL_S`` seconds.  A faster or slower kpd moves the
scaled times; the machine's drift moves the reference and the operations
together and cancels.

Two references match the two kinds of work in kpd: interpreted big-number
arithmetic (Fraction and 50-digit mpf, like the witness series and the
precision escalation) and dense numpy kernels (like the Nystrom and
certificate matrices and ``eigh``).  A small arithmetic loop did not slow
down with kpd's code, so the references do the same kind of work.
"""

import statistics
import time
from fractions import Fraction

import mpmath as mp
import numpy as np

NOMINAL_S = 0.010
# Reference samples within this many seconds of an operation describe its
# speed; at least NEAREST samples are used.
WINDOW_S = 1.0
NEAREST = 3


def _mpf(c):
    return mp.mpf(c.numerator) / c.denominator if isinstance(c, Fraction) else c


def python_reference():
    """Keyed expansion of 16 trinomials (1 + A z + B z^t), with exact
    Fraction A and 50-digit mpf B: the arithmetic of the witness series."""
    with mp.workdps(50):
        t = mp.mpf("2.37")
        poly = {(0, 0): Fraction(1)}
        for p in range(4):
            for q in range(4):
                a, b = Fraction((p - q) ** 2), mp.mpf(p * p + q * q) ** t
                out = dict(poly)
                for (i, j), c in poly.items():
                    if a:
                        out[i + 1, j] = out.get((i + 1, j), 0) + (c * a if isinstance(c, Fraction) else c * _mpf(a))
                    if b:
                        out[i, j + 1] = out.get((i, j + 1), 0) + _mpf(c) * b
                poly = out
    return len(poly)


def numpy_reference():
    """A 900 x 900 kernel matrix (arrays beyond the cache) and a 200 x 200
    symmetric eigensolve: the work of the Nystrom and certificate steps."""
    x = np.linspace(-20.0, 20.0, 900)
    k = 1.0 / (np.pi * (1.0 + np.subtract.outer(x, x) ** 2 + 3.0 * np.power(np.add.outer(x * x, x * x), 2.0)))
    return np.linalg.eigh(k[:200, :200])[0][0]


def sample(reference):
    """(start, seconds) of one run of a reference computation."""
    start = time.perf_counter()
    reference()
    return start, time.perf_counter() - start


class Speed:
    """The machine's speed over a run, from reference samples.

    ``scaled(start, seconds)`` rescales one operation's time by the
    reference speed around it: the median of the reference samples within
    WINDOW_S of the operation (at least the NEAREST closest ones).
    ``scale`` is the run-wide factor NOMINAL_S / median sample.
    """

    def __init__(self, samples):
        self.samples = sorted((start + 0.5 * sec, sec) for start, sec in samples)
        self.scale = NOMINAL_S / statistics.median(sec for _, sec in self.samples)

    def scaled(self, start, seconds):
        lo, hi = start - WINDOW_S, start + seconds + WINDOW_S
        near = [sec for mid, sec in self.samples if lo <= mid <= hi]
        if len(near) < NEAREST:
            middle = start + 0.5 * seconds
            near = [sec for _, sec in sorted(self.samples, key=lambda s: abs(s[0] - middle))[:NEAREST]]
        return seconds * NOMINAL_S / statistics.median(near)
