"""A fixed reference task, timed right before every operation, that puts
each operation's time on one machine speed.

On a shared machine a core's speed flips between states tens of percent
apart, from seconds to minutes at a time.  The reference task uses no
lucidnet code, so the ratio of an operation's time to the reference time
just before it keeps what the program changed and drops most of what the
machine did.
"""

from __future__ import annotations

import time

import numpy as np

# the task's duration at the nominal speed, about its time on a quiet core
NOMINAL_S = 1.0e-3


class SpeedReference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((256, 32))
        self._b = rng.standard_normal((32, 16))

    def _task(self):
        # interpreter-bound half: integer arithmetic and dict stores
        table, acc = {}, 0
        for i in range(5000):
            acc += i * i
            table[i & 1023] = acc
        # array-bound half: small matrix products and tanh
        x = self._a
        for _ in range(20):
            x = self._a * 0.5 + np.tanh(x @ self._b).sum() * 1e-9
        return acc, x

    def scale(self):
        """Time the task once; returns the factor that turns a time measured
        now into the time at the nominal speed."""
        start = time.perf_counter()
        self._task()
        return NOMINAL_S / (time.perf_counter() - start)
