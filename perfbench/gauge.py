"""A gauge of the machine's speed, read between items.

The shared box this benchmark runs on changes speed by up to about 1.8x
within seconds and drifts over minutes, in CPU time as much as in wall time
(other tenants share its caches and cores).  Timing alone cannot tell that
from a change to the program.  So a run also times a fixed piece of Python,
the *reference*, between items: :func:`mixed` for workloads of many small
items, :func:`fractions` for exact rational work.  On a workload whose time
is interpreter work, the run reports its timings at the reference speed:
every time is scaled by ``NOMINAL_S / ref_s``, where ``ref_s`` is the
(trimmed) mean reference time over the run.  A figure then reads as it would
on a machine where the reference takes exactly ``NOMINAL_S``.

The references do not call monadlab, so no change to the library can move
them; the raw figures and ``ref_s`` stay in each run's record.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 1e-3    # the reference speed: about this box's mean, for either reference
SAMPLE_EVERY_S = 0.2
REPEATS = 3          # reference timings per sample
TRIM = 0.05          # share of the slowest timings left out of the mean
clock = time.perf_counter

_A = np.arange(36, dtype=np.int64).reshape(6, 6)
_B = _A.T.copy()


def mixed() -> int:
    """The reference of the workloads with many small items: a bytecode loop
    over small ints and a dict, matmul and ``%`` on tiny int64 arrays, number
    formatting, and small tuples and lists."""
    table = {}
    acc = 0
    for i in range(1000):
        k = (i * 7919) % 97
        table[k] = table.get(k, 0) + i
        acc = (acc * 31 + i * i) % 1000003
    for i in range(60):
        acc += int(((_A @ _B) % 101)[i % 6, 1])
    rows = [" ".join(str((i * j) % 101) for j in range(10)) for i in range(120)]
    acc += len("\n".join(rows).split())
    objs = {}
    for i in range(300):
        t = (i, str(i), [i] * 3)
        objs[t[1]] = t
        acc += len(t[2])
    return acc + len(table) + len(objs)


_RNG = random.Random(5)
_BIG = [_RNG.getrandbits(600) | 1 for _ in range(32)]


def fractions() -> int:
    """The reference of exact rational work: sums of ``Fraction`` quotients of
    600-bit integers, and products of such integers."""
    total = Fraction(0)
    for i in range(24):
        total += Fraction(_BIG[i], _BIG[i + 1])
    acc = 0
    for i in range(30):
        acc += _BIG[i] * _BIG[i + 1] % 1000003
    return total.numerator % 1000003 + acc


class Gauge:
    def __init__(self, reference):
        self.reference = reference
        self.samples: list = []

    def sample(self):
        """Time the reference ``REPEATS`` times, with the collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(REPEATS):
                t0 = clock()
                self.reference()
                self.samples.append(clock() - t0)
        finally:
            if enabled:
                gc.enable()

    def ref_s(self) -> float:
        """Mean reference time, without the slowest ``TRIM`` of the timings.

        The mean follows the share of time the box spent slow, as the
        items' summed time does; the trim drops readings the scheduler
        interrupted.
        """
        ordered = sorted(self.samples)
        return statistics.mean(ordered[:len(ordered) - int(len(ordered) * TRIM)])

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed."""
        return NOMINAL_S / self.ref_s()
