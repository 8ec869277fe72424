"""Host-speed probe: the time of a fixed unit of work, measured between
timed commands.

On a shared virtual machine the host's speed drifts by up to 1.75x in
phases of seconds to minutes, and every command drifts with it, CPU
time as much as wall time.  Each end-to-end timing is therefore scaled
to a fixed reference speed: ``seconds * REFERENCE / probe``, where the
probe is the mean seconds per unit of the probes on either side of the
command.  The unit is a pure-Python loop plus passes over a 1.6 MB
numpy array, the two kinds of work the program does.  It belongs to the
benchmark, so a change to the program never moves it, and a program
that gets faster reads faster by the same factor.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds per unit at the reference host speed: about the median on a
# 2-vCPU, 2.0 GHz Xeon virtual machine.  Any fixed value would do; this
# one keeps the scaled timings close to the wall times seen there.
REFERENCE = 1.75e-3
PROBE_SECONDS = 0.1
MIN_PROBE = 0.1
MAX_PROBE = 0.5

_ARRAY = np.linspace(0.0, 1.0, 200_000)


def unit() -> float:
    total = 0
    table = {}
    for i in range(5000):
        total += i * i
        table[i & 255] = total
    acc = 0.0
    for _ in range(3):
        acc += float((_ARRAY * 1.0001 + 0.5).sum())
    return acc + len(table)


def probe(seconds: float = PROBE_SECONDS) -> float:
    """Mean seconds per unit over as many whole units as fill ``seconds``."""
    n = 0
    t0 = time.perf_counter()
    while True:
        unit()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return elapsed / n


def probe_seconds(*neighbours: float) -> float:
    """Probe length between two commands: a tenth of the longer of their
    wall times, within [MIN_PROBE, MAX_PROBE], so that a long command's
    scale rests on a long probe."""
    return min(max(0.1 * max(neighbours), MIN_PROBE), MAX_PROBE)


def scale(before: float, after: float) -> float:
    """Factor that takes a timing between two probes to reference speed."""
    return REFERENCE / (0.5 * (before + after))
