"""A fixed reference computation that tracks how fast the machine runs now.

On a shared machine the cores' speed can change by 1.5-2x within seconds and
stay changed for minutes, so raw wall times of the same code spread by 30%
and more between runs.  The benchmark times this kernel between rounds and
scales every operation time of the round by (reference time) / (kernel time),
which reports each time at the speed at which the kernel takes exactly its
reference time.  The kernel's parts are the kinds of work the program does
(interpreted Python, many small numpy calls, float32 matrix products); a
workload uses the parts it does itself, since the slow states slow
interpreted code more than matrix products.  The kernel never calls crdgan,
so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(0)
_SMALL = [_rng.normal(size=(16, 16)) for _ in range(4)]
_LEFT = _rng.normal(size=(64, 288)).astype(np.float32)
_RIGHT = _rng.normal(size=(288, 1024)).astype(np.float32)


def _interpreter() -> int:
    table = {}
    total = 0
    for i in range(36000):
        total += (i * 7) % 13
        table[i & 255] = total
    return total + len(table)


def _small_arrays() -> float:
    x = _SMALL[0]
    for _ in range(300):
        for y in _SMALL:
            x = np.tanh(x * 0.5 + y)
    return float(x.sum())


def _matmul() -> float:
    out = 0.0
    for _ in range(20):
        out += float((_LEFT @ _RIGHT)[0, 0])
    return out


# part -> (function, its time at the reference speed in seconds)
PARTS = {
    "interpreter": (_interpreter, 0.006),
    "small_arrays": (_small_arrays, 0.006),
    "matmul": (_matmul, 0.008),
}


def reference_seconds(parts) -> float:
    return sum(PARTS[p][1] for p in parts)


def kernel_seconds(parts) -> float:
    """Wall time of one pass of the given kernel parts."""
    start = time.perf_counter()
    for p in parts:
        PARTS[p][0]()
    return time.perf_counter() - start
