"""Fixed reference loops that time the host, not the package.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent over seconds to minutes.  These loops never import the package, so
their time moves with the host and not with the code under test.  run.py
divides each timing by a loop's time taken beside it and multiplies by the
loop's nominal time, which gives seconds on a host running at one fixed
speed.

`reference_seconds` does the kind of work a `cli.main` call does: small
numpy products, float conversions and dict updates in the interpreter.
`interpreter_seconds` uses no numpy, so that it can run in a fresh
interpreter before `import ergopt` without changing what that import has
to load; numpy is imported inside `reference_seconds` for the same reason.
"""

from __future__ import annotations

import time

# Nominal times: round figures near each loop's time on the 2-vCPU x86-64 VM
# (python 3.11, numpy 2.4) where the benchmark was defined.  The median of
# single runs ranged from 11 ms to 28 ms there as the host's speed drifted.
REFERENCE_S = 0.025
INTERPRETER_S = 0.025
STEPS = 3000
INTERPRETER_STEPS = 60000


def reference_seconds() -> float:
    """Wall time of one run of the numpy reference loop."""
    import numpy

    matrix = numpy.array([[0.9, 0.2, 0.1], [-0.3, 1.1, 0.0], [0.2, 0.1, 0.8]])
    start = time.perf_counter()
    m = numpy.eye(3)
    acc: dict[tuple[int, int], float] = {}
    for i in range(STEPS):
        m = m @ matrix
        m /= abs(m).max()
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0.0) + float(m[0, 0])
    return time.perf_counter() - start


def interpreter_seconds() -> float:
    """Wall time of one run of the pure-Python reference loop."""
    start = time.perf_counter()
    acc: dict[tuple[int, int], float] = {}
    x = 0.5
    for i in range(INTERPRETER_STEPS):
        x = x * 3.7 * (1.0 - x) if x < 0.99 else 0.3
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0.0) + x
    return time.perf_counter() - start
