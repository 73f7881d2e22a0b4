"""Machine-speed calibration for timings taken on a shared machine.

The CPU speed one process sees on a shared host can change by 2x within
seconds and stay changed for longer than a run. Every op is therefore
bracketed by a fixed pure-Python loop doing the kind of work the graph
builders do (small objects, tuples, dicts, frozenset unions, a sort), and
each timing is reported in reference seconds:

    reported = wall seconds * (REFERENCE_S / calibration seconds) ** SENSITIVITY

where the calibration time is the mean of the loop's time just before and
just after the timed region. The loop never calls the program under test,
and it runs with the cyclic garbage collector off, so the program's heap
does not change its time.
"""

from __future__ import annotations

import gc
import time

# calibration loop time that defines one reference second: its median on a
# 2-core x86-64 cloud VM under Python 3.11
REFERENCE_S = 0.015

# When the machine slows down, the program's phases slow down by less than
# this loop does. Fitting log(phase time) against log(loop time) over 77
# full ops on such a machine gave slopes of 0.63 to 0.83 for build, detect,
# WQL, save and load; scaling by the full ratio over-corrects slow periods.
SENSITIVITY = 0.7


class _Obj:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


def _work() -> int:
    table: dict[int, frozenset] = {}
    objs = []
    acc: frozenset = frozenset()
    for i in range(6000):
        k = (i * 7919) % 1009
        objs.append(_Obj(k, (i, k), str(i)))
        s = table.get(k)
        table[k] = frozenset((k,)) if s is None else s | {i % 64}
        if i % 50 == 0:
            acc = acc | table[k]
    objs.sort(key=lambda o: (o.a, o.c))
    return len(objs) + len(acc)


def calibration_s() -> float:
    """Wall seconds of one pass of the fixed loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def to_reference(wall_s: float, before_s: float, after_s: float) -> float:
    """Wall seconds to reference seconds, given the calibration times taken
    just before and just after them."""
    return wall_s * (REFERENCE_S * 2 / (before_s + after_s)) ** SENSITIVITY


class SpeedBracket:
    """Calibrate before and after a timed region; `factor` converts its wall
    seconds to reference seconds."""

    def __enter__(self) -> "SpeedBracket":
        self.before = calibration_s()
        return self

    def __exit__(self, *exc) -> None:
        self.after = calibration_s()
        self.factor = to_reference(1.0, self.before, self.after)
