"""A fixed piece of pure-Python work that tells how fast the machine is now.

On a shared virtual machine the same code runs 15-40% slower or faster from
one minute to the next, and process CPU time moves with it: the slowdown
comes from the neighbours' load on the shared caches and cores, not from
time taken away from this process. So the worker times this reference work
between chunks of items and scales each item's CPU time by
``REFERENCE_S / (time of the reference work around it)``: a time is then
reported as it would read on the machine when the reference work took
``REFERENCE_S``.

The work imports nothing from ``celogic``, so no change to the program
moves it. It uses what the program's hot loops use: recursion over nested
tuples, a dict memo, frozenset algebra, integer bit masks, and text
rendering and sorting.
"""

from __future__ import annotations

import gc
import time

# CPU time of one run of work() on the reference machine (2-vCPU Intel Xeon
# virtual machine, Python 3.11.7): the median of its calibrations.
REFERENCE_S = 0.025
SHAPES = 60
DEPTH = 7
WORLDS = 4


def _build(k: int, depth: int) -> tuple:
    if depth == 0:
        return ("atom", k % 5)
    return ("op", k % 7, _build(k * 3 + 1, depth - 1), _build(k * 5 + 2, depth - 1))


def _evaluate(t: tuple, world: int, memo: dict) -> frozenset:
    key = (t, world)
    found = memo.get(key)
    if found is not None:
        return found
    if t[0] == "atom":
        out = frozenset({t[1], world})
    else:
        left = _evaluate(t[2], world, memo)
        right = _evaluate(t[3], (world + 1) % WORLDS, memo)
        out = (left | right) if t[1] % 2 else (left & right) | {world}
    memo[key] = out
    return out


def _mask(t: tuple) -> int:
    if t[0] == "atom":
        return 1 << t[1]
    left, right = _mask(t[2]), _mask(t[3])
    return (left & ~right | right << 1) & 0xFFFF if t[1] % 3 else left ^ right


def _render(t: tuple) -> str:
    if t[0] == "atom":
        return "p%d" % t[1]
    return "(%s %d %s)" % (_render(t[2]), t[1], _render(t[3]))


def work() -> int:
    """The reference work; returns a checksum so that none of it is idle."""
    total = 0
    for k in range(SHAPES):
        memo: dict = {}
        shape = _build(k, DEPTH)
        for world in range(WORLDS):
            total += len(_evaluate(shape, world, memo))
        total += _mask(shape)
        total += len(sorted(_render(sub) for sub in shape[2:]))
    return total


def measure() -> float:
    """CPU time of one run of the reference work, in seconds.

    The collector is off while it runs, so that the time does not depend on
    how many objects the program keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        work()
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()
