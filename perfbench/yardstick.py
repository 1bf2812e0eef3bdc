"""The yardstick: a fixed task that does not touch lotkarank, timed between operations.

The host this benchmark was written on drifts between speed states by up
to a factor of two, for seconds to minutes at a time, and the guest cannot
see why (context.json, `host_noise`). Every timed operation is therefore
also reported relative to the yardstick times measured just before and
after it: a change to lotkarank moves the operation but not the yardstick,
while a slower host moves both.

The task mixes what lotkarank's operations spend their time on, so that the
two slow down together: unmarshalling code objects (as an import does),
counting into a dict of Python ints, and a numpy gather from an array
larger than the CPU caches.
"""
import gc
import marshal
from time import perf_counter

import numpy as np

KEYS = 150_000
TABLE = 4_000_000
PICKS = 1_000_000
FUNCTIONS = 1500


def _source(n):
    """A module of n small functions, so that its code objects look like a library's."""
    return "".join(
        f"def f{i}(a, b={i}, *rest, key='k{i}'):\n"
        f"    x = [a * {i} + b, '{i}-' + str(a), ({i}, {i}.5, None)]\n"
        f"    return {{'x': x, key: rest, 'n{i}': len(rest)}}\n"
        for i in range(n)
    )


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(20110601)
        self.keys = rng.integers(0, 1 << 40, KEYS).tolist()
        self.table = rng.random(TABLE)
        self.picks = rng.integers(0, TABLE, PICKS)
        self.code = marshal.dumps(compile(_source(FUNCTIONS), "<yardstick>", "exec"))
        self.time()  # first touch of the pages is not part of the task

    def time(self) -> float:
        """Run the task once; returns its wall seconds."""
        enabled = gc.isenabled()
        gc.disable()  # the harness's own heap must not decide the time
        try:
            start = perf_counter()
            counts = {}
            for k in self.keys:
                counts[k] = counts.get(k, 0) + 1
            for _ in range(10):
                marshal.loads(self.code)
            float(self.table[self.picks].sum())
            return perf_counter() - start
        finally:
            if enabled:
                gc.enable()
