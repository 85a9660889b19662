"""A fixed reference kernel that gauges the machine's current speed.

The reference box is a shared 2-core VM whose speed flips between a
fast and a ~1.8x slower state on every time scale from 0.1 ms to
minutes (no steal time shows in the guest; a bare loop shows it as well
as the program does). Whole runs can fall into a slow phase, so no
amount of best-of-N inside a run removes it. The benchmark therefore
interleaves this kernel with the timed calls: :meth:`Gauge.read` times a
few *units* of fixed pure-Python work (suffix tests, dict counting, a
sort — the kind of work the program does, and nothing of the program).
The fastest unit of the whole run is the machine's unloaded speed; a
reading divided by it is the slowdown in force around the neighbouring
calls, and the harness divides their wall time by it.

The kernel belongs to the benchmark, not to the program: a change to
the program cannot speed it up.
"""

from __future__ import annotations

import random
import time
from typing import List

_SUFFIXES = ("ational", "iveness", "fulness", "ization", "ing", "edly",
             "ed", "ly", "es", "s")
UNITS_PER_READING = 8


def _words() -> List[str]:
    rng = random.Random(1)
    letters = "abcdefghijklmnopqrstuvwxyz"
    return [
        "".join(rng.choice(letters) for _ in range(rng.randint(4, 10)))
        + rng.choice(_SUFFIXES + ("",) * 4)
        for _ in range(220)
    ]


_WORDS = _words()


def unit() -> int:
    """One unit of reference work (about 0.2 ms on the reference box)."""
    counts = {}
    for word in _WORDS:
        for suffix in _SUFFIXES:
            if word.endswith(suffix):
                word = word[:-len(suffix)]
                break
        counts[word] = counts.get(word, 0) + 1
    acc = 0
    for index, (word, count) in enumerate(sorted(counts.items())):
        acc += (len(word) * count + index) % 7
    return acc


class Gauge:
    """Readings of the reference kernel over one run."""

    def __init__(self):
        self.floor = float("inf")   # fastest unit seen: unloaded speed
        self.units = 0

    def read(self) -> float:
        """Mean seconds per unit over a few units, right now."""
        clock = time.perf_counter
        total = 0.0
        for _ in range(UNITS_PER_READING):
            start = clock()
            unit()
            spent = clock() - start
            total += spent
            if spent < self.floor:
                self.floor = spent
        self.units += UNITS_PER_READING
        return total / UNITS_PER_READING
