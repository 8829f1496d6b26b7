"""A fixed reference loop that measures the host's speed at the moment.

The host this benchmark was written on runs the same code up to 2x slower
for minutes at a time, and its vCPUs drift independently.  run.py pins
itself and its children to one CPU, runs reference() between any two jobs
or set-up probes, and reports times at the reference loop's nominal speed:
job seconds x REF_S / (mean of the reference runs just before and after).
The loop has four parts, each about a quarter of its time, for the kinds
of work mvspectra does: numpy indexing on small arrays with pure-Python
arithmetic; gathers over a 1.3 MB table into fresh arrays; lookups spread
over a 300 000-entry dict; and random gathers over a 16 MB array.  The last
two miss the caches, as the verify checks' sets and dicts do, so they feel
a busy host's memory system.  It imports nothing from
mvspectra, so a change to the program cannot move it.
"""

import time

import numpy as np

SMALL_ROUNDS = 1000
TABLE_ROUNDS = 25
DICT_SIZE, DICT_LOOKUPS = 300_000, 50_000
GATHER_ROUNDS = 10
# the loop's median seconds on the 2-vCPU Xeon it was tuned on; only a scale
REF_S = 0.1

_RNG = np.random.default_rng(0)
_SMALL = np.minimum(np.add.outer(np.arange(48), np.arange(48)), 47)
_TABLE = _RNG.integers(0, 400, (400, 400))
_DICT = {k * 7919: k for k in range(DICT_SIZE)}
_KEYS = [k * 7919 for k in _RNG.integers(0, DICT_SIZE, DICT_LOOKUPS).tolist()]
_ARRAY = _RNG.integers(0, 2_000_000, 2_000_000)


def reference():
    """Seconds one run of the fixed loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(SMALL_ROUNDS):
        row = _SMALL[i % 48]
        reach = _SMALL[row][:, row].max(axis=1)
        acc += int(np.flatnonzero(reach > i % 48).size)
        acc += sum(x * x % 7 for x in range(40))
    for i in range(TABLE_ROUNDS):
        rows = _TABLE[_TABLE[i]]
        cols = _TABLE[:, _TABLE[:, i]]
        acc += int((rows == cols).all(axis=1).sum())
    for key in _KEYS:
        acc += _DICT[key]
    for i in range(GATHER_ROUNDS):
        start = i % 8 * 250_000
        acc += int(_ARRAY[_ARRAY[start:start + 250_000]].sum())
    return time.perf_counter() - t0


def at_reference_speed(seconds, ref_seconds):
    """seconds measured while reference() took ref_seconds, at nominal speed."""
    return seconds * REF_S / ref_seconds
