"""Deterministic counter-based random streams.

Every stochastic routine in this package derives its randomness from a
Philox generator keyed by (seed, context ids).  Streams with different ids
are statistically independent, and a stream's output depends only on its
ids, never on execution order.  Monte Carlo engines key one stream per
work chunk, so serial and multi-threaded runs reduce to identical results.
"""

from contextlib import suppress

import numpy as np


def check_int(value, name: str) -> int:
    """The one integer rule, the seed's too: value as an int if value ==
    int(value) >= 0, else a ValueError naming the field (NaN and inf too)."""
    with suppress(TypeError, ValueError, OverflowError):
        if value == int(value) >= 0:
            return int(value)
    raise ValueError(f"{name} must be a non-negative integer")


def stream(seed: int, *ids: int) -> np.random.Generator:
    """Return an independent Generator for the given (seed, ids) key."""
    ss = np.random.SeedSequence(entropy=check_int(seed, "seed"),
                                spawn_key=tuple(int(i) for i in ids))
    return np.random.Generator(np.random.Philox(ss))
