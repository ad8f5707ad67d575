"""Deterministic counter-based random streams.

Every stochastic routine in this package derives its randomness from a
Philox generator keyed by (seed, context ids).  Streams with different ids
are statistically independent, and a stream's output depends only on its
ids, never on execution order.  Monte Carlo engines key one stream per
work chunk, so serial and multi-threaded runs reduce to identical results.
"""

import numpy as np


def check_seed(seed: int) -> None:
    """The one seed rule: a ValueError unless seed is a non-negative integer."""
    if not (seed == int(seed) and seed >= 0):
        raise ValueError("seed must be a non-negative integer")


def stream(seed: int, *ids: int) -> np.random.Generator:
    """Return an independent Generator for the given (seed, ids) key."""
    check_seed(seed)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(i) for i in ids))
    return np.random.Generator(np.random.Philox(ss))
