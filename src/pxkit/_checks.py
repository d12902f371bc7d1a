"""The one rule for integer counts: budgets, replicate counts, sample sizes and seeds."""

from __future__ import annotations

import math


def check_count(name: str, value, minimum: int, maximum: float = math.inf) -> int:
    """``value`` as an int when it is an integer in [minimum, maximum].

    Otherwise raises a ValueError whose message starts with ``name``.  NaN
    fails the range test and inf fails ``% 1 == 0`` (inf % 1 is NaN), so
    neither reaches ``int``; an integral float such as 10.0 gives 10.
    """
    if not (minimum <= value <= maximum and value % 1 == 0):
        bounds = f">= {minimum}" if maximum == math.inf else f"in [{minimum}, {maximum}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value}")
    return int(value)


def check_seed(seed) -> int:
    """The seed as an int; raises ValueError unless an integer in [0, 2**64).

    Every function that draws from a seed checks it here, so no two seeds
    it accepts give the same streams.
    """
    return check_count("seed", seed, 0, 2**64 - 1)
