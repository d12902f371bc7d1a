"""The rules for numeric parameters: real values in an interval, integer counts and seeds.

They own the range pxkit can represent: a real must have a float, and a
count must fit numpy's int64.  A value beyond it is bad input like any
other, a ValueError naming the parameter and showing the value.
"""

from __future__ import annotations

import math
from numbers import Rational, Real


def check_real(
    name: str, value, lower: float = -math.inf, upper: float = math.inf, ends: str = "()"
) -> float:
    """``value`` as a float when it lies in the interval from ``lower`` to ``upper``.

    ``ends`` gives the interval's brackets: "()", "[)", "(]" or "[]", a
    square bracket for a closed end.  The defaults ask for a finite value.
    Otherwise raises a ValueError whose message starts with ``name`` and
    shows the value, built only then.  NaN fails every comparison, so every
    interval rejects it.  The range is tested on ``value`` itself, then
    ``float`` converts it: a value that does not compare with a float (such
    as a str) raises TypeError, and an int or Fraction beyond the float
    range that passes raises ValueError, its message too naming ``name``
    and showing the value.  A real that is not rational, such as a numpy
    float32, is tested as its float: numpy compares it with a Python float
    in its own width, which would cast a finite end beyond that width's
    range to inf with an overflow warning.
    """
    x = value
    if not isinstance(value, (float, int)) and isinstance(value, Real) and not isinstance(value, Rational):
        x = float(value)
    # The open interval first: most values lie inside it, and a closed end
    # then costs one equality test.
    if lower < x < upper or x == lower and ends[0] == "[" or x == upper and ends[1] == "]":
        try:
            return float(x)
        except OverflowError:
            raise ValueError(f"{name} must lie in the float range, got {value!r}") from None
    raise ValueError(f"{name} must lie in {ends[0]}{lower}, {upper}{ends[1]}, got {value!r}")


def check_count(name: str, value, minimum: int, maximum: int = 2**63 - 1) -> int:
    """``value`` as an int when it is an integer in [minimum, maximum].

    Otherwise raises a ValueError whose message starts with ``name`` and
    states the interval.  The default ceiling is numpy's int64 maximum, as
    counts index arrays and count draws in that type.  NaN fails the range
    test and inf fails ``% 1 == 0`` (inf % 1 is NaN), so neither reaches
    ``int``; an integral float such as 10.0 gives 10.
    """
    if not (minimum <= value <= maximum and value % 1 == 0):
        raise ValueError(f"{name} must be an integer in [{minimum}, {maximum}], got {value}")
    return int(value)


def check_seed(seed) -> int:
    """The seed as an int; raises ValueError unless an integer in [0, 2**64).

    Every function that draws from a seed checks it here, so no two seeds
    it accepts give the same streams.
    """
    return check_count("seed", seed, 0, 2**64 - 1)
