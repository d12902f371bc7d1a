"""Deterministic derivation of decorrelated seeds from a base seed.

Derived seeds are pure functions of the base seed and the key components
(integers, or floats keyed by the IEEE-754 bit pattern of their float64
value), so independent streams can be reconstructed anywhere without shared
state.
"""

from __future__ import annotations

import numbers
import struct

import numpy as np


def _word(component) -> int:
    # Any other real (a Fraction, a Decimal) has no float64 bit pattern of its
    # own, and truncating it with int() would collide with an integer key.
    if isinstance(component, (int, numbers.Integral)):  # int first skips the ABC check
        return int(component) % (1 << 64)
    if isinstance(component, (float, np.floating)):
        return struct.unpack("<Q", struct.pack("<d", float(component)))[0]
    raise TypeError(f"seed components must be integers or floats, got {component!r}")


def derive_seed(base_seed: int, *components) -> int:
    """Collapse (base_seed, components...) into one 64-bit seed.

    Raises TypeError for a component that is neither an integer nor a float.
    """
    words = [_word(base_seed)] + [_word(c) for c in components]
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])
