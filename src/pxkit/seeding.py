"""Deterministic derivation of decorrelated seeds from a base seed.

Derived seeds are pure functions of the base seed and the key components
(integers, or floats keyed by the IEEE-754 bit pattern of their float64
value), so independent streams can be reconstructed anywhere without shared
state.

`derive_seed` hashes one key with numpy's `SeedSequence`.  `derive_keys`
takes many keys of small integers at once: it runs the same `SeedSequence`
hash on uint32 arrays, one row per key, and goes on to the Philox key that
`densities.make_rng` would give each derived seed, so
`densities.rng_from_key` builds those generators with no further hashing.
Both give the same streams; `derive_seed` is numpy's own code and the
reference the batch is tested against.

Inside the hash an integer word (the base seed or a component) is taken
modulo 2**64, so integers that differ by a multiple of 2**64 hash alike.
Every function that takes a seed (`densities.make_rng`, the Monte Carlo
estimators and `sweep`, `survey.compare_schemes`) rejects one outside
[0, 2**64) with `_checks.check_seed`, so no two seeds it accepts alias.
"""

from __future__ import annotations

import numbers
import struct

import numpy as np

# numpy's SeedSequence (numpy/random/bit_generator.pyx): the entropy words
# are hashed into a pool of four uint32 words and stirred together with
# `_INIT_A`'s running constant; `generate_state` hashes the pool words in
# turn with `_INIT_B`'s.  The arithmetic wraps at 32 bits as numpy's does.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


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


def derive_keys(base_seed, rows) -> np.ndarray:
    """The Philox key of ``make_rng(derive_seed(base_seed, *row))`` for each row.

    ``rows`` is an (n, k) integer array with entries in [0, 2**32); the
    result is an (n, 2) uint64 array, one key per row, for
    `densities.rng_from_key`.  The base seed is keyed as `derive_seed` keys
    it.  Raises ValueError for any other ``rows`` and TypeError for a base
    seed that `derive_seed` rejects.
    """
    return _philox_keys(_derived_seeds(base_seed, rows))


def _derived_seeds(base_seed, rows) -> np.ndarray:
    """``derive_seed(base_seed, *row)`` for each row, as a uint64 array."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.dtype.kind not in "iu" or not (
        rows.size == 0 or 0 <= rows.min() <= rows.max() <= _MASK32
    ):
        raise ValueError("rows must be an (n, k) array of integers in [0, 2**32)")
    # SeedSequence splits each entropy integer into 32-bit words, low first,
    # and 0 is one word; every row entry is one word.
    base = _word(base_seed)
    words = [base & _MASK32] + ([base >> 32] if base >> 32 else [])
    entropy = [np.full(len(rows), w, np.uint32) for w in words] + list(rows.T.astype(np.uint32))
    return _join(*_generate_state(_mix_entropy(entropy), 2))


def _philox_keys(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(2, np.uint64)`` for each uint64 seed s, as (n, 2)."""
    # A seed below 2**32 is one entropy word, but the pool hashes a missing
    # word as 0, so [lo, 0] fills it as [lo] does: one pass serves both.
    lo = (seeds & _MASK32).astype(np.uint32)
    hi = (seeds >> 32).astype(np.uint32)
    words = _generate_state(_mix_entropy([lo, hi]), 4)
    return np.column_stack((_join(words[0], words[1]), _join(words[2], words[3])))


def _mix_entropy(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's pool for each lane of equal-length uint32 entropy word arrays."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    zero = np.zeros(len(entropy[0]), np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> 16)


def _generate_state(pool: list[np.ndarray], n_words: int) -> list[np.ndarray]:
    """SeedSequence.generate_state's first ``n_words`` uint32 words, one array per word."""
    const = _INIT_B
    out = []
    for i in range(n_words):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        out.append(value ^ (value >> 16))
    return out


def _join(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """uint64 words from their low and high uint32 halves, as generate_state joins them."""
    return lo.astype(np.uint64) | hi.astype(np.uint64) << 32
