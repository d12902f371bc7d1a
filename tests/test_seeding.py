"""Seed derivation: integer and float key words, rejection of any other component, and
the batched derivation of many keys' Philox keys against numpy's `SeedSequence`."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pxkit import derive_seed, seeding
from pxkit.densities import make_rng

# Python int and float keys define every MC and survey stream, so their
# derived seeds are pinned.
PINS = [
    ((7, 0), 16920295385781661272),
    ((7, 0.5), 16473770293529794092),
    ((7, -2.25), 14388929563314299636),
    ((2**64 + 7, 1, 2), 6837620415509415036),
    ((-1, 3), 11914516797924694533),
]


@pytest.mark.parametrize("key, seed", PINS, ids=[repr(k) for k, _ in PINS])
def test_python_number_keys_are_pinned(key, seed):
    assert derive_seed(*key) == seed


@pytest.mark.parametrize(
    "key, twin",
    [
        (np.float32(0.5), 0.5),
        (np.float16(-2.25), -2.25),
        (np.float64(0.1), 0.1),
        (np.int64(3), 3),
        (np.uint8(3), 3),
        (True, 1),
    ],
    ids=["float32", "float16", "float64", "int64", "uint8", "bool"],
)
def test_numpy_scalars_key_like_the_python_number(key, twin):
    assert derive_seed(7, key) == derive_seed(7, twin)
    assert derive_seed(key, 7) == derive_seed(twin, 7)


def test_fractional_numpy_float_does_not_collide_with_its_truncation():
    assert derive_seed(7, np.float32(0.5)) != derive_seed(7, 0)


@pytest.mark.parametrize("key", [Fraction(1, 2), Decimal("0.5"), "0", None, 1j, np.True_])
def test_other_components_rejected(key):
    with pytest.raises(TypeError, match="integers or floats"):
        derive_seed(7, key)
    with pytest.raises(TypeError, match="integers or floats"):
        derive_seed(key, 7)
    with pytest.raises(TypeError, match="integers or floats"):
        seeding.derive_keys(key, [[7]])


# Base seeds of one and two 32-bit words, negative and past 2**64, numpy
# integers and floats (NaN and infinities included); rows of 0 to 6 words, so
# the entropy runs past SeedSequence's pool of 4.
_BASES = st.one_of(
    st.integers(-(2**70), 2**70),
    st.just(0),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.floats(),
    st.floats(width=32).map(np.float32),
)
_ROWS = st.integers(0, 6).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(0, 2**32 - 1), min_size=k, max_size=k), max_size=8
    ).map(lambda rows: np.array(rows, dtype=np.int64).reshape(len(rows), k))
)


@given(base=_BASES, rows=_ROWS)
def test_batched_derivation_matches_seed_sequence(base, rows):
    seeds = seeding._derived_seeds(base, rows)
    keys = seeding.derive_keys(base, rows)
    assert keys.dtype == np.uint64 and keys.shape == (len(rows), 2)
    for row, seed, key in zip(rows.tolist(), seeds.tolist(), keys):
        assert seed == derive_seed(base, *row)
        assert np.array_equal(key, make_rng(seed).bit_generator.state["state"]["key"])


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_one_and_two_word_seeds_expand_as_seed_sequence(seed):
    # A seed below 2**32 is one entropy word; batched with a two-word seed,
    # each must still hash as SeedSequence hashes it alone.
    other = 2**63 + 5
    keys = seeding._philox_keys(np.array([seed, other, seed], dtype=np.uint64))
    expected = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    assert np.array_equal(keys[0], expected) and np.array_equal(keys[2], expected)
    assert np.array_equal(keys[1], np.random.SeedSequence(other).generate_state(2, np.uint64))


@pytest.mark.parametrize(
    "rows",
    [[[-1]], [[2**32]], [[2**64]], [[0.0]], [[True]], [0, 1], np.zeros((1, 1, 1), dtype=int)],
    ids=["negative", "2**32", "2**64", "float", "bool", "1-D", "3-D"],
)
def test_rows_outside_uint32_rejected(rows):
    with pytest.raises(ValueError, match="rows"):
        seeding.derive_keys(7, rows)


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 3, 2**63 + 11])
def test_key_built_generator_draws_as_make_rng(seed):
    key = seeding._philox_keys(np.array([seed], dtype=np.uint64))[0]
    built = np.random.Generator(np.random.Philox(key=key))
    reference = make_rng(seed)
    assert repr(built.bit_generator.state) == repr(reference.bit_generator.state)
    for draw in (
        lambda g: g.normal(size=7),
        lambda g: g.random(7),
        lambda g: g.choice(1000, size=50, replace=False),
    ):
        assert draw(built).tobytes() == draw(reference).tobytes()
