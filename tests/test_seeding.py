"""Seed derivation: integer and float key words, and rejection of any other component."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from pxkit import derive_seed

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
