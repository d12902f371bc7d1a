"""Density construction, evaluation, CSV loading and sampler correctness."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from pxkit import (
    Interval,
    QuadratureConfig,
    ScalarDensity,
    affinity,
    exponential_density,
    gamma_density,
    load_tabulated_csv,
    normal_density,
    tabulated_density,
)
from pxkit.densities import make_rng, rekey

ALL_BUILTINS = {
    "normal": normal_density(0.3, 1.7),
    "exponential": exponential_density(0.8),
    "gamma": gamma_density(1.5, 2.0),
    "uniform": tabulated_density([0, 1], [1, 1]),
    "triangle": tabulated_density([0, 1, 2], [0, 2, 0]),
}


class TestEvaluation:
    def test_standard_normal_at_zero(self):
        d = normal_density(0, 1)
        assert float(d.pdf(0.0)) == pytest.approx(0.3989422804014327, abs=1e-12)

    def test_normal_symmetry(self):
        d = normal_density(0, 1)
        assert float(d.pdf(1.0)) == float(d.pdf(-1.0))

    def test_exponential_at_origin_and_outside(self):
        d = exponential_density(1.0)
        assert float(d.pdf(0.0)) == 1.0
        assert float(exponential_density(2.0).pdf(-1.0)) == 0.0

    def test_log_eval_consistency(self):
        """exp(logpdf) must reproduce pdf wherever the density is positive."""
        x = np.linspace(-4, 6, 200)
        for name, d in ALL_BUILTINS.items():
            p = d.pdf(x)
            lp = d.logpdf(x)
            mask = p > 0
            np.testing.assert_allclose(np.exp(lp[mask]), p[mask], rtol=1e-12, err_msg=name)
            assert np.all(np.isneginf(lp[~mask]))

    def test_zero_outside_support(self):
        for d in ALL_BUILTINS.values():
            below = d.support.lower - 1.0 if math.isfinite(d.support.lower) else None
            above = d.support.upper + 1.0 if math.isfinite(d.support.upper) else None
            for probe in (below, above):
                if probe is not None:
                    assert float(d.pdf(probe)) == 0.0

    def test_infinite_arguments_are_safe(self):
        for d in ALL_BUILTINS.values():
            assert float(d.pdf(math.inf)) == 0.0
            assert float(d.pdf(-math.inf)) == 0.0


class TestNormalization:
    # A density's self-affinity is its total mass: sqrt(f * f) = f.
    @pytest.mark.parametrize("name", sorted(ALL_BUILTINS))
    def test_unit_mass(self, name):
        d = ALL_BUILTINS[name]
        res = affinity(d, d, QuadratureConfig(abs_tol=1e-10))
        assert abs(res.raw_value - 1.0) < 1e-6

    def test_requested_normal_instance(self):
        d = normal_density(3.0, 2.0)
        assert abs(affinity(d, d).raw_value - 1.0) < 1e-6


class TestValidation:
    def test_bad_scale_parameters(self):
        with pytest.raises(ValueError):
            normal_density(0, 0)
        with pytest.raises(ValueError):
            normal_density(0, -1)
        with pytest.raises(ValueError):
            exponential_density(0)
        with pytest.raises(ValueError):
            gamma_density(-1, 1)

    @pytest.mark.parametrize(
        "make, args",
        [
            (normal_density, (math.nan, 1.0)),
            (normal_density, (math.inf, 1.0)),
            (normal_density, (0.0, math.inf)),
            (exponential_density, (math.inf,)),
            (gamma_density, (math.inf, 1.0)),
            (gamma_density, (2.0, math.inf)),
        ],
    )
    def test_non_finite_parameters(self, make, args):
        with pytest.raises(ValueError, match="finite"):
            make(*args)

    @pytest.mark.parametrize(
        "make, args",
        [(exponential_density, (5e-309,)), (gamma_density, (1e200, 1e200))],
    )
    def test_overflowing_hints_rejected(self, make, args):
        # Finite parameters whose integration hints (1/rate; shape*scale) overflow.
        with pytest.raises(ValueError, match="hints must be finite"):
            make(*args)

    @pytest.mark.parametrize("hints", [(math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0),
                                       (0.0, math.nan)])
    def test_density_hints_must_be_finite(self, hints):
        center, scale = hints
        base = normal_density(0.0, 1.0)
        with pytest.raises(ValueError, match="hints must be finite"):
            ScalarDensity(base.support, base.logpdf, base.sample, center=center, scale=scale)

    def test_tabulated_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            tabulated_density([0, 1], [0, 0])
        with pytest.raises(ValueError):
            tabulated_density([1, 0], [1, 1])
        with pytest.raises(ValueError):
            tabulated_density([0, 1], [1, -1])
        with pytest.raises(ValueError):
            tabulated_density([0], [1])

    def test_interval_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(2, 2)


class TestTabulated:
    def test_uniform(self):
        d = tabulated_density([0, 1], [1, 1])
        assert float(d.pdf(0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_triangle_renormalizes(self):
        # Trapezoid mass of the raw shape is 2, so the peak lands at 1.
        d = tabulated_density([0, 1, 2], [0, 2, 0])
        assert float(d.pdf(1.0)) == pytest.approx(1.0, abs=1e-15)
        assert float(d.pdf(0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "density.csv"
        path.write_text("grid,value\n0,0\n1,2\n2,0\n", encoding="utf-8")
        d = load_tabulated_csv(path)
        assert float(d.pdf(1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "density.csv"
        path.write_text("0,1\n1,1\n", encoding="utf-8")
        d = load_tabulated_csv(path)
        assert float(d.pdf(0.25)) == pytest.approx(1.0, abs=1e-15)

    def test_csv_header_after_blank_lines(self, tmp_path):
        path = tmp_path / "density.csv"
        path.write_text("\n , \ngrid,value\n0,0\n1,2\n2,0\n", encoding="utf-8")
        d = load_tabulated_csv(path)
        assert float(d.pdf(1.0)) == pytest.approx(1.0, abs=1e-15)
        # Only the first non-blank row may be a header.
        path.write_text("\ngrid,value\ngrid,value\n0,0\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3: non-numeric"):
            load_tabulated_csv(path)

    def test_csv_typo_in_first_data_row_is_not_a_header(self, tmp_path):
        # "0,1x" has a number in it, so it is a data row with a typo, not a header.
        path = tmp_path / "density.csv"
        path.write_text("0,1x\n1,1\n2,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1: non-numeric"):
            load_tabulated_csv(path)

    def test_csv_byte_order_mark_is_not_data(self, tmp_path):
        # A UTF-8 byte-order mark must not turn the first data row into a header.
        path = tmp_path / "density.csv"
        path.write_bytes(b"\xef\xbb\xbf0,0\n1,2\n2,0\n")
        d = load_tabulated_csv(path)
        assert (d.support.lower, d.support.upper) == (0.0, 2.0)
        assert float(d.pdf(1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_csv_bad_rows(self, tmp_path):
        path = tmp_path / "density.csv"
        path.write_text("0\n1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_tabulated_csv(path)
        path.write_text("0,1\nx,y\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_tabulated_csv(path)

    def test_csv_third_column_is_rejected(self, tmp_path):
        # pandas' to_csv() keeps its index column, which would be read as the grid.
        path = tmp_path / "density.csv"
        path.write_text(",grid,value\n0,0.0,0.0\n1,1.0,2.0\n2,2.0,0.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1: expected two columns, got 3"):
            load_tabulated_csv(path)
        path.write_text("grid,value\n0,0\n1,2,5\n2,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3: expected two columns, got 3"):
            load_tabulated_csv(path)
        # Blank trailing cells are not columns.
        path.write_text("grid,value,\n0,0,\n1,2, \n2,0,,\n", encoding="utf-8")
        assert float(load_tabulated_csv(path).pdf(1.0)) == pytest.approx(1.0, abs=1e-15)


def _triangle_cdf(x):
    # Exact CDF of the unit triangle on [0, 2]: quadratic on each half.
    x = np.asarray(x, dtype=float)
    xl = np.clip(x, 0, 1)
    xr = np.clip(x - 1, 0, 1)
    return 0.5 * xl**2 + xr - 0.5 * xr**2


class TestSamplers:
    N = 100_000

    def _ks(self, draws, cdf):
        draws = np.sort(draws)
        grid = cdf(draws)
        ecdf_hi = np.arange(1, len(draws) + 1) / len(draws)
        ecdf_lo = np.arange(0, len(draws)) / len(draws)
        return max(np.max(np.abs(ecdf_hi - grid)), np.max(np.abs(grid - ecdf_lo)))

    def test_normal_sampler(self):
        d = normal_density(0.3, 1.7)
        assert self._ks(d.sample(self.N, make_rng(1)), lambda x: stats.norm.cdf(x, 0.3, 1.7)) < 0.01

    def test_exponential_sampler(self):
        d = exponential_density(0.8)
        assert self._ks(d.sample(self.N, make_rng(2)), lambda x: stats.expon.cdf(x, scale=1 / 0.8)) < 0.01

    def test_gamma_sampler(self):
        d = gamma_density(1.5, 2.0)
        assert self._ks(d.sample(self.N, make_rng(3)), lambda x: stats.gamma.cdf(x, 1.5, scale=2.0)) < 0.01

    def test_tabulated_sampler(self):
        d = tabulated_density([0, 1, 2], [0, 2, 0])
        assert self._ks(d.sample(self.N, make_rng(4)), _triangle_cdf) < 0.01

    def test_uniform_sampler(self):
        d = tabulated_density([0, 1], [1, 1])
        assert self._ks(d.sample(self.N, make_rng(5)), lambda x: np.clip(x, 0, 1)) < 0.01

    def test_seed_determinism(self):
        for d in ALL_BUILTINS.values():
            np.testing.assert_array_equal(d.sample(1000, make_rng(42)), d.sample(1000, make_rng(42)))

    def test_different_seeds_differ(self):
        d = normal_density(0, 1)
        assert not np.array_equal(d.sample(100, make_rng(1)), d.sample(100, make_rng(2)))


@pytest.mark.parametrize(
    "density",
    [
        normal_density(0.3, 1.7),
        exponential_density(0.8),
        gamma_density(0.5, 2.0),
        gamma_density(3.0, 0.7),
        tabulated_density([0, 1, 2], [0, 2, 0]),
    ],
    ids=["normal", "exponential", "gamma-0.5", "gamma-3", "tabulated"],
)
@pytest.mark.parametrize("a, b", [(1, 1), (7, 993), (1 << 16, 3)])
def test_consecutive_draws_continue_one_stream(density, a, b):
    # The Monte Carlo estimators draw in blocks from one generator per
    # stream; their results equal a full-length draw only if this holds.
    g = make_rng(11)
    blocked = np.concatenate([density.sample(a, g), density.sample(b, g)])
    assert np.array_equal(blocked, density.sample(a + b, make_rng(11)))


# Draws that leave a generator anywhere in its stream.  A uniform or a normal
# uses part of a four-word block (buffer_pos < 4); a uint32 draw keeps the
# other half of its word for the next one (has_uint32 = 1).
_MIXED_DRAWS = {
    "normal": lambda g, n: g.normal(size=n),
    "random": lambda g, n: g.random(n),
    "uint32": lambda g, n: g.integers(0, 1000, size=n, dtype=np.uint32),
    "choice": lambda g, n: g.choice(1000, size=n, replace=False),
}
_PARTIAL_BLOCK = [("random", 1)]
_SPARE_HALF = [("uint32", 1)]
_UINT64 = st.integers(0, 2**64 - 1)


def _from_key(key):
    """numpy's own generator for a Philox key: the state `rekey` must set."""
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def _left_in(draws, key=(1, 2)):
    g = _from_key(key)
    for name, n in draws:
        _MIXED_DRAWS[name](g, n)
    return g


def test_mixed_draws_leave_a_partial_block_and_a_spare_half():
    assert _left_in(_PARTIAL_BLOCK).bit_generator.state["buffer_pos"] < 4
    assert _left_in(_SPARE_HALF).bit_generator.state["has_uint32"] == 1


@settings(deadline=None)
@given(
    key=st.tuples(_UINT64, _UINT64),
    first=st.tuples(_UINT64, _UINT64),
    draws=st.lists(st.tuples(st.sampled_from(sorted(_MIXED_DRAWS)), st.integers(1, 9)), max_size=8),
)
@example(key=(0, 0), first=(1, 2), draws=_PARTIAL_BLOCK)
@example(key=(2**64 - 1, 5), first=(1, 2), draws=_SPARE_HALF)
@example(key=(3, 4), first=(3, 4), draws=[*_SPARE_HALF, *_PARTIAL_BLOCK, ("choice", 5)])
def test_rekeyed_generator_starts_as_a_new_one(key, first, draws):
    # Whatever state the generator was left in, re-keying it gives the state
    # and the draws of numpy's generator built from the key.
    g = rekey(_left_in(draws, first), list(key))
    fresh = _from_key(key)
    assert repr(g.bit_generator.state) == repr(fresh.bit_generator.state)
    assert g.normal(size=3).tobytes() == fresh.normal(size=3).tobytes()
    out, expected = np.empty(5), np.empty(5)
    g.random(out=out)
    fresh.random(out=expected)
    assert out.tobytes() == expected.tobytes()
    assert g.choice(1000, 7, replace=False).tobytes() == fresh.choice(1000, 7, replace=False).tobytes()


@pytest.mark.parametrize("shape", [0.5, 1.0, 1.5, 2.0, 3.5, 10.0])
@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_gamma_logpdf_matches_scipy(shape, scale):
    """The normalising constant uses math.lgamma; scipy stays the reference."""
    x = scale * np.array([0.01, 0.1, 0.5, 1.5, 4.0, 12.0, 40.0])
    np.testing.assert_allclose(
        gamma_density(shape, scale).logpdf(x), stats.gamma.logpdf(x, shape, scale=scale), rtol=1e-13
    )


_ENDPOINTS = [-math.inf, -2.0, -0.0, 0.0, 1.5, math.inf]


def test_interval_intersection_keeps_the_endpoint_bits():
    # An intersection equal to one side may be that side itself; it must
    # still hold the endpoints, signed zeros included, that max and min give.
    intervals = [Interval(lo, hi) for lo, hi in itertools.product(_ENDPOINTS, repeat=2) if lo < hi]
    for a, b in itertools.product(intervals, repeat=2):
        lo, hi = max(a.lower, b.lower), min(a.upper, b.upper)
        got = a.intersect(b)
        if lo >= hi:
            assert got is None
            continue
        assert (math.copysign(1.0, got.lower), got.lower, got.upper) == (
            math.copysign(1.0, lo), lo, hi)


@settings(max_examples=200, deadline=None)
@given(
    mean=st.floats(-1e3, 1e3),
    sd=st.floats(-300.0, math.log10(7e307)).map(lambda e: 10.0 ** e),
)
@example(mean=0.0, sd=1e-300)
@example(mean=0.0, sd=7e307)
def test_normal_logpdf_keeps_its_bits(mean, sd):
    x = np.array([0.0, mean, mean - 3.0 * sd, mean + 0.5 * sd, mean + 40.0 * sd])
    with np.errstate(over="ignore"):
        z = (x - mean) / sd
        want = -0.5 * z * z - math.log(sd * math.sqrt(2.0 * math.pi))
    assert normal_density(mean, sd).logpdf(x).tobytes() == want.tobytes()


def test_normal_logpdf_at_the_largest_scales():
    # sd * sqrt(2 pi) overflows above about 7.2e307; the log of the
    # normalising constant, about 710.1 here, must not.
    assert normal_density(0.0, 1e308).logpdf(0.0) == pytest.approx(
        -(math.log(1e308) + 0.5 * math.log(2.0 * math.pi)), rel=1e-15)
