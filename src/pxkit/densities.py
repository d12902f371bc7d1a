"""Scalar probability densities with evaluation, log-evaluation and sampling.

Every density here is a plain value object: an interval of support plus a
vectorized ``logpdf`` callable and a ``sample(n, rng)`` callable.  ``logpdf``
is the one formula of the law; ``pdf`` is derived from it.  Samplers hold no
state of their own: they draw from the caller's `numpy.random.Generator`,
so the generator's state fully determines the draw, and consecutive calls
on one generator continue its stream (``n = a`` then ``n = b`` gives the
same values as one call with ``n = a + b``).  `make_rng` builds the
generator from an integer seed, and `rekey` sets an existing Philox
generator to the state ``numpy.random.Philox(key=key)`` starts in, for the
key that `seeding.derive_keys` computed for a seed, so that one generator
can serve many streams in turn.  No other pxkit module constructs a Philox
generator.  A density may also hold one law per entry of a parameter array
(a conditional family at an array of t1): ``logpdf`` then pairs its
argument with those entries elementwise and ``sample`` draws one value per
entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ._checks import check_seed

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) for an integer seed in [0, 2**64); raises ValueError otherwise."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(check_seed(seed))))


def rekey(rng: np.random.Generator, key) -> np.random.Generator:
    """Set the Philox generator ``rng`` to the state ``numpy.random.Philox(key=key)`` starts in; return it.

    ``key`` is two integers in [0, 2**64), such as a row of
    `seeding.derive_keys` as a list.  The whole state is set: counter,
    key, the buffer of the last block and its position, and the spare
    32-bit half (``has_uint32``, ``uinteger``), so no draw made before
    reaches a draw made after.  A list of Python ints is set about twice as
    fast as a uint64 array.
    """
    # A new Philox generator's buffer is spent (position 4 of 4), so its
    # first draw computes the block at counter 0.
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


@dataclass(frozen=True)
class Interval:
    """Support interval; either endpoint may be infinite."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("interval endpoints must not be NaN")
        if not self.lower < self.upper:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")

    def intersect(self, other: "Interval") -> "Interval | None":
        lo = max(self.lower, other.lower)
        hi = min(self.upper, other.upper)
        if lo >= hi:
            return None
        # max and min keep self's endpoint unless the other one is strictly
        # inside, so equal endpoints here are self's own, signed zeros included.
        if lo == self.lower and hi == self.upper:
            return self
        return Interval(lo, hi)


# The supports every normal, exponential and gamma density shares.
_WHOLE_LINE = Interval(-math.inf, math.inf)
_HALF_LINE = Interval(0.0, math.inf)


@dataclass(frozen=True)
class ScalarDensity:
    """A one-dimensional density.

    ``logpdf`` accepts scalars or numpy arrays and returns -inf outside
    ``support``; ``pdf`` is its exponential.  ``sample(n, rng)`` returns
    ``n`` draws from the generator ``rng`` and advances it past them, so
    the draws are bit-reproducible for a given generator state and a
    second call continues the stream where the first stopped.  ``center`` and
    ``scale`` are location/spread hints used to parameterize variable
    transformations when integrating over infinite supports; they carry no
    probabilistic meaning of their own, and both must be finite.
    """

    support: Interval
    logpdf: Callable[[np.ndarray | float], np.ndarray]
    sample: Callable[[int, np.random.Generator], np.ndarray]
    center: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        # A parameter whose reciprocal or product overflows gives an infinite
        # hint, and the integrator's nodes would all land at infinity.
        if not (math.isfinite(self.center) and math.isfinite(self.scale)):
            raise ValueError(
                f"center and scale hints must be finite, got ({self.center}, {self.scale})"
            )

    def pdf(self, x) -> np.ndarray:
        """Density values: ``exp(logpdf(x))``, 0 outside ``support``."""
        return np.exp(self.logpdf(x))


def normal_density(mean: float, sd: float) -> ScalarDensity:
    """Normal density with the given mean and standard deviation."""
    if not math.isfinite(mean):
        raise ValueError(f"mean must be finite, got {mean}")
    if not 0 < sd < math.inf:
        raise ValueError(f"standard deviation must be positive and finite, got {sd}")
    mean = float(mean)
    sd = float(sd)
    norm = sd * _SQRT_2PI
    # Above sd of about 7.2e307 the product overflows; the sum of logs is
    # taken only there, so every finite product keeps the bits of its log.
    log_norm = math.log(norm) if norm < math.inf else math.log(sd) + math.log(_SQRT_2PI)

    def logpdf(x):
        # z and z * z overflow to inf only where the density underflows to 0 anyway.
        with np.errstate(over="ignore"):
            z = (np.asarray(x, dtype=float) - mean) / sd
            return -0.5 * z * z - log_norm

    def sample(n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(mean, sd, size=int(n))

    return ScalarDensity(
        support=_WHOLE_LINE,
        logpdf=logpdf,
        sample=sample,
        center=mean,
        scale=sd,
    )


def exponential_density(rate: float) -> ScalarDensity:
    """Exponential density with the given rate on [0, inf)."""
    if not 0 < rate < math.inf:
        raise ValueError(f"rate must be positive and finite, got {rate}")
    rate = float(rate)
    log_rate = math.log(rate)

    def logpdf(x):
        x = np.asarray(x, dtype=float)
        inside = x >= 0.0
        safe = np.where(inside, x, 0.0)
        # rate * x overflows to inf only where the density underflows to 0 anyway.
        with np.errstate(over="ignore"):
            return np.where(inside, log_rate - rate * safe, -math.inf)

    def sample(n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(1.0 / rate, size=int(n))

    return ScalarDensity(
        support=_HALF_LINE,
        logpdf=logpdf,
        sample=sample,
        center=1.0 / rate,
        scale=1.0 / rate,
    )


def gamma_density(shape: float, scale: float) -> ScalarDensity:
    """Gamma density (shape/scale parameterization) on (0, inf)."""
    if not (0 < shape < math.inf and 0 < scale < math.inf):
        raise ValueError(f"shape and scale must be positive and finite, got ({shape}, {scale})")
    shape = float(shape)
    scale = float(scale)
    log_norm = math.lgamma(shape) + shape * math.log(scale)

    def logpdf(x):
        x = np.asarray(x, dtype=float)
        inside = (x > 0.0) & np.isfinite(x)
        safe = np.where(inside, x, 1.0)
        out = (shape - 1.0) * np.log(safe) - safe / scale - log_norm
        return np.where(inside, out, -math.inf)

    def sample(n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.gamma(shape, scale, size=int(n))

    return ScalarDensity(
        support=_HALF_LINE,
        logpdf=logpdf,
        sample=sample,
        center=shape * scale,
        scale=math.sqrt(shape) * scale,
    )


def tabulated_density(grid, values) -> ScalarDensity:
    """Piecewise-linear density from (grid, values) pairs.

    The grid must be strictly ascending with at least two points; values
    must be nonnegative with positive total mass.  Values are renormalized
    so the trapezoid integral over [grid[0], grid[-1]] is exactly 1.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must hold at least two points")
    if values.shape != grid.shape:
        raise ValueError("grid and values must have the same length")
    if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(values)):
        raise ValueError("grid and values must be finite")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly ascending")
    if np.any(values < 0):
        raise ValueError("values must be nonnegative")
    mass = np.trapezoid(values, grid)
    if mass <= 0:
        raise ValueError("values must carry positive total mass")
    values = values / mass

    lo, hi = float(grid[0]), float(grid[-1])
    dx = np.diff(grid)
    seg_mass = 0.5 * (values[:-1] + values[1:]) * dx
    cum = np.concatenate(([0.0], np.cumsum(seg_mass)))
    total = cum[-1]
    slopes = np.diff(values) / dx

    def logpdf(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= lo) & (x <= hi)
        safe = np.where(inside, x, lo)
        with np.errstate(divide="ignore"):
            return np.where(inside, np.log(np.interp(safe, grid, values)), -math.inf)

    def sample(n: int, rng: np.random.Generator) -> np.ndarray:
        # Inverse CDF: the cumulative mass is quadratic on each segment.
        u = rng.random(int(n)) * total
        idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(dx) - 1)
        rem = u - cum[idx]
        a = values[idx]
        b = slopes[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            disc = np.sqrt(np.maximum(a * a + 2.0 * b * rem, 0.0))
            quad = (disc - a) / b
        lin = rem / np.where(a > 0, a, 1.0)
        d = np.where(np.abs(b) > 1e-300, quad, lin)
        d = np.clip(d, 0.0, dx[idx])
        return grid[idx] + d

    return ScalarDensity(
        support=Interval(lo, hi),
        logpdf=logpdf,
        sample=sample,
        center=0.5 * (lo + hi),
        scale=0.5 * (hi - lo),
    )


def _parses(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_tabulated_csv(path: str | Path) -> ScalarDensity:
    """Read a two-column (grid, value) CSV; the first non-blank row may be a header.

    A header is a row none of whose cells parses as a float, so a typo in the
    first data row is an error, not a header.

    A row with a non-blank third cell (such as a pandas index column) is an error.
    """
    import csv

    grid: list[float] = []
    values: list[float] = []
    rows = 0  # non-blank rows read so far
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row or all(not cell.strip() for cell in row):
                continue
            rows += 1
            while not row[-1].strip():  # trailing blank cells are not columns
                row.pop()
            if len(row) != 2:
                raise ValueError(f"{path}: line {i + 1}: expected two columns, got {len(row)}")
            try:
                g, v = float(row[0]), float(row[1])
            except ValueError:
                if rows == 1 and not any(_parses(cell) for cell in row):
                    continue  # header row
                raise ValueError(f"{path}: line {i + 1}: non-numeric entry") from None
            grid.append(g)
            values.append(v)
    if len(grid) < 2:
        raise ValueError(f"{path}: need at least two data rows")
    return tabulated_density(grid, values)
