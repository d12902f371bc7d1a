"""Square-root density-ratio rule for simple hypotheses.

The test rejects when the square root of the density ratio under the
alternative versus the null exceeds 1, i.e. when the log ratio is strictly
positive.  Ties retain the null.  Decisions are computed in log space so
extreme observations cannot overflow.

`decide` takes the two log densities.  The Monte Carlo estimators take
`_log_ratio_rule` of the two densities instead, which writes the log ratio
``log f1(x) - log f0(x)`` of a block of observations into a buffer row
and rejects nothing itself: its caller rejects where the row is positive.
For two densities that declare their laws (``ScalarDensity.law``) and have
a closed-form log ratio, `_log_ratio` gives it without evaluating either
density: identical laws, normals of one standard deviation, and
exponentials.  For any other pair it is the difference of the two
``logpdf`` outputs, checked as `decide` checks them.

A pair that declares one law for both densities is inert (`_inert`): its
log ratio is exactly 0, so adding it never changes a decision.  The joint
statistic's estimator asks `_inert` of each block's two conditional
densities and, for an inert pair, draws no second statistic at all, so
that pair's streams go unread and its support is never checked.
"""

from __future__ import annotations

import math

import numpy as np

_ZERO_BOTH = "observation has zero density under both hypotheses"
_NAN_OR_ZERO_BOTH = "observation is NaN or has zero density under both hypotheses"


def _difference(l1, l0, out=None):
    """``l1 - l0`` of two float arrays of log densities, written into ``out`` if given.

    Raises ValueError if some observation has zero density under both
    hypotheses.  The inputs are only read; the result array (``out``, or one
    allocated here) holds the maximum for that check and then the difference.
    """
    # maximum propagates NaN, so (-inf, NaN) is not both-zero; np.fmax would say it is.
    both = np.maximum(l1, l0, out=out)
    if np.any(both == -math.inf):
        raise ValueError(_ZERO_BOTH)
    # For 0-d inputs the maximum is a numpy scalar, which cannot be written.
    return np.subtract(l1, l0, out=both if both.ndim else None)


def decide(l1, l0) -> tuple[np.ndarray, np.ndarray]:
    """The rejection rule over arrays of log densities under the alternative and the null.

    Returns ``(reject_h0, half_log_ratio)`` elementwise.  Raises ValueError
    if any observation has zero density under both hypotheses.  The inputs
    are only read; the one float array allocated here holds the maximum for
    that check and then becomes the half log ratio.
    """
    log_ratio = _difference(np.asarray(l1, dtype=float), np.asarray(l0, dtype=float))
    log_ratio *= 0.5
    return log_ratio > 0.0, log_ratio


def _check_support(family: str, x: np.ndarray) -> None:
    """Raise ValueError if some x is NaN or outside the support that ``family``'s logpdf gives.

    The normal's log density is -inf only at +-inf; the exponential's
    outside [0, inf) and the gamma's outside (0, inf).  The block's extremes
    decide it, as NaN propagates into both and fails every comparison.
    """
    lo, hi = np.min(x), np.max(x)
    if family == "normal":
        inside = -math.inf < lo
    else:
        inside = lo >= 0.0 if family == "exponential" else lo > 0.0
    if not (inside and hi < math.inf):
        raise ValueError(_NAN_OR_ZERO_BOTH)


def _inert(f1, f0) -> bool:
    """Whether f1 and f0 declare one law, so their log ratio is 0 wherever they have density.

    A pair of densities without a declared law (``ScalarDensity.law`` None)
    is never inert, however alike their ``logpdf`` outputs are.
    """
    return f1.law is not None and f1.law == f0.law


def _log_ratio_rule(f1, f0):
    """``ratio(x, out)``: the log likelihood ratio ``log f1(x) - log f0(x)`` at the float array x.

    Where the pair has a closed form it is `_log_ratio`'s.  Otherwise it is
    the difference of the two ``logpdf`` outputs, written into ``out``, an
    array of x's shape, and returned; it raises ValueError where `decide`
    does, and at a NaN in x before either density is evaluated, as the
    closed forms do.  Rejecting where the result is positive is `decide`'s
    rule, except where the difference is the smallest subnormal, which
    `decide`'s halving rounds to a tie.
    """

    def difference(x, out):
        if np.isnan(np.min(x)):
            raise ValueError(_NAN_OR_ZERO_BOTH)
        return _difference(f1.logpdf(x), f0.logpdf(x), out)

    return _log_ratio(f1, f0) or difference


def _log_ratio(f1, f0):
    """Closed-form ``log f1(x) - log f0(x)`` of two declared laws, or None where it has none.

    The closed forms are 0 for identical laws, ``(x - m) * ((mean1 - mean0)
    / sd / sd)`` for normals of one sd, with m the midpoint of the means,
    and ``(rate0 - rate1) * x + (log rate1 - log rate0)`` for exponentials.
    Any other pair, or a density whose ``law`` is None, gives None.  The
    normal's x - m has the exact sign even where m falls between two
    floats, as it does for means one ulp apart.

    The result is ``ratio(x, out)``, which writes the log ratio at the float
    array x into ``out``, an array of x's shape, and returns it; for
    identical laws it returns 0.0 and leaves ``out`` alone.  Like `decide`,
    it raises ValueError when some x has zero density under both laws, by
    lying outside their support, and unlike it also at a NaN, which
    `decide` takes for a tie (`_check_support`); a point whose densities
    both underflow inside the support, which no draw from either law
    reaches, gets its ratio.  Its sign survives scales of 10^+-300: the
    normal's slope divides by sd twice, where sd**2 would underflow to 0,
    and a product that overflows keeps its sign as +-inf; a ratio loses its
    sign only by underflowing below the smallest float.  So ``ratio(x, out) > 0`` is
    `decide`'s rejection except within rounding of a tie.
    """
    law1, law0 = f1.law, f0.law
    if law1 is None or law0 is None or law1[0] != law0[0]:
        return None
    family = law1[0]
    if _inert(f1, f0):

        def ratio(x, out):
            _check_support(family, x)
            return 0.0

    elif family == "normal" and law1[2] == law0[2]:
        (_, mean1, sd), mean0 = law1, law0[1]
        # The midpoint as mid + mid_err exactly (Knuth's two-sum of the halves),
        # so x - mid - mid_err has the sign of x less the true midpoint.
        half0, half1 = 0.5 * mean0, 0.5 * mean1
        mid = half0 + half1
        mid_err = (half0 - (mid - (mid - half0))) + (half1 - (mid - half0))
        slope = (mean1 - mean0) / sd / sd  # sd * sd underflows to 0 below 1e-162

        def ratio(x, out):
            _check_support(family, x)
            # Overflow gives +-inf of the right sign; 0 * inf is a NaN tie.
            with np.errstate(over="ignore", invalid="ignore"):
                np.subtract(x, mid, out=out)
                if mid_err:
                    out -= mid_err
                out *= slope
            return out

    elif family == "exponential":
        rate1, rate0 = law1[1], law0[1]
        slope = rate0 - rate1
        offset = math.log(rate1) - math.log(rate0)

        def ratio(x, out):
            _check_support(family, x)
            with np.errstate(over="ignore"):
                np.multiply(x, slope, out=out)
                out += offset
            return out

    else:
        return None
    return ratio
