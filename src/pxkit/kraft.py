"""Square-root density-ratio rule for simple hypotheses.

The test rejects when the square root of the density ratio under the
alternative versus the null exceeds 1, i.e. when the half-log-ratio is
strictly positive.  Ties retain the null.  Decisions are computed in log
space so extreme observations cannot overflow.
"""

from __future__ import annotations

import math

import numpy as np


def decide(l1, l0) -> tuple[np.ndarray, np.ndarray]:
    """The rejection rule over arrays of log densities under the alternative and the null.

    Returns ``(reject_h0, half_log_ratio)`` elementwise.  Raises ValueError
    if any observation has zero density under both hypotheses.  The inputs
    are only read; the one float array allocated here holds the maximum for
    that check and then becomes the half log ratio.
    """
    l1 = np.asarray(l1, dtype=float)
    l0 = np.asarray(l0, dtype=float)
    # maximum propagates NaN, so (-inf, NaN) is not both-zero; np.fmax would say it is.
    log_ratio = np.maximum(l1, l0)
    if np.any(log_ratio == -math.inf):
        raise ValueError("observation has zero density under both hypotheses")
    # For 0-d inputs the maximum is a numpy scalar, which cannot be written.
    log_ratio = np.subtract(l1, l0, out=log_ratio if log_ratio.ndim else None)
    log_ratio *= 0.5
    return log_ratio > 0.0, log_ratio
