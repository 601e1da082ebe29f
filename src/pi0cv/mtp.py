"""Step-up multiple testing with a plug-in null-proportion estimate.

The threshold sup{t in (0,1): theta * t / G_hat(t) <= alpha} is computed via
its step-up equivalence: with sorted p-values p_(1) <= ... <= p_(m),

    k_hat = max{ i : p_(i) <= i * alpha / (m * theta) }    (0 if none)

and all hypotheses with p-value <= p_(k_hat), the first k_hat sorted values,
are rejected.  That prefix is the contract; ``MtpResult`` holds it as k_hat.
It never ends inside a run of equal values: the rounded cuts i * c, with
c = alpha / (m * theta), never fall as i grows, so p_(k+1) = p_(k) <= k c
makes k + 1 a hit too.  The reported threshold, alpha * k_hat / (m * theta)
clamped into [p_(k_hat), p_(k_hat+1)) and capped at 1, gives the rejected set
by value, {P_i <= threshold}: the rule of ``rejected_mask`` and ``error_metrics``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidAlpha, InvalidDelta, InvalidTheta, LengthMismatch
from .histogram_core import PValueSample

__all__ = [
    "MtpResult",
    "ErrorMetrics",
    "plugin_mtp",
    "check_alpha",
    "check_delta",
    "bh_procedure",
    "error_metrics",
    "rejected_mask",
]


@dataclass(frozen=True)
class MtpResult:
    """Rejection decision: the ``k_hat`` smallest of the sample's sorted values."""

    threshold: float
    k_hat: int
    alpha: float
    theta: float
    delta: float
    m: int

    @property
    def rejected(self) -> np.ndarray:
        """The rejected positions in the sorted sample, 0 to k_hat - 1."""
        return np.arange(self.k_hat)


@dataclass(frozen=True)
class ErrorMetrics:
    fdp: float
    fnr: float
    fp: int
    r: int


def check_alpha(alpha: float) -> None:
    """Reject a level outside (0, 1), or NaN."""
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha must lie in (0, 1), got {alpha}")


def check_delta(delta: float) -> None:
    """Reject a theta margin that is negative or NaN."""
    if not delta >= 0.0:
        raise InvalidDelta(f"delta must be >= 0, got {delta}")


def _step_up(sample: PValueSample, alpha: float, theta: float, delta: float) -> MtpResult:
    check_alpha(alpha)
    if not 0.0 < theta <= 1.0:
        raise InvalidTheta(f"theta must lie in (0, 1], got {theta}")
    p = sample.values
    m = sample.m
    c = alpha / (m * theta)
    # the cut i c never falls as i grows, so only the p-values up to the last
    # cut, m c (as arange(1, m + 1) * c rounds it), can lie on or under theirs
    n = int(np.searchsorted(p, m * c, side="right"))
    hits = np.flatnonzero(p[:n] <= np.arange(1, n + 1) * c)
    if hits.size == 0:
        return MtpResult(threshold=0.0, k_hat=0, alpha=alpha, theta=theta, delta=delta, m=m)
    k_hat = int(hits[-1]) + 1
    # alpha k_hat / (m theta) can round below the cut k_hat (alpha / (m theta))
    t = max(alpha * k_hat / (m * theta), float(p[k_hat - 1]))
    if k_hat < m:
        t = min(t, float(np.nextafter(p[k_hat], -np.inf)))
    t = min(t, 1.0)
    return MtpResult(threshold=float(t), k_hat=k_hat, alpha=alpha, theta=theta, delta=delta, m=m)


def plugin_mtp(sample: PValueSample, alpha: float, pi0, delta: float = 0.0) -> MtpResult:
    """Step-up procedure at theta = min(1, pi0 + delta).

    ``pi0`` may be a Pi0Estimate (its clamped ``pi0`` field is used) or a
    plain float, e.g. the true proportion for an oracle run.
    """
    check_delta(delta)
    value = getattr(pi0, "pi0", pi0)
    theta = min(float(value) + delta, 1.0)     # in this order a NaN stays NaN
    return _step_up(sample, alpha, theta, delta)


def bh_procedure(sample: PValueSample, alpha: float) -> MtpResult:
    """The classic step-up baseline: theta fixed at 1."""
    return _step_up(sample, alpha, 1.0, 0.0)


def error_metrics(result: MtpResult, null_values) -> ErrorMetrics:
    """False discovery proportion and miss rate, given the true nulls' p-values.

    ``null_values`` come from the sample the result was computed from, in any
    order; a null is a false discovery when P <= threshold (``rejected_mask``).
    """
    null_values = np.asarray(null_values)
    if null_values.dtype == bool:
        raise TypeError("error_metrics takes the null p-values, not labels")
    if null_values.size > result.m:
        raise LengthMismatch(f"{null_values.size} null values for m={result.m}")
    r = result.k_hat
    fp = int(np.count_nonzero(rejected_mask(null_values, result)))
    n_alt = result.m - null_values.size
    missed = n_alt - (r - fp)
    return ErrorMetrics(fdp=fp / max(r, 1), fnr=missed / max(n_alt, 1), fp=fp, r=r)


def rejected_mask(raw_values, result: MtpResult) -> np.ndarray:
    """Recover the rejection decision for values in their original order.

    Rejection is by value (P_i <= threshold), so no index bookkeeping is
    needed across the sort.
    """
    arr = np.asarray(raw_values, dtype=float)
    if result.k_hat == 0:
        return np.zeros(arr.shape, dtype=bool)
    return arr <= result.threshold
