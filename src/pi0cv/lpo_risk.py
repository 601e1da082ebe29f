"""Closed-form leave-p-out risk for histogram density estimates.

For a partition with cell widths w_k, cell counts m_k out of m points, and a
holdout size p in [1, m-1], the leave-p-out estimate of the quadratic risk has
the closed form

    R_p = (2m - p)/((m-1)(m-p)) * sum_k m_k/(m w_k)
        - m(m - p + 1)/((m-1)(m-p)) * sum_k (m_k/m)^2 / w_k

which averages, over all C(m, p) train/test splits, the squared norm of the
training histogram minus twice its mean over the held-out points
(``lpo_risk_oracle`` computes that average literally).

The holdout size is chosen per partition by minimising the mean squared error
of R_p as an estimator of the true risk.  Everything reduces to the moment
sums s_ij = sum_k alpha_k^i / w_k^j:

* the bias of R_p is  p/(m(m-p)) * (s11 - s21), always >= 0;
* the variance of R_p is a degree-2 polynomial in p over [m(m-1)(m-p)]^2,
  with coefficients derived from the factorial moments of the multinomial
  cell counts (``mse_coefficients``, cross-checked exactly against
  ``bias_variance_oracle``).

So MSE(x) = [A x^2 + v1 x + v0] / [m(m-1)(m-x)]^2 with A = bias2 + var2, and
the numerator of its derivative is lin (x - x*), with lin = 2 A m + v1 and
x* = -(m v1 + 2 v0) / lin.  When lin > 0, x* is the only minimum for x < m,
and MSE(a+1) - MSE(a) has the sign of the integral of (t - x*)(m - t)^-3 over
[a, a+1]: with a = floor(x*) and u = m - a, ceil wins iff (x* - a)(2u - 1) > u.
So the integer argmin over [1, m-1] follows from x* (clipped to that range)
and m alone, never from the float MSE, whose coefficients cancel terms of
order m^5.  Otherwise the MSE is monotone or peaks inside, so the end, 1 or
m-1, of smaller selection MSE wins.  With all mass in one cell (bias2 == 0)
the criterion is flat in p, and p = 1.  The selection MSE clamps the
variance at 0, which the exact coefficients never need on [1, m-1].  The MSE
polynomial, the holdout rule, the selection MSE and the risk are each
written once here, for floats or arrays.  ``_score`` alone turns grid prefix
sums into per-partition values.  The risk reads s11 and s21 only, all that
loo's scan forms; lpo's scan and ``pi0_estimator._rescore`` add s12, s22 and
s32 for the holdout rule and the SE, and risk-debug's records add s31; the
fsum chain (``moment_sums`` to ``lpo_risk``) is the one-partition reference.

A second coefficient encoding (``phi_coefficients``, fields phi0..phi3) is
kept because the risk-debug interface reports it for cross-implementation
comparison.  Its variance part does not reproduce the exact multinomial
variance (it can even be negative where the enumeration oracle is zero), so
p-selection and anything downstream use ``mse_coefficients``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InvalidP, PoleAtM, TooLargeForOracle
from .histogram_core import BinCounts, PartitionSpec, PValueSample, grid_prefix

__all__ = [
    "MomentSums",
    "PhiCoefficients",
    "MseCoefficients",
    "PSelection",
    "RiskEvaluation",
    "moment_sums",
    "moment_sums_from",
    "lpo_risk",
    "lpo_risk_oracle",
    "phi_coefficients",
    "mse_coefficients",
    "bias_hat",
    "variance_hat",
    "bias_variance_oracle",
    "mse_hat",
    "selection_mse",
    "select_p",
    "evaluate_partition",
    "partition_diagnostics",
    "grid_diagnostics",
]

ORACLE_MAX_M = 12
ENUM_MAX_M = 10
ENUM_MAX_BINS = 3


@dataclass(frozen=True)
class MomentSums:
    """Moment sums s[i][j] = sum_k alpha_k^i / omega_k^j, i in 1..3, j in 1..2."""

    s: np.ndarray          # shape (3, 2); s[i-1, j-1]
    alpha: np.ndarray
    omega: np.ndarray

    @property
    def s11(self) -> float: return float(self.s[0, 0])
    @property
    def s21(self) -> float: return float(self.s[1, 0])
    @property
    def s31(self) -> float: return float(self.s[2, 0])
    @property
    def s12(self) -> float: return float(self.s[0, 1])
    @property
    def s22(self) -> float: return float(self.s[1, 1])
    @property
    def s32(self) -> float: return float(self.s[2, 1])


@dataclass(frozen=True)
class PhiCoefficients:
    """Diagnostic coefficient encoding (phi0..phi3) of the p-selection MSE.

    phi3 is the squared-bias coefficient, (m-1)^2 (s11 - s21)^2.  The
    variance triple (phi2, phi1, phi0) is reported by the risk-debug dump but
    disagrees with the exact multinomial variance of the risk estimator; use
    ``mse_coefficients`` where the true variance matters.
    """

    m: int
    phi0: float
    phi1: float
    phi2: float
    phi3: float

    def mse_parts(self) -> tuple[float, float, float, float]:
        """(bias2, v2, v1, v0) so that MSE(x) ~ bias2 x^2 + (v2 x^2 + v1 x + v0)."""
        return self.phi3, self.phi2, self.phi1, self.phi0


@dataclass(frozen=True)
class MseCoefficients:
    """Exact squared-bias and variance polynomial coefficients for R_p.

    MSE(x) = [bias2 * x^2 + var2 * x^2 + var1 * x + var0] / [m(m-1)(m-x)]^2
    with the variance part equal to Var[R_p] for integer p (validated against
    ``bias_variance_oracle`` by exhaustive enumeration).  The fields are
    floats for one partition, or arrays with one entry per partition.
    """

    m: int
    bias2: float
    var2: float
    var1: float
    var0: float

    def mse_parts(self) -> tuple[float, float, float, float]:
        return self.bias2, self.var2, self.var1, self.var0


@dataclass(frozen=True)
class PSelection:
    """Outcome of the holdout-size choice for one partition."""

    p_hat: int
    p_real: float | None     # critical point x* of the MSE, None when not finite
    p_independent: bool      # risk does not depend on p (s11 == s21)


@dataclass(frozen=True)
class RiskEvaluation:
    spec: PartitionSpec
    p_hat: int
    risk: float
    p_real: float | None


def moment_sums(counts: BinCounts, spec: PartitionSpec) -> MomentSums:
    """Plug-in moment sums with alpha_k = m_k / m."""
    alpha = counts.counts / counts.total
    omega = spec.widths()
    return moment_sums_from(alpha, omega)


def moment_sums_from(alpha, omega) -> MomentSums:
    alpha = np.asarray(alpha, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if alpha.shape != omega.shape:
        raise ValueError("alpha and omega must have equal length")
    if np.any(omega <= 0):
        raise ValueError("cell widths must be positive")
    s = np.empty((3, 2))
    for i in (1, 2, 3):
        for j in (1, 2):
            s[i - 1, j - 1] = math.fsum(alpha**i / omega**j)
    return MomentSums(s=s, alpha=alpha, omega=omega)


def _check_p(m: int, p) -> int:
    p = int(p)
    if not 1 <= p <= m - 1:
        raise InvalidP(f"holdout size must lie in [1, {m - 1}], got {p}")
    return p


def lpo_risk(counts: BinCounts, spec: PartitionSpec, p: int) -> float:
    """Closed-form leave-p-out risk estimate for one partition."""
    m = counts.total
    p = _check_p(m, p)
    ms = moment_sums(counts, spec)
    return _risk_from_sums(ms.s11, ms.s21, m, p)


def _risk_from_sums(s11, s21, m: int, p):
    # factor 1/((m-1)(m-p)) once; keeps the single-cell case exactly -1
    return ((2 * m - p) * s11 - m * (m - p + 1) * s21) / ((m - 1) * (m - p))


def lpo_risk_oracle(sample: PValueSample, spec: PartitionSpec, p: int) -> float:
    """Definitional LPO risk: average over all C(m, p) train/test splits.

    For each held-out subset of size p the training histogram is rebuilt from
    the remaining m - p points and scored by ||s_train||^2 minus twice its
    mean over the held-out points.  Feasible only for small m.
    """
    m = sample.m
    p = _check_p(m, p)
    if m > ORACLE_MAX_M:
        raise TooLargeForOracle(f"oracle enumeration capped at m={ORACLE_MAX_M}, got {m}")
    edges = spec.edges()
    cell = np.clip(np.searchsorted(edges, sample.values, side="right") - 1,
                   0, spec.dimension - 1)
    omega = spec.widths()
    full = np.bincount(cell, minlength=spec.dimension).astype(float)
    terms = []
    for test in itertools.combinations(range(m), p):
        train = full.copy()
        for i in test:
            train[cell[i]] -= 1
        h = train / ((m - p) * omega)
        norm2 = math.fsum(h * h * omega)
        test_mean = math.fsum(h[cell[i]] for i in test) / p
        terms.append(norm2 - 2.0 * test_mean)
    return math.fsum(terms) / len(terms)


def bias_hat(ms: MomentSums, m: int, p: int) -> float:
    """Bias of R_p: p/(m(m-p)) * sum_k alpha_k (1 - alpha_k) / w_k, >= 0."""
    p = _check_p(m, p)
    total = math.fsum(ms.alpha * (1.0 - ms.alpha) / ms.omega)
    return p / (m * (m - p)) * total


def phi_coefficients(ms: MomentSums, m: int) -> PhiCoefficients:
    """Diagnostic (phi0..phi3) coefficient set; see class docstring."""
    return _phi_polynomial(m, ms.s11, ms.s21, ms.s12, ms.s22, ms.s32)


def _phi_polynomial(m: int, s11, s21, s12, s22, s32) -> PhiCoefficients:
    """The phi encoding from the moment sums, floats or equal-shaped arrays."""
    phi3 = (m - 1) ** 2 * (s11 - s21) ** 2
    phi2 = 2 * m * (m - 1) * ((m - 2) * (s21 + s11 - s32) - m * s22
                              - (2 * m - 3) * s21 ** 2)
    phi1 = (-2 * m * (m - 1) * (3 * m + 1) * ((m - 2) * (s21 - s32) - m * s22)
            + 2 * m * (m - 1) * (2 * (m + 1) * (2 * m - 3) * s21 ** 2
                                 + (-3 * m ** 2 + 3 * m + 4) * s11))
    phi0 = (4 * m * (m - 1) * (m + 1) * ((m - 2) * (s21 - s32) - m * s22)
            - 2 * m * (m - 1) * ((m ** 2 + 2 * m + 1) * (2 * m - 3) * s21 ** 2
                                 + (2 * m ** 3 - 4 * m - 2) * s11)
            + m * (m - 1) ** 2 * (s12 - s11 ** 2))
    return PhiCoefficients(m=m, phi0=phi0, phi1=phi1, phi2=phi2, phi3=phi3)


def mse_coefficients(ms: MomentSums, m: int) -> MseCoefficients:
    """Exact MSE polynomial coefficients for R_p under multinomial counts."""
    return _mse_polynomial(m, ms.s11, ms.s21, ms.s12, ms.s22, ms.s32)


def _mse_polynomial(m: int, s11, s21, s12, s22, s32) -> MseCoefficients:
    """The coefficients from the moment sums, floats or equal-shaped arrays."""
    bias2 = (m - 1) ** 2 * (s11 - s21) ** 2
    s21_sq = s21 ** 2
    var2 = 2 * m * (m - 1) * (2 * (m - 2) * s32 + s22 - (2 * m - 3) * s21_sq)
    var1 = 4 * m * (m - 1) * ((m + 1) * (2 * m - 3) * s21_sq
                              - 2 * (m - 2) * (m + 1) * s32
                              - (m - 1) * s11 * s21 - 2 * s22)
    var0 = m * (m - 1) * ((m - 1) * (s12 - s11 ** 2)
                          + 4 * (m - 1) * (m + 1) * s11 * s21
                          - 2 * (m + 1) ** 2 * (2 * m - 3) * s21_sq
                          + 4 * (m - 2) * (m + 1) ** 2 * s32
                          - 2 * (m - 3) * (m + 1) * s22)
    return MseCoefficients(m=m, bias2=bias2, var2=var2, var1=var1, var0=var0)


def variance_hat(phi: PhiCoefficients, m: int, p: int) -> float:
    """Variance polynomial of the phi encoding: [p^2 phi2 + p phi1 + phi0] / K^2.

    Diagnostic only; may be negative (the exact variance never is).
    """
    p = _check_p(m, p)
    k2 = (m * (m - 1) * (m - p)) ** 2
    return (phi.phi2 * p * p + phi.phi1 * p + phi.phi0) / k2


def mse_hat(coeffs, m: int, x: float) -> float:
    """MSE(x) = [x^2 (bias2 + v2) + x v1 + v0] / [m(m-1)(m-x)]^2 at real x."""
    if x == m:
        raise PoleAtM("MSE(x) has a pole at x = m")
    bias2, v2, v1, v0 = coeffs.mse_parts()
    k2 = (m * (m - 1) * (m - x)) ** 2
    return ((bias2 + v2) * x * x + v1 * x + v0) / k2


def selection_mse(coeffs, p) -> float | np.ndarray:
    """Squared bias plus variance clamped below at 0, the selection criterion."""
    m = coeffs.m
    bias2, v2, v1, v0 = coeffs.mse_parts()
    p2 = p * p
    k = m * (m - 1.0) * (m - p)
    return (bias2 * p2 + np.maximum(v2 * p2 + v1 * p + v0, 0.0)) / (k * k)


def _holdout(coeffs):
    """(p_hat, x*) for coefficients of ``_mse_polynomial``: p_hat by the
    closed form of the module docstring where lin > 0, else the better end.
    Where bias2 == 0, all mass in one cell, the criterion is flat: p = 1, and
    x* is NaN, as the exact coefficients are all 0."""
    m = coeffs.m
    bias2, v2, v1, v0 = np.atleast_1d(*coeffs.mse_parts())
    lin = 2 * (bias2 + v2) * m + v1
    with np.errstate(divide="ignore", invalid="ignore"):
        xstar = np.divide(-(m * v1 + 2 * v0), lin)
    x = np.minimum(np.maximum(xstar, 1.0), m - 1.0)
    a = np.floor(x)
    u = m - a
    p_hat = a + ((x - a) * (2 * u - 1) > u)
    ends = ~((lin > 0) & np.isfinite(xstar))
    if ends.any():      # a few partitions, scored on that subset only
        rest = MseCoefficients(m, bias2[ends], v2[ends], v1[ends], v0[ends])
        p_hat[ends] = np.where(selection_mse(rest, m - 1.0) < selection_mse(rest, 1.0),
                               m - 1.0, 1.0)
    flat = bias2 == 0
    p_hat[flat], xstar[flat] = 1.0, np.nan
    return p_hat, xstar


def select_p(coeffs: MseCoefficients) -> PSelection:
    """The holdout size minimising the selection MSE over 1..m-1, by the
    search's rule.  Defined on ``MseCoefficients`` only: the phi variance is
    negative on almost every p, so its clamped criterion has no closed form."""
    p_hat, xstar = _holdout(coeffs)
    xstar = float(xstar[0])
    return PSelection(
        p_hat=int(p_hat[0]),
        p_real=xstar if math.isfinite(xstar) else None,
        p_independent=(coeffs.bias2 == 0.0),
    )


def bias_variance_oracle(alpha, spec: PartitionSpec, m: int, p: int) -> tuple[float, float]:
    """Exact bias and variance of R_p by multinomial enumeration.

    Enumerates every count vector (m_1..m_D) with probabilities alpha, scores
    R_p on each, and returns (mean - truth, variance).  The truth is the risk
    of the histogram against the piecewise-constant density with cell masses
    alpha:  sum_k alpha_k(1-alpha_k)/(m w_k) - sum_k alpha_k^2 / w_k.
    """
    alpha = np.asarray(alpha, dtype=float)
    omega = spec.widths()
    d = len(alpha)
    if d != spec.dimension:
        raise ValueError("alpha length must match the partition dimension")
    if m > ENUM_MAX_M or d > ENUM_MAX_BINS:
        raise TooLargeForOracle(
            f"enumeration capped at m={ENUM_MAX_M}, D={ENUM_MAX_BINS}; got m={m}, D={d}")
    p = _check_p(m, p)
    truth = math.fsum(alpha * (1.0 - alpha) / (m * omega)) - math.fsum(alpha**2 / omega)
    probs, risks = [], []
    for counts in _compositions(m, d):
        coef = math.factorial(m)
        pr = 1.0
        for c, a in zip(counts, alpha):
            coef //= math.factorial(c)
            pr *= a ** c
        pr *= coef
        if pr == 0.0:
            continue
        s11 = math.fsum((c / m) / w for c, w in zip(counts, omega))
        s21 = math.fsum((c / m) ** 2 / w for c, w in zip(counts, omega))
        probs.append(pr)
        risks.append(_risk_from_sums(s11, s21, m, p))
    mean = math.fsum(pr * r for pr, r in zip(probs, risks))
    var = math.fsum(pr * (r - mean) ** 2 for pr, r in zip(probs, risks))
    return mean - truth, var


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _grid_sums(cum, m: int):
    """Four new arrays: the counts ``cum`` of one grid, or of grids laid out
    as rows, and the prefix sums along each row of its cell masses, their
    squares and cubes."""
    out = [np.empty(cum.shape) for _ in range(4)]
    out[0][...] = cum
    ac = np.diff(cum, axis=-1) / m
    for pref, power in zip(out[1:], (ac, ac * ac, ac * ac * ac)):
        pref[..., 0] = 0.0
        np.cumsum(power, axis=-1, out=pref[..., 1:])
    return out


def _outer(pref, ik, il, iend):
    """``pref`` summed over the cells outside [ik, il) of a grid ending at iend."""
    outer = pref.take(ik)       # take: indexing's values, in less time
    outer += pref.take(iend)
    outer -= pref.take(il)
    return outer


def _score(m: int, sums, ik, il, iend, nf, wc, adaptive_p: bool):
    """Score partitions from ``_grid_sums``'s arrays, of grids laid end to end.

    Partition j's central cell runs from entry ik[j] to il[j] of its grid,
    whose last entry is iend[j]; nf[j] is its N and wc[j] its central width.
    Returns the central counts, the moment sums, p_hat, x* and the risk: with
    ``adaptive_p`` (s11, s21, s12, s22, s32) and the holdout rule's p_hat and
    x*; without, only the (s11, s21) the risk at p = 1 reads, 1 and None.
    """
    cum, pref1, pref2, pref3 = sums
    cc = cum.take(il) - cum.take(ik)
    ac = cc / m
    ac2 = ac * ac
    tmp = np.empty_like(ac)
    # s_ij = outer_i N^j + ac^i / wc^j, outer_i summing over the cells of
    # width 1/N outside the central one; partly in place, in that order
    outer1, outer2 = _outer(pref1, ik, il, iend), _outer(pref2, ik, il, iend)
    s11 = outer1 * nf
    s11 += np.divide(ac, wc, out=tmp)
    s21 = outer2 * nf
    s21 += np.divide(ac2, wc, out=tmp)
    if not adaptive_p:
        return cc, (s11, s21), 1.0, None, _risk_from_sums(s11, s21, m, 1.0)

    n2, wc2 = nf * nf, wc * wc
    s12 = np.multiply(outer1, n2, out=outer1)
    s12 += np.divide(ac, wc2, out=tmp)
    s22 = np.multiply(outer2, n2, out=outer2)
    s22 += np.divide(ac2, wc2, out=tmp)
    s32 = _outer(pref3, ik, il, iend)
    s32 *= n2
    s32 += np.divide(np.power(ac, 3), wc2, out=tmp)
    p, xstar = _holdout(_mse_polynomial(m, s11, s21, s12, s22, s32))
    return cc, (s11, s21, s12, s22, s32), p, xstar, _risk_from_sums(s11, s21, m, p)


def _records(m: int, sums, n: int, k, l) -> list[dict]:
    """Risk-debug records of the partitions (n, k[j], l[j]) of a grid whose
    ``_grid_sums`` are ``sums``: ``_score``'s values, with s31 and phi."""
    wc = (l - k) / n
    cc, (s11, s21, s12, s22, s32), p, xstar, risk = _score(
        m, sums, k, l, n, float(n), wc, adaptive_p=True)
    s31 = _outer(sums[3], k, l, n) * n + np.power(cc / m, 3) / wc
    phi = _phi_polynomial(m, s11, s21, s12, s22, s32)
    columns = dict(N=np.full(k.size, n), k=k, l=l, s11=s11, s21=s21, s31=s31, s12=s12,
                   s22=s22, s32=s32, phi0=phi.phi0, phi1=phi.phi1, phi2=phi.phi2,
                   phi3=phi.phi3, p_hat=p.astype(np.int64),
                   p_real=np.where(np.isfinite(xstar), xstar, None), risk=risk)
    return [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]


def grid_diagnostics(sample: PValueSample, n: int) -> Iterator[dict]:
    """Risk-debug records of every partition (n, k, l) of grid n, in
    ``enumerate_partitions`` order, holding the values the search ranks.
    Scored some 4096 at a time, so a reader that stops early pays little."""
    sums, rows = _grid_sums(grid_prefix(sample, n).cum, sample.m), max(1, 4096 // n)
    for k0 in range(0, n, rows):
        i, l = np.triu_indices(min(rows, n - k0), k0 + 1, n + 1)
        yield from _records(sample.m, sums, n, i + k0, l)


def partition_diagnostics(sample: PValueSample, spec: PartitionSpec) -> dict:
    """The risk-debug record of one partition, as ``grid_diagnostics`` has it."""
    sums = _grid_sums(grid_prefix(sample, spec.n).cum, sample.m)
    return _records(sample.m, sums, spec.n, np.array([spec.k]), np.array([spec.l]))[0]


def evaluate_partition(sample: PValueSample, spec: PartitionSpec) -> RiskEvaluation:
    """Score one partition as the search does: holdout choice, risk at p_hat."""
    rec = partition_diagnostics(sample, spec)
    return RiskEvaluation(spec=spec, p_hat=rec["p_hat"], risk=rec["risk"], p_real=rec["p_real"])
