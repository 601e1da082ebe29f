"""Closed-form leave-p-out risk for histogram density estimates.

For a partition with cell widths w_k, cell counts m_k out of m points, and a
holdout size p in [1, m-1], the leave-p-out estimate of the quadratic risk has
the closed form

    R_p = (2m - p)/((m-1)(m-p)) * sum_k m_k/(m w_k)
        - m(m - p + 1)/((m-1)(m-p)) * sum_k (m_k/m)^2 / w_k

which averages, over all C(m, p) train/test splits, the squared norm of the
training histogram minus twice its mean over the held-out points
(``lpo_risk_oracle`` in ``tests/reference.py`` computes that average
literally).

The holdout size is chosen per partition by minimising the mean squared error
of R_p as an estimator of the true risk.  Everything reduces to the moment
sums s_ij = sum_k alpha_k^i / w_k^j:

* the bias of R_p is  p/(m(m-p)) * (s11 - s21), always >= 0;
* the variance of R_p is a degree-2 polynomial in p over [m(m-1)(m-p)]^2,
  with coefficients derived from the factorial moments of the multinomial
  cell counts (``mse_coefficients``, cross-checked exactly against
  ``bias_variance_oracle`` in ``tests/reference.py``).

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
written once here, for floats or arrays.  ``_score`` alone turns prefix sums
of squared and cubed cell masses into per-partition values; the masses
outside a central cell of mass ac sum to 1 - ac.  The risk reads s11 and s21,
all the p = 1 scan forms; lpo's candidates and ``pi0_estimator._rescore``
add s12, s22 and s32 for the holdout rule and the SE, risk-debug adds s31,
and the fsum chain (``moment_sums`` to ``lpo_risk``) is the reference.

A second coefficient encoding (``phi_coefficients``, fields phi0..phi3) is
kept because the risk-debug interface reports it for cross-implementation
comparison.  Its variance part does not reproduce the exact multinomial
variance (it can even be negative where the enumeration oracle is zero), so
p-selection and anything downstream use ``mse_coefficients``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InvalidP
from .histogram_core import BinCounts, PartitionSpec, PValueSample, grid_prefix

__all__ = [
    "MomentSums",
    "PhiCoefficients",
    "MseCoefficients",
    "PSelection",
    "moment_sums",
    "moment_sums_from",
    "lpo_risk",
    "phi_coefficients",
    "mse_coefficients",
    "selection_mse",
    "select_p",
    "partition_diagnostics",
    "grid_diagnostics",
]


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


@dataclass(frozen=True)
class MseCoefficients:
    """Exact squared-bias and variance polynomial coefficients for R_p.

    MSE(x) = [bias2 * x^2 + var2 * x^2 + var1 * x + var0] / [m(m-1)(m-x)]^2
    with the variance part equal to Var[R_p] for integer p (validated against
    ``bias_variance_oracle`` in ``tests/reference.py`` by exhaustive
    enumeration).  The fields are floats for one partition, or arrays with
    one entry per partition.
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
    return float(_risk_from_sums(ms.s11, ms.s21, m, p))


def _risk_from_sums(s11, s21, m: int, p, out=None):
    """R_p from s11 and s21, floats or arrays, written into ``out`` when given."""
    # factor 1/((m-1)(m-p)) once; keeps the single-cell case exactly -1
    risk = np.multiply(2 * m - p, s11, out=out)
    risk -= m * (m - p + 1) * s21
    risk /= (m - 1) * (m - p)
    return risk


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


def _grid_sums(cum, m: int):
    """The counts ``cum`` of one grid, or of grids laid out as rows, as a new
    float array, then per power 2 and 3 of the cell masses a new pair
    ``(head, pref)``: ``pref`` the prefix sums of the powers along each row,
    ``head`` each prefix sum plus its row's total.  A row's last entry is its
    grid's total, as padding cells past the grid's end add exact zeros."""
    out = [cum.astype(float)]
    ac = np.diff(cum, axis=-1) / m
    for power in (ac * ac, ac * ac * ac):
        pref = np.empty(cum.shape)
        pref[..., 0] = 0.0
        np.cumsum(power, axis=-1, out=pref[..., 1:])
        out.append((pref + pref[..., -1:], pref))
    return out


def _outer(sums, ik, il):
    """A power 2 or 3 ``(head, pref)`` pair of ``_grid_sums`` summed over the
    cells outside [ik, il) of its grid: the total less the sums from ik to il."""
    head, pref = sums
    outer = head.take(ik)       # take: indexing's values, in less time
    outer -= pref.take(il)
    return outer


def _score(m: int, sums, ik, il, nf, wc, adaptive_p: bool):
    """Score partitions from ``_grid_sums``'s arrays, of grids laid end to end.

    Partition j's central cell runs from entry ik[j] to il[j] of its grid;
    nf[j] is its N and wc[j] its central width.  An outer sum of power 2 or 3
    costs two gathers (``_outer``), and of power 1 none: it is 1 - ac.  Returns
    the central counts, the moment sums, p_hat, x* and the risk: with
    ``adaptive_p`` (s11, s21, s12, s22, s32) and the holdout rule's p_hat and
    x*; without, only the (s11, s21) the risk at p = 1 reads, 1 and None.
    """
    cum, sums2, sums3 = sums
    cc = cum.take(il) - cum.take(ik)
    ac = cc / m
    ac2 = ac * ac
    tmp = np.empty_like(ac)
    # s_ij = outer_i N^j + ac^i / wc^j, outer_i summing over the cells of
    # width 1/N outside the central one; partly in place, in that order
    outer1, outer2 = 1.0 - ac, _outer(sums2, ik, il)
    s11 = outer1 * nf
    s11 += np.divide(ac, wc, out=tmp)
    s21 = outer2 * nf
    s21 += np.divide(ac2, wc, out=tmp)
    if not adaptive_p:
        return cc, (s11, s21), 1.0, None, _risk_from_sums(s11, s21, m, 1.0, out=tmp)

    n2, wc2 = nf * nf, wc * wc
    s12 = np.multiply(outer1, n2, out=outer1)
    s12 += np.divide(ac, wc2, out=tmp)
    s22 = np.multiply(outer2, n2, out=outer2)
    s22 += np.divide(ac2, wc2, out=tmp)
    s32 = _outer(sums3, ik, il)
    s32 *= n2
    s32 += np.divide(np.power(ac, 3), wc2, out=tmp)
    p, xstar = _holdout(_mse_polynomial(m, s11, s21, s12, s22, s32))
    return cc, (s11, s21, s12, s22, s32), p, xstar, _risk_from_sums(s11, s21, m, p, out=tmp)


def _records(m: int, sums, n: int, k, l) -> list[dict]:
    """Risk-debug records of the partitions (n, k[j], l[j]) of a grid whose
    ``_grid_sums`` are ``sums``: ``_score``'s values, with s31 and phi."""
    wc = (l - k) / n
    cc, (s11, s21, s12, s22, s32), p, xstar, risk = _score(
        m, sums, k, l, float(n), wc, adaptive_p=True)
    s31 = _outer(sums[2], k, l) * n + np.power(cc / m, 3) / wc
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

