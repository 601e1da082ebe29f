"""Estimation of the proportion of true null hypotheses.

The estimator scans every non-regular partition (N, k, l) for N in
[n_min, n_max], scores each by the leave-p-out risk at its own selected
holdout size, and reads the estimate off the central cell of the winning
partition: pi0_raw = count / (m * (mu - lambda)) with lambda = k/N, mu = l/N.

Selection is the risk argmin robustified by a small statistical band: among
partitions whose risk lies within ``se_band`` standard errors of the minimum
(the standard error being the root selection-MSE of the argmin partition),
the coarsest grid N wins, then the smallest dimension, then the widest
central cell, then the largest k.  The band suppresses winner's-curse picks
from the ~1.7e5-strong family, where a noise-favoured fine partition can
otherwise park its central cell in a steep region of the density and read a
meaningless height; pure argmin is recovered with se_band=0.  The argmin
itself is ``risk.min()`` and the partitions that tie with it; the tie-break
order above is applied by sorting only that tie set, and then only the band,
never the whole family.

The whole scan is vectorised: per grid N the cell counts and their power
prefix sums cost O(m + N) once, after which every (k, l) pair costs O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InvalidLambda, InvalidRange
from .histogram_core import PartitionSpec, PValueSample
from .lpo_risk import _holdout, _mse_polynomial, _risk_from_sums, selection_mse

__all__ = [
    "EstimatorConfig",
    "Pi0Estimate",
    "estimate_pi0",
    "ss_estimator",
    "storey_estimator",
    "consistency_probe",
    "estimate_json_dict",
]

DEFAULT_N_MIN = 1
DEFAULT_N_MAX = 100
DEFAULT_SE_BAND = 0.25


@dataclass(frozen=True)
class EstimatorConfig:
    n_min: int = DEFAULT_N_MIN
    n_max: int = DEFAULT_N_MAX
    method: str = "lpo"            # lpo | loo | ss | storey
    lam: float = 0.5               # cutoff for the ss method
    se_band: float = DEFAULT_SE_BAND

    def __post_init__(self):
        if self.n_min < 1 or self.n_min > self.n_max:
            raise InvalidRange(f"need 1 <= n_min <= n_max, got ({self.n_min}, {self.n_max})")
        if self.method not in ("lpo", "loo", "ss", "storey"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.se_band < 0:
            raise ValueError("se_band must be >= 0")


@dataclass(frozen=True)
class Pi0Estimate:
    method: str
    m: int
    pi0_raw: float
    pi0: float                     # clamped to [1/m, 1], used downstream
    lambda_hat: float
    mu_hat: float
    n_hat: int | None
    p_hat: int | None
    risk: float | None
    degenerate: bool = False


class _SearchTables:
    """Sample-independent index tables for one (n_min, n_max) range."""

    def __init__(self, n_min: int, n_max: int):
        ns, ks, ls, idx_k, idx_l, idx_n = [], [], [], [], [], []
        offset = 0
        self.grid = list(range(n_min, n_max + 1))
        self.offsets = {}
        for n in self.grid:
            kk, ll = np.triu_indices(n + 1, k=1)
            kk = kk.astype(np.int64)
            ll = ll.astype(np.int64)
            ns.append(np.full(kk.size, n, dtype=np.int64))
            ks.append(kk)
            ls.append(ll)
            idx_k.append(offset + kk)
            idx_l.append(offset + ll)
            idx_n.append(np.full(kk.size, offset + n, dtype=np.int64))
            self.offsets[n] = offset
            offset += n + 1
        self.cum_len = offset
        self.N = np.concatenate(ns)
        self.K = np.concatenate(ks)
        self.L = np.concatenate(ls)
        self.idx_k = np.concatenate(idx_k)
        self.idx_l = np.concatenate(idx_l)
        self.idx_n = np.concatenate(idx_n)
        nf = self.N.astype(float)
        self.Nf = nf
        self.W = (self.L - self.K) / nf
        self.D = (self.N + 1 - (self.L - self.K)).astype(float)
        self.lam = self.K / nf
        self.mu = self.L / nf


_tables_cache: dict[tuple[int, int], _SearchTables] = {}


def _tables(n_min: int, n_max: int) -> _SearchTables:
    key = (n_min, n_max)
    if key not in _tables_cache:
        _tables_cache[key] = _SearchTables(n_min, n_max)
    return _tables_cache[key]


def _scan(sample: PValueSample, tab: _SearchTables, adaptive_p: bool):
    """Vectorised risk scan; returns per-partition arrays."""
    values = sample.values
    m = sample.m
    cum = np.empty(tab.cum_len)
    pref1 = np.empty(tab.cum_len)
    pref2 = np.empty(tab.cum_len)
    pref3 = np.empty(tab.cum_len)
    for n in tab.grid:
        off = tab.offsets[n]
        edges = np.arange(n + 1) / n
        c = np.searchsorted(values, edges, side="left").astype(float)
        c[-1] = m
        cum[off:off + n + 1] = c
        ac = np.diff(c) / m
        pref1[off] = pref2[off] = pref3[off] = 0.0
        np.cumsum(ac, out=pref1[off + 1:off + n + 1])
        np.cumsum(ac * ac, out=pref2[off + 1:off + n + 1])
        np.cumsum(ac * ac * ac, out=pref3[off + 1:off + n + 1])

    cc = cum[tab.idx_l] - cum[tab.idx_k]
    ac = cc / m
    ac2 = ac * ac
    wc, nf = tab.W, tab.Nf
    wc2, n2 = wc * wc, nf * nf
    tmp = np.empty_like(ac)

    def outer(pref):
        # sum over the cells outside the central one, each of width 1/N
        out = pref[tab.idx_k]
        out += pref[tab.idx_n]
        out -= pref[tab.idx_l]
        return out

    # s_ij = outer(pref_i) N^j + ac^i / wc^j, computed in place but with the
    # expression's operations in its order.  The family has 171,700
    # partitions, so arrays are dropped as soon as they are dead: a lower peak
    # means fewer fresh pages to fault in on every call.
    s11 = outer(pref1)
    s21 = outer(pref2)
    s12 = s11 * n2
    s12 += np.divide(ac, wc2, out=tmp)
    s22 = s21 * n2
    s22 += np.divide(ac2, wc2, out=tmp)
    s11 *= nf
    s11 += np.divide(ac, wc, out=tmp)
    s21 *= nf
    s21 += np.divide(ac2, wc, out=tmp)
    s32 = outer(pref3)
    s32 *= n2
    s32 += np.divide(np.power(ac, 3, out=tmp), wc2, out=tmp)
    del ac, ac2, wc2, n2, tmp

    coeffs = _mse_polynomial(m, s11, s21, s12, s22, s32)
    del s12, s22, s32
    if adaptive_p:
        phat, mse_at_p, _ = _holdout(coeffs)
    else:
        phat, mse_at_p = np.ones_like(s11), selection_mse(coeffs, 1.0)
    return cc, phat, _risk_from_sums(s11, s21, m, phat), mse_at_p


def _first_by_shape(tab: _SearchTables, sel: np.ndarray) -> int:
    """The partition of ``sel`` with the coarsest grid, then the smallest
    dimension, the widest central cell and the largest k; the first index
    among equals."""
    return sel[np.lexsort((-tab.K[sel], -tab.W[sel], tab.D[sel], tab.N[sel]))[0]]


def estimate_pi0(sample: PValueSample, cfg: EstimatorConfig = EstimatorConfig()) -> Pi0Estimate:
    """Run the full partition search and return the selected estimate."""
    if cfg.method in ("ss", "storey"):
        lam = 0.5 if cfg.method == "storey" else cfg.lam
        return ss_estimator(sample, lam, method=cfg.method)
    tab = _tables(cfg.n_min, cfg.n_max)
    m = sample.m
    cc, phat, risk, mse_at_p = _scan(sample, tab, adaptive_p=(cfg.method == "lpo"))

    finite = np.isfinite(risk)
    if not finite.any():
        spec = PartitionSpec(cfg.n_min, 0, cfg.n_min)
        return Pi0Estimate(method=cfg.method, m=m, pi0_raw=1.0, pi0=1.0,
                           lambda_hat=spec.lam, mu_hat=spec.mu, n_hat=spec.n,
                           p_hat=1, risk=None, degenerate=True)
    if not finite.all():
        risk = np.where(finite, risk, np.inf)

    jmin = _first_by_shape(tab, np.flatnonzero(risk == risk.min()))
    if cfg.se_band > 0.0:
        se = float(np.sqrt(max(mse_at_p[jmin], 0.0)))
        if not np.isfinite(se):
            se = 0.0
        band = risk[jmin] + cfg.se_band * se
        j = _first_by_shape(tab, np.flatnonzero(risk <= band))
    else:
        j = jmin

    pi0_raw = cc[j] / (m * tab.W[j])
    return Pi0Estimate(
        method=cfg.method,
        m=m,
        pi0_raw=float(pi0_raw),
        pi0=float(min(1.0, max(1.0 / m, pi0_raw))),
        lambda_hat=float(tab.lam[j]),
        mu_hat=float(tab.mu[j]),
        n_hat=int(tab.N[j]),
        p_hat=int(phat[j]),
        risk=float(risk[j]),
    )


def ss_estimator(sample: PValueSample, lam: float, method: str = "ss") -> Pi0Estimate:
    """Tail-ratio estimator: #{P_i in [lam, 1]} / (m (1 - lam))."""
    if not 0.0 <= lam < 1.0:
        raise InvalidLambda(f"lambda must lie in [0, 1), got {lam}")
    m = sample.m
    count = m - int(np.searchsorted(sample.values, lam, side="left"))
    raw = count / (m * (1.0 - lam))
    return Pi0Estimate(
        method=method, m=m, pi0_raw=float(raw),
        pi0=float(min(1.0, max(1.0 / m, raw))),
        lambda_hat=float(lam), mu_hat=1.0,
        n_hat=None, p_hat=None, risk=None,
    )


def storey_estimator(sample: PValueSample) -> Pi0Estimate:
    """The ss estimator at the conventional cutoff lambda = 0.5."""
    return ss_estimator(sample, 0.5, method="storey")


def consistency_probe(pi0: float, model, sizes: Sequence[int], seed: int,
                      cfg: EstimatorConfig = EstimatorConfig()) -> list[float]:
    """|pi0_hat(m) - pi0| for one replicate per sample size.

    ``model`` is a ScenarioSpec whose pi0 and m fields are overridden.
    """
    from .sim_harness import draw_sample, replicate_rng

    sizes = list(sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    errors = []
    for i, m in enumerate(sizes):
        spec = replace(model, pi0=pi0, m=int(m))
        sample, _ = draw_sample(spec, replicate_rng(seed, i))
        est = estimate_pi0(sample, cfg)
        errors.append(abs(est.pi0 - pi0))
    return errors


def estimate_json_dict(est: Pi0Estimate) -> dict:
    """Stable JSON field layout for CLI and harness output."""
    return {
        "method": est.method,
        "m": est.m,
        "pi0": est.pi0,
        "pi0_raw": est.pi0_raw,
        "lambda_hat": est.lambda_hat,
        "mu_hat": est.mu_hat,
        "n_hat": est.n_hat,
        "p_hat": est.p_hat,
        "risk": est.risk,
    }
