"""Estimation of the proportion of true null hypotheses.

The estimator scans every non-regular partition (N, k, l) for N in
[n_min, n_max], scores each by the leave-p-out risk at its own selected
holdout size, and reads the estimate off the central cell of the winning
partition: pi0_raw = count / (m * (mu - lambda)) with lambda = k/N, mu = l/N.

Selection is the risk argmin robustified by a small statistical band: among
partitions whose risk lies within ``se_band`` standard errors of the minimum
(the root selection-MSE of the argmin partition, re-scored alone for it),
the coarsest grid N wins, then the smallest dimension, then the widest
central cell, then the largest k.  The band suppresses winner's-curse picks
from the ~1.7e5-strong family, where a noise-favoured fine partition can
otherwise park its central cell in a steep region of the density and read a
meaningless height; pure argmin is recovered with se_band=0.  The family is
stored in that order, so the argmin's tie-break and the band's winner are
both the first index that qualifies, and nothing is sorted.

The scan is vectorised in two stages.  The cell counts of every grid N and
their power prefix sums cost O(m + N) per grid, built for all grids at once
as the rows of one padded array, after which every (k, l) pair costs O(1).
The per-partition stage (``lpo_risk._score``) then runs over blocks of the
family: block-sized temporaries stay in cache and the allocator recycles
them between blocks and calls, where family-length ones would be faulted in
afresh on every call.  Every operation is elementwise, so the blocks return
the same bits as one pass over the whole family.  The scan ranks, keeping
one risk per partition; the re-score explains the pick: ``_rescore`` runs
the same kernel on one partition from the scan's sums, for the argmin's SE
and the winner's central count, p_hat and lpo risk.

lpo scores the holdout only where a partition can still win.  Its risk is

    R_p = [s11 - m s21 + m (s11 - s21) / (m - p)] / (m - 1),

and s11 - s21 = sum_k alpha_k (1 - alpha_k) / w_k >= 0, so R_p grows with p
and loo's R_1, read from the same s11 and s21, bounds every partition's
R_p from below.  The scan scores the family at p = 1, which is loo's whole
scan.  lpo then scores at the holdout, a block at a time, only what can
win: for the argmin, the partitions whose R_1 is within the margin of T0,
the lpo risk of R_1's argmin, which hold every lpo argmin and all that tie
with it; for the band, those whose R_1 is within the margin of its upper
edge, walked in family order up to the first block that holds a member.

The margin bounds how far the computed R_1 can exceed the computed R_p.
Write R_p = (A s11 - B s21) / D with A = 2m - p, B = m (m - p + 1) and
D = (m - 1)(m - p).  It is rounded at most six times: the two products,
the difference, the quotient, and B and D themselves once past 2^53.  So
with u = 2^-53 its error is at most u (4 A s11 + 5 B s21) / D.  On
1 <= p <= m - 1, A/D <= 3 and B/D <= 4, and s21 <= s11 <= N, as every cell
is at least 1/N wide and the masses sum to 1.  Each risk is thus within
32 u N of its value on the computed sums, and R_1 - R_p within
64 u N = 32 eps N.  That takes the computed s11 >= s21: they are equal bit
for bit when all mass lies in one cell, and otherwise differ by at least
(m - 1)/m^2, above their rounding (some 6 N^2 u) for m below 1e11 at
N = 100.  The margin is 64 eps n_max, twice the bound, and the tests check
it against the computed R_1 - R_p of whole families.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InvalidLambda, InvalidRange
from .histogram_core import PartitionSpec, PValueSample
from .lpo_risk import _grid_sums, _mse_polynomial, _score, selection_mse

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

# Partitions per block of the scan.  A block array is 96 KiB, below glibc's
# default 128 KiB mmap threshold, so its temporaries come from the reused heap;
# 12,288 and 16,384 measured fastest, 4,096 and 32,768 slower (the latter
# faults again).
_BLOCK = 12288


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
    """Sample-independent index tables for one (n_min, n_max) range.

    The family is in selection order, N ascending, then L - K and k descending:
    the pairs (a, b) of ``np.tril_indices(N)`` give K = a - b, L = N - b.

    Row g of ``edges`` holds the edges k/N, k < N, of grid N = n_min + g,
    then +inf up to column n_max.  An edge of +inf counts the whole sample:
    at k = N that is the count the right-closed last cell needs, and past it
    the padding reads count m and adds cells of mass 0, so every row's
    prefix sums are its grid's.  ``idx_k``, ``idx_l`` and ``idx_n`` index a
    partition's edges k, l and N in the flattened rows.
    """

    def __init__(self, n_min: int, n_max: int):
        grid = np.arange(n_min, n_max + 1)
        tri = [np.tril_indices(n) for n in grid.tolist()]
        a, b = (np.concatenate(parts) for parts in zip(*tri))
        self.N = np.repeat(grid, [t[0].size for t in tri])
        self.K = a - b
        self.L = self.N - b
        cols = np.arange(n_max + 1)
        self.edges = np.where(cols < grid[:, None], cols / grid[:, None], np.inf)
        row = (self.N - n_min) * (n_max + 1)
        self.idx_k = row + self.K
        self.idx_l = row + self.L
        self.idx_n = row + self.N
        self.Nf = self.N.astype(float)
        self.W = (self.L - self.K) / self.Nf
        # bound on computed R_1 - R_p; see the module docstring
        self.margin = 64 * np.finfo(float).eps * n_max


_tables_cache: dict[tuple[int, int], _SearchTables] = {}


def _tables(n_min: int, n_max: int) -> _SearchTables:
    key = (n_min, n_max)
    if key not in _tables_cache:
        _tables_cache[key] = _SearchTables(n_min, n_max)
    return _tables_cache[key]


def _scan(sample: PValueSample, tab: _SearchTables):
    """Vectorised risk scan: R_1, the risk at p = 1, of every partition, and
    the grids' prefix sums it was scored from."""
    m = sample.m
    sums = _grid_sums(np.searchsorted(sample.values, tab.edges, side="left"), m)
    risk = np.empty(tab.N.size)
    for lo in range(0, risk.size, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        risk[blk] = _score(m, sums, tab.idx_k[blk], tab.idx_l[blk], tab.idx_n[blk],
                           tab.Nf[blk], tab.W[blk], adaptive_p=False)[-1]
    return risk, sums


def _lpo_blocks(m: int, sums, tab: _SearchTables, rows: np.ndarray):
    """The lpo risks of the partitions ``rows``, at their own holdout, one
    block of ``_BLOCK`` rows at a time; a non-finite risk reads +inf."""
    for lo in range(0, rows.size, _BLOCK):
        j = rows[lo:lo + _BLOCK]
        risk = _score(m, sums, tab.idx_k[j], tab.idx_l[j], tab.idx_n[j],
                      tab.Nf[j], tab.W[j], adaptive_p=True)[-1]
        yield np.where(np.isfinite(risk), risk, np.inf)


def _rescore(m: int, sums, tab: _SearchTables, j: int):
    """Partition j scored alone from the per-grid sums ``_scan`` returns, with
    the adaptive holdout: its central count, p_hat, risk and MSE polynomial."""
    one = slice(j, j + 1)
    cc, moments, p, _, risk = _score(m, sums, tab.idx_k[one], tab.idx_l[one],
                                     tab.idx_n[one], tab.Nf[one], tab.W[one], adaptive_p=True)
    return cc[0], p[0], risk[0], _mse_polynomial(m, *moments)


def estimate_pi0(sample: PValueSample, cfg: EstimatorConfig = EstimatorConfig()) -> Pi0Estimate:
    """Run the full partition search and return the selected estimate."""
    if cfg.method in ("ss", "storey"):
        lam = 0.5 if cfg.method == "storey" else cfg.lam
        return ss_estimator(sample, lam, method=cfg.method)
    tab = _tables(cfg.n_min, cfg.n_max)
    m = sample.m
    lpo = cfg.method == "lpo"
    r1, sums = _scan(sample, tab)

    finite = np.isfinite(r1)
    if not finite.any():
        spec = PartitionSpec(cfg.n_min, 0, cfg.n_min)
        return Pi0Estimate(method=cfg.method, m=m, pi0_raw=1.0, pi0=1.0,
                           lambda_hat=spec.lam, mu_hat=spec.mu, n_hat=spec.n,
                           p_hat=1, risk=None, degenerate=True)
    if not finite.all():
        r1 = np.where(finite, r1, np.inf)

    # the family is in selection order, so the first index wins every tie
    j = int(r1.argmin())
    if lpo:
        t0 = next(_lpo_blocks(m, sums, tab, np.array([j])))[0]
        rows = np.flatnonzero(r1 <= t0 + tab.margin)
        rp = np.concatenate(list(_lpo_blocks(m, sums, tab, rows)))
        j = int(rows[rp.argmin()])
    if cfg.se_band > 0.0:
        # loo's SE is the selection MSE at its own holdout, p = 1
        _, p, risk, coeffs = _rescore(m, sums, tab, j)
        se = np.sqrt(max(float(selection_mse(coeffs, p if lpo else 1.0)[0]), 0.0))
        band = (risk if lpo else r1[j]) + cfg.se_band * (se if np.isfinite(se) else 0.0)
        if lpo:
            rows = np.flatnonzero(r1 <= band + tab.margin)
            for lo, rp in zip(range(0, rows.size, _BLOCK), _lpo_blocks(m, sums, tab, rows)):
                if (rp <= band).any():
                    j = int(rows[lo + np.argmax(rp <= band)])
                    break
        else:
            j = int(np.argmax(r1 <= band))

    cc, p_hat, risk, _ = _rescore(m, sums, tab, j)
    pi0_raw = cc / (m * tab.W[j])
    return Pi0Estimate(
        method=cfg.method,
        m=m,
        pi0_raw=float(pi0_raw),
        pi0=float(min(1.0, max(1.0 / m, pi0_raw))),
        lambda_hat=float(tab.K[j] / tab.Nf[j]),
        mu_hat=float(tab.L[j] / tab.Nf[j]),
        n_hat=int(tab.N[j]),
        p_hat=int(p_hat) if lpo else 1,
        risk=float(risk if lpo else r1[j]),
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
