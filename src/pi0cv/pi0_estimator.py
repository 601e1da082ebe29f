"""Estimation of the proportion of true null hypotheses.

The estimator scans every non-regular partition (N, k, l) for N in
[n_min, n_max], scores each by the leave-p-out risk at its own selected
holdout size, and reads the estimate off the central cell of the winning
partition: pi0_raw = count / (m * (mu - lambda)) with lambda = k/N, mu = l/N.

Selection is the risk argmin robustified by a small statistical band: among
partitions whose risk lies within ``se_band`` standard errors of the minimum
(the root selection-MSE of the argmin partition), the coarsest grid N
wins, then the smallest dimension, then the widest central cell, then the
largest k.  The band suppresses winner's-curse picks from the
~1.7e5-strong family, where a noise-favoured fine partition can otherwise
park its central cell in a steep region of the density and read a
meaningless height; pure argmin is recovered with se_band=0.  The family is
stored in that order, so the argmin's tie-break and the band's winner are
both the first index that qualifies, and nothing is sorted.

The scan is vectorised in two stages.  The cell counts of every grid N and
their power prefix sums are built for all grids at once as the rows of one
padded array: the sample is searched once per distinct edge k/N, and one
gather lays the counts out in rows.  After that every (k, l) pair costs
O(1): a sum over the cells outside the central one is a row's head (its
prefix sum plus the grid's total) at k less its prefix sum at l, two
gathers.  The per-partition stage (``lpo_risk._score``) then runs over
blocks of the family: block-sized temporaries stay in cache and the
allocator recycles them between blocks and calls, where family-length ones
would be faulted in afresh on every call.  Every operation is elementwise,
so the blocks return the same bits as one pass over the whole family.  The
scan ranks, keeping one risk per partition.

The scan does not depend on the method, so a call keeps it for the next: a
one-entry memo holds a weak reference to the sample, the grid range, the
scan's R_1 and grid sums, made read-only, and R_1's argmin.  The argmin is
taken before the freeze, as numpy's argmin and argmax copy a read-only array
first: 0.11 to 0.16 ms on R_1's 171,700 values, against 0.03 ms.  A call on
the same sample object and range reads them and scans nothing; any other
call drops them, then scans.  So ``run_scenario``'s lpo and loo calls on
one replicate's sample scan it once.  The memo keeps no sample alive and
holds at most one scan, about 1.9 MB at N <= 100, until the next scan
replaces it; a copy of a sample, equal in every value, is scanned afresh.

lpo and loo take one path and differ only in their holdout: lpo's is the
adaptive p_hat, loo's is p = 1.  The risk at p is

    R_p = [s11 - m s21 + m (s11 - s21) / (m - p)] / (m - 1),

and s11 - s21 = sum_k alpha_k (1 - alpha_k) / w_k >= 0, so R_p grows with p
and R_1, read from the same s11 and s21, bounds every partition's R_p from
below.  The scan scores the family at p = 1.  Selection then reads risks at
the holdout, a block at a time, only where a partition can still win, in
two stages:

1. the argmin: R_1's argmin scored alone gives T0, its risk at the
   holdout.  The partitions whose R_1 is within the margin of T0 hold every
   argmin and all that tie with it; the least (risk, index) of them wins.
2. the band: of the partitions before the argmin, those whose R_1 is within
   the margin of the band's upper edge, walked in family order, a first
   block of ``_BAND_BLOCK`` rows and then full blocks, up to the first block
   that holds a member.  Its first member wins, else the argmin.

lpo scores the candidates at their own holdout and keeps each block's
kernel values, so the argmin's SE and the winner's central count, p_hat and
risk come from the block that scored the partition: no partition is scored
twice alone.  loo's candidates are R_1 itself, so its argmin is R_1's and
its band walk reads R_1; past the scan it runs the kernel only on one
partition at a time (``_rescore``), for the argmin's SE and, when the band
picks another partition, for the winner's values.  A block's values equal
a one-partition run's bit for bit, since every kernel operation is
elementwise, and the first member in family order does not depend on where
the blocks end.

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

import weakref
from dataclasses import asdict, dataclass, field
from functools import cache, partial

import numpy as np

from .errors import DegenerateSelection, InvalidLambda, InvalidMethod
from .histogram_core import PValueSample, _check_grid_range
from .lpo_risk import _grid_sums, _mse_polynomial, _risk_from_sums, _score, selection_mse

__all__ = [
    "EstimatorConfig",
    "Pi0Estimate",
    "estimate_pi0",
    "ss_estimator",
    "storey_estimator",
    "estimate_json_dict",
]

METHODS = ("lpo", "loo", "ss", "storey")
STOREY_LAMBDA = 0.5                # Storey's (2002) conventional cutoff

# Partitions per block of the scan.  A block array is 96 KiB, below glibc's
# default 128 KiB mmap threshold, so its temporaries come from the reused heap;
# 12,288 and 16,384 measured fastest, 4,096 and 32,768 slower (the latter
# faults again).
_BLOCK = 12288
# Rows in the band walk's first block, before full blocks.  On 272 samples
# of the benchmark's study designs at m = 1e3 to 1e5, lpo and loo, the band's
# winner was the first of the rows walked at the median and the 51st at
# most; a block this small costs little more than the kernel's fixed cost.
_BAND_BLOCK = 64


def _check_lambda(lam: float) -> None:
    if not 0.0 <= lam < 1.0:
        raise InvalidLambda(f"lambda must lie in [0, 1), got {lam}")


@dataclass(frozen=True)
class EstimatorConfig:
    n_min: int = 1
    n_max: int = 100
    method: str = "lpo"            # one of METHODS
    lam: float = STOREY_LAMBDA     # cutoff for the ss method
    se_band: float = 0.25

    def __post_init__(self):
        _check_grid_range(self.n_min, self.n_max)
        _check_lambda(self.lam)
        if self.method not in METHODS:
            raise InvalidMethod(f"unknown method {self.method!r}")
        if not self.se_band >= 0:      # in this form a NaN fails too
            raise ValueError("se_band must be >= 0")


@dataclass(frozen=True)
class Pi0Estimate:
    """One estimate, its fields in the order of its JSON record; ss and storey
    have no grid, holdout or risk."""
    method: str
    m: int
    pi0: float = field(init=False)  # pi0_raw clamped to [1/m, 1], used downstream
    pi0_raw: float
    lambda_hat: float
    mu_hat: float
    n_hat: int | None = None
    p_hat: int | None = None
    risk: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "pi0", float(min(1.0, max(1.0 / self.m, self.pi0_raw))))


class _SearchTables:
    """Sample-independent index tables for one (n_min, n_max) range.

    The family is in selection order, N ascending, then L - K and k descending:
    the pairs (a, b) of ``np.tril_indices(N)`` give K = a - b, L = N - b.

    Row g of the padded edge array holds the edges k/N, k < N, of grid
    N = n_min + g, then +inf up to column n_max.  An edge of +inf counts the
    whole sample: at k = N that is the count the right-closed last cell
    needs, and past it the padding reads count m and adds cells of mass 0,
    so every row's prefix sums are its grid's, and its last entry is its
    grid's total.  Equal fractions k/N are equal floats, so ``edges`` keeps
    the distinct edges, ascending (3,045 of the 10,100 at N <= 100), and
    ``edge_rows`` the padded array as indices into them.  ``idx_k`` and
    ``idx_l`` index a partition's edges k and l in the flattened rows.
    """

    def __init__(self, n_min: int, n_max: int):
        grid = np.arange(n_min, n_max + 1)
        tri = [np.tril_indices(n) for n in grid.tolist()]
        a, b = (np.concatenate(parts) for parts in zip(*tri))
        self.N = np.repeat(grid, [t[0].size for t in tri])
        self.K = a - b
        self.L = self.N - b
        cols = np.arange(n_max + 1)
        padded = np.where(cols < grid[:, None], cols / grid[:, None], np.inf)
        self.edges, inverse = np.unique(padded.ravel(), return_inverse=True)
        self.edge_rows = inverse.reshape(padded.shape)
        row = (self.N - n_min) * (n_max + 1)
        self.idx_k = row + self.K
        self.idx_l = row + self.L
        self.Nf = self.N.astype(float)
        self.W = (self.L - self.K) / self.Nf
        # bound on computed R_1 - R_p; see the module docstring
        self.margin = 64 * np.finfo(float).eps * n_max


@cache
def _tables(n_min: int, n_max: int) -> _SearchTables:
    return _SearchTables(n_min, n_max)


def _scan(sample: PValueSample, tab: _SearchTables):
    """Vectorised risk scan: R_1, the risk at p = 1, of every partition, and
    the grids' prefix sums it was scored from."""
    m = sample.m
    counts = np.searchsorted(sample.values, tab.edges, side="left")
    sums = _grid_sums(counts.take(tab.edge_rows), m)
    risk = np.empty(tab.N.size)
    for lo in range(0, risk.size, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        risk[blk] = _score(m, sums, tab.idx_k[blk], tab.idx_l[blk],
                           tab.Nf[blk], tab.W[blk], adaptive_p=False)[-1]
    return risk, sums


# The last scan: (a weak reference to its sample, (n_min, n_max), (R_1, sums),
# R_1's argmin).  A call reads the entry once, so callers on other threads can
# only cost it a scan, never hand it another sample's.
_last_scan = None


def _memo_scan(sample: PValueSample, grids: tuple[int, int], tab: _SearchTables):
    """``_scan``'s R_1 and sums for ``sample`` over ``grids``, read-only, and
    the first index of R_1's least finite value; read from the memo when the
    last scan was of this sample object, see the module docstring.

    Raises DegenerateSelection when no partition has a finite R_1."""
    global _last_scan
    last = _last_scan
    if last is not None and last[0]() is sample and last[1] == grids:
        return (*last[2], last[3])
    # the old scan is freed just before the new one runs, which reuses its
    # memory; freed with its sample, it would be handed back to the system
    # and faulted in afresh by the next scan
    _last_scan = None
    r1, sums = _scan(sample, tab)
    # before the freeze: argmin copies a read-only array
    j = int(r1.argmin())
    if not np.isfinite(r1[j]):          # a NaN or -inf, or all +inf
        finite = np.isfinite(r1)
        if not finite.any():
            raise DegenerateSelection(f"no partition with N in [{grids[0]}, {grids[1]}] "
                                      "has a finite risk")
        r1 = np.where(finite, r1, np.inf)
        j = int(r1.argmin())
    for array in (r1, sums[0], *sums[1], *sums[2], *sums[3]):
        array.flags.writeable = False
    _last_scan = (weakref.ref(sample), grids, (r1, sums), j)
    return r1, sums, j


def _risk_blocks(method: str, m: int, sums, tab: _SearchTables, r1, rows: np.ndarray,
                 first: int):
    """The partitions ``rows`` at the method's holdout, ``first`` rows, then
    ``_BLOCK`` at a time.  Yields a block's rows, their risks, a non-finite
    one read as +inf, and the values ``_row`` reads: lpo scores the rows at
    their own holdout, and its values are ``_score``'s; loo reads the risks
    from the scan's R_1 ``r1``, and has no values."""
    lo, size = 0, first
    while lo < rows.size:
        j = rows[lo:lo + size]
        lo, size = lo + size, _BLOCK
        if method == "loo":
            yield j, r1[j], None
            continue
        scored = _score(m, sums, tab.idx_k[j], tab.idx_l[j], tab.Nf[j], tab.W[j],
                        adaptive_p=True)
        yield j, np.where(np.isfinite(scored[-1]), scored[-1], np.inf), scored


def _row(m: int, scored, i: int):
    """Row i of ``_score``'s adaptive values ``scored``: its central count,
    p_hat, risk and MSE polynomial."""
    cc, moments, p, _, risk = scored
    one = slice(i, i + 1)
    return cc[i], p[i], risk[i], _mse_polynomial(m, *(s[one] for s in moments))


def _rescore(method: str, m: int, sums, tab: _SearchTables, j: int):
    """Partition j scored alone from the per-grid sums ``_scan`` returns, at the
    method's holdout: its central count, p_hat, risk and MSE polynomial.  loo's
    p_hat is 1 and its risk R_1, from the same sums as the scan's."""
    one = slice(j, j + 1)
    cc, moments, p, xstar, risk = _score(m, sums, tab.idx_k[one], tab.idx_l[one],
                                         tab.Nf[one], tab.W[one], adaptive_p=True)
    if method == "loo":
        p, risk = np.ones(1), _risk_from_sums(*moments[:2], m, 1.0)
    return _row(m, (cc, moments, p, xstar, risk), 0)


def estimate_pi0(sample: PValueSample, cfg: EstimatorConfig = EstimatorConfig()) -> Pi0Estimate:
    """Run the full partition search and return the selected estimate.

    Raises DegenerateSelection when no partition has a finite risk."""
    if cfg.method in ("ss", "storey"):
        lam = STOREY_LAMBDA if cfg.method == "storey" else cfg.lam
        return ss_estimator(sample, lam, method=cfg.method)
    tab = _tables(cfg.n_min, cfg.n_max)
    m = sample.m
    # the family is in selection order, so the first index wins every tie;
    # j is R_1's argmin, and loo's
    r1, sums, j = _memo_scan(sample, (cfg.n_min, cfg.n_max), tab)
    risks = partial(_risk_blocks, cfg.method, m, sums, tab, r1)
    kept = None             # _row's values of partition j, where a block scored it
    if cfg.method == "lpo":
        # the least (risk, index): j alone gives T0, then the others within
        # the margin of it
        _, (t0,), scored = next(risks(np.array([j]), 1))
        best = (t0, j, scored, 0)
        rows = np.flatnonzero(r1 <= t0 + tab.margin)
        for blk, rp, scored in risks(rows[rows != j], _BLOCK):
            i = int(rp.argmin())
            if (rp[i], blk[i]) < best[:2]:
                best = (rp[i], int(blk[i]), scored, i)
        _, j, scored, i = best
        kept = _row(m, scored, i)
    if cfg.se_band > 0.0:
        kept = kept or _rescore(cfg.method, m, sums, tab, j)
        _, p, risk, coeffs = kept
        se = np.sqrt(max(float(selection_mse(coeffs, p)[0]), 0.0))
        band = risk + cfg.se_band * (se if np.isfinite(se) else 0.0)
        # j is a member: the first member before it, if any, wins
        rows = np.flatnonzero(r1[:j] <= band + tab.margin)
        for blk, rp, scored in risks(rows, _BAND_BLOCK):
            hit = rp <= band
            if hit.any():
                i = int(hit.argmax())
                j, kept = int(blk[i]), None if scored is None else _row(m, scored, i)
                break

    cc, p_hat, risk, _ = kept or _rescore(cfg.method, m, sums, tab, j)
    return Pi0Estimate(
        method=cfg.method,
        m=m,
        pi0_raw=float(cc / (m * tab.W[j])),
        lambda_hat=float(tab.K[j] / tab.Nf[j]),
        mu_hat=float(tab.L[j] / tab.Nf[j]),
        n_hat=int(tab.N[j]),
        p_hat=int(p_hat),
        risk=float(risk),
    )


def ss_estimator(sample: PValueSample, lam: float, method: str = "ss") -> Pi0Estimate:
    """Tail-ratio estimator: #{P_i in [lam, 1]} / (m (1 - lam))."""
    _check_lambda(lam)
    m = sample.m
    count = m - int(np.searchsorted(sample.values, lam, side="left"))
    return Pi0Estimate(method=method, m=m, pi0_raw=float(count / (m * (1.0 - lam))),
                       lambda_hat=float(lam), mu_hat=1.0)


def storey_estimator(sample: PValueSample) -> Pi0Estimate:
    """The ss estimator at the conventional cutoff lambda = STOREY_LAMBDA."""
    return ss_estimator(sample, STOREY_LAMBDA, method="storey")


def estimate_json_dict(est: Pi0Estimate) -> dict:
    """Stable JSON field layout for CLI and harness output: the fields in order."""
    return asdict(est)
