"""Definitional references that the tests compare the package against.

None of this is on the product path.  It holds:

* the enumeration oracles: ``lpo_risk_oracle`` averages the risk over all
  C(m, p) train/test splits, and ``bias_variance_oracle`` enumerates the
  multinomial cell counts, both capped to small m;
* ``bias_hat``, ``variance_hat`` and ``mse_hat``, the closed forms of the
  bias, the phi-encoded variance and the MSE at one holdout size;
* ``full_family``, the whole partition family scored with no pruning and no
  blocks, which the search's tests compare ``pi0_estimator._scan`` and
  ``estimate_pi0`` against;
* ``labelled_draw`` and ``label_prefix_metrics``, the simulation draws and
  error counts as the package made them when each value carried a null label:
  ``draw_sample``'s values and null values, and ``error_metrics``'s counts by
  value, are compared against them;
* ``line_by_line_outcome``, what ``read_pvalue_file`` must give for a file
  whose CSV records are one line each, from the raw bytes split at line ends
  and each line decoded alone;
* small helpers: ``cell_edges``, ``histogram_heights``, ``compositions``,
  ``sample_with_counts``, ``consistency_probe`` and ``multiset_difference``.
"""

import itertools
import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from pi0cv.errors import MismatchedResolution
from pi0cv.histogram_core import load_sample
from pi0cv.lpo_risk import (
    PhiCoefficients,
    _check_p,
    _holdout,
    _mse_polynomial,
    _risk_from_sums,
    selection_mse,
)
from pi0cv.mtp import ErrorMetrics
from pi0cv.pi0_estimator import EstimatorConfig, estimate_pi0
from pi0cv.sim_harness import USHAPE_NULL_SD, draw_sample, normal_cdf, replicate_rng

ORACLE_MAX_M = 12
ENUM_MAX_M = 10
ENUM_MAX_BINS = 3


class TooLargeForOracle(ValueError):
    pass


class PoleAtM(ZeroDivisionError):
    pass


def cell_edges(spec):
    """Left edges of all cells of a ``PartitionSpec``, plus the final right
    edge 1."""
    return np.concatenate([np.arange(spec.k) / spec.n, [spec.lam],
                           np.arange(spec.l, spec.n + 1) / spec.n])


def histogram_heights(counts, spec):
    """Density heights m_j / (m * w_j); the histogram integrates to 1."""
    if len(counts.counts) != spec.dimension:
        raise MismatchedResolution(
            f"{len(counts.counts)} counts for a {spec.dimension}-cell partition")
    return counts.counts / (counts.total * spec.widths())


def compositions(total, parts):
    """All nonnegative integer vectors of the given length summing to total,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def sample_with_counts(counts, spec):
    """Synthetic sorted sample placing ``counts[j]`` interior points in cell j."""
    edges = cell_edges(spec)
    vals = []
    for j, c in enumerate(counts):
        left, right = edges[j], edges[j + 1]
        vals.extend(left + (i + 1) / (c + 1) * (right - left) for i in range(c))
    return load_sample(vals)


def lpo_risk_oracle(sample, spec, p):
    """Definitional LPO risk: average over all C(m, p) train/test splits.

    For each held-out subset of size p the training histogram is rebuilt from
    the remaining m - p points and scored by ||s_train||^2 minus twice its
    mean over the held-out points.  Feasible only for small m.
    """
    m = sample.m
    p = _check_p(m, p)
    if m > ORACLE_MAX_M:
        raise TooLargeForOracle(f"oracle enumeration capped at m={ORACLE_MAX_M}, got {m}")
    cell = np.clip(np.searchsorted(cell_edges(spec), sample.values, side="right") - 1,
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


def bias_variance_oracle(alpha, spec, m, p):
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
    for counts in compositions(m, d):
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


def bias_hat(ms, m, p):
    """Bias of R_p: p/(m(m-p)) * sum_k alpha_k (1 - alpha_k) / w_k, >= 0."""
    p = _check_p(m, p)
    total = math.fsum(ms.alpha * (1.0 - ms.alpha) / ms.omega)
    return p / (m * (m - p)) * total


def variance_hat(phi, m, p):
    """Variance polynomial of the phi encoding: [p^2 phi2 + p phi1 + phi0] / K^2.

    Diagnostic only; may be negative (the exact variance never is).
    """
    p = _check_p(m, p)
    k2 = (m * (m - 1) * (m - p)) ** 2
    return (phi.phi2 * p * p + phi.phi1 * p + phi.phi0) / k2


def mse_hat(coeffs, m, x):
    """MSE(x) = [x^2 (bias2 + v2) + x v1 + v0] / [m(m-1)(m-x)]^2 at real x.

    ``coeffs`` is a MseCoefficients, or a PhiCoefficients read as
    (bias2, v2, v1, v0) = (phi3, phi2, phi1, phi0)."""
    if x == m:
        raise PoleAtM("MSE(x) has a pole at x = m")
    if isinstance(coeffs, PhiCoefficients):
        bias2, v2, v1, v0 = coeffs.phi3, coeffs.phi2, coeffs.phi1, coeffs.phi0
    else:
        bias2, v2, v1, v0 = coeffs.mse_parts()
    k2 = (m * (m - 1) * (m - x)) ** 2
    return ((bias2 + v2) * x * x + v1 * x + v0) / k2


def consistency_probe(pi0, model, sizes, seed, cfg=EstimatorConfig()):
    """|pi0_hat(m) - pi0| for one replicate per sample size.

    ``model`` is a ScenarioSpec whose pi0 and m fields are overridden.
    """
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


def labelled_draw(spec, rng):
    """One replicate drawn with a null label per value: (sorted values, labels).

    The unsorted values come from ``np.where`` (beta_tail, trunc_beta) or from
    three boolean-mask scatters (ushape), with the same calls on ``rng`` as
    ``draw_sample`` makes, and ``np.lexsort`` orders them by value, then label.
    """
    m = spec.m
    if spec.kind == "ushape":
        comp = rng.random(m)
        nulls = comp < spec.pi0
        lower = ~nulls & (comp < spec.pi0 + (1.0 - spec.pi0) / 2.0)
        upper = ~nulls & ~lower
        x = np.empty(m)
        x[nulls] = rng.normal(0.0, USHAPE_NULL_SD, int(nulls.sum()))
        x[lower] = rng.normal(spec.a, spec.sd, int(lower.sum()))
        x[upper] = rng.normal(spec.b, spec.sd, int(upper.sum()))
        values = 1.0 - normal_cdf(x / USHAPE_NULL_SD)
    else:
        lambda_star = spec.lambda_star if spec.kind == "trunc_beta" else 1.0
        nulls = rng.random(m) < spec.pi0
        u = rng.random(m)
        values = np.where(nulls, u, lambda_star * (1.0 - u ** (1.0 / spec.s)))
    order = np.lexsort((nulls, values))
    return values[order], nulls[order]


def label_prefix_metrics(result, labels):
    """Error counts with labels aligned to the sorted sample: the false
    discoveries are the nulls among its ``k_hat`` smallest values."""
    r = result.k_hat
    fp = int(np.count_nonzero(labels[:r]))
    n_alt = result.m - int(np.count_nonzero(labels))
    missed = n_alt - (r - fp)
    return ErrorMetrics(fdp=fp / max(r, 1), fnr=missed / max(n_alt, 1), fp=fp, r=r)


def multiset_difference(values, taken):
    """The values, sorted, with one copy of each taken value removed.

    ``taken`` must be a sub-multiset of ``values``, equal value for value."""
    values, taken = np.sort(values), np.sort(taken)
    # the j-th copy of a value in ``taken`` removes the j-th copy in ``values``
    idx = (np.searchsorted(values, taken, side="left")
           + np.arange(taken.size) - np.searchsorted(taken, taken, side="left"))
    if taken.size and not (idx[-1] < values.size and np.array_equal(values[idx], taken)):
        raise ValueError("taken is not a sub-multiset of values")
    keep = np.ones(values.size, dtype=bool)
    keep[idx] = False
    return values[keep]


def full_family(sample, tab, adaptive_p):
    """Every partition of ``tab`` scored at its own holdout with
    ``adaptive_p``, else at p = 1.  Fields: ``cc`` (central counts),
    ``p_hat``, ``risk`` (at p_hat), ``mse`` (selection MSE at p_hat) and
    ``loo`` (the risk at p = 1, R_1).

    It shares only ``tab.N``, ``tab.K`` and ``tab.L`` with the search.  It
    lays each grid's prefix sums out end to end at offsets of its own, builds
    them grid by grid, and runs the per-partition arithmetic of
    ``lpo_risk._score`` over the whole family at once, in the kernel's order,
    so its values are the kernel's bit for bit."""
    values, m = sample.values, sample.m
    grid = np.unique(tab.N)
    starts = np.concatenate([[0], np.cumsum(grid + 1)])
    cum, pref1, pref2, pref3 = (np.empty(starts[-1]) for _ in range(4))
    for n, off in zip(grid.tolist(), starts.tolist()):
        c = np.searchsorted(values, np.arange(n + 1) / n, side="left").astype(float)
        c[-1] = m
        cum[off:off + n + 1] = c
        ac = np.diff(c) / m
        pref1[off] = pref2[off] = pref3[off] = 0.0
        np.cumsum(ac, out=pref1[off + 1:off + n + 1])
        np.cumsum(ac * ac, out=pref2[off + 1:off + n + 1])
        np.cumsum(ac * ac * ac, out=pref3[off + 1:off + n + 1])

    base = starts[np.searchsorted(grid, tab.N)]
    idx_k, idx_l, idx_n = base + tab.K, base + tab.L, base + tab.N
    nf = tab.N.astype(float)
    wc = (tab.L - tab.K) / nf
    cc = cum[idx_l] - cum[idx_k]
    ac = cc / m
    ac2 = ac * ac
    wc2, n2 = wc * wc, nf * nf

    def outer(pref):
        return pref[idx_k] + pref[idx_n] - pref[idx_l]

    o1, o2 = outer(pref1), outer(pref2)
    s11 = o1 * nf + ac / wc
    s21 = o2 * nf + ac2 / wc
    s12 = o1 * n2 + ac / wc2
    s22 = o2 * n2 + ac2 / wc2
    s32 = outer(pref3) * n2 + np.power(ac, 3) / wc2
    coeffs = _mse_polynomial(m, s11, s21, s12, s22, s32)
    p_hat = _holdout(coeffs)[0] if adaptive_p else np.ones_like(s11)
    return SimpleNamespace(cc=cc, p_hat=p_hat, risk=_risk_from_sums(s11, s21, m, p_hat),
                           mse=selection_mse(coeffs, p_hat),
                           loo=_risk_from_sums(s11, s21, m, 1.0))


def line_by_line_outcome(path, data, column=None):
    """``read_pvalue_file``'s values as float.hex, or its first fault's type
    and message, for ``data`` read from ``path``.

    The bytes are split at LF, CR and CR LF, and each line is decoded as
    UTF-8 alone, so a bad byte is a fault of its own line.  Plain text skips
    blank and '#' lines.  With ``column``, every line is one CSV record of
    unquoted comma-separated fields, the first the header; a record too short
    to reach the column, or blank there, is skipped."""
    lines = re.split(rb"\r\n|\r|\n", data.removeprefix(b"\xef\xbb\xbf"))
    if lines[-1] == b"":
        lines.pop()   # the final line break ends a line, not begins one
    out, at = [], None
    for lineno, raw in enumerate(lines, start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            return "InputError", f"{path}:{lineno}: not valid UTF-8"
        if column is not None:
            fields = text.split(",") if text else []
            if at is None:
                if column not in fields:
                    return "InputError", f"{path}: no column named {column!r}"
                at = len(fields) - 1 - fields[::-1].index(column)
                continue
            text = fields[at] if len(fields) > at else ""
        text = text.strip()
        if not text or (column is None and text.startswith("#")):
            continue
        try:
            val = float(text)
        except ValueError:
            return "InputError", f"{path}:{lineno}: not a number: {text!r}"
        if not math.isfinite(val):
            return "InputError", f"{path}:{lineno}: non-finite value"
        if not 0.0 <= val <= 1.0:
            return "InputError", f"{path}:{lineno}: p-value out of [0, 1]: {val!r}"
        out.append(val.hex())
    if column is not None and at is None:
        return "InputError", f"{path}: no column named {column!r}"
    return out
