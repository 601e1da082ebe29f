"""The whole partition family scored with no pruning and no blocks: the
oracle the search's tests compare ``pi0_estimator._scan`` and
``estimate_pi0`` against.

It shares only ``tab.N``, ``tab.K`` and ``tab.L`` with the search.  It lays
each grid's prefix sums out end to end at offsets of its own, builds them
grid by grid, and runs the per-partition arithmetic of ``lpo_risk._score``
over the whole family at once, in the kernel's order, so its values are the
kernel's bit for bit.
"""

from types import SimpleNamespace

import numpy as np

from pi0cv.lpo_risk import _holdout, _mse_polynomial, _risk_from_sums, selection_mse


def full_family(sample, tab, adaptive_p):
    """Every partition of ``tab`` scored at its own holdout with
    ``adaptive_p``, else at p = 1.  Fields: ``cc`` (central counts),
    ``p_hat``, ``risk`` (at p_hat), ``mse`` (selection MSE at p_hat) and
    ``loo`` (the risk at p = 1, R_1)."""
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
