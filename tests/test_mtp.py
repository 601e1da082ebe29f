import dataclasses

import numpy as np
import pytest

from pi0cv.errors import InvalidAlpha, InvalidDelta, InvalidTheta, LengthMismatch
from pi0cv.histogram_core import load_sample
from pi0cv.mtp import (
    MtpResult,
    _step_up,
    bh_procedure,
    error_metrics,
    plugin_mtp,
    rejected_mask,
)

FIXTURE = [0.01, 0.02, 0.5, 0.6, 0.9]


class TestThreshold:
    def test_fixture_theta_one(self):
        s = load_sample(FIXTURE)
        res = bh_procedure(s, 0.15)
        assert res.threshold == pytest.approx(0.06)
        assert res.k_hat == 2
        assert np.array_equal(np.sort(s.values[res.rejected]), [0.01, 0.02])

    def test_fixture_theta_half_doubles_cutoffs(self):
        s = load_sample(FIXTURE)
        res = plugin_mtp(s, 0.15, 0.5)
        assert res.k_hat == 2
        assert res.threshold == pytest.approx(0.12)
        assert np.array_equal(np.sort(s.values[res.rejected]), [0.01, 0.02])

    def test_no_rejections(self):
        s = load_sample([0.5, 0.6, 0.7, 0.8, 0.9])
        assert s.values[-1] > 0.15
        res = bh_procedure(s, 0.15)
        assert res.k_hat == 0
        assert res.threshold == 0.0
        assert res.rejected.size == 0

    def test_threshold_stays_inside_plateau(self):
        rng = np.random.default_rng(0)
        cases = []
        for _ in range(200):
            m = int(rng.integers(2, 40))
            cases.append((load_sample(rng.random(m)), float(rng.uniform(0.01, 0.5)),
                          float(rng.uniform(0.05, 1.0))))
        # p_(k) exactly on its cut k (alpha / (m theta)), which alpha k / (m theta)
        # rounds below for some k, e.g. k = 3 at alpha = 0.15, m = 1000
        m = 1000
        for alpha, theta in ((0.15, 1.0), (0.05, 0.7)):
            for k in range(1, m + 1):
                values = np.full(m, 0.9)
                values[:k - 1] = 1e-9
                values[k - 1] = k * (alpha / (m * theta))
                cases.append((load_sample(values), alpha, theta))
        for s, alpha, theta in cases:
            m = s.m
            res = plugin_mtp(s, alpha, theta)
            if res.k_hat == 0:
                assert res.threshold == 0.0
                continue
            assert s.values[res.k_hat - 1] <= res.threshold
            if res.k_hat < m:
                assert res.threshold < s.values[res.k_hat]
            assert res.threshold <= 1.0
            assert np.array_equal(res.rejected, np.arange(res.k_hat))

    def test_invalid_alpha_and_theta(self):
        s = load_sample(FIXTURE)
        with pytest.raises(InvalidAlpha):
            plugin_mtp(s, 0.0, 1.0)
        with pytest.raises(InvalidAlpha):
            plugin_mtp(s, 1.0, 0.5)
        with pytest.raises(InvalidTheta):
            plugin_mtp(s, 0.1, 0.0)
        # plugin_mtp caps theta at 1, so only the step-up itself sees 1.5
        with pytest.raises(InvalidTheta):
            _step_up(s, 0.1, 1.5, 0.0)


class TestPluginMtp:
    def test_theta_one_equals_baseline(self):
        s = load_sample(FIXTURE)
        a = plugin_mtp(s, 0.15, 1.0, 0.0)
        b = bh_procedure(s, 0.15)
        assert np.array_equal(a.rejected, b.rejected)
        assert a.threshold == b.threshold

    def test_large_delta_clamps_to_baseline(self):
        s = load_sample(FIXTURE)
        a = plugin_mtp(s, 0.15, 0.3, delta=5.0)
        b = bh_procedure(s, 0.15)
        assert a.theta == 1.0
        assert np.array_equal(a.rejected, b.rejected)

    def test_accepts_estimate_objects(self):
        from pi0cv.pi0_estimator import storey_estimator
        s = load_sample(FIXTURE)
        est = storey_estimator(s)
        res = plugin_mtp(s, 0.15, est)
        assert res.theta == min(1.0, est.pi0)

    def test_nan_pi0_rejected(self):
        # min(1.0, nan) is 1.0, which would silently run the BH procedure
        s = load_sample(FIXTURE)
        for delta in (0.0, 5.0):
            with pytest.raises(InvalidTheta):
                plugin_mtp(s, 0.15, float("nan"), delta=delta)

    def test_negative_delta_rejected(self):
        s = load_sample(FIXTURE)
        for delta in (-0.1, float("nan")):
            with pytest.raises(InvalidDelta):
                plugin_mtp(s, 0.15, 0.5, delta=delta)


class TestBhEdges:
    def test_all_zero_pvalues_reject_everything(self):
        s = load_sample([0.0, 0.0, 0.0])
        res = bh_procedure(s, 0.15)
        assert res.k_hat == 3
        assert np.array_equal(res.rejected, [0, 1, 2])

    def test_all_one_pvalues_reject_nothing(self):
        s = load_sample([1.0, 1.0, 1.0])
        res = bh_procedure(s, 0.15)
        assert res.k_hat == 0


class TestStepUpEquivalence:
    def test_matches_dense_grid_supremum(self):
        # the k-hat rule must reject exactly {P_i <= t} for the sup of
        # {t: theta t / G(t) <= alpha} located by a dense scan
        rng = np.random.default_rng(1)
        grid = np.arange(1e-4, 1.0 + 1e-9, 1e-4)
        for _ in range(500):
            m = int(rng.integers(2, 50))
            values = np.round(rng.random(m), 3)  # ties on purpose
            s = load_sample(values)
            alpha = float(rng.uniform(0.02, 0.4))
            theta = float(rng.uniform(0.1, 1.0))
            res = plugin_mtp(s, alpha, theta)
            counts = np.searchsorted(s.values, grid, side="right")
            with np.errstate(divide="ignore"):
                q = np.where(counts > 0, theta * grid / (counts / m), np.inf)
            ok = np.nonzero(q <= alpha)[0]
            if ok.size == 0:
                assert res.k_hat == 0
                continue
            t_grid = grid[ok[-1]]
            expected = np.nonzero(s.values <= t_grid)[0]
            assert np.array_equal(res.rejected, expected)

    def test_monotone_in_theta_and_alpha(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = load_sample(rng.random(30))
            thetas = np.sort(rng.uniform(0.05, 1.0, 4))
            ks = [plugin_mtp(s, 0.2, float(t)).k_hat for t in thetas]
            assert all(a >= b for a, b in zip(ks, ks[1:]))
            alphas = np.sort(rng.uniform(0.01, 0.6, 4))
            ks = [plugin_mtp(s, float(a), 0.7).k_hat for a in alphas]
            assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_plugin_dominates_baseline(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = load_sample(rng.random(40) ** 1.5)
            theta = float(rng.uniform(0.1, 1.0))
            assert plugin_mtp(s, 0.15, theta).k_hat >= bh_procedure(s, 0.15).k_hat


def _full_cut_step_up(values, alpha, theta):
    """k_hat, threshold and rejections with the cut built over all m ranks."""
    m = values.size
    cut = np.arange(1, m + 1) * (alpha / (m * theta))
    hits = np.nonzero(values <= cut)[0]
    if hits.size == 0:
        return 0, 0.0, np.empty(0, dtype=np.int64)
    k_hat = int(hits[-1]) + 1
    t = max(alpha * k_hat / (m * theta), float(values[k_hat - 1]))
    if k_hat < m:
        t = min(t, float(np.nextafter(values[k_hat], -np.inf)))
    return k_hat, min(t, 1.0), np.arange(k_hat)


class TestStepUpPrefix:
    """The step-up reads only the p-values up to the last cut m alpha / (m theta)."""

    @pytest.mark.parametrize("theta", [1.0, 0.5, 1e-3])
    def test_matches_full_cut_reference(self, theta):
        rng = np.random.default_rng(13)
        cases = []
        for m in (2, 3, 10, 1000):
            cases += [np.zeros(m), np.ones(m)]
            for alpha in (0.05, 0.15, 0.5):
                cut = np.arange(1, m + 1) * (alpha / (m * theta))
                near = [np.minimum(v, 1.0) for v in
                        (cut, np.nextafter(cut, np.inf), np.nextafter(cut, -np.inf))]
                cases += near
                # each rank on its cut or on a neighbour of it, and the tail
                # past the last cut moved to 1
                for _ in range(5):
                    pick = np.choose(rng.integers(0, 3, m), near)
                    cases.append(pick)
                    cases.append(np.where(np.arange(m) < rng.integers(0, m + 1), pick, 1.0))
        for values in cases:
            s = load_sample(np.sort(values))
            for alpha in (0.05, 0.15, 0.5):
                res = plugin_mtp(s, alpha, theta)
                k_hat, t, rejected = _full_cut_step_up(s.values, alpha, theta)
                assert res.k_hat == k_hat
                assert np.float64(res.threshold).view(np.uint64) == np.float64(t).view(np.uint64)
                assert np.array_equal(res.rejected, rejected)


class TestStepUpKeepsRunsWhole:
    """If p_(k) = p_(k+1) and k is a hit, then p_(k+1) <= k c <= (k+1) c, so
    the rejected prefix never ends inside a run of equal values."""

    def test_rounded_draws(self):
        rng = np.random.default_rng(18)
        inside = 0
        for _ in range(2000):
            m = int(rng.integers(2, 401))
            # mass piled near 0 so that many step-ups reject something
            values = np.round(rng.random(m) ** float(rng.uniform(1.0, 6.0)),
                              int(rng.integers(1, 4)))
            s = load_sample(values)
            p = s.values
            for alpha in (0.01, 0.05, 0.15, 0.5, 0.9):
                for theta in (1.0, 0.7, 0.3, 0.05):
                    k = _step_up(s, alpha, theta, 0.0).k_hat
                    if 0 < k < m:
                        assert p[k - 1] < p[k]
                        inside += p[k - 1] == p[k - 2] if k > 1 else 0
        assert inside > 2000   # many prefixes end on a run of ties, taken whole


class TestErrorMetrics:
    """Counts on real samples: ``error_metrics`` gets the true nulls' p-values."""

    def test_no_rejections(self):
        s = load_sample([0.5, 0.6, 0.7, 0.9])
        em = error_metrics(bh_procedure(s, 0.15), [0.5, 0.9])
        assert (em.r, em.fp, em.fdp, em.fnr) == (0, 0, 0.0, 1.0)

    def test_all_rejected_all_null(self):
        s = load_sample([0.0, 0.0, 0.0])
        em = error_metrics(bh_procedure(s, 0.15), [0.0, 0.0, 0.0])
        assert em.fdp == 1.0
        assert em.fnr == 0.0

    def test_hand_example(self):
        # 0.01 and 0.02 rejected; nulls 0.01, 0.6 and 0.9, alternatives 0.02 and 0.5
        em = error_metrics(bh_procedure(load_sample(FIXTURE), 0.15), [0.9, 0.01, 0.6])
        assert em.fp == 1
        assert em.fdp == 0.5
        assert em.fnr == 0.5

    def test_fdp_zero_when_no_null_rejected(self):
        # the first two rejected, both alternatives; the alternative 0.6 missed
        em = error_metrics(bh_procedure(load_sample(FIXTURE), 0.15), [0.5, 0.9])
        assert (em.r, em.fp, em.fdp, em.fnr) == (2, 0, 0.0, 1 / 3)

    def test_length_mismatch(self):
        res = bh_procedure(load_sample([0.1, 0.2]), 0.15)
        with pytest.raises(LengthMismatch):
            error_metrics(res, [0.1, 0.2, 0.2])

    def test_labels_raise(self):
        # boolean labels would otherwise be read as the p-values 0 and 1
        res = bh_procedure(load_sample(FIXTURE), 0.15)
        for labels in ([True, False, False, True, True], np.ones(5, dtype=bool)):
            with pytest.raises(TypeError):
                error_metrics(res, labels)

    def test_rejected_is_the_prefix(self):
        res = MtpResult(threshold=0.5, k_hat=3, alpha=0.15, theta=1.0, delta=0.0, m=5)
        assert np.array_equal(res.rejected, [0, 1, 2])
        assert dataclasses.replace(res, k_hat=0).rejected.size == 0
        assert "rejected" not in {f.name for f in dataclasses.fields(MtpResult)}

    def test_matches_counting_by_mask(self):
        # every prefix the step-up can reject, k_hat = 0..m on distinct values
        # and every run end on rounded ones, against counts taken from the
        # labels of the rejection mask and its complement
        rng = np.random.default_rng(5)
        for trial in range(80):
            m = int(rng.integers(2, 40))
            values = rng.random(m)
            if trial % 2:
                values = np.round(values, 1)
            labels = rng.random(m) < rng.random()
            order = np.argsort(values, kind="stable")
            s, labels = load_sample(values), labels[order]
            null_values = rng.permutation(s.values[labels])
            for k_hat in range(m + 1):
                if 0 < k_hat < m and s.values[k_hat - 1] == s.values[k_hat]:
                    continue    # a prefix that ends inside a run is never rejected
                threshold = float(s.values[k_hat - 1]) if k_hat else 0.0
                res = MtpResult(threshold=threshold, k_hat=k_hat, alpha=0.15, theta=1.0,
                                delta=0.0, m=m)
                rej = np.arange(m) < k_hat
                r, fp = int(rej.sum()), int((rej & labels).sum())
                n_alt, missed = int((~labels).sum()), int((~rej & ~labels).sum())
                em = error_metrics(res, null_values)
                assert (em.r, em.fp) == (r, fp)
                assert em.fdp == fp / max(r, 1)
                assert em.fnr == missed / max(n_alt, 1)

    def test_fdp_always_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            m = int(rng.integers(2, 30))
            s = load_sample(rng.random(m))
            null_values = s.values[rng.random(m) < 0.5]
            em = error_metrics(plugin_mtp(s, 0.2, 0.5), null_values)
            assert 0.0 <= em.fdp <= 1.0
            assert 0.0 <= em.fnr <= 1.0


class TestRejectedMask:
    def test_original_order_recovery(self):
        raw = [0.5, 0.01, 0.9, 0.02, 0.6]
        s = load_sample(raw)
        res = bh_procedure(s, 0.15)
        mask = rejected_mask(raw, res)
        assert np.array_equal(mask, [False, True, False, True, False])

    def test_no_rejections_mask_empty_even_with_zeros_absent(self):
        raw = [0.7, 0.8]
        res = bh_procedure(load_sample(raw), 0.15)
        assert not rejected_mask(raw, res).any()
