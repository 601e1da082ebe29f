import math

import numpy as np
import pytest

from pi0cv.errors import InvalidP, PoleAtM, TooLargeForOracle
from pi0cv.histogram_core import BinCounts, PartitionSpec, bin_counts, grid_prefix, load_sample
from pi0cv.lpo_risk import (
    MseCoefficients,
    _holdout,
    bias_hat,
    bias_variance_oracle,
    evaluate_partition,
    lpo_risk,
    lpo_risk_oracle,
    moment_sums,
    moment_sums_from,
    mse_coefficients,
    mse_hat,
    partition_diagnostics,
    phi_coefficients,
    select_p,
    selection_mse,
    variance_hat,
)


def _counts(counts, total):
    return BinCounts(counts=np.asarray(counts), total=total)


def _sample_with_counts(counts, spec):
    """Synthetic sorted sample placing `counts[j]` interior points in cell j."""
    edges = spec.edges()
    vals = []
    for j, c in enumerate(counts):
        left, right = edges[j], edges[j + 1]
        for i in range(c):
            vals.append(left + (i + 1) / (c + 1) * (right - left))
    return load_sample(vals)


class TestMomentSums:
    def test_single_cell_all_ones(self):
        ms = moment_sums_from([1.0], [1.0])
        assert np.array_equal(ms.s, np.ones((3, 2)))

    def test_even_split(self):
        ms = moment_sums_from([0.5, 0.5], [0.5, 0.5])
        assert (ms.s11, ms.s21, ms.s31) == (2.0, 1.0, 0.5)
        assert (ms.s12, ms.s22, ms.s32) == (4.0, 2.0, 1.0)

    def test_degenerate_mass(self):
        ms = moment_sums_from([1.0, 0.0], [0.5, 0.5])
        assert (ms.s11, ms.s21, ms.s31) == (2.0, 2.0, 2.0)
        assert (ms.s12, ms.s22, ms.s32) == (4.0, 4.0, 4.0)

    def test_plugin_from_counts(self):
        spec = PartitionSpec(2, 0, 1)
        ms = moment_sums(_counts([3, 1], 4), spec)
        assert ms.s11 == pytest.approx(2.0, abs=1e-15)
        assert ms.s21 == pytest.approx((0.75**2 + 0.25**2) / 0.5, abs=1e-15)

    def test_s11_at_least_one(self):
        # Cauchy-Schwarz against widths summing to 1
        rng = np.random.default_rng(30)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            raw = rng.random(d) + 1e-3
            alpha = raw / raw.sum()
            w = rng.random(d) + 1e-2
            w = w / w.sum()
            assert moment_sums_from(alpha, w).s11 >= 1.0 - 1e-12


class TestLpoRisk:
    def test_single_cell_is_exactly_minus_one(self):
        spec = PartitionSpec(2, 0, 2)
        for m in (2, 3, 7, 40):
            for p in (1, m - 1):
                assert lpo_risk(_counts([m], m), spec, p) == -1.0

    def test_hand_fixture(self):
        # m=4, two half cells, counts (3, 1), p=1
        spec = PartitionSpec(2, 0, 1)
        assert lpo_risk(_counts([3, 1], 4), spec, 1) == pytest.approx(-2 / 3, abs=1e-15)

    def test_rejects_bad_p(self):
        spec = PartitionSpec(2, 0, 2)
        with pytest.raises(InvalidP):
            lpo_risk(_counts([4], 4), spec, 0)
        with pytest.raises(InvalidP):
            lpo_risk(_counts([4], 4), spec, 4)


class TestLpoRiskOracle:
    def test_hand_fixture(self):
        spec = PartitionSpec(2, 0, 1)
        sample = _sample_with_counts([3, 1], spec)
        assert lpo_risk_oracle(sample, spec, 1) == pytest.approx(-2 / 3, abs=1e-10)

    def test_degenerate_histogram_constant(self):
        spec = PartitionSpec(1, 0, 1)
        sample = load_sample([0.2, 0.5, 0.8])
        assert lpo_risk_oracle(sample, spec, 2) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_closed_form_on_random_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(1, 5))
            k = int(rng.integers(0, n))
            l = int(rng.integers(k + 1, n + 1))
            spec = PartitionSpec(n, k, l)
            sample = load_sample(rng.random(m))
            counts = bin_counts(grid_prefix(sample, n), spec)
            for p in range(1, min(m, 4)):
                closed = lpo_risk(counts, spec, p)
                brute = lpo_risk_oracle(sample, spec, p)
                assert closed == pytest.approx(brute, abs=1e-10)

    def test_size_cap(self):
        spec = PartitionSpec(1, 0, 1)
        sample = load_sample(np.linspace(0.01, 0.99, 13))
        with pytest.raises(TooLargeForOracle):
            lpo_risk_oracle(sample, spec, 1)


class TestPhiCoefficients:
    def test_unit_sums_m2(self):
        ms = moment_sums_from([1.0], [1.0])
        phi = phi_coefficients(ms, 2)
        assert phi.phi3 == 0.0
        assert phi.phi2 == -12.0
        assert phi.phi1 == 72.0

    def test_even_split_m3_regression_constants(self):
        ms = moment_sums_from([0.5, 0.5], [0.5, 0.5])
        phi = phi_coefficients(ms, 3)
        assert (phi.phi3, phi.phi2, phi.phi1, phi.phi0) == (4.0, -84.0, 672.0, -2112.0)


class TestBiasHat:
    def test_point_mass_has_no_bias(self):
        ms = moment_sums_from([1.0], [1.0])
        for p in (1, 5, 9):
            assert bias_hat(ms, 10, p) == 0.0

    def test_even_split_m10_p1(self):
        ms = moment_sums_from([0.5, 0.5], [0.5, 0.5])
        assert bias_hat(ms, 10, 1) == pytest.approx(1 / 90, abs=1e-15)

    def test_strictly_increasing_in_p(self):
        ms = moment_sums_from([0.7, 0.3], [0.5, 0.5])
        m = 12
        values = [bias_hat(ms, m, p) for p in range(1, m)]
        assert all(b < c for b, c in zip(values, values[1:]))


class TestExactMseAgainstEnumeration:
    CASES = [
        # (alpha, spec, m, p) with exact enumerated variances
        ([0.5, 0.5], PartitionSpec(2, 0, 1), 2, 1, 4.0),
        ([0.5, 0.5], PartitionSpec(2, 0, 1), 6, 1, 12 / 125),
        ([0.5, 0.5], PartitionSpec(2, 0, 1), 6, 4, 3 / 20),
    ]

    @pytest.mark.parametrize("alpha,spec,m,p,expected_var", CASES)
    def test_pinned_exact_variances(self, alpha, spec, m, p, expected_var):
        bias, var = bias_variance_oracle(alpha, spec, m, p)
        assert var == pytest.approx(expected_var, rel=1e-12)
        ms = moment_sums_from(alpha, spec.widths())
        mc = mse_coefficients(ms, m)
        k2 = (m * (m - 1) * (m - p)) ** 2
        closed = (mc.var2 * p * p + mc.var1 * p + mc.var0) / k2
        assert closed == pytest.approx(var, rel=1e-9)

    def test_single_cell_estimator_is_deterministic(self):
        spec = PartitionSpec(1, 0, 1)
        bias, var = bias_variance_oracle([1.0], spec, 5, 2)
        assert bias == pytest.approx(0.0, abs=1e-14)
        assert var == pytest.approx(0.0, abs=1e-14)
        mc = mse_coefficients(moment_sums_from([1.0], [1.0]), 5)
        assert (mc.bias2, mc.var2, mc.var1, mc.var0) == (0.0, 0.0, 0.0, 0.0)

    def test_enumerated_m4_even_split(self):
        # five count outcomes; exact values: bias 1/12, variance 8/27
        spec = PartitionSpec(2, 0, 1)
        bias, var = bias_variance_oracle([0.5, 0.5], spec, 4, 1)
        assert bias == pytest.approx(1 / 12, rel=1e-12)
        assert var == pytest.approx(8 / 27, rel=1e-12)

    def test_closed_form_matches_enumeration_broadly(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(1, 4))
            k = int(rng.integers(0, n))
            l = int(rng.integers(k + 1, n + 1))
            spec = PartitionSpec(n, k, l)
            if spec.dimension > 3:
                continue
            raw = rng.random(spec.dimension) + 0.05
            alpha = raw / raw.sum()
            p = int(rng.integers(1, m))
            bias, var = bias_variance_oracle(alpha, spec, m, p)
            ms = moment_sums_from(alpha, spec.widths())
            assert bias_hat(ms, m, p) == pytest.approx(bias, abs=1e-12)
            mc = mse_coefficients(ms, m)
            k2 = (m * (m - 1) * (m - p)) ** 2
            closed = (mc.var2 * p * p + mc.var1 * p + mc.var0) / k2
            assert closed == pytest.approx(var, rel=1e-9, abs=1e-12)

    def test_oracle_size_caps(self):
        with pytest.raises(TooLargeForOracle):
            bias_variance_oracle([1.0], PartitionSpec(1, 0, 1), 11, 1)
        with pytest.raises(TooLargeForOracle):
            bias_variance_oracle([0.25, 0.25, 0.25, 0.25], PartitionSpec(4, 1, 2), 6, 1)


class TestVarianceHatDiagnostic:
    def test_finite_inside_valid_range(self):
        ms = moment_sums_from([0.5, 0.5], [0.5, 0.5])
        phi = phi_coefficients(ms, 6)
        for p in range(1, 6):
            assert math.isfinite(variance_hat(phi, 6, p))

    def test_disagrees_with_enumeration(self):
        # The phi encoding is not the exact distributional variance: for the
        # deterministic single-cell histogram the enumerated variance is 0,
        # while the phi polynomial evaluates to -12 at m=2, p=1.
        phi = phi_coefficients(moment_sums_from([1.0], [1.0]), 2)
        assert variance_hat(phi, 2, 1) == -12.0
        _, var = bias_variance_oracle([1.0], PartitionSpec(1, 0, 1), 2, 1)
        assert var == pytest.approx(0.0, abs=1e-15)

    def test_phi_identity_mse_equals_bias_sq_plus_variance(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            raw = rng.random(d) + 0.05
            alpha = raw / raw.sum()
            omega = rng.random(d) + 0.1
            omega = omega / omega.sum()
            m = int(rng.integers(2, 40))
            ms = moment_sums_from(alpha, omega)
            phi = phi_coefficients(ms, m)
            for p in {1, m - 1}:
                lhs = mse_hat(phi, m, p)
                rhs = bias_hat(ms, m, p) ** 2 + variance_hat(phi, m, p)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_exact_identity_too(self):
        ms = moment_sums_from([0.6, 0.4], [0.25, 0.75])
        m = 17
        mc = mse_coefficients(ms, m)
        for p in (1, 5, m - 1):
            k2 = (m * (m - 1) * (m - p)) ** 2
            var = (mc.var2 * p * p + mc.var1 * p + mc.var0) / k2
            assert mse_hat(mc, m, p) == pytest.approx(bias_hat(ms, m, p) ** 2 + var,
                                                      rel=1e-9)


class TestMseHat:
    def test_pole(self):
        phi = phi_coefficients(moment_sums_from([1.0], [1.0]), 4)
        with pytest.raises(PoleAtM):
            mse_hat(phi, 4, 4.0)

    def test_at_zero(self):
        ms = moment_sums_from([0.5, 0.5], [0.5, 0.5])
        m = 5
        phi = phi_coefficients(ms, m)
        assert mse_hat(phi, m, 0.0) == pytest.approx(phi.phi0 / (m * (m - 1) * m) ** 2,
                                                     rel=1e-12)

    def test_single_cell_numerator_drops_bias_term(self):
        ms = moment_sums_from([1.0], [1.0])
        m = 6
        phi = phi_coefficients(ms, m)
        assert phi.phi3 == 0.0
        x = 2.5
        expected = (phi.phi2 * x * x + phi.phi1 * x + phi.phi0) / (m * (m - 1) * (m - x)) ** 2
        assert mse_hat(phi, m, x) == pytest.approx(expected, rel=1e-12)


class TestSelectP:
    def _grid_argmin(self, coeffs, m):
        values = selection_mse(coeffs, np.arange(1, m))
        return int(np.argmin(values)) + 1, values

    def test_attains_grid_minimum_exact_coeffs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            raw = rng.random(d) + 0.02
            alpha = raw / raw.sum()
            omega = rng.random(d) + 0.1
            omega = omega / omega.sum()
            m = int(rng.integers(2, 200))
            mc = mse_coefficients(moment_sums_from(alpha, omega), m)
            sel = select_p(mc)
            best, values = self._grid_argmin(mc, m)
            assert selection_mse(mc, sel.p_hat) <= values.min() + 1e-12

    def test_attains_grid_minimum_phi_coeffs(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            raw = rng.random(2) + 0.05
            alpha = raw / raw.sum()
            m = int(rng.integers(2, 120))
            phi = phi_coefficients(moment_sums_from(alpha, [0.5, 0.5]), m)
            sel = select_p(phi)
            best, values = self._grid_argmin(phi, m)
            assert selection_mse(phi, sel.p_hat) <= values.min() + 1e-12

    def test_skewed_cells_m100(self):
        mc = mse_coefficients(moment_sums_from([0.9, 0.1], [0.9, 0.1]), 100)
        sel = select_p(mc)
        best, _ = self._grid_argmin(mc, 100)
        assert sel.p_hat == best

    def test_single_cell_flags_p_independence(self):
        mc = mse_coefficients(moment_sums_from([1.0], [1.0]), 9)
        sel = select_p(mc)
        assert sel.p_independent
        assert sel.p_hat == 1  # flat criterion: ties go to the first candidate, p = 1

    def test_exact_variance_never_clamped(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            d = int(rng.integers(1, 5))
            counts = rng.multinomial(int(rng.integers(4, 300)), np.ones(d) / d)
            m = int(counts.sum())
            alpha = counts / m
            omega = rng.random(d) + 0.1
            omega = omega / omega.sum()
            mc = mse_coefficients(moment_sums_from(alpha, omega), m)
            p = np.arange(1, m, dtype=float)
            assert np.all(mc.var2 * p ** 2 + mc.var1 * p + mc.var0 >= 0.0)

    def test_invariant_under_cell_permutation(self):
        rng = np.random.default_rng(13)
        alpha = np.array([0.5, 0.3, 0.2])
        omega = np.array([0.2, 0.5, 0.3])
        m = 1000
        base = select_p(mse_coefficients(moment_sums_from(alpha, omega), m))
        for _ in range(5):
            perm = rng.permutation(3)
            sel = select_p(mse_coefficients(moment_sums_from(alpha[perm], omega[perm]), m))
            assert sel.p_hat == base.p_hat


def _stacked_holdout(coeffs):
    """(p_hat, its selection MSE, x*) by the rule as first written.

    The four candidates are stacked into one array, scored together and
    picked by np.argmin down the stack.  Kept as the oracle for ``_holdout``,
    which scores them one at a time.
    """
    m = coeffs.m
    bias2, v2, v1, v0 = coeffs.mse_parts()
    lin = 2 * (bias2 + v2) * m + v1
    with np.errstate(divide="ignore", invalid="ignore"):
        xstar = np.divide(-(m * v1 + 2 * v0), lin)
    x = np.where(np.isfinite(xstar) & (lin > 0),
                 np.minimum(np.maximum(xstar, 1.0), m - 1.0), 1.0)
    cand = np.empty((4,) + x.shape)
    cand[0] = 1.0
    cand[1] = m - 1.0
    cand[2] = np.floor(x)
    cand[3] = np.ceil(x)
    k2 = (m * (m - 1.0) * (m - cand)) ** 2
    mse = (bias2 * cand ** 2 + np.maximum(v2 * cand ** 2 + v1 * cand + v0, 0.0)) / k2
    pick = mse.argmin(axis=0)[np.newaxis]
    return (np.take_along_axis(cand, pick, axis=0)[0],
            np.take_along_axis(mse, pick, axis=0)[0], xstar)


def _holdout_rows(m, rng):
    """Coefficient rows (bias2, var2, var1, var0) that exercise every branch."""
    rows = []
    for _ in range(40):        # plug-in coefficients of random partitions
        d = int(rng.integers(1, 6))
        alpha = rng.dirichlet(np.ones(d))
        omega = rng.dirichlet(np.ones(d))
        mc = mse_coefficients(moment_sums_from(alpha, omega), m)
        rows.append(mc.mse_parts())
    for _ in range(40):        # arbitrary signs and scales, lin <= 0 included
        rows.append(tuple(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 12, 4)))
    # x* exactly at 1, at m - 1, at an integer between and halfway between
    for target in (1.0, m - 1.0, float(max(1, m // 2)), max(1, m // 2) + 0.5, 0.25, 2.0 * m):
        bias2, v2, v1 = 3.0, 5.0, -7.0
        lin = 2 * (bias2 + v2) * m + v1
        rows.append((bias2, v2, v1, -(target * lin + m * v1) / 2))
    # exact ties: every candidate's MSE is 0, or inf, or equal by symmetry
    rows += [(0.0, -1.0, -1.0, -1.0), (0.0, 0.0, 0.0, 0.0), (np.inf, 1.0, 1.0, 1.0),
             (0.0, 0.0, 0.0, 1.0), (1.0, -1.0, 0.0, 0.0)]
    # non-finite entries in each field
    for field in range(4):
        for bad in (np.nan, np.inf, -np.inf):
            row = [2.0, 3.0, -50.0, 100.0]
            row[field] = bad
            rows.append(tuple(row))
    rows += [(np.inf, -np.inf, 0.0, 0.0), (np.nan, np.nan, np.nan, np.nan),
             (0.0, np.inf, -np.inf, 0.0), (0.0, 0.0, np.inf, -np.inf)]
    rows.append(_first_nan_row(m))
    return np.array(rows, dtype=float)


def _first_nan_row(m):
    """A row whose MSE is 0 at p = 1 and NaN at p = m - 1, floor(x*) and
    ceil(x*) (bias2 p^2 and var2 p^2 overflow to -inf and inf there), with
    x* = 0.75 m; np.argmin takes the first NaN, p = m - 1."""
    big = 10 * (1e308 / m ** 2)
    return (-big, big, 1.0, -(0.75 * m + m) / 2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # rows hold inf - inf on purpose
class TestHoldoutAgainstStackedRule:
    @pytest.mark.parametrize("m", [2, 3, 50, 1000, 100_000])
    def test_family_arrays_match_bit_for_bit(self, m):
        rows = _holdout_rows(m, np.random.default_rng(m))
        coeffs = MseCoefficients(m, *rows.T)
        p_hat, mse, xstar = _holdout(coeffs)
        want_p, want_mse, want_x = _stacked_holdout(coeffs)
        assert p_hat.tobytes() == want_p.tobytes()
        np.testing.assert_array_equal(mse, want_mse)
        np.testing.assert_array_equal(xstar, want_x)
        np.testing.assert_array_equal(mse, selection_mse(coeffs, p_hat))

    @pytest.mark.parametrize("m", [2, 3, 50, 1000, 100_000])
    def test_scalar_select_p_agrees(self, m):
        rows = _holdout_rows(m, np.random.default_rng(m))
        want_p, _, want_x = _stacked_holdout(MseCoefficients(m, *rows.T))
        for row, p, x in zip(rows, want_p, want_x):
            sel = select_p(MseCoefficients(m, *map(float, row)))
            assert sel.p_hat == int(p)
            assert sel.p_real == (float(x) if np.isfinite(x) else None)

    def test_rows_reach_every_candidate(self):
        m = 1000
        rows = _holdout_rows(m, np.random.default_rng(m))
        p_hat, _, _ = _stacked_holdout(MseCoefficients(m, *rows.T))
        assert {1.0, m - 1.0} <= set(p_hat.tolist())
        assert np.any((p_hat > 1) & (p_hat < m - 1))

    @pytest.mark.parametrize("m", [50, 1000, 100_000])
    def test_first_nan_wins(self, m):
        row = _first_nan_row(m)
        coeffs = MseCoefficients(m, *np.array([row]).T)
        p_hat, mse, _ = _stacked_holdout(coeffs)
        assert p_hat[0] == m - 1 and np.isnan(mse[0])
        assert _holdout(coeffs)[0][0] == m - 1
        assert select_p(MseCoefficients(m, *row)).p_hat == m - 1


class TestAsymptoticBehaviour:
    def test_critical_point_fraction_settles_and_scaled_mse_bounded(self):
        ms = moment_sums_from([0.6, 0.4], [0.5, 0.5])
        sizes = [100, 1000, 10_000, 100_000]
        fractions = []
        scaled = []
        for m in sizes:
            mc = mse_coefficients(ms, m)
            sel = select_p(mc)
            assert sel.p_real is not None
            fractions.append(sel.p_real / m)
            scaled.append(m * mse_hat(mc, m, 1.0))
        diffs = [abs(b - a) for a, b in zip(fractions, fractions[1:])]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        assert max(map(abs, scaled)) < 10 * max(abs(scaled[-1]), 1e-12)


class TestEvaluatePartition:
    def test_fixed_p(self):
        spec = PartitionSpec(2, 0, 1)
        sample = _sample_with_counts([3, 1], spec)
        ev = evaluate_partition(sample, spec, fix_p=1)
        assert ev.p_hat == 1
        assert ev.risk == pytest.approx(-2 / 3, abs=1e-12)

    def test_adaptive_p_consistent_with_select_p(self):
        rng = np.random.default_rng(21)
        sample = load_sample(rng.random(40))
        spec = PartitionSpec(5, 1, 4)
        ev = evaluate_partition(sample, spec)
        counts = bin_counts(grid_prefix(sample, 5), spec)
        sel = select_p(mse_coefficients(moment_sums(counts, spec), 40))
        assert ev.p_hat == sel.p_hat
        assert ev.risk == pytest.approx(lpo_risk(counts, spec, sel.p_hat), abs=1e-14)

    def test_diagnostics_record(self):
        rng = np.random.default_rng(22)
        sample = load_sample(rng.random(25))
        rec = partition_diagnostics(sample, PartitionSpec(3, 1, 3))
        for key in ("N", "k", "l", "s11", "s21", "s31", "s12", "s22", "s32",
                    "phi0", "phi1", "phi2", "phi3", "p_hat", "p_real", "risk"):
            assert key in rec
        assert rec["N"] == 3 and rec["k"] == 1 and rec["l"] == 3
