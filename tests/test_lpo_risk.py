import functools
import math
import types
from fractions import Fraction

import numpy as np
import pytest

from pi0cv.errors import InvalidP
from pi0cv.histogram_core import (
    BinCounts,
    PartitionSpec,
    bin_counts,
    enumerate_partitions,
    grid_prefix,
    load_sample,
)
from pi0cv.lpo_risk import (
    MseCoefficients,
    _mse_polynomial,
    _risk_from_sums,
    grid_diagnostics,
    lpo_risk,
    moment_sums,
    moment_sums_from,
    mse_coefficients,
    partition_diagnostics,
    phi_coefficients,
    select_p,
    selection_mse,
)

from reference import (
    PoleAtM,
    TooLargeForOracle,
    bias_hat,
    bias_variance_oracle,
    full_family,
    lpo_risk_oracle,
    mse_hat,
    sample_with_counts,
    variance_hat,
)


def _counts(counts, total):
    return BinCounts(counts=np.asarray(counts), total=total)


def test_import_yields_the_module():
    # the package does not re-export the function lpo_risk over its module
    import pi0cv.lpo_risk as module

    assert isinstance(module, types.ModuleType)
    assert module.lpo_risk is lpo_risk


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
        sample = sample_with_counts([3, 1], spec)
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

    def test_skewed_cells_m100(self):
        mc = mse_coefficients(moment_sums_from([0.9, 0.1], [0.9, 0.1]), 100)
        sel = select_p(mc)
        best, _ = self._grid_argmin(mc, 100)
        assert sel.p_hat == best

    def test_single_cell_flags_p_independence(self):
        # all mass in one cell: the exact coefficients are all 0, so x* is 0/0
        # however the float ones round; the widths 1/4 + 3/4 and 0.3 + 0.4 +
        # 0.3 leave noise in them
        for omega in ([1.0], [0.25, 0.75], [0.3, 0.4, 0.3]):
            alpha = [float(w == max(omega)) for w in omega]
            for m in (3, 9, 20, 1000):
                sel = select_p(mse_coefficients(moment_sums_from(alpha, omega), m))
                assert sel.p_independent
                assert sel.p_hat == 1  # flat criterion: p = 1
                assert sel.p_real is None, (omega, m)
        # the search's record of such a partition, as risk-debug prints it
        rec = partition_diagnostics(load_sample(np.full(20, 0.5)), PartitionSpec(4, 0, 3))
        assert (rec["p_hat"], rec["p_real"]) == (1, None)

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


def _mixture(m):
    """m p-values, 80% uniform and 20% Beta(1, 20)."""
    rng = np.random.default_rng(m)
    return load_sample(np.where(rng.random(m) < 0.8, rng.random(m), rng.beta(1, 20, m)))


def _exact(sample, spec):
    """The exact reference for one partition, in rational arithmetic: its
    MSE coefficients (from moment sums over exact cell masses and widths),
    x* (None where lin == 0), whether lin > 0, and the integer argmin of the
    selection MSE over 1..m-1 with the risk there."""
    m = sample.m
    widths = [Fraction(1, spec.n)] * spec.dimension
    widths[spec.k] = Fraction(spec.l - spec.k, spec.n)
    counts = bin_counts(grid_prefix(sample, spec.n), spec).counts
    cells = [(Fraction(int(c), m), w) for c, w in zip(counts, widths) if c]
    s = {(i, j): sum(a ** i / w ** j for a, w in cells) for i in (1, 2, 3) for j in (1, 2)}
    coeffs = _mse_polynomial(m, s[1, 1], s[2, 1], s[1, 2], s[2, 2], s[3, 2])
    lin = 2 * (coeffs.bias2 + coeffs.var2) * m + coeffs.var1
    xstar = -(m * coeffs.var1 + 2 * coeffs.var0) / lin if lin else None
    # the argmin is one of these candidates (module docstring); ties go to
    # the first, so a flat criterion gives p = 1
    cands = [1, m - 1]
    if lin > 0:
        a = math.floor(min(max(xstar, 1), m - 1))
        cands += [a, min(a + 1, m - 1)]
    mse = [_exact_mse(coeffs, p) for p in cands]
    p = cands[mse.index(min(mse))]
    return coeffs, xstar, lin > 0, p, _risk_from_sums(s[1, 1], s[2, 1], m, p)


def _exact_mse(coeffs, p):
    """The selection MSE at integer p times (m(m-1))^2, exactly."""
    var = coeffs.var2 * p * p + coeffs.var1 * p + coeffs.var0
    return (coeffs.bias2 * p * p + max(var, 0)) / (coeffs.m - p) ** 2


REFERENCE_M = [2, 3, 50, 1000, 100_000, 1_000_000]
# The float64 MSE coefficients cancel terms of order m^5, so x* (p_real) is
# only as accurate as this: about twice the largest relative error measured
# on these rows, over the search's and the fsum chain's x*.
P_REAL_REL = {2: 5e-15, 3: 1e-14, 50: 3e-11, 1000: 7e-10, 100_000: 2e-9, 1_000_000: 1e-8}
RISK_REL = 1e-14


@functools.lru_cache(maxsize=None)
def _reference_rows(m):
    """``_mixture(m)`` and (spec, risk-debug record, exact reference) for
    partitions of its grids 1..50: random ones, single-cell ones, ones whose
    MSE has no minimum, ones whose x* is clipped to 1 or m - 1, and interior
    ones whose x* lies nearest an integer or the floor/ceil threshold."""
    sample = _mixture(m)
    records = [rec for n in range(1, 51) for rec in grid_diagnostics(sample, n)]
    col = {f: np.array([r[f] for r in records], dtype=float)
           for f in ("s11", "s21", "s12", "s22", "s32", "p_real")}
    coeffs = _mse_polynomial(m, col["s11"], col["s21"], col["s12"], col["s22"], col["s32"])
    lin = 2 * (coeffs.bias2 + coeffs.var2) * m + coeffs.var1
    x = col["p_real"]       # NaN where None
    flat = coeffs.bias2 == 0
    interior = (lin > 0) & (x > 1) & (x < m - 1) & ~flat
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.floor(x)
        u = m - a
        to_integer = np.where(interior, np.abs(x - np.round(x)) / x, np.inf)
        to_threshold = np.where(interior, np.abs(x - a - u / (2 * u - 1)) / x, np.inf)
    rng = np.random.default_rng(m)
    picks = [rng.choice(len(records), 12, replace=False)]
    for case in (flat, (lin <= 0) & ~flat, (lin > 0) & ~interior & ~flat):
        where = np.flatnonzero(case)
        picks.append(rng.choice(where, min(5, where.size), replace=False))
    picks += [np.argsort(to_integer)[:min(6, interior.sum())],
              np.argsort(to_threshold)[:min(6, interior.sum())]]
    rows = []
    for j in dict.fromkeys(np.concatenate(picks).tolist()):
        spec = PartitionSpec(records[j]["N"], records[j]["k"], records[j]["l"])
        rows.append((spec, records[j], _exact(sample, spec)))
    return sample, rows


class TestHoldoutAgainstExactReference:
    @pytest.mark.parametrize("m", REFERENCE_M)
    def test_search_holdout_is_the_exact_argmin(self, m):
        for spec, rec, (_, _, _, p, risk) in _reference_rows(m)[1]:
            assert rec["p_hat"] == p, spec
            assert rec["risk"] == pytest.approx(float(risk), rel=RISK_REL, abs=RISK_REL)

    @pytest.mark.parametrize("m", REFERENCE_M)
    def test_select_p_is_the_exact_argmin(self, m):
        sample, rows = _reference_rows(m)
        for spec, _, (_, _, _, p, _) in rows:
            counts = bin_counts(grid_prefix(sample, spec.n), spec)
            assert select_p(mse_coefficients(moment_sums(counts, spec), m)).p_hat == p, spec

    @pytest.mark.parametrize("m", REFERENCE_M)
    def test_p_real_within_measured_bound(self, m):
        sample, rows = _reference_rows(m)
        for spec, rec, (_, xstar, _, _, _) in rows:
            if xstar is None:       # lin == 0: the single-cell rows
                continue
            counts = bin_counts(grid_prefix(sample, spec.n), spec)
            fsum = select_p(mse_coefficients(moment_sums(counts, spec), m)).p_real
            for got in (rec["p_real"], fsum):
                assert abs(got - xstar) <= P_REAL_REL[m] * abs(xstar), spec

    @pytest.mark.parametrize("m", [2, 3, 50, 1000])
    def test_candidates_hold_the_exact_argmin(self, m):
        for spec, _, (coeffs, _, _, p, _) in _reference_rows(m)[1]:
            mse = [_exact_mse(coeffs, q) for q in range(1, m)]
            assert mse.index(min(mse)) + 1 == p, spec

    def test_ends_compared_where_the_mse_has_no_minimum(self):
        # the sampled partitions never take p = m - 1 for m > 2; with the
        # variance c (m - 1 - p) >= 0 on [1, m - 1], lin < 0, and a small
        # enough bias, that end wins
        m, c = 10, 1000.0
        for bias2, want in ((1.0, m - 1), (2.0, 1)):
            coeffs = MseCoefficients(m, bias2, 0.0, -c, (m - 1) * c)
            exact = MseCoefficients(m, *map(Fraction, coeffs.mse_parts()))
            mse = [_exact_mse(exact, p) for p in range(1, m)]
            assert mse.index(min(mse)) + 1 == want
            assert select_p(coeffs).p_hat == want

    def test_rows_reach_every_case(self):
        cases = set()
        for m in REFERENCE_M:
            for spec, _, (coeffs, xstar, minimum, p, _) in _reference_rows(m)[1]:
                if coeffs.bias2 == 0:
                    cases.add("flat")
                elif not minimum:
                    cases.add("no minimum")
                elif not 1 < xstar < m - 1:
                    cases.add("clipped")
                else:
                    cases.add("ceil" if p > xstar else "floor")
        assert cases == {"flat", "no minimum", "clipped", "ceil", "floor"}


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


class TestPartitionDiagnostics:
    def test_adaptive_p_consistent_with_select_p(self):
        rng = np.random.default_rng(21)
        sample = load_sample(rng.random(40))
        spec = PartitionSpec(5, 1, 4)
        rec = partition_diagnostics(sample, spec)
        counts = bin_counts(grid_prefix(sample, 5), spec)
        sel = select_p(mse_coefficients(moment_sums(counts, spec), 40))
        assert rec["p_hat"] == sel.p_hat
        assert rec["risk"] == pytest.approx(lpo_risk(counts, spec, sel.p_hat), abs=1e-14)

    def test_diagnostics_record(self):
        rng = np.random.default_rng(22)
        sample = load_sample(rng.random(25))
        rec = partition_diagnostics(sample, PartitionSpec(3, 1, 3))
        for key in ("N", "k", "l", "s11", "s21", "s31", "s12", "s22", "s32",
                    "phi0", "phi1", "phi2", "phi3", "p_hat", "p_real", "risk"):
            assert key in rec
        assert rec["N"] == 3 and rec["k"] == 1 and rec["l"] == 3

    def test_grid_records_carry_the_search_values_bit_for_bit(self):
        from pi0cv.pi0_estimator import _scan, _tables

        rng = np.random.default_rng(23)
        sample = load_sample(np.where(rng.random(1000) < 0.8, rng.random(1000),
                                      rng.beta(1, 20, 1000)))
        tab = _tables(1, 100)
        full = full_family(sample, tab, adaptive_p=True)
        records = [rec for n in range(1, 101) for rec in grid_diagnostics(sample, n)]
        assert [(r["N"], r["k"], r["l"]) for r in records] == \
               [(spec.n, spec.k, spec.l) for spec in enumerate_partitions(1, 100)]
        # the family's row of each record, paired by (N, k, l)
        row = {key: j for j, key in enumerate(zip(tab.N.tolist(), tab.K.tolist(), tab.L.tolist()))}
        pos = np.array([row[r["N"], r["k"], r["l"]] for r in records])
        assert np.array_equal(np.array([r["p_hat"] for r in records], dtype=float), full.p_hat[pos])
        # compared as integers, so NaN payloads and signed zeros count
        risk = np.array([r["risk"] for r in records])
        assert np.array_equal(risk.view(np.int64), full.risk[pos].view(np.int64))
        # the search's scan is R_1
        assert np.array_equal(_scan(sample, tab)[0].view(np.int64), full.loo.view(np.int64))
