import numpy as np
import pytest

from pi0cv.errors import DegenerateSelection, InvalidLambda, InvalidRange
from pi0cv.histogram_core import PartitionSpec, bin_counts, grid_prefix, load_sample
from pi0cv.lpo_risk import lpo_risk, moment_sums, mse_coefficients, select_p
from pi0cv.pi0_estimator import (
    EstimatorConfig,
    Pi0Estimate,
    estimate_json_dict,
    estimate_pi0,
    ss_estimator,
    storey_estimator,
)
from pi0cv.sim_harness import ScenarioSpec, replicate_rng, sample_trunc_beta

from reference import consistency_probe, full_family, histogram_heights


def _fsum_risk(sample, spec, p=None):
    """Risk of one partition through the fsum moment-sum chain, an
    implementation independent of the search's prefix sums; at p, or at the
    holdout ``select_p`` picks."""
    counts = bin_counts(grid_prefix(sample, spec.n), spec)
    if p is None:
        p = select_p(mse_coefficients(moment_sums(counts, spec), sample.m)).p_hat
    return lpo_risk(counts, spec, p)


class TestEstimateFixtures:
    def test_evenly_spread_points_read_one(self):
        # every candidate's central cell has height exactly 1
        sample = load_sample([0.125, 0.375, 0.625, 0.875])
        est = estimate_pi0(sample, EstimatorConfig(n_max=2))
        assert est.pi0_raw == 1.0
        assert est.pi0 == 1.0

    def test_lower_half_mass_selects_empty_upper_cell(self):
        sample = load_sample([0.1, 0.2, 0.3, 0.4])
        est = estimate_pi0(sample, EstimatorConfig(n_max=2))
        assert est.pi0_raw == 0.0
        assert est.pi0 == 0.25          # clamped to 1/m
        assert (est.n_hat, est.lambda_hat, est.mu_hat) == (2, 0.5, 1.0)

    def test_lower_half_selection_confirmed_by_exhaustive_scoring(self):
        # score all four candidates directly; two tie at the minimum and the
        # tie-break keeps the one whose central cell sits to the right
        sample = load_sample([0.1, 0.2, 0.3, 0.4])
        scored = {}
        for spec in [PartitionSpec(1, 0, 1), PartitionSpec(2, 0, 1),
                     PartitionSpec(2, 0, 2), PartitionSpec(2, 1, 2)]:
            scored[(spec.n, spec.k, spec.l)] = _fsum_risk(sample, spec)
        assert scored[(1, 0, 1)] == -1.0
        assert scored[(2, 0, 2)] == -1.0
        assert scored[(2, 0, 1)] == -2.0
        assert scored[(2, 1, 2)] == -2.0
        est = estimate_pi0(sample, EstimatorConfig(n_max=2))
        assert (est.n_hat, est.lambda_hat, est.mu_hat) == (2, 0.5, 1.0)

    def test_trunc_beta_single_replicate_near_truth(self):
        # 3 Monte-Carlo standard deviations of the replicated study
        sample, _ = sample_trunc_beta(0.9, 4.0, 0.2, 1000, replicate_rng(20250808, 0))
        est = estimate_pi0(sample)
        assert abs(est.pi0 - 0.9) <= 3 * 0.025

    def test_degenerate_scan_raises(self, monkeypatch):
        import pi0cv.pi0_estimator as mod

        def broken_scan(sample, tab):
            return np.full(tab.N.size, np.nan), None

        monkeypatch.setattr(mod, "_scan", broken_scan)
        with pytest.raises(DegenerateSelection,
                           match=r"^no partition with N in \[1, 3\] has a finite risk$"):
            estimate_pi0(load_sample([0.2, 0.4, 0.6]), EstimatorConfig(n_max=3))


class TestEstimateProperties:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(42)
        raw = rng.random(300)
        base = estimate_pi0(load_sample(raw), EstimatorConfig(n_max=40))
        for _ in range(3):
            rng.shuffle(raw)
            est = estimate_pi0(load_sample(raw), EstimatorConfig(n_max=40))
            assert est == base

    def test_winning_risk_never_above_single_cell_risk(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            m = int(rng.integers(20, 300))
            sample = load_sample(rng.random(m) ** float(rng.random() * 2 + 0.5))
            est = estimate_pi0(sample, EstimatorConfig(n_max=30))
            single = _fsum_risk(sample, PartitionSpec(1, 0, 1))
            assert est.risk <= single + 1e-12
            assert single == -1.0

    def test_loo_equals_lpo_when_every_partition_selects_p1(self):
        # when the adaptive holdout choice lands on 1 for the whole family,
        # the two methods score identical landscapes
        from pi0cv.histogram_core import enumerate_partitions

        rng = np.random.default_rng(44)
        checked = 0
        for _ in range(30):
            sample = load_sample(rng.random(int(rng.integers(10, 25))))
            all_one = True
            for spec in enumerate_partitions(1, 6):
                counts = bin_counts(grid_prefix(sample, spec.n), spec)
                sel = select_p(mse_coefficients(moment_sums(counts, spec), sample.m))
                if sel.p_hat != 1:
                    all_one = False
                    break
            if not all_one:
                continue
            lpo = estimate_pi0(sample, EstimatorConfig(n_max=6, method="lpo"))
            loo = estimate_pi0(sample, EstimatorConfig(n_max=6, method="loo"))
            assert (loo.pi0, loo.lambda_hat, loo.mu_hat, loo.n_hat, loo.risk) == \
                   (lpo.pi0, lpo.lambda_hat, lpo.mu_hat, lpo.n_hat, lpo.risk)
            checked += 1
        assert checked > 0

    def test_loo_scan_matches_scalar_scoring(self):
        # the vectorised method=loo path reproduces per-partition p = 1
        # scores and the band selection applied to them
        from pi0cv.histogram_core import enumerate_partitions
        from pi0cv.lpo_risk import selection_mse

        rng = np.random.default_rng(45)
        sample = load_sample(rng.random(80))
        n_max = 8
        rows = []
        for spec in enumerate_partitions(1, n_max):
            counts = bin_counts(grid_prefix(sample, spec.n), spec)
            mc = mse_coefficients(moment_sums(counts, spec), sample.m)
            rows.append((spec, _fsum_risk(sample, spec, 1), float(selection_mse(mc, 1))))
        risks = np.array([r for _, r, _ in rows])
        jmin = min(range(len(rows)),
                   key=lambda i: (risks[i], rows[i][0].n, rows[i][0].dimension,
                                  -rows[i][0].central_width, -rows[i][0].k))
        band = risks[jmin] + 0.25 * np.sqrt(max(rows[jmin][2], 0.0))
        in_band = [i for i in range(len(rows)) if risks[i] <= band]
        jwin = min(in_band, key=lambda i: (rows[i][0].n, rows[i][0].dimension,
                                           -rows[i][0].central_width, -rows[i][0].k))
        spec = rows[jwin][0]
        est = estimate_pi0(sample, EstimatorConfig(n_max=n_max, method="loo"))
        assert (est.n_hat, est.lambda_hat, est.mu_hat) == (spec.n, spec.lam, spec.mu)
        assert est.risk == pytest.approx(rows[jwin][1], abs=1e-12)

    def test_estimate_equals_central_cell_height_exactly(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            sample = load_sample(rng.random(200))
            est = estimate_pi0(sample, EstimatorConfig(n_max=30))
            spec = PartitionSpec(est.n_hat, round(est.lambda_hat * est.n_hat),
                                 round(est.mu_hat * est.n_hat))
            heights = histogram_heights(bin_counts(grid_prefix(sample, spec.n), spec), spec)
            assert est.pi0_raw == heights[spec.k]

    def test_fixed_partition_monotonicity_in_central_mass(self):
        # adding points inside the selected central interval cannot lower the
        # recomputed height of that same partition
        rng = np.random.default_rng(46)
        sample = load_sample(rng.random(150))
        est = estimate_pi0(sample, EstimatorConfig(n_max=20))
        spec = PartitionSpec(est.n_hat, round(est.lambda_hat * est.n_hat),
                             round(est.mu_hat * est.n_hat))
        inside = est.lambda_hat + (est.mu_hat - est.lambda_hat) * np.array([0.25, 0.5, 0.75])
        grown = load_sample(np.concatenate([sample.values, inside]))
        before = histogram_heights(bin_counts(grid_prefix(sample, spec.n), spec), spec)
        after = histogram_heights(bin_counts(grid_prefix(grown, spec.n), spec), spec)
        assert after[spec.k] >= before[spec.k]

    def test_pure_argmin_mode_available(self):
        rng = np.random.default_rng(47)
        sample = load_sample(rng.random(100))
        est = estimate_pi0(sample, EstimatorConfig(n_max=15, se_band=0.0))
        # with no band the winner attains the global minimum over the family
        best = min(_fsum_risk(sample, spec)
                   for spec in __import__("pi0cv").enumerate_partitions(1, 15))
        assert est.risk == pytest.approx(best, abs=1e-9)

    def test_vectorised_scan_matches_scalar_ops_per_partition(self):
        # the fast path must agree with the contract operations partition by
        # partition: holdout choice, risk at that holdout, central count
        from pi0cv.histogram_core import enumerate_partitions
        from pi0cv.lpo_risk import selection_mse
        from pi0cv.pi0_estimator import _rescore, _scan, _tables

        rng = np.random.default_rng(48)
        sample = load_sample(rng.random(60) ** 1.3)
        tab = _tables(1, 10)
        # the scan keeps R_1 only; the kernel scores every partition alone
        # from the scan's sums
        _, sums = _scan(sample, tab)
        cc, phat, risk = np.array([_rescore("lpo", sample.m, sums, tab, j)[:3]
                                   for j in range(tab.N.size)]).T
        row = {key: j for j, key in enumerate(zip(tab.N.tolist(), tab.K.tolist(), tab.L.tolist()))}
        for spec in enumerate_partitions(1, 10):
            idx = row[spec.n, spec.k, spec.l]
            counts = bin_counts(grid_prefix(sample, spec.n), spec)
            mc = mse_coefficients(moment_sums(counts, spec), sample.m)
            sel = select_p(mc)
            scan_mse = float(selection_mse(mc, phat[idx]))
            scalar_mse = float(selection_mse(mc, sel.p_hat))
            # the scan may land on a neighbouring integer when the criterion is
            # flat to rounding; the attained MSE must match the grid optimum
            assert scan_mse <= scalar_mse * (1 + 1e-9) + 1e-18
            assert risk[idx] == pytest.approx(
                lpo_risk(counts, spec, int(phat[idx])), rel=1e-12, abs=1e-12)
            assert cc[idx] == counts.counts[spec.k]

    def test_smallest_samples_and_constant_values(self):
        est = estimate_pi0(load_sample([0.25, 0.75]), EstimatorConfig(n_max=5))
        assert 0.5 <= est.pi0 <= 1.0
        est = estimate_pi0(load_sample([0.5] * 10), EstimatorConfig(n_max=5))
        assert np.isfinite(est.pi0)
        est = estimate_pi0(load_sample([1.0] * 10), EstimatorConfig(n_max=5))
        assert np.isfinite(est.pi0)

    def test_restricted_grid_range(self):
        rng = np.random.default_rng(49)
        est = estimate_pi0(load_sample(rng.random(200)), EstimatorConfig(n_min=3, n_max=5))
        assert 3 <= est.n_hat <= 5


def _lexsort_selection(tab, risk, mse_at_p, se_band):
    """Index of the selected partition by a lexsort over the whole family,
    with the SE read from the family's selection MSE ``mse_at_p``.

    This is the selection as first written, kept as the oracle for
    ``estimate_pi0``, which stores the family in this order, takes the first
    index that qualifies and re-scores the argmin partition alone for its SE.
    """
    risk = np.where(np.isfinite(risk), risk, np.inf)
    dim = tab.N + 1 - (tab.L - tab.K)
    order = np.lexsort((-tab.K, -tab.W, dim, tab.N, risk))
    jmin = order[0]
    if se_band == 0.0:
        return jmin
    se = float(np.sqrt(max(mse_at_p[jmin], 0.0)))
    if not np.isfinite(se):
        se = 0.0
    sel = np.nonzero(risk <= risk[jmin] + se_band * se)[0]
    return sel[np.lexsort((-tab.K[sel], -tab.W[sel], dim[sel], tab.N[sel]))[0]]


def _selection_samples():
    rng = np.random.default_rng(61)
    mixture = np.where(rng.random(1000) < 0.8, rng.random(1000), rng.beta(1, 20, 1000))
    return {
        "uniform": rng.random(500),
        "mixture": mixture,
        "rounded1": np.round(mixture, 1),
        "rounded2": np.round(mixture, 2),
        "constant": np.full(50, 0.5),
        "zeros_ones": np.repeat([0.0, 1.0], 10),
        "m2": rng.random(2),
        "m3": rng.random(3),
        "m3_tied": np.array([0.25, 0.25, 0.75]),
    }


class TestSelectionOracle:
    def _check(self, sample, method, se_bands, holes=()):
        """estimate_pi0 at each of ``se_bands`` against the lexsort selection
        over the unpruned family, whose risks at the indices ``holes`` are
        replaced by the paired values."""
        from pi0cv.pi0_estimator import _tables

        tab = _tables(1, 100)
        full = full_family(sample, tab, method == "lpo")
        risk = full.risk.copy()
        for j, value in holes:
            risk[j] = value
        for se_band in se_bands:
            j = _lexsort_selection(tab, risk, full.mse, se_band)
            est = estimate_pi0(sample, EstimatorConfig(method=method, se_band=se_band))
            assert (est.n_hat, est.lambda_hat, est.mu_hat) == \
                   (tab.N[j], tab.K[j] / tab.N[j], tab.L[j] / tab.N[j])
            assert est.p_hat == int(full.p_hat[j])
            assert est.risk == float(risk[j])
            assert est.pi0_raw == full.cc[j] / (sample.m * tab.W[j])
            assert np.isfinite(est.risk)
        return full

    @pytest.mark.parametrize("se_band", [0.0, 0.25])
    @pytest.mark.parametrize("method", ["lpo", "loo"])
    @pytest.mark.parametrize("name", sorted(_selection_samples()))
    def test_matches_full_lexsort(self, name, method, se_band):
        self._check(load_sample(_selection_samples()[name]), method, (se_band,))

    @pytest.mark.parametrize("se_band", [0.0, 0.25])
    def test_non_finite_risks_are_ignored(self, monkeypatch, se_band):
        # the kernel returns NaN or an infinity for the true argmin and a
        # spread of other partitions, at p = 1 and at their holdout alike
        import pi0cv.pi0_estimator as mod

        real_score = mod._score
        tab = mod._tables(1, 100)
        keys = tab.idx_k * 2**20 + tab.idx_l        # one per partition
        order = np.argsort(keys)
        rng = np.random.default_rng(62)
        raw = np.where(rng.random(1000) < 0.7, rng.random(1000), rng.beta(1, 10, 1000))
        for method in ("lpo", "loo"):
            # a sample of its own, so this method's holes reach its scan
            sample = load_sample(raw)
            hole = np.zeros(tab.N.size)
            best = np.argsort(full_family(sample, tab, method == "lpo").risk, kind="stable")[:3]
            hole[best] = [np.nan, -np.inf, np.inf]
            hole[::7] = np.nan
            hole[3::11] = -np.inf
            hole[5::13] = np.inf

            def score_with_holes(m, sums, ik, il, *args, **kwargs):
                *rest, risk = real_score(m, sums, ik, il, *args, **kwargs)
                h = hole[order[np.searchsorted(keys[order], ik * 2**20 + il)]]
                return (*rest, np.where(h == 0, risk, h))

            monkeypatch.setattr(mod, "_score", score_with_holes)
            spoiled = np.flatnonzero(hole)
            self._check(sample, method, (se_band,), zip(spoiled, hole[spoiled]))

    def test_non_finite_holdout_risks_are_ignored(self, monkeypatch):
        # the kernel returns NaN or an infinity at the holdout, and a finite
        # R_1, for the three best partitions, R_1's argmin among them
        import pi0cv.pi0_estimator as mod

        real_score = mod._score
        tab = mod._tables(1, 100)
        keys = tab.idx_k * 2**20 + tab.idx_l        # one per partition
        order = np.argsort(keys)
        rng = np.random.default_rng(62)
        sample = load_sample(np.where(rng.random(1000) < 0.7, rng.random(1000),
                                      rng.beta(1, 10, 1000)))
        full = full_family(sample, tab, True)
        best = np.argsort(full.risk, kind="stable")[:3]
        assert np.argmin(full.loo) in best
        hole = np.zeros(tab.N.size)
        hole[best] = [np.nan, -np.inf, np.inf]

        def score_with_holes(m, sums, ik, il, *args, adaptive_p):
            *rest, risk = real_score(m, sums, ik, il, *args, adaptive_p=adaptive_p)
            if not adaptive_p:
                return (*rest, risk)
            h = hole[order[np.searchsorted(keys[order], ik * 2**20 + il)]]
            return (*rest, np.where(h == 0, risk, h))

        monkeypatch.setattr(mod, "_score", score_with_holes)
        self._check(sample, "lpo", (0.0, 0.25), zip(best, hole[best]))

    def test_generated_samples_match_full_lexsort(self):
        # the pruned search against the unpruned family on samples with
        # values on grid edges, ties, all mass at 0 or 1, and m = 2 or 3
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        from pi0cv.pi0_estimator import _tables

        tab = _tables(1, 100)
        edge = st.integers(1, 100).flatmap(lambda n: st.integers(0, n).map(lambda k: k / n))
        value = st.one_of(edge, st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))
        samples = st.one_of(
            st.lists(value, min_size=2, max_size=3),
            st.lists(value, min_size=2, max_size=400),
            st.lists(edge, min_size=1, max_size=4).flatmap(
                lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=400)),
            st.tuples(st.integers(0, 60), st.integers(0, 60)).filter(lambda ab: sum(ab) >= 2)
              .map(lambda ab: [0.0] * ab[0] + [1.0] * ab[1]),
        )

        @hypothesis.settings(max_examples=20, deadline=None)
        @hypothesis.given(samples)
        def check(raw):
            sample = load_sample(raw)
            full = self._check(sample, "lpo", (0.0, 0.25, 1.0))
            assert (full.loo - full.risk).max() <= tab.margin
            self._check(sample, "loo", (0.0, 0.25, 1.0))

        check()

    @pytest.mark.parametrize("method", ["lpo", "loo"])
    def test_million_values_match_full_lexsort(self, method):
        rng = np.random.default_rng(67)
        sample = load_sample(np.where(rng.random(1_000_000) < 0.9, rng.random(1_000_000),
                                      rng.beta(1, 50, 1_000_000)))
        self._check(sample, method, (0.0, 0.25, 1.0))

    def test_loo_risk_is_a_lower_bound_within_the_margin(self):
        # R_p - R_1 = m (s11 - s21) (p - 1) / ((m - 1)^2 (m - p)) >= 0; the
        # computed values may break it only by rounding, within the margin
        from pi0cv.pi0_estimator import _tables

        tab = _tables(1, 100)
        rng = np.random.default_rng(68)
        samples = dict(_selection_samples(), m1000000=rng.random(1_000_000) ** 3)
        for name, raw in samples.items():
            full = full_family(load_sample(raw), tab, True)
            assert (full.loo - full.risk).max() <= tab.margin, name

    @pytest.mark.parametrize("m", [1_000, 100_000])
    def test_loo_risk_is_a_lower_bound_on_discrete_samples(self, m):
        # the same bound where exact ties and one-cell partitions abound:
        # permutation-test lattices and rounded values
        from pi0cv.pi0_estimator import _tables

        tab = _tables(1, 100)
        rng = np.random.default_rng(69)
        mixture = np.where(rng.random(m) < 0.8, rng.random(m), rng.beta(1, 20, m))
        samples = {f"lattice{b}": np.ceil(mixture * (b + 1)) / (b + 1) for b in (19, 49, 99)}
        samples.update({f"rounded{d}": np.round(mixture, d) for d in (1, 2, 3)})
        for name, raw in samples.items():
            full = full_family(load_sample(raw), tab, True)
            assert (full.loo - full.risk).max() <= tab.margin, name

    @pytest.mark.parametrize("method", ["lpo", "loo"])
    def test_small_blocks_match_full_lexsort(self, monkeypatch, method):
        # the stages in blocks of 7 partitions cross block edges, and on the
        # added samples the band walk passes its first block.  The scan keeps
        # its own blocks, which TestBlockedScan covers: in blocks of 7 it
        # would take ~1 s a call.
        import pi0cv.pi0_estimator as mod

        real_scan, real_blocks, block = mod._scan, mod._risk_blocks, mod._BLOCK
        walked = []

        def scan_in_own_blocks(sample, tab):
            mod._BLOCK = block
            try:
                return real_scan(sample, tab)
            finally:
                mod._BLOCK = 7

        def counted_blocks(*args):
            walked.append(0)
            for risk in real_blocks(*args):
                walked[-1] += 1
                yield risk

        monkeypatch.setattr(mod, "_BLOCK", 7)
        # the band walk's first block, then full ones
        monkeypatch.setattr(mod, "_BAND_BLOCK", 3)
        monkeypatch.setattr(mod, "_scan", scan_in_own_blocks)
        monkeypatch.setattr(mod, "_risk_blocks", counted_blocks)
        rng = np.random.default_rng(60)
        # all mass in one cell of N = 49, where the computed 1 / (1/49)
        # exceeds 49: the partition whose central cell holds the mass scores
        # an ulp below the hundreds of partitions that tie with it before it,
        # within the margin above a band of SE 0
        samples = dict(_selection_samples(),
                       walk=np.where(rng.random(50) < 0.8, rng.random(50), rng.beta(1, 20, 50)),
                       tie_walk=np.array([16.001, 16.001, 16.999]) / 49)
        walks = {}
        for name, raw in samples.items():
            self._check(load_sample(raw), method, (0.0, 0.25))
            walks[name] = walked[-1]    # the sample's band walk
        if method == "lpo":
            assert walks["walk"] > 1
        assert walks["tie_walk"] > 1

    @pytest.mark.parametrize("se_band", [0.0, 0.25])
    def test_loo_scores_nothing_at_a_holdout(self, monkeypatch, se_band):
        # loo reads its candidates from the scan's R_1: past the scan's own
        # blocks, the kernel runs only on the re-scores' single partitions
        import pi0cv.pi0_estimator as mod

        real_score = mod._score
        tab = mod._tables(1, 100)
        scan_calls = -(-tab.N.size // mod._BLOCK)
        calls = []

        def spy(m, sums, ik, *args, adaptive_p):
            calls.append((ik.size, adaptive_p))
            return real_score(m, sums, ik, *args, adaptive_p=adaptive_p)

        monkeypatch.setattr(mod, "_score", spy)
        for name, raw in _selection_samples().items():
            calls.clear()
            estimate_pi0(load_sample(raw), EstimatorConfig(method="loo", se_band=se_band))
            scan, rest = calls[:scan_calls], calls[scan_calls:]
            assert not any(adaptive for _, adaptive in scan), name
            assert sum(size for size, _ in scan) == tab.N.size, name
            assert len(rest) <= 2 and all(size == 1 for size, _ in rest), (name, rest)

    @pytest.mark.parametrize("se_band", [0.0, 0.25])
    def test_lpo_scores_no_partition_twice_alone(self, monkeypatch, se_band):
        # past the scan, lpo runs the kernel on R_1's argmin alone for T0, then
        # on blocks of the candidates within the margin of T0 and of the band
        # walk; the SE and the winner's values come from the blocks that
        # scored them, never from a partition scored again alone
        import pi0cv.pi0_estimator as mod

        real_score = mod._score
        tab = mod._tables(1, 100)
        keys = tab.idx_k * 2**20 + tab.idx_l        # one per partition
        order = np.argsort(keys)
        calls = []

        def spy(m, sums, ik, il, *args, adaptive_p):
            scored = real_score(m, sums, ik, il, *args, adaptive_p=adaptive_p)
            if adaptive_p:
                rows = order[np.searchsorted(keys[order], ik * 2**20 + il)]
                calls.append((rows.tolist(), scored[-1]))
            return scored

        monkeypatch.setattr(mod, "_score", spy)
        for name, raw in _selection_samples().items():
            sample = load_sample(raw)
            calls.clear()
            estimate_pi0(sample, EstimatorConfig(se_band=se_band))
            r1 = mod._last_scan[2][0]
            j = int(np.argmin(r1))
            (first, t0), *_ = calls
            assert first == [j], name
            t0 = float(t0[0]) if np.isfinite(t0[0]) else np.inf
            allowed = {j, *np.flatnonzero(r1 <= t0 + tab.margin).tolist()}
            if se_band > 0:
                full = full_family(sample, tab, True)
                jmin = int(np.argmin(np.where(np.isfinite(full.risk), full.risk, np.inf)))
                se = float(np.sqrt(max(full.mse[jmin], 0.0)))
                band = full.risk[jmin] + se_band * (se if np.isfinite(se) else 0.0)
                allowed.update(np.flatnonzero(r1[:jmin] <= band + tab.margin).tolist())
            scored = set()
            for rows, _ in calls:
                assert set(rows) <= allowed, name
                assert len(rows) > 1 or rows[0] not in scored, (name, rows)
                scored.update(rows)

    def test_selection_sorts_nothing(self, monkeypatch):
        # the family is stored in selection order: no call sorts, the
        # table build included
        import pi0cv.pi0_estimator as mod

        samples = [load_sample(raw) for raw in _selection_samples().values()]
        calls = []
        for name in ("lexsort", "argsort", "sort"):
            def spy(*args, _name=name, _real=getattr(np, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(np, name, spy)
        mod._tables.cache_clear()
        for sample in samples:
            for method in ("lpo", "loo"):
                for se_band in (0.0, 0.25):
                    estimate_pi0(sample, EstimatorConfig(method=method, se_band=se_band))
        assert calls == []


class TestFamilyLayout:
    @pytest.mark.parametrize("grids", [(1, 1), (1, 5), (3, 7), (1, 100)], ids=str)
    def test_stored_in_shape_order(self, grids):
        # the lexsort on (N, dimension, -W, -k) that selection once ran, over
        # enumerate_partitions' triples; the key is unique, so the order is total
        from pi0cv.histogram_core import enumerate_partitions
        from pi0cv.pi0_estimator import _SearchTables

        n, k, l = np.array([(p.n, p.k, p.l) for p in enumerate_partitions(*grids)]).T
        key = np.stack([n, n + 1 - (l - k), -(l - k) / n, -k])
        assert np.unique(key, axis=1).shape[1] == n.size
        order = np.lexsort(key[::-1])
        tab = _SearchTables(*grids)
        for got, want in ((tab.N, n), (tab.K, k), (tab.L, l)):
            np.testing.assert_array_equal(got, want[order])


def _first_partitions(tab, size):
    """A copy of ``tab`` whose family is cut to its first ``size`` partitions."""
    import copy

    cut = copy.copy(tab)
    for name in ("N", "K", "L", "idx_k", "idx_l", "Nf", "W"):
        setattr(cut, name, getattr(tab, name)[:size])
    return cut


def _family(which):
    from pi0cv.pi0_estimator import _BLOCK, _tables

    if which == "one_block":
        return _first_partitions(_tables(1, 100), _BLOCK)
    if which == "one_block_plus_one":
        return _first_partitions(_tables(1, 100), _BLOCK + 1)
    return _tables(*which)


class TestBlockedScan:
    @pytest.mark.parametrize("method", ["lpo", "loo"])
    @pytest.mark.parametrize("family", [(1, 1), (1, 5), "one_block", "one_block_plus_one",
                                        (1, 100)], ids=str)
    def test_bit_identical_to_unblocked_scan(self, family, method):
        # compared with the unpruned family: the scan is R_1 for either
        # method, and the re-score gives the method's holdout and its risk
        from pi0cv.lpo_risk import selection_mse
        from pi0cv.pi0_estimator import _BLOCK, _rescore, _scan

        def same_bits(got, want):
            # which also makes NaN equal NaN
            return np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

        tab = _family(family)
        if family == "one_block":
            assert tab.N.size == _BLOCK
        lpo = method == "lpo"
        rng = np.random.default_rng(64)
        samples = dict(_selection_samples(), m100000=rng.random(100_000) ** 1.5)
        for name, raw in samples.items():
            sample = load_sample(raw)
            risk, sums = _scan(sample, tab)
            full = full_family(sample, tab, True)
            assert risk.shape == (tab.N.size,), name
            np.testing.assert_array_equal(risk.view(np.uint64), full.loo.view(np.uint64),
                                          err_msg=f"{name}: R_1")
            # loo's holdout is p = 1, its risk R_1
            want = full if lpo else full_family(sample, tab, False)
            for j in {int(full.risk.argmin()), 0, tab.N.size - 1, *range(0, tab.N.size, 997)}:
                got_cc, got_p, got_risk, coeffs = _rescore(method, sample.m, sums, tab, j)
                got_mse = selection_mse(coeffs, got_p)[0]
                for field, got, want_j in (("cc", got_cc, want.cc[j]),
                                           ("p_hat", got_p, want.p_hat[j]),
                                           ("risk", got_risk, want.risk[j]),
                                           ("mse", got_mse, want.mse[j])):
                    assert same_bits(got, want_j), (name, j, field)

    @pytest.mark.parametrize("method", ["lpo", "loo"])
    def test_peak_memory_below_four_family_arrays(self, method):
        import tracemalloc

        from pi0cv.pi0_estimator import _tables

        rng = np.random.default_rng(65)
        raw = rng.random(1000)
        cfg = EstimatorConfig(method=method)
        estimate_pi0(load_sample(raw), cfg)     # builds the search tables once
        family_array = _tables(1, 100).N.size * 8
        # a sample of its own, so the measured call scans it
        sample = load_sample(raw)
        tracemalloc.start()
        try:
            estimate_pi0(sample, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * family_array, f"peak {peak / family_array:.1f} family arrays"

    @pytest.mark.parametrize("method", ["lpo", "loo"])
    def test_warm_calls_fault_no_pages(self, method):
        # a family-length temporary that glibc returns to the system after a
        # call is faulted in again on the next; which arrays come from the
        # reused heap depends on what was allocated before them
        import resource

        rng = np.random.default_rng(66)
        raw = rng.random(1000)
        cfg = EstimatorConfig(method=method)
        # each call on a sample of its own, so each one scans
        for _ in range(3):
            estimate_pi0(load_sample(raw), cfg)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            estimate_pi0(load_sample(raw), cfg)
        faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20
        assert faults < 50, f"{faults:.0f} minor page faults per warm call"


class TestScanSharing:
    @staticmethod
    def _spy_scan(monkeypatch):
        """Count ``_scan``'s runs: estimate_pi0 looks it up in the module."""
        import pi0cv.pi0_estimator as mod

        real_scan, scans = mod._scan, []

        def spy(sample, tab):
            scans.append(sample)
            return real_scan(sample, tab)

        monkeypatch.setattr(mod, "_scan", spy)
        return scans

    def test_run_scenario_scans_each_replicate_once(self, monkeypatch):
        # lpo and loo share one scan of a replicate's sample, and each
        # estimate equals a call on a fresh copy of the draw, bit for bit
        import pi0cv.sim_harness as harness

        scans = self._spy_scan(monkeypatch)
        calls = []
        real_estimate = harness.estimate_pi0

        def recorded(sample, cfg):
            est = real_estimate(sample, cfg)
            calls.append((sample.values, cfg, est))
            return est

        monkeypatch.setattr(harness, "estimate_pi0", recorded)
        spec = ScenarioSpec(kind="beta_tail", pi0=0.6, m=500, reps=3, seed=9, s=10.0)
        table = harness.run_scenario(spec, methods=("lpo", "loo", "storey"))
        assert table.valid
        assert len(scans) == spec.reps
        assert len(calls) == 3 * spec.reps
        scans.clear()
        for values, cfg, est in calls:
            assert repr(estimate_pi0(load_sample(values.copy()), cfg)) == repr(est)
        assert len(scans) == 2 * spec.reps      # lpo's fresh copy and loo's

    def test_memo_keeps_no_sample_alive(self):
        import gc

        import pi0cv.pi0_estimator as mod

        sample = load_sample(np.random.default_rng(70).random(200))
        estimate_pi0(sample)
        ref = mod._last_scan[0]
        assert ref() is sample
        del sample
        gc.collect()
        assert ref() is None

    def test_equal_values_scan_afresh(self, monkeypatch):
        scans = self._spy_scan(monkeypatch)
        raw = np.random.default_rng(71).random(200)
        first, copy = load_sample(raw), load_sample(raw)
        lpo = estimate_pi0(first)
        estimate_pi0(first, EstimatorConfig(method="loo"))
        assert len(scans) == 1 and scans[0] is first
        assert estimate_pi0(copy) == lpo
        assert len(scans) == 2 and scans[1] is copy
        # another grid range scans the same sample again
        estimate_pi0(copy, EstimatorConfig(n_max=50))
        assert len(scans) == 3

    @pytest.mark.parametrize("se_band", [0.0, 0.25, 1.0])
    def test_loo_after_lpo_equals_loo_on_a_copy(self, se_band):
        # the memo hands loo the argmin lpo's call found, with R_1 and the sums
        for name, raw in _selection_samples().items():
            sample = load_sample(raw)
            estimate_pi0(sample, EstimatorConfig(se_band=se_band))
            loo = EstimatorConfig(method="loo", se_band=se_band)
            assert repr(estimate_pi0(sample, loo)) == \
                   repr(estimate_pi0(load_sample(raw.copy()), loo)), name

    def test_memo_arrays_refuse_writes(self):
        import pi0cv.pi0_estimator as mod

        sample = load_sample(np.random.default_rng(72).random(200))
        estimate_pi0(sample)
        r1, (cum, *pairs) = mod._last_scan[2]
        arrays = [r1, cum, *(array for pair in pairs for array in pair)]
        assert len(arrays) == 6
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


class TestSsEstimator:
    def test_lambda_zero_reads_one(self):
        sample = load_sample([0.2, 0.4, 0.9])
        assert ss_estimator(sample, 0.0).pi0_raw == 1.0

    def test_hand_fixture(self):
        sample = load_sample([0.1, 0.2, 0.6, 0.8, 0.9])
        est = ss_estimator(sample, 0.5)
        assert est.pi0_raw == pytest.approx(1.2, abs=1e-15)
        assert est.pi0 == 1.0

    def test_empty_tail_clamps_to_one_over_m(self):
        sample = load_sample([0.1, 0.2, 0.3, 0.4])
        est = ss_estimator(sample, 0.5)
        assert est.pi0_raw == 0.0
        assert est.pi0 == 0.25

    def test_closed_interval_includes_lambda(self):
        sample = load_sample([0.5, 0.9])
        assert ss_estimator(sample, 0.5).pi0_raw == 2.0

    def test_invalid_lambda(self):
        sample = load_sample([0.1, 0.9])
        with pytest.raises(InvalidLambda):
            ss_estimator(sample, 1.0)

    def test_storey_is_ss_at_half(self):
        sample = load_sample([0.1, 0.2, 0.6, 0.8, 0.9])
        st = storey_estimator(sample)
        ss = ss_estimator(sample, 0.5)
        assert st.pi0 == ss.pi0 and st.method == "storey"
        assert (st.lambda_hat, st.mu_hat) == (0.5, 1.0)

    def test_config_dispatch(self):
        sample = load_sample([0.1, 0.2, 0.6, 0.8, 0.9])
        via_cfg = estimate_pi0(sample, EstimatorConfig(method="storey"))
        assert via_cfg == storey_estimator(sample)


class TestConsistencyProbe:
    def test_pure_null_errors_within_binomial_envelope(self):
        model = ScenarioSpec(kind="beta_tail", pi0=1.0, m=2, reps=1, seed=0, s=50.0)
        sizes = (100, 1000, 10000)
        hits = 0
        seeds = range(20)
        for seed in seeds:
            errs = consistency_probe(1.0, model, sizes, seed)
            if all(e <= 3 / np.sqrt(m) for e, m in zip(errs, sizes)):
                hits += 1
        assert hits >= 18  # >= 90% of seeds

    def test_requires_increasing_sizes(self):
        model = ScenarioSpec(kind="beta_tail", pi0=0.9, m=2, reps=1, seed=0, s=10.0)
        with pytest.raises(ValueError):
            consistency_probe(0.9, model, (100, 100), 0)

    def test_truncated_beta_single_size_inside_study_envelope(self):
        model = ScenarioSpec(kind="trunc_beta", pi0=0.9, m=2, reps=1, seed=0,
                             s=4.0, lambda_star=0.2)
        hits = sum(consistency_probe(0.9, model, (1000,), seed)[0] <= 3 * 0.025
                   for seed in range(8))
        assert hits >= 7

    def test_error_shrinks_with_sample_size_at_low_pi0(self):
        model = ScenarioSpec(kind="beta_tail", pi0=0.5, m=2, reps=1, seed=0, s=50.0)
        small, large = [], []
        for seed in range(5):
            errs = consistency_probe(0.5, model, (100, 10000), seed)
            small.append(errs[0])
            large.append(errs[1])
        assert np.median(large) < np.median(small)


class TestConfigAndJson:
    def test_bad_range(self):
        with pytest.raises(InvalidRange, match=r"^need 1 <= n_min <= n_max, got \(5, 3\)$"):
            EstimatorConfig(n_min=5, n_max=3)

    def test_bad_method(self):
        with pytest.raises(ValueError):
            EstimatorConfig(method="spline")

    @pytest.mark.parametrize("se_band", [-0.25, float("nan")])
    def test_bad_se_band(self, se_band):
        # a NaN band would silently run the pure argmin
        with pytest.raises(ValueError, match="se_band must be >= 0"):
            EstimatorConfig(se_band=se_band)

    def test_json_dict_fields(self):
        sample = load_sample([0.1, 0.2, 0.6, 0.8, 0.9])
        for method in ("lpo", "storey"):
            est = estimate_pi0(sample, EstimatorConfig(n_max=4, method=method))
            d = estimate_json_dict(est)
            assert list(d) == ["method", "m", "pi0", "pi0_raw", "lambda_hat",
                               "mu_hat", "n_hat", "p_hat", "risk"]
            assert d == {name: getattr(est, name) for name in d}
            assert d["m"] == 5
        # ss and storey have no grid, holdout or risk
        assert (d["n_hat"], d["p_hat"], d["risk"]) == (None, None, None)

    def test_pi0_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'pi0'"):
            Pi0Estimate(method="ss", m=4, pi0=0.5, pi0_raw=0.5, lambda_hat=0.5, mu_hat=1.0)

    @pytest.mark.parametrize("method", ["lpo", "loo", "ss", "storey"])
    @pytest.mark.parametrize("values, raw, pi0", [
        ([0.6, 0.7, 0.8, 0.9], 2.0, 1.0),
        ([0.1, 0.2, 0.3, 0.4], 0.0, 0.25),
    ], ids=["above_one", "zero"])
    def test_pi0_is_pi0_raw_clamped_to_one_over_m_and_one(self, method, values, raw, pi0):
        # lpo and loo build their estimate in estimate_pi0, ss and storey in ss_estimator
        est = estimate_pi0(load_sample(values), EstimatorConfig(n_max=2, method=method))
        assert (est.pi0_raw, est.pi0) == (raw, pi0)
