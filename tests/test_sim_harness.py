import dataclasses
import math
import platform
from pathlib import Path

import numpy as np
import pytest

from pi0cv import sim_harness
from pi0cv.errors import InputError, InvalidAlpha, InvalidMethod, InvalidSample
from pi0cv.histogram_core import PValueSample
from pi0cv.mtp import bh_procedure, error_metrics, plugin_mtp
from pi0cv.sim_harness import (
    KIND_FIELDS,
    ScenarioSpec,
    draw_sample,
    normal_cdf,
    parse_scenario_file,
    replicate_rng,
    run_scenario,
    sample_beta_tail,
    sample_trunc_beta,
    sample_ushape,
    summary_json_dict,
    summary_rows,
    write_summary_csv,
)


from reference import label_prefix_metrics, labelled_draw, multiset_difference

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def ks_statistic(values):
    """Kolmogorov-Smirnov distance of sorted values to Uniform[0, 1]."""
    v = np.sort(np.asarray(values))
    n = len(v)
    hi = np.max(np.arange(1, n + 1) / n - v)
    lo = np.max(v - np.arange(n) / n)
    return max(hi, lo)


KS_1PCT = 1.63  # asymptotic 1% critical value for sqrt(n) * D_n


class TestReplicateRng:
    def test_pure_function_of_seed_and_rep(self):
        a = replicate_rng(42, 3).random(5)
        b = replicate_rng(42, 3).random(5)
        assert np.array_equal(a, b)

    def test_streams_differ_across_reps(self):
        a = replicate_rng(42, 0).random(5)
        b = replicate_rng(42, 1).random(5)
        assert not np.array_equal(a, b)


class TestNormalCdf:
    @pytest.mark.parametrize("x,expected", [
        (0.0, 0.5),
        (1.0, 0.8413447460685429),
        (-2.0, 0.022750131948179195),
        (3.0, 0.9986501019683699),
    ])
    def test_reference_values(self, x, expected):
        assert normal_cdf(x) == pytest.approx(expected, abs=1e-12)

    def test_exact_at_zero_infinities_and_nan(self):
        assert normal_cdf(0.0) == 0.5 and normal_cdf(-0.0) == 0.5
        assert normal_cdf(np.inf) == 1.0 and normal_cdf(-np.inf) == 0.0
        assert np.isnan(normal_cdf(np.nan))

    def test_scalar_and_array_returns(self):
        assert type(normal_cdf(0.5)) is np.float64
        assert type(normal_cdf(np.array(0.5))) is np.float64
        assert normal_cdf(np.zeros((2, 3))).shape == (2, 3)
        assert normal_cdf([]).shape == (0,)
        # more than one block, each value in its place
        x = np.linspace(-3.0, 3.0, 3 * sim_harness._CDF_BLOCK + 8)
        pieces = [normal_cdf(x[lo:lo + 1000]) for lo in range(0, x.size, 1000)]
        assert np.array_equal(normal_cdf(x), np.concatenate(pieces))
        assert np.array_equal(normal_cdf(x.reshape(-1, 8)).ravel(), normal_cdf(x))

    def test_million_arguments_within_declared_bound(self):
        # the statistics X / sigma0 of two ushape designs, and a sweep of x
        x = [np.linspace(-40.0, 40.0, 1_000_001)]
        for a, b, sd in ((-1.5, 1.5, 0.5), (-40.0, 40.0, 1.0)):
            rng = replicate_rng(9, 0)
            comp = rng.random(250_000)
            mean = np.where(comp < 0.5, 0.0, np.where(comp < 0.75, a, b))
            scale = np.where(comp < 0.5, sim_harness.USHAPE_NULL_SD, sd)
            x.append(rng.normal(mean, scale) / sim_harness.USHAPE_NULL_SD)
        x = np.concatenate(x)
        t = -x / math.sqrt(2.0)
        ref_erfc = _math_erfc(t)
        assert np.max(_ulps(sim_harness._erfc(t), ref_erfc)) <= sim_harness._ERFC_ULPS
        ref = 0.5 * ref_erfc
        got = normal_cdf(x)
        cdf_bound = sim_harness._ERFC_ULPS * 2.0 ** -53
        assert np.max(np.abs(got - ref)) <= cdf_bound
        assert np.max(np.abs((1.0 - got) - (1.0 - ref))) <= cdf_bound + 2.0 ** -53

    def test_erfc_branch_edges_within_declared_bound(self):
        t = _erfc_edges()
        got = sim_harness._erfc(t)
        ref = _math_erfc(t)
        assert np.max(_ulps(got, ref)) <= sim_harness._ERFC_ULPS
        # the limits are exact
        limits = np.isinf(t) | (t == 0.0)
        assert np.array_equal(got[limits], ref[limits])

    @pytest.mark.skipif(platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc",
                        reason="glibc's erfc is compiled without FMA on x86-64 only")
    def test_equal_to_math_erfc_where_no_exp_is_called(self):
        t = np.concatenate([_erfc_edges(), np.linspace(-1.3, 1.3, 1_000_001)])
        t = t[np.abs(t) < 1.25]
        assert np.array_equal(sim_harness._erfc(t), _math_erfc(t))

    def test_monotone_on_sorted_sweep(self):
        t = _erfc_edges()
        t = np.sort(t[~np.isnan(t)])
        assert np.all(np.diff(sim_harness._erfc(t)) <= 0.0)
        x = np.sort(np.concatenate([np.linspace(-40.0, 40.0, 1_000_001), -t * math.sqrt(2.0)]))
        assert np.all(np.diff(normal_cdf(x)) >= 0.0)


_math_erfc_obj = np.frompyfunc(math.erfc, 1, 1)


def _math_erfc(t):
    return np.asarray(_math_erfc_obj(t), dtype=float)


def _ulps(got, ref):
    """Units in the last place between two arrays of erfc values, which are
    >= 0; a NaN must meet a NaN and counts 0."""
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    got, ref = got[~nan], ref[~nan]
    assert (got >= 0.0).all() and (ref >= 0.0).all()
    return np.abs(got.view(np.int64) - ref.view(np.int64))


def _erfc_edges():
    """erfc arguments at fdlibm's branch edges, each with its neighbours,
    the underflow tail and the special values."""
    edges = np.array([0.25, 0.84375, 1.25, sim_harness._ERFC_SPLIT, 6.0, 28.0, 2.0 ** -57, 0.0])
    edges = np.concatenate([edges, -edges])
    t = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                        np.linspace(26.5, 28.0, 100_001),
                        [np.inf, -np.inf, np.nan]])
    return t


class TestBetaTail:
    def test_shape_one_alternatives_are_uniform(self):
        sample, null_values = sample_beta_tail(0.5, 1.0, 100_000, replicate_rng(1, 0))
        alts = multiset_difference(sample.values, null_values)
        assert math.sqrt(len(alts)) * ks_statistic(alts) < KS_1PCT

    def test_alternative_cdf_at_half(self):
        sample, null_values = sample_beta_tail(0.0 + 1e-12, 10.0, 100_000, replicate_rng(2, 0))
        alts = multiset_difference(sample.values, null_values)
        frac = np.mean(alts <= 0.5)
        assert frac == pytest.approx(1 - 0.5 ** 10, abs=0.003)

    def test_null_values_sit_in_the_tail(self):
        sample, null_values = sample_beta_tail(0.5, 10.0, 2000, replicate_rng(3, 0))
        # alternatives concentrate near zero, so the head must be alt-rich
        head = np.count_nonzero(null_values <= sample.values[199]) / 200
        tail = np.count_nonzero(null_values >= sample.values[-200]) / 200
        assert head < 0.35 and tail > 0.8


class TestTruncBeta:
    def test_support_ends_at_lambda_star(self):
        sample, null_values = sample_trunc_beta(0.5, 4.0, 0.2, 5000, replicate_rng(4, 0))
        assert multiset_difference(sample.values, null_values).max() <= 0.2

    def test_reduces_to_beta_tail_at_lambda_one(self):
        a, na = sample_trunc_beta(0.7, 6.0, 1.0, 1000, replicate_rng(5, 0))
        b, nb = sample_beta_tail(0.7, 6.0, 1000, replicate_rng(5, 0))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(na, nb)


class TestUshape:
    def test_zero_statistic_maps_to_half(self):
        assert 1.0 - normal_cdf(0.0) == 0.5

    def test_null_pvalues_uniform(self):
        _, null_p = sample_ushape(0.5, -1.5, 1.5, 0.5, 100_000, replicate_rng(6, 0))
        assert math.sqrt(len(null_p)) * ks_statistic(null_p) < KS_1PCT

    def test_two_sided_pileup(self):
        sample, null_values = sample_ushape(0.4, -1.5, 1.5, 0.5, 50_000, replicate_rng(7, 0))
        alts = multiset_difference(sample.values, null_values)
        near_zero = np.mean(alts < 0.1)
        near_one = np.mean(alts > 0.9)
        assert near_zero > 0.35 and near_one > 0.35


class TestNullUniformityAcrossGenerators:
    @pytest.mark.parametrize("kind,kwargs", [
        ("beta_tail", dict(s=25.0)),
        ("trunc_beta", dict(s=4.0, lambda_star=0.2)),
        ("ushape", dict(a=-1.0, b=1.0, sd=0.75)),
    ])
    def test_null_values_are_uniform(self, kind, kwargs):
        spec = ScenarioSpec(kind=kind, pi0=0.6, m=100_000, reps=1, seed=8, **kwargs)
        _, null_p = draw_sample(spec, replicate_rng(8, 0))
        assert math.sqrt(len(null_p)) * ks_statistic(null_p) < KS_1PCT


DRAW_KWARGS = {"beta_tail": dict(s=10.0), "trunc_beta": dict(s=4.0, lambda_star=0.2),
               "ushape": dict(a=-1.5, b=1.5, sd=0.5)}


def _lexsorted(null_values, alt_values):
    """The labelled reference order: by value, then alternatives before nulls."""
    values = np.concatenate((null_values, alt_values))
    labels = np.arange(values.size) < null_values.size
    order = np.lexsort((labels, values))
    return values[order], labels[order]


def _assert_counts_equal_label_prefix(sample, null_values, labels):
    """By-value error counts equal the label-prefix counts, for every procedure
    a replicate runs and a few plug-in levels."""
    results = [bh_procedure(sample, 0.15)]
    results += [plugin_mtp(sample, alpha, theta)
                for alpha in (0.05, 0.15, 0.5) for theta in (0.9, 0.5, 0.1)]
    for result in results:
        assert error_metrics(result, null_values) == label_prefix_metrics(result, labels)


def _assert_equals_labelled_draw(spec, seed):
    """The sorted values bit for bit, the null values as a multiset, and the
    error counts, against the labelled draw of the same stream."""
    sample, null_values = draw_sample(spec, replicate_rng(seed, 0))
    ref_values, labels = labelled_draw(spec, replicate_rng(seed, 0))
    assert sample.m == spec.m
    assert np.array_equal(sample.values.view(np.uint64), ref_values.view(np.uint64))
    assert np.array_equal(np.sort(null_values).view(np.uint64), ref_values[labels].view(np.uint64))
    _assert_counts_equal_label_prefix(sample, null_values, labels)


class TestDraw:
    """A draw is the sorted concatenation of its null and alternative values,
    returned with the null values.  It must equal the labelled draw in
    ``tests/reference.py`` bit for bit, and counting false discoveries by value
    must equal counting the labels of the rejected prefix."""

    @pytest.mark.parametrize("m", [2, 3, 1000])
    @pytest.mark.parametrize("pi0", [1e-12, 0.5, 1.0])
    @pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
    def test_equals_the_labelled_draw(self, kind, pi0, m):
        spec = ScenarioSpec(kind=kind, pi0=pi0, m=m, reps=1, seed=0, **DRAW_KWARGS[kind])
        for seed in range(20):
            _assert_equals_labelled_draw(spec, seed)

    @pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
    def test_million_value_draw_equals_the_labelled_draw(self, kind):
        # ushape at +-40 puts most alternatives on exactly 0 or 1, in long runs
        kwargs = dict(DRAW_KWARGS, ushape=dict(a=-40.0, b=40.0, sd=1.0))[kind]
        _assert_equals_labelled_draw(
            ScenarioSpec(kind=kind, pi0=0.5, m=1_000_000, reps=1, seed=3, **kwargs), 3)

    def test_tied_values_count_as_the_label_prefix(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # small pools make ties, with one label or both, the common case
        edges = [0.0, 1.0, 0.5, 0.25, 1 / 3, 2 / 3, 0.1, 0.7, 1 / 7, 1e-3, 2e-3, math.nan,
                 np.nextafter(0.0, 1.0), np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0)]
        pool = st.sampled_from(edges) | st.floats(0.0, 1.0)

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(st.lists(pool, max_size=30), st.lists(pool, max_size=30))
        def check(nulls, alts):
            null_values, alt_values = np.array(nulls, dtype=float), np.array(alts, dtype=float)
            hypothesis.assume(null_values.size + alt_values.size >= 2)
            if np.isnan(null_values).any() or np.isnan(alt_values).any():
                with pytest.raises(InvalidSample):
                    sim_harness._draw(null_values, alt_values)
                return
            sample, returned = sim_harness._draw(null_values, alt_values)
            ref_values, labels = _lexsorted(null_values, alt_values)
            assert returned is null_values
            assert np.array_equal(sample.values.view(np.uint64), ref_values.view(np.uint64))
            _assert_counts_equal_label_prefix(sample, null_values, labels)

        check()

    def test_negative_zero_is_a_value_like_zero(self):
        # load_sample accepts -0.0 as well; it sorts and counts as 0.0
        sample, null_values = sim_harness._draw(np.array([-0.0, 0.5]), np.array([0.0, 0.9]))
        assert sample.values.tolist() == [0.0, 0.0, 0.5, 0.9]
        em = error_metrics(bh_procedure(sample, 0.15), null_values)
        assert (em.r, em.fp) == (2, 1)

    @pytest.mark.parametrize("values", [
        [0.5, np.nextafter(1.0, 2.0), 0.1], [0.5, -0.25, 0.1],
        [0.5, -np.nextafter(0.0, 1.0), 0.1], [0.5, math.nan, 0.1], [0.5, -math.nan, 0.1],
        [0.5, math.inf, 0.1], [0.5, 2.0, 0.1],
    ])
    def test_values_outside_the_unit_interval_raise(self, values):
        # PValueSample's own check, as test_histogram_core.py's
        # TestPValueSampleContract shows for any construction
        values = np.array(values)
        with pytest.raises(InvalidSample):
            sim_harness._draw(values[:1], values[1:])

    def test_lattice_tables_equal_the_label_prefix_count(self, monkeypatch):
        # p-values on the lattice k / 100 hold runs of equal values with both
        # labels, and every procedure rejects some of them.  The tables from
        # by-value counts must equal those from a stable argsort carrying the
        # labels, counted over the rejected prefix.
        real_draw = sim_harness._draw
        mixed_runs = []

        def lattice(null_values, alt_values):
            return np.ceil(null_values * 100.0) / 100.0, np.ceil(alt_values * 100.0) / 100.0

        def by_value(null_values, alt_values):
            null_values, alt_values = lattice(null_values, alt_values)
            mixed_runs.append(np.intersect1d(null_values, alt_values).size)
            return real_draw(null_values, alt_values)

        def stable_labelled(null_values, alt_values):
            values = np.concatenate(lattice(null_values, alt_values))
            labels = np.arange(values.size) < null_values.size
            order = np.argsort(values, kind="stable")
            return PValueSample(values=values[order], m=values.size), labels[order]

        spec = ScenarioSpec(kind="beta_tail", pi0=0.7, m=300, reps=6, seed=21, s=50.0)
        monkeypatch.setattr(sim_harness, "_draw", by_value)
        tables = [summary_json_dict(run_scenario(spec, methods=("lpo", "storey")))]
        monkeypatch.setattr(sim_harness, "_draw", stable_labelled)
        monkeypatch.setattr(sim_harness, "error_metrics", label_prefix_metrics)
        tables.append(summary_json_dict(run_scenario(spec, methods=("lpo", "storey"))))
        assert len(mixed_runs) == spec.reps and all(mixed_runs)
        assert all(row["fdr_x100"] > 0.0 for row in tables[0]["procedures"].values())
        assert tables[0] == tables[1]


class TestScenarioSpecValidation:
    def test_unknown_kind_lists_valid_ones(self):
        with pytest.raises(InputError, match="beta_tail, trunc_beta, ushape"):
            ScenarioSpec(kind="spline", pi0=0.5, m=10, reps=1, seed=0)

    def test_missing_parameters(self):
        with pytest.raises(InputError):
            ScenarioSpec(kind="beta_tail", pi0=0.5, m=10, reps=1, seed=0)
        with pytest.raises(InputError):
            ScenarioSpec(kind="trunc_beta", pi0=0.5, m=10, reps=1, seed=0, s=4.0)
        with pytest.raises(InputError):
            ScenarioSpec(kind="ushape", pi0=0.5, m=10, reps=1, seed=0, a=1.0, b=2.0, sd=0.5)

    @pytest.mark.parametrize("kind, kwargs, extra", [
        ("beta_tail", dict(s=10.0), "lambda_star"),
        ("beta_tail", dict(s=10.0), "sd"),
        ("trunc_beta", dict(s=4.0, lambda_star=0.2), "a"),
        ("trunc_beta", dict(s=4.0, lambda_star=0.2), "b"),
        ("ushape", dict(a=-1.0, b=1.0, sd=0.5), "s"),
        ("ushape", dict(a=-1.0, b=1.0, sd=0.5), "lambda_star"),
    ])
    def test_field_the_kind_does_not_use(self, kind, kwargs, extra):
        with pytest.raises(InputError) as info:
            ScenarioSpec(kind=kind, pi0=0.5, m=10, reps=1, seed=0, **kwargs, **{extra: 0.2})
        assert str(info.value) == f"kind {kind} does not use {extra}"

    @pytest.mark.parametrize("kind, kwargs, name, value", [
        ("beta_tail", dict(s=10.0), "pi0", math.nan),
        ("beta_tail", dict(s=10.0), "s", math.nan),
        ("beta_tail", dict(s=10.0), "s", math.inf),
        ("trunc_beta", dict(s=4.0, lambda_star=0.2), "lambda_star", math.nan),
        ("ushape", dict(a=-1.0, b=1.0, sd=0.5), "a", -math.inf),
        ("ushape", dict(a=-1.0, b=1.0, sd=0.5), "b", math.inf),
        ("ushape", dict(a=-1.0, b=1.0, sd=0.5), "sd", math.nan),
        ("ushape", dict(a=-1.0, b=1.0, sd=0.5), "sd", math.inf),
    ])
    def test_non_finite_field(self, kind, kwargs, name, value):
        fields = dict(pi0=0.5, **kwargs)
        fields[name] = value
        with pytest.raises(InputError) as info:
            ScenarioSpec(kind=kind, m=10, reps=1, seed=0, **fields)
        assert str(info.value) == f"{name} must be finite, got {value}"


def _tiny_spec(**over):
    base = dict(kind="beta_tail", pi0=0.8, m=120, reps=4, seed=99, s=20.0)
    base.update(over)
    return ScenarioSpec(**base)


class TestRunScenario:
    def test_deterministic_reruns(self):
        spec = _tiny_spec(reps=2)
        a = summary_json_dict(run_scenario(spec, methods=("storey",)))
        b = summary_json_dict(run_scenario(spec, methods=("storey",)))
        assert a == b

    def test_mse_decomposition_identity(self):
        table = run_scenario(_tiny_spec(reps=6), methods=("storey",))
        row = table.methods["storey"]
        bias = row.bias_x100 / 100.0
        std = row.std_x100 / 100.0
        mse = row.mse_x100 / 100.0
        assert mse == pytest.approx(bias * bias + std * std, abs=1e-12)

    def test_all_procedures_present(self):
        table = run_scenario(_tiny_spec(), methods=("storey", "loo"))
        assert set(table.procedures) == {"storey", "loo", "bh", "oracle"}
        assert set(table.methods) == {"storey", "loo"}
        assert table.valid

    def test_bad_alpha_rejected_before_any_replicate(self, monkeypatch):
        import pi0cv.sim_harness as mod

        def no_replicates(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(mod, "draw_sample", no_replicates)
        for alpha in (0.0, 1.5, math.nan):
            with pytest.raises(InvalidAlpha):
                run_scenario(_tiny_spec(), methods=("storey",), alpha=alpha)

    def test_unknown_method_rejected_before_any_replicate(self, monkeypatch):
        import pi0cv.sim_harness as mod

        def no_replicates(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(mod, "draw_sample", no_replicates)
        # bh and oracle name procedures, not methods
        for methods, bad in ((("lpo", "foo"), "foo"), (("bh",), "bh"), (("oracle", "loo"), "oracle")):
            with pytest.raises(InvalidMethod) as info:
                run_scenario(_tiny_spec(), methods=methods)
            assert str(info.value) == f"unknown method {bad!r}"

    def test_empty_method_list_rejected_before_any_replicate(self, monkeypatch):
        import pi0cv.sim_harness as mod

        def no_replicates(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(mod, "draw_sample", no_replicates)
        for methods in ((), [], iter(())):
            with pytest.raises(InvalidMethod) as info:
                run_scenario(_tiny_spec(), methods=methods)
            assert str(info.value) == "no pi0 method given"

    def test_failed_replicate_flags_table(self, monkeypatch):
        import pi0cv.sim_harness as mod

        calls = {"n": 0}
        real = mod.estimate_pi0

        def flaky(sample, cfg):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic failure")
            return real(sample, cfg)

        monkeypatch.setattr(mod, "estimate_pi0", flaky)
        table = run_scenario(_tiny_spec(reps=3, m=40), methods=("loo",))
        assert not table.valid
        failed = [r for r in table.replicates if r.failed]
        assert len(failed) == 1
        assert "synthetic failure" in failed[0].error

    def test_degenerate_selection_fails_its_replicate(self, monkeypatch):
        import pi0cv.pi0_estimator as est

        def nan_scan(sample, tab):
            return np.full(tab.N.size, np.nan), None

        monkeypatch.setattr(est, "_scan", nan_scan)
        table = run_scenario(_tiny_spec(reps=2), methods=("storey", "lpo"))
        assert not table.valid
        for rep in table.replicates:
            assert rep.failed
            assert rep.error.startswith("DegenerateSelection: ")
        assert math.isnan(table.methods["lpo"].bias_x100)

    @pytest.mark.parametrize("s,pi0,seed", [(10.0, 0.5, 31), (25.0, 0.7, 32), (50.0, 0.9, 33)])
    def test_oracle_fdp_within_mc_error_of_alpha(self, s, pi0, seed):
        spec = _tiny_spec(pi0=pi0, s=s, m=1000, reps=60, seed=seed)
        table = run_scenario(spec, methods=("storey",), alpha=0.15)
        fdps = [r.fdp["oracle"] for r in table.replicates]
        mean = np.mean(fdps)
        se = np.std(fdps) / math.sqrt(len(fdps))
        assert mean <= 0.15 + 2 * se + 1e-9


class TestScenarioFiles:
    def test_roundtrip(self, tmp_path):
        f = tmp_path / "s.conf"
        f.write_text("# demo\nkind = trunc_beta\npi0 = 0.9\ns = 4\nlambda_star = 0.2\n"
                     "m = 50\nreps = 2\nseed = 7\nalpha = 0.2\n")
        spec, alpha = parse_scenario_file(f)
        assert spec == ScenarioSpec(kind="trunc_beta", pi0=0.9, m=50, reps=2, seed=7,
                                    s=4.0, lambda_star=0.2)
        assert alpha == 0.2

    def test_alpha_defaults(self, tmp_path):
        f = tmp_path / "s.conf"
        f.write_text("kind = beta_tail\npi0 = 0.5\ns = 10\nm = 20\nreps = 1\nseed = 0\n")
        _, alpha = parse_scenario_file(f)
        assert alpha == 0.15

    def test_omitted_fields_take_the_flags_defaults(self, tmp_path):
        from pi0cv.cli import build_parser

        f = tmp_path / "s.conf"
        f.write_text("kind = beta_tail\ns = 10\nm = 200\n")
        spec, alpha = parse_scenario_file(f)
        flags = build_parser().parse_args(["simulate", "--kind", "beta_tail", "--s", "10",
                                           "--m", "200"])
        assert (spec.pi0, spec.reps, spec.seed, alpha) == (0.9, 1, 0, 0.15)
        assert (spec.pi0, spec.reps, spec.seed, alpha) == tuple(
            sim_harness.SCENARIO_DEFAULTS[name] for name in ("pi0", "reps", "seed", "alpha"))
        # an omitted flag is None, so that simulate can tell which were given,
        # and simulate fills it from SCENARIO_DEFAULTS, the one copy
        assert (flags.m, flags.pi0, flags.reps, flags.seed, flags.alpha) == (200, *[None] * 4)

    def test_unknown_kind_message(self, tmp_path):
        f = tmp_path / "s.conf"
        f.write_text("kind = wavelet\npi0 = 0.5\nm = 20\nreps = 1\nseed = 0\n")
        with pytest.raises(InputError, match="beta_tail, trunc_beta, ushape"):
            parse_scenario_file(f)

    def test_duplicate_key_cites_both_lines(self, tmp_path):
        f = tmp_path / "s.conf"
        f.write_text("kind = beta_tail\ns = 10\nreps = 5\n# again\nreps = 50\n")
        with pytest.raises(InputError) as info:
            parse_scenario_file(f)
        assert str(info.value) == f"{f}:5: duplicate key 'reps' (first on line 3)"

    def test_field_the_kind_does_not_use(self, tmp_path):
        f = tmp_path / "s.conf"
        f.write_text("kind = beta_tail\ns = 10\nlambda_star = 0.2\nsd = 3\n")
        with pytest.raises(InputError, match="^kind beta_tail does not use lambda_star$"):
            parse_scenario_file(f)

    def test_non_finite_value(self, tmp_path):
        f = tmp_path / "s.conf"
        f.write_text("kind = beta_tail\npi0 = 0.5\ns = nan\nm = 20\nreps = 1\nseed = 0\n")
        with pytest.raises(InputError, match="^s must be finite, got nan$"):
            parse_scenario_file(f)

    def test_bad_byte_after_an_unknown_key_cites_the_key(self, tmp_path):
        f = tmp_path / "s.conf"
        f.write_bytes(b"kind = beta_tail\nsize = 10\ns = 1\xe90\n")
        with pytest.raises(InputError) as info:
            parse_scenario_file(f)
        assert str(info.value).startswith(f"{f}:2: unknown key 'size'; valid keys: kind, ")

    def test_bad_byte_in_a_comment(self, tmp_path):
        f = tmp_path / "s.conf"
        for data in (b"kind = beta_tail\ns = 10  # caf\xe9\nm = 60\n",
                     b"kind = beta_tail\r\n#\xff\r\nm = 60\r\n"):
            f.write_bytes(data)
            with pytest.raises(InputError) as info:
                parse_scenario_file(f)
            assert str(info.value) == f"{f}:2: not valid UTF-8"

    def test_byte_order_mark_starts_the_file_only(self, tmp_path):
        f = tmp_path / "s.conf"
        f.write_bytes(b"\xef\xbb\xbfkind = beta_tail\ns = 10\nm = 60\n")
        spec, _ = parse_scenario_file(f)
        assert (spec.kind, spec.s, spec.m) == ("beta_tail", 10.0, 60)
        f.write_bytes(b"kind = beta_tail\n\xef\xbb\xbfs = 10\n")
        with pytest.raises(InputError) as info:
            parse_scenario_file(f)
        assert str(info.value).startswith(f"{f}:2: unknown key '\\ufeffs'; ")

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.conf")), ids=lambda p: p.name)
    def test_every_shipped_scenario_is_a_valid_spec(self, path):
        spec, alpha = parse_scenario_file(path)
        assert all(getattr(spec, name) is not None for name in KIND_FIELDS[spec.kind])
        assert 0.0 < alpha < 1.0

    def test_shipped_trunc_beta_scenario(self):
        spec, alpha = parse_scenario_file(SCENARIOS / "trunc_beta_study.conf")
        assert spec.kind == "trunc_beta"
        assert (spec.pi0, spec.s, spec.lambda_star, spec.m, spec.reps) == (0.9, 4.0, 0.2, 1000, 500)
        assert alpha == 0.15


class TestOutputs:
    def test_csv_layout(self, tmp_path):
        table = run_scenario(_tiny_spec(reps=2, m=60), methods=("storey",))
        mpath = tmp_path / "methods.csv"
        ppath = tmp_path / "procs.csv"
        write_summary_csv(table, mpath, ppath)
        assert [rows[0] for rows in summary_rows(table)] == [
            ["method", "bias_x100", "std_x100", "mse_x100"], ["procedure", "fdr_x100", "fnr_x100"]]
        mlines = mpath.read_text().strip().splitlines()
        assert mlines[0] == "method,bias_x100,std_x100,mse_x100"
        assert mlines[1].startswith("storey,")
        plines = ppath.read_text().strip().splitlines()
        assert plines[0] == "procedure,fdr_x100,fnr_x100"
        assert {line.split(",")[0] for line in plines[1:]} == {"storey", "bh", "oracle"}

    def test_json_dump_carries_replicates(self):
        table = run_scenario(_tiny_spec(reps=3, m=60), methods=("storey",))
        d = summary_json_dict(table)
        assert list(d) == ["scenario", "alpha", "valid", "methods", "procedures", "replicates"]
        assert list(d["replicates"][0]) == ["rep", "seed_used", "pi0_hat", "fdp", "fnr",
                                            "failed", "error"]
        assert d["scenario"]["kind"] == "beta_tail"
        assert len(d["replicates"]) == 3
        assert d["valid"] is True
        assert "pi0_hat" in d["replicates"][0]

    def test_replicates_json_file_roundtrips(self, tmp_path):
        import json

        from pi0cv.sim_harness import write_replicates_json

        table = run_scenario(_tiny_spec(reps=2, m=60), methods=("storey",))
        path = tmp_path / "reps.json"
        write_replicates_json(table, path)
        loaded = json.loads(path.read_text())
        assert loaded["replicates"][0]["pi0_hat"]["storey"] == \
            table.replicates[0].pi0_hat["storey"]


class TestConsistencyHelperSpec:
    def test_replace_works_on_spec(self):
        spec = _tiny_spec()
        clone = dataclasses.replace(spec, m=333)
        assert clone.m == 333 and clone.kind == spec.kind
