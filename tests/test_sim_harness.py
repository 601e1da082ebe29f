import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from pi0cv import sim_harness
from pi0cv.errors import InputError, InvalidAlpha, InvalidSample
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
    write_summary_csv,
)


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


class TestBetaTail:
    def test_shape_one_alternatives_are_uniform(self):
        sample, nulls = sample_beta_tail(0.5, 1.0, 100_000, replicate_rng(1, 0))
        alts = sample.values[~nulls]
        assert math.sqrt(len(alts)) * ks_statistic(alts) < KS_1PCT

    def test_alternative_cdf_at_half(self):
        sample, nulls = sample_beta_tail(0.0 + 1e-12, 10.0, 100_000, replicate_rng(2, 0))
        alts = sample.values[~nulls]
        frac = np.mean(alts <= 0.5)
        assert frac == pytest.approx(1 - 0.5 ** 10, abs=0.003)

    def test_labels_sorted_with_values(self):
        sample, nulls = sample_beta_tail(0.5, 10.0, 2000, replicate_rng(3, 0))
        # alternatives concentrate near zero, so the head must be alt-rich
        head = nulls[:200].mean()
        tail = nulls[-200:].mean()
        assert head < 0.35 and tail > 0.8


class TestTruncBeta:
    def test_support_ends_at_lambda_star(self):
        sample, nulls = sample_trunc_beta(0.5, 4.0, 0.2, 5000, replicate_rng(4, 0))
        assert sample.values[~nulls].max() <= 0.2

    def test_reduces_to_beta_tail_at_lambda_one(self):
        a, na = sample_trunc_beta(0.7, 6.0, 1.0, 1000, replicate_rng(5, 0))
        b, nb = sample_beta_tail(0.7, 6.0, 1000, replicate_rng(5, 0))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(na, nb)


class TestUshape:
    def test_zero_statistic_maps_to_half(self):
        assert 1.0 - normal_cdf(0.0) == 0.5

    def test_null_pvalues_uniform(self):
        sample, nulls = sample_ushape(0.5, -1.5, 1.5, 0.5, 100_000, replicate_rng(6, 0))
        null_p = sample.values[nulls]
        assert math.sqrt(len(null_p)) * ks_statistic(null_p) < KS_1PCT

    def test_two_sided_pileup(self):
        sample, nulls = sample_ushape(0.4, -1.5, 1.5, 0.5, 50_000, replicate_rng(7, 0))
        alts = sample.values[~nulls]
        near_zero = np.mean(alts < 0.1)
        near_one = np.mean(alts > 0.9)
        assert near_zero > 0.35 and near_one > 0.35


class TestNullUniformityAcrossGenerators:
    @pytest.mark.parametrize("kind,kwargs", [
        ("beta_tail", dict(s=25.0)),
        ("trunc_beta", dict(s=4.0, lambda_star=0.2)),
        ("ushape", dict(a=-1.0, b=1.0, sd=0.75)),
    ])
    def test_null_labelled_values_are_uniform(self, kind, kwargs):
        spec = ScenarioSpec(kind=kind, pi0=0.6, m=100_000, reps=1, seed=8, **kwargs)
        sample, nulls = draw_sample(spec, replicate_rng(8, 0))
        null_p = sample.values[nulls]
        assert math.sqrt(len(null_p)) * ks_statistic(null_p) < KS_1PCT


def _stable_assemble(values, nulls):
    """The sort the merge replaces: a stable argsort carrying the labels."""
    order = np.argsort(values, kind="stable")
    return values[order], nulls[order]


def _assert_same_as_stable_argsort(values, nulls):
    sample, labels = sim_harness._assemble(values, nulls)
    ref_values, ref_labels = _stable_assemble(values, nulls)
    assert np.array_equal(sample.values.view(np.uint64), ref_values.view(np.uint64))
    assert labels.dtype == bool and np.array_equal(labels, ref_labels)
    assert sample.m == values.size


class TestAssemble:
    """``_assemble`` merges the separately sorted null and alternative values;
    it must equal the stable argsort bit for bit, ties and signed zeros included."""

    @pytest.fixture
    def argsort_calls(self, monkeypatch):
        calls = []
        real = np.argsort

        def spy(*args, **kwargs):
            calls.append(kwargs.get("kind"))
            return real(*args, **kwargs)

        monkeypatch.setattr(sim_harness.np, "argsort", spy)
        return calls

    def test_generated_values_match_stable_argsort(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # small pools make ties, with one label or both, the common case; a
        # NaN breaks PValueSample's contract, so a sample holding one is refused
        edges = [0.0, -0.0, 1.0, 0.5, 0.25, 1 / 3, 2 / 3, 0.1, 0.7, 1 / 7, math.nan]
        pool = st.sampled_from(edges) | st.floats(0.0, 1.0)

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(st.lists(st.tuples(pool, st.booleans()), min_size=2, max_size=60))
        def check(pairs):
            values = np.array([v for v, _ in pairs], dtype=float)
            nulls = np.array([n for _, n in pairs], dtype=bool)
            if np.isnan(values).any():
                with pytest.raises(InvalidSample):
                    sim_harness._assemble(values, nulls)
            else:
                _assert_same_as_stable_argsort(values, nulls)

        check()

    @pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
    def test_million_value_draw_matches_stable_argsort(self, kind, monkeypatch, argsort_calls):
        kwargs = {"beta_tail": dict(s=10.0), "trunc_beta": dict(s=4.0, lambda_star=0.2),
                  "ushape": dict(a=-40.0, b=40.0, sd=1.0)}[kind]
        spec = ScenarioSpec(kind=kind, pi0=0.5, m=1_000_000, reps=1, seed=3, **kwargs)
        seen = []
        real = sim_harness._assemble

        def keep_inputs(values, nulls):
            seen.append((values.copy(), nulls.copy()))
            return real(values, nulls)

        monkeypatch.setattr(sim_harness, "_assemble", keep_inputs)
        draw_sample(spec, replicate_rng(3, 0))
        assert argsort_calls == []   # generated ties hold one label: no fallback
        _assert_same_as_stable_argsort(*seen[0])

    def test_mixed_label_tie_takes_the_stable_argsort(self, argsort_calls):
        # the merge would put the alternative 0.5 after the null 0.5
        values = np.array([0.5, 0.5, 0.2])
        nulls = np.array([False, True, True])
        _, labels = sim_harness._assemble(values, nulls)
        assert argsort_calls == ["stable"]
        assert labels.tolist() == [True, False, True]

    def test_signed_zeros_take_the_stable_argsort(self, argsort_calls):
        values = np.array([0.0, -0.0, 0.0, 0.5])
        _assert_same_as_stable_argsort(values, np.ones(4, dtype=bool))
        assert argsort_calls == ["stable", "stable"]   # the fallback, then the reference

    def test_single_label_ties_are_merged(self, argsort_calls):
        values = np.array([0.5, 0.5, 0.2, 1.0, 1.0, 0.0, 0.0])
        nulls = np.array([True, True, False, False, False, True, True])
        sample, labels = sim_harness._assemble(values, nulls)
        assert argsort_calls == []
        assert sample.values.tolist() == [0.0, 0.0, 0.2, 0.5, 0.5, 1.0, 1.0]
        assert labels.tolist() == [True, True, False, True, True, False, False]


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
        mlines = mpath.read_text().strip().splitlines()
        assert mlines[0] == "method,bias_x100,std_x100,mse_x100"
        assert mlines[1].startswith("storey,")
        plines = ppath.read_text().strip().splitlines()
        assert plines[0] == "procedure,fdr_x100,fnr_x100"
        assert {line.split(",")[0] for line in plines[1:]} == {"storey", "bh", "oracle"}

    def test_json_dump_carries_replicates(self):
        table = run_scenario(_tiny_spec(reps=3, m=60), methods=("storey",))
        d = summary_json_dict(table)
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
