import gzip
import json

import numpy as np
import pytest

from pi0cv.cli import main
from pi0cv.histogram_core import load_sample
from pi0cv.jsonio import dumps17
from pi0cv.lpo_risk import lpo_risk, partition_diagnostics
from pi0cv.histogram_core import BinCounts, PartitionSpec, enumerate_partitions
from pi0cv.pi0_estimator import ss_estimator

FIXTURE = [0.01, 0.02, 0.5, 0.6, 0.9]


@pytest.fixture
def fixture_file(tmp_path):
    f = tmp_path / "p.txt"
    f.write_text("".join(f"{v}\n" for v in FIXTURE))
    return str(f)


@pytest.fixture
def uniform_file(tmp_path):
    rng = np.random.default_rng(123)
    f = tmp_path / "u.txt"
    f.write_text("".join(f"{v}\n" for v in rng.random(1000)))
    return str(f)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestEstimateCommand:
    def test_uniform_sample(self, capsys, uniform_file):
        code, payload = run_json(capsys, ["estimate", "--input", uniform_file])
        assert code == 0
        assert 0.9 <= payload["pi0"] <= 1.0
        assert payload["m"] == 1000
        assert payload["method"] == "lpo"

    def test_bad_value_cites_line(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0.5\n0.2\n1.5\n0.7\n")
        code = main(["estimate", "--input", str(f)])
        err = capsys.readouterr().err
        assert code == 3
        assert ":3" in err

    def test_missing_file(self, capsys, tmp_path):
        code = main(["estimate", "--input", str(tmp_path / "nope.txt")])
        assert code == 3

    def test_missing_file_beside_a_compressed_copy(self, capsys, tmp_path):
        with gzip.open(tmp_path / "p.txt.gz", "wb") as gz:
            gz.write(b"0.1\n0.2\n0.3\n")
        code = main(["mtp", "--input", str(tmp_path / "p.txt"), "--pi0", "1.0"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "IOError"
        assert err["message"].startswith("[Errno 2] No such file or directory")

    @pytest.mark.parametrize("data, column, line", [
        (b"0.1\n\xe9\n0.2\n", None, 2),
        (b"gene,pval\ng1,0.1\ng\xe9,0.2\ng3,0.3\n", "pval", 3),
    ])
    def test_non_utf8_input_exits_3(self, tmp_path, capsys, data, column, line):
        f = tmp_path / "p.txt"
        f.write_bytes(data)
        argv = ["estimate", "--input", str(f)] + (["--column", column] if column else [])
        code = main(argv)
        assert code == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "InputError", "message": f"{f}:{line}: not valid UTF-8"}

    def test_ss_method_delegates_exactly(self, capsys, fixture_file):
        code, payload = run_json(capsys, ["estimate", "--input", fixture_file,
                                          "--method", "ss", "--lambda", "0.5"])
        assert code == 0
        est = ss_estimator(load_sample(FIXTURE), 0.5)
        assert payload["pi0"] == est.pi0
        assert payload["pi0_raw"] == est.pi0_raw
        assert payload["lambda_hat"] == 0.5
        assert payload["mu_hat"] == 1.0
        assert payload["n_hat"] is None

    def test_csv_input_with_column(self, tmp_path, capsys):
        f = tmp_path / "p.csv"
        f.write_text("id,pv\n" + "".join(f"g{i},{v}\n" for i, v in enumerate(FIXTURE)))
        code, payload = run_json(capsys, ["estimate", "--input", str(f),
                                          "--column", "pv", "--method", "storey"])
        assert code == 0
        assert payload["method"] == "storey"

    def test_csv_format_output(self, capsys, fixture_file):
        code = main(["estimate", "--input", fixture_file, "--method", "storey",
                     "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("method,storey\nm,5\n")

    def test_output_file(self, tmp_path, fixture_file):
        dest = tmp_path / "out.json"
        code = main(["estimate", "--input", fixture_file, "--method", "storey",
                     "--output", str(dest)])
        assert code == 0
        assert json.loads(dest.read_text())["method"] == "storey"

    def test_seventeen_digit_reals(self, capsys, fixture_file):
        code = main(["estimate", "--input", fixture_file, "--method", "ss",
                     "--lambda", "0.3"])
        out = capsys.readouterr().out
        assert code == 0
        # 2/(5*0.7) has no short decimal form; expect the full 17-digit rendering
        assert f"{3 / (5 * 0.7):.17g}" in out


class TestDegenerateSelection:
    @pytest.fixture
    def nan_scan(self, monkeypatch):
        import pi0cv.pi0_estimator as mod

        def broken_scan(sample, tab):
            return np.full(tab.N.size, np.nan), None

        monkeypatch.setattr(mod, "_scan", broken_scan)

    def test_estimate_exits_4(self, capsys, fixture_file, nan_scan):
        code, payload = run_json(capsys, ["estimate", "--input", fixture_file])
        assert code == 4
        assert payload["error"] == "degenerate selection"
        assert payload["pi0"] == 1.0

    def test_mtp_exits_4(self, capsys, fixture_file, nan_scan):
        code, payload = run_json(capsys, ["mtp", "--input", fixture_file])
        assert code == 4
        assert payload == {"error": "degenerate selection"}


class TestMtpCommand:
    def test_pi0_override_reproduces_baseline(self, capsys, fixture_file):
        code, payload = run_json(capsys, ["mtp", "--input", fixture_file,
                                          "--alpha", "0.15", "--pi0", "1.0"])
        assert code == 0
        assert payload["k_hat"] == 2
        assert payload["theta"] == 1.0
        assert payload["rejected_indices"] == [0, 1]
        assert payload["threshold"] == pytest.approx(0.06)

    def test_threshold_keeps_the_value_on_its_cut(self, tmp_path, capsys):
        # p_(3) lies on 3 * (0.15 / 1000), where 0.15 * 3 / 1000 rounds below it
        f = tmp_path / "p.txt"
        f.write_text("1e-09\n1e-09\n0.00045\n" + "0.9\n" * 997)
        code, payload = run_json(capsys, ["mtp", "--input", str(f),
                                          "--alpha", "0.15", "--pi0", "1.0"])
        assert code == 0
        assert payload["k_hat"] == 3
        assert payload["threshold"] == 0.00045
        assert payload["rejected_indices"] == [0, 1, 2]

    def test_pi0_half(self, capsys, fixture_file):
        code, payload = run_json(capsys, ["mtp", "--input", fixture_file,
                                          "--alpha", "0.15", "--pi0", "0.5"])
        assert code == 0
        assert payload["k_hat"] == 2
        assert payload["threshold"] == pytest.approx(0.12)

    def test_indices_follow_input_order(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0.5\n0.01\n0.9\n0.02\n0.6\n")
        code, payload = run_json(capsys, ["mtp", "--input", str(f),
                                          "--alpha", "0.15", "--pi0", "1.0"])
        assert code == 0
        assert payload["rejected_indices"] == [1, 3]

    def test_one_based_flag(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0.5\n0.01\n0.9\n0.02\n0.6\n")
        code, payload = run_json(capsys, ["mtp", "--input", str(f),
                                          "--alpha", "0.15", "--pi0", "1.0",
                                          "--one-based"])
        assert code == 0
        assert payload["rejected_indices"] == [2, 4]

    @pytest.mark.parametrize("flags, indices", [([], "1;3"), (["--one-based"], "2;4")])
    def test_csv_format_joins_indices(self, tmp_path, capsys, flags, indices):
        f = tmp_path / "p.txt"
        f.write_text("0.5\n0.01\n0.9\n0.02\n0.6\n")
        code = main(["mtp", "--input", str(f), "--alpha", "0.15", "--pi0", "1.0",
                     "--format", "csv", *flags])
        assert code == 0
        assert capsys.readouterr().out == (
            "alpha,0.14999999999999999\ntheta,1\ndelta,0\nk_hat,2\n"
            f"threshold,0.059999999999999998\nrejected_indices,{indices}\n")

    @pytest.mark.parametrize("fmt, empty", [("json", '"rejected_indices": []'),
                                            ("csv", "rejected_indices,\n")])
    def test_no_rejections(self, tmp_path, capsys, fmt, empty):
        f = tmp_path / "p.txt"
        f.write_text("0.5\n0.9\n0.6\n")
        code = main(["mtp", "--input", str(f), "--pi0", "1.0", "--format", fmt, "--one-based"])
        assert code == 0
        assert empty in capsys.readouterr().out

    def test_alpha_zero_is_usage_error(self, capsys, fixture_file):
        code = main(["mtp", "--input", fixture_file, "--alpha", "0"])
        assert code == 2

    @pytest.mark.parametrize("flag", [["--delta", "-0.1"], ["--delta", "nan"],
                                      ["--pi0", "1.5"], ["--pi0", "0"],
                                      ["--alpha", "0"], ["--alpha", "nan"]],
                             ids=["delta_negative", "delta_nan", "pi0_above_one", "pi0_zero",
                                  "alpha_zero", "alpha_nan"])
    def test_bad_flag_is_usage_error_before_input_is_read(self, capsys, tmp_path,
                                                          fixture_file, flag):
        # a missing input would exit 3, so exit 2 shows the flag was checked first
        for path in (fixture_file, str(tmp_path / "nope.txt")):
            code = main(["mtp", "--input", path, *flag])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            error = json.loads(captured.err)
            assert error["error"] == {"--delta": "InvalidDelta", "--pi0": "InvalidTheta",
                                      "--alpha": "InvalidAlpha"}[flag[0]]

    def test_estimates_when_no_override(self, capsys, uniform_file):
        code, payload = run_json(capsys, ["mtp", "--input", uniform_file,
                                          "--method", "storey"])
        assert code == 0
        assert 0.0 < payload["theta"] <= 1.0


class TestSimulateCommand:
    ARGS = ["simulate", "--kind", "beta_tail", "--pi0", "0.8", "--s", "20",
            "--m", "80", "--reps", "2", "--seed", "5", "--methods", "storey"]

    def test_stdout_tables(self, capsys):
        code = main(self.ARGS)
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("method,bias_x100,std_x100,mse_x100")
        assert "procedure,fdr_x100,fnr_x100" in out

    def test_deterministic_files(self, tmp_path):
        base1, base2 = tmp_path / "a", tmp_path / "b"
        assert main(self.ARGS + ["--output", str(base1)]) == 0
        assert main(self.ARGS + ["--output", str(base2)]) == 0
        for suffix in ("_methods.csv", "_procedures.csv", "_replicates.json"):
            f1 = base1.with_name(base1.name + suffix)
            f2 = base2.with_name(base2.name + suffix)
            assert f1.read_bytes() == f2.read_bytes()

    def test_scenario_file(self, tmp_path, capsys):
        conf = tmp_path / "s.conf"
        conf.write_text("kind = beta_tail\npi0 = 0.8\ns = 20\nm = 60\nreps = 1\nseed = 3\n")
        code = main(["simulate", "--scenario", str(conf), "--methods", "storey"])
        assert code == 0

    def test_unknown_kind_in_file_lists_kinds(self, tmp_path, capsys):
        conf = tmp_path / "s.conf"
        conf.write_text("kind = quantile\npi0 = 0.8\nm = 60\nreps = 1\nseed = 3\n")
        code = main(["simulate", "--scenario", str(conf)])
        err = capsys.readouterr().err
        assert code == 3
        assert "beta_tail" in err and "ushape" in err

    @pytest.mark.parametrize("line, message", [
        ("m = abc", ":4: m must be an integer, got 'abc'"),
        ("m = 1e3", ":4: m must be an integer, got '1e3'"),
        ("alpha = x", ":4: alpha must be a number, got 'x'"),
        ("rep = 500", ":4: unknown key 'rep'; valid keys: kind, pi0, m, reps,"),
        ("pi0 = 0.5", ":4: duplicate key 'pi0' (first on line 2)"),
    ], ids=["int", "int_exponent", "float", "unknown_key", "duplicate_key"])
    def test_bad_scenario_line_exits_3(self, tmp_path, capsys, monkeypatch, line, message):
        import pi0cv.sim_harness as sim

        def no_replicates(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(sim, "draw_sample", no_replicates)
        conf = tmp_path / "s.conf"
        conf.write_text(f"kind = beta_tail\npi0 = 0.8\n# comment\n{line}\ns = 20\n")
        code = main(["simulate", "--scenario", str(conf)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == "InputError"
        assert err["message"].startswith(str(conf) + message)

    @pytest.mark.parametrize("source", ["scenario", "flags"])
    def test_field_the_kind_does_not_use_exits_3(self, tmp_path, capsys, monkeypatch, source):
        import pi0cv.sim_harness as sim

        def no_replicates(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(sim, "draw_sample", no_replicates)
        if source == "scenario":
            conf = tmp_path / "s.conf"
            conf.write_text("kind = beta_tail\npi0 = 0.8\ns = 20\nsd = 3\n")
            code = main(["simulate", "--scenario", str(conf)])
        else:
            code = main(self.ARGS + ["--sd", "3"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        err = json.loads(captured.err)
        assert (err["error"], err["message"]) == ("InputError", "kind beta_tail does not use sd")

    @pytest.mark.parametrize("source, message", [
        ("beta_tail_flags", "s must be finite, got nan"),
        ("ushape_flags", "sd must be finite, got inf"),
        ("scenario", "s must be finite, got nan"),
    ])
    def test_non_finite_parameter_exits_3(self, tmp_path, capsys, monkeypatch, source, message):
        import pi0cv.sim_harness as sim

        def no_replicates(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(sim, "draw_sample", no_replicates)
        rest = ["--m", "200", "--reps", "3", "--seed", "0", "--methods", "storey"]
        if source == "beta_tail_flags":
            code = main(["simulate", "--kind", "beta_tail", "--pi0", "0.5", "--s", "nan"] + rest)
        elif source == "ushape_flags":
            code = main(["simulate", "--kind", "ushape", "--pi0", "0.5", "--a", "-1", "--b", "1",
                         "--sd", "inf"] + rest)
        else:
            conf = tmp_path / "s.conf"
            conf.write_text("kind = beta_tail\npi0 = 0.8\ns = nan\n")
            code = main(["simulate", "--scenario", str(conf)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        err = json.loads(captured.err)
        assert (err["error"], err["message"]) == ("InputError", message)

    def test_negative_delta_is_usage_error(self, capsys, monkeypatch):
        import pi0cv.sim_harness as sim

        def no_replicates(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(sim, "draw_sample", no_replicates)
        code = main(self.ARGS + ["--delta", "-0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "InvalidDelta"

    def test_bad_alpha_is_usage_error(self, tmp_path, capsys, monkeypatch):
        import pi0cv.sim_harness as sim

        def no_replicates(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(sim, "draw_sample", no_replicates)
        conf = tmp_path / "s.conf"
        conf.write_text("kind = beta_tail\npi0 = 0.8\ns = 20\nm = 60\nreps = 1\nalpha = 1.5\n")
        for argv in (self.ARGS + ["--alpha", "0"], ["simulate", "--scenario", str(conf)]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert json.loads(captured.err)["error"] == "InvalidAlpha"

    def test_unknown_kind_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--kind", "quantile", "--m", "60", "--reps", "1"])
        assert exc.value.code == 2


class TestRiskDebugCommand:
    def test_single_cell_risk_is_minus_one(self, capsys, fixture_file):
        code, payload = run_json(capsys, ["risk-debug", "--input", fixture_file,
                                          "--N", "1", "--k", "0", "--l", "1"])
        assert code == 0
        assert payload["risk"] == -1.0
        assert payload["s11"] == 1.0

    def test_all_with_limit(self, capsys, fixture_file):
        code = main(["risk-debug", "--input", fixture_file, "--all", "--limit", "10"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(out) == 10
        assert all(json.loads(line)["N"] >= 1 for line in out)

    def test_negative_limit_is_usage_error(self, capsys, fixture_file):
        code = main(["risk-debug", "--input", fixture_file, "--all", "--limit", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "InvalidRange"

    def test_limit_zero_prints_one_empty_line(self, capsys, fixture_file):
        code = main(["risk-debug", "--input", fixture_file, "--all", "--limit", "0"])
        assert code == 0
        assert capsys.readouterr().out == "\n"

    def test_fixture_dump_consistent_with_library(self, tmp_path, capsys):
        # counts (3, 1) on halves at m=4; closed form gives -2/3 at p=1
        f = tmp_path / "p.txt"
        f.write_text("0.1\n0.2\n0.3\n0.7\n")
        code, payload = run_json(capsys, ["risk-debug", "--input", str(f),
                                          "--N", "2", "--k", "0", "--l", "1"])
        assert code == 0
        spec = PartitionSpec(2, 0, 1)
        counts = BinCounts(counts=np.array([3, 1]), total=4)
        assert lpo_risk(counts, spec, 1) == pytest.approx(-2 / 3, abs=1e-15)
        assert payload["risk"] == pytest.approx(
            lpo_risk(counts, spec, payload["p_hat"]), abs=1e-12)
        assert payload["s21"] == pytest.approx((0.75**2 + 0.25**2) / 0.5, abs=1e-15)

    def test_all_lines_equal_partition_diagnostics(self, tmp_path, capsys):
        # --all scores each grid whole; every line must equal the record of
        # its own partition
        from test_pi0_estimator import _selection_samples

        for name, values in _selection_samples().items():
            f = tmp_path / f"{name}.txt"
            f.write_text("".join(f"{v!r}\n" for v in values.tolist()))
            code = main(["risk-debug", "--input", str(f), "--all", "--nmax", "12"])
            lines = capsys.readouterr().out.splitlines()
            sample = load_sample(values)
            assert code == 0
            assert lines == [dumps17(partition_diagnostics(sample, spec))
                             for spec in enumerate_partitions(1, 12)]

    def test_fine_grid_scores_only_what_is_printed(self, capsys, uniform_file):
        # grid 5000 has 12.5 million partitions; one record of it, or the
        # first --all line, must not cost the whole grid
        import tracemalloc

        tracemalloc.start()
        try:
            assert main(["risk-debug", "--input", uniform_file,
                         "--N", "5000", "--k", "1", "--l", "4999"]) == 0
            assert main(["risk-debug", "--input", uniform_file, "--all",
                         "--nmin", "5000", "--nmax", "5000", "--limit", "1"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        sample = load_sample(np.loadtxt(uniform_file))
        assert capsys.readouterr().out.splitlines() == [
            dumps17(partition_diagnostics(sample, PartitionSpec(5000, k, l)))
            for k, l in ((1, 4999), (0, 1))]

    def test_requires_spec_or_all(self, capsys, fixture_file):
        code = main(["risk-debug", "--input", fixture_file])
        assert code == 3


class TestUniformSamplingClaim:
    def test_pi0_above_09_for_most_seeds(self, tmp_path, capsys):
        hits = 0
        seeds = range(20)
        for seed in seeds:
            rng = np.random.default_rng(1000 + seed)
            f = tmp_path / f"u{seed}.txt"
            f.write_text("".join(f"{v}\n" for v in rng.random(1000)))
            code, payload = run_json(capsys, ["estimate", "--input", str(f)])
            assert code == 0
            if 0.9 <= payload["pi0"] <= 1.0:
                hits += 1
        assert hits >= 19  # >= 95% of seeds
