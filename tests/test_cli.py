import contextlib
import csv
import gzip
import io
import itertools
import json

import numpy as np
import pytest

from pi0cv import errors
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

    @pytest.mark.parametrize("data, column", [
        (b"0.4\n0.2\n0.9\n", None),
        (b"pval,gene\n0.4,g1\n0.2,g2\n0.9,g3\n", "pval"),
    ], ids=["plain", "csv_first_column"])
    def test_byte_order_mark_is_dropped(self, tmp_path, capsys, data, column):
        f, g = tmp_path / "p.txt", tmp_path / "bom.txt"
        f.write_bytes(data)
        g.write_bytes(b"\xef\xbb\xbf" + data)
        flags = ["--method", "storey"] + (["--column", column] if column else [])
        assert run_json(capsys, ["estimate", "--input", str(g), *flags]) == run_json(
            capsys, ["estimate", "--input", str(f), *flags])

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

    @staticmethod
    def assert_exit_4(capsys, argv):
        # errors are one JSON line on stderr whatever --format asks for
        for fmt in ("json", "csv"):
            code = main([*argv, "--format", fmt])
            captured = capsys.readouterr()
            assert code == 4
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert json.loads(captured.err) == {
                "error": "DegenerateSelection",
                "message": "no partition with N in [1, 100] has a finite risk"}

    def test_estimate_exits_4(self, capsys, fixture_file, nan_scan):
        self.assert_exit_4(capsys, ["estimate", "--input", fixture_file])

    def test_mtp_exits_4(self, capsys, fixture_file, nan_scan):
        self.assert_exit_4(capsys, ["mtp", "--input", fixture_file])

    def test_simulate_exits_4_with_its_warning(self, capsys, nan_scan):
        code = main(TestSimulateCommand.ARGS[:-1] + ["lpo"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err == (
            "warning: 2 of 2 replicates failed: DegenerateSelection: "
            "no partition with N in [1, 100] has a finite risk\n"
            "warning: table contains failed replicates\n")
        assert captured.out.startswith("method,bias_x100,std_x100,mse_x100\nlpo,nan,nan,nan\n")

    def test_simulate_counts_each_cause_in_order_of_first_occurrence(self, capsys,
                                                                     monkeypatch):
        import pi0cv.sim_harness as mod

        causes = iter(["first", "second", "first"])

        def failing(sample, cfg):
            raise ValueError(next(causes))

        monkeypatch.setattr(mod, "estimate_pi0", failing)
        argv = TestSimulateCommand.ARGS.copy()
        argv[argv.index("--reps") + 1] = "3"
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            "warning: 2 of 3 replicates failed: ValueError: first\n"
            "warning: 1 of 3 replicates failed: ValueError: second\n"
            "warning: table contains failed replicates\n")


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

    @pytest.mark.parametrize("flags, named", [
        (["--m", "500"], "--m"),
        (["--reps", "3", "--m", "500", "--kind", "ushape"], "--kind, --m, --reps"),
        (["--pi0", "0.5", "--seed", "0", "--alpha", "0.15"], "--pi0, --seed, --alpha"),
        (["--s", "10", "--lambda-star", "0.2", "--a", "-1", "--b", "1", "--sd", "1"],
         "--s, --lambda-star, --a, --b, --sd"),
    ])
    def test_scenario_file_with_scenario_flags_is_usage_error(self, tmp_path, capsys,
                                                              monkeypatch, flags, named):
        import pi0cv.sim_harness as sim

        def no_replicates(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(sim, "draw_sample", no_replicates)
        conf = tmp_path / "s.conf"
        conf.write_text("kind = beta_tail\ns = 10\nm = 60\nreps = 1\n")
        code = main(["simulate", "--scenario", str(conf), *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err) == {
            "error": "ConflictingFlags",
            "message": f"--scenario takes every scenario field from its file; drop {named}"}

    def test_scenario_file_takes_delta_methods_and_output(self, tmp_path, capsys):
        conf = tmp_path / "s.conf"
        conf.write_text("kind = beta_tail\ns = 10\nm = 60\nreps = 1\n")
        base = tmp_path / "t"
        assert main(["simulate", "--scenario", str(conf), "--delta", "0.05",
                     "--methods", "storey", "--output", str(base)]) == 0
        assert capsys.readouterr().out == ""
        rows = base.with_name("t_methods.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["method", "storey"]

    @pytest.mark.parametrize("source", ["flags", "scenario"])
    def test_negative_seed_exits_3(self, tmp_path, capsys, monkeypatch, source):
        import pi0cv.sim_harness as sim

        def no_replicates(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(sim, "draw_sample", no_replicates)
        if source == "flags":
            code = main(["simulate", "--kind", "beta_tail", "--s", "10", "--m", "50",
                         "--seed", "-1"])
            seed = -1
        else:
            conf = tmp_path / "s.conf"
            conf.write_text("kind = beta_tail\ns = 10\nm = 50\nseed = -3\n")
            code = main(["simulate", "--scenario", str(conf)])
            seed = -3
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "InputError",
                                            "message": f"seed must be >= 0, got {seed}"}

    @pytest.mark.parametrize("content, line", [
        (b"kind = beta_tail\ns = 10\n# caf\xe9\nm = 50\n", 3),
        (b"kind = beta_tail\r\ns = 10\rm = 50\xff\n", 3),
        (b"\x80kind = beta_tail\n", 1),
    ], ids=["comment", "crlf_and_cr", "first_byte"])
    def test_scenario_file_not_utf8_exits_3(self, tmp_path, capsys, content, line):
        conf = tmp_path / "s.conf"
        conf.write_bytes(content)
        code = main(["simulate", "--scenario", str(conf)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "InputError",
                                            "message": f"{conf}:{line}: not valid UTF-8"}

    def test_scenario_file_with_byte_order_mark(self, tmp_path, capsys):
        conf = tmp_path / "s.conf"
        text = b"kind = beta_tail\ns = 10\nm = 60\n"
        outputs = []
        for data in (text, b"\xef\xbb\xbf" + text):
            conf.write_bytes(data)
            assert main(["simulate", "--scenario", str(conf), "--methods", "storey"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_neither_scenario_nor_kind_is_usage_error(self, capsys):
        code = main(["simulate", "--m", "50"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "UsageError",
                                            "message": "either --scenario or --kind is required"}

    def test_file_and_flags_share_defaults(self, tmp_path, capsys):
        # pi0, reps, seed and alpha omitted from both
        conf = tmp_path / "s.conf"
        conf.write_text("kind = beta_tail\ns = 10\nm = 200\n")
        assert main(["simulate", "--scenario", str(conf), "--methods", "storey"]) == 0
        from_file = capsys.readouterr().out
        assert main(["simulate", "--kind", "beta_tail", "--s", "10", "--m", "200",
                     "--methods", "storey"]) == 0
        assert capsys.readouterr().out == from_file
        assert main(["simulate", "--kind", "beta_tail", "--s", "10", "--m", "200",
                     "--methods", "storey", "--pi0", "0.9"]) == 0
        assert capsys.readouterr().out == from_file

    def test_files_hold_the_stdout_rows(self, tmp_path, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        methods, procedures = out.split("\n\n")
        base = tmp_path / "t"
        assert main(self.ARGS + ["--output", str(base)]) == 0
        assert capsys.readouterr().out == ""
        for suffix, table in (("_methods.csv", methods), ("_procedures.csv", procedures)):
            data = base.with_name(base.name + suffix).read_bytes()
            assert data.endswith(b"\r\n") and b"\n" not in data.replace(b"\r\n", b"")
            with open(base.with_name(base.name + suffix), newline="") as fh:
                assert list(csv.reader(fh)) == list(csv.reader(table.splitlines()))

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

    def test_unknown_method_is_usage_error(self, capsys, monkeypatch):
        import pi0cv.sim_harness as sim

        def no_replicates(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(sim, "draw_sample", no_replicates)
        code = main(self.ARGS + ["--methods", "lpo,foo"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "InvalidMethod",
                                            "message": "unknown method 'foo'"}

    @pytest.mark.parametrize("methods", [",", "", " , ,"])
    def test_empty_method_list_is_usage_error(self, capsys, monkeypatch, methods):
        import pi0cv.sim_harness as sim

        def no_replicates(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(sim, "draw_sample", no_replicates)
        code = main(self.ARGS + ["--methods", methods])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "InvalidMethod",
                                            "message": "no pi0 method given"}

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

    @pytest.mark.parametrize("flags, error", [
        ([], "UsageError"),
        (["--N", "3", "--k", "3", "--l", "2"], "InvalidRange"),
        (["--all", "--nmin", "5", "--nmax", "3"], "InvalidRange"),
    ], ids=["no_spec", "bad_spec", "bad_grid_range"])
    def test_flags_are_checked_before_input_is_read(self, capsys, tmp_path, fixture_file,
                                                    flags, error):
        # a missing input would exit 3, so exit 2 shows the flags were checked first
        for path in (fixture_file, str(tmp_path / "nope.txt")):
            code = main(["risk-debug", "--input", path, *flags])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert json.loads(captured.err)["error"] == error

    @pytest.mark.parametrize("flags, named", [
        (["--N", "3"], "--N"),
        (["--k", "0", "--l", "2"], "--k, --l"),
        (["--N", "3", "--k", "0", "--l", "2"], "--N, --k, --l"),
    ])
    def test_all_beside_a_partition_flag_is_usage_error(self, capsys, tmp_path, fixture_file,
                                                        flags, named):
        # the flags were silently ignored; a missing input shows they are checked first
        for path in (fixture_file, str(tmp_path / "nope.txt")):
            code = main(["risk-debug", "--input", path, "--all", *flags])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert json.loads(captured.err) == {
                "error": "ConflictingFlags",
                "message": f"--all enumerates every partition; drop {named}"}

    def test_requires_spec_or_all(self, capsys, fixture_file):
        code = main(["risk-debug", "--input", fixture_file])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "UsageError", "message": "risk-debug needs --N, --k and --l, or --all"}


@pytest.mark.parametrize("command", ["estimate", "mtp"])
@pytest.mark.parametrize("flags, error", [
    (["--nmin", "5", "--nmax", "3"], "InvalidRange"),
    (["--method", "ss", "--lambda", "1.5"], "InvalidLambda"),
    (["--lambda", "-0.1"], "InvalidLambda"),
    (["--method", "storey", "--lambda", "nan"], "InvalidLambda"),
], ids=["bad_grid_range", "ss_lambda", "lpo_lambda", "storey_lambda"])
def test_estimator_flags_are_checked_before_input_is_read(capsys, tmp_path, fixture_file,
                                                          command, flags, error):
    # a missing input would exit 3, so exit 2 shows the flags were checked first;
    # mtp checks them even when --pi0 leaves the estimator unused
    extra = [[], ["--pi0", "0.5"]] if command == "mtp" else [[]]
    for path, pi0 in itertools.product((fixture_file, str(tmp_path / "nope.txt")), extra):
        code = main([command, "--input", path, *flags, *pi0])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == error


@pytest.mark.parametrize("name", ["InvalidAlpha", "InvalidTheta", "InvalidDelta", "InvalidLambda",
                                  "InvalidMethod", "InvalidRange", "ConflictingFlags"])
def test_usage_errors_share_one_class(name):
    # main maps UsageError to exit 2; every other InputError exits 3
    assert issubclass(getattr(errors, name), errors.UsageError)


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


class TestRandomArgv:
    """Random argv over the four subcommands and small valid, faulty and
    missing files: every exit is 0, 2, 3 or 4; argparse's usage error (exit 2)
    prints nothing on stdout, and every other failure is one JSON line on
    stderr with nothing on stdout."""

    GOOD = {
        "ok.txt": "".join(f"{v!r}\n" for v in np.random.default_rng(7).random(200)),
        "small.txt": "".join(f"{v}\n" for v in FIXTURE),
        "ends.txt": "0\n" * 30 + "1\n" * 30,
        "ok.csv": "gene,pval\n" + "".join(f"g{i},{v}\n" for i, v in enumerate(FIXTURE * 4)),
    }
    FAULTY = {
        "word.txt": "0.1\nabc\n0.3\n",
        "above.txt": "0.1\n1.5\n",
        "nan.txt": "0.1\nnan\n0.3\n",
        "one.txt": "0.5\n",
        "empty.txt": "",
        "bad_byte.txt": "0.1\n\udce9\n",
    }
    SCENARIOS = {"ok.conf": "kind = beta_tail\ns = 10\nm = 60\nreps = 2\n",
                 "bad.conf": "kind = beta_tail\ncolour = red\n"}
    KINDS = [["--kind", "beta_tail", "--s", "10"],
             ["--kind", "trunc_beta", "--s", "10", "--lambda-star", "0.5"],
             ["--kind", "ushape", "--a", "-1", "--b", "1", "--sd", "0.5"]]
    # each flag takes mostly valid values; "x" is one that argparse refuses
    ESTIMATOR = {"--method": ["lpo", "loo", "ss", "storey", "x"],
                 "--lambda": ["0.5", "0", "0.9", "1"],
                 "--nmin": ["1", "2", "5", "11"],
                 "--column": ["pval", "nope"],
                 "--format": ["json", "csv"]}
    FLAGS = {
        "estimate": ESTIMATOR,
        "mtp": {**ESTIMATOR, "--alpha": ["0.15", "0.5", "0"], "--delta": ["0", "0.05", "-0.1"],
                "--pi0": ["1", "0.5", "0"], "--one-based": None},
        "risk-debug": {"--nmin": ESTIMATOR["--nmin"], "--column": ESTIMATOR["--column"]},
        "simulate": {"--pi0": ["0.5", "0.9", "1.5"], "--reps": ["1", "2", "0"],
                     "--seed": ["0", "3", "-1"], "--alpha": ["0.15", "0.3", "2"],
                     "--s": ["10", "0.5", "nan"], "--lambda-star": ["0.2", "2"],
                     "--delta": ["0", "0.1", "-0.1"], "--kind": ["beta_tail", "x"],
                     "--methods": ["storey", "lpo", "loo,ss", "storey,x", ","]},
    }

    def test_exit_codes_and_error_lines(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        for name, text in {**self.GOOD, **self.FAULTY, **self.SCENARIOS}.items():
            (tmp_path / name).write_text(text, errors="surrogateescape")

        @st.composite
        def argv(draw):
            def pick(values):
                return draw(st.sampled_from(list(values)))

            command = pick(self.FLAGS)
            # the bounds keep each run small: m <= 200, --nmax <= 10, --limit always
            if command == "simulate":
                head = pick([["--scenario", str(tmp_path / pick([*self.SCENARIOS, "missing"]))],
                             [*pick(self.KINDS), "--m", pick(["2", "50", "200", "1", "x"])]])
            else:
                # half the draws read a good file; "." is a directory
                name = pick([pick(self.GOOD), pick([*self.FAULTY, "missing.txt", "."])])
                head = ["--input", str(tmp_path / name), "--nmax", pick(["1", "3", "10", "0"])]
            if command == "risk-debug":
                head += pick([["--all"], ["--N", pick(["1", "3", "10", "0"]), "--k",
                                          pick(["0", "1", "3"]), "--l", pick(["1", "3", "11"])]])
                head += ["--limit", pick(["0", "5", "-1"])]
            flags = self.FLAGS[command]
            argv = [command, *head]
            for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=3)):
                argv += [flag] if flags[flag] is None else [flag, pick(flags[flag])]
            return argv

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(argv())
        def check(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code, usage = exc.code, True
                else:
                    usage = False
            assert out.getvalue() == "" or code == 0
            if usage:
                assert code == 2
            elif code == 0:
                assert err.getvalue() == ""
            else:
                assert code in (2, 3, 4)
                assert err.getvalue().count("\n") == 1
                assert set(json.loads(err.getvalue())) == {"error", "message"}

        check()
