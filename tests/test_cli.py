"""End-to-end tests of the command-line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from invgamma_benford.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDeviationCommand:
    def test_default_json_envelope(self, capsys):
        code, out, _ = run_cli(capsys, "deviation", "--alpha", "1", "--beta", "1")
        assert code == 0
        env = json.loads(out)
        assert env["format"] == "json"
        meta = env["metadata"]
        assert meta["alpha"] == 1.0 and meta["beta"] == 1.0
        assert meta["epsilon"] == 0.001
        assert meta["cutoff_m"] == 2  # certified_cutoff; the paper's rule gives 5
        assert meta["certified"] is True
        assert meta["tool_version"]
        payload = env["payload"]
        assert payload["max_dev"] == pytest.approx(0.0305329, abs=2e-3)
        assert 0.0 <= payload["argmax_z"] <= 1.0
        assert payload["epsilon"] == 0.001

    def test_alpha_validation_message(self, capsys):
        code, _, err = run_cli(capsys, "deviation", "--alpha", "0", "--beta", "1")
        assert code == 2
        assert "alpha must be positive" in err

    def test_beta_decade_invariance(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "deviation", "--alpha", "1", "--beta", "1")
        code_b, out_b, _ = run_cli(capsys, "deviation", "--alpha", "1", "--beta", "10")
        assert code_a == code_b == 0
        dev_a = json.loads(out_a)["payload"]["max_dev"]
        dev_b = json.loads(out_b)["payload"]["max_dev"]
        assert dev_a == dev_b

    def test_base_two_refused_without_flag(self, capsys):
        """Base 2 runs without any flag and is certified like every other base."""
        code, out, _ = run_cli(capsys, "deviation", "--alpha", "1", "--beta", "1", "--base", "2")
        assert code == 0
        env = json.loads(out)
        assert env["metadata"]["certified"] is True
        assert env["metadata"]["epsilon"] == env["payload"]["epsilon"] == 0.001

    def test_base_two_allowed_with_flag(self, capsys):
        """--allow-uncertified is not an option: a usage error with empty stdout."""
        code, out, _ = run_cli(capsys, "deviation", "--alpha", "1", "--beta", "1",
                               "--base", "2", "--allow-uncertified")
        assert code == 2
        assert out == ""

    def test_csv_format(self, capsys):
        code, out, err = run_cli(capsys, "deviation", "--alpha", "2", "--beta", "3",
                                 "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "max_dev,argmax_z,epsilon,grid_points"
        assert len(lines) == 2
        assert err.startswith("#")  # metadata goes to stderr


class TestCdfCommand:
    def test_csv_contract(self, capsys):
        code, out, _ = run_cli(capsys, "cdf", "--alpha", "1", "--beta", "1", "--points", "11")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "z,F_B,deviation"
        assert len(lines) == 11 + 1
        assert lines[1] == "0.000000,0.000000,0.000000"
        last = lines[-1].split(",")
        assert last[0] == "1.000000" and last[1] == "1.000000" and last[2] == "0.000000"

    def test_z_column_ascends(self, capsys):
        code, out, _ = run_cli(capsys, "cdf", "--alpha", "2", "--beta", "3", "--points", "101")
        assert code == 0
        zs = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert zs == sorted(zs) and zs[0] == 0.0 and zs[-1] == 1.0

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "cdf", "--alpha", "1", "--beta", "1",
                               "--points", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["z"] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert payload["F_B"][0] == 0.0 and payload["F_B"][-1] == 1.0
        assert len(payload["deviation"]) == 5

    def test_points_validation(self, capsys):
        code, _, err = run_cli(capsys, "cdf", "--alpha", "1", "--beta", "1", "--points", "1")
        assert code == 2 and "points" in err


class TestGridCommand:
    def test_shape_contract(self, capsys):
        code, out, _ = run_cli(
            capsys, "grid",
            "--alpha-min", "1", "--alpha-max", "3", "--alpha-steps", "3",
            "--beta-min", "1", "--beta-max", "5", "--beta-steps", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,beta,max_dev"
        assert len(lines) == 1 + 9

    def test_row_major_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "grid",
            "--alpha-min", "1", "--alpha-max", "2", "--alpha-steps", "2",
            "--beta-min", "1", "--beta-max", "4", "--beta-steps", "2",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        alphas = [float(r[0]) for r in rows]
        betas = [float(r[1]) for r in rows]
        assert alphas == [1.0, 1.0, 2.0, 2.0]
        assert betas == [1.0, 4.0, 1.0, 4.0]

    def test_figure_recipe_completes_certified(self, capsys):
        code, out, err = run_cli(
            capsys, "grid",
            "--alpha-min", "0.1", "--alpha-max", "1", "--alpha-steps", "10",
            "--beta-min", "1", "--beta-max", "9.99", "--beta-steps", "10",
            "--epsilon", "0.001",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 100
        assert "certified=True" in err

    def test_summary_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "grid",
            "--alpha-min", "1", "--alpha-max", "2", "--alpha-steps", "2",
            "--beta-min", "1", "--beta-max", "4", "--beta-steps", "3",
            "--summary",
        )
        assert code == 0
        spread_lines = [l for l in err.splitlines() if "spread=" in l]
        assert len(spread_lines) == 2

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "grid",
            "--alpha-min", "1", "--alpha-max", "2", "--alpha-steps", "2",
            "--beta-min", "1", "--beta-max", "4", "--beta-steps", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert np.array(payload["max_dev"]).shape == (2, 2)

    def test_rerun_is_byte_identical(self, capsys):
        args = ("grid", "--alpha-min", "0.5", "--alpha-max", "2", "--alpha-steps", "3",
                "--beta-min", "1", "--beta-max", "8", "--beta-steps", "3")
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "grid",
            "--alpha-min", "-1", "--alpha-max", "1", "--alpha-steps", "2",
            "--beta-min", "1", "--beta-max", "2", "--beta-steps", "2",
        )
        assert code == 2 and "alpha-min" in err


class TestVerifyCommand:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--alpha", "1", "--beta", "1")
        assert code == 0
        env = json.loads(out)
        checks = env["payload"]["checks"]
        assert checks["series_vs_oracle"]["value"] <= 1e-7
        assert checks["series_vs_oracle"]["passed"] is True
        assert checks["oracle_k_convergence"]["passed"] is True
        assert env["payload"]["passed"] is True
        assert "ks_distance" not in checks  # samples default to 0

    def test_with_monte_carlo(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--alpha", "5", "--beta", "4",
                               "--samples", "200000", "--seed", "7")
        assert code == 0
        checks = json.loads(out)["payload"]["checks"]
        assert checks["ks_distance"]["value"] <= 0.005
        assert checks["ks_distance"]["passed"] is True

    @pytest.mark.parametrize("alpha", ["1e-6", "1e-5", "1e-3", "0.01"])
    @pytest.mark.parametrize("base", ["2", "10"])
    def test_small_shapes_pass(self, capsys, alpha, base):
        """The oracle keeps the mass of X above the double range, so the
        series and both windows agree at small shapes."""
        code, out, _ = run_cli(capsys, "verify", "--alpha", alpha, "--beta", "1", "--base", base)
        assert code == 0
        checks = json.loads(out)["payload"]["checks"]
        assert checks["series_vs_oracle"]["value"] <= 1e-9
        assert checks["oracle_k_convergence"]["value"] <= 1e-15

    def test_small_shape_sampling_fails_loudly(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--alpha", "1e-3", "--beta", "1",
                                 "--samples", "1000")
        assert (code, out) == (3, "")
        assert err.startswith("invgamma-benford verify: ArithmeticError: ")
        assert err.count("\n") == 1

    def test_negative_alpha_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--alpha", "-1", "--beta", "1")
        assert code == 2
        assert "alpha must be positive" in err

    def test_small_shape_uses_converged_window(self, capsys):
        # the default K=60 window is insufficient at alpha=0.1; verify widens it
        code, out, _ = run_cli(capsys, "verify", "--alpha", "0.1", "--beta", "8")
        assert code == 0
        assert json.loads(out)["payload"]["passed"] is True

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        import invgamma_benford.cli as cli_mod

        monkeypatch.setattr(cli_mod, "fb_cdf_oracle_values",
                            lambda zs, p, b, cfg: np.full(len(zs), 0.5))
        code, _, err = run_cli(capsys, "verify", "--alpha", "1", "--beta", "1")
        assert code == 1
        assert "verification failed: series_vs_oracle" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--alpha", "1", "--beta", "1",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check,value,tolerance,passed"
        assert len(lines) == 3  # two checks without sampling
        assert all(line.endswith("True") for line in lines[1:])


class TestSampleCommand:
    def test_csv_dump(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--alpha", "2", "--beta", "3",
                                 "--n", "50", "--seed", "9")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value"
        assert len(lines) == 51
        assert all(float(v) > 0 for v in lines[1:])
        assert "digit_histogram" in err

    def test_same_seed_byte_identical(self, capsys):
        args = ("sample", "--alpha", "2", "--beta", "3", "--n", "100", "--seed", "4")
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_json_histogram(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--alpha", "1", "--beta", "1",
                               "--n", "1000", "--seed", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert len(payload["values"]) == 1000
        assert sum(payload["digit_counts"]) == 1000
        assert len(payload["digit_freqs"]) == 9

    def test_validation(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--alpha", "1", "--beta", "1", "--n", "0")
        assert code == 2 and "n must be" in err


@pytest.mark.parametrize("argv", [
    # non-finite epsilon and negative seeds used to escape as tracebacks (exit 1)
    ("deviation", "--alpha", "1", "--beta", "1", "--epsilon", "nan"),
    ("cdf", "--alpha", "1", "--beta", "1", "--epsilon", "inf"),
    ("grid", "--alpha-min", "1", "--alpha-max", "2", "--alpha-steps", "2",
     "--beta-min", "1", "--beta-max", "2", "--beta-steps", "2", "--epsilon", "nan"),
    ("verify", "--alpha", "1", "--beta", "1", "--epsilon", "inf"),
    ("verify", "--alpha", "1", "--beta", "1", "--samples", "100", "--seed", "-1"),
    ("sample", "--alpha", "1", "--beta", "1", "--seed", "-1"),
    ("deviation", "--alpha", "0", "--beta", "1"),
    ("deviation", "--alpha", "1", "--beta", "nan"),
    ("deviation", "--alpha", "1", "--beta", "1", "--base", "1"),
    ("deviation", "--alpha", "1", "--beta", "1", "--epsilon", "0"),
    ("deviation", "--alpha", "1", "--beta", "1", "--grid-points", "100"),
    ("cdf", "--alpha", "1", "--beta", "1", "--points", "1"),
    ("grid", "--alpha-min", "2", "--alpha-max", "1", "--alpha-steps", "2",
     "--beta-min", "1", "--beta-max", "2", "--beta-steps", "2"),
    ("grid", "--alpha-min", "1", "--alpha-max", "2", "--alpha-steps", "0",
     "--beta-min", "1", "--beta-max", "2", "--beta-steps", "2"),
    ("verify", "--alpha", "-1", "--beta", "1"),
    ("verify", "--alpha", "1", "--beta", "1", "--samples", "-1"),
    ("sample", "--alpha", "1", "--beta", "1", "--n", "0"),
    ("sample", "--alpha", "1", "--beta", "inf"),
    # an epsilon of 1 or more certifies nothing, since |F_B(z) - z| <= 1
    ("deviation", "--alpha", "2", "--beta", "3", "--epsilon", "7"),
    ("deviation", "--alpha", "2", "--beta", "3", "--epsilon", "1"),
    ("cdf", "--alpha", "1", "--beta", "1", "--epsilon", "1"),
    ("grid", "--alpha-min", "1", "--alpha-max", "2", "--alpha-steps", "2",
     "--beta-min", "1", "--beta-max", "2", "--beta-steps", "2", "--epsilon", "7"),
    ("verify", "--alpha", "1", "--beta", "1", "--epsilon", "7"),
    ("verify", "--alpha", "1", "--beta", "1", "--epsilon", "1"),
    # float(B) overflowed past 2**1024 (a traceback, exit 1); 2**53 is the largest
    # base that float(B) holds exactly
    ("verify", "--alpha", "2", "--beta", "3", "--base", "1" + "0" * 400),
    ("sample", "--alpha", "2", "--beta", "3", "--base", "1" + "0" * 400),
    ("deviation", "--alpha", "2", "--beta", "3", "--base", str(2 ** 53 + 1)),
])
def test_bad_flag_value_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


EMIT_CASES = [
    (("deviation", "--alpha", "2", "--beta", "3"), "max_dev,argmax_z,epsilon,grid_points"),
    (("cdf", "--alpha", "2", "--beta", "3", "--points", "5"), "z,F_B,deviation"),
    (("grid", "--alpha-min", "1", "--alpha-max", "2", "--alpha-steps", "2",
      "--beta-min", "1", "--beta-max", "4", "--beta-steps", "2", "--summary"),
     "alpha,beta,max_dev"),
    (("verify", "--alpha", "1", "--beta", "1", "--samples", "1000", "--seed", "1"),
     "check,value,tolerance,passed"),
    (("sample", "--alpha", "2", "--beta", "3", "--n", "20"), "value"),
]


@pytest.mark.parametrize("argv,header", EMIT_CASES, ids=[argv[0] for argv, _ in EMIT_CASES])
def test_output_contract(capsys, argv, header):
    """JSON: one envelope on stdout and nothing on stderr.  CSV: the metadata
    line first on stderr, the header first on stdout."""
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    assert set(json.loads(out)) == {"format", "metadata", "payload"}
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    first = err.splitlines()[0]
    assert first.startswith("# ") and "tool_version=" in first
    assert out.splitlines()[0] == header


class TestParserBasics:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["deviation", "--alpha", "1"]) == 2

    def test_arithmetic_error_exits_three_with_one_line(self, capsys, monkeypatch):
        """An escaped ArithmeticError (the sampler at alpha = 1e-5) or
        OverflowError is one line on stderr and exit 3, not a traceback and
        the exit code of a failed verification."""
        import invgamma_benford.cli as cli_mod

        code, out, err = run_cli(capsys, "sample", "--alpha", "1e-5", "--beta", "1",
                                 "--n", "1000")
        assert (code, out) == (3, "")
        assert err.startswith("invgamma-benford sample: ArithmeticError: ")
        assert err.count("\n") == 1

        def overflow(*args):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli_mod, "max_deviation", overflow)
        code, out, err = run_cli(capsys, "deviation", "--alpha", "2", "--beta", "3")
        assert (code, out) == (3, "")
        assert err == "invgamma-benford deviation: OverflowError: math range error\n"

    def test_module_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "invgamma_benford", "deviation",
             "--alpha", "1", "--beta", "1"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["metadata"]["cutoff_m"] == 2

    def test_closed_pipe_exits_141_without_traceback(self):
        """A reader that stops early, as `| head -1` does, ends the command
        with 128 + SIGPIPE and no traceback."""
        with subprocess.Popen(
            [sys.executable, "-m", "invgamma_benford", "cdf", "--alpha", "2", "--beta", "3",
             "--points", "200000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            assert proc.stdout.readline() == "z,F_B,deviation\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 141
        assert "Traceback" not in err

    def test_reused_parser_prints_what_a_fresh_one_does(self, capsys, monkeypatch):
        """main keeps one parser per process; a usage error between commands
        leaves no state in it, so every stdout equals a fresh-parser run."""
        from invgamma_benford import cli

        runs = [["deviation", "--alpha", "2.5", "--beta", "3"],
                ["deviation", "--alpha", "0", "--beta", "1"],
                ["grid", "--alpha-min", "1", "--alpha-max", "3", "--alpha-steps", "2",
                 "--beta-min", "1", "--beta-max", "9", "--beta-steps", "3"],
                ["deviation", "--alpha", "2.5", "--beta", "3"]]
        shared = [run_cli(capsys, *argv) for argv in runs]
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run_cli(capsys, *argv) for argv in runs]
        assert [code for code, _, _ in shared] == [0, 2, 0, 0]
        assert shared == fresh
