"""CLI surface: subcommands, exit codes, machine-readable output."""

import json
import re
import shlex
from pathlib import Path

import pytest

import parssm as P
from parssm.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent


def _documented_commands():
    """The ``parssm ...`` lines of README.md's CLI section, each line once."""
    section = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return list(dict.fromkeys(line for line in block.splitlines() if line.startswith("parssm ")))


class TestSolve:
    def test_s5_newton_single_iteration(self, capsys):
        code = main(["solve", "--model", "s5", "--method", "newton", "-T", "1000",
                     "--metric", "merit", "--tol", "1e-18", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["iterations"] == 1
        assert payload["converged"] is True
        assert payload["final_err_vs_oracle"] <= 1e-8

    def test_kalman_method(self, capsys):
        code = main(["solve", "--model", "gru", "--D", "3", "-T", "32",
                     "--method", "kalman", "--lambda", "0.5", "--tol", "1e-8", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True

    def test_rows_worked_frac(self, capsys):
        """Sum over passes of the rows past the front the pass started from,
        over iterations x T: one whole pass on S5 with Newton, and less than
        the whole trajectory per pass once Kalman passes freeze rows."""
        main(["solve", "--model", "s5", "--method", "newton", "-T", "64",
              "--metric", "merit", "--tol", "1e-18", "--json"])
        assert json.loads(capsys.readouterr().out)["rows_worked_frac"] == 1.0
        args = ["--model", "lorenz96", "-T", "128", "--seed", "51", "--method", "kalman",
                "--lambda", "0.01", "--tol", "1e-6", "--init", "normal"]
        main(["solve", *args, "--json"])
        payload = json.loads(capsys.readouterr().out)
        sys_ = P.models.build("lorenz96", 128, seed=51)
        cfg = P.TrustRegionConfig(lam=0.01, solver=P.SolverConfig(tol=1e-6, init="normal",
                                                                  seed=51))
        rep = P.kalman_solve(sys_, cfg)
        started = [0] + rep.front_history[:-1]
        assert payload["iterations"] == rep.iterations
        assert payload["rows_worked_frac"] == sum(128 - f for f in started) / (rep.iterations * 128)
        assert 0.0 < payload["rows_worked_frac"] < 1.0

    def test_guard_rows(self, capsys):
        """Picard's iterates on S5 pass the overflow guard: the count of rows
        linearized at 0 is printed next to ``resets``, which stays 0."""
        main(["solve", "--model", "s5", "--method", "picard", "-T", "1000",
              "--metric", "merit", "--tol", "1e-18", "--json"])
        payload = json.loads(capsys.readouterr().out)
        rep = P.fixed_point_solve(P.models.build("s5", 1000, seed=0),
                                  P.SolverConfig(tol=1e-18, metric="merit"), P.PICARD)
        assert payload["resets"] == 0 and payload["guard_rows"] == rep.guard_rows > 0

    def test_human_readable_default(self, capsys):
        code = main(["solve", "--model", "affine", "--alpha", "0.5", "-T", "16"])
        assert code == 0
        assert "iterations:" in capsys.readouterr().out


class TestDiagnose:
    def test_picard_norm_T1(self, capsys):
        assert main(["diagnose", "picard-norm", "-T", "1"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(1.0)

    def test_pl_bounds(self, capsys):
        assert main(["diagnose", "pl-bounds", "--lle", "0.0", "-T", "2", "-D", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower"] == pytest.approx(0.5)
        assert payload["upper"] == pytest.approx(0.816496580927726)

    def test_basin(self, capsys):
        assert main(["diagnose", "basin", "--mu", "1.0", "--L", "4.0"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.5)

    def test_gamma_jacobi_scalar_affine(self, capsys):
        assert main(["diagnose", "gamma", "--model", "affine", "--alpha", "0.3",
                     "-T", "32", "--method", "jacobi"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.3, abs=1e-10)

    def test_mismatch_prints_jacobian_mismatch(self, capsys):
        assert main(["diagnose", "mismatch", "--model", "gru", "--D", "3", "-T", "16",
                     "--method", "quasi"]) == 0
        sys_ = P.models.build("gru", 16, D=3)
        want = P.diagnostics.jacobian_mismatch(sys_, P.rollout_sequential(sys_),
                                               P.SolverMethod.parse("quasi"))
        assert want > 0.0
        assert float(capsys.readouterr().out) == want


class TestOracle:
    def test_lm_smoother(self, capsys):
        assert main(["oracle", "lm-smoother", "-T", "16", "-D", "3", "--lambda", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] and payload["max_deviation"] <= 1e-8



class TestLle:
    def test_constant_contraction(self, capsys):
        import numpy as np

        assert main(["lle", "--model", "affine", "--alpha", "0.5", "-T", "64"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lle"] == pytest.approx(np.log(0.5), abs=1e-12)


class TestBenchCommand:
    def test_bench_writes_csv(self, tmp_path, capsys):
        cfg = {
            "schema": 1, "name": "cli-smoke",
            "model": {"kind": "affine", "alpha": 0.5, "T": 16},
            "methods": [{"method": "newton"}, {"method": "picard"}],
            "sweep": {}, "seeds": [0], "tolerance": 1e-8,
            "output": str(tmp_path / "rows.csv"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["bench", "--config", str(path)]) == 0
        assert (tmp_path / "rows.csv").exists()
        assert "wrote 2 rows" in capsys.readouterr().out


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert main(["solve", "--model", "unknown-kind"]) == 2

    def test_bad_config_is_2(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{")
        assert main(["bench", "--config", str(p)]) == 2

    @pytest.mark.parametrize("flags", [
        ["--model", "rnn", "--D", "4", "--g", "-2.0"],
        ["--model", "rnn", "--D", "4", "--g", "nan"],
        ["--model", "rnn", "--D", "4", "--g", "inf"],
        ["--model", "lorenz96", "--dt", "inf"],
        ["--model", "twowell", "--eps", "inf"],
        ["--model", "gru", "--D", "3", "--damping", "scale"],
        ["--model", "gru", "--D", "3", "--damping", "scale:abc"],
        ["--model", "gru", "--D", "3", "--method", "scaled:abc"],
        ["--model", "gru", "--D", "3", "--method", "quasi", "--damping", "clip:a:b"],
        ["--model", "affine", "--alpha", "0.5", "--tol", "nan"],
        ["--model", "affine", "--alpha", "0.5", "--tol", "inf"],
        ["--model", "lorenz96", "--method", "kalman", "--lambda", "nan"],
        ["--model", "lorenz96", "--method", "kalman", "--lambda", "inf"],
        ["--model", "lorenz96", "--method", "kalman", "--lambda", "1e300"],
    ], ids=" ".join)
    def test_bad_flag_value_is_2(self, flags, capsys):
        assert main(["solve", *flags, "-T", "16"]) == 2

    @pytest.mark.parametrize("argv", [
        ["lle", "--model", "rnn", "--D", "4", "--g", "inf"],
        ["diagnose", "gamma", "--model", "lorenz96", "--dt", "inf", "--method", "quasi"],
    ], ids=" ".join)
    def test_non_finite_model_parameter_is_2(self, argv, capsys):
        assert main([*argv, "-T", "16"]) == 2

    @pytest.mark.parametrize("argv", [
        ["diagnose", "pl-bounds", "--lle", "-0.3", "-T", "512", "-D", "0"],
        ["diagnose", "pl-bounds", "--lle", "0", "-T", "512", "-D", "-3"],
        ["diagnose", "pl-bounds", "--lle", "nan", "-T", "512"],
        ["diagnose", "pl-bounds", "--lle", "0.5", "-T", "512", "--a-burn", "inf"],
        ["diagnose", "basin", "--mu", "nan", "--L", "1"],
        ["solve", "--model", "rnn", "--D", "4", "--g", "0.5", "-T", "8", "--seed", "-1"],
        ["lle", "--model", "rnn", "--D", "4", "--g", "0.5", "-T", "8", "--probe-seed", "-3"],
    ], ids=" ".join)
    def test_bad_diagnostic_number_or_seed_is_2(self, argv, capsys):
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["type"] == "usage"

    @pytest.mark.parametrize("flags", [["--lambda", "0.5"], ["--mode", "filter"],
                                       ["--jac", "full"], ["--damping", "scale:0.5"]])
    def test_setting_the_method_ignores_is_2(self, flags, capsys):
        """Kalman flags on a fixed-point method, and damping on the Kalman
        method, are rejected rather than ignored."""
        method = "kalman" if flags[0] == "--damping" else "picard"
        assert main(["solve", "--model", "affine", "--alpha", "0.5", "-T", "8",
                     "--method", method, *flags]) == 2

    def test_window_flag_is_a_usage_error(self, capsys):
        """Every pass works on the rows past the frozen front; there is no
        window to set (a "window" config key fails the same way)."""
        assert main(["solve", "--model", "affine", "-T", "8", "--window", "4"]) == 2
        assert "--window" in capsys.readouterr().err

    def test_runtime_failure_is_3(self, tmp_path, capsys):
        assert main(["bench", "--config", str(tmp_path / "missing.json")]) == 3
        err = capsys.readouterr().err
        assert json.loads(err)["type"]


@pytest.mark.parametrize("line", _documented_commands())
def test_readme_command_parses(line):
    """Every command the README documents parses; none is run."""
    build_parser().parse_args(shlex.split(line)[1:])
