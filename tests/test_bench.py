"""Experiment harness: config parsing, sweep runs, CSV/JSON outputs."""

import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import parssm as P
from parssm import bench, cli

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
COLUMNS = [
    "experiment", "model", "model_params", "method", "T", "D", "seed", "lambda",
    "tolerance", "converged", "iterations", "resets", "guard_rows", "final_err", "final_diff",
    "final_merit", "lle", "gamma", "mismatch", "pl_lower", "pl_upper",
    "elapsed", "error", "diag_error",
]

# settings no run could use, each of which fails the config at load
BAD_SETTINGS = [
    {"init": "bogus"}, {"metric": "bogus"}, {"max_iters": 0}, {"tolerance": -1},
    {"methods": [{"method": "kalman", "mode": "bogus"}]},
    {"methods": [{"method": "kalman", "jacobian": "bogus"}]},
    {"methods": [{"method": "kalman", "lambda": 0}]},
    {"methods": [{"method": "kalman", "damping": "scale:0.9"}]},
    {"methods": [{"method": "newton", "lambda": 1}]},
    {"methods": [{"method": "quasi", "mode": "filter"}]},
    {"methods": [{"method": "picard", "jacobian": "full"}]},
    {"tolerance": "1e-8"}, {"max_iters": "100"},
    {"methods": [{"method": "kalman", "lambda": "0.5"}]},
    {"methods": [{"method": "quasi", "damping": "scale"}]},
    {"methods": [{"method": "quasi", "damping": "scale:abc"}]},
    {"methods": [{"method": "quasi", "damping": "clip:a:b"}]},
    {"methods": [{"method": "scaled:abc"}]},
    {"methods": [{"method": "quasi", "damping": 0.5}]},
    {"methods": [{"method": "quasi", "damping": None}]},
    {"methods": [{"method": "quasi", "damping": ["scale", 0.3]}]},
    {"max_iters": 2.5}, {"window": 2.5},
    {"window": 16}, {"tolerence": 1e-8}, {"methods": [{"method": "newton", "lamda": 3}]},
    {"tolerance": float("nan")}, {"tolerance": float("inf")},
    {"methods": [{"method": "kalman", "lambda": float("nan")}]},
    {"methods": [{"method": "kalman", "lambda": float("inf")}]},
    {"workers": "2"}, {"workers": -1}, {"workers": 0}, {"workers": 2.5}, {"workers": True},
    {"model": {"kind": "gru", "D": 3, "T": 8.7}}, {"model": {"kind": "gru", "D": 3, "T": "8"}},
    {"model": {"kind": "gru", "D": 3, "T": 0}}, {"sweep": {"T": [4.5]}}, {"sweep": {"T": [0]}},
    {"seeds": 3}, {"seeds": []}, {"seeds": [-1]}, {"seeds": [1.5]}, {"seeds": ["0"]},
    {"sweep": {"lambda": ["0.5"]}}, {"sweep": {"lambda": [True]}},
    {"methods": [{"method": "newton"}], "sweep": {"lambda": [0.5]}},
    {"methods": [{"method": "newton", "damping": "clip"}]},
    {"record_history": "false"}, {"record_history": 0},
]

# config parts of the wrong JSON type, and seeds that 'seeds' would overwrite,
# each with the message that names it
BAD_SHAPES = [
    ({"model": "affine"}, "'model' must be a JSON object"),
    ({"sweep": [1]}, "'sweep' must be a JSON object"),
    ({"methods": [5]}, "a method-entry must be a JSON object"),
    ({"methods": "newton"}, "'methods' must be a JSON array"),
    ({"model": {"kind": "affine", "alpha": 0.5, "seed": 7}}, "'seeds'"),
    ({"sweep": {"T": [8], "seed": [1, 2]}}, "'seeds'"),
    ({"methods": [{"method": 3}]}, "'method' must be a JSON string"),
    ({"methods": [{"method": ["newton"]}]}, "'method' must be a JSON string"),
    ({"methods": [{"method": "kalman", "label": 7}]}, "'label' must be a JSON string"),
    ({"methods": [{"method": "newton", "label": ["a"]}]}, "'label' must be a JSON string"),
]

# names that must be JSON strings: open() takes an integer 'output' (or true)
# as a file descriptor, and would write the CSV to stderr (or stdout)
BAD_STRINGS = [({"output": 2}, "'output' must be a JSON string"),
               ({"output": True}, "'output' must be a JSON string"),
               ({"name": 2}, "'name' must be a JSON string")]


def _tiny_config(tmp_path, **overrides):
    doc = {
        "schema": 1,
        "name": "tiny",
        "model": {"kind": "gru", "D": 3, "T": 24},
        "methods": [
            {"method": "newton"},
            {"method": "quasi", "damping": "clip:-1:1"},
            {"method": "jacobi"},
            {"method": "kalman", "lambda": 0.5},
        ],
        "sweep": {"T": [12, 24]},
        "seeds": [0, 1],
        "tolerance": 1e-8,
        "output": str(tmp_path / "out.csv"),
    }
    doc.update(overrides)
    return doc


class TestConfigParsing:
    def test_schema_required(self, tmp_path):
        with pytest.raises(P.ContractError):
            bench.ExperimentConfig.from_dict({"schema": 2})

    def test_bad_json_is_usage_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(P.ContractError):
            bench.ExperimentConfig.from_json(str(p))

    def test_round_trip(self, tmp_path):
        doc = _tiny_config(tmp_path)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        cfg = bench.ExperimentConfig.from_json(str(p))
        assert cfg.model_kind == "gru"
        assert len(cfg.methods) == 4
        assert cfg.sweep == {"T": [12, 24]}

    def test_empty_methods_rejected(self, tmp_path):
        with pytest.raises(P.ContractError):
            bench.ExperimentConfig.from_dict(_tiny_config(tmp_path, methods=[]))

    def test_empty_sweep_axis_rejected(self, tmp_path):
        with pytest.raises(P.ContractError):
            bench.ExperimentConfig.from_dict(_tiny_config(tmp_path, sweep={"T": []}))

    @pytest.mark.parametrize("bad", BAD_SETTINGS, ids=lambda d: json.dumps(d))
    def test_bad_setting_fails_at_load(self, tmp_path, bad):
        with pytest.raises(P.ContractError):
            bench.ExperimentConfig.from_dict(_tiny_config(tmp_path, **bad))

    @pytest.mark.parametrize("bad, key", [
        ({"tolerence": 1e-8}, "'tolerence'"),
        ({"methods": [{"method": "newton", "lamda": 3}]}, "'lamda'"),
    ], ids=["top-level", "method-entry"])
    def test_unknown_key_is_named(self, tmp_path, bad, key):
        with pytest.raises(P.ContractError, match=key):
            bench.ExperimentConfig.from_dict(_tiny_config(tmp_path, **bad))

    @pytest.mark.parametrize("bad", [{"init": "bogus"}, {"workers": "2"}, {"seeds": 3},
                                     {"record_history": "false"},
                                     *(bad for bad, _ in BAD_SHAPES)], ids=json.dumps)
    def test_bad_setting_exits_2(self, tmp_path, capsys, bad):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_tiny_config(tmp_path, **bad)))
        assert cli.main(["bench", "--config", str(p)]) == 2
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("bad, message", BAD_SHAPES,
                             ids=[json.dumps(bad) for bad, _ in BAD_SHAPES])
    def test_bad_shape_is_named(self, tmp_path, bad, message):
        """A part of the wrong JSON type fails at load with its name, not with
        an AttributeError or TypeError; a seed that 'seeds' would overwrite
        is refused, not dropped."""
        with pytest.raises(P.ContractError, match=message):
            bench.ExperimentConfig.from_dict(_tiny_config(tmp_path, **bad))

    @pytest.mark.parametrize("bad, message", BAD_STRINGS,
                             ids=[json.dumps(bad) for bad, _ in BAD_STRINGS])
    def test_bad_string_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch, bad, message):
        """The config fails at load, naming the key, and the sweep never
        starts, so no file descriptor is written or closed."""
        def no_run(cfg):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(bench, "run_experiment", no_run)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_tiny_config(tmp_path, **bad)))
        assert cli.main(["bench", "--config", str(p)]) == 2
        assert message in capsys.readouterr().err

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        with pytest.raises(P.ContractError, match="a config must be a JSON object"):
            bench.ExperimentConfig.from_dict([1])
        p = tmp_path / "cfg.json"
        p.write_text("[1]")
        assert cli.main(["bench", "--config", str(p)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_workers_flag_below_1_exits_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_tiny_config(tmp_path)))
        assert cli.main(["bench", "--config", str(p), "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("raw", ["abc", "-2", "2.5"])
    def test_bad_workers_flag_exits_2(self, tmp_path, capsys, raw):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_tiny_config(tmp_path)))
        assert cli.main(["bench", "--config", str(p), f"--workers={raw}"]) == 2
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_environment_does_not_set_workers(self, tmp_path, monkeypatch):
        """The pool is as wide as the config's workers or --workers, 1 when
        both are unset; no environment variable is read or checked."""
        widths, pool = [], bench.ThreadPoolExecutor

        def recorded(max_workers):
            widths.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setenv("PARSSM_WORKERS", "abc")
        monkeypatch.setattr(bench, "ThreadPoolExecutor", recorded)
        doc = _tiny_config(tmp_path, sweep={}, seeds=[0])
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert cli.main(["bench", "--config", str(p)]) == 0
        assert widths == [1]
        assert (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("quoted", [
        {"tolerance": "1e-8"}, {"methods": [{"method": "kalman", "lambda": "0.5"}]},
    ], ids=json.dumps)
    def test_quoted_number_exits_2(self, tmp_path, quoted):
        """A quoted number is a usage error (exit 2), not a runtime one (3)."""
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_tiny_config(tmp_path, **quoted)))
        assert cli.main(["bench", "--config", str(p)]) == 2

    def test_solver_keys_take_library_defaults(self, tmp_path):
        """Unset solver keys take SolverConfig's defaults, except that the
        sweep records no histories."""
        doc = _tiny_config(tmp_path)
        del doc["tolerance"]
        cfg = bench.ExperimentConfig.from_dict(doc)
        assert cfg.solver == P.SolverConfig(record_history=False)
        kalman = cfg.methods[-1].kalman
        assert (kalman.lam, kalman.mode, kalman.jacobian) == (0.5, "filter", "full")

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        bench.ExperimentConfig.from_json(str(path))


class TestRunExperiment:
    def test_rows_cover_the_grid(self, tmp_path):
        cfg = bench.ExperimentConfig.from_dict(_tiny_config(tmp_path))
        records = bench.run_experiment(cfg)
        assert len(records) == 2 * 2 * 4  # T values x seeds x methods
        assert all(r.error == "" for r in records)
        assert all(r.converged for r in records)
        for r in records:
            assert r.final_err <= 1e-6

    def test_reproducible_rows(self, tmp_path):
        cfg = bench.ExperimentConfig.from_dict(_tiny_config(tmp_path))
        a = bench.run_experiment(cfg)
        b = bench.run_experiment(cfg)
        for x, y in zip(a, b):
            assert (x.method, x.T, x.seed) == (y.method, y.T, y.seed)
            assert x.iterations == y.iterations
            assert x.resets == y.resets
            assert x.converged == y.converged
            for fx, fy in ((x.final_err, y.final_err), (x.lle, y.lle), (x.gamma, y.gamma)):
                if np.isnan(fx):
                    assert np.isnan(fy)
                else:
                    assert fx == pytest.approx(fy, abs=1e-9)

    def test_thread_pool_matches_serial(self, tmp_path):
        doc = _tiny_config(tmp_path)
        serial = bench.run_experiment(bench.ExperimentConfig.from_dict(doc))
        doc["workers"] = 4
        pooled = bench.run_experiment(bench.ExperimentConfig.from_dict(doc))
        assert [(r.method, r.T, r.seed, r.iterations) for r in serial] == \
               [(r.method, r.T, r.seed, r.iterations) for r in pooled]

    def test_crash_isolation(self, tmp_path):
        """A run that cannot even build its model still lands as a row."""
        doc = _tiny_config(tmp_path, model={"kind": "rnn", "D": 4, "T": 8},
                           sweep={"g": [0.8, -1.0]})  # g = -1 is invalid
        records = bench.run_experiment(bench.ExperimentConfig.from_dict(doc))
        good = [r for r in records if r.error == ""]
        bad = [r for r in records if r.error != ""]
        assert len(bad) == 8 and len(good) == 8
        assert all(not r.converged for r in bad)

    def test_failed_oracle_rollout_is_the_row_error(self, tmp_path, monkeypatch):
        """A model that builds but whose rollout fails reports that failure as
        the row error of every run at its point."""
        rollout = bench.rollout_sequential

        def fails_from_s0_2(sys_):
            if sys_.initial_state[0] == 2.0:
                raise P.NumericalFailure("injected rollout failure")
            return rollout(sys_)

        monkeypatch.setattr(bench, "rollout_sequential", fails_from_s0_2)
        doc = _tiny_config(tmp_path, model={"kind": "affine", "T": 8, "alpha": 0.5},
                           sweep={"s0": [1.0, 2.0]},
                           methods=[{"method": "newton"}, {"method": "picard"}], seeds=[0])
        records = bench.run_experiment(bench.ExperimentConfig.from_dict(doc))
        by_s0 = {}
        for r in records:
            by_s0.setdefault(json.loads(r.model_params)["s0"], []).append(r)
        assert all(r.error == "" and r.converged for r in by_s0[1.0])
        assert [(r.error, r.converged) for r in by_s0[2.0]] == \
               [("NumericalFailure: injected rollout failure", False)] * 2

    def test_non_finite_s0_is_the_row_error(self, tmp_path):
        """A NaN initial state is refused where the model is built."""
        doc = _tiny_config(tmp_path, model={"kind": "affine", "T": 8, "alpha": 0.5},
                           sweep={"s0": [1.0, float("nan")]}, methods=[{"method": "newton"}],
                           seeds=[0])
        records = bench.run_experiment(bench.ExperimentConfig.from_dict(doc))
        by_s0 = {json.loads(r.model_params)["s0"]: r for r in records}
        good = by_s0[1.0]
        bad = next(r for s0, r in by_s0.items() if s0 != 1.0)
        assert good.error == "" and good.converged
        assert bad.error == "ContractError: s0 must be finite, got nan"
        assert bad.converged is False

    def test_bool_model_parameter_fails_its_rows(self, tmp_path):
        """A gain of true is no gain of 1.0: the model refuses it, and the
        error column of each of its rows says so."""
        doc = _tiny_config(tmp_path, model={"kind": "rnn", "D": 3, "T": 8},
                           sweep={"g": [0.5, True]}, methods=[{"method": "newton"}], seeds=[0])
        records = bench.run_experiment(bench.ExperimentConfig.from_dict(doc))
        by_g = {json.loads(r.model_params)["g"]: r for r in records}
        assert by_g[0.5].error == "" and by_g[0.5].converged
        assert by_g[True].error == "ContractError: gain g must be a real number, got True"
        assert by_g[True].converged is False

    def test_failed_solve_is_its_row_error(self, tmp_path, capsys, monkeypatch):
        """A solve that raises leaves its row with the error and converged 0,
        the instance's other rows stand, and ``parssm bench`` counts the run."""
        solve = bench.fixed_point_solve

        def jacobi_fails(sys_, cfg, method):
            if method.kind == "jacobi":
                raise P.NumericalFailure("injected failure", t=3)
            return solve(sys_, cfg, method)

        monkeypatch.setattr(bench, "fixed_point_solve", jacobi_fails)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(_tiny_config(tmp_path, sweep={}, seeds=[0])))
        assert cli.main(["bench", "--config", str(p)]) == 0
        assert "1 runs recorded errors (see the error column)" in capsys.readouterr().out
        with open(tmp_path / "out.csv", newline="") as f:
            rows = {row["method"]: row for row in csv.DictReader(f)}
        assert sorted(rows) == ["jacobi", "kalman", "newton", "quasi+clip"]
        failed = rows.pop("jacobi")
        assert failed["error"] == "NumericalFailure: injected failure (at time index t=3)"
        assert failed["converged"] == "0"
        assert all(row["error"] == "" and row["converged"] == "1" for row in rows.values())

    def test_diagnostic_failure_is_recorded(self, tmp_path):
        """alpha = 0 makes the Jacobian chain vanish, so the exponent estimate
        fails; the solve columns still stand and the failure is named."""
        doc = _tiny_config(tmp_path, model={"kind": "affine", "T": 16},
                           sweep={"alpha": [0.0, 0.5]}, methods=[{"method": "newton"}], seeds=[0])
        records = bench.run_experiment(bench.ExperimentConfig.from_dict(doc))
        by_alpha = {json.loads(r.model_params)["alpha"]: r for r in records}
        bad, good = by_alpha[0.0], by_alpha[0.5]
        assert bad.error == "" and bad.converged and bad.final_err <= 1e-6
        assert bad.diag_error.startswith("NumericalFailure: ")
        assert np.isnan(bad.lle) and np.isnan(bad.gamma)
        assert good.diag_error == "" and np.isfinite(good.lle)

    def test_rate_diagnostics_past_the_dense_guard(self, tmp_path):
        """T*D = 5120 is past the dense oracles' guard, but the mismatch needs
        no guard and the rate's per-coordinate path needs only T <= 4096, so
        both columns are filled."""
        doc = _tiny_config(tmp_path, model={"kind": "rnn", "D": 32, "T": 160, "g": 0.8},
                           methods=[{"method": "quasi"}], sweep={}, seeds=[0])
        [row] = bench.run_experiment(bench.ExperimentConfig.from_dict(doc))
        assert row.error == "" and row.diag_error == ""
        assert np.isfinite(row.mismatch) and np.isfinite(row.gamma)

    def test_rate_refusal_is_the_diag_error(self, tmp_path):
        """At T = 5000 the rate's own guard refuses; the refusal is named in
        diag_error and the mismatch, which needs no guard, still stands."""
        doc = _tiny_config(tmp_path, model={"kind": "affine", "T": 5000, "alpha": 0.5},
                           methods=[{"method": "quasi"}], sweep={}, seeds=[0])
        [row] = bench.run_experiment(bench.ExperimentConfig.from_dict(doc))
        assert row.error == "" and row.converged
        assert np.isfinite(row.mismatch) and np.isnan(row.gamma)
        assert row.diag_error.startswith("ContractError:")

    def test_lambda_axis_checked_per_row(self, tmp_path):
        """A lambda axis sets each Kalman row's lam, and a fixed-point entry,
        which ignores it, is solved once per instance; a value the filter
        rejects fails only its own rows."""
        doc = _tiny_config(tmp_path, methods=[{"method": "newton"}, {"method": "kalman"}],
                           sweep={"lambda": [0.0, 0.5]}, seeds=[0])
        records = bench.run_experiment(bench.ExperimentConfig.from_dict(doc))
        kalman = {r.lam: r for r in records if r.method == "kalman"}
        newton = [r for r in records if r.method == "newton"]
        assert kalman[0.0].error.startswith("ContractError: lam = 0")
        assert kalman[0.5].error == "" and kalman[0.5].converged
        assert len(newton) == 1 and newton[0].error == "" and np.isnan(newton[0].lam)

    def test_one_rollout_and_estimate_per_instance(self, tmp_path, monkeypatch):
        """Each model instance (T value x seed) rolls out its oracle and
        estimates its exponent once, however many methods and lambda values
        share it."""
        calls = {"rollout": [], "lle": []}
        rollout, estimate = bench.rollout_sequential, bench.diagnostics.estimate_lle

        def counted_rollout(sys_):
            calls["rollout"].append(sys_.horizon)
            return rollout(sys_)

        def counted_estimate(sys_, traj, **kw):
            calls["lle"].append(sys_.horizon)
            return estimate(sys_, traj, **kw)

        monkeypatch.setattr(bench, "rollout_sequential", counted_rollout)
        monkeypatch.setattr(bench.diagnostics, "estimate_lle", counted_estimate)
        doc = _tiny_config(tmp_path, sweep={"T": [12, 24], "lambda": [0.5, 1.0]}, workers=2)
        records = bench.run_experiment(bench.ExperimentConfig.from_dict(doc))
        assert len(records) == 2 * 2 * (3 + 2)  # T values x seeds x (fixed point + kalman x lambda)
        assert sorted(calls["rollout"]) == sorted(calls["lle"]) == [12, 12, 24, 24]

    def test_one_true_jacobian_stack_per_fixed_point_row(self, tmp_path, monkeypatch):
        """The instance's exponent estimate and each fixed-point row's mismatch
        evaluate the true Jacobians once each; the row's gamma equals
        asymptotic_rate bit for bit."""
        sys_ = P.models.build("rnn", 16, D=4, g=0.8, seed=0)
        calls, inner = [], type(sys_).jacobian_batch

        def counted(self, ts, S):
            calls.append(len(ts))
            return inner(self, ts, S)

        monkeypatch.setattr(type(sys_), "jacobian_batch", counted)
        doc = _tiny_config(tmp_path, model={"kind": "rnn", "D": 4, "T": 16, "g": 0.8},
                           methods=[{"method": "quasi"}, {"method": "jacobi"}],
                           sweep={}, seeds=[0])
        records = bench.run_experiment(bench.ExperimentConfig.from_dict(doc))
        assert calls == [16, 16, 16]  # the exponent, then one mismatch per row
        oracle = P.rollout_sequential(sys_)
        for row, method in zip(records, [P.JACOBI, P.QUASI_DIAGONAL]):  # sorted by label
            assert row.diag_error == "" and row.gamma == P.asymptotic_rate(sys_, oracle, method)

    def test_rate_columns_are_the_public_diagnostics(self, tmp_path, monkeypatch):
        """Outside its solve, a Picard row never evaluates the Jacobian
        diagonals, and a quasi row evaluates them at the oracle once for its
        mismatch and once for its gamma. The columns equal the public
        diagnostics bit for bit."""
        sys_ = P.models.build("gru", 16, D=4, seed=0)
        calls, solving = [], []
        inner_diag, inner_solve = type(sys_).diag_jacobian_batch, bench.MethodEntry.solve

        def counted(self, ts, S, F=None):
            if not solving:
                calls.append(len(ts))
            return inner_diag(self, ts, S, F=F)

        def solve(self, *args):
            solving.append(self.label)
            try:
                return inner_solve(self, *args)
            finally:
                solving.pop()

        monkeypatch.setattr(type(sys_), "diag_jacobian_batch", counted)
        monkeypatch.setattr(bench.MethodEntry, "solve", solve)
        doc = _tiny_config(tmp_path, model={"kind": "gru", "D": 4, "T": 16},
                           methods=[{"method": "quasi"}, {"method": "picard"}],
                           sweep={}, seeds=[0])
        records = bench.run_experiment(bench.ExperimentConfig.from_dict(doc))
        assert calls == [16, 16]
        monkeypatch.undo()
        oracle = P.rollout_sequential(sys_)
        for row, method in zip(records, [P.PICARD, P.QUASI_DIAGONAL]):  # sorted by label
            assert row.diag_error == ""
            assert row.mismatch == P.jacobian_mismatch(sys_, oracle, method)
            assert row.gamma == bench.diagnostics.rate_factor(sys_, oracle, method) * row.mismatch
            assert row.gamma == P.asymptotic_rate(sys_, oracle, method)

    def test_kalman_rows_name_their_missing_rate(self, tmp_path):
        """A Kalman row has no mismatch or rate, and says so in diag_error;
        its exponent columns stand."""
        doc = _tiny_config(tmp_path, methods=[{"method": "kalman", "lambda": 0.5}],
                           sweep={}, seeds=[0])
        [row] = bench.run_experiment(bench.ExperimentConfig.from_dict(doc))
        assert row.error == "" and np.isfinite(row.lle) and np.isfinite(row.pl_upper)
        assert np.isnan(row.mismatch) and np.isnan(row.gamma)
        assert row.diag_error == bench.KALMAN_RATE_NOTE

    def test_kalman_row_keeps_the_estimate_failure(self, tmp_path):
        """When the exponent estimate fails, a Kalman row names that failure,
        as the fixed-point rows of the instance do."""
        doc = _tiny_config(tmp_path, model={"kind": "affine", "T": 16, "alpha": 0.0},
                           methods=[{"method": "newton"}, {"method": "kalman", "lambda": 0.5}],
                           sweep={}, seeds=[0])
        kalman, newton = bench.run_experiment(bench.ExperimentConfig.from_dict(doc))  # sorted
        assert kalman.method == "kalman" and kalman.error == ""
        assert kalman.diag_error.startswith("NumericalFailure: ")
        assert kalman.diag_error == newton.diag_error

    def test_final_diff_without_history(self, tmp_path):
        """A sweep records no histories, yet each row carries the last pass's
        successive difference: the value the history of the same solve ends with."""
        doc = _tiny_config(tmp_path, methods=[{"method": "newton"}], sweep={}, seeds=[0])
        cfg = bench.ExperimentConfig.from_dict(doc)
        [row] = bench.run_experiment(cfg)
        sys_ = P.models.build("gru", 24, D=3, seed=0)
        report = P.fixed_point_solve(sys_, replace(cfg.solver, record_history=True), P.NEWTON)
        assert row.iterations == report.iterations
        assert np.isfinite(row.final_diff) and row.final_diff == report.diff_history[-1]

    def test_model_param_sweep_reaches_constructor(self, tmp_path):
        doc = _tiny_config(tmp_path, model={"kind": "rnn", "D": 4, "T": 16},
                           sweep={"g": [0.5, 1.5]}, methods=[{"method": "newton"}])
        records = bench.run_experiment(bench.ExperimentConfig.from_dict(doc))
        gs = sorted({json.loads(r.model_params)["g"] for r in records})
        assert gs == [0.5, 1.5]


class TestOutputs:
    def test_csv_shape_and_header(self, tmp_path):
        doc = _tiny_config(tmp_path)
        cfg = bench.ExperimentConfig.from_dict(doc)
        records, out, sidecar = bench.run_and_write(cfg)
        with open(out, newline="") as f:
            header, *rows = list(csv.reader(f))
        assert header == COLUMNS
        assert len(rows) == len(records)
        assert sidecar is None  # histories off by default

    def test_sidecar_with_histories(self, tmp_path):
        doc = _tiny_config(tmp_path, record_history=True,
                           methods=[{"method": "newton"}], sweep={}, seeds=[0])
        cfg = bench.ExperimentConfig.from_dict(doc)
        records, out, sidecar = bench.run_and_write(cfg)
        payload = json.loads(open(sidecar).read())
        assert len(payload) == 1
        assert len(payload[0]["merit_history"]) == records[0].iterations
        assert payload[0]["front_history"] == records[0].front_history
        assert len(records[0].front_history) == records[0].iterations

    def test_sidecar_entries_carry_lambda(self, tmp_path):
        """Each kalman entry of a lambda sweep names its lambda, so no two
        sidecar entries share their coordinates; a fixed-point entry has none."""
        doc = _tiny_config(tmp_path, record_history=True, sweep={"lambda": [0.5, 1.0]},
                           methods=[{"method": "newton"}, {"method": "kalman"}], seeds=[0])
        records, _, sidecar = bench.run_and_write(bench.ExperimentConfig.from_dict(doc))
        payload = json.loads(open(sidecar).read())
        keys = [(e["model_params"], e["method"], e["T"], e["seed"], e["lambda"]) for e in payload]
        assert len(set(keys)) == len(keys) == len(records) == 3
        by_lambda = {e["lambda"]: e for e in payload}
        assert set(by_lambda) == {None, 0.5, 1.0}
        for rec in records:
            entry = by_lambda[None if np.isnan(rec.lam) else rec.lam]
            assert entry["method"] == rec.method
            assert entry["merit_history"] == rec.merit_history

    def test_quoting_is_rfc4180(self, tmp_path):
        """Fields containing commas (the params JSON) survive a round trip."""
        doc = _tiny_config(tmp_path, methods=[{"method": "newton"}], seeds=[0], sweep={})
        cfg = bench.ExperimentConfig.from_dict(doc)
        records, out, _ = bench.run_and_write(cfg)
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert json.loads(rows[0]["model_params"]) == json.loads(records[0].model_params)


class TestCliAgreement:
    @pytest.mark.parametrize("flags,entry", [
        (["--method", "newton"], {"method": "newton"}),
        (["--method", "kalman", "--lambda", "0.5"], {"method": "kalman", "lambda": 0.5}),
    ])
    def test_solve_matches_one_row_sweep(self, tmp_path, capsys, flags, entry):
        """`parssm solve` and a one-row sweep with the same model, seed and
        settings run the same solve."""
        assert cli.main(["solve", "--model", "gru", "--D", "3", "-T", "24", "--seed", "1",
                         "--tol", "1e-8", "--init", "normal", "--json", *flags]) == 0
        payload = json.loads(capsys.readouterr().out)
        doc = _tiny_config(tmp_path, methods=[entry], sweep={}, seeds=[1], init="normal")
        [row] = bench.run_experiment(bench.ExperimentConfig.from_dict(doc))
        assert row.error == ""
        assert (row.iterations, row.converged) == (payload["iterations"], payload["converged"])


class TestUsageErrors:
    def test_method_entry_needs_a_method(self):
        with pytest.raises(P.ContractError, match="needs a 'method' field"):
            bench.MethodEntry.from_dict({"label": "x"})

    def test_unknown_model_kind(self, tmp_path):
        doc = _tiny_config(tmp_path, model={"kind": "bogus", "T": 8})
        with pytest.raises(P.ContractError, match="unknown model kind 'bogus'"):
            bench.ExperimentConfig.from_dict(doc)

    def test_run_and_write_needs_an_output_path(self, tmp_path):
        doc = _tiny_config(tmp_path, model={"kind": "affine", "T": 4, "alpha": 0.5}, sweep={},
                           methods=[{"method": "newton"}], seeds=[0])
        del doc["output"]
        with pytest.raises(P.ContractError, match="no output path given"):
            bench.run_and_write(bench.ExperimentConfig.from_dict(doc))
