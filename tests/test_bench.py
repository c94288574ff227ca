"""Experiment harness: config parsing, sweep runs, CSV/JSON outputs."""

import csv
import json

import numpy as np
import pytest

import parssm as P
from parssm import bench


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

    def test_failed_oracle_rollout_is_the_row_error(self, tmp_path):
        """A model that builds but whose rollout fails reports that failure as
        the row error of every run at its point."""
        doc = _tiny_config(tmp_path, model={"kind": "affine", "T": 8, "alpha": 0.5},
                           sweep={"s0": [1.0, float("nan")]}, methods=[{"method": "newton"}],
                           seeds=[0])
        records = bench.run_experiment(bench.ExperimentConfig.from_dict(doc))
        by_s0 = {json.loads(r.model_params)["s0"]: r for r in records}
        good = by_s0[1.0]
        bad = next(r for s0, r in by_s0.items() if s0 != 1.0)
        assert good.error == "" and good.converged
        assert bad.error == "ContractError: initial state must be finite"
        assert bad.converged is False

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
            rows = list(csv.DictReader(f))
        assert len(rows) == len(records)
        assert set(bench._RECORD_FIELDS) == set(rows[0].keys())
        assert sidecar is None  # histories off by default

    def test_sidecar_with_histories(self, tmp_path):
        doc = _tiny_config(tmp_path, record_history=True,
                           methods=[{"method": "newton"}], sweep={}, seeds=[0])
        cfg = bench.ExperimentConfig.from_dict(doc)
        records, out, sidecar = bench.run_and_write(cfg)
        payload = json.loads(open(sidecar).read())
        assert len(payload) == 1
        assert len(payload[0]["merit_history"]) == records[0].iterations

    def test_quoting_is_rfc4180(self, tmp_path):
        """Fields containing commas (the params JSON) survive a round trip."""
        doc = _tiny_config(tmp_path, methods=[{"method": "newton"}], seeds=[0], sweep={})
        cfg = bench.ExperimentConfig.from_dict(doc)
        records, out, _ = bench.run_and_write(cfg)
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert json.loads(rows[0]["model_params"]) == json.loads(records[0].model_params)
