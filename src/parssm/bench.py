"""Experiment harness: config parsing, solver/model sweeps, CSV reports.

A config is a single JSON document (schema 1). Sweeps are expressed as
arrays; the cross product of all sweep axes times the seed list is run for
every method entry, each run producing one CSV row with full coordinates.
Per-run failures are recorded as rows, never aborting the sweep. Outputs are
plot-ready CSV plus an optional JSON sidecar with full histories.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, models
from .core import ContractError, max_abs_diff, merit, rollout_sequential
from .fixedpoint import Damping, SolverConfig, SolverMethod, fixed_point_solve
from .trustregion import TrustRegionConfig, kalman_solve

SCHEMA_VERSION = 1
WORKERS_ENV = "PARSSM_WORKERS"


def default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass(frozen=True)
class MethodEntry:
    """One solver column of the sweep: a fixed-point method or the Kalman
    trust region (family "kalman" with its lam/mode/jacobian settings)."""

    label: str
    family: str  # "fixed" | "kalman"
    method: SolverMethod | None = None
    damping: Damping = field(default_factory=Damping)
    lam: float = 1.0
    mode: str = "filter"
    jacobian: str = "full"

    @staticmethod
    def from_dict(d: dict) -> "MethodEntry":
        name = d.get("method")
        if not name:
            raise ContractError("method entry needs a 'method' field")
        damping = Damping.parse(d["damping"]) if isinstance(d.get("damping"), str) else (
            Damping(**d["damping"]) if isinstance(d.get("damping"), dict) else Damping()
        )
        if name == "kalman":
            label = d.get("label") or "kalman"
            return MethodEntry(label=label, family="kalman", lam=float(d.get("lambda", 1.0)),
                               mode=d.get("mode", "filter"), jacobian=d.get("jacobian", "full"),
                               damping=damping)
        method = SolverMethod.parse(name)
        label = d.get("label") or (f"{name}+{damping.kind}" if damping.kind != "none" else name)
        return MethodEntry(label=label, family="fixed", method=method, damping=damping)


# sweep keys routed to the solver rather than the model constructor
_SOLVER_KEYS = {"T", "lambda"}


@dataclass
class ExperimentConfig:
    name: str
    model_kind: str
    model_params: dict
    methods: list
    sweep: dict
    seeds: list
    tol: float = 1e-4
    max_iters: int | None = None
    init: str = "jacobi"
    metric: str = "diff"
    window: int | None = None
    record_history: bool = False
    output: str | None = None
    workers: int | None = None
    default_T: int = 256

    def __post_init__(self):
        if not self.methods:
            raise ContractError("experiment needs a nonempty methods list")
        if self.tol <= 0:
            raise ContractError("tolerance must be positive")
        if not self.seeds:
            raise ContractError("experiment needs at least one seed")
        for key, values in self.sweep.items():
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise ContractError(f"sweep axis {key!r} must be a nonempty array")

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        if doc.get("schema") != SCHEMA_VERSION:
            raise ContractError(f"config schema must be {SCHEMA_VERSION}, got {doc.get('schema')!r}")
        model = doc.get("model") or {}
        kind = model.get("kind")
        if kind not in models.MODEL_KINDS:
            raise ContractError(f"unknown model kind {kind!r}")
        params = {k: v for k, v in model.items() if k not in ("kind", "T")}
        methods = [MethodEntry.from_dict(m) for m in doc.get("methods", [])]
        return ExperimentConfig(
            name=doc.get("name", "experiment"),
            model_kind=kind,
            model_params=params,
            methods=methods,
            sweep=doc.get("sweep", {}),
            seeds=list(doc.get("seeds", [0])),
            tol=float(doc.get("tolerance", 1e-4)),
            max_iters=doc.get("max_iters"),
            init=doc.get("init", "jacobi"),
            metric=doc.get("metric", "diff"),
            window=doc.get("window"),
            record_history=bool(doc.get("record_history", False)),
            output=doc.get("output"),
            workers=doc.get("workers"),
            default_T=int(model.get("T", 256)),
        )

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        with open(path) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as e:
                raise ContractError(f"config is not valid JSON: {e}") from None
        return ExperimentConfig.from_dict(doc)


_RECORD_FIELDS = [
    "experiment", "model", "model_params", "method", "T", "D", "seed", "lambda",
    "tolerance", "converged", "iterations", "resets", "final_err", "final_diff",
    "final_merit", "lle", "gamma", "mismatch", "pl_lower", "pl_upper",
    "elapsed", "error", "diag_error",
]


@dataclass
class RunRecord:
    """One row: full sweep coordinates plus solve and diagnostics scalars."""

    experiment: str
    model: str
    model_params: str
    method: str
    T: int
    D: int
    seed: int
    lam: float
    tolerance: float
    converged: bool = False
    iterations: int = 0
    resets: int = 0
    final_err: float = float("nan")
    final_diff: float = float("nan")
    final_merit: float = float("nan")
    lle: float = float("nan")
    gamma: float = float("nan")
    mismatch: float = float("nan")
    pl_lower: float = float("nan")
    pl_upper: float = float("nan")
    elapsed: float = float("nan")
    error: str = ""
    diag_error: str = ""
    merit_history: list | None = None
    diff_history: list | None = None

    def as_row(self) -> dict:
        return {
            "experiment": self.experiment, "model": self.model,
            "model_params": self.model_params, "method": self.method,
            "T": self.T, "D": self.D, "seed": self.seed, "lambda": self.lam,
            "tolerance": self.tolerance, "converged": int(self.converged),
            "iterations": self.iterations, "resets": self.resets,
            "final_err": self.final_err, "final_diff": self.final_diff,
            "final_merit": self.final_merit, "lle": self.lle,
            "gamma": self.gamma, "mismatch": self.mismatch,
            "pl_lower": self.pl_lower, "pl_upper": self.pl_upper,
            "elapsed": self.elapsed, "error": self.error, "diag_error": self.diag_error,
        }


def _sweep_points(cfg: ExperimentConfig):
    keys = sorted(cfg.sweep.keys())
    if not keys:
        yield {}
        return
    for combo in itertools.product(*(cfg.sweep[k] for k in keys)):
        yield dict(zip(keys, combo))


def _run_one(cfg: ExperimentConfig, entry: MethodEntry, point: dict, seed: int,
             oracle_cache: dict) -> RunRecord:
    T, params, key = _point_key(cfg, point, seed)
    lam = float(point.get("lambda", entry.lam))
    record = RunRecord(
        experiment=cfg.name, model=cfg.model_kind,
        model_params=json.dumps(params, sort_keys=True), method=entry.label,
        T=T, D=0, seed=seed, lam=lam if entry.family == "kalman" else float("nan"),
        tolerance=cfg.tol,
    )
    try:
        sys_ = models.build(cfg.model_kind, T, **params)
        record.D = sys_.dim
        oracle = oracle_cache[key]
        if isinstance(oracle, Exception):
            raise oracle.with_traceback(None)  # shared by every run at this point
        solver_cfg = SolverConfig(
            tol=cfg.tol, max_iters=cfg.max_iters, init=cfg.init, seed=seed,
            window=cfg.window, damping=entry.damping,
            record_history=cfg.record_history, metric=cfg.metric,
        )
        if entry.family == "kalman":
            report = kalman_solve(sys_, TrustRegionConfig(
                lam=lam, mode=entry.mode, jacobian=entry.jacobian, solver=solver_cfg))
        else:
            report = fixed_point_solve(sys_, solver_cfg, entry.method)
        record.converged = report.converged
        record.iterations = report.iterations
        record.resets = report.resets
        record.elapsed = report.elapsed
        record.final_diff = report.final_diff
        record.final_err = max_abs_diff(report.trajectory, oracle)
        record.final_merit = merit(sys_, report.trajectory)
        if cfg.record_history:
            record.merit_history = report.merit_history
            record.diff_history = report.diff_history
        try:
            est = diagnostics.estimate_lle(sys_, oracle, probes=3, seed=seed)
            record.lle = est.lam
            bounds = diagnostics.pl_bounds(est.lam, T=T, D=sys_.dim)
            record.pl_lower, record.pl_upper = bounds.lower, bounds.upper
            if entry.family == "fixed" and T * sys_.dim <= diagnostics.DENSE_GUARD:
                record.mismatch = diagnostics.jacobian_mismatch(sys_, oracle, entry.method)
                record.gamma = diagnostics.asymptotic_rate(sys_, oracle, entry.method)
        except Exception as e:  # diagnostics are best effort; the solve row stands
            record.diag_error = f"{type(e).__name__}: {e}"
    except Exception as e:  # crash isolation: a failed run is still a row
        record.error = f"{type(e).__name__}: {e}"
        record.converged = False
    return record


def _point_key(cfg: ExperimentConfig, point: dict, seed: int):
    T = int(point.get("T", cfg.default_T))
    params = {k: v for k, v in cfg.model_params.items()}
    params.update({k: v for k, v in point.items() if k not in _SOLVER_KEYS})
    params["seed"] = seed
    return T, params, (json.dumps(params, sort_keys=True), T)


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run the full sweep; returns records sorted by coordinates.

    Runs execute in a bounded thread pool (width from the config or the
    PARSSM_WORKERS environment variable). Oracles are rolled out serially up
    front so pool workers only read the cache; a failed rollout is cached as
    its exception and reported by every run of that point. Rows carry full
    coordinates, so scheduling order never matters.
    """
    workers = cfg.workers or default_workers()
    points = list(_sweep_points(cfg))
    oracle_cache: dict = {}
    for point in points:
        for seed in cfg.seeds:
            T, params, key = _point_key(cfg, point, seed)
            if key not in oracle_cache:
                try:
                    oracle_cache[key] = rollout_sequential(models.build(cfg.model_kind, T, **params))
                except Exception as e:  # each run of this point reports it as its row error
                    oracle_cache[key] = e
    jobs = [(entry, point, seed) for point in points for seed in cfg.seeds
            for entry in cfg.methods]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(
                lambda j: _run_one(cfg, j[0], j[1], j[2], oracle_cache), jobs))
    else:
        records = [_run_one(cfg, entry, point, seed, oracle_cache)
                   for entry, point, seed in jobs]
    records.sort(key=lambda r: (r.model_params, r.T, r.seed, r.method))
    return records


def write_csv(records, path: str):
    """RFC-4180 CSV, one header row, one row per run."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=_RECORD_FIELDS, quoting=csv.QUOTE_MINIMAL)
        writer.writeheader()
        for rec in records:
            writer.writerow(rec.as_row())


def write_sidecar(records, path: str):
    """JSON sidecar holding full merit/diff histories keyed by coordinates."""
    payload = []
    for rec in records:
        if rec.merit_history is None and rec.diff_history is None:
            continue
        payload.append({
            "model_params": rec.model_params, "method": rec.method, "T": rec.T,
            "seed": rec.seed, "merit_history": rec.merit_history,
            "diff_history": rec.diff_history,
        })
    with open(path, "w") as f:
        json.dump(payload, f, indent=1)


def run_and_write(cfg: ExperimentConfig, output: str | None = None) -> tuple:
    """Run the sweep and write CSV (+ sidecar when histories are recorded)."""
    records = run_experiment(cfg)
    out = output or cfg.output
    if out is None:
        raise ContractError("no output path given (config 'output' or --output)")
    write_csv(records, out)
    sidecar = None
    if cfg.record_history:
        sidecar = out + ".histories.json"
        write_sidecar(records, sidecar)
    return records, out, sidecar
