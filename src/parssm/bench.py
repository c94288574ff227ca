"""Experiment harness: config parsing, solver/model sweeps, CSV reports.

A config is a single JSON document (schema 1). Sweeps are expressed as
arrays; each model instance (one combination of the model axes, T among
them, and one seed) is run for every method entry, and a kalman entry once
per value of the lambda axis. Each run is one CSV row with full coordinates.
Per-run failures are recorded as rows, never aborting the sweep. Outputs are
plot-ready CSV plus an optional JSON sidecar with full histories.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import diagnostics, models
from .core import (ContractError, max_abs_diff, merit, require_int, require_real,
                   rollout_sequential)
from .fixedpoint import (Damping, SolveReport, SolverConfig, SolverMethod, check_damping,
                         fixed_point_solve)
from .trustregion import TrustRegionConfig, kalman_solve

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class MethodEntry:
    """One solver column of the sweep: a fixed-point method with its damping,
    or the Kalman trust region with its ``TrustRegionConfig``."""

    label: str
    method: SolverMethod | None = None
    damping: Damping = field(default_factory=Damping)
    kalman: TrustRegionConfig | None = None

    @staticmethod
    def from_dict(d: dict) -> "MethodEntry":
        _reject_unknown(d, _ENTRY_KEYS, "method-entry")
        name = d.get("method")
        if not name:
            raise ContractError("method entry needs a 'method' field")
        damping = d.get("damping", "none")
        if not isinstance(damping, str):
            raise ContractError(f"damping must be a string such as 'scale:0.3', got {damping!r}")
        damping = Damping.parse(damping)
        given = [key for key in _KALMAN_KEYS if key in d]
        if name == "kalman":
            kalman = TrustRegionConfig(**{_KALMAN_KEYS[key]: d[key] for key in given},
                                       solver=SolverConfig(damping=damping))
            return MethodEntry(label=d.get("label") or "kalman", kalman=kalman)
        if given:
            raise ContractError(f"method {name!r} takes no {', '.join(given)}: "
                                "they set the kalman method")
        method = SolverMethod.parse(name)
        check_damping(method, damping)
        label = d.get("label") or (f"{name}+{damping.kind}" if damping.kind != "none" else name)
        return MethodEntry(label=label, method=method, damping=damping)

    def solve(self, sys_, solver: SolverConfig) -> SolveReport:
        """Run this entry's solver on ``sys_`` under the shared settings ``solver``."""
        solver = replace(solver, damping=self.damping)
        if self.kalman is not None:
            return kalman_solve(sys_, replace(self.kalman, solver=solver))
        return fixed_point_solve(sys_, solver, self.method)


# method-entry keys of the kalman method, and the TrustRegionConfig fields they set
_KALMAN_KEYS = {"lambda": "lam", "mode": "mode", "jacobian": "jacobian"}
_ENTRY_KEYS = {"method", "damping", "label", *_KALMAN_KEYS}
# config keys passed on to SolverConfig, and the fields they set
_SOLVER_CONFIG_KEYS = {"tolerance": "tol", "max_iters": "max_iters", "init": "init",
                       "metric": "metric", "record_history": "record_history"}
_CONFIG_KEYS = {"schema", "name", "model", "methods", "sweep", "seeds", "output", "workers",
                *_SOLVER_CONFIG_KEYS}
# the diag_error of a kalman row: the rate theory covers fixed-point methods
KALMAN_RATE_NOTE = "mismatch and gamma are defined for the fixed-point methods only"


def _reject_unknown(d: dict, known: set, where: str):
    """A part that is no JSON object, or a key no setting reads, is a usage error."""
    if not isinstance(d, dict):
        raise ContractError(f"a {where} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - known)
    if unknown:
        raise ContractError(f"unknown {where} key {', '.join(map(repr, unknown))}")


@dataclass
class ExperimentConfig:
    """One sweep; ``solver`` holds the settings all its runs share."""

    name: str
    model_kind: str
    model_params: dict
    methods: list
    sweep: dict
    seeds: list
    solver: SolverConfig = field(default_factory=lambda: SolverConfig(record_history=False))
    output: str | None = None
    workers: int | None = None
    default_T: int = 256

    def __post_init__(self):
        if not self.methods:
            raise ContractError("experiment needs a nonempty methods list")
        if "seed" in self.model_params or "seed" in self.sweep:
            raise ContractError("an instance's seed comes from 'seeds', not 'model' or 'sweep'")
        for key, values in [("seeds", self.seeds), *self.sweep.items()]:
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise ContractError(f"{key!r} must be a nonempty array, got {values!r}")
        for seed in self.seeds:
            require_int("a seed", seed, 0)
        for T in [self.default_T, *self.sweep.get("T", ())]:
            require_int("the horizon T", T, 1)
        for lam in self.sweep.get("lambda", ()):
            require_real("a sweep lambda", lam)  # its range is each Kalman row's check
        if "lambda" in self.sweep and all(m.kalman is None for m in self.methods):
            raise ContractError("a 'lambda' sweep axis needs a kalman entry: other methods ignore it")
        if self.workers is not None:
            require_int("workers", self.workers, 1)

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        _reject_unknown(doc, _CONFIG_KEYS, "config")
        if doc.get("schema") != SCHEMA_VERSION:
            raise ContractError(f"config schema must be {SCHEMA_VERSION}, got {doc.get('schema')!r}")
        for key, kind, name in [("model", dict, "object"), ("methods", list, "array"),
                                ("sweep", dict, "object"), ("name", str, "string"),
                                ("output", str, "string")]:
            if key in doc and not isinstance(doc[key], kind):
                raise ContractError(f"{key!r} must be a JSON {name}, got {doc[key]!r}")
        model = doc.get("model") or {}
        kind = model.get("kind")
        if kind not in models.MODEL_KINDS:
            raise ContractError(f"unknown model kind {kind!r}")
        params = {k: v for k, v in model.items() if k not in ("kind", "T")}
        methods = [MethodEntry.from_dict(m) for m in doc.get("methods", [])]
        solver = {k: doc[key] for key, k in _SOLVER_CONFIG_KEYS.items() if key in doc}
        return ExperimentConfig(
            name=doc.get("name", "experiment"),
            model_kind=kind,
            model_params=params,
            methods=methods,
            sweep=doc.get("sweep", {}),
            seeds=doc.get("seeds", [0]),
            solver=SolverConfig(**{"record_history": False, **solver}),
            output=doc.get("output"),
            workers=doc.get("workers"),
            default_T=model.get("T", 256),
        )

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        with open(path) as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as e:
                raise ContractError(f"config is not valid JSON: {e}") from None
        return ExperimentConfig.from_dict(doc)


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
    guard_rows: int = 0
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
    front_history: list | None = None

    def as_row(self) -> dict:
        row = {name: getattr(self, "lam" if name == "lambda" else name) for name in _RECORD_FIELDS}
        row["converged"] = int(self.converged)
        return row


# the CSV columns, in order: every scalar field, with lam written as lambda
_RECORD_FIELDS = ["lambda" if f.name == "lam" else f.name for f in fields(RunRecord)
                  if not f.name.endswith("_history")]
# the SolveReport fields a row copies, and those it copies when histories are recorded
_REPORT_FIELDS = ("converged", "iterations", "resets", "guard_rows", "elapsed", "final_diff")
_HISTORIES = ("merit_history", "diff_history", "front_history")


def _instances(cfg: ExperimentConfig):
    """(T, model params) of each instance: a combination of the model axes and a seed."""
    axes = sorted(k for k in cfg.sweep if k != "lambda")
    for combo in itertools.product(*(cfg.sweep[k] for k in axes)):
        point = dict(zip(axes, combo))
        T = point.pop("T", cfg.default_T)
        for seed in cfg.seeds:
            yield T, {**cfg.model_params, **point, "seed": seed}


def _describe(e: Exception) -> str:
    return f"{type(e).__name__}: {e}"


def _run_instance(cfg: ExperimentConfig, T: int, params: dict) -> list:
    """Every row of one model instance. The model is built, its oracle rolled
    out and its exponent and PL bounds estimated once; then each fixed-point
    entry is solved once, and each kalman entry once per lambda axis value."""
    seed, records, runs = params["seed"], [], []
    for i, lam in enumerate(cfg.sweep.get("lambda", [None])):
        for entry in (m for m in cfg.methods if i == 0 or m.kalman is not None):
            record = RunRecord(
                experiment=cfg.name, model=cfg.model_kind,
                model_params=json.dumps(params, sort_keys=True), method=entry.label,
                T=T, D=0, seed=seed, lam=float("nan"), tolerance=cfg.solver.tol,
            )
            records.append(record)
            try:  # a lambda axis value overrides the entry's own and fails only its rows
                if entry.kalman is not None:
                    record.lam = float(entry.kalman.lam if lam is None else lam)
                    entry = replace(entry, kalman=replace(entry.kalman, lam=record.lam))
                runs.append((record, entry))
            except ContractError as e:
                record.error = _describe(e)
    try:
        sys_ = models.build(cfg.model_kind, T, **params)
        for record, _ in runs:
            record.D = sys_.dim
        oracle = rollout_sequential(sys_)
    except Exception as e:  # crash isolation: every row of the instance reports it
        for record, _ in runs:
            record.error = _describe(e)
        return records
    diag = {}  # the instance's exponent columns, or the failure that stopped them
    try:
        diag["lle"] = diagnostics.estimate_lle(sys_, oracle, probes=3, seed=seed).lam
        bounds = diagnostics.pl_bounds(diag["lle"], T=T, D=sys_.dim)
        diag.update(pl_lower=bounds.lower, pl_upper=bounds.upper)
    except Exception as e:  # diagnostics are best effort; the solve rows stand
        diag["diag_error"] = _describe(e)
    for record, entry in runs:
        try:
            report = entry.solve(sys_, replace(cfg.solver, seed=seed))
            for name in _REPORT_FIELDS + (_HISTORIES if cfg.solver.record_history else ()):
                setattr(record, name, getattr(report, name))
            record.final_err = max_abs_diff(report.trajectory, oracle)
            record.final_merit = merit(sys_, report.trajectory)
        except Exception as e:  # crash isolation: a failed run is still a row
            record.error, record.converged = _describe(e), False
            continue
        vars(record).update(diag)
        if not record.diag_error and entry.kalman is not None:
            record.diag_error = KALMAN_RATE_NOTE
        elif not record.diag_error:
            try:  # one evaluation of the transitions serves both columns
                with np.errstate(all="ignore"):
                    transitions = diagnostics._transitions_at(sys_, oracle, entry.method)
                    record.mismatch = diagnostics._mismatch_at(sys_, oracle, transitions)
                    record.gamma = diagnostics._factor_at(oracle, transitions) * record.mismatch
            except Exception as e:
                record.diag_error = _describe(e)
    return records


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run the full sweep; returns records sorted by coordinates. Model
    instances, each rolling out its own oracle, run in a thread pool as wide
    as the config's workers, 1 when unset; rows carry full coordinates, so
    scheduling order never matters."""
    with ThreadPoolExecutor(max_workers=cfg.workers or 1) as pool:
        per_instance = pool.map(lambda inst: _run_instance(cfg, *inst), _instances(cfg))
    return sorted(itertools.chain.from_iterable(per_instance),
                  key=lambda r: (r.model_params, r.T, r.seed, r.method))


def write_csv(records, path: str):
    """RFC-4180 CSV, one header row, one row per run."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=_RECORD_FIELDS, quoting=csv.QUOTE_MINIMAL)
        writer.writeheader()
        for rec in records:
            writer.writerow(rec.as_row())


def write_sidecar(records, path: str):
    """JSON sidecar holding full merit/diff/front histories keyed by coordinates."""
    payload = [{"model_params": rec.model_params, "method": rec.method, "T": rec.T,
                "seed": rec.seed, "lambda": None if math.isnan(rec.lam) else rec.lam,
                **{name: getattr(rec, name) for name in _HISTORIES}}
               for rec in records if rec.merit_history is not None]
    with open(path, "w") as f:
        json.dump(payload, f, indent=1)


def run_and_write(cfg: ExperimentConfig, output: str | None = None) -> tuple:
    """Run the sweep and write CSV (+ sidecar when histories are recorded)."""
    records = run_experiment(cfg)
    out = output or cfg.output
    if out is None:
        raise ContractError("no output path given (config 'output' or --output)")
    write_csv(records, out)
    sidecar = out + ".histories.json" if cfg.solver.record_history else None
    if sidecar:
        write_sidecar(records, sidecar)
    return records, out, sidecar
