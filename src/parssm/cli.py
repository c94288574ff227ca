"""Command-line interface.

Subcommands: solve (one model + method), bench (sweep from a JSON config),
lle (exponent estimate), diagnose (conditioning quantities), oracle (dense
small-scale equivalence checks). Exit codes: 0 success, 2 usage error,
3 runtime failure (with a machine-readable JSON error on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

import numpy as np

from . import bench, diagnostics, models
from .core import ContractError, Trajectory, max_abs_diff, merit, rollout_sequential
from .fixedpoint import Damping, SolverConfig, SolverMethod, fixed_point_solve
from .pscan import AffineOp, Transition, affine_compose, parallel_scan
from .trustregion import TrustRegionConfig, kalman_solve, kalman_step, lm_step_dense

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3

_MODEL_PARAM_FLAGS = ("alpha", "g", "D", "eps", "r", "F", "dt", "s0")


def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("--model", "-m", required=True, choices=sorted(models.MODEL_KINDS))
    p.add_argument("-T", type=int, default=256, help="horizon (default 256)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float)
    p.add_argument("--g", type=float)
    p.add_argument("--D", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--F", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--s0", type=float)


def _build_model(args):
    params = {k: getattr(args, k) for k in _MODEL_PARAM_FLAGS if getattr(args, k, None) is not None}
    params["seed"] = args.seed
    return models.build(args.model, args.T, **params)


def _add_solver_args(p: argparse.ArgumentParser):
    p.add_argument("--method", default="newton",
                   help="newton | quasi | picard | jacobi | scaled:<a> | kalman")
    p.add_argument("--damping", default="none", help="none | scale:<k> | clip:<lo>:<hi>")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--init", default="jacobi", choices=("jacobi", "zeros", "normal"))
    p.add_argument("--metric", default="diff", choices=("diff", "merit"))
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="trust-region precision (kalman method only)")
    p.add_argument("--mode", default="filter", choices=("filter", "smoother"))
    p.add_argument("--jac", default="full", choices=("full", "diagonal"),
                   help="jacobian variant for the kalman method")


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        tol=args.tol, max_iters=args.max_iters, init=args.init, seed=args.seed,
        window=args.window, damping=Damping.parse(args.damping),
        metric=args.metric,
    )


def _cmd_solve(args) -> int:
    sys_ = _build_model(args)
    cfg = _solver_config(args)
    if args.method == "kalman":
        report = kalman_solve(sys_, TrustRegionConfig(
            lam=args.lam, mode=args.mode, jacobian=args.jac, solver=cfg))
    else:
        report = fixed_point_solve(sys_, cfg, SolverMethod.parse(args.method))
    oracle = rollout_sequential(sys_)
    err = max_abs_diff(report.trajectory, oracle)
    payload = {
        "model": args.model, "method": args.method, "T": sys_.horizon, "D": sys_.dim,
        "converged": report.converged, "iterations": report.iterations,
        "resets": report.resets, "final_diff": report.final_diff,
        "final_err_vs_oracle": err, "merit": merit(sys_, report.trajectory),
        "elapsed_s": report.elapsed,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = bench.ExperimentConfig.from_json(args.config)
    if args.workers is not None:
        cfg.workers = args.workers
    records, out, sidecar = bench.run_and_write(cfg, args.output)
    n_fail = sum(1 for r in records if r.error)
    print(f"wrote {len(records)} rows to {out}" + (f" (+ {sidecar})" if sidecar else ""))
    if n_fail:
        print(f"{n_fail} runs recorded errors (see the error column)")
    return EXIT_OK


def _cmd_lle(args) -> int:
    sys_ = _build_model(args)
    traj = rollout_sequential(sys_)
    est = diagnostics.estimate_lle(sys_, traj, probes=args.probes, seed=args.probe_seed)
    print(json.dumps({"model": args.model, "T": sys_.horizon, "probes": est.probes,
                      "lle": est.lam}))
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    if args.what == "picard-norm":
        print(diagnostics.picard_inverse_norm(args.T))
        return EXIT_OK
    if args.what == "basin":
        print(diagnostics.basin_radius(args.mu, args.L))
        return EXIT_OK
    if args.what == "pl-bounds":
        b = diagnostics.pl_bounds(args.lle, a_burn=args.a_burn, b_burn=args.b_burn,
                                  T=args.T, D=args.D or 1)
        print(json.dumps({"lower": b.lower, "upper": b.upper, "lle": b.lle,
                          "a_burn": b.a_burn, "b_burn": b.b_burn, "T": b.T, "D": b.D}))
        return EXIT_OK
    # gamma / mismatch need a model rollout
    sys_ = _build_model(args)
    traj = rollout_sequential(sys_)
    method = SolverMethod.parse(args.method)
    if args.what == "mismatch":
        print(diagnostics.jacobian_mismatch(sys_, traj, method))
    else:
        print(diagnostics.asymptotic_rate(sys_, traj, method))
    return EXIT_OK


def _random_affine_ops(rng, T, D, kind):
    ops = []
    for _ in range(T):
        b = rng.standard_normal(D)
        if kind == "dense":
            ops.append(AffineOp(Transition.dense(rng.standard_normal((D, D)) * 0.9 / np.sqrt(D)), b))
        else:
            ops.append(AffineOp(Transition.diagonal(rng.uniform(-1.0, 1.0, D)), b))
    return ops


def _cmd_oracle(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.what == "lm-smoother":
        sys_ = models.build("rnn", args.T, D=args.D, g=0.8, seed=args.seed)
        guess = rollout_sequential(sys_).states + rng.standard_normal((args.T, args.D))
        traj = Trajectory(sys_.initial_state, guess)
        cfg = TrustRegionConfig(lam=args.lam, mode="smoother", jacobian="full")
        smoothed = kalman_step(sys_, traj, cfg)
        dense = lm_step_dense(sys_, traj, args.lam)
        dev = max_abs_diff(smoothed, dense)
        print(json.dumps({"max_deviation": dev, "tolerance": 1e-8, "ok": dev <= 1e-8}))
        return EXIT_OK if dev <= 1e-8 else EXIT_RUNTIME
    if args.what == "scan-fold":
        ops = _random_affine_ops(rng, args.T, args.D, args.kind)
        prefixes = parallel_scan(ops)
        acc = ops[0]
        worst = 0.0
        for t in range(1, args.T):
            acc = affine_compose(acc, ops[t])
            ref = acc.A.matrix(args.D)
            got = prefixes[t].A.matrix(args.D)
            scale = max(1.0, float(np.max(np.abs(ref))))
            worst = max(worst, float(np.max(np.abs(ref - got))) / scale,
                        float(np.max(np.abs(acc.b - prefixes[t].b))) / scale)
        print(json.dumps({"max_relative_deviation": worst, "tolerance": 1e-10,
                          "ok": worst <= 1e-10}))
        return EXIT_OK if worst <= 1e-10 else EXIT_RUNTIME
    # jinv: block (t, tau) of J^{-1} equals the Jacobian chain product
    sys_ = models.build("rnn", args.T, D=args.D, g=0.9, seed=args.seed)
    traj = rollout_sequential(sys_)
    J = diagnostics.assemble_big_j(sys_, traj)
    Jinv = np.linalg.inv(J)
    ts = np.arange(1, args.T + 1)
    jacs = sys_.jacobian_batch(ts, traj.prev_states())
    worst = 0.0
    D = args.D
    for t in range(args.T):
        prod = np.eye(D)
        for tau in range(t, -1, -1):
            block = Jinv[t * D:(t + 1) * D, tau * D:(tau + 1) * D]
            worst = max(worst, float(np.max(np.abs(block - prod))))
            if tau > 0:
                prod = prod @ jacs[tau]
    print(json.dumps({"max_deviation": worst, "tolerance": 1e-8, "ok": worst <= 1e-8}))
    return EXIT_OK if worst <= 1e-8 else EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="parssm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one model + method, print the report")
    _add_model_args(p)
    _add_solver_args(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("bench", help="run a sweep from a JSON config, write CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("lle", help="estimate the largest Lyapunov exponent")
    _add_model_args(p)
    p.add_argument("--probes", type=int, default=3)
    p.add_argument("--probe-seed", type=int, default=0)
    p.set_defaults(fn=_cmd_lle)

    p = sub.add_parser("diagnose", help="conditioning and rate quantities")
    dsub = p.add_subparsers(dest="what", required=True)
    d = dsub.add_parser("picard-norm")
    d.add_argument("-T", type=int, required=True)
    d.set_defaults(fn=_cmd_diagnose)
    d = dsub.add_parser("pl-bounds")
    d.add_argument("--lle", type=float, required=True)
    d.add_argument("-T", type=int, required=True)
    d.add_argument("-D", type=int, default=1)
    d.add_argument("--a-burn", type=float, default=1.0)
    d.add_argument("--b-burn", type=float, default=1.0)
    d.set_defaults(fn=_cmd_diagnose)
    d = dsub.add_parser("basin")
    d.add_argument("--mu", type=float, required=True)
    d.add_argument("--L", type=float, required=True)
    d.set_defaults(fn=_cmd_diagnose)
    for name in ("gamma", "mismatch"):
        d = dsub.add_parser(name)
        _add_model_args(d)
        d.add_argument("--method", default="jacobi")
        d.set_defaults(fn=_cmd_diagnose)

    p = sub.add_parser("oracle", help="dense small-scale equivalence checks")
    osub = p.add_subparsers(dest="what", required=True)
    o = osub.add_parser("lm-smoother")
    o.add_argument("-T", type=int, default=16)
    o.add_argument("-D", type=int, default=3)
    o.add_argument("--lambda", dest="lam", type=float, default=0.5)
    o.add_argument("--seed", type=int, default=0)
    o.set_defaults(fn=_cmd_oracle)
    o = osub.add_parser("scan-fold")
    o.add_argument("-T", type=int, default=64)
    o.add_argument("-D", type=int, default=4)
    o.add_argument("--kind", default="dense", choices=("dense", "diagonal"))
    o.add_argument("--seed", type=int, default=0)
    o.set_defaults(fn=_cmd_oracle)
    o = osub.add_parser("jinv")
    o.add_argument("-T", type=int, default=8)
    o.add_argument("-D", type=int, default=3)
    o.add_argument("--seed", type=int, default=0)
    o.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ContractError as e:
        print(json.dumps({"error": str(e), "type": "usage"}), file=_sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # runtime failure, machine-readable
        print(json.dumps({"error": str(e), "type": type(e).__name__}), file=_sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
