"""parssm benchmark: solve a seed-generated problem set and report metrics.

    python3 perfbench/run.py --workload s5-merit --seed 1 --seconds 50 --trace 0

Run from the repository root; the library is imported from ``src/``. The
workloads are defined in ``workloads.py``; ``METRICS.md`` describes them. With
``--trace 0`` the last line of standard output is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric, taken
from spans recorded around the calls into each parssm module. The lines
before it describe the environment, each metric with its unit, and every
failed solve with its error. BLAS and OpenMP are pinned to one thread before
numpy loads; a run where the pin did not take is invalid and exits with 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no caches in the checkout

# envinfo imports only the standard library, so the pin precedes numpy.
from envinfo import describe, pin_took, pin_threads  # noqa: E402

pin_threads()

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return seed


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=seed_arg, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library() -> str | None:
    """Put this checkout's ``src`` first on the path; return an error or None."""
    if not (SRC / "parssm" / "__init__.py").is_file():
        return f"parssm sources not found under {SRC}"
    sys.path.insert(0, str(SRC))
    import parssm

    if Path(parssm.__file__).resolve().parent != (SRC / "parssm").resolve():
        return f"imported parssm from {parssm.__file__}, not from {SRC}"
    return None


def write_spans(workload: str, seed: int, spans) -> Path:
    """One JSON array per span: [id, parent id, name, start s, end s, rows]."""
    out = HERE / "out" / f"{workload}-seed{seed}.spans.jsonl"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as f:
        for span in spans:
            f.write(json.dumps(span) + "\n")
    return out


def result_line(res: dict) -> dict:
    """The object printed as the last line of standard output."""
    return {"correct": not res["failed"], "attempted": res["attempted"],
            "failed": len(res["failed"]), "metrics": res["metrics"]}


def main(argv=None) -> int:
    args = parse(argv)
    err = import_library()
    if err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import measure

    if args.workload not in measure.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(measure.WORKLOADS)}", file=sys.stderr)
        return 2
    env = describe()
    print(f"# env {json.dumps(env)}")
    if not pin_took(env):
        print("error: run invalid, BLAS/OpenMP threads are not pinned to 1", file=sys.stderr)
        return 3
    res = measure.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {json.dumps(res['detail'])}")
    for name, m in res["metrics"].items():
        print(f"{name:40s} {m['value']!r:>24} {m['unit']}")
    for o in res["failed"]:
        print(f"# FAILED {o.label}: {o.failure}")
    if args.trace:
        print(f"# spans written to {write_spans(args.workload, args.seed, res['spans'])}")
    print(json.dumps(result_line(res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
