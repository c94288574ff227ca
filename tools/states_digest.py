"""Bit-for-bit record of the gated benchmark workloads' solves.

    python3 tools/states_digest.py                      # seeds 801, 5 and 2718
    python3 tools/states_digest.py --seeds 2718 --tiny

Run from the repository root; the library is imported from ``src/``. For
each seed and each workload ``BENCHMARK.json`` gates, it builds the models
and solves of ``perfbench/workloads.py``, runs every solve once in order,
and prints one line: the first 16 hex digits of a sha256 over the float64
bytes of every returned ``trajectory.states``, in solve order, the total
pass count (the solves' iterations summed), and ``counts_sha``, the digest
of each solve's (label, iterations, resets) that ``perfbench/run.py``
reports, from ``measure.counts_digest``. Two checkouts
that print the same lines returned the same states, bit for bit. BLAS and
OpenMP are pinned to one thread before numpy loads, as the benchmark pins
them; ``--tiny`` takes the smoke test's sizes (``workloads.TINY``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no caches in the checkout

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from envinfo import pin_threads  # noqa: E402  (standard library only, so before numpy)

pin_threads()

import measure  # noqa: E402
import workloads  # noqa: E402

GATED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def digest(workload: str, seed: int, tiny: bool = False) -> tuple[str, int, str]:
    """(states digest, passes, counts_sha) of one pass over the workload's solves."""
    spec = workloads.WORKLOADS[workload](**(workloads.TINY[workload] if tiny else {}))
    systems = spec.make_models(seed)
    states, passes, outcomes = hashlib.sha256(), 0, []
    for solve in spec.make_solves(seed, len(systems)):
        system = systems[solve.model]
        report = solve.run(system)
        states.update(report.trajectory.states.tobytes())
        passes += report.iterations
        outcomes.append(measure.Outcome(solve.label, 0.0, system.horizon,
                                        report.iterations, report.resets))
    return states.hexdigest()[:16], passes, measure.counts_digest(outcomes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[801, 5, 2718])
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    for seed in args.seeds:
        for workload in GATED:
            states, passes, counts_sha = digest(workload, seed, args.tiny)
            print(f"{seed} {workload} {states} {passes} {counts_sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
