"""Smoke test of the benchmark's own code, at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload (including those not listed in BENCHMARK.json) untraced
and traced on tiny models and checks that: every metric BENCHMARK.json names
is reported with its unit, and no other; every solve passes the correctness
gate; the exact counts repeat from run to run and between the untraced and
the traced pass; the span self times account for the traced wall time; and
no wrapper is left installed after a traced run, even one that raised.
Exits 1 and lists the failed checks otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True

from envinfo import pin_threads  # noqa: E402

pin_threads()

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import parssm as P  # noqa: E402
from parssm import fixedpoint  # noqa: E402

import measure  # noqa: E402
import run as cli  # noqa: E402
import spans  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

EXACT = ("pscan.compositions", "pscan.levels", "models.step_batch.rows",
         "fixedpoint.f_rows_per_step", "fixedpoint.iterations", "trustregion.iterations")


def units(entries) -> dict:
    return {e["name"]: e["unit"] for e in entries}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    want = {False: units(bench["end_to_end"]), True: units(bench["per_layer"])}
    problems = []

    def check(ok, what):
        if not ok:
            problems.append(what)

    for name in WORKLOADS:
        res = {}
        for trace in (False, True):
            for rep in (0, 1):
                r = measure.run(name, 7, 0.5, trace, TINY[name])
                res[trace, rep] = r
                line = cli.result_line(r)
                got = {k: m["unit"] for k, m in line["metrics"].items()}
                check(got == want[trace], f"{name} trace={trace}: metrics/units {got}")
                check(all(isinstance(m["value"], (int, float)) for m in line["metrics"].values()),
                      f"{name} trace={trace}: non-numeric metric")
                check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                      f"{name} trace={trace}: {[o.failure for o in r['failed']]}")
        plain, traced = res[False, 0], res[True, 0]
        check(plain["detail"]["counts_sha"] == res[False, 1]["detail"]["counts_sha"],
              f"{name}: iteration counts differ between two runs of one seed")
        check(traced["detail"]["counts_sha"] == plain["detail"]["counts_sha"],
              f"{name}: the traced pass changed the iteration counts")
        for key in EXACT:
            a, b = traced["metrics"][key]["value"], res[True, 1]["metrics"][key]["value"]
            check(a == b, f"{name}: {key} differs between two traced runs ({a} vs {b})")
        acc = traced["detail"]["accounted_frac"]
        check(0.9 <= acc <= 1.0 + 1e-9, f"{name}: span self times cover {acc:.3f} of the wall")
        check(traced["detail"]["wrappers_left"] == [], f"{name}: wrappers left installed")

    # wrappers come off even when the traced block raises
    system = P.models.build("rnn", 8, D=3, g=0.5, seed=0)
    try:
        with spans.instrument(spans.Recorder(), [system]):
            raise KeyError("boom")
    except KeyError:
        pass
    check(spans.leftover_wrappers([system]) == [], "wrappers left after an error")
    check(fixedpoint.evaluate_stacked is P.pscan.evaluate_stacked,
          "fixedpoint.evaluate_stacked was not restored")

    for p in problems:
        print(f"FAIL {p}")
    print(f"smoke: {'ok' if not problems else f'{len(problems)} failed'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
