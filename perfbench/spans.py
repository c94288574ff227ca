"""Span recording around the calls into each parssm layer, wrapped from outside.

``Recorder`` keeps a stack of open spans and, when one closes, charges its
duration to its name and subtracts it from its parent's self time, so self
times partition the wall time of every root span. ``instrument`` installs the
wrappers on the library's module attributes and on the systems' bound
methods, and removes every one of them on exit, even after an error.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from collections import defaultdict

import parssm as P
from parssm import fixedpoint, jacutils, pscan, trustregion

from workloads import composition_bytes, composition_flops

SYSTEM_METHODS = ("step", "step_batch", "jacobian_batch", "diag_jacobian_batch")

# (module, attribute) pairs replaced while tracing; the names fixedpoint and
# trustregion imported are patched where they are looked up.
PATCHED = (
    (fixedpoint, "evaluate_stacked"), (fixedpoint, "merit"), (fixedpoint, "max_abs_diff"),
    (trustregion, "evaluate_stacked"), (trustregion, "solve_loop"),
    (pscan, "scan_stacked"),
    (jacutils, "fd_jacobian_batch"), (jacutils, "hutchinson_diag_batch"),
)


class Stat:
    __slots__ = ("calls", "rows", "self_s")

    def __init__(self):
        self.calls = 0
        self.rows = 0
        self.self_s = 0.0


class Recorder:
    """In-memory spans: (id, parent id, name, start, end, rows) per call."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._ids = itertools.count()
        # rows of f evaluated by the solver loop itself, not by jacutils or a rollout
        self.solver_f_rows = 0
        self.scan_calls: list[tuple] = []  # (lane, T, D, compositions, levels)

    @contextlib.contextmanager
    def span(self, name: str, rows: int = 0):
        parent = self._stack[-1] if self._stack else None
        if name == "models.step_batch" and parent is not None \
                and parent[1] in ("fixedpoint", "trustregion", "core.merit"):
            self.solver_f_rows += rows
        frame = [next(self._ids), name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - frame[2]
            st = self.stats[name]
            st.calls += 1
            st.rows += rows
            st.self_s += dur - frame[3]
            if self._stack:
                self._stack[-1][3] += dur
            self.spans.append((frame[0], parent[0] if parent else None, name, frame[2], end, rows))

    def wrap(self, name, fn, rows_of=None):
        def wrapper(*args, **kwargs):
            with self.span(name, rows_of(args) if rows_of else 0):
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_lane(self, fn):
        """evaluate_stacked(lane, A, b, s0, ...): one span per call, named by lane."""
        def wrapper(lane, A, b, *args, **kwargs):
            with self.span(f"pscan.{lane}", len(b)):
                return fn(lane, A, b, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_scan(self, fn):
        """scan_stacked with a ComposeCounter injected; no span of its own, so
        its time stays in the pscan.<lane> span that called it."""
        def wrapper(lane, A, b, workers=1, counter=None):
            c = counter if counter is not None else P.ComposeCounter()
            before = (c.compositions, c.up_levels + c.down_levels)
            out = fn(lane, A, b, workers=workers, counter=c)
            T, D = b.shape
            self.scan_calls.append((lane, T, D, c.compositions - before[0],
                                    c.up_levels + c.down_levels - before[1]))
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_loop(self, fn):
        """solve_loop(sys, cfg, chunk_step) seen from trustregion: the loop is
        fixedpoint time, each chunk step is trustregion time."""
        def wrapper(system, cfg, chunk_step):
            traced_step = self.wrap("trustregion", chunk_step)
            with self.span("fixedpoint"):
                return fn(system, cfg, traced_step)
        wrapper.__wrapped__ = fn
        return wrapper

    def kernel_counts(self) -> dict:
        """Computed scan work: compositions, levels, flops and bytes per lane."""
        out = {"compositions": 0, "levels": 0, "flops": 0, "bytes": 0}
        for lane, _T, D, comps, levels in self.scan_calls:
            out["compositions"] += comps
            out["levels"] += levels
            out["flops"] += comps * composition_flops(lane, D)
            out["bytes"] += comps * composition_bytes(lane, D)
        return out


def _rows(args):
    return len(args[0])


@contextlib.contextmanager
def instrument(rec: Recorder, systems):
    """Install every wrapper for the duration of the block, then remove them."""
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr in PATCHED]
    patched_systems = []
    try:
        for mod, attr, fn in originals:
            if attr == "evaluate_stacked":
                new = rec.wrap_lane(fn)
            elif attr == "scan_stacked":
                new = rec.wrap_scan(fn)
            elif attr == "solve_loop":
                new = rec.wrap_loop(fn)
            elif mod is jacutils:
                new = rec.wrap(f"jacutils.{attr}", fn, lambda a: len(a[1]))
            else:
                new = rec.wrap(f"core.{attr}", fn)
            setattr(mod, attr, new)
        for system in systems:
            if any(name in vars(system) for name in SYSTEM_METHODS):
                raise RuntimeError(f"{type(system).__name__} is already instrumented")
            patched_systems.append(system)
            for name in SYSTEM_METHODS:
                rows = (lambda a: 1) if name == "step" else _rows
                setattr(system, name, rec.wrap(f"models.{name}", getattr(system, name), rows))
        yield rec
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)
        for system in patched_systems:
            for name in SYSTEM_METHODS:
                vars(system).pop(name, None)


def leftover_wrappers(systems) -> list[str]:
    """Names of wrappers still installed; empty after ``instrument`` exits."""
    left = [f"{mod.__name__}.{attr}" for mod, attr in PATCHED
            if hasattr(getattr(mod, attr), "__wrapped__")]
    left += [f"{type(s).__name__}.{name}" for s in systems for name in SYSTEM_METHODS
             if name in vars(s)]
    return left
