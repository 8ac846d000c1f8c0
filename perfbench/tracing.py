"""Spans around hwmlab's public functions, recorded from outside the program.

``install`` rebinds each traced function object wherever a ``hwmlab.*``
module holds it, and wraps ``numpy.linalg.{eigh,svd,eigvals}`` (which hwmlab
reaches through attribute lookups on ``np.linalg``).  ``uninstall`` restores
every binding.  Spans ``(name, start, end, parent, scope)`` stay in memory
and are written once, at the end of the run.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (layer, module, function); numpy.linalg entries count as the linalg layer
TARGETS = (
    ("hardy", "hwmlab.hardy", "evaluate_grid"),
    ("hardy", "hwmlab.hardy", "fit_series"),
    ("hardy", "hwmlab.hardy", "fractional_derivative"),
    ("hardy", "hwmlab.hardy", "half_norm_sq"),
    ("grassmann", "hwmlab.grassmann", "constraint_residuals"),
    ("operators", "hwmlab.operators", "build_toeplitz"),
    ("operators", "hwmlab.operators", "build_hankel"),
    ("operators", "hwmlab.operators", "invariant_subspace"),
    ("operators", "hwmlab.operators", "shift_backward_matrix"),
    ("evolution", "hwmlab.evolution", "make_plan"),
    ("evolution", "hwmlab.evolution", "solve_at_time"),
    ("evolution", "hwmlab.evolution", "contraction_spectrum"),
    ("stability", "hwmlab.stability", "zd_bo_model"),
    ("stability", "hwmlab.stability", "model_at_time"),
    ("stability", "hwmlab.stability", "parseval_defect"),
    ("integrator", "hwmlab.integrator", "step_rk4"),
    ("integrator", "hwmlab.integrator", "cross_validate"),
    ("experiments", "hwmlab.experiments", "trajectory_rows"),
    ("linalg", "numpy.linalg", "eigh"),
    ("linalg", "numpy.linalg", "svd"),
    ("linalg", "numpy.linalg", "eigvals"),
)

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, _, fn in TARGETS)
ROOT = "op"
HOOK = "trace.hook"


def _section_fill(rec: "Recorder", section) -> None:
    """Count assembled blocks that carry a nonzero symbol mode."""
    e = section.d * section.d
    rows, cols = section.matrix.shape[0] // e, section.matrix.shape[1] // e
    blocks = section.matrix.reshape(rows, e, cols, e)
    rec.add("section_useful", int(np.count_nonzero(np.any(blocks != 0, axis=(1, 3)))))
    rec.add("section_visited", rows * cols)


def _modes_used(rec: "Recorder", sample) -> None:
    rec.add("modes_used", sample.diagnostics["n_modes_used"])
    rec.add("solves", 1)


def _steps(rec: "Recorder", report) -> None:
    rec.add("contraction_steps", report.n_steps)


# per-span hooks that read a count off the returned value
HOOKS = {
    "operators.build_toeplitz": _section_fill,
    "operators.build_hankel": _section_fill,
    "evolution.solve_at_time": _modes_used,
    "stability.parseval_defect": _steps,
}


class Recorder:
    """Span store for one traced run.

    Spans are recorded only while ``scope`` is set (an op index or
    ``"setup"``), so calls made by the benchmark's own checks leave none.
    Hook counts accumulate in ``counts`` under ``("setup" | "op", key)``.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.scope = None
        self.counts = defaultdict(int)
        self._bindings: list = []

    def add(self, key: str, n: int) -> None:
        self.counts["setup" if self.scope == "setup" else "op", key] += n

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else None, self.scope])
        self.stack.append(idx)
        return idx

    def _leave(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.scope is None:
                return fn(*args, **kwargs)
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._leave(idx)
            if hook is not None:
                h = self._enter(HOOK)
                try:
                    hook(self, out)
                finally:
                    self._leave(h)
            return out

        return traced

    def run(self, scope, fn, *args):
        """Call ``fn(*args)`` as the root span of ``scope``."""
        self.scope = scope
        idx = self._enter(ROOT)
        try:
            return fn(*args)
        finally:
            self._leave(idx)
            self.scope = None

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracing is already installed")
        hw_modules = [m for n, m in list(sys.modules.items()) if n == "hwmlab" or n.startswith("hwmlab.")]
        for layer, module, fn_name in TARGETS:
            owner = sys.modules[module]
            original = getattr(owner, fn_name)
            traced = self.wrap(f"{layer}.{fn_name}", original)
            holders = [np.linalg] if module == "numpy.linalg" else hw_modules
            for mod in holders:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original))
                        setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def self_times(self) -> dict:
        """{scope: {span name: [self seconds summed, call count]}}."""
        child_time = defaultdict(float)
        for name, start, end, parent, scope in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        for idx, (name, start, end, parent, scope) in enumerate(self.spans):
            entry = out[scope][name]
            entry[0] += (end - start) - child_time[idx]
            entry[1] += 1
        return out

    def root_durations(self) -> dict:
        return {scope: end - start for name, start, end, parent, scope in self.spans if name == ROOT}
