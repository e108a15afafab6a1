"""In-memory span tracer that wraps stratgrad's public functions from outside.

Nothing under ``src/`` knows about it. :meth:`Tracer.install` replaces every
module-level binding of a listed function in every loaded ``stratgrad``
module -- the defining module and each module that imported the function by
name, such as ``trainer``'s ``optimal_coefficients_elementwise`` or every
module's ``spawn_rng`` -- with a wrapper that records one span per call.
:meth:`Tracer.uninstall` puts the originals back. A listed function that no
longer exists is reported as absent instead of failing the run.

Spans stay in flat in-memory arrays while the traced code runs; the caller
writes them out once, after the run (:meth:`Tracer.write_spans`).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# The public functions each module's spans wrap, by module.
WRAPPED: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "trainer": ("mssg_train", "baseline_train", "accuracy"),
    "mlp": ("per_sample_grads", "loss_and_grad", "forward_batch", "full_gradient_train",
            "record_weight_gradient", "init_params"),
    "estimators": ("optimal_coefficients_elementwise", "optimal_coefficients", "gmst_init",
                   "gmst_step", "gst_estimate", "trace_estimators", "summarize_traces"),
    "population": ("generate_family", "draw_stratified", "stratum_stats", "population_mean"),
    "dataio": ("load_mnist_split", "subsample", "write_csv", "write_svg_lineplot",
               "write_manifest"),
    "rng": ("spawn_rng",),
}

QUALIFIED = tuple(f"{module}.{fn}" for module, fns in WRAPPED.items() for fn in fns)


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


# Counters taken where the work happens, from each call's arguments and result.
# Byte counts are computed from array shapes, not measured traffic.
def _count_per_sample_grads(c, args, kwargs, result):
    c["mlp.per_sample_grads.samples"] += result[0][1].shape[0]
    c["mlp.per_sample_grads.bytes_out"] += sum(dw.nbytes + db.nbytes for dw, db in result)


def _count_loss_and_grad(c, args, kwargs, result):
    c["mlp.loss_and_grad.samples"] += np.shape(_arg(args, kwargs, 1, "features"))[0]


def _count_record_weight_gradient(c, args, kwargs, result):
    c["mlp.record_weight_gradient.cells"] += result.size


def _count_elementwise(c, args, kwargs, result):
    c["estimators.optimal_coefficients_elementwise.elements"] += np.size(result[0])
    c["estimators.optimal_coefficients_elementwise.fallbacks"] += result[2]


def _count_gmst_step(c, args, kwargs, result):
    c["estimators.gmst_step.decisions"] += len(_arg(args, kwargs, 2, "stats"))


def _count_write_csv(c, args, kwargs, result):
    columns = _arg(args, kwargs, 1, "columns")
    c["dataio.write_csv.rows"] += len(next(iter(columns.values())))
    c["dataio.write_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


COUNT_HOOKS: dict[str, Callable] = {
    "mlp.per_sample_grads": _count_per_sample_grads,
    "mlp.loss_and_grad": _count_loss_and_grad,
    "mlp.record_weight_gradient": _count_record_weight_gradient,
    "estimators.optimal_coefficients_elementwise": _count_elementwise,
    "estimators.gmst_step": _count_gmst_step,
    "dataio.write_csv": _count_write_csv,
}


@dataclass(frozen=True)
class FunctionStats:
    calls: int
    busy_s: float
    self_s: float


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread's call stack, so a span's children run one
    after another inside it and never overlap each other.
    """
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


class Tracer:
    """Records a span (name, start, end, parent span) per wrapped call."""

    def __init__(self, package: str = "stratgrad", clock: Callable[[], float] = time.perf_counter):
        self.package = package
        self.clock = clock
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.counters: dict[str, float] = defaultdict(float)
        self.hook_errors: list[str] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """`fn` with a span named `name` around every call."""
        nid = len(self.names)
        self.names.append(name)
        start, end, ids, parent, stack, clock = (self.start, self.end, self.name_id,
                                                 self.parent, self._stack, self.clock)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if hook is not None:
                try:
                    hook(self.counters, args, kwargs, result)
                except Exception as exc:  # a refactor changed the shape the hook reads
                    self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return traced

    def install(self, wrapped: dict[str, tuple[str, ...]] = WRAPPED) -> None:
        """Patch every binding of each listed function in the loaded package."""
        prefix = self.package + "."
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package or key.startswith(prefix))]
        for module_name, fns in wrapped.items():
            defining = sys.modules.get(prefix + module_name)
            for fn_name in fns:
                name = f"{module_name}.{fn_name}"
                original = getattr(defining, fn_name, None)
                if not callable(original):
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                traced = self.wrap(name, original, COUNT_HOOKS.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def stats(self) -> dict[str, FunctionStats]:
        """Calls, busy and self time per span name.

        Busy time counts only a name's outermost spans, so a function that
        reaches itself again is not counted twice.
        """
        selfs = self_times(self.start, self.end, self.parent)
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            self_s[nid] += selfs[i]
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != nid:
                p = self.parent[p]
            if p < 0:
                busy[nid] += self.end[i] - self.start[i]
        out: dict[str, FunctionStats] = {}
        for nid, name in enumerate(self.names):
            prev = out.get(name, FunctionStats(0, 0.0, 0.0))
            out[name] = FunctionStats(prev.calls + calls[nid], prev.busy_s + busy[nid],
                                      prev.self_s + self_s[nid])
        return out

    def write_spans(self, path) -> None:
        """All recorded spans as CSV, times relative to the first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as f:
            f.write("span,parent,name,start_s,end_s\n")
            for i, nid in enumerate(self.name_id):
                f.write(f"{i},{self.parent[i]},{self.names[nid]},"
                        f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")
