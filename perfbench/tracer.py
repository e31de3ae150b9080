"""In-memory span tracer that wraps alfs's public functions from outside.

Every traced function is replaced, in every ``alfs`` module that holds a
reference to it, by a wrapper that records a span: name, start, end, parent
span and operation id. Spans stay in memory (flat integer arrays, so a grid
run with a million spans stays small) and are written out when the run ends.
Counters that only the call boundary can see (L-BFGS evaluations, sweeps,
k-NN tensor bytes, failed cells) are recorded by per-target hooks.

A target whose module or function no longer exists is skipped and reported
in ``absent``; the metrics that depend only on absent targets read 0.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np

# span name -> (module, attribute)
TARGETS: dict[str, tuple[str, str]] = {
    "cli.main": ("alfs.cli", "main"),
    "data.load_csv": ("alfs.data", "load_csv"),
    "data.split": ("alfs.data", "split"),
    "kernels.angular_weights": ("alfs.kernels", "angular_weights"),
    "kernels.svt": ("alfs.kernels", "svt"),
    "kernels.nuclear_norm": ("alfs.kernels", "nuclear_norm"),
    "kernels.soft_threshold": ("alfs.kernels", "soft_threshold"),
    "lbfgs.minimize": ("alfs.lbfgs", "minimize"),
    "lbfgs.two_loop_direction": ("alfs.lbfgs", "two_loop_direction"),
    "solver.solve": ("alfs.solver", "solve"),
    "solver.solve_w_subproblem": ("alfs.solver", "solve_w_subproblem"),
    "solver.w_subproblem_objective": ("alfs.solver", "w_subproblem_objective"),
    "solver.w_subproblem_gradient": ("alfs.solver", "w_subproblem_gradient"),
    "solver.update_z": ("alfs.solver", "update_z"),
    "solver.update_w_tilde": ("alfs.solver", "update_w_tilde"),
    "solver.update_duals_and_rho": ("alfs.solver", "update_duals_and_rho"),
    "solver.objective": ("alfs.solver", "objective"),
    "solver.check_convergence": ("alfs.solver", "check_convergence"),
    "solver.h_seminorm_sq": ("alfs.solver", "h_seminorm_sq"),
    "solver.state_difference": ("alfs.solver", "state_difference"),
    "selection.reconstruction_error": ("alfs.selection", "reconstruction_error"),
    "selection.oracle_best_subsets": ("alfs.selection", "oracle_best_subsets"),
    "selection.rank_and_select": ("alfs.selection", "rank_and_select"),
    "baselines.rcur": ("alfs.baselines", "rcur"),
    "baselines.leverage_scores": ("alfs.baselines", "leverage_scores"),
    "baselines.cur_from_indices": ("alfs.baselines", "cur_from_indices"),
    "bench.knn_classify": ("alfs.bench", "knn_classify"),
    "bench.grid_search": ("alfs.bench", "grid_search"),
    "bench.run_curve": ("alfs.bench", "run_curve"),
}

# per-layer metric -> (kind, span names); kind "calls" counts spans, "self"
# sums their self time in seconds
SPAN_METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "solver.solve.calls": ("calls", ("solver.solve",)),
    "solver.z_step.calls": ("calls", ("solver.update_z",)),
    "solver.w_step.s": ("self", (
        "solver.solve_w_subproblem",
        "solver.w_subproblem_objective",
        "solver.w_subproblem_gradient",
    )),
    "solver.z_step.s": ("self", ("solver.update_z",)),
    "solver.wtilde_step.s": ("self", ("solver.update_w_tilde",)),
    "solver.dual_step.s": ("self", ("solver.update_duals_and_rho",)),
    "solver.objective.s": ("self", ("solver.objective",)),
    "solver.diagnostics.s": ("self", (
        "solver.check_convergence",
        "solver.h_seminorm_sq",
        "solver.state_difference",
    )),
    "solver.solve.s": ("self", ("solver.solve",)),
    "lbfgs.minimize.calls": ("calls", ("lbfgs.minimize",)),
    "lbfgs.two_loop.s": ("self", ("lbfgs.two_loop_direction",)),
    "lbfgs.minimize.s": ("self", ("lbfgs.minimize",)),
    "kernels.svd_calls": ("calls", (
        "kernels.svt",
        "kernels.nuclear_norm",
        "baselines.leverage_scores",
    )),
    "kernels.svt.s": ("self", ("kernels.svt",)),
    "kernels.nuclear_norm.s": ("self", ("kernels.nuclear_norm",)),
    "kernels.soft_threshold.s": ("self", ("kernels.soft_threshold",)),
    "kernels.angular_weights.calls": ("calls", ("kernels.angular_weights",)),
    "kernels.angular_weights.s": ("self", ("kernels.angular_weights",)),
    "selection.reconstruction_error.calls": ("calls", ("selection.reconstruction_error",)),
    "selection.reconstruction_error.s": ("self", ("selection.reconstruction_error",)),
    "selection.oracle.s": ("self", ("selection.oracle_best_subsets",)),
    "selection.rank_and_select.s": ("self", ("selection.rank_and_select",)),
    "baselines.rcur.calls": ("calls", ("baselines.rcur",)),
    "baselines.rcur.s": ("self", ("baselines.rcur",)),
    "baselines.leverage_scores.s": ("self", ("baselines.leverage_scores",)),
    "baselines.cur_from_indices.s": ("self", ("baselines.cur_from_indices",)),
    "bench.knn.calls": ("calls", ("bench.knn_classify",)),
    "bench.knn.s": ("self", ("bench.knn_classify",)),
    "bench.grid_search.s": ("self", ("bench.grid_search",)),
    "bench.run_curve.s": ("self", ("bench.run_curve",)),
    "data.load_csv.s": ("self", ("data.load_csv",)),
    "data.split.s": ("self", ("data.split",)),
    "cli.main.s": ("self", ("cli.main",)),
}

# per-layer metric -> (counter, spans whose presence makes it meaningful);
# ratios are counter / counter with 0 when nothing was attempted
COUNTER_METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "solver.sweeps": ("sweeps", ("solver.solve",)),
    "lbfgs.inner_iters": ("inner_iters", ("lbfgs.minimize",)),
    "lbfgs.f_evals": ("f_evals", ("lbfgs.minimize",)),
    "lbfgs.g_evals": ("g_evals", ("lbfgs.minimize",)),
    "bench.knn.bytes": ("knn_bytes", ("bench.knn_classify",)),
    "bench.cell_failures": ("cell_failures", ("bench.run_curve", "bench.grid_search")),
}
RATIO_METRICS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "solver.converged_ratio": ("converged", "solve_returns", ("solver.solve",)),
    "lbfgs.grad_tol_ratio": ("grad_tol", "minimize_returns", ("lbfgs.minimize",)),
}

_NO_PARENT = -1


def self_times(starts, ends, parents) -> np.ndarray:
    """Self time of every span: its duration minus the part of its interval
    that the union of its children's intervals covers.

    Spans are given as parallel integer sequences; ``parents[i]`` is the
    index of span i's parent or -1. Children may overlap each other
    (threads) and are clipped to their parent's interval.
    """
    s = np.asarray(starts, dtype=np.int64)
    e = np.asarray(ends, dtype=np.int64)
    p = np.asarray(parents, dtype=np.int64)
    out = e - s
    kids = np.flatnonzero(p != _NO_PARENT)
    par = p[kids]
    lo = np.maximum(s[kids], s[par])
    hi = np.minimum(e[kids], e[par])
    keep = hi > lo
    par, lo, hi = par[keep], lo[keep], hi[keep]
    if par.size == 0:
        return out
    order = np.lexsort((lo, par))
    par, lo, hi = par[order], lo[order], hi[order]
    t0 = lo.min()
    lo, hi = lo - t0, hi - t0
    # Running maximum of the children's ends within each parent: offset
    # every group past the previous one so one cumulative max serves all.
    first = np.r_[True, par[1:] != par[:-1]]
    group = np.cumsum(first) - 1
    span = int(hi.max()) + 1
    if int(group[-1]) * span >= 2**62:
        raise ValueError("span times too far apart for the interval arithmetic")
    running = np.maximum.accumulate(group * span + hi)
    prev_end = np.empty_like(running)
    prev_end[0] = 0
    prev_end[1:] = running[:-1] - group[1:] * span
    prev_end[first] = 0
    covered = np.maximum(hi - np.maximum(lo, prev_end), 0)
    np.subtract.at(out, par, covered)
    return out


class Tracer:
    """Patch the alfs targets, record spans and counters, restore on exit.

    Use as a context manager around the traced operations; call
    :meth:`begin_op` before each operation so spans carry its id. Parents
    come from one call stack, which holds because the benchmark pins
    ``ALFS_THREADS=1``; threaded cells would need a stack per thread.
    """

    def __init__(self):
        self.names: list[str] = list(TARGETS)
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.name_idx = array("q")
        self.ops = array("q")
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, (mod_name, attr) in TARGETS.items():
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in [m for k, m in sys.modules.items()
                        if k == "alfs" or k.startswith("alfs.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self.name_ids[name]
        before, after = _HOOKS.get(name, (None, None))
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            index = len(tracer.starts)
            tracer.starts.append(clock())
            tracer.ends.append(0)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else _NO_PARENT)
            tracer.name_idx.append(name_id)
            tracer.ops.append(tracer._op)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if after is not None:
                    after(tracer, None, exc)
                raise
            finally:
                tracer._stack.pop()
                tracer.ends[index] = clock()
            if after is not None:
                after(tracer, result, None)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.starts)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (times in s)."""
        idx = np.asarray(self.name_idx, dtype=np.int64)
        selfs = self_times(self.starts, self.ends, self.parents)
        calls = np.bincount(idx, minlength=len(self.names))
        self_ns = np.zeros(len(self.names), dtype=np.int64)
        np.add.at(self_ns, idx, selfs)
        out: dict[str, float] = {}
        for metric, (kind, spans) in SPAN_METRICS.items():
            ids = [self.name_ids[s] for s in spans]
            if kind == "calls":
                out[metric] = int(calls[ids].sum())
            else:
                out[metric] = int(self_ns[ids].sum()) / 1e9
        for metric, (counter, _) in COUNTER_METRICS.items():
            out[metric] = self.counters[counter]
        for metric, (num, den, _) in RATIO_METRICS.items():
            d = self.counters[den]
            out[metric] = self.counters[num] / d if d else 0.0
        return out

    def absent_metrics(self) -> list[str]:
        """Metrics none of whose spans could be traced."""
        gone = set(self.absent)
        out = [m for m, (_, spans) in SPAN_METRICS.items() if gone.issuperset(spans)]
        out += [m for m, (_, spans) in COUNTER_METRICS.items() if gone.issuperset(spans)]
        out += [m for m, (_, _, spans) in RATIO_METRICS.items() if gone.issuperset(spans)]
        return out

    def dump(self, path) -> None:
        """Write every span as one tab-separated line (times in ns), gzipped."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.starts)):
                fh.write(f"{i}\t{self.names[self.name_idx[i]]}\t{self.starts[i]}\t"
                         f"{self.ends[i]}\t{self.parents[i]}\t{self.ops[i]}\n")


# -- counter hooks: (before(tracer, args, kwargs) -> (args, kwargs),
#                    after(tracer, result, exc)) --------------------------

def _count_calls(tracer: Tracer, counter: str, fn: Callable) -> Callable:
    def counted(*a, **k):
        tracer.counters[counter] += 1
        return fn(*a, **k)
    return counted


def _minimize_before(tracer, args, kwargs):
    # minimize(f, grad, x0, cfg, ...): count evaluations at the lbfgs boundary
    args = list(args)
    for pos, key, counter in ((0, "f", "f_evals"), (1, "grad", "g_evals")):
        if pos < len(args):
            args[pos] = _count_calls(tracer, counter, args[pos])
        elif key in kwargs:
            kwargs[key] = _count_calls(tracer, counter, kwargs[key])
    return tuple(args), kwargs


def _minimize_after(tracer, result, exc):
    if exc is None:
        _, trace = result
        tracer.counters["minimize_returns"] += 1
        tracer.counters["inner_iters"] += trace.iterations
        tracer.counters["grad_tol"] += trace.stop_reason == "grad_tol"


def _solve_after(tracer, result, exc):
    if exc is None:
        _, report = result
        tracer.counters["solve_returns"] += 1
        tracer.counters["sweeps"] += report.iterations
        tracer.counters["converged"] += report.stop_reason == "converged"


def _knn_before(tracer, args, kwargs):
    # knn_classify(train, test, k): the full n_test x n_train x d float64
    # difference tensor, computed from the shapes (not measured)
    train = args[0] if args else kwargs["train"]
    test = args[1] if len(args) > 1 else kwargs["test"]
    tracer.counters["knn_bytes"] += 8 * test.n_samples * train.n_samples * train.n_features
    return args, kwargs


def _run_curve_after(tracer, result, exc):
    curve = result if exc is None else getattr(exc, "partial", None)
    if curve is not None:
        tracer.counters["cell_failures"] += len(curve.failures)


def _grid_search_after(tracer, result, exc):
    failures = result.failures if exc is None else getattr(exc, "failures", None)
    if failures is not None:
        tracer.counters["cell_failures"] += len(failures)


_HOOKS = {
    "lbfgs.minimize": (_minimize_before, _minimize_after),
    "solver.solve": (None, _solve_after),
    "bench.knn_classify": (_knn_before, None),
    "bench.run_curve": (None, _run_curve_after),
    "bench.grid_search": (None, _grid_search_after),
}
