"""Self-time arithmetic and patching of the span tracer."""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import alfs  # noqa: E402
import alfs.cli  # noqa: E402,F401
from tracer import SPAN_METRICS, Tracer, self_times  # noqa: E402


def test_self_time_of_a_synthetic_span_tree():
    # 0: root [0, 100)
    #   1: [10, 30)           2: [20, 50)  (overlaps 1: union 10..50)
    #   3: [90, 120)          (clipped to the root: 90..100)
    #     4: [95, 99)         (grandchild: counts against 3 only)
    # 5: another root [200, 210) with no children
    starts = [0, 10, 20, 90, 95, 200]
    ends = [100, 30, 50, 120, 99, 210]
    parents = [-1, 0, 0, 0, 3, -1]
    got = self_times(starts, ends, parents).tolist()
    assert got == [100 - 40 - 10, 20, 30, 30 - 4, 4, 10]


def test_self_times_sum_to_root_duration_when_nested():
    starts = [0, 1, 2, 5, 7]
    ends = [10, 6, 4, 6, 9]
    parents = [-1, 0, 1, 1, 0]
    assert int(self_times(starts, ends, parents).sum()) == 10


def test_every_module_reference_is_patched_and_restored():
    originals = (alfs.solver.solve, alfs.bench.solve, alfs.cli.solve, alfs.solve)
    assert len({id(f) for f in originals}) == 1
    with Tracer():
        wrapped = (alfs.solver.solve, alfs.bench.solve, alfs.cli.solve, alfs.solve)
        assert all(f is not originals[0] for f in wrapped)
        assert all(f.__wrapped__ is originals[0] for f in wrapped)
        assert alfs.solver.svt is not alfs.kernels.svt.__wrapped__
    assert (alfs.solver.solve, alfs.bench.solve, alfs.cli.solve, alfs.solve) == originals


def test_spans_nest_and_counters_agree_on_a_small_solve():
    rng = np.random.default_rng(0)
    ds = alfs.Dataset(rng.normal(size=(4, 6)))
    with Tracer() as tracer:
        tracer.begin_op(7)
        _, report = alfs.solve(ds, cfg=alfs.SolverConfig(tau=1.5))
    m = tracer.layer_metrics()
    assert m["solver.solve.calls"] == 1
    assert m["solver.sweeps"] == report.iterations == m["solver.z_step.calls"]
    assert m["lbfgs.minimize.calls"] == report.iterations
    assert m["lbfgs.f_evals"] >= m["lbfgs.inner_iters"] > 0
    assert m["kernels.svd_calls"] == 2 * report.iterations + 1  # svt + objective
    assert set(tracer.ops) == {7}
    assert tracer.parents[0] == -1 and all(p >= 0 for p in tracer.parents[1:])
    assert tracer.absent == [] and tracer.absent_metrics() == []


def test_missing_functions_are_reported_absent(monkeypatch):
    monkeypatch.delattr(alfs.solver, "solve_w_subproblem")
    monkeypatch.setattr("importlib.import_module", _import_without_lbfgs)
    with Tracer() as tracer:
        pass
    assert "lbfgs.minimize" in tracer.absent
    assert "solver.solve_w_subproblem" in tracer.absent
    absent = tracer.absent_metrics()
    assert {"lbfgs.minimize.calls", "lbfgs.f_evals", "lbfgs.grad_tol_ratio"} <= set(absent)
    assert "solver.w_step.s" not in absent  # its other spans still exist
    m = tracer.layer_metrics()
    assert set(SPAN_METRICS) <= set(m)
    assert m["lbfgs.minimize.calls"] == 0


_real_import = __import__("importlib").import_module


def _import_without_lbfgs(name, *args):
    if name == "alfs.lbfgs":
        raise ImportError(name)
    return _real_import(name, *args)
