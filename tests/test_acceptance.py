"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Every tolerance and runtime budget is asserted, not just printed.
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from alfs import (
    BenchSpec,
    Dataset,
    GridProtocol,
    RcurConfig,
    RegularizationParams,
    SelectionRequest,
    SolverConfig,
    SplitSpec,
    grid_search,
    group_shrink,
    load_csv,
    oracle_best_subsets,
    rcur,
    run_curve,
    soft_threshold,
    solve,
    split,
    svt,
)
from alfs.bench import GRID_DEFAULT
from alfs.cli import main as cli_main
from alfs.solver import (
    SolverState,
    pq_penalty,
    solve_w_subproblem,
    spectral_basis,
    update_p_q,
)

from conftest import (
    TINY_CSV,
    make_clusters,
    w_step_gradient_ratio,
)

LIBRAS_CSV = Path(os.environ.get("ALFS_LIBRAS_CSV", TINY_CSV.parent / "libras.csv"))

# tiny-instance solver settings: faster penalty growth; solution quality is
# what criterion 5 measures, so any degradation from this choice would fail
# the 1.25x bound itself
FAST_GRID_SOLVER = SolverConfig(tau=1.5)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def group_subgradient_residual(g, out, weight, axis):
    """Worst violation, relative to ``weight``, of ``g`` being a subgradient
    of ``weight * sum of group norms`` at ``out`` (rows for axis=1, columns
    for axis=0): ``g = weight * out/||out||`` on live groups, ``||g|| <=
    weight`` on the others. Also returns the number of dead groups."""
    norms = np.linalg.norm(out, axis=axis, keepdims=True)
    live = (norms > 0).ravel()
    unit = np.divide(out, norms, out=np.zeros_like(out), where=norms > 0)
    gap = np.abs(g - weight * unit)
    gap = gap[live] if axis == 1 else gap[:, live]
    outside = np.linalg.norm(g, axis=axis)[~live] - weight
    worst = max(float(gap.max(initial=0.0)), float(outside.max(initial=0.0)))
    return worst / weight, int((~live).sum())


def test_criterion_1_gradient_correctness():
    # Two certificates of one sweep on 20 random instances. (a) The gradient
    # of the augmented Lagrangian in W, by central differences (exact for
    # this quadratic up to rounding), vanishes at the closed-form W update
    # relative to its size at the drawn W. (b) At the P and Q updates that
    # follow, sigma (W - P) + L3 is a row subgradient of alpha ||P||_2,1 and
    # sigma (W - Q) + L4 a column subgradient of beta ||Q^T||_2,1: the
    # optimality conditions of both proxes.
    limit = 10.0
    start = time.perf_counter()
    worst_fd = 0.0
    worst_sub = 0.0
    dead = 0  # rows of P and columns of Q set to zero at 10x strength
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        ds = Dataset(rng.normal(size=(6, 9)))
        n, d = 9, 6
        state = SolverState(
            w=rng.normal(size=(n, d)),
            z=rng.normal(size=(n, n)),
            w_tilde=rng.normal(size=(n, d)),
            p=rng.normal(size=(n, d)),
            q=rng.normal(size=(n, d)),
            lambda1=rng.normal(size=(n, n)),
            lambda2=rng.normal(size=(n, d)),
            lambda3=rng.normal(size=(n, d)),
            lambda4=rng.normal(size=(n, d)),
            rho=float(rng.uniform(0.1, 2.0)),
        )
        params = RegularizationParams(
            alpha=float(rng.uniform(0.1, 2.0)),
            beta=float(rng.uniform(0.1, 2.0)),
            gamma=1.0,
            eta=float(rng.uniform(0.1, 2.0)),
        )

        worst_fd = max(worst_fd, w_step_gradient_ratio(ds, state))

        basis = spectral_basis(ds)
        sigma = pq_penalty(basis, state.rho)
        state.w = solve_w_subproblem(ds, state, basis, sigma)
        # as drawn, and ten times stronger so that some rows and columns vanish
        for strength in (1.0, 10.0):
            strong = replace(params, alpha=strength * params.alpha, beta=strength * params.beta)
            p, q = update_p_q(state, strong, sigma)
            for g, out, weight, axis in (
                (sigma * (state.w - p) + state.lambda3, p, strong.alpha, 1),
                (sigma * (state.w - q) + state.lambda4, q, strong.beta, 0),
            ):
                residual, n_dead = group_subgradient_residual(g, out, weight, axis)
                worst_sub = max(worst_sub, residual)
                dead += n_dead if strength > 1.0 else 0
    elapsed = time.perf_counter() - start
    report(
        1,
        "sweep optimality",
        worst_fd < 1e-8 and worst_sub < 1e-8 and dead > 0 and elapsed < limit,
        f"worst relative W-block gradient at the update {worst_fd:.2e}, worst P/Q "
        f"subgradient residual {worst_sub:.2e} ({dead} groups zero at 10x) over "
        f"20 instances in {elapsed:.1f}s (< {limit:.0f}s)",
    )


def test_criterion_2_prox_correctness():
    limit = 30.0
    start = time.perf_counter()
    eps = np.finfo(float).eps

    cert_ok = True
    for trial in range(10):
        rng = np.random.default_rng(2000 + trial)
        k = rng.normal(size=(8, 6)) * float(rng.choice([0.1, 1.0, 10.0]))
        mu = np.abs(rng.normal(size=(8, 6)))
        out = soft_threshold(k, mu)
        resid = k - out
        slack = 4 * eps * np.maximum(np.abs(k), mu)  # one rounded subtraction
        cert_ok &= bool(np.all(np.abs(resid) <= mu + slack))
        nz = out != 0
        cert_ok &= bool(
            np.all(np.abs(resid[nz] - mu[nz] * np.sign(out[nz])) <= slack[nz])
        )

    # group shrinkage, rows (axis=1) and columns (axis=0): the residual
    # k - out of every group has norm <= mu, and equals mu * out/||out||
    # on groups that survive
    group_ok = True
    for trial in range(10):
        rng = np.random.default_rng(4000 + trial)
        k = rng.normal(size=(8, 6)) * float(rng.choice([0.1, 1.0, 10.0]))
        for axis in (1, 0):
            mu = float(rng.uniform(0.1, 3.0))
            out = group_shrink(k, mu, axis=axis)
            resid = k - out
            slack = 8 * eps * max(mu, float(np.abs(k).max()))
            group_ok &= bool(np.all(np.linalg.norm(resid, axis=axis) <= mu + slack))
            norms = np.linalg.norm(out, axis=axis, keepdims=True)
            live = (norms > 0).ravel()
            want = mu * np.divide(out, norms, out=np.zeros_like(out), where=norms > 0)
            diff = np.abs(resid - want)
            group_ok &= bool(np.all((diff[live] if axis == 1 else diff[:, live]) <= slack))
    cert_ok &= group_ok

    def prox_objective(l, k, mu):
        return mu * np.linalg.svd(l, compute_uv=False).sum() + 0.5 * float(
            ((l - k) ** 2).sum()
        )

    svt_ok = True
    for trial in range(10):
        rng = np.random.default_rng(3000 + trial)
        k = rng.normal(size=(6, 5))
        mu = float(rng.uniform(0.1, 1.0))
        out = svt(k, mu)
        base = prox_objective(out, k, mu)
        for _ in range(1000):
            pert = out + float(rng.choice([1e-4, 1e-2, 1e-1])) * rng.normal(
                size=out.shape
            )
            if base > prox_objective(pert, k, mu) + 1e-12:
                svt_ok = False
                break

    elapsed = time.perf_counter() - start
    report(
        2,
        "prox correctness",
        cert_ok and svt_ok and elapsed < limit,
        f"shrinkage certificates={'ok' if cert_ok else 'violated'}, "
        f"svt beats 10x1000 perturbations={'ok' if svt_ok else 'violated'}, "
        f"{elapsed:.1f}s (< {limit:.0f}s)",
    )


def test_criterion_3_admm_convergence():
    limit = 120.0
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    ds = Dataset(rng.normal(size=(20, 40)))
    # Algorithm defaults: rho 1e-6, tau 1.1, epsilon 1e-3, 1000 outer max
    w, rep = solve(ds, RegularizationParams(), SolverConfig())
    elapsed = time.perf_counter() - start
    hit = next(
        (
            i
            for i, r in enumerate(rep.records)
            if max(r.residual_wx_z, r.residual_w_wtilde, r.residual_w_pq) < 1e-3
        ),
        None,
    )
    ok = hit is not None and hit < 1000 and elapsed < limit
    report(
        3,
        "ADMM convergence",
        ok,
        f"all three residuals < 1e-3 at iteration {hit} "
        f"(stop={rep.stop_reason} after {rep.iterations}), {elapsed:.1f}s (< {limit:.0f}s)",
    )


def test_criterion_4_h_seminorm_diagnostic():
    limit = 60.0
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    ds = Dataset(rng.normal(size=(10, 20)))
    cfg = SolverConfig(
        rho_init=1.0,
        tau=1.0,  # a fixed penalty
        epsilon=1e-12,  # run the full budget; this test watches the sequence
        max_outer_iters=80,
    )
    _, rep = solve(ds, RegularizationParams(), cfg)
    h = [r.h_seminorm_sq for r in rep.records]
    pairs = list(zip(h[:-1], h[1:]))
    violations = [(b - a) / a for a, b in pairs if b > a]
    frac_nonincreasing = 1.0 - len(violations) / len(pairs)
    max_rel = max(violations) if violations else 0.0
    elapsed = time.perf_counter() - start
    ok = frac_nonincreasing >= 0.90 and max_rel <= 0.05 and elapsed < limit
    report(
        4,
        "H-seminorm diagnostic",
        ok,
        f"non-increasing on {frac_nonincreasing:.1%} of {len(pairs)} pairs, "
        f"max relative violation {max_rel:.2e}, {elapsed:.1f}s (< {limit:.0f}s)",
    )


def test_criterion_5_oracle_near_equivalence():
    limit = 300.0
    start = time.perf_counter()
    wins = 0
    ratios = []
    for trial in range(20):
        rng = np.random.default_rng(5000 + trial)
        ds = Dataset(rng.normal(size=(5, 6)))
        _, _, err_star = oracle_best_subsets(ds, SelectionRequest(2, 2))
        result = grid_search(
            ds,
            GridProtocol(m=2, r=2),
            grid=GRID_DEFAULT,
            gamma=1.0,
            solver_cfg=FAST_GRID_SOLVER,
        )
        assert result.n_solver_calls == 64
        err_alfs = -result.best_score  # protocol scores by negated error here
        ratio = err_alfs / err_star if err_star > 0 else (1.0 if err_alfs < 1e-9 else np.inf)
        ratios.append(ratio)
        wins += ratio <= 1.25
    elapsed = time.perf_counter() - start
    ok = wins >= 16 and elapsed < limit
    report(
        5,
        "oracle near-equivalence",
        ok,
        f"within 1.25x of the exhaustive optimum on {wins}/20 instances "
        f"(median ratio {np.median(ratios):.3f}), {elapsed:.0f}s (< {limit:.0f}s)",
    )


def test_criterion_6_sparsity_reproduction():
    limit = 120.0
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    base = rng.normal(size=(8, 3)) @ rng.normal(size=(3, 12))
    ds = Dataset(base + 0.1 * rng.normal(size=(8, 12)))
    # settle close enough to the optimum that dead rows drop below the
    # 1e-6 threshold: tighter stop
    cfg = SolverConfig(tau=1.3, epsilon=1e-5, max_outer_iters=2000)
    sweep = (0.1, 1.0, 10.0, 100.0)

    row_counts = []
    for alpha in sweep:
        p = RegularizationParams(alpha=alpha, beta=0.1, gamma=1.0, eta=0.1)
        w, _ = solve(ds, p, cfg)
        row_counts.append(int((np.linalg.norm(w, axis=1) > 1e-6).sum()))
    col_counts = []
    for beta in sweep:
        p = RegularizationParams(alpha=0.1, beta=beta, gamma=1.0, eta=0.1)
        w, _ = solve(ds, p, cfg)
        col_counts.append(int((np.linalg.norm(w, axis=0) > 1e-6).sum()))

    rows_monotone = all(b <= a for a, b in zip(row_counts, row_counts[1:]))
    cols_monotone = all(b <= a for a, b in zip(col_counts, col_counts[1:]))
    elapsed = time.perf_counter() - start
    ok = rows_monotone and cols_monotone and elapsed < limit
    report(
        6,
        "sparsity reproduction",
        ok,
        f"nonzero rows along alpha {row_counts}, nonzero cols along beta "
        f"{col_counts}, {elapsed:.0f}s (< {limit:.0f}s)",
    )


def _dominance_check(train, test, budgets, repeats, solver_cfg):
    alfs_curve = run_curve(
        train,
        test,
        BenchSpec(
            method="alfs",
            sample_budgets=budgets,
            repeats=repeats,
            seed=0,
            solver=solver_cfg,
        ),
    )
    rand_curve = run_curve(
        train,
        test,
        BenchSpec(method="random", sample_budgets=budgets, repeats=repeats, seed=0),
    )
    return alfs_curve, rand_curve


def test_criterion_7_benchmark_dominance():
    limit = 600.0
    start = time.perf_counter()
    ds = make_clusters(n=120, d=30, n_classes=3, sep=8.0, noise=1.0, seed=11)
    train, test = split(ds, SplitSpec(n_train=80, seed=2))
    budgets = (5, 10, 20)
    alfs_curve, rand_curve = _dominance_check(train, test, budgets, 10, SolverConfig())
    dominated = all(
        a >= r for a, r in zip(alfs_curve.mean_accuracy, rand_curve.mean_accuracy)
    )
    elapsed = time.perf_counter() - start
    ok = dominated and elapsed < limit
    pairs = ", ".join(
        f"m={b}: {a:.3f} vs {r:.3f}"
        for b, a, r in zip(budgets, alfs_curve.mean_accuracy, rand_curve.mean_accuracy)
    )
    report(
        7,
        "benchmark dominance",
        ok,
        f"mean accuracy (selection vs random) {pairs}, {elapsed:.0f}s (< {limit:.0f}s)",
    )


@pytest.mark.skipif(
    not LIBRAS_CSV.exists(),
    reason="Libras Movement CSV not provided locally",
)
def test_criterion_7_libras_extension():
    ds = load_csv(LIBRAS_CSV, label_column="label")
    assert ds.n_samples == 360 and ds.n_features == 90
    train, test = split(ds, SplitSpec(n_train=200, seed=0))
    alfs_curve, rand_curve = _dominance_check(
        train, test, (5, 10, 20), 10, SolverConfig()
    )
    dominated = all(
        a >= r for a, r in zip(alfs_curve.mean_accuracy, rand_curve.mean_accuracy)
    )
    report(
        7,
        "benchmark dominance (Libras 200/160)",
        dominated,
        f"alfs {alfs_curve.mean_accuracy} vs random {rand_curve.mean_accuracy}",
    )


def test_criterion_8_rcur_quality():
    limit = 60.0
    start = time.perf_counter()
    within_bound = 0
    lower_ok = True
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        x = rng.normal(size=(30, 3)) @ rng.normal(size=(3, 40))
        x += 0.05 * rng.normal(size=(30, 40))
        ds = Dataset(x)
        res = rcur(ds, RcurConfig(k=3, m=15, r=12, seed=seed))
        within_bound += res.err <= 2.0 * res.svd_err_k
        q = min(len(res.column_indices), len(res.row_indices))
        s = np.linalg.svd(x, compute_uv=False)
        lower_ok &= res.err >= float((s[q:] ** 2).sum()) - 1e-9
    elapsed = time.perf_counter() - start
    ok = within_bound >= 8 and lower_ok and elapsed < limit
    report(
        8,
        "R-CUR quality",
        ok,
        f"within 2x of the rank-3 SVD error on {within_bound}/10 seeds, "
        f"rank-q lower bound {'never violated' if lower_ok else 'VIOLATED'}, "
        f"{elapsed:.1f}s (< {limit:.0f}s)",
    )


def test_criterion_9_cli_determinism(tmp_path):
    fast_cfg = tmp_path / "fast.json"
    fast_cfg.write_text(
        json.dumps({"solver": {"tau": 1.5}})
    )
    cluster_csv = tmp_path / "clusters.csv"
    from alfs import write_csv

    write_csv(
        make_clusters(n=45, d=6, n_classes=3, sep=10.0, noise=1.0, seed=4),
        cluster_csv,
        label_column="label",
    )

    solve_out = tmp_path / "solve.json"
    select_out = tmp_path / "select.json"
    bench_out = tmp_path / "bench.csv"
    outputs = []
    for _ in range(2):  # identical flags, seeds, and paths on both runs
        code = cli_main(
            ["solve", "--data", str(TINY_CSV), "--label-column", "label",
             "--config", str(fast_cfg), "--out", str(solve_out)]
        )
        assert code == 0
        code = cli_main(
            ["select", "--result", str(solve_out), "--m", "3", "--r", "2",
             "--out", str(select_out)]
        )
        assert code == 0
        code = cli_main(
            ["bench", "--data", str(cluster_csv), "--label-column", "label",
             "--config", str(fast_cfg), "--methods", "alfs,random,rcur",
             "--budgets", "3,6", "--repeats", "3", "--seed", "5",
             "--out", str(bench_out)]
        )
        assert code == 0
        outputs.append(
            (solve_out.read_bytes(), select_out.read_bytes(), bench_out.read_bytes())
        )

    identical = outputs[0] == outputs[1]

    import subprocess
    import sys

    oracle_runs = []
    env = dict(os.environ, PYTHONPATH=str(TINY_CSV.parent.parent / "src"))
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "alfs", "oracle", "--data", str(TINY_CSV),
             "--label-column", "label", "--m", "2", "--r", "2"],
            capture_output=True,
            env=env,
            cwd=str(tmp_path),
        )
        assert proc.returncode == 0
        oracle_runs.append(proc.stdout)
    identical = identical and oracle_runs[0] == oracle_runs[1]

    report(
        9,
        "CLI determinism",
        identical,
        "solve/select/bench outputs and oracle stdout byte-identical across reruns",
    )
