import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alfs.solver as solver_mod
from alfs import (
    AngularWeights,
    Dataset,
    RegularizationParams,
    SelectionRequest,
    SolverAbortError,
    SolverConfig,
    angular_weights,
    l21_norm,
    objective,
    rank_and_select,
    solve,
)
from alfs.solver import (
    STACK_BYTES,
    SolverState,
    StackReport,
    check_convergence,
    pq_penalty,
    primal_residuals,
    solve_w_subproblem,
    spectral_basis,
    update_duals_and_rho,
    update_p_q,
    update_w_tilde,
    update_z,
)

from lbfgs_oracle import LbfgsConfig, minimize
from conftest import (
    augmented_lagrangian,
    make_planted_anchors,
    random_dataset,
    w_smooth_gradient,
    w_split_objective,
    w_step_gradient_ratio,
)


def random_state(rng, d, n, rho=0.7):
    return SolverState(
        w=rng.normal(size=(n, d)),
        z=rng.normal(size=(n, n)),
        w_tilde=rng.normal(size=(n, d)),
        p=rng.normal(size=(n, d)),
        q=rng.normal(size=(n, d)),
        lambda1=rng.normal(size=(n, n)),
        lambda2=rng.normal(size=(n, d)),
        lambda3=rng.normal(size=(n, d)),
        lambda4=rng.normal(size=(n, d)),
        rho=rho,
    )


def feasible_state(ds, w, rho=1.0):
    """All copies of W equal to W, all multipliers zero."""
    n, d = w.shape
    return SolverState(
        w=w, z=w @ ds.matrix, w_tilde=w.copy(), p=w.copy(), q=w.copy(),
        lambda1=np.zeros((n, n)), lambda2=np.zeros((n, d)),
        lambda3=np.zeros((n, d)), lambda4=np.zeros((n, d)),
        rho=rho,
    )


def single_entry_state(w, w_tilde=0.0, p=0.0, q=0.0, rho=1.0):
    """A 1 x 1 state with zero Z and zero multipliers."""
    def one(v):
        return np.array([[v]])

    return SolverState(
        w=one(w), z=one(0.0), w_tilde=one(w_tilde), p=one(p), q=one(q),
        lambda1=one(0.0), lambda2=one(0.0), lambda3=one(0.0), lambda4=one(0.0),
        rho=rho,
    )


def residuals_of(state, ds):
    """The state's primal residuals, with its W X formed first."""
    return primal_residuals(state, state.w @ ds.matrix)


@pytest.mark.parametrize("cls, name", [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in (RegularizationParams, SolverConfig)
    for f in dataclasses.fields(cls) if isinstance(f.default, float)
])
def test_nan_in_a_float_field_is_rejected(cls, name):
    # NaN fails every comparison, so a check written as `value < 0` passes it
    with pytest.raises(ValueError, match=name):
        cls(**{name: math.nan})


@pytest.mark.parametrize("cls, name", [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in (RegularizationParams, SolverConfig)
    for f in dataclasses.fields(cls) if isinstance(f.default, float)
])
def test_an_infinite_float_field_is_rejected(cls, name):
    # JSON configs may hold Infinity; no weight or setting makes sense there
    with pytest.raises(ValueError, match=name):
        cls(**{name: math.inf})


def exact_objective_recomputed(x, w, p, t):
    """Independent term-by-term recomputation with plain loops."""
    resid = x - x @ w @ x
    data = float(np.sum(resid**2))
    row_term = sum(float(np.sqrt(np.sum(w[i] ** 2))) for i in range(w.shape[0]))
    col_term = sum(float(np.sqrt(np.sum(w[:, j] ** 2))) for j in range(w.shape[1]))
    nuc = float(np.sum(np.linalg.svd(w, compute_uv=False)))
    local = float(np.sum(np.abs(t * (w @ x))))
    return data + p.alpha * row_term + p.beta * col_term + p.gamma * nuc + p.eta * local


class TestObjective:
    def test_zero_w_gives_data_norm(self):
        ds = random_dataset(0, d=4, n=6)
        t = angular_weights(ds)
        p = RegularizationParams(alpha=3, beta=2, gamma=5, eta=7)
        w = np.zeros((6, 4))
        assert objective(ds, w, p, t) == pytest.approx(
            float((ds.matrix**2).sum()), rel=1e-12
        )

    def test_inverse_w_zeroes_data_term(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        ds = Dataset(x)
        t = angular_weights(ds)
        p = RegularizationParams(alpha=0, beta=0, gamma=0, eta=0)
        w = np.linalg.inv(x)
        assert objective(ds, w, p, t) == pytest.approx(0.0, abs=1e-18)

    def test_matches_term_by_term_recomputation(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(2, d=4, n=6)
        t = angular_weights(ds)
        p = RegularizationParams(alpha=0.5, beta=1.5, gamma=0.7, eta=0.2)
        w = rng.normal(size=(6, 4))
        expected = exact_objective_recomputed(ds.matrix, w, p, t.t)
        assert objective(ds, w, p, t) == pytest.approx(expected, abs=1e-10)

    def test_shape_mismatch_rejected(self):
        ds = random_dataset(3, d=4, n=6)
        t = angular_weights(ds)
        with pytest.raises(ValueError):
            objective(ds, np.zeros((4, 6)), RegularizationParams(), t)


class TestAugmentedLagrangian:
    def test_feasible_point_zero_multipliers_equals_split_objective(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(4, d=3, n=5)
        t = angular_weights(ds)
        p = RegularizationParams(alpha=0.3, beta=0.4, gamma=0.5, eta=0.6)
        w = rng.normal(size=(5, 3))
        state = feasible_state(ds, w, rho=2.0)
        assert augmented_lagrangian(ds, state, p, t, sigma=1.5) == pytest.approx(
            objective(ds, w, p, t), abs=1e-10
        )

    def test_all_zero_state(self):
        ds = random_dataset(5, d=3, n=4)
        t = angular_weights(ds)
        state = SolverState.initial(3, 4, SolverConfig())
        value = augmented_lagrangian(ds, state, RegularizationParams(), t, sigma=1.0)
        assert value == pytest.approx(float((ds.matrix**2).sum()), rel=1e-12)

    def test_matches_term_by_term_recomputation(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(6, d=3, n=5)
        x = ds.matrix
        t = angular_weights(ds)
        p = RegularizationParams(alpha=0.9, beta=0.2, gamma=1.1, eta=0.4)
        state = random_state(rng, 3, 5)
        sigma = 0.9
        r1 = state.w @ x - state.z
        r2 = state.w - state.w_tilde
        r3 = state.w - state.p
        r4 = state.w - state.q
        expected = (
            float(np.sum((x - x @ state.w @ x) ** 2))
            + p.alpha * sum(np.sqrt(np.sum(state.p[i] ** 2)) for i in range(5))
            + p.beta * sum(np.sqrt(np.sum(state.q[:, j] ** 2)) for j in range(3))
            + p.gamma * float(np.sum(np.linalg.svd(state.w_tilde, compute_uv=False)))
            + p.eta * float(np.sum(np.abs(t.t * state.z)))
            + float(np.trace(state.lambda1.T @ r1))
            + float(np.trace(state.lambda2.T @ r2))
            + float(np.trace(state.lambda3.T @ r3))
            + float(np.trace(state.lambda4.T @ r4))
            + 0.5 * state.rho * float(np.sum(r1**2))
            + 0.5 * state.rho * float(np.sum(r2**2))
            + 0.5 * sigma * float(np.sum(r3**2) + np.sum(r4**2))
        )
        assert augmented_lagrangian(ds, state, p, t, sigma) == pytest.approx(
            expected, abs=1e-10
        )


class TestWSubproblemGradient:
    def test_zero_state_closed_form(self):
        # from the all-zero state the minimizer solves
        # 2 X^T X W X X^T + rho W X X^T + (rho + 2 sigma) W = 2 X^T X X^T
        ds = random_dataset(7, d=4, n=6)
        x = ds.matrix
        state = SolverState.initial(4, 6, SolverConfig(rho_init=1.0))
        basis = spectral_basis(ds)
        sigma = pq_penalty(basis, 1.0)
        w = solve_w_subproblem(ds, state, basis, sigma)
        lhs = 2.0 * x.T @ x @ w @ x @ x.T + w @ x @ x.T + (1.0 + 2.0 * sigma) * w
        rhs = 2.0 * x.T @ x @ x.T
        assert np.abs(lhs - rhs).max() < 1e-9 * np.abs(rhs).max()

    def test_matches_finite_differences_smooth_only(self):
        # P, Q and their multipliers at zero
        rng = np.random.default_rng(8)
        ds = random_dataset(8, d=4, n=6)
        state = random_state(rng, 4, 6)
        for name in ("p", "q", "lambda3", "lambda4"):
            setattr(state, name, np.zeros((6, 4)))
        assert w_step_gradient_ratio(ds, state) < 1e-8

    def test_matches_finite_differences_full(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(9, d=4, n=6)
        state = random_state(rng, 4, 6)
        assert w_step_gradient_ratio(ds, state) < 1e-8

    @pytest.mark.parametrize("d, n", [(4, 6), (6, 4), (5, 5)])
    def test_spectral_solve_in_every_shape(self, d, n):
        # more samples than features, more features than samples, square
        rng = np.random.default_rng(30 + d)
        ds = random_dataset(30 + d, d=d, n=n)
        assert w_step_gradient_ratio(ds, random_state(rng, d, n)) < 1e-8


class TestInnerPenalty:
    """:func:`pq_penalty`, the penalty sigma of the W = P and W = Q constraints."""

    @pytest.mark.parametrize("d, n", [(3, 5), (5, 3), (4, 4)])
    def test_geometric_mean_of_floor_and_top_eigenvalue(self, d, n):
        ds = random_dataset(40 + d, d=d, n=n)
        x = ds.matrix
        rho = 0.3
        # every eigenvalue of the quadratic, from the Gram matrices
        sa = np.linalg.eigvalsh(x.T @ x)  # n values, zeros beyond rank
        sb = np.linalg.eigvalsh(x @ x.T)  # d values
        h = 2.0 * np.outer(sa, sb) + rho * sb[None, :] + rho
        assert h.min() >= rho * (1 - 1e-12)
        expected = np.sqrt(rho * h.max())
        got = pq_penalty(spectral_basis(ds), rho)
        assert got == pytest.approx(expected, rel=1e-9)


def w_step(ds, state):
    """The W update with the sweep's penalty; returns it and the penalty."""
    basis = spectral_basis(ds)
    sigma = pq_penalty(basis, state.rho)
    return solve_w_subproblem(ds, state, basis, sigma), sigma


class TestSolveWSubproblem:
    def test_penalty_dominated_limit(self):
        rng = np.random.default_rng(10)
        ds = random_dataset(10, d=3, n=4)
        w0 = rng.normal(size=(4, 3))
        state = feasible_state(ds, w0, rho=1e8)
        state.w = np.zeros((4, 3))
        w, _ = w_step(ds, state)
        assert np.abs(w - w0).max() < 1e-3

    def test_matches_multistart_gd_oracle(self):
        # the W-block augmented Lagrangian is smooth; the oracle is plain
        # gradient descent with a power-iteration step size from several
        # random starts
        rng = np.random.default_rng(11)
        ds = random_dataset(11, d=2, n=3)
        state = random_state(rng, 2, 3, rho=0.5)
        exact, sigma = w_step(ds, state)

        def grad(w):
            return (w_smooth_gradient(ds, state, w) + state.lambda3 + state.lambda4
                    + sigma * (2.0 * w - state.p - state.q))

        # Lipschitz estimate via power iteration on the (constant) Hessian map
        v = rng.normal(size=(3, 2))
        g0 = grad(np.zeros((3, 2)))
        for _ in range(60):
            hv = grad(v) - g0
            v = hv / np.linalg.norm(hv)
        lip = float(np.linalg.norm(grad(v) - g0))
        step = 1.0 / (2.0 * lip)

        best = np.inf
        for start in range(5):
            w = rng.normal(size=(3, 2)) if start else np.zeros((3, 2))
            for _ in range(4000):
                w = w - step * grad(w)
            best = min(best, w_split_objective(ds, state, sigma, w))

        assert w_split_objective(ds, state, sigma, exact) <= best + 1e-4

    def test_warm_start_never_increases_inner_objective(self):
        rng = np.random.default_rng(12)
        ds = random_dataset(12, d=3, n=5)
        state = random_state(rng, 3, 5)
        w, sigma = w_step(ds, state)
        before = w_split_objective(ds, state, sigma, state.w)
        assert w_split_objective(ds, state, sigma, w) <= before + 1e-12


class TestUpdatePQ:
    def test_zero_weights_return_the_anchors(self):
        rng = np.random.default_rng(31)
        state = random_state(rng, 3, 5)
        p, q = update_p_q(state, RegularizationParams(alpha=0.0, beta=0.0), 2.0)
        assert np.allclose(p, state.w + state.lambda3 / 2.0, rtol=1e-15, atol=0.0)
        assert np.allclose(q, state.w + state.lambda4 / 2.0, rtol=1e-15, atol=0.0)

    def test_rows_of_p_and_columns_of_q_vanish_under_strong_weights(self):
        rng = np.random.default_rng(32)
        state = random_state(rng, 3, 5)
        p, q = update_p_q(state, RegularizationParams(alpha=1e6, beta=1.0), 1.0)
        assert not p.any()
        assert q.any() and np.all(np.linalg.norm(q, axis=0) > 0)
        p, q = update_p_q(state, RegularizationParams(alpha=1.0, beta=1e6), 1.0)
        assert p.any() and not q.any()


class TestUpdateZ:
    def test_zero_eta_returns_anchor_exactly(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(13, d=3, n=4)
        state = random_state(rng, 3, 4)
        wx = state.w @ ds.matrix
        t = angular_weights(ds)
        z = update_z(state, wx, 0.0 * t.t)
        assert np.array_equal(z, wx + state.lambda1 / state.rho)

    def test_single_entry_shrinkage(self):
        ds = Dataset(np.array([[1.0]]))
        state = single_entry_state(2.0)
        t = AngularWeights(t=np.array([[0.5]]), varsigma=1e-8)
        z = update_z(state, state.w @ ds.matrix, 1.0 * t.t)
        assert z[0, 0] == pytest.approx(1.5, abs=1e-15)

    def test_huge_eta_zeroes_everything(self):
        rng = np.random.default_rng(14)
        ds = random_dataset(14, d=3, n=4)
        state = random_state(rng, 3, 4)
        t = angular_weights(ds)
        z = update_z(state, state.w @ ds.matrix, 1e12 * t.t)
        assert np.array_equal(z, np.zeros((4, 4)))

    def test_prox_optimality_certificate(self):
        rng = np.random.default_rng(15)
        ds = random_dataset(15, d=4, n=6)
        state = random_state(rng, 4, 6)
        t = angular_weights(ds)
        eta = 0.8
        z = update_z(state, state.w @ ds.matrix, eta * t.t)
        anchor = state.w @ ds.matrix + state.lambda1 / state.rho
        resid = anchor - z
        thr = eta * t.t / state.rho
        assert np.all(np.abs(resid) <= thr * (1 + 1e-12) + 1e-300)
        nz = z != 0
        assert np.allclose(resid[nz], thr[nz] * np.sign(z[nz]), rtol=1e-10, atol=1e-14)


class TestUpdateWTilde:
    def test_zero_gamma_identity(self):
        rng = np.random.default_rng(16)
        state = random_state(rng, 3, 4)
        out = update_w_tilde(state, gamma=0.0)
        assert np.allclose(out, state.w + state.lambda2 / state.rho, atol=1e-12)

    def test_diagonal_case(self):
        state = SolverState.initial(2, 2, SolverConfig(rho_init=1.0))
        state.w = np.diag([3.0, 1.0])
        out = update_w_tilde(state, gamma=2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_beats_random_perturbations(self):
        def prox_objective(l, k, mu):
            return mu * np.linalg.svd(l, compute_uv=False).sum() + 0.5 * (
                (l - k) ** 2
            ).sum()

        rng = np.random.default_rng(17)
        state = random_state(rng, 3, 5, rho=2.0)
        gamma = 0.9
        k = state.w + state.lambda2 / state.rho
        out = update_w_tilde(state, gamma)
        base = prox_objective(out, k, gamma / state.rho)
        for _ in range(1000):
            pert = out + rng.choice([1e-4, 1e-2]) * rng.normal(size=out.shape)
            assert base <= prox_objective(pert, k, gamma / state.rho) + 1e-12


class TestUpdateDualsAndRho:
    def test_multiplier_step(self):
        ds = Dataset(np.array([[1.0]]))
        state = single_entry_state(1.0, w_tilde=1.0, p=0.0, q=1.0, rho=2.0)
        out = update_duals_and_rho(state, SolverConfig(tau=1.0), 3.0, residuals_of(state, ds))
        assert out.lambda1[0, 0] == pytest.approx(2.0)  # rho * (WX - Z) = 2*1
        assert out.lambda2[0, 0] == pytest.approx(0.0)
        assert out.lambda3[0, 0] == pytest.approx(3.0)  # sigma * (W - P) = 3*1
        assert out.lambda4[0, 0] == pytest.approx(0.0)

    def test_rho_growth(self):
        ds = Dataset(np.array([[1.0]]))
        state = SolverState.initial(1, 1, SolverConfig())
        out = update_duals_and_rho(state, SolverConfig(tau=1.1), 1.0, residuals_of(state, ds))
        assert out.rho == pytest.approx(1.1e-6, rel=1e-12)

    def test_rho_capped(self):
        ds = Dataset(np.array([[1.0]]))
        cfg = SolverConfig(rho_init=1e10, rho_max=1e10)
        state = SolverState.initial(1, 1, cfg)
        out = update_duals_and_rho(state, cfg, 1.0, residuals_of(state, ds))
        assert out.rho == 1e10

    def test_fixed_mode_leaves_rho(self):
        ds = Dataset(np.array([[1.0]]))
        cfg = SolverConfig(tau=1.0)
        state = SolverState.initial(1, 1, cfg)
        out = update_duals_and_rho(state, cfg, 1.0, residuals_of(state, ds))
        assert out.rho == cfg.rho_init


class TestCheckConvergence:
    def make_feasible_state(self):
        rng = np.random.default_rng(18)
        ds = random_dataset(18, d=3, n=4)
        return ds, feasible_state(ds, rng.normal(size=(4, 3)))

    def test_feasible_identical_objectives_converged(self):
        ds, state = self.make_feasible_state()
        decision = check_convergence(residuals_of(state, ds), 5.0, 5.0, 1e-3)
        assert decision.converged
        assert decision.rel_change == 0.0

    def test_large_residual_blocks_convergence(self):
        ds, state = self.make_feasible_state()
        state.z = state.z + 0.5
        decision = check_convergence(residuals_of(state, ds), 5.0, 5.0, 1e-3)
        assert not decision.converged
        assert decision.residual_wx_z == pytest.approx(0.5)

    @pytest.mark.parametrize("copy", ["p", "q"])
    def test_residual_w_minus_p_or_q_blocks_convergence(self, copy):
        ds, state = self.make_feasible_state()
        setattr(state, copy, getattr(state, copy) - 0.25)
        decision = check_convergence(residuals_of(state, ds), 5.0, 5.0, 1e-3)
        assert not decision.converged
        assert decision.residual_w_pq == pytest.approx(0.25)
        assert decision.residual_wx_z < 1e-12 and decision.residual_w_wtilde == 0.0

    def test_zero_previous_objective(self):
        ds, state = self.make_feasible_state()
        residuals = residuals_of(state, ds)
        assert check_convergence(residuals, 0.0, 0.0, 1e-3).converged
        assert not check_convergence(residuals, 0.0, 1.0, 1e-3).converged
        assert np.isnan(check_convergence(residuals, 0.0, 1.0, 1e-3).rel_change)


class TestHSeminorm:
    def test_matches_explicit_block_matrix(self):
        # the step one real sweep reports, against the explicit nine-block
        # quadratic form of the actual start -> end difference
        rng = np.random.default_rng(21)
        data = random_dataset(21, d=2, n=3)
        # from W = 0 with L2 = 2 X^T X X^T every block stays put once gamma
        # exceeds the spectral norm of L2: a zero step
        still = SolverState.initial(2, 3, SolverConfig(rho_init=0.6))
        still.lambda2 = spectral_basis(data).g.copy()
        cases = [
            (data, RegularizationParams(alpha=0.5, beta=1.5, gamma=0.7, eta=0.2),
             random_state(rng, 2, 3, rho=0.6)),
            (Dataset(np.eye(3)), RegularizationParams(), random_state(rng, 3, 3, rho=0.6)),
            (data, RegularizationParams(gamma=2.0 * np.linalg.norm(still.lambda2, 2)), still),
        ]
        steps = []
        for ds, params, start in cases:
            x = ds.matrix
            d, n = x.shape
            t = angular_weights(ds)
            basis = spectral_basis(ds)
            rho, sigma = start.rho, pq_penalty(basis, start.rho)
            cells = solver_mod._Cells.of([params], np.arange(1), t)
            end, _, records, _ = solver_mod._sweep(
                ds, start[None], cells, t, basis, SolverConfig(), np.ones(1))

            basis_map = np.zeros((n * n, n * d))
            for idx in range(n * d):
                e = np.zeros(n * d)
                e[idx] = 1.0
                basis_map[:, idx] = (e.reshape(n, d) @ x).ravel()
            h_w = rho * basis_map.T @ basis_map + rho * np.eye(n * d)
            blocks = [
                h_w,
                rho * np.eye(n * n),
                rho * np.eye(n * d),
                sigma * np.eye(n * d),
                sigma * np.eye(n * d),
                (1.0 / rho) * np.eye(n * n),
                (1.0 / rho) * np.eye(n * d),
                (1.0 / sigma) * np.eye(n * d),
                (1.0 / sigma) * np.eye(n * d),
            ]
            sizes = [b.shape[0] for b in blocks]
            big = np.zeros((sum(sizes), sum(sizes)))
            at = 0
            for b in blocks:
                big[at : at + b.shape[0], at : at + b.shape[0]] = b
                at += b.shape[0]

            v = np.concatenate(
                [
                    (getattr(end, name)[0] - getattr(start, name)).ravel()
                    for name in ("w", "z", "w_tilde", "p", "q",
                                 "lambda1", "lambda2", "lambda3", "lambda4")
                ]
            )
            expected = float(v @ big @ v)
            reported = records[0].h_seminorm_sq
            assert reported == pytest.approx(expected, abs=1e-10)
            steps.append(reported)
        assert steps[0] > 0 and steps[1] > 0 and steps[2] == 0.0


class TestSolve:
    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero column"):
            solve(Dataset(np.zeros((3, 4))), RegularizationParams(), SolverConfig())

    def test_converges_with_repeated_column(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(3, 5))
        x[:, 4] = x[:, 0]
        ds = Dataset(x)
        p = RegularizationParams(alpha=0.1, beta=0.1, gamma=0.1, eta=0.1)
        w, report = solve(ds, p, SolverConfig(tau=1.5))
        assert report.stop_reason == "converged"
        final = report.records[-1]
        eps = SolverConfig().epsilon
        assert final.residual_wx_z < eps
        assert final.residual_w_wtilde < eps
        assert final.residual_w_pq < eps
        assert final.rel_change is not None and final.rel_change < eps

    def test_planted_anchor_recovery(self):
        hits = 0
        for seed in range(10):
            ds, planted = make_planted_anchors(seed)
            p = RegularizationParams(alpha=10.0, beta=0.1, gamma=1.0, eta=0.1)
            w, _ = solve(ds, p, SolverConfig(tau=1.5))
            sel = rank_and_select(w, SelectionRequest(3, ds.n_features))
            if len(planted & set(sel.selected_samples)) >= 2:
                hits += 1
        assert hits >= 8

    def test_bitwise_deterministic(self):
        ds = random_dataset(23, d=4, n=7)
        p = RegularizationParams()
        cfg = SolverConfig(tau=1.5)
        w1, r1 = solve(ds, p, cfg)
        w2, r2 = solve(ds, p, cfg)
        assert np.array_equal(w1, w2)
        assert r1.stop_reason == r2.stop_reason
        assert len(r1.records) == len(r2.records)
        for a, b in zip(r1.records, r2.records):
            assert a == b  # exact float equality, field by field

    def test_abort_on_non_finite(self, monkeypatch):
        ds = random_dataset(24, d=3, n=4)

        def poisoned_update_z(state, wx, eta_t):
            z = np.full((4, 4), np.inf)
            return z

        monkeypatch.setattr(solver_mod, "update_z", poisoned_update_z)
        with pytest.raises(SolverAbortError):
            solver_mod.solve(ds, RegularizationParams(), SolverConfig())

    @pytest.mark.parametrize("scale, message", [
        (1e60, "objective is non-finite"),
        (1e110, "soft_threshold input contains non-finite entries"),
    ])
    def test_overflow_aborts_naming_the_outer_iteration(self, scale, message):
        x = np.random.default_rng(0).normal(size=(12, 4)) * scale
        with pytest.raises(SolverAbortError, match=f"^{message} at outer iteration 1$"):
            solve(Dataset(x.T))

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
    def test_overflow_at_the_start_aborts_before_the_first_sweep(self, scale):
        # ||X||^2 itself overflows: the starting objective is already inf
        x = np.random.default_rng(0).normal(size=(12, 4)) * scale
        with pytest.raises(
            SolverAbortError,
            match="^objective is non-finite before outer iteration 1$",
        ):
            solve(Dataset(x.T))

    @pytest.mark.parametrize("scale, params, message", [
        (1.0, RegularizationParams(alpha=1e308), "objective is non-finite at outer iteration 1"),
        (1.0, RegularizationParams(beta=1e308), "objective is non-finite at outer iteration 1"),
        (1.0, RegularizationParams(gamma=1e308), "objective is non-finite at outer iteration 1"),
        (1e60, RegularizationParams(), "objective is non-finite at outer iteration 1"),
        (1e110, RegularizationParams(),
         "soft_threshold input contains non-finite entries at outer iteration 1"),
        (1e155, RegularizationParams(), "objective is non-finite before outer iteration 1"),
        (1.0, RegularizationParams(eta=1e308), "objective is non-finite at outer iteration 1"),
        # weights and a solver config: rho s^2 overflows in the W step's
        # weights (s^2 reaches 1.9e3 on this data)
        (10.0, (RegularizationParams(), SolverConfig(rho_init=1e307, rho_max=1e307, tau=1)),
         "soft_threshold input contains non-finite entries at outer iteration 1"),
    ])
    def test_a_caught_overflow_prints_no_numpy_warning(self, scale, params, message):
        # the abort reports the overflow; numpy's own warnings would be noise
        params, cfg = params if isinstance(params, tuple) else (params, SolverConfig())
        x = np.random.default_rng(0).normal(size=(5, 6)) if scale == 1.0 else (
            np.random.default_rng(0).normal(size=(12, 4)).T * scale)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SolverAbortError) as info:
                solve(Dataset(x), params, cfg)
        assert str(info.value) == message
        assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []


def smoothed_objective(ds, params, t, eps):
    """The objective with all four nonsmooth terms smoothed: every norm |v|
    becomes sqrt(|v|^2 + eps^2), and every singular value s becomes
    sqrt(s^2 + eps^2). Returns its value and gradient as functions of the
    flattened W."""
    x = ds.matrix
    d, n = x.shape

    def parts(v):
        w = v.reshape(n, d)
        resid = x @ w @ x - x
        rows = np.sqrt((w**2).sum(axis=1, keepdims=True) + eps**2)
        cols = np.sqrt((w**2).sum(axis=0, keepdims=True) + eps**2)
        lam, vecs = np.linalg.eigh(w.T @ w)  # squared singular values
        sing = np.sqrt(np.maximum(lam, 0.0) + eps**2)
        wx = w @ x
        local = np.sqrt(wx**2 + eps**2)
        value = (float((resid**2).sum()) + params.alpha * float(rows.sum())
                 + params.beta * float(cols.sum()) + params.gamma * float(sing.sum())
                 + params.eta * float((t.t * local).sum()))
        grad = (2.0 * x.T @ resid @ x.T + params.alpha * w / rows + params.beta * w / cols
                + params.gamma * w @ (vecs / sing) @ vecs.T
                + params.eta * (t.t * wx / local) @ x.T)
        return value, grad.ravel()

    return (lambda v: parts(v)[0]), (lambda v: parts(v)[1])


@pytest.mark.parametrize("d, n", [(3, 4), (4, 6)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_solve_matches_the_smoothed_lbfgs_oracle(seed, d, n):
    # oracle: L-BFGS on the whole objective with all four nonsmooth terms
    # smoothed, from zero and from the solve's W; the better of the two,
    # measured by the exact objective, must be within 1% of the solve's
    ds = Dataset(np.random.default_rng(seed).normal(size=(d, n)))
    params = RegularizationParams()
    t = angular_weights(ds)
    w, _ = solve(ds)
    ours = objective(ds, w, params, t)
    f, grad = smoothed_objective(ds, params, t, eps=1e-7)
    oracle = min(
        objective(ds, minimize(f, grad, start.ravel(),
                               LbfgsConfig(grad_tol=1e-9, max_iters=5000))[0].reshape(n, d),
                  params, t)
        for start in (np.zeros((n, d)), w)
    )
    assert abs(ours - oracle) <= 1e-2 * oracle


class TestBlockDescent:
    def test_each_primal_update_decreases_the_lagrangian(self):
        # every block update is an exact minimizer of the augmented
        # Lagrangian in its own block, all at the W step's penalty
        rng = np.random.default_rng(26)
        ds = random_dataset(26, d=3, n=5)
        t = angular_weights(ds)
        p = RegularizationParams(
            alpha=0.5, beta=0.5, gamma=0.8, eta=0.6
        )
        state = random_state(rng, 3, 5, rho=1.0)

        w, sigma = w_step(ds, state)
        values = [augmented_lagrangian(ds, state, p, t, sigma)]
        state.w = w
        values.append(augmented_lagrangian(ds, state, p, t, sigma))
        state.z = update_z(state, w @ ds.matrix, p.eta * t.t)
        values.append(augmented_lagrangian(ds, state, p, t, sigma))
        state.w_tilde = update_w_tilde(state, p.gamma)
        values.append(augmented_lagrangian(ds, state, p, t, sigma))
        state.p, state.q = update_p_q(state, p, sigma)
        values.append(augmented_lagrangian(ds, state, p, t, sigma))
        assert all(b <= a + 1e-8 for a, b in zip(values, values[1:]))

    def test_residuals_converge_on_small_instance(self):
        ds = random_dataset(27, d=6, n=10)
        w, report = solve(ds, RegularizationParams(), SolverConfig(tau=1.5))
        assert report.stop_reason == "converged"
        assert report.records[-1].residual_wx_z < 1e-3
        assert report.records[-1].residual_w_wtilde < 1e-3
        assert report.records[-1].residual_w_pq < 1e-3


GRID = (0.1, 1.0, 10.0, 100.0)


def grid_cells(**fixed):
    return [RegularizationParams(alpha=a, beta=b, eta=e, **fixed)
            for a in GRID for b in GRID for e in GRID]


def halving_sweeps(sweeps, failed):
    """Sweeps a stack runs when each cell alone runs ``sweeps[i]`` and
    ``failed[i]`` tells whether it fails: with a failing cell, the stack
    runs to the first failure, then each half runs again."""
    if len(sweeps) == 1 or not any(failed):
        return max(sweeps)
    half = len(sweeps) // 2
    return (min(s for s, f in zip(sweeps, failed) if f)
            + halving_sweeps(sweeps[:half], failed[:half])
            + halving_sweeps(sweeps[half:], failed[half:]))


class TestStackedSolve:
    def test_each_cell_is_bit_for_bit_its_serial_solve(self):
        # one ordinary cell, one that aborts in the first sweep, one that
        # runs out of sweeps, one that stops at a sweep of its own
        ds = Dataset(np.random.default_rng(0).normal(size=(5, 6)))
        cfg = SolverConfig(tau=1.5)
        cells = [
            RegularizationParams(),
            RegularizationParams(alpha=1e308),
            RegularizationParams(eta=1e300),
            RegularizationParams(alpha=10.0, beta=10.0),
        ]
        ws, report = solve(ds, cells, cfg)
        with pytest.raises(SolverAbortError) as aborted:
            solve(ds, cells[1], cfg)
        assert isinstance(report, StackReport)
        assert str(aborted.value) == "objective is non-finite at outer iteration 1"
        assert ws[1] is None and str(report.cells[1]) == str(aborted.value)
        serial_sweeps = []
        for i in (0, 2, 3):
            w, serial = solve(ds, cells[i], cfg)
            assert np.array_equal(ws[i], w)
            assert report.cells[i].stop_reason == serial.stop_reason
            assert len(report.cells[i].records) == len(serial.records)
            for a, b in zip(report.cells[i].records, serial.records):
                assert a == b  # exact float equality, field by field
            serial_sweeps.append(serial.iterations)
        assert report.cells[2].stop_reason == "max_iters"
        assert report.cells[2].iterations == 1000
        # the first sweep of all four raises, so does that of cells 0-1;
        # cell 0 alone takes 51, cell 1 alone raises in 1, cells 2-3 take 1000
        assert report.iterations == 1 + 1 + 51 + 1 + 1000
        assert report.stop_reason == "aborted"

    def test_chunks_under_a_small_budget_give_the_same_cells(self, monkeypatch):
        ds = random_dataset(28, d=4, n=7)
        cfg = SolverConfig(tau=1.5)
        cells = grid_cells()[:6]
        ws, report = solve(ds, cells, cfg)
        assert report.stop_reason == "converged"
        # two cells per stack: three stacks, in order
        monkeypatch.setattr(solver_mod, "_cells_per_stack", lambda d, n: 2)
        chunked_ws, chunked = solve(ds, cells, cfg)
        for a, b in zip(ws, chunked_ws):
            assert np.array_equal(a, b)
        assert [c.records for c in chunked.cells] == [c.records for c in report.cells]
        sweeps = [c.iterations for c in report.cells]
        assert chunked.iterations == sum(max(sweeps[i:i + 2]) for i in (0, 2, 4))

    @pytest.mark.parametrize("failing", [
        pytest.param((0,), id="first"),
        pytest.param((3,), id="middle"),
        pytest.param((6,), id="last"),
        pytest.param((1, 5), id="two"),
    ])
    def test_a_failing_cell_splits_the_stack_in_halves(self, failing):
        ds = random_dataset(30, d=4, n=5)
        cfg = SolverConfig(tau=1.5)
        cells = grid_cells()[::9][:7]
        for i in failing:
            cells[i] = RegularizationParams(alpha=1e308)
        ws, report = solve(ds, cells, cfg)
        serial = [solve(ds, [cell], cfg) for cell in cells]
        for i, (serial_ws, serial_report) in enumerate(serial):
            cell, own = report.cells[i], serial_report.cells[0]
            if i in failing:
                assert isinstance(cell, SolverAbortError) and ws[i] is None
                assert str(cell) == str(own) == "objective is non-finite at outer iteration 1"
            else:
                assert np.array_equal(ws[i], serial_ws[0])
                assert cell.stop_reason == own.stop_reason
                assert cell.records == own.records  # exact float equality
        sweeps = [serial_report.iterations for _, serial_report in serial]
        assert report.iterations == halving_sweeps(sweeps, [i in failing for i in range(7)])
        assert report.stop_reason == "aborted"

    def test_a_cell_failing_late_drops_the_cells_already_converged(self, monkeypatch):
        # a fault injected into the W~ step of every cell with gamma 0.5 at
        # sweep 50, after cells of the stack have converged; rho grows
        # every sweep, so the penalty of sweep 50 names that sweep
        update_w_tilde = solver_mod.update_w_tilde
        cfg = SolverConfig(tau=1.5)
        rho_50 = cfg.rho_init
        for _ in range(49):
            rho_50 = min(cfg.tau * rho_50, cfg.rho_max)

        def faulty(state, gamma):
            if state.rho == rho_50 and (np.asarray(gamma) == 0.5).any():
                raise ValueError("injected fault")
            return update_w_tilde(state, gamma)

        monkeypatch.setattr(solver_mod, "update_w_tilde", faulty)
        ds = random_dataset(31, d=4, n=5)
        cells = grid_cells()[::9][:5]
        cells[2] = RegularizationParams(gamma=0.5)
        ws, report = solve(ds, cells, cfg)
        serial = [solve(ds, [cell], cfg) for cell in cells]
        assert min(serial[i][1].iterations for i in (0, 1, 3, 4)) < 50
        assert str(report.cells[2]) == "injected fault at outer iteration 50" and ws[2] is None
        assert str(report.cells[2]) == str(serial[2][1].cells[0])
        for i in (0, 1, 3, 4):
            assert np.array_equal(ws[i], serial[i][0][0])
            assert report.cells[i].records == serial[i][1].cells[0].records
        sweeps = [serial_report.iterations for _, serial_report in serial]
        assert report.iterations == halving_sweeps(sweeps, [i == 2 for i in range(5)])

    def test_the_state_holds_only_its_iterates(self):
        names = [f.name for f in dataclasses.fields(SolverState)]
        assert names == list(solver_mod._ARRAY_FIELDS) + ["rho"]

    def test_cells_must_share_varsigma(self):
        ds = random_dataset(29, d=3, n=4)
        with pytest.raises(ValueError, match="varsigma"):
            solve(ds, [RegularizationParams(), RegularizationParams(varsigma=1e-3)])
        with pytest.raises(ValueError, match="at least one"):
            solve(ds, [])


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d, n, oversubscribed", [(5, 6, False), (4, 300, True)])
def test_a_64_cell_solve_stays_within_the_stack_budget(d, n, oversubscribed):
    ds = Dataset(np.random.default_rng(0).normal(size=(d, n)))
    cfg = SolverConfig(max_outer_iters=3)  # every sweep peaks alike
    cells = grid_cells()
    serial = traced_peak(lambda: solve(ds, cells[0], cfg))
    stacked = traced_peak(lambda: solve(ds, cells, cfg))
    # at 4 x 300, one stack of all 64 cells would take several budgets
    assert (64 * serial > 4 * STACK_BYTES) == oversubscribed
    assert stacked <= STACK_BYTES + serial


@settings(max_examples=12)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_permuting_samples_and_features_permutes_w(seed, data):
    # X' = X with features (rows) and samples (columns) permuted; W is
    # n x d, so W' is W with its rows and columns permuted alike
    x = np.random.default_rng(seed).normal(size=(4, 7))
    features = data.draw(st.permutations(range(4)))
    samples = data.draw(st.permutations(range(7)))
    cfg = SolverConfig(tau=1.5)
    w, _ = solve(Dataset(x), RegularizationParams(), cfg)
    permuted, _ = solve(Dataset(x[np.ix_(features, samples)]), RegularizationParams(), cfg)
    expected = w[np.ix_(samples, features)]
    assert np.abs(permuted - expected).max() <= 1e-9 * np.abs(w).max()
