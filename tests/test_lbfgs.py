import numpy as np
import pytest

from lbfgs_oracle import (
    CurvaturePair,
    LbfgsConfig,
    LineSearchError,
    minimize,
    two_loop_direction,
    wolfe_search,
)


class TestTwoLoopDirection:
    def test_empty_history_is_scaled_gradient(self):
        g = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(two_loop_direction(g, [], 1.0), g)
        assert np.array_equal(two_loop_direction(g, [], 2.0), 2.0 * g)

    def test_non_finite_gradient_rejected(self):
        with pytest.raises(ValueError):
            two_loop_direction(np.array([np.nan, 1.0]), [], 1.0)

    def test_quadratic_secant_pair(self):
        # f(x) = 0.5 x^T A x with A = diag(2, 5); one exact gradient-step pair.
        # The BFGS update satisfies H y = s, so for grad in span{y} the
        # direction equals A^-1 grad exactly.
        a = np.diag([2.0, 5.0])
        x0 = np.array([1.0, 1.0])
        g0 = a @ x0
        x1 = x0 - 0.1 * g0
        g1 = a @ x1
        pair = CurvaturePair(s=x1 - x0, y=g1 - g0)
        assert float(pair.y @ pair.s) > 0
        d = two_loop_direction(pair.y, [pair], initial_scaling=0.37)
        assert np.allclose(d, np.linalg.solve(a, pair.y), atol=1e-8)

    def test_descent_alignment_on_random_pairs(self):
        # H stays positive definite as long as every pair has y.s > 0
        rng = np.random.default_rng(0)
        for _ in range(25):
            pairs = []
            for _ in range(rng.integers(1, 6)):
                s = rng.normal(size=8)
                y = rng.normal(size=8)
                if float(y @ s) <= 1e-10:
                    y = s + 0.1 * rng.normal(size=8)
                pairs.append(CurvaturePair(s=s, y=y))
            g = rng.normal(size=8)
            d = two_loop_direction(g, pairs, 1.0)
            assert float(d @ g) > 0


class TestWolfeSearch:
    def test_exact_minimizer_step_accepted(self):
        f = lambda x: 0.5 * float(x @ x)
        grad = lambda x: x
        alpha = wolfe_search(f, grad, np.array([1.0]), np.array([1.0]))
        assert alpha == 1.0

    def test_oversized_step_backtracks(self):
        f = lambda x: 0.5 * float(x @ x)
        grad = lambda x: x
        alpha = wolfe_search(f, grad, np.array([1.0]), np.array([1.0]), alpha0=10.0)
        assert alpha < 10.0
        # returned step still satisfies both conditions
        x, d = np.array([1.0]), np.array([1.0])
        g0 = grad(x)
        assert f(x - alpha * d) <= f(x) - 1e-4 * alpha * float(g0 @ d)
        assert float(grad(x - alpha * d) @ d) <= 0.9 * float(g0 @ d)

    def test_random_convex_quadratic_inequalities(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.normal(size=(5, 5))
            q = m.T @ m + np.eye(5)
            b = rng.normal(size=5)
            f = lambda x: 0.5 * float(x @ q @ x) + float(b @ x)
            grad = lambda x: q @ x + b
            x = rng.normal(size=5)
            g = grad(x)
            if np.linalg.norm(g) < 1e-12:
                continue
            d = g.copy()
            c1, c2 = 1e-4, 0.9
            alpha = wolfe_search(f, grad, x, d, c1=c1, c2=c2)
            gd = float(g @ d)
            assert f(x - alpha * d) <= f(x) - c1 * alpha * gd + 1e-12
            assert float(grad(x - alpha * d) @ d) <= c2 * gd + 1e-12

    def test_ascent_direction_rejected(self):
        f = lambda x: 0.5 * float(x @ x)
        grad = lambda x: x
        with pytest.raises(LineSearchError):
            wolfe_search(f, grad, np.array([1.0]), np.array([-1.0]))


class TestMinimize:
    def test_quadratic_bowl(self):
        a = np.array([2.0, -1.0, 0.5])
        f = lambda x: 0.5 * float((x - a) @ (x - a))
        grad = lambda x: x - a
        x, trace = minimize(f, grad, np.zeros(3), LbfgsConfig())
        assert trace.converged
        assert np.allclose(x, a, atol=1e-5)

    def test_quartic(self):
        f = lambda x: float(x[0] ** 4)
        grad = lambda x: np.array([4.0 * x[0] ** 3])
        cfg = LbfgsConfig(grad_tol=1e-10, max_iters=200)
        x, trace = minimize(f, grad, np.array([1.0]), cfg)
        assert abs(x[0]) < 1e-3

    def test_matches_grid_oracle(self):
        # independent oracle: dense grid evaluation of the same objective
        f = lambda v: float((v[0] - 1.0) ** 2 + 10.0 * (v[1] + 2.0) ** 2)
        grad = lambda v: np.array([2.0 * (v[0] - 1.0), 20.0 * (v[1] + 2.0)])
        xs = np.arange(-3.0, 3.0, 0.01)
        ys = np.arange(-4.0, 1.0, 0.01)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        grid_f = (gx - 1.0) ** 2 + 10.0 * (gy + 2.0) ** 2
        i, j = np.unravel_index(np.argmin(grid_f), grid_f.shape)
        oracle = np.array([xs[i], ys[j]])
        x, trace = minimize(f, grad, np.array([0.0, 0.0]), LbfgsConfig())
        assert np.all(np.abs(x - oracle) <= 0.01 + 1e-9)

    def test_monotone_descent(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(8, 8))
        q = m.T @ m + 0.1 * np.eye(8)
        f = lambda x: 0.5 * float(x @ q @ x)
        grad = lambda x: q @ x
        _, trace = minimize(f, grad, rng.normal(size=8), LbfgsConfig())
        objs = trace.objectives
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_nonconvex_still_descends(self):
        # double well: curvature pairs can go bad and must be skipped silently
        f = lambda x: float(x[0] ** 4 - x[0] ** 2)
        grad = lambda x: np.array([4.0 * x[0] ** 3 - 2.0 * x[0]])
        x, trace = minimize(f, grad, np.array([0.1]), LbfgsConfig(max_iters=200))
        objs = trace.objectives
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
        assert abs(abs(x[0]) - np.sqrt(0.5)) < 1e-4

    def test_zero_history_is_gradient_descent(self):
        # every step must be parallel to the gradient at its start point
        rng = np.random.default_rng(7)
        m = rng.normal(size=(4, 4))
        q = m.T @ m + np.eye(4)
        f = lambda x: 0.5 * float(x @ q @ x)
        grad = lambda x: q @ x
        x0 = rng.normal(size=4)
        x, trace = minimize(
            f, grad, x0, LbfgsConfig(history_size=0, max_iters=50),
            record_iterates=True,
        )
        for prev, curr in zip(trace.iterates, trace.iterates[1:]):
            step = curr - prev
            g = grad(prev)
            cos = float(step @ -g) / (np.linalg.norm(step) * np.linalg.norm(g))
            assert cos == pytest.approx(1.0, abs=1e-10)

    def test_history_window_respected(self):
        calls = []
        orig = two_loop_direction

        def spy(grad, history, scale):
            calls.append(len(history))
            return orig(grad, history, scale)

        import lbfgs_oracle as mod

        old = mod.two_loop_direction
        mod.two_loop_direction = spy
        try:
            rng = np.random.default_rng(8)
            m = rng.normal(size=(12, 12))
            q = m.T @ m + 0.01 * np.eye(12)
            f = lambda x: 0.5 * float(x @ q @ x)
            grad = lambda x: q @ x
            minimize(f, grad, rng.normal(size=12), LbfgsConfig(history_size=3, max_iters=60))
        finally:
            mod.two_loop_direction = old
        assert max(calls) <= 3

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(6, 6))
        q = m.T @ m + np.eye(6)
        f = lambda x: 0.5 * float(x @ q @ x)
        grad = lambda x: q @ x
        x0 = rng.normal(size=6)
        xa, ta = minimize(f, grad, x0, LbfgsConfig(), record_iterates=True)
        xb, tb = minimize(f, grad, x0, LbfgsConfig(), record_iterates=True)
        assert np.array_equal(xa, xb)
        assert ta.objectives == tb.objectives
        assert all(np.array_equal(p, q_) for p, q_ in zip(ta.iterates, tb.iterates))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LbfgsConfig(c1=0.5, c2=0.1)
        with pytest.raises(ValueError):
            LbfgsConfig(history_size=-1)
