"""Limited-memory BFGS minimizer with a weak-Wolfe line search.

A test oracle, independent of the solver: the tests minimize a smoothed
version of the whole objective with it and check the default solve against
the result. It is verified on its own in ``test_lbfgs.py``.

Operates on flat vectors only; callers with matrix variables flatten and
reshape at the boundary. The implementation is deliberately strict about
smoothness: directions come from curvature-safe pairs and steps must satisfy
both Wolfe conditions, so objectives handed in here must be differentiable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

# Pairs with y.s below this relative level would destroy positive
# definiteness of the implicit inverse Hessian; they are skipped.
CURVATURE_SKIP_RTOL = 1e-12


class LineSearchError(RuntimeError):
    """The Wolfe search exhausted its bracketing budget."""


@dataclass(frozen=True)
class LbfgsConfig:
    """Settings for :func:`minimize`.

    ``history_size`` is the number of stored curvature pairs (0 degenerates
    to gradient descent with Wolfe steps). ``initial_scaling`` scales the
    very first direction; later iterations use the standard ``y.s/y.y``
    spectral estimate.
    """

    history_size: int = 10
    c1: float = 1e-4
    c2: float = 0.9
    max_iters: int = 100
    grad_tol: float = 1e-6
    initial_scaling: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.c1 < self.c2 < 1.0:
            raise ValueError(f"need 0 < c1 < c2 < 1, got c1={self.c1}, c2={self.c2}")
        if self.history_size < 0:
            raise ValueError("history_size must be >= 0")
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be >= 0")
        if self.initial_scaling <= 0:
            raise ValueError("initial_scaling must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class CurvaturePair:
    """Iterate difference ``s`` and gradient difference ``y`` with y.s > 0."""

    s: np.ndarray
    y: np.ndarray


@dataclass
class LbfgsTrace:
    """Objective/gradient history of one minimize call."""

    objectives: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    iterates: Optional[list[np.ndarray]] = None
    stop_reason: str = "max_iters"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "grad_tol"

    @property
    def iterations(self) -> int:
        return len(self.objectives) - 1


def two_loop_direction(
    grad: np.ndarray,
    history: Sequence[CurvaturePair],
    initial_scaling: float,
) -> np.ndarray:
    """Apply the implicit inverse-Hessian estimate to ``grad``.

    Returns ``d = H grad`` via the two-loop recursion over the stored pairs,
    seeded with ``H0 = initial_scaling * I``. With an empty history this is
    ``initial_scaling * grad``. Since H is positive definite, ``<d, grad> > 0``
    and the step ``x - alpha * d`` is a descent step.
    """
    grad = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise ValueError("two_loop_direction: non-finite gradient")
    q = grad.copy()
    rhos = []
    alphas = []
    for pair in reversed(history):
        rho = 1.0 / float(pair.y @ pair.s)
        a = rho * float(pair.s @ q)
        q -= a * pair.y
        rhos.append(rho)
        alphas.append(a)
    r = initial_scaling * q
    for pair, rho, a in zip(history, reversed(rhos), reversed(alphas)):
        b = rho * float(pair.y @ r)
        r += (a - b) * pair.s
    return r


def _wolfe(
    f: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    d: np.ndarray,
    c1: float,
    c2: float,
    max_iters: int,
    alpha0: float,
    f0: Optional[float],
    g0: Optional[np.ndarray],
) -> tuple[float, float, np.ndarray]:
    """Weak-Wolfe bracketing search along ``x - alpha * d``.

    Returns (alpha, f(x - alpha d), grad(x - alpha d)).
    """
    phi0 = float(f(x)) if f0 is None else float(f0)
    gx = grad(x) if g0 is None else g0
    dphi0 = -float(gx @ d)  # phi(a) = f(x - a d), so phi'(0) = -<g, d>
    if not np.isfinite(dphi0) or dphi0 >= 0.0:
        raise LineSearchError(
            f"not a descent direction: directional derivative {dphi0}"
        )
    lo, hi = 0.0, np.inf
    alpha = float(alpha0)
    for _ in range(max_iters):
        xa = x - alpha * d
        fa = float(f(xa))
        if not np.isfinite(fa) or fa > phi0 + c1 * alpha * dphi0:
            hi = alpha
        else:
            ga = grad(xa)
            dphia = -float(ga @ d)
            if dphia < c2 * dphi0:  # slope still too steep: step too short
                lo = alpha
            else:
                return alpha, fa, ga
        alpha = 2.0 * lo if not np.isfinite(hi) else 0.5 * (lo + hi)
        if alpha == lo or alpha == hi:  # interval collapsed to float resolution
            break
    raise LineSearchError(
        f"no Wolfe step found in {max_iters} bracketing iterations"
    )


def wolfe_search(
    f: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    d: np.ndarray,
    c1: float = 1e-4,
    c2: float = 0.9,
    max_iters: int = 60,
    alpha0: float = 1.0,
) -> float:
    """Step length ``alpha > 0`` satisfying both Wolfe conditions.

    The step is ``x - alpha * d`` for a direction with ``<d, grad f(x)> > 0``:
    sufficient decrease ``f(x - a d) <= f(x) - c1 a <g, d>`` and curvature
    ``<grad f(x - a d), d> <= c2 <g, d>``. Raises :class:`LineSearchError`
    when no such step is found within the bracketing budget.
    """
    alpha, _, _ = _wolfe(f, grad, x, d, c1, c2, max_iters, alpha0, None, None)
    return alpha


def minimize(
    f: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    cfg: LbfgsConfig = LbfgsConfig(),
    record_iterates: bool = False,
) -> tuple[np.ndarray, LbfgsTrace]:
    """L-BFGS descent from ``x0`` until ``||grad||_2 <= grad_tol`` or budget.

    The accepted objective sequence is strictly decreasing (Wolfe sufficient
    decrease); curvature pairs failing ``y.s > 0`` are skipped, never stored.
    A failed line search, or a predicted decrease below float resolution,
    stops the iteration and returns the last good iterate with the reason in
    the trace (``line_search_failure`` / ``stalled``); callers decide whether
    that is fatal.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = float(f(x))
    g = np.asarray(grad(x), dtype=float)
    if not np.isfinite(fx) or not np.all(np.isfinite(g)):
        raise ValueError("objective or gradient non-finite at the start point")

    trace = LbfgsTrace(iterates=[x.copy()] if record_iterates else None)
    trace.objectives.append(fx)
    trace.grad_norms.append(float(np.linalg.norm(g)))

    history: deque[CurvaturePair] = deque(maxlen=cfg.history_size)
    scale = cfg.initial_scaling

    for _ in range(cfg.max_iters):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= cfg.grad_tol:
            trace.stop_reason = "grad_tol"
            return x, trace
        d = two_loop_direction(g, history, scale)
        dec = float(d @ g)
        if dec <= 0.0:
            # cannot happen with curvature-safe pairs; recover with steepest descent
            d = scale * g
            dec = scale * gnorm * gnorm
        if cfg.c1 * dec <= np.finfo(float).eps * max(1.0, abs(fx)):
            trace.stop_reason = "stalled"  # no representable decrease left
            return x, trace
        try:
            alpha, f_new, g_new = _wolfe(
                f, grad, x, d, cfg.c1, cfg.c2, 60, 1.0, fx, g
            )
        except LineSearchError:
            trace.stop_reason = "line_search_failure"
            return x, trace
        x_new = x - alpha * d
        s = x_new - x
        y = g_new - g
        ys = float(y @ s)
        if ys > CURVATURE_SKIP_RTOL * np.linalg.norm(y) * np.linalg.norm(s):
            if cfg.history_size > 0:
                history.append(CurvaturePair(s=s, y=y))
            scale = ys / float(y @ y)
        x, fx, g = x_new, f_new, g_new
        trace.objectives.append(fx)
        trace.grad_norms.append(float(np.linalg.norm(g)))
        if record_iterates:
            trace.iterates.append(x.copy())

    if float(np.linalg.norm(g)) <= cfg.grad_tol:
        trace.stop_reason = "grad_tol"
    else:
        trace.stop_reason = "max_iters"
    return x, trace
