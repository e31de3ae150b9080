"""Convex joint sample/feature selection solved by two-block ADMM.

The model learned here is an n x d coefficient matrix W that reconstructs
the data as X ~ X W X. Row sparsity of W encodes which samples are kept,
column sparsity which features; a nuclear-norm term keeps W low rank and an
angular-weighted l1 term confines reconstruction to similar samples:

    min_W  ||X - X W X||_F^2 + alpha ||W||_2,1 + beta ||W^T||_2,1
           + gamma ||W||_* + eta ||T . (W X)||_1

The splitting W X = Z, W = W~, W = P, W = Q makes every nonsmooth term
separable, each on its own copy of W: Z gets entrywise shrinkage, W~
singular value thresholding, P row and Q column group shrinkage. What is
left for W is a quadratic, diagonal in the basis of the thin SVD
X = U S V^T, so the W update is one closed-form diagonal solve. A sweep is
thus a two-block ADMM step, W against (Z, W~, P, Q): one W solve, four
independent proxes, then one dual ascent step on all four multipliers. The
penalties grow geometrically up to a cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .data import Dataset, _require_integer
from .kernels import (
    DEFAULT_VARSIGMA,
    AngularWeights,
    angular_weights,
    group_shrink,
    l21_norm,
    nuclear_norm,
    soft_threshold,
    svt,
)


class SolverAbortError(RuntimeError):
    """A value went non-finite; names the outer iteration it happened in."""


@dataclass(frozen=True)
class RegularizationParams:
    """Weights of the five objective terms plus numerical knobs.

    ``alpha`` drives row (sample) sparsity, ``beta`` column (feature)
    sparsity, ``gamma`` low rank, ``eta`` the angular locality penalty.
    ``varsigma`` floors the angular weights.
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    eta: float = 1.0
    varsigma: float = DEFAULT_VARSIGMA

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "eta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.varsigma <= 0:
            raise ValueError("varsigma must be positive")


@dataclass(frozen=True)
class SolverConfig:
    """ADMM loop settings.

    Defaults follow the standard initialization for this scheme: penalties
    start at 1e-6 and grow by a factor tau=1.1 per sweep up to 1e10, with
    stopping tolerance 1e-3. ``adaptive_rho=False`` freezes the penalties,
    the regime in which the monotone-difference diagnostic is meaningful.
    The solve starts from zeros and is fully deterministic.
    """

    rho1_init: float = 1e-6
    rho2_init: float = 1e-6
    rho_max: float = 1e10
    tau: float = 1.1
    epsilon: float = 1e-3
    max_outer_iters: int = 1000
    adaptive_rho: bool = True

    def __post_init__(self) -> None:
        if self.tau < 1.0:
            raise ValueError("tau must be >= 1")
        if not (0.0 < self.rho1_init <= self.rho_max):
            raise ValueError("need 0 < rho1_init <= rho_max")
        if not (0.0 < self.rho2_init <= self.rho_max):
            raise ValueError("need 0 < rho2_init <= rho_max")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        _require_integer("max_outer_iters", self.max_outer_iters, 1)
        if not isinstance(self.adaptive_rho, bool):
            raise ValueError(f"adaptive_rho must be true or false, got {self.adaptive_rho!r}")


_ARRAY_FIELDS = ("w", "z", "w_tilde", "p", "q",
                 "lambda1", "lambda2", "lambda3", "lambda4")


@dataclass
class SolverState:
    """All ADMM iterates: primal W and its copies Z, W~, P, Q, their
    multipliers, and the penalties.

    ``z`` stands for W X, ``w_tilde``, ``p`` and ``q`` for W; ``lambda1`` to
    ``lambda4`` are the multipliers of these four constraints, in order.
    """

    w: np.ndarray        # n x d
    z: np.ndarray        # n x n
    w_tilde: np.ndarray  # n x d
    p: np.ndarray        # n x d
    q: np.ndarray        # n x d
    lambda1: np.ndarray  # n x n
    lambda2: np.ndarray  # n x d
    lambda3: np.ndarray  # n x d
    lambda4: np.ndarray  # n x d
    rho1: float
    rho2: float
    iter: int = 0

    @classmethod
    def initial(cls, d: int, n: int, cfg: SolverConfig) -> "SolverState":
        """All-zero start."""
        return cls(
            **{f: np.zeros((n, n) if f in ("z", "lambda1") else (n, d))
               for f in _ARRAY_FIELDS},
            rho1=cfg.rho1_init,
            rho2=cfg.rho2_init,
        )

    def copy(self) -> "SolverState":
        return replace(self, **{f: getattr(self, f).copy() for f in _ARRAY_FIELDS})

    def all_finite(self) -> bool:
        return all(np.isfinite(getattr(self, f)).all() for f in _ARRAY_FIELDS)


@dataclass(frozen=True)
class IterationRecord:
    """One outer sweep: exact objective, residuals, change, step size in H."""

    objective: float
    residual_wx_z: float
    residual_w_wtilde: float
    residual_w_pq: float
    rel_change: Optional[float]
    h_seminorm_sq: float


@dataclass
class ConvergenceReport:
    """Per-iteration records plus why the loop stopped."""

    records: list[IterationRecord] = field(default_factory=list)
    stop_reason: str = "max_iters"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def iterations(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class ConvergenceDecision:
    converged: bool
    residual_wx_z: float
    residual_w_wtilde: float
    residual_w_pq: float
    rel_change: Optional[float]


def objective(
    ds: Dataset,
    w: np.ndarray,
    params: RegularizationParams,
    t: AngularWeights,
) -> float:
    """Exact value of the five-term objective at W."""
    x = ds.matrix
    d, n = x.shape
    w = np.asarray(w, dtype=float)
    if w.shape != (n, d):
        raise ValueError(f"w must be {n}x{d}, got {w.shape}")
    if t.t.shape != (n, n):
        raise ValueError(f"angular weights must be {n}x{n}, got {t.t.shape}")
    resid = (x @ w) @ x - x
    wx = w @ x
    value = (
        float((resid * resid).sum())
        + params.alpha * l21_norm(w)
        + params.beta * l21_norm(w.T)
        + params.gamma * nuclear_norm(w)
        + params.eta * float(np.abs(t.t * wx).sum())
    )
    if not math.isfinite(value):
        raise ValueError("objective is non-finite")
    return value


def augmented_lagrangian(
    ds: Dataset,
    state: SolverState,
    params: RegularizationParams,
    t: AngularWeights,
    sigma: float,
) -> float:
    """Augmented Lagrangian of the split problem at the given state, with
    ``sigma`` the penalty of the W = P and W = Q constraints."""
    x = ds.matrix
    w = state.w
    resid = (x @ w) @ x - x
    coupling = 0.0
    for lam, r, rho in (
        (state.lambda1, w @ x - state.z, state.rho1),
        (state.lambda2, w - state.w_tilde, state.rho2),
        (state.lambda3, w - state.p, sigma),
        (state.lambda4, w - state.q, sigma),
    ):
        coupling += float((lam * r).sum()) + 0.5 * rho * float((r * r).sum())
    return (
        float((resid * resid).sum())
        + params.alpha * l21_norm(state.p)
        + params.beta * l21_norm(state.q.T)
        + params.gamma * nuclear_norm(state.w_tilde)
        + params.eta * float(np.abs(t.t * state.z).sum())
        + coupling
    )


@dataclass(frozen=True)
class SpectralBasis:
    """What the W step needs of X = U diag(s) V^T, computed once.

    ``u`` (d x k) and ``v`` (n x k) hold the singular vectors of the thin
    SVD, k = min(d, n), ``s2`` the squared singular values, and ``g`` the
    constant ``2 X^T X X^T`` of the W subproblem's linear term.
    """

    u: np.ndarray
    s2: np.ndarray
    v: np.ndarray
    g: np.ndarray


def spectral_basis(ds: Dataset) -> SpectralBasis:
    """Thin SVD of the data and the constant term of the W step."""
    x = ds.matrix
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    xtx = x.T @ x
    return SpectralBasis(u=u, s2=s * s, v=vt.T, g=2.0 * (xtx @ x.T))


def inner_penalty(basis: SpectralBasis, rho1: float, rho2: float) -> float:
    """Penalty sigma of the W = P and W = Q constraints: ``sqrt(min h * max h)``.

    ``h_ab = 2 s_a^2 s_b^2 + rho1 s_b^2 + rho2`` are the eigenvalues of the
    W subproblem's quadratic without the P and Q terms (see
    :func:`_shifted_inverse`), and the geometric mean of their extremes is
    the classic penalty choice for a quadratic split. ``min h`` is taken at
    its floor ``rho2`` (reached when X has fewer independent samples than
    features) rather than at the data's smallest eigenvalue. The penalty
    grows with rho1 and rho2 and is constant when they are.
    """
    high = float(basis.s2.max())
    return math.sqrt(rho2 * (2.0 * high * high + rho1 * high + rho2))


def _shifted_inverse(
    basis: SpectralBasis, rho1: float, rho2: float, shift: float
) -> Callable[[np.ndarray], np.ndarray]:
    """The map ``rhs -> (H + shift)^-1 rhs``, H the Hessian of the W
    subproblem without the P and Q terms.

    In the full bases of ``X = U diag(s) V^T`` H is diagonal: it scales the
    coefficient ``(V^T W U)_ab`` by ``h_ab = 2 s_a^2 s_b^2 + rho1 s_b^2 +
    rho2``, with s padded by zeros to length n (rows a) and d (columns b).
    The right-hand side splits into three orthogonal parts: inside both the
    row space V and the column space U of the thin SVD (a k x k block of
    weights), outside V but inside U (s_a = 0: one weight per column), and
    outside U (s_b = 0: the weight rho2). The complement of V is reached by
    projection, so no n x n basis is formed.
    """
    u, v, s2 = basis.u, basis.v, basis.s2
    inv_inside = 1.0 / (2.0 * np.outer(s2, s2) + rho1 * s2[None, :] + rho2 + shift)
    inv_outside_v = 1.0 / (rho1 * s2 + rho2 + shift)
    inv_outside_u = 1.0 / (rho2 + shift)
    thin_u = u.shape[0] > u.shape[1]  # more features than samples

    def apply(rhs: np.ndarray) -> np.ndarray:
        ru = rhs @ u
        y = v.T @ ru
        w = (v @ (y * inv_inside) + (ru - v @ y) * inv_outside_v) @ u.T
        if thin_u:
            w += (rhs - ru @ u.T) * inv_outside_u
        return w

    return apply


def solve_w_subproblem(
    ds: Dataset,
    state: SolverState,
    basis: SpectralBasis,
    sigma: float,
) -> np.ndarray:
    """Closed-form W update: the minimizer of the augmented Lagrangian in W.

    With Z, W~, P, Q and the multipliers fixed, that is the quadratic
    ``||X - XWX||^2 + rho1/2 ||WX - Z + L1/rho1||^2 + rho2/2 ||W - W~ +
    L2/rho2||^2 + sigma/2 ||W - P + L3/sigma||^2 + sigma/2 ||W - Q +
    L4/sigma||^2``, whose Hessian is diagonal in the spectral basis of the
    data. ``basis`` is the data's :func:`spectral_basis` and ``sigma`` the
    :func:`inner_penalty` of the sweep.
    """
    rho1, rho2 = state.rho1, state.rho2
    # minus the linear term of the quadratic: its gradient is (H + 2 sigma)W - b
    b = (basis.g + (rho1 * state.z - state.lambda1) @ ds.matrix.T
         + rho2 * state.w_tilde - state.lambda2
         + sigma * (state.p + state.q) - state.lambda3 - state.lambda4)
    return _shifted_inverse(basis, rho1, rho2, 2.0 * sigma)(b)


def update_z(
    state: SolverState,
    ds: Dataset,
    t: AngularWeights,
    eta: float,
) -> np.ndarray:
    """Closed-form Z update: weighted entrywise shrinkage of WX + L1/rho1."""
    if state.rho1 <= 0:
        raise ValueError("rho1 must be positive")
    k = state.w @ ds.matrix + state.lambda1 / state.rho1
    return soft_threshold(k, eta * t.t / state.rho1)


def update_w_tilde(state: SolverState, gamma: float) -> np.ndarray:
    """Closed-form W~ update: singular value thresholding of W + L2/rho2."""
    if state.rho2 <= 0:
        raise ValueError("rho2 must be positive")
    return svt(state.w + state.lambda2 / state.rho2, gamma / state.rho2)


def update_p_q(
    state: SolverState,
    params: RegularizationParams,
    sigma: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form P and Q updates: row group shrinkage of W + L3/sigma and
    column group shrinkage of W + L4/sigma."""
    p = group_shrink(state.w + state.lambda3 / sigma, params.alpha / sigma, axis=1)
    q = group_shrink(state.w + state.lambda4 / sigma, params.beta / sigma, axis=0)
    return p, q


def update_duals_and_rho(
    state: SolverState,
    ds: Dataset,
    cfg: SolverConfig,
    sigma: float,
) -> SolverState:
    """Dual ascent on all four multipliers, then the geometric penalty growth."""
    w = state.w
    rho1, rho2 = state.rho1, state.rho2
    lambda1 = state.lambda1 + rho1 * (w @ ds.matrix - state.z)
    lambda2 = state.lambda2 + rho2 * (w - state.w_tilde)
    lambda3 = state.lambda3 + sigma * (w - state.p)
    lambda4 = state.lambda4 + sigma * (w - state.q)
    if cfg.adaptive_rho:
        rho1 = min(cfg.tau * rho1, cfg.rho_max)
        rho2 = min(cfg.tau * rho2, cfg.rho_max)
    return replace(
        state,
        lambda1=lambda1,
        lambda2=lambda2,
        lambda3=lambda3,
        lambda4=lambda4,
        rho1=rho1,
        rho2=rho2,
        iter=state.iter + 1,
    )


def check_convergence(
    state: SolverState,
    ds: Dataset,
    prev_objective: Optional[float],
    curr_objective: float,
    epsilon: float,
) -> ConvergenceDecision:
    """Stopping test: the max-norm residuals of all four constraints and the
    relative objective change must all be below ``epsilon``.

    With no previous objective (``None``) the decision is always "not
    converged". A zero previous objective satisfies the change condition
    only when the current objective is also exactly zero; ``rel_change`` is
    ``None`` whenever the ratio is undefined.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    x = ds.matrix
    res1 = float(np.abs(state.w @ x - state.z).max())
    res2 = float(np.abs(state.w - state.w_tilde).max())
    res3 = max(float(np.abs(state.w - state.p).max()),
               float(np.abs(state.w - state.q).max()))
    if prev_objective is None:
        return ConvergenceDecision(False, res1, res2, res3, None)
    if prev_objective == 0.0:
        obj_ok = curr_objective == 0.0
        rel: Optional[float] = 0.0 if obj_ok else None
    else:
        rel = abs((curr_objective - prev_objective) / prev_objective)
        obj_ok = rel < epsilon
    converged = max(res1, res2, res3) < epsilon and obj_ok
    return ConvergenceDecision(converged, res1, res2, res3, rel)


def state_difference(a: SolverState, b: SolverState) -> SolverState:
    """Componentwise difference a - b (penalties and counter taken from a)."""
    return replace(a, **{f: getattr(a, f) - getattr(b, f) for f in _ARRAY_FIELDS})


def h_seminorm_sq(
    delta: SolverState,
    ds: Dataset,
    rho1: float,
    rho2: float,
    sigma: float,
) -> float:
    """Squared block-weighted seminorm of a state difference.

    The weighting is block diagonal: the W block carries the quadratic form
    induced by the coupling constraint (``rho1 ||dW X||^2 + rho2 ||dW||^2``),
    Z, W~, P and Q carry their penalties (``sigma`` for P and Q), and the
    multipliers the inverse penalties. Successive-iterate differences
    measured this way are the solver's contraction diagnostic.
    """
    if rho1 <= 0 or rho2 <= 0 or sigma <= 0:
        raise ValueError("penalties must be positive")
    x = ds.matrix

    def fro2(m: np.ndarray) -> float:
        return float((m * m).sum())

    return (
        rho1 * fro2(delta.w @ x)
        + rho2 * fro2(delta.w)
        + rho1 * fro2(delta.z)
        + rho2 * fro2(delta.w_tilde)
        + fro2(delta.lambda1) / rho1
        + fro2(delta.lambda2) / rho2
        + sigma * (fro2(delta.p) + fro2(delta.q))
        + (fro2(delta.lambda3) + fro2(delta.lambda4)) / sigma
    )


def solve(
    ds: Dataset,
    params: RegularizationParams = RegularizationParams(),
    cfg: SolverConfig = SolverConfig(),
) -> tuple[np.ndarray, ConvergenceReport]:
    """Run the full ADMM loop from the all-zero start.

    Each sweep updates W (closed form), then Z, W~, P and Q (closed-form
    proxes, independent of each other), then the multipliers and penalties,
    then tests convergence on the exact objective. Deterministic: identical
    inputs give identical reports.

    Returns the final W (n x d) and the per-iteration report.

    Raises
    ------
    ValueError
        Zero columns (the angular weights are undefined there).
    SolverAbortError
        A non-finite value appeared, at the start or in a sweep (overflow,
        for data too large).
    """
    x = ds.matrix
    d, n = x.shape
    t = angular_weights(ds, params.varsigma)
    basis = spectral_basis(ds)
    state = SolverState.initial(d, n, cfg)
    report = ConvergenceReport()
    try:
        prev_objective: Optional[float] = objective(ds, state.w, params, t)
    except ValueError as exc:
        # ||X||^2 overflowed, and with it the angular weights
        raise SolverAbortError(f"{exc} before outer iteration 1") from exc

    for _ in range(cfg.max_outer_iters):
        prev_state = state.copy()
        sigma = inner_penalty(basis, state.rho1, state.rho2)
        try:
            state.w = solve_w_subproblem(ds, state, basis, sigma)
            state.z = update_z(state, ds, t, params.eta)
            state.w_tilde = update_w_tilde(state, params.gamma)
            state.p, state.q = update_p_q(state, params, sigma)
            state = update_duals_and_rho(state, ds, cfg, sigma)
            if not state.all_finite():
                raise ValueError("non-finite iterate")
            curr_objective = objective(ds, state.w, params, t)
        except ValueError as exc:
            # in a sweep, the kernels and the objective raise ValueError only
            # for non-finite values, and numpy only for an SVD that failed
            raise SolverAbortError(
                f"{exc} at outer iteration {prev_state.iter + 1}"
            ) from exc
        decision = check_convergence(
            state, ds, prev_objective, curr_objective, cfg.epsilon
        )
        # The sweep ran under the previous penalties; weight its step with them.
        h2 = h_seminorm_sq(
            state_difference(state, prev_state), ds,
            prev_state.rho1, prev_state.rho2, sigma,
        )
        report.records.append(
            IterationRecord(
                objective=curr_objective,
                residual_wx_z=decision.residual_wx_z,
                residual_w_wtilde=decision.residual_w_wtilde,
                residual_w_pq=decision.residual_w_pq,
                rel_change=decision.rel_change,
                h_seminorm_sq=h2,
            )
        )
        if decision.converged:
            report.stop_reason = "converged"
            break
        prev_objective = curr_objective
    else:
        report.stop_reason = "max_iters"

    return state.w.copy(), report
