"""Convex joint sample/feature selection solved by two-block ADMM.

The model learned here is an n x d coefficient matrix W that reconstructs
the data as X ~ X W X. Row sparsity of W encodes which samples are kept,
column sparsity which features; a nuclear-norm term keeps W low rank and an
angular-weighted l1 term confines reconstruction to similar samples:

    min_W  ||X - X W X||_F^2 + alpha ||W||_2,1 + beta ||W^T||_2,1
           + gamma ||W||_* + eta ||T . (W X)||_1

The splitting W X = Z, W = W~ makes the nonsmooth terms separable: Z and W~
have closed-form proximal updates (entrywise shrinkage, singular value
thresholding). The remaining W block - a quadratic plus the two l2,1
terms - is solved exactly, without smoothing, by an inner split W = P
(rows) and W = Q (columns). In the basis of the thin SVD X = U S V^T the
quadratic is diagonal, so the W update is a diagonal solve, and P and Q
are row and column group shrinkage. The inner split is warm-started from
the previous sweep. Multipliers take a single dual ascent step per sweep
and the penalties grow geometrically up to a cap.
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

# The inner split of the W step stops after this many passes, or earlier
# once its residuals fall below INNER_TOL_FACTOR * epsilon; it is warm-started
# every sweep, so unfinished work carries over to the next one.
INNER_MAX_PASSES = 10
INNER_TOL_FACTOR = 1e-2


class SolverAbortError(RuntimeError):
    """A value went non-finite during a sweep; names the outer iteration."""


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


_ARRAY_FIELDS = ("w", "z", "w_tilde", "lambda1", "lambda2",
                 "p", "q", "lambda3", "lambda4")


@dataclass
class SolverState:
    """All ADMM iterates: primal W, Z, W~, multipliers, penalties.

    ``p`` and ``q`` are the row and column copies of W in the inner split of
    the W step, ``lambda3`` and ``lambda4`` their multipliers; they carry
    over from one sweep to the next. Left out, they start at ``p = q = w``
    with zero multipliers.
    """

    w: np.ndarray        # n x d
    z: np.ndarray        # n x n
    w_tilde: np.ndarray  # n x d
    lambda1: np.ndarray  # n x n
    lambda2: np.ndarray  # n x d
    rho1: float
    rho2: float
    iter: int = 0
    p: Optional[np.ndarray] = None        # n x d
    q: Optional[np.ndarray] = None        # n x d
    lambda3: Optional[np.ndarray] = None  # n x d
    lambda4: Optional[np.ndarray] = None  # n x d

    def __post_init__(self) -> None:
        if self.p is None:
            self.p = self.w.copy()
        if self.q is None:
            self.q = self.w.copy()
        if self.lambda3 is None:
            self.lambda3 = np.zeros_like(self.w)
        if self.lambda4 is None:
            self.lambda4 = np.zeros_like(self.w)

    @classmethod
    def initial(cls, d: int, n: int, cfg: SolverConfig) -> "SolverState":
        """All-zero start."""
        return cls(
            w=np.zeros((n, d)),
            z=np.zeros((n, n)),
            w_tilde=np.zeros((n, d)),
            lambda1=np.zeros((n, n)),
            lambda2=np.zeros((n, d)),
            rho1=cfg.rho1_init,
            rho2=cfg.rho2_init,
            iter=0,
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
) -> float:
    """Augmented Lagrangian of the split problem at the given state."""
    x = ds.matrix
    w, z, wt = state.w, state.z, state.w_tilde
    resid = (x @ w) @ x - x
    r1 = w @ x - z
    r2 = w - wt
    return (
        float((resid * resid).sum())
        + params.alpha * l21_norm(w)
        + params.beta * l21_norm(w.T)
        + params.gamma * nuclear_norm(wt)
        + params.eta * float(np.abs(t.t * z).sum())
        + float((state.lambda1 * r1).sum())
        + float((state.lambda2 * r2).sum())
        + 0.5 * state.rho1 * float((r1 * r1).sum())
        + 0.5 * state.rho2 * float((r2 * r2).sum())
    )


@dataclass(frozen=True)
class SpectralBasis:
    """What the exact W step needs of X = U diag(s) V^T, computed once.

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
    """Penalty of the inner W = P, W = Q split: ``sqrt(min h * max h)``.

    ``h_ab = 2 s_a^2 s_b^2 + rho1 s_b^2 + rho2`` are the eigenvalues of the
    W subproblem's quadratic (see :func:`_shifted_inverse`). ``min h`` is
    taken at its floor ``rho2`` (reached when X has fewer independent
    samples than features) rather than at the data's smallest eigenvalue:
    on full-rank data with more samples than features the latter gives a
    penalty about ``sqrt(1 + s_min^2)`` times larger, with which the inner
    split met its stopping test less often and the solves ended on higher
    objectives.
    """
    high = float(basis.s2.max())
    return math.sqrt(rho2 * (2.0 * high * high + rho1 * high + rho2))


def _shifted_inverse(
    basis: SpectralBasis, rho1: float, rho2: float, shift: float
) -> Callable[[np.ndarray], np.ndarray]:
    """The map ``rhs -> (H + shift)^-1 rhs``, H the W subproblem's Hessian.

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
    params: RegularizationParams,
    epsilon: float = SolverConfig.epsilon,
    basis: Optional[SpectralBasis] = None,
) -> tuple[SolverState, bool]:
    """Exact W step by the warm-started inner split W = P, W = Q.

    The W subproblem is ``q(W) + alpha ||W||_2,1 + beta ||W^T||_2,1`` with
    the smooth part ``q(W) = ||X - XWX||^2 + rho1/2 ||WX - Z + L1/rho1||^2
    + rho2/2 ||W - W~ + L2/rho2||^2``. Each pass solves for W in closed form
    (a diagonal solve in the spectral basis), shrinks the rows of P and the
    columns of Q, and steps the multipliers ``lambda3``, ``lambda4``. The
    passes stop when ``max|W - P|``, ``max|W - Q|`` and the scaled change of
    P and Q fall below ``INNER_TOL_FACTOR * epsilon``, or after
    ``INNER_MAX_PASSES``.

    Returns the state with the new W, P, Q and inner multipliers, and
    whether the inner stopping test was met. ``basis`` is the data's
    :func:`spectral_basis`, computed here when not given.
    """
    if basis is None:
        basis = spectral_basis(ds)
    x = ds.matrix
    rho1, rho2 = state.rho1, state.rho2
    sigma = inner_penalty(basis, rho1, rho2)
    tol = INNER_TOL_FACTOR * epsilon
    # minus the linear term of q: grad q(W) = H(W) - b
    b = basis.g + (rho1 * state.z - state.lambda1) @ x.T + rho2 * state.w_tilde - state.lambda2
    solve_shifted = _shifted_inverse(basis, rho1, rho2, 2.0 * sigma)
    p, q, lambda3, lambda4 = state.p, state.q, state.lambda3, state.lambda4
    converged = False
    for _ in range(INNER_MAX_PASSES):
        w = solve_shifted(b + sigma * (p + q) - lambda3 - lambda4)
        p_new = group_shrink(w + lambda3 / sigma, params.alpha / sigma, axis=1)
        q_new = group_shrink(w + lambda4 / sigma, params.beta / sigma, axis=0)
        r3 = w - p_new
        r4 = w - q_new
        lambda3 = lambda3 + sigma * r3
        lambda4 = lambda4 + sigma * r4
        primal = max(float(np.abs(r3).max()), float(np.abs(r4).max()))
        dual = sigma * max(float(np.abs(p_new - p).max()), float(np.abs(q_new - q).max()))
        p, q = p_new, q_new
        if primal < tol and dual < max(1.0, sigma) * tol:
            converged = True
            break
    return replace(state, w=w, p=p, q=q, lambda3=lambda3, lambda4=lambda4), converged


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


def update_duals_and_rho(
    state: SolverState,
    ds: Dataset,
    cfg: SolverConfig,
) -> SolverState:
    """Dual ascent on both multipliers, then the geometric penalty growth."""
    x = ds.matrix
    r1 = state.w @ x - state.z
    r2 = state.w - state.w_tilde
    lambda1 = state.lambda1 + state.rho1 * r1
    lambda2 = state.lambda2 + state.rho2 * r2
    rho1, rho2 = state.rho1, state.rho2
    if cfg.adaptive_rho:
        rho1 = min(cfg.tau * rho1, cfg.rho_max)
        rho2 = min(cfg.tau * rho2, cfg.rho_max)
    return replace(
        state,
        lambda1=lambda1,
        lambda2=lambda2,
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
    """Stopping test: both max-norm residuals and the relative objective
    change must all be below ``epsilon``.

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
    if prev_objective is None:
        return ConvergenceDecision(False, res1, res2, None)
    if prev_objective == 0.0:
        obj_ok = curr_objective == 0.0
        rel: Optional[float] = 0.0 if obj_ok else None
    else:
        rel = abs((curr_objective - prev_objective) / prev_objective)
        obj_ok = rel < epsilon
    converged = res1 < epsilon and res2 < epsilon and obj_ok
    return ConvergenceDecision(converged, res1, res2, rel)


def state_difference(a: SolverState, b: SolverState) -> SolverState:
    """Componentwise difference a - b (penalties and counter taken from a)."""
    return replace(a, **{f: getattr(a, f) - getattr(b, f) for f in _ARRAY_FIELDS})


def h_seminorm_sq(
    delta: SolverState,
    ds: Dataset,
    rho1: float,
    rho2: float,
) -> float:
    """Squared block-weighted seminorm of a state difference.

    The weighting is block diagonal: the W block carries the quadratic form
    induced by the coupling constraint (``rho1 ||dW X||^2 + rho2 ||dW||^2``),
    Z and W~ carry their penalties, and the multipliers the inverse
    penalties. Successive-iterate differences measured this way are the
    solver's contraction diagnostic.
    """
    if rho1 <= 0 or rho2 <= 0:
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
    )


def solve(
    ds: Dataset,
    params: RegularizationParams = RegularizationParams(),
    cfg: SolverConfig = SolverConfig(),
) -> tuple[np.ndarray, ConvergenceReport]:
    """Run the full ADMM loop from the all-zero start.

    Each sweep updates W (exact inner split), then Z and W~ (closed forms), then
    the multipliers and penalties, then tests convergence on the exact
    objective. Deterministic: identical inputs give identical reports.

    Returns the final W (n x d) and the per-iteration report.

    Raises
    ------
    ValueError
        Zero columns (the angular weights are undefined there).
    SolverAbortError
        A non-finite value appeared in a sweep (overflow, for data too large).
    """
    x = ds.matrix
    d, n = x.shape
    t = angular_weights(ds, params.varsigma)
    basis = spectral_basis(ds)
    state = SolverState.initial(d, n, cfg)
    report = ConvergenceReport()
    prev_objective: Optional[float] = objective(ds, state.w, params, t)

    for _ in range(cfg.max_outer_iters):
        prev_state = state.copy()
        try:
            state, _ = solve_w_subproblem(ds, state, params, cfg.epsilon, basis)
            state.z = update_z(state, ds, t, params.eta)
            state.w_tilde = update_w_tilde(state, params.gamma)
            state = update_duals_and_rho(state, ds, cfg)
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
            state_difference(state, prev_state), ds, prev_state.rho1, prev_state.rho2
        )
        report.records.append(
            IterationRecord(
                objective=curr_objective,
                residual_wx_z=decision.residual_wx_z,
                residual_w_wtilde=decision.residual_w_wtilde,
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
