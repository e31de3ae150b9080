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
independent proxes, then one dual ascent step on all four multipliers.
One penalty rho weights the W X = Z and W = W~ constraints and grows
geometrically up to a cap; the W = P and W = Q constraints take a penalty
sigma derived from rho and the data.

The penalty schedule depends on neither the data nor the weights, so cells
of a grid (weights that share the data and ``varsigma``) are solved as one
stack: every iterate gets a leading cell axis, each step of a sweep runs
once for all cells, and each cell is frozen at its own stopping sweep. The
steps use only operations that act on each cell's matrices alone (matmul,
SVD, elementwise maps, reductions within a matrix), so a cell's W and
report are bit for bit those of its serial solve; the tests check this. For
the same reason a stack in which a value goes non-finite can be split: it
is solved again from the start in halves, down to the lone cell that fails.

Overflow has one policy, set in :func:`solve`: numpy does not warn of it
there, and the first non-finite value a check meets becomes a
:class:`SolverAbortError` that names its sweep. The steps and
:func:`objective` called on their own warn as numpy does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .data import Dataset, _require_integer
from .kernels import (
    DEFAULT_VARSIGMA,
    AngularWeights,
    _per_stack,
    angular_weights,
    group_shrink,
    l21_norm,
    nuclear_norm,
    soft_threshold,
    svt,
)

# Memory one stack of cells may take; larger grids run in chunks of cells.
STACK_BYTES = 64 * 2**20


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
        # written so that NaN, which fails every comparison, is rejected
        for name in ("alpha", "beta", "gamma", "eta"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not 0 < self.varsigma < math.inf:
            raise ValueError("varsigma must be finite and positive")


@dataclass(frozen=True)
class SolverConfig:
    """ADMM loop settings.

    Defaults follow the standard initialization for this scheme: the
    penalty rho starts at 1e-6 and grows by a factor tau=1.1 per sweep up
    to 1e10, with stopping tolerance 1e-3. ``tau=1`` holds rho fixed, the
    regime in which the monotone-difference diagnostic is meaningful. The
    solve starts from zeros and is fully deterministic.
    """

    rho_init: float = 1e-6
    rho_max: float = 1e10
    tau: float = 1.1
    epsilon: float = 1e-3
    max_outer_iters: int = 1000

    def __post_init__(self) -> None:
        # written so that NaN, which fails every comparison, is rejected
        if not 1.0 <= self.tau < math.inf:
            raise ValueError("tau must be finite and >= 1")
        if not 0.0 < self.rho_init <= self.rho_max < math.inf:
            raise ValueError("need 0 < rho_init <= rho_max < inf")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")
        _require_integer("max_outer_iters", self.max_outer_iters, 1)


_ARRAY_FIELDS = ("w", "z", "w_tilde", "p", "q",
                 "lambda1", "lambda2", "lambda3", "lambda4")


@dataclass
class SolverState:
    """All ADMM iterates: primal W and its copies Z, W~, P, Q, their
    multipliers, and the penalty rho. Nothing else: what a sweep derives
    from them, such as W X, it holds as a local.

    ``z`` stands for W X, ``w_tilde``, ``p`` and ``q`` for W; ``lambda1`` to
    ``lambda4`` are the multipliers of these four constraints, in order.
    Every array may carry a leading cell axis: a stack of cells sharing the
    penalty and the sweep count.
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
    rho: float

    @classmethod
    def initial(
        cls, d: int, n: int, cfg: SolverConfig, cells: Optional[int] = None
    ) -> "SolverState":
        """All-zero start, for one cell or a stack of ``cells``."""
        lead = () if cells is None else (cells,)
        return cls(
            **{f: np.zeros(lead + ((n, n) if f in ("z", "lambda1") else (n, d)))
               for f in _ARRAY_FIELDS},
            rho=cfg.rho_init,
        )

    def __getitem__(self, index) -> "SolverState":
        """The cells ``index`` (any numpy index of the cell axis) of a stack."""
        return replace(self, **{f: getattr(self, f)[index] for f in _ARRAY_FIELDS})

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


@dataclass
class StackReport:
    """What :func:`solve` reports for a sequence of cells.

    ``cells[i]`` is cell i's :class:`ConvergenceReport`, or the
    :class:`SolverAbortError` its serial solve raises. ``iterations`` counts
    the sweeps run, including those of a stack dropped because a cell
    failed, which is solved again in halves.
    """

    cells: list[Union[ConvergenceReport, SolverAbortError]]
    iterations: int

    @property
    def stop_reason(self) -> str:
        """``converged`` if every cell converged, ``aborted`` if a cell
        failed, else ``max_iters``."""
        if any(isinstance(cell, SolverAbortError) for cell in self.cells):
            return "aborted"
        if all(cell.converged for cell in self.cells):
            return "converged"
        return "max_iters"


@dataclass(frozen=True)
class ConvergenceDecision:
    """The stopping test's verdict: one entry per cell in every field, with
    NaN where ``rel_change`` is undefined."""

    converged: np.ndarray
    residual_wx_z: np.ndarray
    residual_w_wtilde: np.ndarray
    residual_w_pq: np.ndarray
    rel_change: np.ndarray


@dataclass(frozen=True)
class _Cells:
    """The cells of a stack: their positions among the solve's cells and
    their weights, one entry per cell. Stands in for
    :class:`RegularizationParams` in the steps of a stacked sweep."""

    index: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    eta: np.ndarray
    eta_t: np.ndarray  # eta * T, the Z step's weights

    @classmethod
    def of(cls, cells: Sequence[RegularizationParams], positions: np.ndarray,
           t: AngularWeights) -> "_Cells":
        weights = {name: np.array([getattr(c, name) for c in cells], dtype=float)
                   for name in ("alpha", "beta", "gamma", "eta")}
        eta_t = weights["eta"][:, None, None] * t.t
        return cls(index=positions, eta_t=eta_t, **weights)

    def __getitem__(self, index) -> "_Cells":
        return _Cells(**{f.name: getattr(self, f.name)[index] for f in fields(self)})


def _sum2(m: np.ndarray):
    """Sum over each matrix: a 0-d array for a matrix, one value per cell."""
    return m.sum(axis=(-2, -1))


def objective(
    ds: Dataset,
    w: np.ndarray,
    params: RegularizationParams,
    t: AngularWeights,
    wx: Optional[np.ndarray] = None,
):
    """Exact value of the five-term objective at W.

    ``wx`` is W X if already formed. For a stack of W, ``params`` holds one
    weight per cell and the result one value per cell.
    """
    x = ds.matrix
    d, n = x.shape
    w = np.asarray(w, dtype=float)
    if w.ndim not in (2, 3) or w.shape[-2:] != (n, d):
        raise ValueError(f"w must be {n}x{d}, got {w.shape}")
    if t.t.shape != (n, n):
        raise ValueError(f"angular weights must be {n}x{n}, got {t.t.shape}")
    if wx is None:
        wx = w @ x
    resid = (x @ w) @ x - x
    value = (
        _sum2(resid * resid)
        + params.alpha * l21_norm(w)
        + params.beta * l21_norm(np.swapaxes(w, -1, -2))
        + params.gamma * nuclear_norm(w)
        + params.eta * _sum2(np.abs(t.t * wx))
    )
    if not np.isfinite(value).all():
        raise ValueError("objective is non-finite")
    return _per_stack(value)


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


def pq_penalty(basis: SpectralBasis, rho: float) -> float:
    """Penalty sigma of the W = P and W = Q constraints: ``sqrt(min h * max h)``.

    ``h_ab = 2 s_a^2 s_b^2 + rho s_b^2 + rho`` are the eigenvalues of the
    W subproblem's quadratic without the P and Q terms (see
    :func:`_shifted_inverse`), and the geometric mean of their extremes is
    the classic penalty choice for a quadratic split. ``min h`` is taken at
    its floor ``rho`` (reached when X has fewer independent samples than
    features) rather than at the data's smallest eigenvalue. The penalty
    grows with rho and is constant when rho is.
    """
    high = float(basis.s2.max())
    return math.sqrt(rho * (2.0 * high * high + rho * high + rho))


def _shifted_inverse(
    basis: SpectralBasis, rho: float, shift: float
) -> Callable[[np.ndarray], np.ndarray]:
    """The map ``rhs -> (H + shift)^-1 rhs``, H the Hessian of the W
    subproblem without the P and Q terms.

    In the full bases of ``X = U diag(s) V^T`` H is diagonal: it scales the
    coefficient ``(V^T W U)_ab`` by ``h_ab = 2 s_a^2 s_b^2 + rho s_b^2 +
    rho``, with s padded by zeros to length n (rows a) and d (columns b).
    The right-hand side splits into three orthogonal parts: inside both the
    row space V and the column space U of the thin SVD (a k x k block of
    weights), outside V but inside U (s_a = 0: one weight per column), and
    outside U (s_b = 0: the weight rho). The complement of V is reached by
    projection, so no n x n basis is formed.
    """
    u, v, s2 = basis.u, basis.v, basis.s2
    inv_inside = 1.0 / (2.0 * np.outer(s2, s2) + rho * s2[None, :] + rho + shift)
    inv_outside_v = 1.0 / (rho * s2 + rho + shift)
    inv_outside_u = 1.0 / (rho + shift)
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
    ``||X - XWX||^2 + rho/2 ||WX - Z + L1/rho||^2 + rho/2 ||W - W~ +
    L2/rho||^2 + sigma/2 ||W - P + L3/sigma||^2 + sigma/2 ||W - Q +
    L4/sigma||^2``, whose Hessian is diagonal in the spectral basis of the
    data. ``basis`` is the data's :func:`spectral_basis` and ``sigma`` the
    :func:`pq_penalty` of the sweep.
    """
    rho = state.rho
    # minus the linear term of the quadratic: its gradient is (H + 2 sigma)W - b
    b = (basis.g + (rho * state.z - state.lambda1) @ ds.matrix.T
         + rho * state.w_tilde - state.lambda2
         + sigma * (state.p + state.q) - state.lambda3 - state.lambda4)
    return _shifted_inverse(basis, rho, 2.0 * sigma)(b)


def update_z(state: SolverState, wx: np.ndarray, eta_t: np.ndarray) -> np.ndarray:
    """Closed-form Z update: weighted entrywise shrinkage of WX + L1/rho.

    ``wx`` is W X for the state's W. The thresholds are ``eta_t / rho``,
    with ``eta_t`` the array ``eta * T`` of the angular weights T (one
    matrix per cell for a stack), which :func:`solve` builds once.
    """
    if state.rho <= 0:
        raise ValueError("rho must be positive")
    return soft_threshold(wx + state.lambda1 / state.rho, eta_t / state.rho)


def update_w_tilde(state: SolverState, gamma: Union[float, np.ndarray]) -> np.ndarray:
    """Closed-form W~ update: singular value thresholding of W + L2/rho.

    ``gamma`` is a float or, for a stacked state, one value per cell.
    """
    if state.rho <= 0:
        raise ValueError("rho must be positive")
    return svt(state.w + state.lambda2 / state.rho, gamma / state.rho)


def update_p_q(
    state: SolverState,
    params: RegularizationParams,
    sigma: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form P and Q updates: row group shrinkage of W + L3/sigma and
    column group shrinkage of W + L4/sigma. For a stacked state ``params``
    holds one ``alpha`` and ``beta`` per cell."""
    p = group_shrink(state.w + state.lambda3 / sigma, params.alpha / sigma, axis=1)
    q = group_shrink(state.w + state.lambda4 / sigma, params.beta / sigma, axis=0)
    return p, q


def primal_residuals(
    state: SolverState, wx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four constraint residuals ``WX - Z``, ``W - W~``, ``W - P`` and
    ``W - Q``, which the dual step, the stopping test and the seminorm
    share. ``wx`` is W X for the state's W."""
    w = state.w
    return wx - state.z, w - state.w_tilde, w - state.p, w - state.q


def update_duals_and_rho(
    state: SolverState,
    cfg: SolverConfig,
    sigma: float,
    residuals: tuple[np.ndarray, ...],
) -> SolverState:
    """Dual ascent on all four multipliers by the state's
    :func:`primal_residuals`, then rho grows by ``cfg.tau`` up to
    ``cfg.rho_max``."""
    r1, r2, r3, r4 = residuals
    rho = state.rho
    return replace(
        state,
        lambda1=state.lambda1 + rho * r1,
        lambda2=state.lambda2 + rho * r2,
        lambda3=state.lambda3 + sigma * r3,
        lambda4=state.lambda4 + sigma * r4,
        rho=min(cfg.tau * rho, cfg.rho_max),
    )


def _max_abs(m: np.ndarray):
    return np.abs(m).max(axis=(-2, -1))


def check_convergence(
    residuals: tuple[np.ndarray, ...],
    prev_objective: np.ndarray,
    curr_objective: np.ndarray,
    epsilon: float,
) -> ConvergenceDecision:
    """Stopping test: the max-norm :func:`primal_residuals` of all four
    constraints and the relative objective change must all be below
    ``epsilon``.

    A zero previous objective satisfies the change condition only when the
    current objective is also exactly zero; ``rel_change`` is NaN whenever
    the ratio is undefined. The objectives hold one value per cell, and so
    does every field of the decision.
    """
    r1, r2, r3, r4 = residuals
    res1 = _max_abs(r1)
    res2 = _max_abs(r2)
    res3 = np.maximum(_max_abs(r3), _max_abs(r4))
    prev = np.asarray(prev_objective, dtype=float)
    curr = np.asarray(curr_objective, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs((curr - prev) / prev)
    rel = np.where(prev == 0.0, np.where(curr == 0.0, 0.0, np.nan), rel)
    # an undefined change (NaN) is never below epsilon
    converged = (np.maximum(np.maximum(res1, res2), res3) < epsilon) & (rel < epsilon)
    return ConvergenceDecision(converged, res1, res2, res3, rel)


def h_seminorm_sq(
    start: SolverState,
    end: SolverState,
    residuals: tuple[np.ndarray, ...],
    basis: SpectralBasis,
    sigma: float,
):
    """Squared block-weighted seminorm of the sweep from ``start`` to
    ``end``, under the sweep's penalties ``start.rho`` and ``sigma``.

    The weighting is block diagonal: the W block carries the quadratic form
    induced by the coupling constraint (``rho ||dW X||^2 + rho ||dW||^2``),
    Z and W~ carry ``rho``, P and Q ``sigma``, and the multipliers the
    inverse penalties. Successive-iterate differences measured this way are
    the solver's contraction diagnostic. The terms come from what the sweep
    holds: ``||dW X||^2`` is ``||dW U diag(s)||^2`` on the thin basis of
    X, and the dual step moved each multiplier by its penalty times its
    residual (``residuals``, the sweep's :func:`primal_residuals`), so a
    multiplier block is that penalty times the residual's squared norm.
    One value per cell.
    """
    rho = start.rho
    r1, r2, r3, r4 = residuals

    def fro2(m: np.ndarray):
        return _sum2(m * m)

    dw = end.w - start.w
    dwu = dw @ basis.u
    return _per_stack(
        rho * _sum2(dwu * dwu * basis.s2)
        + rho * fro2(dw)
        + rho * fro2(end.z - start.z)
        + rho * fro2(end.w_tilde - start.w_tilde)
        + rho * (fro2(r1) + fro2(r2))
        + sigma * (fro2(end.p - start.p) + fro2(end.q - start.q))
        + sigma * (fro2(r3) + fro2(r4))
    )


def _cells_per_stack(d: int, n: int) -> int:
    """How many cells one stack holds within :data:`STACK_BYTES`, at least one.

    At the peak of a sweep a cell holds, counted generously, 16 float64
    arrays of n x n (eta T, W X, Z and L1 at the sweep's end, start and the
    sweep before, the residual, the seminorm's Z difference and the Z
    step's temporaries) and 32 of n x d. About 12.4 of n x n were measured.
    """
    return max(1, STACK_BYTES // (8 * (16 * n * n + 32 * n * d)))


def _sweep(
    ds: Dataset,
    start: SolverState,
    cells: _Cells,
    t: AngularWeights,
    basis: SpectralBasis,
    cfg: SolverConfig,
    prev_objective: np.ndarray,
) -> tuple[SolverState, np.ndarray, list[IterationRecord], np.ndarray]:
    """One sweep of a stack from ``start``: the W step, then the Z, W~, P
    and Q proxes, then the multipliers and rho, then the stopping test.

    Returns the new state and, one entry per cell, the objective, the
    :class:`IterationRecord` and whether the cell converged. The record's
    seminorm step comes from the residuals the dual step used, and only
    the Z block's difference is n x n; ``start`` is read again only for
    the seminorm's differences of W, Z, W~, P and Q. Raises ValueError if
    a value of any cell goes non-finite (or an SVD fails).
    """
    sigma = pq_penalty(basis, start.rho)
    w = solve_w_subproblem(ds, start, basis, sigma)
    wx = w @ ds.matrix
    state = replace(start, w=w)
    z = update_z(state, wx, cells.eta_t)
    w_tilde = update_w_tilde(state, cells.gamma)
    p, q = update_p_q(state, cells, sigma)
    state.z, state.w_tilde, state.p, state.q = z, w_tilde, p, q
    residuals = primal_residuals(state, wx)
    state = update_duals_and_rho(state, cfg, sigma, residuals)
    if not state.all_finite():
        raise ValueError("non-finite iterate")
    # W X and the residuals go at their last use: every n x n array held
    # longer raises each sweep's peak
    curr = objective(ds, state.w, cells, t, wx=wx)
    del wx
    decision = check_convergence(residuals, prev_objective, curr, cfg.epsilon)
    h2 = h_seminorm_sq(start, state, residuals, basis, sigma)
    del residuals
    rows = zip(curr.tolist(), decision.residual_wx_z.tolist(),
               decision.residual_w_wtilde.tolist(), decision.residual_w_pq.tolist(),
               decision.rel_change.tolist(), h2.tolist())
    records = [IterationRecord(value, r1, r2, r3, None if math.isnan(change) else change, step)
               for value, r1, r2, r3, change, step in rows]
    return state, curr, records, decision.converged


def _solve_stack(
    ds: Dataset,
    cells: _Cells,
    t: AngularWeights,
    basis: SpectralBasis,
    cfg: SolverConfig,
    ws: list,
    outcomes: list,
) -> int:
    """The ADMM loop on one stack of cells from the all-zero start.

    Fills in ``ws`` and ``outcomes`` at the cells' positions: the final W
    and the :class:`ConvergenceReport`, or None and the
    :class:`SolverAbortError` of a failed cell. A cell leaves the stack at
    its own stopping sweep; the others go on stacked. If a value of any
    cell goes non-finite, the stack drops its work and each half of it is
    solved again from the start; a lone cell records its error. Returns
    the number of sweeps run, those of dropped stacks included.
    """
    d, n = ds.matrix.shape
    state = SolverState.initial(d, n, cfg, cells=cells.index.size)
    for i in cells.index:
        outcomes[i] = ConvergenceReport()
    going = cells
    sweeps = 0
    try:
        prev = objective(ds, state.w, going, t)
        for _ in range(cfg.max_outer_iters):
            sweeps += 1
            # The replaced state is freed one sweep late. Freed at once, it
            # leaves the top of the heap free, glibc's malloc returns that to
            # the system, and the next sweep faults it back in: at 30 x 120,
            # about 15k page faults and a fifth of a solve's time.
            replaced, (state, curr, records, converged) = (
                state, _sweep(ds, state, going, t, basis, cfg, prev))
            for i, cell in enumerate(going.index):
                outcomes[cell].records.append(records[i])
                if converged[i]:
                    outcomes[cell].stop_reason = "converged"
                    ws[cell] = state.w[i].copy()
            prev = curr
            if converged.all():
                return sweeps
            if converged.any():
                state, going, prev = state[~converged], going[~converged], curr[~converged]
    except ValueError as exc:
        # the kernels and the objective raise ValueError only for non-finite
        # values (||X||^2 itself at the start), and numpy for a failed SVD
        if cells.index.size == 1:
            where = f"at outer iteration {sweeps}" if sweeps else "before outer iteration 1"
            outcomes[cells.index[0]] = SolverAbortError(f"{exc} {where}")
            outcomes[cells.index[0]].__cause__ = exc
            return sweeps
        half = cells.index.size // 2
        return sweeps + sum(_solve_stack(ds, part, t, basis, cfg, ws, outcomes)
                            for part in (cells[:half], cells[half:]))
    for i, cell in enumerate(going.index):
        ws[cell] = state.w[i].copy()
    return sweeps


def solve(
    ds: Dataset,
    params: Union[RegularizationParams, Sequence[RegularizationParams]] = RegularizationParams(),
    cfg: SolverConfig = SolverConfig(),
):
    """Run the full ADMM loop from the all-zero start.

    Each sweep updates W (closed form), then Z, W~, P and Q (closed-form
    proxes, independent of each other), then the multipliers and rho,
    then tests convergence on the exact objective. Deterministic: identical
    inputs give identical reports.

    For one :class:`RegularizationParams`, returns the final W (n x d) and
    the per-iteration :class:`ConvergenceReport`. For a sequence of them
    (cells sharing one ``varsigma``), solves the cells as stacks of at most
    :data:`STACK_BYTES` each, in the given order, and returns the list of
    final Ws (None for a failed cell) and a :class:`StackReport`. Each
    cell's W and report are bit for bit those of its own serial solve.

    Raises
    ------
    ValueError
        Zero columns (the angular weights are undefined there), no cells,
        or cells with different ``varsigma``.
    SolverAbortError
        For one cell: a non-finite value appeared, at the start or in a
        sweep (overflow of the data, a weight or rho); numpy warns of none
        of it. In a sequence the error is that cell's entry of the report
        instead.
    """
    single = isinstance(params, RegularizationParams)
    cells = [params] if single else list(params)
    if not cells:
        raise ValueError("solve needs at least one RegularizationParams")
    if len({c.varsigma for c in cells}) > 1:
        raise ValueError("the cells of one solve must share varsigma")
    d, n = ds.matrix.shape
    size = _cells_per_stack(d, n)
    ws: list[Optional[np.ndarray]] = [None] * len(cells)
    outcomes: list = [None] * len(cells)
    sweeps = 0
    # Values that overflow (huge data, weights or penalties) are not warned
    # of here but reported, each as a SolverAbortError naming its sweep: by
    # the kernels' _require_finite on their inputs, by
    # SolverState.all_finite after the dual step, and by the objective's
    # finiteness test.
    with np.errstate(over="ignore", invalid="ignore"):
        t = angular_weights(ds, cells[0].varsigma)
        basis = spectral_basis(ds)
        for lo in range(0, len(cells), size):
            stack = _Cells.of(cells[lo:lo + size], np.arange(lo, min(lo + size, len(cells))), t)
            sweeps += _solve_stack(ds, stack, t, basis, cfg, ws, outcomes)
    if not single:
        return ws, StackReport(cells=outcomes, iterations=sweeps)
    if isinstance(outcomes[0], SolverAbortError):
        raise outcomes[0]
    return ws[0], outcomes[0]
