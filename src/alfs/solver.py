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
sigma derived from rho and the data. Every sweep ends with one stopping
test, records or not: the max-norm residuals, then the objective's change.

The penalty schedule depends on neither the data nor the weights, so cells
of a grid (weights that share the data and ``varsigma``) are solved as one
stack: every iterate gets a leading cell axis, each step of a sweep runs
once for all cells, and each cell is frozen at its own stopping sweep. The
steps use only operations that act on each cell's matrices alone (matmul,
SVD, elementwise maps, reductions within a matrix), so a cell's W and
report are bit for bit those of its serial solve; the tests check this. For
the same reason a sweep in which a value goes non-finite is replayed cell
by cell from its start, and the cells that fail alone leave the stack.

A stack's state lives in two sets of arrays and one W X block, allocated
once, and a sweep writes into no other: it reads one set and writes the
other, and they swap; a lone replay writes into its cell's rows of the
spare set. The n x n blocks (Z, its multiplier and W X) are updated in
place, so the only n x n arrays a sweep allocates are short-lived
temporaries of its steps, and the start it read stays whole for the
seminorm and for a replay.

Overflow has one policy, set in :func:`solve`: numpy does not warn of it
there, and the first non-finite value a check meets becomes a
:class:`SolverAbortError` that names its sweep. The steps and
:func:`objective` called on their own warn as numpy does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence, Union

import numpy as np

from .data import Dataset, _require_integer, _require_real, _thin_svd
from .kernels import (
    DEFAULT_VARSIGMA,
    AngularWeights,
    _group_norms,
    _group_shrink,
    _per_stack,
    _require_finite,
    _scaled_norm,
    angular_weights,
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
        for name in ("alpha", "beta", "gamma", "eta"):
            _require_real(name, getattr(self, name), 0)
        _require_real("varsigma", self.varsigma, 0, strict=True)


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
        _require_real("rho_init", self.rho_init, 0, strict=True)
        _require_real("rho_max", self.rho_max, self.rho_init)
        _require_real("tau", self.tau, 1)
        _require_real("epsilon", self.epsilon, 0, strict=True)
        _require_integer("max_outer_iters", self.max_outer_iters, 1)


_ARRAY_FIELDS = ("w", "z", "w_tilde", "p", "q",
                 "lambda1", "lambda2", "lambda3", "lambda4")
_MULTIPLIERS = _ARRAY_FIELDS[5:]


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
        """Whether every entry is finite. NaN and infinities carry into a
        sum, so only an array whose sum is not finite is scanned: a sum of
        huge entries may overflow, unwarned in :func:`solve`."""
        return all(math.isfinite(m.sum()) or np.isfinite(m).all()
                   for m in (getattr(self, f) for f in _ARRAY_FIELDS))


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
    """Per-iteration records (none for ``records=False``), the number of
    sweeps, and why the loop stopped."""

    records: list[IterationRecord] = field(default_factory=list)
    stop_reason: str = "max_iters"
    iterations: int = 0

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


@dataclass
class StackReport:
    """What :func:`solve` reports for a sequence of cells.

    ``cells[i]`` is cell i's :class:`ConvergenceReport`, or the
    :class:`SolverAbortError` its serial solve raises. ``iterations`` counts
    the sweeps run, each once: one that fails stacked and its lone replays too.
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
class _Cells:
    """The cells of a stack: their positions in the stack, their weights,
    and the ``max|W|`` below which each one's objective is sure to be
    finite (NaN while unknown; see :func:`_objective_limits`), one entry
    per cell. Stands in for :class:`RegularizationParams` in the steps of a
    stacked sweep."""

    index: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    eta: np.ndarray
    w_limit: np.ndarray

    @classmethod
    def of(cls, cells: Sequence[RegularizationParams]) -> "_Cells":
        weights = {name: np.array([getattr(c, name) for c in cells], dtype=float)
                   for name in ("alpha", "beta", "gamma", "eta")}
        return cls(index=np.arange(len(cells)), w_limit=np.full(len(cells), np.nan),
                   **weights)

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
    local = t.t * wx
    value = (
        _sum2(resid * resid)
        + params.alpha * _sum2(_group_norms(w, -1))
        + params.beta * _sum2(_group_norms(np.swapaxes(w, -1, -2), -1))
        + params.gamma * nuclear_norm(w)
        + params.eta * _sum2(np.abs(local, out=local))
    )
    if not np.isfinite(value).all():
        raise ValueError("objective is non-finite")
    return _per_stack(value)


@dataclass(frozen=True)
class SpectralBasis:
    """What the W step needs of X = U diag(s) V^T, computed once.

    ``u`` (d x k) and ``v`` (n x k) hold the singular vectors of the thin
    SVD, k = min(d, n), ``s2`` the squared singular values, ``s2s2`` the
    k x k products ``2 s_a^2 s_b^2``, ``s2_max`` the largest squared
    singular value, and ``g`` the constant ``2 X^T X X^T`` of the W
    subproblem's linear term.
    """

    u: np.ndarray
    s2: np.ndarray
    s2s2: np.ndarray
    s2_max: float
    v: np.ndarray
    g: np.ndarray


def spectral_basis(ds: Dataset) -> SpectralBasis:
    """The data's memoized, read-only thin SVD and the constant term of the W step."""
    x = ds.matrix
    u, s, vt = _thin_svd(ds)
    s2 = s * s
    xtx = x.T @ x
    return SpectralBasis(u=u, s2=s2, s2s2=2.0 * np.outer(s2, s2), s2_max=float(s2.max()),
                         v=vt.T, g=2.0 * (xtx @ x.T))


def pq_penalty(basis: SpectralBasis, rho: float) -> float:
    """Penalty sigma of the W = P and W = Q constraints: ``sqrt(min h * max h)``.

    ``h_ab = 2 s_a^2 s_b^2 + rho s_b^2 + rho`` are the eigenvalues of the
    W subproblem's quadratic without the P and Q terms (see
    :func:`_shifted_solve`), and the geometric mean of their extremes is
    the classic penalty choice for a quadratic split. ``min h`` is taken at
    its floor ``rho`` (reached when X has fewer independent samples than
    features) rather than at the data's smallest eigenvalue. The penalty
    grows with rho and is constant when rho is.
    """
    high = basis.s2_max
    return math.sqrt(rho * (2.0 * high * high + rho * high + rho))


def _shifted_solve(basis: SpectralBasis, rho: float, shift: float, rhs: np.ndarray) -> np.ndarray:
    """``(H + shift)^-1 rhs``, H the Hessian of the W subproblem without the
    P and Q terms.

    In the full bases of ``X = U diag(s) V^T`` H is diagonal: it scales the
    coefficient ``(V^T W U)_ab`` by ``h_ab = 2 s_a^2 s_b^2 + rho s_b^2 +
    rho``, with s padded by zeros to length n (rows a) and d (columns b).
    The right-hand side splits into three orthogonal parts: inside both the
    row space V and the column space U of the thin SVD (a k x k block of
    weights), outside V but inside U (s_a = 0: one weight per column), and
    outside U (s_b = 0: the weight rho). The complement of V is reached by
    projection, so no n x n basis is formed.
    """
    u, v = basis.u, basis.v
    rho_s2 = rho * basis.s2
    ru = rhs @ u
    y = v.T @ ru
    w = (v @ (y * (1.0 / (basis.s2s2 + rho_s2 + rho + shift)))
         + (ru - v @ y) * (1.0 / (rho_s2 + rho + shift))) @ u.T
    if u.shape[0] > u.shape[1]:  # more features than samples
        w += (rhs - ru @ u.T) * (1.0 / (rho + shift))
    return w


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
    return _shifted_solve(basis, rho, 2.0 * sigma, b)


def update_z(
    state: SolverState,
    wx: np.ndarray,
    eta_t: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Closed-form Z update: weighted entrywise shrinkage of WX + L1/rho.

    ``wx`` is W X for the state's W. The thresholds are ``eta_t / rho``,
    with ``eta_t`` the array ``eta * T`` of the angular weights T (one
    matrix per cell for a stack); ``eta_t`` is overwritten with them. The
    shrinkage runs in place in ``out`` if given, an n x n array (one per
    cell) that neither ``wx`` nor ``eta_t`` may share.
    """
    k = np.divide(state.lambda1, state.rho, out=out)
    np.add(wx, k, out=k)
    return soft_threshold(k, np.divide(eta_t, state.rho, out=eta_t), out=k)


def update_w_tilde(state: SolverState, gamma: Union[float, np.ndarray]) -> np.ndarray:
    """Closed-form W~ update: singular value thresholding of W + L2/rho.

    ``gamma`` is a float or, for a stacked state, one value per cell.
    """
    return svt(state.w + state.lambda2 / state.rho, gamma / state.rho)


def update_p_q(
    state: SolverState,
    params: RegularizationParams,
    sigma: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form P and Q updates: row group shrinkage of W + L3/sigma and
    column group shrinkage of W + L4/sigma. For a stacked state ``params``
    holds one ``alpha`` and ``beta`` per cell. The thresholds are
    nonnegative by construction: only the inputs are checked."""
    k = _require_finite(state.w + state.lambda3 / sigma, "group_shrink input")
    p = _group_shrink(k, np.divide(params.alpha, sigma)[..., None, None], axis=1)
    k = _require_finite(state.w + state.lambda4 / sigma, "group_shrink input")
    q = _group_shrink(k, np.divide(params.beta, sigma)[..., None, None], axis=0)
    return p, q


def primal_residuals(
    state: SolverState, wx: np.ndarray, out: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four constraint residuals ``WX - Z``, ``W - W~``, ``W - P`` and
    ``W - Q``, which the dual step, the stopping test and the seminorm
    share. ``wx`` is W X for the state's W; ``WX - Z`` goes to ``out`` if
    given, which may be ``wx`` itself."""
    w = state.w
    return (np.subtract(wx, state.z, out=out),
            w - state.w_tilde, w - state.p, w - state.q)


def update_duals_and_rho(
    state: SolverState,
    cfg: SolverConfig,
    sigma: float,
    residuals: tuple[np.ndarray, ...],
    out: SolverState,
) -> SolverState:
    """Dual ascent on all four multipliers by the state's
    :func:`primal_residuals`, then rho grows by ``cfg.tau`` up to
    ``cfg.rho_max``.

    Returns ``out`` with its multipliers overwritten and its rho set; its
    other arrays are left as they are. ``out`` shares no array with
    ``state`` or the residuals.
    """
    rho = state.rho
    for name, penalty, r in zip(_MULTIPLIERS, (rho, rho, sigma, sigma), residuals):
        step = np.multiply(penalty, r, out=getattr(out, name))
        np.add(getattr(state, name), step, out=step)
    out.rho = min(cfg.tau * rho, cfg.rho_max)
    return out


def _max_abs(m: np.ndarray):
    return np.abs(m).max(axis=(-2, -1))


def check_convergence(residuals: tuple[np.ndarray, ...], epsilon: float):
    """The residual half of the stopping test, one entry per cell.

    Returns the max norms of the :func:`primal_residuals` ``W X - Z``,
    ``W - W~`` and the larger of ``W - P`` and ``W - Q``, and whether all
    three are below ``epsilon``. A cell that passes has converged when its
    :func:`_rel_change` is below ``epsilon`` too.
    """
    r1, r2, r3, r4 = residuals
    wx_z, w_wtilde, w_pq = _max_abs(r1), _max_abs(r2), np.maximum(_max_abs(r3), _max_abs(r4))
    return (wx_z, w_wtilde, w_pq), np.maximum(np.maximum(wx_z, w_wtilde), w_pq) < epsilon


def _rel_change(prev_objective, curr_objective) -> np.ndarray:
    """The objective half of the stopping test: the relative change, NaN
    (never below a tolerance) where it is undefined; a zero previous
    objective gives 0 against an exact 0 and NaN otherwise."""
    prev = np.asarray(prev_objective, dtype=float)
    curr = np.asarray(curr_objective, dtype=float)
    return np.divide(np.abs(curr - prev), np.abs(prev), where=prev != 0.0,
                     out=np.where(curr == 0.0, 0.0, np.nan))


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

    def fro2_in_place(diff: np.ndarray):
        # a difference the caller made for this: squared where it is
        return _sum2(np.multiply(diff, diff, out=diff))

    dw = end.w - start.w
    dwu = dw @ basis.u
    return _per_stack(
        rho * _sum2(dwu * dwu * basis.s2)
        + rho * fro2_in_place(dw)
        + rho * fro2_in_place(end.z - start.z)
        + rho * fro2_in_place(end.w_tilde - start.w_tilde)
        + rho * (fro2(r1) + fro2(r2))
        + sigma * (fro2_in_place(end.p - start.p) + fro2_in_place(end.q - start.q))
        + sigma * (fro2(r3) + fro2(r4))
    )


def _cell_bytes(d: int, n: int) -> int:
    """Memory one cell of a stack may take at the peak of a sweep.

    Counted generously: 8 float64 arrays of n x n (Z and L1 at the sweep's
    start and end, W X, one temporary of a step, and a share of the angular
    weights) and 32 of n x d. One cell alone measured 7.8-7.9 arrays of
    n x n in all, its n x d arrays and the weights included, at d = n / 30.
    """
    return 8 * (8 * n * n + 32 * n * d)


def _cells_per_stack(d: int, n: int) -> int:
    """How many cells one stack holds within :data:`STACK_BYTES`, at least one."""
    return max(1, STACK_BYTES // _cell_bytes(d, n))


# A cell whose ||W||_F keeps the bound of _objective_limits below this has
# a finite objective: 24 binary orders below overflow, far more than the
# rounding of the objective's terms can add.
_OBJECTIVE_BOUND = 2.0**1000


def _objective_limits(ds: Dataset, t: AngularWeights, cells: _Cells) -> np.ndarray:
    """Each cell's ``max|W|`` below which its objective is sure to be finite.

    With F = ||W||_F <= sqrt(n d) max|W|, the objective is at most
    ``(||X||_F^2 F + ||X||_F)^2 + c F``, where ``c = alpha sqrt(n) + beta
    sqrt(d) + gamma sqrt(min(n, d)) + eta ||T||_F ||X||_F`` bounds the
    penalties. The limit keeps each of the two parts below half of
    :data:`_OBJECTIVE_BOUND`. A limit whose arithmetic overflows comes out
    0, negative or NaN, and no ``max|W|`` is below it.
    """
    d, n = ds.matrix.shape
    half = np.float64(_OBJECTIVE_BOUND / 2.0)
    with np.errstate(all="ignore"):
        x, tf = _scaled_norm(ds.matrix), _scaled_norm(t.t)
        c = (cells.alpha * math.sqrt(n) + cells.beta * math.sqrt(d)
             + cells.gamma * math.sqrt(min(n, d)) + cells.eta * tf * x)
        return np.minimum((np.sqrt(half) - x) / (x * x), half / c) / math.sqrt(n * d)


def _objective_where(
    ds: Dataset,
    w: np.ndarray,
    cells: _Cells,
    t: AngularWeights,
    where: np.ndarray,
    wx: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The :func:`objective` of a stack's cells ``where`` (a mask), NaN for
    the others; ``wx`` is W X if already formed."""
    if where.all():
        return objective(ds, w, cells, t, wx=wx)
    value = np.full(where.size, np.nan)
    if where.any():
        value[where] = objective(ds, w[where], cells[where], t,
                                 wx=None if wx is None else wx[where])
    return value


def _sweep(
    ds: Dataset,
    start: SolverState,
    cells: _Cells,
    t: AngularWeights,
    basis: SpectralBasis,
    cfg: SolverConfig,
    prev_objective: np.ndarray,
    end: SolverState,
    wx: np.ndarray,
    records: bool = True,
) -> tuple[np.ndarray, list[IterationRecord], np.ndarray]:
    """One sweep of a stack from ``start``: the W step, then the Z, W~, P
    and Q proxes, then the multipliers and rho, then the stopping test
    (:func:`check_convergence` on the residuals, then :func:`_rel_change`).

    The new state is written into ``end`` and W X into ``wx``, arrays of
    the shapes of ``start`` and its Z that the stack owns (for a lone
    replay, its cell's rows of the stack's spare set and W X): the Z and
    multiplier blocks in place, W, W~, P and Q as the steps return them.
    ``start`` is only read, so a sweep that raises can be run again from
    it. The n x n work stays in those arrays: eta T, then the Z step's
    thresholds, are formed in ``end``'s L1 until the dual step writes L1
    there, and W X - Z overwrites W X once the objective has read it.

    Returns, one entry per cell, the objective, the
    :class:`IterationRecord` (if ``records``; else none) and whether the
    cell converged. The record's seminorm step comes from the residuals the
    dual step used. Raises ValueError if a value of any cell goes
    non-finite (or an SVD fails), with the text of the first failing step
    in the order above.

    The objective is NaN for the cells whose verdict and failure do not
    depend on it: those whose ``max|W|`` is below their ``cells.w_limit``
    (never, while it is NaN) and whose residuals fail the stopping test.
    Where the residuals pass, it is formed after the dual step (W X again,
    as the residual overwrote it), and so is the start's if
    ``prev_objective`` is NaN there. Both modes run the same test; without
    records, a sweep in which no cell passes ends at the residuals.
    """
    sigma = pq_penalty(basis, start.rho)
    w = solve_w_subproblem(ds, start, basis, sigma)
    wx = np.matmul(w, ds.matrix, out=wx)
    state = replace(start, w=w)
    eta_t = np.multiply(cells.eta[:, None, None], t.t, out=end.lambda1)
    end.z = update_z(state, wx, eta_t, out=end.z)
    end.w_tilde = update_w_tilde(state, cells.gamma)
    end.p, end.q = update_p_q(state, cells, sigma)
    end.w = w
    # the objective reads W X before the residual overwrites it; its error
    # is raised after the dual step's, as that step comes first
    exact = ~(_max_abs(w) < cells.w_limit)
    try:
        curr, failure = _objective_where(ds, w, cells, t, exact, wx=wx), None
    except ValueError as exc:
        curr, failure = None, exc
    residuals = primal_residuals(end, wx, out=wx)
    update_duals_and_rho(start, cfg, sigma, residuals, out=end)
    if not end.all_finite():
        raise ValueError("non-finite iterate")
    if failure is not None:
        raise failure
    maxima, passing = check_convergence(residuals, cfg.epsilon)
    prev = prev_objective
    if passing.any():
        # the objectives of passing cells that this sweep or its start skipped
        todo = passing & np.isnan(curr)
        curr = np.where(todo, _objective_where(ds, w, cells, t, todo), curr)
        todo = passing & np.isnan(prev)
        prev = np.where(todo, _objective_where(ds, start.w, cells, t, todo), prev)
    elif not records:
        return curr, [], passing
    rel = _rel_change(prev, curr)
    converged = passing & (rel < cfg.epsilon)
    if not records:
        return curr, [], converged
    h2 = h_seminorm_sq(start, end, residuals, basis, sigma)
    rows = zip(curr.tolist(), *(m.tolist() for m in maxima), rel.tolist(), h2.tolist())
    kept = [IterationRecord(value, r1, r2, r3, None if math.isnan(change) else change, step)
            for value, r1, r2, r3, change, step in rows]
    return curr, kept, converged


def _keep(state: SolverState, keep: np.ndarray) -> SolverState:
    """The cells ``keep`` (a mask) of a stack, moved to its front in place:
    a view of the first ``keep.sum()`` cells, with no new array."""
    kept = np.flatnonzero(keep)
    for f in _ARRAY_FIELDS:
        m = getattr(state, f)
        for to, cell in enumerate(kept):
            if to != cell:
                m[to] = m[cell]
    return state[:kept.size]


def _solve_stack(
    ds: Dataset, cells: _Cells, t: AngularWeights, basis: SpectralBasis, cfg: SolverConfig,
    records: bool = True,
) -> tuple[list[Optional[np.ndarray]], list, int]:
    """The ADMM loop on one stack of cells from the all-zero start, with
    per-sweep records if ``records``.

    Returns the cells' final Ws and reports, None and the
    :class:`SolverAbortError` for a failed cell, and the number of
    :func:`_sweep` calls. A cell leaves at the sweep where it converges,
    fails or runs out of sweeps, and the cells that stay move to the front
    of the stack's arrays. A sweep that raises is replayed for each cell
    alone from its start, which it leaves unchanged, into that cell's rows
    of the spare set and of W X: the cells that raise alone leave, and the
    others run the sweep again, stacked.
    """
    ws: list[Optional[np.ndarray]] = [None] * cells.index.size
    state = SolverState.initial(*ds.matrix.shape, cfg, cells=len(ws))
    try:
        # W is zero: the start depends on the data alone, the same for every cell
        prev = objective(ds, state.w, cells, t)
    except ValueError as exc:
        return ws, [SolverAbortError(f"{exc} before outer iteration 1") for _ in ws], 0
    if not records:  # with records w_limit stays NaN: every objective is formed
        cells = replace(cells, w_limit=_objective_limits(ds, t, cells))
    spare = SolverState.initial(*ds.matrix.shape, cfg, cells=len(ws))
    wx = np.empty_like(state.z)
    outcomes: list = [ConvergenceReport() for _ in ws]
    going = cells
    sweeps = 0
    k = 1
    while going.index.size:
        sweeps += 1
        try:
            curr, rows, converged = _sweep(ds, state, going, t, basis, cfg, prev, spare, wx,
                                           records)
        except ValueError:
            # the kernels and the objective raise ValueError only for
            # non-finite values, and numpy for a failed SVD
            keep = np.ones(going.index.size, dtype=bool)
            for i, cell in enumerate(going.index):
                sweeps += 1
                one = slice(i, i + 1)
                try:
                    _sweep(ds, state[one], going[one], t, basis, cfg, prev[one],
                           spare[one], wx[one], records)
                except ValueError as exc:
                    outcomes[cell] = SolverAbortError(f"{exc} at outer iteration {k}")
                    keep[i] = False
            if keep.all():
                raise  # each cell's sweep passes alone: the cells are not independent
        else:
            state, spare = spare, state
            keep = ~(converged | (k == cfg.max_outer_iters))
            for cell, row in zip(going.index.tolist(), rows):
                outcomes[cell].records.append(row)
            for i in np.flatnonzero(~keep).tolist():
                cell = going.index[i]
                outcomes[cell].iterations = k
                if converged[i]:
                    outcomes[cell].stop_reason = "converged"
                ws[cell] = state.w[i].copy()
            prev = curr
            k += 1
        if not keep.all():
            live = int(keep.sum())
            state, spare, wx = _keep(state, keep), spare[:live], wx[:live]
            going, prev = going[keep], prev[keep]
    return ws, outcomes, sweeps


def solve(
    ds: Dataset,
    params: Union[RegularizationParams, Sequence[RegularizationParams]] = RegularizationParams(),
    cfg: SolverConfig = SolverConfig(),
    *,
    records: bool = True,
):
    """Run the full ADMM loop from the all-zero start.

    Each sweep updates W (closed form), then Z, W~, P and Q (closed-form
    proxes, independent of each other), then the multipliers and rho,
    then tests convergence on the residuals and the exact objective.
    Deterministic: identical inputs give identical reports.

    For one :class:`RegularizationParams`, returns the final W (n x d) and
    the per-iteration :class:`ConvergenceReport`. For a sequence of them
    (cells sharing one ``varsigma``), solves the cells as stacks of at most
    :data:`STACK_BYTES` each, in the given order, and returns the list of
    final Ws (None for a failed cell) and a :class:`StackReport`. Each
    cell's W and report are bit for bit those of its own serial solve.

    ``records=False`` leaves the reports' ``records`` empty and forms the
    exact objective only where the residuals pass the stopping test or the
    objective might not be finite. The test is the same in both modes, so
    the Ws, stop reasons, sweep counts and abort texts stay those of the
    solve with records.

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
    ws, outcomes, sweeps = [], [], 0
    # Values that overflow (huge data, weights or penalties) are not warned
    # of here but reported, each as a SolverAbortError naming its sweep: by
    # the kernels' _require_finite on their inputs, by
    # SolverState.all_finite after the dual step, and by the objective's
    # finiteness test.
    with np.errstate(over="ignore", invalid="ignore"):
        t = angular_weights(ds, cells[0].varsigma)
        basis = spectral_basis(ds)
        for lo in range(0, len(cells), size):
            stack = _Cells.of(cells[lo:lo + size])
            stack_ws, stack_outcomes, stack_sweeps = _solve_stack(
                ds, stack, t, basis, cfg, records)
            ws += stack_ws
            outcomes += stack_outcomes
            sweeps += stack_sweeps
    if not single:
        return ws, StackReport(cells=outcomes, iterations=sweeps)
    if isinstance(outcomes[0], SolverAbortError):
        raise outcomes[0]
    return ws[0], outcomes[0]
