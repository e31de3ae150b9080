"""Comparison methods: random sampling, variance feature selection, and
leverage-score randomized CUR.

All randomness flows through a caller-provided seed, so every routine is
reproducible and concurrent runs with distinct seeds are independent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, SelectionRequest, _index_set, _require_integer, _thin_svd
from .kernels import _at_one_scale
from .selection import _cur_core

# err must dominate the best rank-q SVD error; slack for float rounding only.
_LOWER_BOUND_RTOL = 1e-9


@dataclass(frozen=True)
class RcurConfig:
    """Randomized CUR settings.

    ``k`` is the target rank whose SVD error anchors the quality bound,
    ``m``/``r`` the requested column/row counts. With-replacement
    sampling (the default) may return slightly fewer distinct indices than
    requested; ``exact_counts=True`` samples without replacement instead,
    for harnesses that need fixed budgets.
    """

    k: int
    m: int
    r: int
    seed: int = 0
    exact_counts: bool = False

    def __post_init__(self) -> None:
        for name in ("k", "m", "r"):
            _require_integer(name, getattr(self, name), 1)
        _require_integer("seed", self.seed, 0)


@dataclass(frozen=True)
class RcurResult:
    """Selected columns/rows, the optimal core, and both squared errors."""

    c: np.ndarray
    u: np.ndarray
    r: np.ndarray
    column_indices: tuple[int, ...]
    row_indices: tuple[int, ...]
    err: float
    svd_err_k: float


def _matrix_rank(ds: Dataset) -> int:
    """Numerical rank of the data matrix by numpy's default rule: the
    singular values above ``s[0] * max(d, n) * eps``."""
    s = _thin_svd(ds)[1]
    return int((s > s[0] * max(ds.matrix.shape) * np.finfo(float).eps).sum())


def random_sampling(n: int, m: int, seed: int) -> tuple[int, ...]:
    """m distinct uniform indices out of 0..n-1, sorted; deterministic per seed."""
    n = _require_integer("n", n, 1)
    m = _require_integer("m", m, 1, n)
    rng = np.random.default_rng(_require_integer("seed", seed, 0))
    picks = rng.choice(n, size=m, replace=False)
    return tuple(sorted(int(i) for i in picks))


def variance_feature_select(ds: Dataset, r: int) -> tuple[int, ...]:
    """Indices of the r features with largest variance (ties by index), sorted.

    Variances that overflow, or that fall below the normal range
    (``np.finfo(float).tiny``) for a feature whose entries are not all
    equal, are ranked at one power-of-two scale instead.
    """
    r = _require_integer("feature budget r", r, 1, ds.n_features)
    m = ds.matrix
    with np.errstate(over="ignore", invalid="ignore"):
        variances = m.var(axis=1)
    low = variances < np.finfo(float).tiny
    # overflowed to inf or to inf - inf, or the squares of a varying row underflowed
    if not np.isfinite(variances).all() or not (m[low] == m[low, :1]).all():
        variances = _at_one_scale(m)[0].var(axis=1)
    order = np.argsort(-variances, kind="stable")
    return tuple(sorted(int(i) for i in order[:r]))


def leverage_scores(ds: Dataset, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared top-k singular-vector row norms: (column scores, row scores).

    Column score j sums the squares of row j of the top-k right singular
    vectors, row score i likewise from the left ones; each vector sums to k.
    Warns when sigma_k is (near-)degenerate with sigma_{k+1}, where the
    scores are not uniquely determined.
    """
    k = _require_integer("k", k, 1, min(ds.matrix.shape))
    u, s, vt = _thin_svd(ds)
    if k < s.size and s[0] > 0 and (s[k - 1] - s[k]) <= 1e-10 * s[0]:
        warnings.warn(
            f"leverage scores for k={k} are not unique: sigma_k ~= sigma_k+1",
            RuntimeWarning,
            stacklevel=2,
        )
    col_scores = (vt[:k, :] ** 2).sum(axis=0)
    row_scores = (u[:, :k] ** 2).sum(axis=1)
    return col_scores, row_scores


def cur_from_indices(
    ds: Dataset,
    column_indices: Sequence[int],
    row_indices: Sequence[int],
    k: int,
) -> RcurResult:
    """Deterministic CUR at given index sets with the pseudoinverse-optimal core.

    Duplicate indices are dropped; an empty set, an index outside the
    matrix or a ``k`` outside 1..min(d, n) raises ValueError.
    """
    cols = _index_set(column_indices, ds.n_samples, "column")
    rows = _index_set(row_indices, ds.n_features, "row")
    k = _require_integer("k", k, 1, min(ds.matrix.shape))
    c, u, r, err = _cur_core(ds, cols, rows)
    s = _thin_svd(ds)[1]
    svd_err_k = float((s[k:] ** 2).sum())
    q = min(len(cols), len(rows))
    svd_err_q = float((s[q:] ** 2).sum())
    if err < svd_err_q * (1.0 - _LOWER_BOUND_RTOL) - 1e-12:
        raise RuntimeError(
            f"CUR error {err} fell below the rank-{q} SVD lower bound {svd_err_q}"
        )
    return RcurResult(
        c=c,
        u=u,
        r=r,
        column_indices=cols,
        row_indices=rows,
        err=err,
        svd_err_k=svd_err_k,
    )


def _rcur_indices(ds: Dataset, cfg: RcurConfig) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The distinct column and row indices :func:`rcur` draws, each sorted.

    Forms no CUR factor, so a caller that needs only the selection (the
    benchmark harness) leaves no per-set entry in the memo.
    """
    n, d = ds.n_samples, ds.n_features
    SelectionRequest(cfg.m, cfg.r).check_against(n, d)
    rank = _matrix_rank(ds)
    if cfg.k >= rank:
        raise ValueError(f"target rank k={cfg.k} must be below rank(X)={rank}")
    col_scores, row_scores = leverage_scores(ds, cfg.k)
    if col_scores.sum() <= 0 or row_scores.sum() <= 0:
        raise ValueError("degenerate all-zero leverage scores")
    p_col = col_scores / col_scores.sum()
    p_row = row_scores / row_scores.sum()
    rng = np.random.default_rng(cfg.seed)
    replace = not cfg.exact_counts
    cols = rng.choice(n, size=cfg.m, replace=replace, p=p_col)
    rows = rng.choice(d, size=cfg.r, replace=replace, p=p_row)
    return tuple(sorted(set(cols.tolist()))), tuple(sorted(set(rows.tolist())))


def rcur(ds: Dataset, cfg: RcurConfig) -> RcurResult:
    """Leverage-score randomized CUR.

    Columns are drawn with probability proportional to their top-k leverage
    scores, rows likewise (column draws first, then rows, from one seeded
    generator). With replacement the realized counts can fall below the
    requested ones after deduplication.
    """
    cols, rows = _rcur_indices(ds, cfg)
    return cur_from_indices(ds, cols, rows, cfg.k)
