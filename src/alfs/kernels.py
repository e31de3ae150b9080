"""Matrix norms, shrinkage operators, and angular reconstruction weights.

Pure functions on immutable inputs; every other module composes these. The
norms and shrinkage operators also take a stack of matrices (a leading
axis), with one threshold per matrix, and treat each matrix exactly as they
would alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset

DEFAULT_VARSIGMA = 1e-8
# Finite group norms at or above this are exact to rounding when computed
# from squares; smaller ones may have lost entries to underflow.
_TINY_GROUP_NORM = 1e-150


@dataclass(frozen=True)
class AngularWeights:
    """Symmetric n x n penalty weights between sample pairs.

    Entry (i, j) is ``1 / (|cos theta_ij| + varsigma)`` where ``theta_ij`` is
    the angle between sample columns i and j: near-collinear samples (which
    can reconstruct each other) get weight ~1, near-orthogonal ones get a
    weight up to ``1/varsigma``.
    """

    t: np.ndarray
    varsigma: float


def _require_finite(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError(f"{what} contains non-finite entries")
    return m


def _per_matrix(mu, k: np.ndarray, what: str) -> np.ndarray:
    """Thresholds shaped to broadcast over the matrices of ``k``: a scalar,
    or one per matrix of a stack."""
    mu = np.asarray(mu, dtype=float)
    if (mu < 0).any():
        raise ValueError(f"{what} requires a nonnegative threshold")
    if mu.ndim and mu.shape != k.shape[:-2]:
        raise ValueError(
            f"{what} takes one threshold per matrix: got shape {mu.shape} "
            f"for input shape {k.shape}"
        )
    return mu[..., None, None]


def _per_stack(values: np.ndarray):
    """A per-matrix reduction: a float for one matrix, the array for a stack."""
    return float(values) if values.ndim == 0 else values


def _group_norms(m: np.ndarray, axis: int) -> np.ndarray:
    """Euclidean norms along ``axis`` (kept, length 1), safe at any finite size.

    ``axis`` is -1 for row norms and -2 for column norms. The safe fallback
    is chosen per matrix of a stack, so one matrix's tiny entries cannot
    change another matrix's bits.
    """
    with np.errstate(over="ignore", under="ignore"):
        norms = np.sqrt((m * m).sum(axis=axis, keepdims=True))
    if norms.size and not _TINY_GROUP_NORM <= norms.min() <= norms.max() < np.inf:
        # squares of entries below ~1e-154 underflow and above ~1e154
        # overflow; hypot does neither
        exact = (norms.min(axis=(-2, -1)) >= _TINY_GROUP_NORM) & (
            norms.max(axis=(-2, -1)) < np.inf
        )
        safe = np.hypot.reduce(m, axis=axis, keepdims=True)
        norms = np.where(exact[..., None, None], norms, safe)
    return norms


def l21_norm(m: np.ndarray):
    """Sum of the Euclidean norms of the rows (row-sparsity-inducing norm).

    A float for a matrix, one value per matrix for a stack.
    """
    m = _require_finite(m, "l21_norm input")
    return _per_stack(_group_norms(m, axis=-1).sum(axis=(-2, -1)))


def nuclear_norm(m: np.ndarray):
    """Sum of singular values (convex surrogate for rank).

    A float for a matrix, one value per matrix for a stack.
    """
    m = _require_finite(m, "nuclear_norm input")
    return _per_stack(np.linalg.svd(m, compute_uv=False).sum(axis=-1))


def soft_threshold(k: np.ndarray, mu) -> np.ndarray:
    """Entrywise shrinkage ``max(|k| - mu, 0) * sign(k)``.

    ``mu`` may be a nonnegative scalar, an array of per-entry thresholds of
    the same shape as ``k`` (the weighted case needs per-entry values), or
    for a stack of matrices one threshold per matrix.
    """
    k = _require_finite(k, "soft_threshold input")
    mu = np.asarray(mu, dtype=float)
    if (mu < 0).any():
        raise ValueError("soft_threshold requires nonnegative thresholds")
    if mu.ndim and mu.shape == k.shape[:-2]:
        mu = mu[..., None, None]
    elif mu.ndim and mu.shape != k.shape:
        raise ValueError(
            f"threshold shape {mu.shape} does not match input shape {k.shape}"
        )
    return np.sign(k) * np.maximum(np.abs(k) - mu, 0.0)


def group_shrink(k: np.ndarray, mu, axis: int) -> np.ndarray:
    """Group shrinkage: scale each group of ``k`` by ``max(1 - mu/||g||, 0)``.

    A group is a row for ``axis=1`` (the norm runs along the row) and a
    column for ``axis=0``. This is the proximal map of ``mu * ||.||_2,1``
    over rows (``axis=1``) or of ``mu * ||.^T||_2,1`` (``axis=0``): groups
    with norm at most ``mu`` become exactly zero. For a stack of matrices
    the axes are those of each matrix and ``mu`` may hold one threshold per
    matrix.
    """
    k = _require_finite(k, "group_shrink input")
    mu = _per_matrix(mu, k, "group_shrink")
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 (columns) or 1 (rows), got {axis}")
    norms = _group_norms(k, axis - 2)
    shrunk = np.maximum(norms - mu, 0.0)
    return k * np.divide(shrunk, norms, out=np.zeros_like(norms), where=shrunk > 0)


def svt(k: np.ndarray, mu) -> np.ndarray:
    """Singular value thresholding: soft-threshold the spectrum of ``k``.

    Computes the thin SVD ``k = U diag(s) Vt`` and returns
    ``U diag(max(s - mu, 0)) Vt``, the proximal map of ``mu * ||.||_*``. For
    a stack of matrices ``mu`` may hold one threshold per matrix.
    """
    k = _require_finite(k, "svt input")
    mu = _per_matrix(mu, k, "svt")
    u, s, vt = np.linalg.svd(k, full_matrices=False)
    s = np.maximum(s - mu[..., 0], 0.0)
    return (u * s[..., None, :]) @ vt


def angular_weights(ds: Dataset, varsigma: float = DEFAULT_VARSIGMA) -> AngularWeights:
    """Pairwise weights ``1 / (|cos theta_ij| + varsigma)`` between samples.

    The floor ``varsigma`` is applied in every entry, which keeps the map
    continuous in the data and caps the weight of orthogonal pairs at
    ``1/varsigma``. Zero columns have no direction and are rejected.
    """
    if varsigma <= 0:
        raise ValueError("varsigma must be positive")
    x = ds.matrix
    norms = np.linalg.norm(x, axis=0)
    zero = np.where(norms == 0.0)[0]
    if zero.size:
        raise ValueError(
            f"angular weights undefined: zero column(s) at {zero.tolist()}"
        )
    cos = (x.T @ x) / np.outer(norms, norms)
    np.clip(cos, -1.0, 1.0, out=cos)
    t = 1.0 / (np.abs(cos) + varsigma)
    t = 0.5 * (t + t.T)  # exact symmetry despite rounding
    t.setflags(write=False)
    return AngularWeights(t=t, varsigma=float(varsigma))
