"""Matrix norms, shrinkage operators, and angular reconstruction weights.

Pure functions on immutable inputs; every other module composes these. The
norms and shrinkage operators also take a stack of matrices (a leading
axis), with one threshold per matrix, and treat each matrix exactly as they
would alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset, _require_real

DEFAULT_VARSIGMA = 1e-8
# Finite group norms at or above this are exact to rounding when computed
# from squares; smaller ones may have lost entries to underflow.
_TINY_GROUP_NORM = 1e-150
# A matrix whose Frobenius norm is below its SVT threshold by this relative
# margin has every singular value below it: the margin covers the rounding
# of the norm and the backward error of the SVD, about n d eps.
_SVT_ZERO_MARGIN = 1e-8


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


def _per_matrix(mu, k: np.ndarray, what: str, per_entry: bool = False) -> np.ndarray:
    """Thresholds shaped to broadcast over the matrices of ``k``: a scalar,
    one per matrix of a stack, or if ``per_entry`` one per entry of ``k``
    (and then a scalar broadcasts over any ``k``, a vector too)."""
    mu = np.asarray(mu, dtype=float)
    if mu.size and not mu.min() >= 0:  # NaN fails the comparison too
        raise ValueError(f"{what} requires a nonnegative threshold")
    if per_entry and (mu.ndim == 0 or mu.shape == k.shape):
        return mu
    if mu.ndim and mu.shape != k.shape[:-2]:
        raise ValueError(
            f"{what} takes one threshold per matrix{' or per entry' if per_entry else ''}: "
            f"got shape {mu.shape} for input shape {k.shape}"
        )
    return mu[..., None, None]


def _per_stack(values: np.ndarray):
    """A per-matrix reduction: a float for one matrix, the array for a stack."""
    return float(values) if values.ndim == 0 else values


def _at_one_scale(m: np.ndarray):
    """``(m / 2**exp, exp)``, ``2**exp`` just above ``max|m|`` of a finite ``m``:
    no square overflows. An entry below ``max|m|`` by about 2**1074 becomes 0."""
    _, exp = np.frexp(np.abs(m).max())
    return np.ldexp(m, -exp), exp


def _scaled_norm(m: np.ndarray):
    """The Frobenius norm of a finite ``m``, its squares taken at :func:`_at_one_scale`."""
    scaled, exp = _at_one_scale(m)
    return np.ldexp(np.linalg.norm(scaled), exp)


def _group_norms(m: np.ndarray, axis: int) -> np.ndarray:
    """Euclidean norms along ``axis`` (kept, length 1), safe at any finite size.

    ``axis`` is -1 for row norms and -2 for column norms. The safe fallback
    is chosen per matrix of a stack, so one matrix's tiny entries cannot
    change another matrix's bits. The squares may overflow: the caller sets
    whether numpy warns of it.
    """
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
    with np.errstate(over="ignore", under="ignore"):
        return _per_stack(_group_norms(m, axis=-1).sum(axis=(-2, -1)))


def nuclear_norm(m: np.ndarray):
    """Sum of singular values (convex surrogate for rank).

    A float for a matrix, one value per matrix for a stack.
    """
    m = _require_finite(m, "nuclear_norm input")
    return _per_stack(np.linalg.svd(m, compute_uv=False).sum(axis=-1))


def _shrink(k: np.ndarray, mu, out: np.ndarray) -> np.ndarray:
    """``sign(k) * max(|k| - mu, 0)`` written into ``out``, which may be ``k``.

    The arithmetic of :func:`soft_threshold`, one pass per operation. The
    signs are kept in one byte an entry before ``out`` is overwritten, so
    the only temporary is an eighth of ``k``'s bytes.
    """
    sign = np.sign(k, out=np.empty(k.shape, dtype=np.int8), casting="unsafe")
    np.abs(k, out=out)
    np.subtract(out, mu, out=out)
    np.maximum(out, 0.0, out=out)
    return np.multiply(sign, out, out=out)


def soft_threshold(k: np.ndarray, mu, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Entrywise shrinkage ``max(|k| - mu, 0) * sign(k)``.

    ``mu`` may be a nonnegative scalar, an array of per-entry thresholds of
    the same shape as ``k`` (the weighted case needs per-entry values), or
    for a stack of matrices one threshold per matrix. The result goes to
    ``out`` if given (an array of ``k``'s shape, ``k`` itself included).
    """
    k = _require_finite(k, "soft_threshold input")
    mu = _per_matrix(mu, k, "soft_threshold", per_entry=True)
    return _shrink(k, mu, np.empty_like(k) if out is None else out)


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
    with np.errstate(over="ignore", under="ignore"):
        return _group_shrink(k, mu, axis)


def _group_shrink(k: np.ndarray, mu: np.ndarray, axis: int) -> np.ndarray:
    """The arithmetic of :func:`group_shrink` on a finite ``k``, with ``mu``
    nonnegative and shaped as :func:`_per_matrix` returns it."""
    norms = _group_norms(k, axis - 2)
    shrunk = np.maximum(norms - mu, 0.0)
    return k * np.divide(shrunk, norms, out=np.zeros_like(norms), where=shrunk > 0)


def _svt_decomposed(k: np.ndarray, mu: np.ndarray) -> np.ndarray:
    u, s, vt = np.linalg.svd(k, full_matrices=False)
    s = np.maximum(s - mu[..., 0], 0.0)
    return (u * s[..., None, :]) @ vt


def svt(k: np.ndarray, mu) -> np.ndarray:
    """Singular value thresholding: soft-threshold the spectrum of ``k``.

    Computes the thin SVD ``k = U diag(s) Vt`` and returns
    ``U diag(max(s - mu, 0)) Vt``, the proximal map of ``mu * ||.||_*``. For
    a stack of matrices ``mu`` may hold one threshold per matrix.

    A matrix whose Frobenius norm, an upper bound on its top singular
    value, is below its threshold by :data:`_SVT_ZERO_MARGIN` thresholds
    to exactly zero, so it is not decomposed: the result is the +0.0 the
    SVD would give. Only the other matrices of a stack are decomposed.
    """
    k = _require_finite(k, "svt input")
    mu = _per_matrix(mu, k, "svt")
    with np.errstate(over="ignore", under="ignore"):
        fro = np.sqrt(np.einsum("...ij,...ij->...", k, k))
    # an overflowing norm is no bound, and one below _TINY_GROUP_NORM may
    # have lost entries whose squares underflowed
    zero = (_TINY_GROUP_NORM <= fro) & (fro < mu[..., 0, 0] * (1.0 - _SVT_ZERO_MARGIN))
    if not zero.any():
        return _svt_decomposed(k, mu)
    out = np.zeros_like(k)
    if not zero.all():
        live = ~zero
        out[live] = _svt_decomposed(k[live], np.broadcast_to(mu, live.shape + (1, 1))[live])
    return out


def angular_weights(ds: Dataset, varsigma: float = DEFAULT_VARSIGMA) -> AngularWeights:
    """Pairwise weights ``1 / (|cos theta_ij| + varsigma)`` between samples.

    The floor ``varsigma`` is applied in every entry, which keeps the map
    continuous in the data and caps the weight of orthogonal pairs at
    ``1/varsigma``. Zero columns have no direction and are rejected.
    """
    _require_real("varsigma", varsigma, 0, strict=True)
    # each column scaled by an exact power of two near its largest entry, so
    # the squares neither underflow nor overflow; cosines are scale-free
    _, exp = np.frexp(np.abs(ds.matrix).max(axis=0))
    x = np.ldexp(ds.matrix, -exp)
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
