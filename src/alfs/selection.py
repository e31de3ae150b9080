"""Ranking and subset extraction from a solved W, plus an exhaustive oracle.

Samples are ranked by the l2 norms of W's rows, features by the norms of its
columns; budget prefixes of those rankings realize the selection. The oracle
enumerates every subset pair on tiny instances and is the ground truth the
convex method is measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .data import Dataset, SelectionRequest, _index_set, _memo
from .kernels import _at_one_scale, _require_finite

LOW_SCORE_THRESHOLD = 1e-6
ORACLE_ENUMERATION_LIMIT = 10**6
PINV_RCOND = 1e-10


@dataclass(frozen=True)
class SelectionResult:
    """Full rankings and the requested budget prefixes.

    ``sample_ranking`` is a permutation of 0..n-1 in non-increasing score
    order (ties by ascending index), ``sample_scores`` the aligned row norms;
    likewise for features/columns. ``low_score_warning`` flags budgets that
    reach below the effective sparsity of W (a selected score < 1e-6).
    """

    sample_ranking: tuple[int, ...]
    sample_scores: tuple[float, ...]
    feature_ranking: tuple[int, ...]
    feature_scores: tuple[float, ...]
    m: int
    r: int
    low_score_warning: bool

    @property
    def selected_samples(self) -> tuple[int, ...]:
        return self.sample_ranking[: self.m]

    @property
    def selected_features(self) -> tuple[int, ...]:
        return self.feature_ranking[: self.r]


def _ranked(keys: np.ndarray, scores: np.ndarray) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Indices by non-increasing ``keys`` and their ``scores``; ``keys``
    order as ``scores`` do, or break their ties."""
    # stable sort on negated keys: equal keys keep ascending index order
    order = np.argsort(-keys, kind="stable")
    return tuple(int(i) for i in order), tuple(float(scores[i]) for i in order)


def _low_scores_selected(
    sample_scores: Sequence[float], feature_scores: Sequence[float], req: SelectionRequest
) -> bool:
    """Whether a budget prefix of the ranked scores holds a score below
    :data:`LOW_SCORE_THRESHOLD`, i.e. reaches below W's effective sparsity."""
    return any(s < LOW_SCORE_THRESHOLD for s in sample_scores[: req.m]) or any(
        s < LOW_SCORE_THRESHOLD for s in feature_scores[: req.r]
    )


def rank_and_select(w: np.ndarray, req: SelectionRequest) -> SelectionResult:
    """Rank samples by row norms and features by column norms of W.

    A W whose squares overflow (entries above about 1e154) is scored at one
    power-of-two scale, where an entry 2**1074 times below its largest is 0,
    and ranked at that scale: scores that overflow once scaled back are
    still told apart. Raises ValueError for a W that is not a matrix, has a
    non-finite entry, or is too small for the budgets.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise ValueError("w must be a matrix")
    _require_finite(w, "w")
    n, d = w.shape
    req.check_against(n, d)
    with np.errstate(over="ignore"):
        row_keys = row_scores = np.linalg.norm(w, axis=1)
        col_keys = col_scores = np.linalg.norm(w, axis=0)
        if not (np.isfinite(row_scores).all() and np.isfinite(col_scores).all()):
            scaled, exp = _at_one_scale(w)
            row_keys, col_keys = np.linalg.norm(scaled, axis=1), np.linalg.norm(scaled, axis=0)
            row_scores, col_scores = np.ldexp(row_keys, exp), np.ldexp(col_keys, exp)
    sample_ranking, sample_scores = _ranked(row_keys, row_scores)
    feature_ranking, feature_scores = _ranked(col_keys, col_scores)
    return SelectionResult(
        sample_ranking=sample_ranking,
        sample_scores=sample_scores,
        feature_ranking=feature_ranking,
        feature_scores=feature_scores,
        m=req.m,
        r=req.r,
        low_score_warning=_low_scores_selected(sample_scores, feature_scores, req),
    )


def _sample_factors(x: np.ndarray, samples: tuple[int, ...]):
    c = x[:, samples]
    return c, np.linalg.pinv(c, rcond=PINV_RCOND) @ x


def _feature_factors(x: np.ndarray, features: tuple[int, ...]):
    r = x[features, :]
    return r, np.linalg.pinv(r, rcond=PINV_RCOND)


def _cur_core(
    ds: Dataset, samples: tuple[int, ...], features: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """C, the core ``U = C+ X R+``, R and ``||X - C U R||_F^2`` at checked indices.

    ``(C, C+ X)`` is memoized on ``ds`` per sample set and ``(R, R+)`` per
    feature set, so a call on known sets costs three small products.
    """
    x = ds.matrix
    c, c_pinv_x = _memo(ds, ("cur_c", samples), _sample_factors, x, samples)
    r, r_pinv = _memo(ds, ("cur_r", features), _feature_factors, x, features)
    # ndarray.dot makes the gemm call of @ at less dispatch cost. The
    # subtraction allocates: the residual's layout, which sets the order the
    # sum adds in, is numpy's choice for x - (C U R), as the @ form had it
    u = c_pinv_x.dot(r_pinv)
    resid = x - c.dot(u).dot(r)
    np.multiply(resid, resid, out=resid)
    return c, u, r, float(np.add.reduce(resid, axis=None))


def reconstruction_error(
    ds: Dataset,
    samples: Sequence[int],
    features: Sequence[int],
) -> float:
    """Squared Frobenius error of the best reconstruction from the subsets.

    With C the selected sample columns and R the selected feature rows, the
    core is the Frobenius-optimal ``U = C+ X R+`` (pseudoinverses with
    singular values below 1e-10 of the largest treated as zero), and the
    error is ``||X - C U R||_F^2``.
    """
    d, n = ds.matrix.shape
    return _cur_core(ds, _index_set(samples, n, "sample"), _index_set(features, d, "feature"))[3]


def oracle_best_subsets(
    ds: Dataset,
    req: SelectionRequest,
) -> tuple[tuple[int, ...], tuple[int, ...], float]:
    """Exhaustive minimizer of :func:`reconstruction_error` over all subsets.

    Feasible only when C(n, m) * C(d, r) <= 1e6; ties broken by the first
    pair in lexicographic (samples-major) enumeration order.
    """
    n, d = ds.n_samples, ds.n_features
    req.check_against(n, d)
    total = math.comb(n, req.m) * math.comb(d, req.r)
    if total > ORACLE_ENUMERATION_LIMIT:
        raise ValueError(
            f"instance too large to enumerate: C({n},{req.m})*C({d},{req.r})"
            f" = {total} > {ORACLE_ENUMERATION_LIMIT}"
        )
    best: tuple[tuple[int, ...], tuple[int, ...], float] | None = None
    for s in combinations(range(n), req.m):
        for f in combinations(range(d), req.r):
            err = reconstruction_error(ds, s, f)
            if best is None or err < best[2]:
                best = (s, f, err)
    assert best is not None
    return best
