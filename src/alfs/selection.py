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
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset, SelectionRequest, _memo

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


def _ranked(scores: np.ndarray) -> tuple[tuple[int, ...], tuple[float, ...]]:
    # stable sort on negated scores: equal scores keep ascending index order
    order = np.argsort(-scores, kind="stable")
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
    """Rank samples by row norms and features by column norms of W."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise ValueError("w must be a matrix")
    n, d = w.shape
    req.check_against(n, d)
    row_scores = np.linalg.norm(w, axis=1)
    col_scores = np.linalg.norm(w, axis=0)
    sample_ranking, sample_scores = _ranked(row_scores)
    feature_ranking, feature_scores = _ranked(col_scores)
    return SelectionResult(
        sample_ranking=sample_ranking,
        sample_scores=sample_scores,
        feature_ranking=feature_ranking,
        feature_scores=feature_scores,
        m=req.m,
        r=req.r,
        low_score_warning=_low_scores_selected(sample_scores, feature_scores, req),
    )


def _index_set(indices: Iterable[int], bound: int, what: str) -> list[int]:
    out = sorted(set(int(i) for i in indices))
    if not out:
        raise ValueError(f"{what} index set is empty")
    if out[0] < 0 or out[-1] >= bound:
        raise ValueError(f"{what} index out of range 0..{bound - 1}: {out}")
    return out


def _cur_core(
    ds: Dataset, samples: list[int], features: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """C, the core ``U = C+ X R+``, R and ``||X - C U R||_F^2`` at checked indices.

    ``C+`` and ``R+`` are memoized on ``ds`` per index set.
    """
    x = ds.matrix
    c = x[:, samples]
    r = x[features, :]
    c_pinv = _memo(ds, ("pinv_c", tuple(samples)), lambda: np.linalg.pinv(c, rcond=PINV_RCOND))
    r_pinv = _memo(ds, ("pinv_r", tuple(features)), lambda: np.linalg.pinv(r, rcond=PINV_RCOND))
    u = c_pinv @ x @ r_pinv
    resid = x - c @ u @ r
    return c, u, r, float((resid * resid).sum())


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
    s = _index_set(samples, ds.n_samples, "sample")
    f = _index_set(features, ds.n_features, "feature")
    return _cur_core(ds, s, f)[3]


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
