"""Evaluation harness: select, reveal labels, classify, report curves.

The protocol follows the joint-selection evaluation recipe: a method sees
only the unlabeled training matrix and picks samples (and possibly
features); labels are then revealed for the selected samples only, a fixed
deterministic 1-NN classifier is trained on them, and test accuracy is
recorded per budget over repeated trials. Curves come in two styles: over
sample budgets (classifying in the full feature space) or over feature
budgets with a fixed sample budget (classifying in the selected subspace).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .baselines import (
    RcurConfig,
    _matrix_rank,
    _rcur_indices,
    random_sampling,
    variance_feature_select,
)
from .data import Dataset, SelectionRequest, _require_integer, _require_real
from .selection import SelectionResult, rank_and_select, reconstruction_error
from .solver import RegularizationParams, SolverConfig, solve

GRID_DEFAULT = (0.1, 1.0, 10.0, 100.0)
GRID_HOLDOUT_FRACTION = 0.2
GRID_MIN_LABELED_FOR_HOLDOUT = 10

# Bytes of one block of a 1-NN pass's distances (test columns x selected
# training columns); the test set is split into blocks that fit.
KNN_BLOCK_BYTES = 2**17

SAMPLE_AXIS_METHODS = ("alfs", "random", "rcur")
FEATURE_AXIS_METHODS = (
    "alfs",
    "rcur",
    "variance+random",
    "variance+alfs",
    "variance+rcur",
)


class BenchMethodError(RuntimeError):
    """Every cell of a benchmark run failed; partial curve attached."""

    def __init__(self, message: str, partial: Optional["AccuracyCurve"] = None):
        super().__init__(message)
        self.partial = partial


class GridSearchError(RuntimeError):
    """All grid combinations failed; per-combination diagnostics attached."""

    def __init__(self, message: str, failures: list[tuple["RegularizationParams", str]]):
        super().__init__(message)
        self.failures = failures


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark run: a method, budgets and repeats, scored by 1-NN.

    Repeat t uses seed ``seed + t``, so extending ``repeats`` never
    reshuffles earlier trials. ``feature_budgets`` empty means a curve over
    sample budgets in the full feature space; non-empty means a curve over
    feature budgets (then ``sample_budgets`` must hold exactly one value).
    """

    method: str
    sample_budgets: tuple[int, ...]
    feature_budgets: tuple[int, ...] = ()
    repeats: int = 10
    seed: int = 0
    alfs_params: RegularizationParams = field(default_factory=RegularizationParams)
    alfs_grid: Optional[tuple[float, ...]] = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    rcur_rank: Optional[int] = None

    def __post_init__(self) -> None:
        _require_integer("repeats", self.repeats, 1)
        _require_integer("seed", self.seed, 0)
        if self.rcur_rank is not None:
            _require_integer("rcur_rank", self.rcur_rank, 1)
        if not self.sample_budgets:
            raise ValueError("sample_budgets must not be empty")
        for budget in (*self.sample_budgets, *self.feature_budgets):
            _require_integer("each budget", budget, 1)
        for name in ("sample_budgets", "feature_budgets"):
            budgets = getattr(self, name)
            if len(set(budgets)) != len(budgets):
                raise ValueError(f"{name} must not repeat a budget, got {list(budgets)}")
        if self.alfs_grid is not None and not self.alfs_grid:
            raise ValueError("alfs_grid must not be empty; use None for no grid")
        for value in self.alfs_grid or ():
            _require_real("each alfs_grid value", value, 0)
        if self.feature_budgets and len(self.sample_budgets) != 1:
            raise ValueError(
                "a feature-budget curve needs exactly one sample budget"
            )
        axis_methods = (
            FEATURE_AXIS_METHODS if self.feature_budgets else SAMPLE_AXIS_METHODS
        )
        if self.method not in axis_methods:
            raise ValueError(
                f"method {self.method!r} not valid for this curve style; "
                f"expected one of {axis_methods}"
            )
        if self.method == "variance+rcur":
            # r kept features have rank at most r
            low = 2 if self.rcur_rank is None else self.rcur_rank + 1
            if min(self.feature_budgets) < low:
                raise ValueError(
                    f"variance+rcur needs feature budgets >= {low}, got "
                    f"{min(self.feature_budgets)}: randomized CUR needs a target "
                    "rank below the rank of the kept features"
                )

    def check_against(self, n_samples: int, n_features: int) -> None:
        """Every budget must fit a training set of this size."""
        for m in self.sample_budgets:
            _require_integer("sample budget m", m, 1, n_samples)
        for r in self.feature_budgets:
            _require_integer("feature budget r", r, 1, n_features)


@dataclass(frozen=True)
class AccuracyCurve:
    """Mean accuracy per budget plus every per-repeat value.

    ``per_repeat[i][t]`` is the accuracy of repeat t at budget i (None for a
    failed cell); means average the non-None entries.
    """

    method: str
    budget_axis: str
    budgets: tuple[int, ...]
    mean_accuracy: tuple[float, ...]
    per_repeat: tuple[tuple[Optional[float], ...], ...]
    failures: tuple[tuple[int, int, str], ...] = ()


def _nearest_labels(
    train: Dataset,
    test: Dataset,
    selections: Sequence[Sequence[int]],
    features: Optional[Sequence[int]] = None,
) -> list[tuple]:
    """1-NN predictions of every test column, once per selection, in one pass.

    Selection k classifies with the training columns ``selections[k]`` as
    its training set; ``features`` (default: all) are the rows both sets are
    compared on. Squared Euclidean distances to the union of the selected
    columns are accumulated feature by feature in the order of ``features``
    (ascending when all), so every selection sees the same sums. Each test
    column takes the label of the first nearest column in the selection's
    own order: ties go to the lowest index of the selection's training set.

    The test columns are taken in blocks of :data:`KNN_BLOCK_BYTES` of
    distances (one test column if a single one needs more); the pass holds
    three such arrays (the block's distances, one feature's terms and one
    selection's columns of the distances) and two copies of the compared
    training values, never a table of every test column against every
    training column.
    """
    rows = slice(None) if features is None else list(features)
    chosen = [np.asarray(s, dtype=np.intp) for s in selections]
    used = np.zeros(train.n_samples, dtype=bool)
    for s in chosen:
        used[s] = True
    union = np.flatnonzero(used)
    # where[k][i]: the distance column that holds training column chosen[k][i]
    column_of = np.cumsum(used) - 1
    where = [column_of[s] for s in chosen]
    queries = test.matrix[rows]
    n_test = test.n_samples
    # one row per test column of the block, so every step runs along a row
    height = max(1, min(n_test, KNN_BLOCK_BYTES // (8 * len(union))))
    sums = np.empty((height, len(union)))
    terms = np.empty_like(sums)
    # test minus training values as the product [q, 1] @ [1; -p]: each entry
    # is q*1 + 1*(-p), a sum of two exact products, so it is the rounded
    # q - p; a matrix product forms it about three times as fast as numpy's
    # broadcast subtraction
    pair = np.ones((height, 2))
    ones_and_negated = np.empty((len(queries), 2, len(union)))
    ones_and_negated[:, 0] = 1.0
    np.negative(train.matrix[rows][:, union], out=ones_and_negated[:, 1])
    nearest = [np.empty(n_test, dtype=np.intp) for _ in chosen]
    for start in range(0, n_test, height):
        block = queries[:, start:start + height]
        stop = start + block.shape[1]
        dist, term, left = sums[:stop - start], terms[:stop - start], pair[:stop - start]
        dist.fill(0.0)
        for right, query_row in zip(ones_and_negated, block):
            left[:, 0] = query_row
            np.matmul(left, right, out=term)
            np.multiply(term, term, out=term)
            dist += term
        for found, at in zip(nearest, where):
            # argmin returns the first minimum: the lowest selection index
            found[start:stop] = np.argmin(np.take(dist, at, axis=1), axis=1)
    labels = train.labels
    return [tuple(labels[j] for j in s[found].tolist()) for s, found in zip(chosen, nearest)]


def _accuracy(predictions: tuple, labels: tuple) -> float:
    hits = sum(1 for p, y in zip(predictions, labels) if p == y)
    return hits / len(labels)


def knn_classify(train: Dataset, test: Dataset) -> tuple[tuple, Optional[float]]:
    """1-NN: each test column takes the label of its nearest training column.

    Distances are Euclidean, summed feature by feature in ascending feature
    order, and ties break by ascending training index. This is the pass
    :func:`run_curve` scores its cells with, for a single selection of every
    training column, so memory is O(d * (n_train + n_test)) plus the
    bounded blocks of :data:`KNN_BLOCK_BYTES`. Returns the predictions and
    the accuracy (None when the test set is unlabeled).
    """
    if train.labels is None:
        raise ValueError("training set has no labels")
    if train.n_features != test.n_features:
        raise ValueError("train and test feature dimensions differ")
    [predictions] = _nearest_labels(train, test, [range(train.n_samples)])
    if test.labels is None:
        return predictions, None
    return predictions, _accuracy(predictions, test.labels)


def _auto_rcur_rank(ds: Dataset) -> int:
    rank = _matrix_rank(ds)
    if rank < 2:
        raise ValueError("matrix rank < 2: randomized CUR needs k < rank")
    return min(max(1, min(ds.matrix.shape) // 2), rank - 1)


class _MethodRunner:
    """Per-run selector with caches for the deterministic solves and the
    variance-restricted datasets (whose memoized factorizations then serve
    every repeat)."""

    def __init__(
        self,
        unlabeled: Dataset,
        spec: BenchSpec,
        params: Optional[RegularizationParams] = None,
    ):
        self.unlabeled = unlabeled
        self.spec = spec
        self.params = params if params is not None else spec.alfs_params
        self._alfs_cache: dict[Optional[tuple[int, ...]], np.ndarray] = {}
        self._variance_cache: dict[int, tuple[tuple[int, ...], Dataset]] = {}

    def _alfs_w(self, ds: Dataset, features: Optional[tuple[int, ...]]) -> np.ndarray:
        if features not in self._alfs_cache:
            self._alfs_cache[features], _ = solve(ds, self.params, self.spec.solver,
                                                   records=False)
        return self._alfs_cache[features]

    def select(
        self, m: int, r: Optional[int], seed: int
    ) -> tuple[tuple[int, ...], Optional[tuple[int, ...]]]:
        """Sample indices (size m) and feature indices (size r or None).

        ``variance+S`` keeps the r features of largest variance, then runs
        sampler S on them with no feature budget.
        """
        method = self.spec.method
        ds = self.unlabeled
        variance_features = None
        if method.startswith("variance+"):
            if r is None:
                raise ValueError(f"{method!r} needs a feature budget")
            if r not in self._variance_cache:
                kept = variance_feature_select(ds, r)
                self._variance_cache[r] = kept, ds.restrict(features=list(kept))
            variance_features, ds = self._variance_cache[r]
            method, r = method.split("+", 1)[1], None
        n, d = ds.n_samples, ds.n_features

        if method == "random":
            samples, features = random_sampling(n, m, seed), None
        elif method == "alfs":
            w = self._alfs_w(ds, variance_features)
            sel = rank_and_select(w, SelectionRequest(m, r or d))
            samples, features = sel.selected_samples, sel.selected_features
        elif method == "rcur":
            k = self.spec.rcur_rank or _auto_rcur_rank(ds)
            cfg = RcurConfig(k=k, m=m, r=r or d, seed=seed, exact_counts=True)
            samples, features = _rcur_indices(ds, cfg)
        else:
            raise ValueError(f"unknown method {self.spec.method!r}")
        if variance_features is not None:
            return samples, variance_features
        return samples, features if r else None


def run_curve(train: Dataset, test: Dataset, spec: BenchSpec) -> AccuracyCurve:
    """Accuracy curve of one method over budgets with repeated trials.

    The method sees only the unlabeled training matrix; labels are revealed
    for selected samples only. Cells that fail keep the rest of the curve
    alive and are reported in ``failures``; if every cell fails a
    :class:`BenchMethodError` is raised.

    Cells run in two phases. First every (budget, repeat) cell selects; a
    selection that fails fails its cell. Then the distinct selections are
    grouped by feature set (one set per feature budget, or all features on
    a sample curve), and one 1-NN pass over the test columns scores each
    group: a selection that recurs (every repeat at the full budget) is
    scored once, and a pass that fails fails exactly the cells it scores.
    The pass sums squared distances feature by feature in the feature
    set's order, breaks ties by the lowest index in the selection's own
    order, and holds at most three blocks of :data:`KNN_BLOCK_BYTES`,
    never a table of every test column against every training column.
    """
    if train.labels is None:
        raise ValueError("training set has no labels to reveal")
    if test.labels is None:
        raise ValueError("test set has no labels to score against")
    spec.check_against(train.n_samples, train.n_features)

    feature_axis = bool(spec.feature_budgets)
    budgets = spec.feature_budgets if feature_axis else spec.sample_budgets
    fixed_m = spec.sample_budgets[0]

    unlabeled = train.without_labels()
    params = spec.alfs_params
    if spec.alfs_grid is not None and "alfs" in spec.method:
        # one grid search per curve: labels of the protocol's revealed
        # samples score the candidates, the winner drives every cell
        protocol = GridProtocol(
            m=fixed_m,
            r=max(spec.feature_budgets) if feature_axis else None,
            seed=spec.seed,
        )
        params = grid_search(
            train,
            protocol,
            grid=spec.alfs_grid,
            base_params=spec.alfs_params,
            solver_cfg=spec.solver,
        ).best_params
    runner = _MethodRunner(unlabeled, spec, params)

    # phase 1: every cell's selection, or the reason it has none
    cells = [(budget, t) for budget in budgets for t in range(spec.repeats)]
    chosen: dict[tuple[int, int], tuple] = {}
    failed: dict[tuple[int, int], str] = {}
    for budget, t in cells:
        m = fixed_m if feature_axis else budget
        r = budget if feature_axis else None
        try:
            chosen[budget, t] = runner.select(m, r, spec.seed + t)
        except Exception as exc:  # a failed cell must not kill the curve
            failed[budget, t] = f"{type(exc).__name__}: {exc}"

    # phase 2: one 1-NN pass per feature set scores its distinct selections
    groups: dict[Optional[tuple[int, ...]], dict[tuple[int, ...], None]] = {}
    for samples, feats in chosen.values():
        groups.setdefault(feats, {})[samples] = None
    accuracy: dict[tuple, float] = {}
    for feats, selections in groups.items():
        try:
            predicted = _nearest_labels(train, test, list(selections), feats)
        except Exception as exc:  # fails the cells this pass scores, no others
            for cell, (_, cell_feats) in chosen.items():
                if cell_feats == feats:
                    failed[cell] = f"{type(exc).__name__}: {exc}"
            continue
        for samples, predictions in zip(selections, predicted):
            accuracy[samples, feats] = _accuracy(predictions, test.labels)

    per_repeat: dict[int, list[Optional[float]]] = {b: [] for b in budgets}
    for budget, t in cells:
        per_repeat[budget].append(accuracy.get(chosen.get((budget, t))))
    failures = [(budget, t, failed[budget, t]) for budget, t in cells if (budget, t) in failed]

    kept = {b: [v for v in per_repeat[b] if v is not None] for b in budgets}
    empty = [b for b in budgets if not kept[b]]
    curve = AccuracyCurve(
        method=spec.method,
        budget_axis="features" if feature_axis else "samples",
        budgets=tuple(budgets),
        mean_accuracy=() if empty else tuple(sum(kept[b]) / len(kept[b]) for b in budgets),
        per_repeat=tuple(tuple(per_repeat[b]) for b in budgets),
        failures=tuple(failures),
    )
    if empty:
        raise BenchMethodError(
            f"method {spec.method!r} failed for every repeat at budget {empty[0]}: "
            f"{failures[:3]}",
            partial=curve,
        )
    return curve


def write_curves_csv(curves: Sequence[AccuracyCurve], path: str | Path) -> None:
    """Emit one row per (method, budget, repeat); failed cells leave the
    accuracy field empty."""
    path = Path(path)
    lines = ["method,budget,repeat,accuracy"]
    for curve in curves:
        for i, budget in enumerate(curve.budgets):
            for t, acc in enumerate(curve.per_repeat[i]):
                value = "" if acc is None else repr(acc)
                lines.append(f"{curve.method},{budget},{t},{value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class GridProtocol:
    """How grid candidates are scored.

    With labels available and a revealed set of at least
    ``GRID_MIN_LABELED_FOR_HOLDOUT`` samples, a holdout of the share
    ``GRID_HOLDOUT_FRACTION`` of the revealed labels, drawn with ``seed``, is
    classified by 1-NN and accuracy is the score. Otherwise the score is the
    negated reconstruction error of the selected subsets (fully unsupervised).
    """

    m: int
    r: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        # m and r are checked where grid_search builds its SelectionRequest
        _require_integer("seed", self.seed, 0)


@dataclass
class GridSearchResult:
    best_params: RegularizationParams
    best_score: float
    scores: list[tuple[RegularizationParams, Optional[float]]]
    n_solver_calls: int
    failures: list[tuple[RegularizationParams, str]]


def _default_grid_score(
    train: Dataset,
    unlabeled: Dataset,
    protocol: GridProtocol,
    sel: SelectionResult,
) -> float:
    """Holdout 1-NN accuracy on ``train``'s labels, or the negated
    reconstruction error on ``unlabeled``, the grid's label-free dataset."""
    samples = list(sel.selected_samples)
    features = (
        list(sel.selected_features)
        if protocol.r is not None
        else list(range(train.n_features))
    )
    if train.labels is not None and len(samples) >= GRID_MIN_LABELED_FOR_HOLDOUT:
        rng = np.random.default_rng(protocol.seed)
        perm = rng.permutation(len(samples))
        n_hold = max(1, int(round(GRID_HOLDOUT_FRACTION * len(samples))))
        hold = [samples[i] for i in perm[:n_hold]]
        fit = [samples[i] for i in perm[n_hold:]]
        fit_ds = train.restrict(samples=fit, features=features)
        hold_ds = train.restrict(samples=hold, features=features)
        _, acc = knn_classify(fit_ds, hold_ds)
        assert acc is not None
        return acc
    return -reconstruction_error(unlabeled, samples, features)


def grid_search(
    train: Dataset,
    protocol: GridProtocol,
    grid: Sequence[float] = GRID_DEFAULT,
    gamma: Optional[float] = None,
    base_params: RegularizationParams = RegularizationParams(),
    solver_cfg: SolverConfig = SolverConfig(),
    score_fn: Optional[Callable[[Dataset, RegularizationParams, SelectionResult], float]] = None,
) -> GridSearchResult:
    """Best (alpha, beta, eta) over the grid with gamma held fixed.

    ``gamma`` defaults to ``base_params.gamma``.

    Iterates alpha-major (alpha outermost, then beta, then eta); ties keep
    the first-encountered combination. All combinations are solved by one
    stacked :func:`solve` call; each counts as one solver invocation in the
    result. ``score_fn`` overrides the scoring protocol (higher is better).
    A budget the data cannot hold raises ValueError before any solve.
    """
    if not grid:
        raise ValueError("grid must not be empty")
    if gamma is not None:
        base_params = replace(base_params, gamma=gamma)
    unlabeled = train.without_labels()
    req_r = protocol.r if protocol.r is not None else unlabeled.n_features
    req = SelectionRequest(protocol.m, req_r)
    req.check_against(unlabeled.n_samples, unlabeled.n_features)
    cells = [replace(base_params, alpha=alpha, beta=beta, eta=eta)
             for alpha in grid for beta in grid for eta in grid]
    try:
        ws, report = solve(unlabeled, cells, solver_cfg, records=False)
        solved = zip(ws, report.cells)
    except Exception as exc:  # nothing could be solved: every cell fails alike
        solved = [(None, exc)] * len(cells)
    best: Optional[tuple[RegularizationParams, float]] = None
    scores: list[tuple[RegularizationParams, Optional[float]]] = []
    failures: list[tuple[RegularizationParams, str]] = []
    for params, (w, outcome) in zip(cells, solved):
        try:
            if w is None:
                raise outcome
            sel = rank_and_select(w, req)
            if score_fn is not None:
                score = score_fn(train, params, sel)
            else:
                score = _default_grid_score(train, unlabeled, protocol, sel)
        except Exception as exc:
            failures.append((params, f"{type(exc).__name__}: {exc}"))
            scores.append((params, None))
            continue
        scores.append((params, score))
        if best is None or score > best[1]:
            best = (params, score)
    if best is None:
        raise GridSearchError(
            f"all {len(scores)} grid combinations failed", failures
        )
    return GridSearchResult(
        best_params=best[0],
        best_score=best[1],
        scores=scores,
        n_solver_calls=len(scores),
        failures=failures,
    )
