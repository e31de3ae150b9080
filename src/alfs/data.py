"""Dataset container, CSV ingestion, and train/test splitting.

The internal orientation is fixed: ``matrix`` is d x n with one feature per
row and one sample per column. CSV files commonly store one sample per row,
so ``load_csv`` defaults to transposing on the way in. Features are never
normalized implicitly; standardization is an explicit, opt-in step.
"""

from __future__ import annotations

import csv
import math
import numbers
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, Optional, Sequence, TypeVar

import numpy as np

ROWS_ARE_SAMPLES = "rows-are-samples"
ROWS_ARE_FEATURES = "rows-are-features"
_ORIENTATIONS = (ROWS_ARE_SAMPLES, ROWS_ARE_FEATURES)

# Array bytes of derived values (pseudoinverses, SVDs) one Dataset keeps;
# past it the least recently used are dropped.
MEMO_BYTES = 16 * 2**20

_T = TypeVar("_T")


def _require_integer(name: str, value, minimum: int) -> None:
    """Reject anything but an integer >= ``minimum``; a bool is rejected too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class Dataset:
    """An immutable d x n data matrix (features x samples) with optional labels.

    Parameters
    ----------
    matrix : ndarray
        Real d x n matrix, one feature per row and one sample per column.
        Copied and frozen on construction; every entry must be finite.
    feature_names : sequence of str, optional
        Length-d names. Auto-generated as ``f0..f{d-1}`` when omitted.
    labels : sequence, optional
        Length-n categorical labels, carried for evaluation only; the solver
        never consults them.
    source : str
        Provenance note (file path, generator description, ...).

    Factorizations of the matrix that the evaluation code needs (the rank,
    SVDs, pseudoinverses of column and row subsets) are memoized on the
    instance, at most ``MEMO_BYTES`` of arrays per dataset.
    """

    matrix: np.ndarray
    feature_names: Optional[tuple[str, ...]] = None
    labels: Optional[tuple] = None
    source: str = "memory"

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float, copy=True)
        if m.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got ndim={m.ndim}")
        d, n = m.shape
        if d < 1 or n < 1:
            raise ValueError(f"matrix must be at least 1x1, got {d}x{n}")
        if not np.all(np.isfinite(m)):
            bad = np.argwhere(~np.isfinite(m))[0]
            raise ValueError(
                f"matrix contains a non-finite entry at ({bad[0]}, {bad[1]})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        # not a field: equality, repr and replace() ignore it
        object.__setattr__(self, "_derived", _Memo())

        names = self.feature_names
        if names is None:
            names = tuple(f"f{i}" for i in range(d))
        else:
            names = tuple(str(f) for f in names)
            if len(names) != d:
                raise ValueError(
                    f"feature_names has length {len(names)}, expected d={d}"
                )
        object.__setattr__(self, "feature_names", names)

        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != n:
                raise ValueError(
                    f"labels has length {len(labels)}, expected n={n}"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def n_features(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[1]

    def without_labels(self) -> "Dataset":
        """Label-free view of the same data (what selection methods receive)."""
        if self.labels is None:
            return self
        return Dataset(self.matrix, self.feature_names, None, self.source)

    def restrict(
        self,
        samples: Optional[Sequence[int]] = None,
        features: Optional[Sequence[int]] = None,
    ) -> "Dataset":
        """Sub-dataset at the given sample columns and/or feature rows.

        Index order is preserved as given; labels follow the sample indices.
        """
        m = self.matrix
        names = self.feature_names
        labels = self.labels
        if features is not None:
            features = list(features)
            m = m[features, :]
            names = tuple(names[i] for i in features)
        if samples is not None:
            samples = list(samples)
            m = m[:, samples]
            if labels is not None:
                labels = tuple(labels[j] for j in samples)
        return Dataset(m, names, labels, self.source)


class _Memo(OrderedDict):
    """Derived values of one matrix, least recently used first; ``nbytes``
    counts the array bytes they hold."""

    nbytes = 0


def _freeze(value) -> int:
    """Make the arrays in ``value`` read-only; return their total bytes."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_freeze(v) for v in value)
    return 0


def _memo(ds: Dataset, key: Hashable, compute: Callable[[], _T]) -> _T:
    """``compute()``, evaluated once per dataset and ``key`` while cached.

    ``compute`` must be a deterministic function of ``ds.matrix``, which is
    read-only, so a cached value never goes stale. Its arrays are made
    read-only. At most ``MEMO_BYTES`` of arrays are kept per dataset, the
    least recently used dropped first; a larger value is not kept.
    """
    cache = ds._derived
    if key in cache:
        cache.move_to_end(key)
        return cache[key][0]
    value = compute()
    size = _freeze(value)
    if size <= MEMO_BYTES:
        while cache.nbytes + size > MEMO_BYTES:
            _, (_, dropped) = cache.popitem(last=False)
            cache.nbytes -= dropped
        cache[key] = (value, size)
        cache.nbytes += size
    return value


@dataclass(frozen=True)
class SelectionRequest:
    """Budgets: keep ``m`` samples and ``r`` features."""

    m: int
    r: int

    def __post_init__(self) -> None:
        _require_integer("m", self.m, 1)
        _require_integer("r", self.r, 1)

    def check_against(self, n_samples: int, n_features: int) -> None:
        if not 1 <= self.m <= n_samples:
            raise ValueError(f"sample budget m={self.m} outside 1..{n_samples}")
        if not 1 <= self.r <= n_features:
            raise ValueError(f"feature budget r={self.r} outside 1..{n_features}")


@dataclass(frozen=True)
class SplitSpec:
    """Random train/test split: ``n_train`` columns to train, rest to test."""

    n_train: int
    seed: int = 0


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostics from :func:`validate`; empty lists mean a clean dataset."""

    zero_columns: tuple[int, ...]
    zero_variance_features: tuple[int, ...]
    duplicate_columns: tuple[tuple[int, int], ...]

    @property
    def is_clean(self) -> bool:
        return not (
            self.zero_columns or self.zero_variance_features or self.duplicate_columns
        )


def _parse_cell(text: str, line_no: int, col_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"cell at line {line_no}, column {col_no} is not numeric: {text!r}"
        ) from None
    if not math.isfinite(value):
        raise ValueError(
            f"cell at line {line_no}, column {col_no} is not finite: {text!r}"
        )
    return value


def load_csv(
    path: str | Path,
    has_header: bool = True,
    label_column: Optional[str] = None,
    orientation: str = ROWS_ARE_SAMPLES,
) -> Dataset:
    """Load a UTF-8, comma-separated file into the internal d x n orientation.

    Parameters
    ----------
    path : str or Path
        CSV file. Every non-label cell must parse as a finite float.
    has_header : bool
        Whether the first row holds column names.
    label_column : str, optional
        Header name of a label column; removed from the matrix and stored as
        ``labels``. Requires ``has_header=True``.
    orientation : str
        ``"rows-are-samples"`` (default, the common CSV convention) or
        ``"rows-are-features"``. The returned Dataset is always d x n.

    Raises
    ------
    FileNotFoundError
        Missing file.
    ValueError
        Non-numeric or non-finite cell (reported with its line/column),
        ragged rows, unknown label column, or an empty table.
    """
    if orientation not in _ORIENTATIONS:
        raise ValueError(f"orientation must be one of {_ORIENTATIONS}, got {orientation!r}")
    if label_column is not None and not has_header:
        raise ValueError("label_column requires has_header=True")
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")

    with path.open("r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [row for row in rows if row]  # ignore blank lines
    if not rows:
        raise ValueError(f"{path} is empty")

    header: Optional[list[str]] = None
    data_rows = rows
    first_data_line = 1
    if has_header:
        header = [c.strip() for c in rows[0]]
        data_rows = rows[1:]
        first_data_line = 2
        if not data_rows:
            raise ValueError(f"{path} has a header but no data rows")

    width = len(data_rows[0])
    for i, row in enumerate(data_rows):
        if len(row) != width:
            raise ValueError(
                f"ragged row at line {first_data_line + i}: "
                f"{len(row)} cells, expected {width}"
            )
    if header is not None and len(header) != width:
        raise ValueError(
            f"header has {len(header)} cells but data rows have {width}"
        )

    label_idx: Optional[int] = None
    if label_column is not None:
        assert header is not None
        if label_column not in header:
            raise ValueError(
                f"label column {label_column!r} not found in header {header}"
            )
        label_idx = header.index(label_column)
        if orientation == ROWS_ARE_FEATURES:
            raise ValueError(
                "label_column is only supported with rows-are-samples orientation"
            )

    values = np.empty((len(data_rows), width - (1 if label_idx is not None else 0)))
    labels: list[str] = []
    for i, row in enumerate(data_rows):
        k = 0
        for j, cell in enumerate(row):
            if j == label_idx:
                labels.append(cell.strip())
                continue
            values[i, k] = _parse_cell(cell.strip(), first_data_line + i, j + 1)
            k += 1

    if orientation == ROWS_ARE_SAMPLES:
        matrix = values.T
        if header is not None:
            names = [h for j, h in enumerate(header) if j != label_idx]
        else:
            names = None
    else:
        matrix = values
        names = None  # feature names per row are not representable in the header

    return Dataset(
        matrix,
        tuple(names) if names else None,
        tuple(labels) if labels else None,
        source=str(path),
    )


def write_csv(
    ds: Dataset,
    path: str | Path,
    orientation: str = ROWS_ARE_SAMPLES,
    include_header: bool = True,
    label_column: Optional[str] = None,
) -> None:
    """Write a Dataset as CSV, the inverse of :func:`load_csv`.

    Floats are written with ``repr`` so a round trip through ``load_csv``
    reproduces the matrix bit for bit.
    """
    if orientation not in _ORIENTATIONS:
        raise ValueError(f"orientation must be one of {_ORIENTATIONS}, got {orientation!r}")
    if label_column is not None and ds.labels is None:
        raise ValueError("label_column given but dataset has no labels")
    if label_column is not None and orientation == ROWS_ARE_FEATURES:
        raise ValueError("label_column requires rows-are-samples orientation")
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if orientation == ROWS_ARE_SAMPLES:
            if include_header:
                head = list(ds.feature_names)
                if label_column is not None:
                    head.append(label_column)
                writer.writerow(head)
            for j in range(ds.n_samples):
                row = [repr(float(v)) for v in ds.matrix[:, j]]
                if label_column is not None:
                    row.append(str(ds.labels[j]))
                writer.writerow(row)
        else:
            if include_header:
                writer.writerow([f"s{j}" for j in range(ds.n_samples)])
            for i in range(ds.n_features):
                writer.writerow([repr(float(v)) for v in ds.matrix[i, :]])


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic random split into (train, test) by sample columns.

    The two column index sets are disjoint and exhaustive; within each part
    the original column order is kept. Labels, when present, follow their
    columns.
    """
    n = ds.n_samples
    if not 1 <= spec.n_train < n:
        raise ValueError(f"n_train={spec.n_train} outside 1..{n - 1}")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    train_idx = sorted(int(i) for i in perm[: spec.n_train])
    test_idx = sorted(int(i) for i in perm[spec.n_train :])
    train = ds.restrict(samples=train_idx)
    test = ds.restrict(samples=test_idx)
    return train, test


def validate(ds: Dataset) -> ValidationReport:
    """Report zero columns, zero-variance features, and duplicate columns.

    Purely diagnostic; never mutates and never raises on dirty data.
    """
    m = ds.matrix
    zero_cols = tuple(int(j) for j in np.where(~m.any(axis=0))[0])
    # exact equality: a variance of equal entries may round above zero
    # (0.1, 0.1, 0.1), and on huge data it overflows
    zero_var = tuple(int(i) for i in np.where((m == m[:, :1]).all(axis=1))[0])
    seen: dict[bytes, int] = {}
    dups: list[tuple[int, int]] = []
    for j in range(ds.n_samples):
        key = m[:, j].tobytes()
        if key in seen:
            dups.append((seen[key], j))
        else:
            seen[key] = j
    return ValidationReport(zero_cols, zero_var, tuple(dups))


def standardize_features(ds: Dataset) -> Dataset:
    """Per-feature standardization: subtract the mean, divide by the std.

    Zero-variance features are centered only. Opt-in (the objective is stated
    on the raw matrix), exposed through the CLI ``--standardize`` flag.
    """
    m = ds.matrix
    mu = m.mean(axis=1, keepdims=True)
    sd = m.std(axis=1, keepdims=True)
    sd[sd == 0.0] = 1.0
    return Dataset((m - mu) / sd, ds.feature_names, ds.labels, ds.source + "#standardized")
