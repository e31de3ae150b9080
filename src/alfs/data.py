"""Dataset container, CSV ingestion, and train/test splitting.

The internal orientation is fixed: ``matrix`` is d x n with one feature per
row and one sample per column. CSV files commonly store one sample per row,
so ``load_csv`` defaults to transposing on the way in. Features are never
normalized implicitly; standardization is an explicit, opt-in step.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
import re
from array import array
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, Iterable, Optional, Sequence, TypeVar

import numpy as np

ROWS_ARE_SAMPLES = "rows-are-samples"
ROWS_ARE_FEATURES = "rows-are-features"
_ORIENTATIONS = (ROWS_ARE_SAMPLES, ROWS_ARE_FEATURES)

# Array bytes of derived values (SVDs, CUR factors) one Dataset keeps;
# past it the least recently used are dropped.
MEMO_BYTES = 16 * 2**20

# The std of equal entries is rounding noise, under 3 ulps of their magnitude
# in numpy's pairwise sums up to 3e5 samples; standardization treats a feature
# whose std is at most this many ulps as constant.
_CONSTANT_STD_ULPS = 8

_T = TypeVar("_T")


def _require_integer(name: str, value, minimum: Optional[int], maximum=None) -> int:
    """``value`` as an ``int``: an integer (a bool is none) >= ``minimum``
    (any if None) and, if given, <= ``maximum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or (
            maximum is None and minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    if maximum is not None and not minimum <= value <= maximum:
        raise ValueError(f"{name}={value} outside {minimum}..{maximum}")
    return int(value)


def _index_set(indices: Iterable[int], bound: int, what: str) -> tuple[int, ...]:
    """The distinct ``indices``, sorted; each must be an integer in 0..bound-1."""
    # one pass: a Python int, as enumeration yields, is taken as it is
    out = sorted({i if i.__class__ is int else _require_integer(f"{what} index", i, None)
                  for i in indices})
    if not out:
        raise ValueError(f"{what} index set is empty")
    if out[0] < 0 or out[-1] >= bound:
        raise ValueError(f"{what} index out of range 0..{bound - 1}: {out}")
    return tuple(out)


def _index_list(indices: Iterable[int], bound: int, what: str) -> list[int]:
    """``indices`` in order, repeats kept; each must be an integer in 0..bound-1."""
    out = [i if i.__class__ is int else _require_integer(f"{what} index", i, None)
           for i in indices]
    if out and not 0 <= min(out) <= max(out) < bound:
        raise ValueError(f"{what} index out of range 0..{bound - 1}: "
                         f"{[i for i in out if not 0 <= i < bound]}")
    return out


def _require_real(name: str, value, minimum, strict: bool = False) -> None:
    """Reject anything but a finite real number >= ``minimum`` (> it if
    ``strict``); a bool, NaN and infinities are rejected too."""
    # a float (np.float64 is one) passes without the slower ABC check
    if not isinstance(value, float) and (isinstance(value, bool)
                                         or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    # written so that NaN, which fails every comparison, is rejected
    if not ((minimum < value) if strict else (minimum <= value)) or not value < math.inf:
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='} {minimum}, "
                         f"got {value!r}")


class _Adopted:
    """A float64 array that alfs has just built and that nothing else holds:
    a :class:`Dataset` given one freezes the array itself instead of a copy.

    Every entry is finite, so the Dataset skips that check (it keeps the
    shape checks). Where each array comes from, and why it is finite:
    ``load_csv`` keeps a row whose sum is finite (a non-finite entry makes
    the sum non-finite) and checks the cells of any other row one by one;
    ``restrict``, ``without_labels`` and ``split`` index a matrix a Dataset
    already checked; ``standardize_features`` divides entries below 2 in
    magnitude by a std above ``_CONSTANT_STD_ULPS`` * eps / 2, which bounds
    them by about 2.3e15.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


@dataclass(frozen=True)
class Dataset:
    """An immutable d x n data matrix (features x samples) with optional labels.

    Parameters
    ----------
    matrix : ndarray
        Real d x n matrix, one feature per row and one sample per column.
        Copied and frozen on construction; every entry must be finite. The
        datasets alfs derives from one (by loading, splitting, restricting,
        dropping labels or standardizing) take their freshly built or
        already frozen arrays without a copy.
    feature_names : sequence of str, optional
        Length-d names. Auto-generated as ``f0..f{d-1}`` when omitted.
    labels : sequence, optional
        Length-n categorical labels, carried for evaluation only; the solver
        never consults them.
    source : str
        Provenance note (file path, generator description, ...).

    Factorizations of the matrix that the evaluation code needs (the rank,
    SVDs, the CUR factors of column and row subsets) are memoized on the
    instance, at most ``MEMO_BYTES`` of arrays per dataset.
    """

    matrix: np.ndarray
    feature_names: Optional[tuple[str, ...]] = None
    labels: Optional[tuple] = None
    source: str = "memory"

    def __post_init__(self) -> None:
        adopted = isinstance(self.matrix, _Adopted)
        if adopted:
            m = self.matrix.array
        else:
            m = np.array(self.matrix, dtype=float, copy=True)
        if m.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got ndim={m.ndim}")
        d, n = m.shape
        if d < 1 or n < 1:
            raise ValueError(f"matrix must be at least 1x1, got {d}x{n}")
        if not adopted and not np.all(np.isfinite(m)):
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
        return Dataset(_Adopted(self.matrix), self.feature_names, None, self.source)

    def restrict(
        self,
        samples: Optional[Sequence[int]] = None,
        features: Optional[Sequence[int]] = None,
    ) -> "Dataset":
        """Sub-dataset at the given sample columns and/or feature rows.

        Index order and repeats are kept; labels follow the sample indices.
        An index that is no in-range integer (a bool, 1.5, -1) raises ValueError.
        """
        m = self.matrix
        names = self.feature_names
        labels = self.labels
        if features is not None:
            features = _index_list(features, self.n_features, "feature")
            m = m[features, :]
            names = tuple(names[i] for i in features)
        if samples is not None:
            samples = _index_list(samples, self.n_samples, "sample")
            m = m[:, samples]
            if labels is not None:
                labels = tuple(labels[j] for j in samples)
        # indexing copied the matrix; with no index it is this frozen one
        return Dataset(_Adopted(m), names, labels, self.source)


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


def _memo(ds: Dataset, key: Hashable, compute: Callable[..., _T], *args) -> _T:
    """``compute(*args)``, evaluated once per dataset and ``key`` while cached.

    ``compute`` must be a deterministic function of ``ds.matrix``, which is
    read-only, so a cached value never goes stale. Its arrays are made
    read-only. At most ``MEMO_BYTES`` of arrays are kept per dataset, the
    least recently used dropped first; a larger value is not kept.
    """
    cache = ds._derived
    hit = cache.get(key)
    if hit is not None:
        cache.move_to_end(key)
        return hit[0]
    value = compute(*args)
    size = _freeze(value)
    if size <= MEMO_BYTES:
        while cache.nbytes + size > MEMO_BYTES:
            _, (_, dropped) = cache.popitem(last=False)
            cache.nbytes -= dropped
        cache[key] = (value, size)
        cache.nbytes += size
    return value


def _thin_svd(ds: Dataset):
    """Thin SVD ``(u, s, vt)`` of the data matrix, memoized on ``ds``."""
    return _memo(ds, "svd", lambda: np.linalg.svd(ds.matrix, full_matrices=False))


@dataclass(frozen=True)
class SelectionRequest:
    """Budgets: keep ``m`` samples and ``r`` features."""

    m: int
    r: int

    def __post_init__(self) -> None:
        _require_integer("m", self.m, 1)
        _require_integer("r", self.r, 1)

    def check_against(self, n_samples: int, n_features: int) -> None:
        _require_integer("sample budget m", self.m, 1, n_samples)
        _require_integer("feature budget r", self.r, 1, n_features)


@dataclass(frozen=True)
class SplitSpec:
    """Random train/test split: ``n_train`` columns to train, rest to test."""

    n_train: int
    seed: int = 0

    def __post_init__(self) -> None:
        _require_integer("n_train", self.n_train, None)  # split checks its range
        _require_integer("seed", self.seed, 0)


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


def _label_index(
    header: Optional[list[str]], width: int, label_column: Optional[str], orientation: str
) -> Optional[int]:
    """Column index of the label, after checking the header against the data."""
    if header is not None and len(header) != width:
        raise ValueError(
            f"header has {len(header)} cells but data rows have {width}"
        )
    if label_column is None:
        return None
    assert header is not None
    if label_column not in header:
        raise ValueError(
            f"label column {label_column!r} not found in header {header}"
        )
    if orientation == ROWS_ARE_FEATURES:
        raise ValueError(
            "label_column is only supported with rows-are-samples orientation"
        )
    return header.index(label_column)


@contextmanager
def _naming_the_bad_line(path: Path):
    """Turns a decode error of reading ``path`` into a ValueError that names
    the physical line of the first byte that is not UTF-8, found by reading
    the file again, with lines counted as ``load_csv`` counts them."""
    try:
        yield
    except UnicodeDecodeError as exc:
        # surrogateescape decodes each such byte to a lone surrogate
        with path.open("r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
            line = next(i for i, text in enumerate(fh, 1)
                        if re.search(r"[\udc80-\udcff]", text))
        raise ValueError(f"{path} is not UTF-8 at line {line}: {exc.reason}") from None


def load_csv(
    path: str | Path,
    has_header: bool = True,
    label_column: Optional[str] = None,
    orientation: str = ROWS_ARE_SAMPLES,
) -> Dataset:
    """Load a UTF-8, comma-separated file into the internal d x n orientation.

    A leading byte-order mark, as spreadsheet programs write, is dropped.

    The file is read in one pass that holds the text of one row at a time:
    each row's floats go straight into a flat buffer, so memory stays within
    a few times the matrix bytes. Blank lines are skipped.

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
        A path that is not a regular file (a directory, say); a byte that
        is not UTF-8, naming its line. Then, in
        this order of precedence: an empty table; the first ragged row;
        a header whose width differs from the data's; an unknown label
        column, or one with rows-are-features; the first non-numeric or
        non-finite cell in row-major order.
        Lines are the file's physical lines, blank ones counted.
    """
    if orientation not in _ORIENTATIONS:
        raise ValueError(f"orientation must be one of {_ORIENTATIONS}, got {orientation!r}")
    if label_column is not None and not has_header:
        raise ValueError("label_column requires has_header=True")
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    if not path.is_file():
        raise ValueError(f"not a regular file: {path}")

    with _naming_the_bad_line(path), path.open("r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        rows = filter(None, reader)  # a blank line reads as []
        header = next(rows, None) if has_header else None
        first = next(rows, None)
        if first is None:
            raise ValueError(
                f"{path} has a header but no data rows" if header else f"{path} is empty"
            )
        if header is not None:
            header = [c.strip() for c in header]

        width = len(first)
        # the first error of lower precedence than a ragged row; once it is
        # known, the remaining rows are only checked for raggedness
        error: Optional[ValueError] = None
        try:
            label_idx = _label_index(header, width, label_column, orientation)
        except ValueError as exc:
            label_idx, error = None, exc
        values = array("d")
        labels: list[str] = []
        n_rows = 0
        for row in itertools.chain([first], rows):
            if len(row) != width:
                ragged = ValueError(
                    f"ragged row at line {reader.line_num}: "
                    f"{len(row)} cells, expected {width}"
                )
                # a byte that is not UTF-8 anywhere in the file takes
                # precedence, wherever the read buffer ends: decode the rest
                for _ in fh:
                    pass
                raise ragged
            if error is not None:
                continue
            cells = row
            if label_idx is not None:
                labels.append(row[label_idx].strip())
                cells = row[:label_idx] + row[label_idx + 1 :]
            # float() skips the whitespace str.strip() does, bar \x1c-\x1f,
            # which it rejects; such a row, like one with a bad or non-finite
            # cell (a non-finite sum), takes the per-cell loop
            try:
                floats = list(map(float, cells))
                parsed = math.isfinite(sum(floats))
            except ValueError:
                parsed = False
            if not parsed:
                try:
                    floats = [
                        _parse_cell(cell.strip(), reader.line_num, j + 1)
                        for j, cell in enumerate(row)
                        if j != label_idx
                    ]
                except ValueError as exc:
                    error = exc
                    continue
            values.extend(floats)
            n_rows += 1
    if error is not None:
        raise error

    table = np.frombuffer(values).reshape(n_rows, width - (label_idx is not None))
    if orientation == ROWS_ARE_SAMPLES:
        matrix = table.T
        if header is not None:
            names = [h for j, h in enumerate(header) if j != label_idx]
        else:
            names = None
    else:
        matrix = table
        names = None  # feature names per row are not representable in the header

    return Dataset(
        _Adopted(matrix),  # a view of the parse buffer, which nothing else holds
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
    n_train = _require_integer("n_train", spec.n_train, 1, n - 1)
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    train_idx = sorted(perm[:n_train].tolist())
    test_idx = sorted(perm[n_train:].tolist())
    train = ds.restrict(samples=train_idx)
    test = ds.restrict(samples=test_idx)
    return train, test


def _zero_columns(m: np.ndarray) -> list[int]:
    """Ascending indices of the all-zero columns of ``m`` (-0.0 is zero):
    the samples that have no direction."""
    return np.flatnonzero(~m.any(axis=0)).tolist()


def standardize_features(ds: Dataset) -> Dataset:
    """Per-feature standardization: subtract the mean, divide by the std.

    A feature constant up to rounding (its std at most a few ulps of its
    largest magnitude) becomes zero. Opt-in (the objective is stated on the
    raw matrix), exposed through the CLI ``--standardize`` flag.
    """
    # each feature scaled by an exact power of two to a largest magnitude in
    # [0.5, 1), so the squares of the std neither overflow nor underflow;
    # the standardized values do not depend on the scale
    peak, exp = np.frexp(np.abs(ds.matrix).max(axis=1, keepdims=True))
    m = np.ldexp(ds.matrix, -exp)
    sd = m.std(axis=1, keepdims=True)
    constant = sd <= _CONSTANT_STD_ULPS * np.finfo(float).eps * peak
    sd[constant] = 1.0
    out = (m - m.mean(axis=1, keepdims=True)) / sd
    out[constant[:, 0]] = 0.0
    return Dataset(_Adopted(out), ds.feature_names, ds.labels, ds.source + "#standardized")
