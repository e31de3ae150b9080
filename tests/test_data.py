import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from alfs import (
    Dataset,
    SplitSpec,
    load_csv,
    split,
    standardize_features,
    write_csv,
)
from alfs.data import ROWS_ARE_FEATURES, _zero_columns

from conftest import random_dataset


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestDataset:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_bad_feature_names(self):
        with pytest.raises(ValueError, match="feature_names"):
            Dataset(np.ones((2, 3)), feature_names=("only_one",))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.ones((2, 3)), labels=("a", "b"))

    def test_matrix_is_immutable(self):
        ds = Dataset(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ds.matrix[0, 0] = 5.0

    def test_without_labels(self):
        ds = Dataset(np.ones((2, 3)), labels=("a", "b", "a"))
        assert ds.without_labels().labels is None
        assert ds.without_labels().matrix is ds.matrix  # frozen: shared, not copied

    def test_the_given_matrix_is_copied_and_derived_ones_are_frozen(self):
        x = np.ones((2, 3))
        ds = Dataset(x)
        x[0, 0] = 5.0
        assert ds.matrix[0, 0] == 1.0
        for derived in (ds.restrict(samples=[1]), ds.restrict(), ds.without_labels(),
                        standardize_features(ds)):
            with pytest.raises(ValueError):
                derived.matrix[0, 0] = 5.0

    def test_a_matrix_taken_from_a_dataset_is_not_checked_again(self):
        # without_labels and restrict with no index adopt a matrix that was
        # checked already: no finiteness pass, which needs d x n booleans
        x = np.random.default_rng(4).normal(size=(60, 2000))
        ds = Dataset(x, labels=tuple(f"c{j % 5}" for j in range(2000)))
        tracemalloc.start()
        try:
            derived = (ds.without_labels(), ds.restrict())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(d.matrix is ds.matrix for d in derived)
        assert peak < 0.05 * x.nbytes

    def test_restrict(self):
        ds = Dataset(np.arange(6.0).reshape(2, 3), labels=("a", "b", "c"))
        sub = ds.restrict(samples=[2, 0], features=[1])
        assert sub.matrix.tolist() == [[5.0, 3.0]]
        assert sub.labels == ("c", "a")
        assert sub.feature_names == ("f1",)
        assert ds.matrix.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]

    def test_restrict_keeps_order_and_repeats(self):
        ds = Dataset(np.arange(6.0).reshape(2, 3), labels=("a", "b", "c"))
        sub = ds.restrict(samples=[np.int64(2), 0, 2], features=(1, 1))
        assert sub.matrix.tolist() == [[5.0, 3.0, 5.0], [5.0, 3.0, 5.0]]
        assert sub.labels == ("c", "a", "c") and sub.feature_names == ("f1", "f1")

    @pytest.mark.parametrize("labels", [None, tuple("abcabc")], ids=["unlabeled", "labeled"])
    @pytest.mark.parametrize("index, message", [
        ([True, False, True, False, True, False], "must be an integer, got True"),
        (np.array([True, False, True, False, True, False]), "must be an integer, got np.True_"),
        ([-1], re.escape("out of range 0..5: [-1]")),
        ([1.5], "must be an integer, got 1.5"),
        ([0, 6, 7], re.escape("out of range 0..5: [6, 7]")),
    ], ids=["mask", "numpy-mask", "negative", "float", "past-the-end"])
    def test_restrict_rejects_what_is_no_sample_index(self, labels, index, message):
        # a mask used to pick columns 0 and 1 (or fail on the labels'
        # length), -1 the last column; 1.5 raised an IndexError
        ds = Dataset(np.arange(12.0).reshape(2, 6), labels=labels)
        with pytest.raises(ValueError, match=f"^sample index {message}$"):
            ds.restrict(samples=index)

    def test_restrict_rejects_what_is_no_feature_index(self):
        ds = Dataset(np.arange(12.0).reshape(2, 6))
        with pytest.raises(ValueError, match=r"^feature index out of range 0\.\.1: \[-1\]$"):
            ds.restrict(features=[0, -1])
        with pytest.raises(ValueError, match="^feature index must be an integer, got True$"):
            ds.restrict(features=[True, False])


class TestLoadCsv:
    def test_rows_are_samples_orientation(self, tmp_path):
        # 3 rows x 2 cols, rows are samples -> d=2, n=3
        p = write(tmp_path, "1,2\n3,4\n5,6\n")
        ds = load_csv(p, has_header=False)
        assert (ds.n_features, ds.n_samples) == (2, 3)
        assert ds.matrix[:, 0].tolist() == [1.0, 2.0]

    def test_label_column_removed(self, tmp_path):
        p = write(tmp_path, "a,b,c,d,label\n1,2,3,4,x\n5,6,7,8,y\n")
        ds = load_csv(p, label_column="label")
        assert ds.n_features == 4
        assert ds.labels == ("x", "y")
        assert ds.feature_names == ("a", "b", "c", "d")

    def test_nan_cell_reports_position(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n3,nan\n")
        with pytest.raises(ValueError, match=r"line 3, column 2"):
            load_csv(p)

    def test_non_numeric_cell_reports_position(self, tmp_path):
        p = write(tmp_path, "1,2\nx,4\n")
        with pytest.raises(ValueError, match=r"line 2, column 1"):
            load_csv(p, has_header=False)

    def test_ragged_rows(self, tmp_path):
        p = write(tmp_path, "1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_csv(p, has_header=False)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_unknown_label_column(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ValueError, match="label column"):
            load_csv(p, label_column="target")

    def test_a_byte_order_mark_is_dropped_without_a_header(self, tmp_path):
        plain = load_csv(write(tmp_path, "1,2\n3,4\n"), has_header=False)
        ds = load_csv(write(tmp_path, "\ufeff1,2\n3,4\n", name="bom.csv"), has_header=False)
        assert np.array_equal(ds.matrix, plain.matrix)

    def test_a_byte_order_mark_is_dropped_from_the_first_name(self, tmp_path):
        p = write(tmp_path, "\ufefflabel,a,b\nx,1,2\ny,3,4\n")
        ds = load_csv(p, label_column="label")
        assert ds.feature_names == ("a", "b")
        assert ds.labels == ("x", "y")
        assert ds.matrix.tolist() == [[1.0, 3.0], [2.0, 4.0]]

    def test_rows_are_features(self, tmp_path):
        p = write(tmp_path, "1,2,3\n4,5,6\n", name="feat.csv")
        ds = load_csv(p, has_header=False, orientation=ROWS_ARE_FEATURES)
        assert (ds.n_features, ds.n_samples) == (2, 3)
        assert ds.matrix[1, :].tolist() == [4.0, 5.0, 6.0]

    def test_round_trip_bit_for_bit(self, tmp_path):
        ds = random_dataset(9, d=5, n=7)
        p = tmp_path / "rt.csv"
        write_csv(ds, p)
        back = load_csv(p)
        assert np.array_equal(back.matrix, ds.matrix)

    def test_round_trip_rows_are_features_bit_for_bit(self, tmp_path):
        ds = random_dataset(10, d=5, n=7)
        p = tmp_path / "rt.csv"
        write_csv(ds, p, orientation=ROWS_ARE_FEATURES)
        back = load_csv(p, orientation=ROWS_ARE_FEATURES)
        assert back.matrix.tobytes() == ds.matrix.tobytes()

    def test_round_trip_with_labels(self, tmp_path):
        ds = Dataset(np.array([[0.1, 2.5], [1.0, -3.25]]), labels=("u", "v"))
        p = tmp_path / "rt.csv"
        write_csv(ds, p, label_column="y")
        back = load_csv(p, label_column="y")
        assert np.array_equal(back.matrix, ds.matrix)
        assert back.labels == ("u", "v")

    @pytest.mark.parametrize("pad", [" \t", " \x1f"], ids=["blanks", "unit-separator"])
    def test_values_are_float_of_each_stripped_cell(self, tmp_path, pad):
        # float() itself skips blanks but rejects \x1c-\x1f, which strip() drops
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 5)) * 10.0 ** rng.integers(-300, 300, size=(6, 5))
        x[0, 0] = -0.0
        x[1] = 1e308  # finite cells whose sum overflows take the per-cell loop
        rows = []
        for i, sample in enumerate(x):
            cells = [pad[: rng.integers(0, 3)] + repr(float(v)) + pad[: rng.integers(0, 3)]
                     for v in sample]
            rows.append(",".join(cells[:2] + [f" c{i % 2} "] + cells[2:]))
        p = write(tmp_path, "a,b,label,c,d,e\n" + "\n".join(rows) + "\n")
        ds = load_csv(p, label_column="label")
        want = np.array([[float(cell.strip()) for j, cell in enumerate(row.split(",")) if j != 2]
                         for row in rows]).T
        assert ds.matrix.tobytes() == want.tobytes()
        assert ds.matrix.strides == want.strides
        assert ds.labels == ("c0", "c1") * 3
        assert ds.feature_names == ("a", "b", "c", "d", "e")

    @pytest.mark.parametrize("text, message", [
        ("1,y,2,3\n4,y,x,nan\n5,y,inf,6\n", "line 3, column 3 is not numeric: 'x'"),
        ("1,y,2,3\n4,y,5,inf\n5,y,x,nan\n", "line 3, column 4 is not finite: 'inf'"),
    ], ids=["non-numeric-first", "non-finite-first"])
    def test_several_bad_cells_name_the_first(self, tmp_path, text, message):
        p = write(tmp_path, "a,label,b,c\n" + text)
        with pytest.raises(ValueError, match=message):
            load_csv(p, label_column="label")

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n\n\n3,x\n", "cell at line 5, column 2 is not numeric: 'x'"),
        ("a,b\n1,2\n\n3,4,5\n", "ragged row at line 4: 3 cells, expected 2"),
        ("\na,b\n\n1,2\n3,inf\n", "cell at line 5, column 2 is not finite: 'inf'"),
    ], ids=["bad-cell", "ragged-row", "blank-before-header"])
    def test_errors_name_the_physical_line(self, tmp_path, text, message):
        p = write(tmp_path, text)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_csv(p)

    @pytest.mark.parametrize("raw, message", [
        (b"a,b\n1,2\n3,\xff\n", "is not UTF-8 at line 3: invalid start byte"),
        (b"a,b\r1,2\r\r3,x\r5,\xe2\x82\r", "is not UTF-8 at line 5: invalid continuation byte"),
        (b'\xef\xbb\xbfa,b\n"1\n",2\n3,4\n5,\xc3',
         "is not UTF-8 at line 5: unexpected end of data"),
        # over a ragged row, however far past the read buffer the byte lies
        (b"a,b\n1,2\n3\n4,5\n6,\xff\n", "is not UTF-8 at line 5: invalid start byte"),
        (b"a,b\n1,2\n3\n" + b"4,5\n" * 3000 + b"6,\xff\n",
         "is not UTF-8 at line 3004: invalid start byte"),
    ], ids=["newlines", "returns-and-a-bad-cell-before", "bom-quoted-newline-truncated",
            "over-a-ragged-row", "over-a-ragged-row-past-the-read-buffer"])
    def test_a_byte_not_utf8_names_its_physical_line(self, tmp_path, raw, message):
        p = tmp_path / "ff.csv"
        p.write_bytes(raw)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p} {message}')}$"):
            load_csv(p)

    @pytest.mark.parametrize("text, kwargs, message", [
        ("\n\n", {}, "is empty"),
        ("a,b\n\n", {"label_column": "zz"}, "has a header but no data rows"),
        ("a,b\n1,x\n3\n", {}, "ragged row at line 3: 1 cells, expected 2"),
        ("a,b\n1,2\n3\n" + "4,5\n" * 3000, {}, "ragged row at line 3: 1 cells, expected 2"),
        ("a,b,c\n1,2\n3\n", {}, "ragged row at line 3: 1 cells, expected 2"),
        ("a,b\n1,2\n3\n", {"label_column": "zz"}, "ragged row at line 3"),
        ("a,b\n1,2\n3\n", {"label_column": "a", "orientation": ROWS_ARE_FEATURES},
         "ragged row at line 3"),
        ("a,b,c\n1,2\n3,4\n", {"label_column": "zz"},
         "header has 3 cells but data rows have 2"),
        ("a,b,c\n1,x\n3,4\n", {}, "header has 3 cells but data rows have 2"),
        ("a,b\nx,2\n3,4\n", {"label_column": "zz"}, "label column 'zz' not found"),
        ("a,b\nx,2\n3,4\n", {"label_column": "a", "orientation": ROWS_ARE_FEATURES},
         "label_column is only supported with rows-are-samples orientation"),
    ], ids=["empty", "header-only", "ragged-after-bad-cell", "ragged-before-a-long-tail",
            "ragged-over-header",
            "ragged-over-unknown-label", "ragged-over-label-orientation",
            "header-over-unknown-label", "header-over-bad-cell",
            "unknown-label-over-bad-cell", "label-orientation-over-bad-cell"])
    def test_errors_keep_their_precedence(self, tmp_path, text, kwargs, message):
        p = write(tmp_path, text)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_csv(p, **kwargs)

    def test_rows_are_features_matrix_is_that_of_a_cell_by_cell_parse(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 7)) * 10.0 ** rng.integers(-30, 30, size=(4, 7))
        rows = [[repr(float(v)) for v in feature] for feature in x]
        rows[1][:4] = ["1e308", "1e308", "-1e308", "1.5e308"]
        rows[3][2] = "\x1f" + rows[3][2]
        p = write(tmp_path, "\n".join(",".join(row) for row in rows) + "\n")
        ds = load_csv(p, has_header=False, orientation=ROWS_ARE_FEATURES)
        want = np.array([[float(cell.strip()) for cell in row] for row in rows])
        assert ds.matrix.tobytes() == want.tobytes()
        assert ds.matrix.strides == want.strides
        assert ds.labels is None
        assert ds.feature_names == ("f0", "f1", "f2", "f3")

    def test_parse_memory_stays_within_a_few_matrices(self, tmp_path):
        # the parse holds one row of text at a time, not every cell
        x = np.random.default_rng(3).normal(size=(60, 2000))
        ds = Dataset(x, labels=tuple(f"c{j % 5}" for j in range(2000)))
        p = tmp_path / "big.csv"
        write_csv(ds, p, label_column="label")
        tracemalloc.start()
        try:
            back = load_csv(p, label_column="label")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.matrix.tobytes() == ds.matrix.tobytes()
        # the dataset keeps the parse buffer itself, not a copy of it
        assert peak <= 1.5 * x.nbytes


class TestSplit:
    def test_libras_shaped_split(self):
        # the 360-sample dataset splits 200 train / 160 test
        ds = random_dataset(1, d=10, n=360)
        train, test = split(ds, SplitSpec(n_train=200, seed=3))
        assert train.n_samples == 200
        assert test.n_samples == 160

    def test_two_samples(self):
        ds = Dataset(np.array([[1.0, 2.0]]))
        train, test = split(ds, SplitSpec(n_train=1, seed=0))
        assert train.n_samples == 1 and test.n_samples == 1
        cols = {float(train.matrix[0, 0]), float(test.matrix[0, 0])}
        assert cols == {1.0, 2.0}

    def test_deterministic(self):
        ds = random_dataset(2, d=4, n=30)
        a = split(ds, SplitSpec(n_train=20, seed=77))
        b = split(ds, SplitSpec(n_train=20, seed=77))
        assert np.array_equal(a[0].matrix, b[0].matrix)
        assert np.array_equal(a[1].matrix, b[1].matrix)

    def test_partition_is_exhaustive_multiset(self):
        ds = random_dataset(3, d=3, n=17)
        train, test = split(ds, SplitSpec(n_train=5, seed=1))
        merged = np.concatenate([train.matrix, test.matrix], axis=1)
        key = lambda m: sorted(m[:, j].tobytes() for j in range(m.shape[1]))
        assert key(merged) == key(ds.matrix)

    def test_labels_follow_columns(self):
        ds = Dataset(np.arange(8.0).reshape(2, 4), labels=("a", "b", "c", "d"))
        train, test = split(ds, SplitSpec(n_train=2, seed=5))
        for part in (train, test):
            for j in range(part.n_samples):
                original = int(part.matrix[0, j])  # row 0 encodes column index
                assert part.labels[j] == "abcd"[original]

    def test_out_of_range(self):
        ds = random_dataset(4, d=2, n=5)
        with pytest.raises(ValueError):
            split(ds, SplitSpec(n_train=5, seed=0))

    @pytest.mark.parametrize("n_train", [True, 2.0, "2", None])
    def test_a_train_size_that_is_no_integer_is_rejected(self, n_train):
        # True would train on one sample, 2.0 would fail in slicing
        with pytest.raises(ValueError, match=f"n_train must be an integer, got {n_train!r}"):
            SplitSpec(n_train=n_train)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_a_seed_that_is_no_nonnegative_integer_is_rejected(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            SplitSpec(n_train=2, seed=seed)

    def test_the_range_of_the_train_size_is_checked_against_the_data(self):
        ds = random_dataset(4, d=2, n=5)
        for n_train in (0, -1):
            with pytest.raises(ValueError, match=f"n_train={n_train} outside 1..4"):
                split(ds, SplitSpec(n_train=n_train))
        assert split(ds, SplitSpec(n_train=np.int64(2)))[0].n_samples == 2


class TestZeroColumns:
    @pytest.mark.parametrize("zero", [[], [0], [4], [1, 3], [0, 1, 2, 3, 4]],
                             ids=["none", "first", "last", "several", "all"])
    def test_the_all_zero_columns_in_ascending_order(self, zero):
        m = np.random.default_rng(6).normal(size=(3, 5))
        m[:, zero] = 0.0
        found = _zero_columns(m)
        assert found == zero
        assert all(type(j) is int for j in found)

    def test_negative_zeros_are_zero_and_a_subnormal_is_not(self):
        m = np.array([[1.0, -0.0, 0.0, -0.0], [2.0, -0.0, 5e-324, 0.0]])
        assert _zero_columns(m) == [1, 3]


def test_standardize_features():
    ds = random_dataset(5, d=4, n=50)
    out = standardize_features(ds)
    assert np.allclose(out.matrix.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(out.matrix.std(axis=1), 1.0, atol=1e-12)


def test_standardize_zeroes_a_feature_constant_up_to_rounding():
    # the std of (0.1, 0.1, 0.1) rounds to 1.4e-17, not 0
    out = standardize_features(Dataset([[0.1, 0.1, 0.1], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
    assert out.matrix[0].tolist() == [0.0, 0.0, 0.0]
    assert out.matrix[2].tolist() == [0.0, 0.0, 0.0]
    row = np.array([1.0, 2.0, 3.0])
    assert out.matrix[1].tolist() == ((row - row.mean()) / row.std()).tolist()


def test_standardize_huge_features_as_unscaled_ones():
    # squares of 1e200 overflow; the std used to be inf and the features zeros
    x = np.random.default_rng(0).normal(size=(3, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = standardize_features(Dataset(x * 1e200)).matrix
    np.testing.assert_allclose(huge, standardize_features(Dataset(x)).matrix, rtol=1e-12)


def test_standardize_is_exact_under_power_of_two_scaling():
    x = np.random.default_rng(1).normal(size=(4, 9))
    want = standardize_features(Dataset(x)).matrix.tobytes()
    for k in (-1000, -560, -3, 5, 600, 1000):
        assert standardize_features(Dataset(np.ldexp(x, k))).matrix.tobytes() == want


@given(data=st.data(), shape=st.tuples(st.integers(1, 5), st.integers(1, 6)))
def test_standardize_keeps_a_finite_matrix_finite(data, shape):
    # a Dataset adopts the standardized matrix without checking it again
    x = data.draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
    scale = 10.0 ** data.draw(arrays(np.int64, (shape[0], 1), elements=st.integers(-300, 300)))
    out = standardize_features(Dataset(x * scale)).matrix
    assert np.all(np.isfinite(out))
    assert np.abs(out).max() < 2.3e15
