import warnings

import numpy as np
import pytest

from alfs import (
    Dataset,
    SplitSpec,
    load_csv,
    split,
    standardize_features,
    validate,
    write_csv,
)
from alfs.data import ROWS_ARE_FEATURES

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
        assert np.array_equal(ds.without_labels().matrix, ds.matrix)

    def test_restrict(self):
        ds = Dataset(np.arange(6.0).reshape(2, 3), labels=("a", "b", "c"))
        sub = ds.restrict(samples=[2, 0], features=[1])
        assert sub.matrix.tolist() == [[5.0, 3.0]]
        assert sub.labels == ("c", "a")
        assert sub.feature_names == ("f1",)


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

    def test_round_trip_with_labels(self, tmp_path):
        ds = Dataset(np.array([[0.1, 2.5], [1.0, -3.25]]), labels=("u", "v"))
        p = tmp_path / "rt.csv"
        write_csv(ds, p, label_column="y")
        back = load_csv(p, label_column="y")
        assert np.array_equal(back.matrix, ds.matrix)
        assert back.labels == ("u", "v")


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


class TestValidate:
    def test_all_zero_matrix_flags_every_column(self):
        ds = Dataset(np.zeros((3, 4)))
        report = validate(ds)
        assert report.zero_columns == (0, 1, 2, 3)
        assert not report.is_clean

    def test_duplicate_column_pair(self):
        m = np.array([[1.0, 2.0, 1.0], [3.0, 4.0, 3.0]])
        report = validate(Dataset(m))
        assert report.duplicate_columns == ((0, 2),)

    def test_zero_variance_feature(self):
        m = np.array([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]])
        report = validate(Dataset(m))
        assert report.zero_variance_features == (0,)

    def test_equal_entries_are_zero_variance_exactly(self):
        # the variance of (0.1, 0.1, 0.1) rounds to 1.9e-34, not zero
        m = np.array([[0.1, 0.1, 0.1], [1.0, 2.0, 3.0], [0.1, 0.1, 0.1 + 2**-56]])
        assert validate(Dataset(m)).zero_variance_features == (0,)

    def test_huge_entries_do_not_overflow(self):
        m = np.array([[1e300, 1e300, 1e300], [1e300, -1e300, 1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate(Dataset(m))
        assert report.zero_variance_features == (0,)

    def test_clean_random_matrix(self):
        # distinct random entries: no flags of any kind
        report = validate(random_dataset(8, d=6, n=9))
        assert report.is_clean


def test_standardize_features():
    ds = random_dataset(5, d=4, n=50)
    out = standardize_features(ds)
    assert np.allclose(out.matrix.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(out.matrix.std(axis=1), 1.0, atol=1e-12)
