import re

import numpy as np
import pytest

import alfs.baselines as baselines_mod
from alfs import (
    Dataset,
    RcurConfig,
    cur_from_indices,
    leverage_scores,
    random_sampling,
    rcur,
    variance_feature_select,
)

from conftest import random_dataset


class TestRandomSampling:
    def test_full_budget_returns_all(self):
        assert random_sampling(5, 5, seed=0) == (0, 1, 2, 3, 4)

    def test_deterministic_per_seed(self):
        assert random_sampling(50, 10, seed=3) == random_sampling(50, 10, seed=3)

    def test_over_budget_rejected(self):
        with pytest.raises(ValueError):
            random_sampling(3, 4, seed=0)

    def test_uniformity_three_sigma(self):
        # 1e4 single draws from 4 indices: every frequency within 3 sigma
        counts = np.zeros(4, dtype=int)
        for seed in range(10_000):
            counts[random_sampling(4, 1, seed=seed)[0]] += 1
        expected = 10_000 / 4
        sigma = np.sqrt(10_000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - expected) <= 3 * sigma)


class TestVarianceFeatureSelect:
    def test_basic_ordering(self):
        m = np.array(
            [[1.0, 1.0, 1.0], [0.0, 5.0, -5.0], [0.0, 2.0, -2.0]]
        )  # variances: 0, big, medium
        ds = Dataset(m)
        assert variance_feature_select(ds, 2) == (1, 2)

    def test_constant_feature_selected_last(self):
        m = np.vstack([np.ones(4), np.arange(4.0), 2 * np.arange(4.0)])
        ds = Dataset(m)
        assert 0 not in variance_feature_select(ds, 2)
        assert variance_feature_select(ds, 3) == (0, 1, 2)

    def test_full_budget(self):
        ds = random_dataset(0, d=5, n=8)
        assert variance_feature_select(ds, 5) == (0, 1, 2, 3, 4)

    def test_over_budget_rejected(self):
        ds = random_dataset(1, d=3, n=4)
        with pytest.raises(ValueError):
            variance_feature_select(ds, 4)

    @pytest.mark.parametrize("pattern, scale", [
        ([1.0, -1.0, 1.0, -1.0], 1e200),
        # eight of each sign per partial sum: the sum of a row reads inf - inf
        ([1.0 if j % 8 < 4 else -1.0 for j in range(64)], 0.9e308),
    ], ids=["squares-overflow", "sums-overflow-both-ways"])
    def test_variances_that_overflow_are_still_told_apart(self, pattern, scale):
        # the inf variances used to tie, and the tie went to feature 0
        p = np.array(pattern)
        ds = Dataset(np.vstack([scale * p, 1.7 / 0.9 * scale * p, np.arange(p.size)]))
        assert variance_feature_select(ds, 1) == (1,)
        assert variance_feature_select(ds, 2) == (0, 1)

    def test_finite_variances_rank_as_the_plain_variances(self):
        ds = random_dataset(5, d=12, n=9)
        order = np.argsort(-ds.matrix.var(axis=1), kind="stable")
        for r in range(1, 13):
            assert variance_feature_select(ds, r) == tuple(sorted(order[:r].tolist()))


class TestLeverageScores:
    def test_axis_aligned_diagonal(self):
        ds = Dataset(np.diag([3.0, 2.0, 1.0]))
        col, row = leverage_scores(ds, 2)
        assert np.allclose(col, [1.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(row, [1.0, 1.0, 0.0], atol=1e-12)

    def test_scores_sum_to_k(self):
        ds = random_dataset(2, d=6, n=8)
        col, row = leverage_scores(ds, 3)
        assert col.sum() == pytest.approx(3.0, abs=1e-8)
        assert row.sum() == pytest.approx(3.0, abs=1e-8)

    def test_full_rank_sums_to_rank(self):
        ds = random_dataset(3, d=4, n=7)
        col, row = leverage_scores(ds, 4)
        assert col.sum() == pytest.approx(4.0, abs=1e-8)

    def test_degenerate_spectrum_warns(self):
        ds = Dataset(np.eye(3))  # all singular values equal
        with pytest.warns(RuntimeWarning, match="not unique"):
            leverage_scores(ds, 1)


class TestCur:
    def test_full_selection_exact(self):
        ds = random_dataset(4, d=4, n=5)
        res = rcur(ds, RcurConfig(k=1, m=5, r=4, seed=0, exact_counts=True))
        assert res.column_indices == (0, 1, 2, 3, 4)
        assert res.err == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_closed_form(self):
        ds = Dataset(np.diag([3.0, 2.0, 1.0]))
        res = cur_from_indices(ds, [0], [0], k=1)
        assert res.err == pytest.approx(5.0, abs=1e-12)  # 2^2 + 1^2
        assert res.c.tolist() == [[3.0], [0.0], [0.0]]

    @pytest.mark.parametrize("columns, rows", [
        ([-1, 2], [0]),
        ([0, 5], [0]),
        ([0], [4]),
        ([], [0]),
    ], ids=["negative-column", "column-past-end", "row-past-end", "no-columns"])
    def test_out_of_range_or_empty_indices_rejected(self, columns, rows):
        ds = random_dataset(3, d=4, n=5)
        with pytest.raises(ValueError, match="index"):
            cur_from_indices(ds, columns, rows, k=1)

    @pytest.mark.parametrize("bad, shown", [
        ([0.7, 1], "0.7"), (["1", 2], "'1'"), ([True, 2], "True"),
        (np.array([True, False, True, False]), "np.True_"),
    ], ids=["float", "str", "bool", "numpy-mask"])
    def test_an_index_that_is_no_integer_is_rejected(self, bad, shown):
        # int() used to read 0.7 as 0, '1' and True as 1, and a mask as {0, 1}
        ds = random_dataset(3, d=4, n=5)
        with pytest.raises(ValueError, match=f"^column index must be an integer, got {re.escape(shown)}$"):
            cur_from_indices(ds, bad, [0], k=1)
        with pytest.raises(ValueError, match=f"^row index must be an integer, got {re.escape(shown)}$"):
            cur_from_indices(ds, [0], bad, k=1)

    def test_numpy_integer_indices_are_accepted(self):
        ds = random_dataset(3, d=4, n=5)
        res = cur_from_indices(ds, np.array([3, 1]), [np.int32(2), np.uint8(0)], k=1)
        assert res.column_indices == (1, 3) and res.row_indices == (0, 2)
        assert all(type(i) is int for i in res.column_indices + res.row_indices)
        assert res.err == cur_from_indices(Dataset(ds.matrix), [1, 3], [0, 2], k=1).err

    def test_indices_are_actual_columns_and_rows(self):
        ds = random_dataset(5, d=5, n=7)
        res = rcur(ds, RcurConfig(k=2, m=4, r=3, seed=1))
        assert np.array_equal(res.c, ds.matrix[:, list(res.column_indices)])
        assert np.array_equal(res.r, ds.matrix[list(res.row_indices), :])
        assert res.column_indices == tuple(sorted(set(res.column_indices)))
        assert res.row_indices == tuple(sorted(set(res.row_indices)))

    def test_deterministic_per_seed(self):
        ds = random_dataset(6, d=5, n=7)
        a = rcur(ds, RcurConfig(k=2, m=4, r=3, seed=9))
        b = rcur(ds, RcurConfig(k=2, m=4, r=3, seed=9))
        assert a.column_indices == b.column_indices
        assert a.err == b.err

    @pytest.mark.parametrize("exact_counts", [False, True])
    def test_a_memo_warm_dataset_gives_the_fresh_result(self, exact_counts):
        warm = random_dataset(16, d=6, n=9)
        for seed in range(6):  # fills the memo: rank, SVDs, pseudoinverses
            rcur(warm, RcurConfig(k=2, m=4, r=3, seed=seed, exact_counts=exact_counts))
        for seed in range(6):
            cfg = RcurConfig(k=2, m=4, r=3, seed=seed, exact_counts=exact_counts)
            a, b = rcur(warm, cfg), rcur(Dataset(warm.matrix), cfg)
            assert np.array_equal(a.c, b.c) and np.array_equal(a.u, b.u)
            assert np.array_equal(a.r, b.r)
            assert (a.column_indices, a.row_indices) == (b.column_indices, b.row_indices)
            assert a.err == b.err and a.svd_err_k == b.svd_err_k

    def test_checks_still_run_on_a_memo_warm_dataset(self, monkeypatch):
        rng = np.random.default_rng(8)
        low = Dataset(rng.normal(size=(5, 2)) @ rng.normal(size=(2, 6)))
        rcur(low, RcurConfig(k=1, m=3, r=3, seed=0))
        for _ in range(2):
            with pytest.raises(ValueError, match="rank"):
                rcur(low, RcurConfig(k=2, m=3, r=3, seed=0))
        flat = Dataset(np.eye(4))
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="not unique"):
                leverage_scores(flat, 2)
        ds = random_dataset(17, d=5, n=7)
        cur_from_indices(ds, [0, 1], [0, 1], k=1)
        core = baselines_mod._cur_core
        monkeypatch.setattr(baselines_mod, "_cur_core", lambda *a: (*core(*a)[:3], 0.0))
        for _ in range(2):
            with pytest.raises(RuntimeError, match="lower bound"):
                cur_from_indices(ds, [0, 1], [0, 1], k=1)

    def test_rcur_still_raises_below_the_lower_bound(self, monkeypatch):
        ds = random_dataset(17, d=5, n=7)
        core = baselines_mod._cur_core
        monkeypatch.setattr(baselines_mod, "_cur_core", lambda *a: (*core(*a)[:3], 0.0))
        for exact_counts in (False, True):
            with pytest.raises(RuntimeError, match="lower bound"):
                rcur(ds, RcurConfig(k=1, m=3, r=3, seed=0, exact_counts=exact_counts))

    def test_exact_counts_mode(self):
        ds = random_dataset(7, d=6, n=9)
        res = rcur(ds, RcurConfig(k=2, m=4, r=3, seed=2, exact_counts=True))
        assert len(res.column_indices) == 4
        assert len(res.row_indices) == 3

    @pytest.mark.parametrize("change, message", [
        ({"k": True}, "k must be an integer >= 1, got True"),
        ({"k": 1.5}, "k must be an integer >= 1, got 1.5"),
        ({"k": 0}, "k must be an integer >= 1, got 0"),
        ({"m": 2.5}, "m must be an integer >= 1, got 2.5"),
        ({"r": "3"}, "r must be an integer >= 1, got '3'"),
        ({"r": 0}, "r must be an integer >= 1, got 0"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"seed": 0.5}, "seed must be an integer >= 0, got 0.5"),
    ], ids=["k-bool", "k-float", "k-zero", "m-float", "r-string", "r-zero",
            "seed-negative", "seed-float"])
    def test_a_count_or_seed_that_is_no_integer_in_range_is_rejected(self, change, message):
        # a bool k used to fail inside numpy, a float k or m with an
        # IndexError or a TypeError
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RcurConfig(**{"k": 2, "m": 4, "r": 3, **change})

    def test_k_at_or_above_rank_rejected(self):
        rng = np.random.default_rng(8)
        low = rng.normal(size=(5, 2)) @ rng.normal(size=(2, 6))
        with pytest.raises(ValueError, match="rank"):
            rcur(Dataset(low), RcurConfig(k=2, m=3, r=3, seed=0))

    def test_never_beats_svd_lower_bound(self):
        for seed in range(10):
            ds = random_dataset(100 + seed, d=6, n=8)
            res = rcur(ds, RcurConfig(k=2, m=4, r=4, seed=seed))
            q = min(len(res.column_indices), len(res.row_indices))
            s = np.linalg.svd(ds.matrix, compute_uv=False)
            assert res.err >= float((s[q:] ** 2).sum()) - 1e-9

    def test_relative_error_on_low_rank_plus_noise(self):
        ok = 0
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            x = rng.normal(size=(30, 3)) @ rng.normal(size=(3, 40))
            x += 0.05 * rng.normal(size=(30, 40))
            ds = Dataset(x)
            res = rcur(ds, RcurConfig(k=3, m=15, r=12, seed=seed))
            if res.err <= 2.0 * res.svd_err_k:
                ok += 1
        assert ok >= 8
