import math
import re
import warnings
from dataclasses import fields
from itertools import combinations, product

import numpy as np
import pytest

import alfs.data as data_mod
import alfs.selection as selection_mod
from alfs import (
    Dataset,
    SelectionRequest,
    oracle_best_subsets,
    rank_and_select,
    reconstruction_error,
)

from conftest import random_dataset


def _pair_error_with_matmul(x, samples, features):
    """A pair's error written with ``@``: the reference the oracle's path must
    match bit for bit."""
    c, r = x[:, list(samples)], x[list(features), :]
    u = (np.linalg.pinv(c, rcond=1e-10) @ x) @ np.linalg.pinv(r, rcond=1e-10)
    resid = x - c @ u @ r
    return float((resid * resid).sum())


class TestRankAndSelect:
    def test_descending_row_norms(self):
        w = np.diag([3.0, 1.0, 2.0])  # row norms 3, 1, 2
        sel = rank_and_select(w, SelectionRequest(2, 3))
        assert sel.selected_samples == (0, 2)
        assert sel.sample_ranking == (0, 2, 1)
        assert sel.sample_scores == (3.0, 2.0, 1.0)

    def test_ties_break_by_ascending_index(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        sel = rank_and_select(w, SelectionRequest(3, 2))
        assert sel.sample_ranking == (2, 0, 1)

    def test_all_zero_w_selects_index_zero_with_warning(self):
        sel = rank_and_select(np.zeros((3, 2)), SelectionRequest(1, 1))
        assert sel.selected_samples == (0,)
        assert sel.low_score_warning

    def test_budget_out_of_range(self):
        with pytest.raises(ValueError):
            rank_and_select(np.ones((3, 2)), SelectionRequest(4, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_w_is_rejected(self, bad):
        # its scores would be NaN or infinite, in no score order
        w = np.ones((4, 3))
        w[1, 2] = bad
        with pytest.raises(ValueError, match="^w contains non-finite entries$"):
            rank_and_select(w, SelectionRequest(2, 2))
        with pytest.raises(ValueError, match="^w contains non-finite entries$"):
            rank_and_select(np.full((4, 3), bad), SelectionRequest(2, 2))

    def test_a_w_whose_squares_overflow_is_scored_without_a_warning(self):
        # the squares of 1e200 overflow: the scores are taken at a power-of-two scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sel = rank_and_select(np.full((4, 3), 1e200), SelectionRequest(2, 2))
            assert sel.sample_scores == (np.sqrt(3.0) * 1e200,) * 4
            assert sel.feature_scores == (2e200,) * 3
            assert sel.sample_ranking == (0, 1, 2, 3)
            w = np.full((4, 3), 1e200) * np.array([[1.0], [3.0], [2.0], [4.0]])
            w[:, 1] *= 5.0
            sel = rank_and_select(w, SelectionRequest(2, 2))
        assert sel.sample_ranking == (3, 1, 2, 0)
        assert sel.feature_ranking == (1, 0, 2)
        assert sel.sample_scores[0] == pytest.approx(4e200 * np.sqrt(27.0), rel=1e-15)

    def test_norms_that_overflow_still_rank_by_size(self):
        # both row norms overflow to inf; ranked at scale, the larger comes first
        w = np.array([[1.5e308, 1.5e308], [1.6e308, 1.6e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = rank_and_select(w, SelectionRequest(1, 1))
            cols = rank_and_select(w.T, SelectionRequest(1, 1))
        assert rows.sample_ranking == (1, 0)
        assert cols.feature_ranking == (1, 0)
        # the reported scores are the scaled-back norms, which overflow
        assert rows.sample_scores == cols.feature_scores == (np.inf, np.inf)

    @pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100, 1e150], ids=str)
    def test_a_w_that_scores_finitely_keeps_the_bits_of_its_norms(self, scale):
        # normal norms, and the exact zeros of a zero row and column
        w = np.random.default_rng(8).normal(size=(7, 5)) * scale
        w[2, :] = 0.0
        w[:, 3] = 0.0
        sel = rank_and_select(w, SelectionRequest(2, 2))
        for axis, ranking, scores in ((1, sel.sample_ranking, sel.sample_scores),
                                      (0, sel.feature_ranking, sel.feature_scores)):
            norms = np.linalg.norm(w, axis=axis)
            order = np.argsort(-norms, kind="stable")
            assert ranking == tuple(order.tolist())
            assert scores == tuple(norms[order].tolist())

    def test_norms_that_underflow_still_rank_by_size(self):
        # the squares of 1e-170 underflow: every plain norm read 0.0, and
        # the ties went to ascending index
        w = np.random.default_rng(0).normal(size=(6, 4))
        plain = rank_and_select(w, SelectionRequest(2, 2))
        tiny = rank_and_select(w * 1e-170, SelectionRequest(2, 2))
        assert plain.sample_ranking == tiny.sample_ranking == (3, 1, 2, 5, 4, 0)
        assert plain.feature_ranking == tiny.feature_ranking
        np.testing.assert_allclose(tiny.sample_scores, np.array(plain.sample_scores) * 1e-170,
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(tiny.feature_scores,
                                   np.array(plain.feature_scores) * 1e-170, rtol=1e-14, atol=0)
        # rows whose entries are equal, and not zero, are told apart too
        rows = rank_and_select(np.array([[1e-170, 1e-170], [2e-170, 2e-170]]),
                               SelectionRequest(1, 1))
        assert rows.sample_ranking == (1, 0)

    @pytest.mark.parametrize("m, r, name", [
        (2.5, 1, "m"), (2.0, 1, "m"), (2, True, "r"), (0, 1, "m"), (1, -1, "r"),
    ])
    def test_budgets_must_be_positive_integers(self, m, r, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            SelectionRequest(m, r)

    def test_scale_equivariant_ordering(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(6, 4))
        a = rank_and_select(w, SelectionRequest(3, 2))
        b = rank_and_select(2.5 * w, SelectionRequest(3, 2))
        assert a.sample_ranking == b.sample_ranking
        assert a.feature_ranking == b.feature_ranking


class TestReconstructionError:
    def test_full_selection_is_exact(self):
        ds = random_dataset(1, d=4, n=6)
        err = reconstruction_error(ds, range(6), range(4))
        assert err == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_residual_case(self):
        ds = Dataset(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        err = reconstruction_error(ds, [0], [0, 1])
        assert err == pytest.approx(1.0, abs=1e-12)

    def test_at_least_svd_truncation_error(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(2, d=4, n=5)
        s = np.linalg.svd(ds.matrix, compute_uv=False)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            r = int(rng.integers(1, 5))
            samples = rng.choice(5, size=m, replace=False)
            features = rng.choice(4, size=r, replace=False)
            err = reconstruction_error(ds, samples, features)
            q = min(m, r)
            assert err >= float((s[q:] ** 2).sum()) - 1e-9

    def test_empty_set_rejected(self):
        ds = random_dataset(3, d=3, n=3)
        with pytest.raises(ValueError):
            reconstruction_error(ds, [], [0])

    @pytest.mark.parametrize("bad, shown", [
        ([0.7, 1], "0.7"), (["1", 2], "'1'"), ([True, 2], "True"), ([1, True], "True"),
        (np.array([True, False, True, False]), "np.True_"),
    ], ids=["float", "str", "bool", "bool-after-its-int", "numpy-mask"])
    def test_an_index_that_is_no_integer_is_rejected(self, bad, shown):
        # int() used to read 0.7 as 0, '1' and True as 1, and a mask as {0, 1}
        ds = random_dataset(9, d=4, n=4)
        with pytest.raises(ValueError, match=f"^sample index must be an integer, got {re.escape(shown)}$"):
            reconstruction_error(ds, bad, [0])
        with pytest.raises(ValueError, match=f"^feature index must be an integer, got {re.escape(shown)}$"):
            reconstruction_error(ds, [0], bad)

    def test_numpy_integers_and_ranges_are_index_sets(self):
        ds = random_dataset(10, d=4, n=5)
        want = reconstruction_error(ds, [0, 2], [1, 3])
        assert reconstruction_error(ds, np.array([2, 0, 2]), (np.int64(3), np.uint8(1))) == want
        assert reconstruction_error(ds, range(0, 3, 2), [np.int32(1), 3]) == want

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_every_pair_has_the_bits_of_the_matmul_expression(self, order):
        # the layout steers the BLAS path: load_csv returns F-ordered matrices
        ds = Dataset(np.asarray(random_dataset(11, d=5, n=7).matrix, order=order))
        assert ds.matrix.flags[f"{order}_CONTIGUOUS"]
        sets = {k: [c for size in (1, 2, 3) for c in combinations(range(k), size)] for k in (5, 7)}
        for s, f in product(sets[7], sets[5]):
            assert reconstruction_error(ds, s, f) == _pair_error_with_matmul(ds.matrix, s, f)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(4, d=3, n=6)
        perm = rng.permutation(6)
        permuted = Dataset(ds.matrix[:, perm])
        s = [1, 3, 4]
        s_perm = [int(np.where(perm == j)[0][0]) for j in s]
        a = reconstruction_error(ds, s, [0, 2])
        b = reconstruction_error(permuted, s_perm, [0, 2])
        assert a == pytest.approx(b, abs=1e-10)


class TestOracle:
    def test_exact_span_tiny_case(self):
        ds = Dataset(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        s, f, err = oracle_best_subsets(ds, SelectionRequest(2, 2))
        assert err == pytest.approx(0.0, abs=1e-12)
        assert s == (0, 1)

    def test_full_budgets_are_exact(self):
        ds = random_dataset(5, d=3, n=4)
        _, _, err = oracle_best_subsets(ds, SelectionRequest(4, 3))
        assert err == pytest.approx(0.0, abs=1e-10)

    def test_matches_independent_enumeration(self):
        # recompute the full enumeration here with its own loop order
        ds = random_dataset(6, d=5, n=6)
        s, f, err = oracle_best_subsets(ds, SelectionRequest(2, 2))
        best = np.inf
        count = 0
        for ff in combinations(range(5), 2):
            for ss in combinations(range(6), 2):
                count += 1
                e = reconstruction_error(ds, ss, ff)
                best = min(best, e)
                assert err <= e + 1e-12
        assert count == 150
        assert err == pytest.approx(best, abs=1e-12)

    def test_each_pair_is_one_reconstruction_error_call(self, monkeypatch):
        # the traced benchmark expects C(n, m) * C(d, r) calls of an oracle
        ds = random_dataset(12, d=5, n=6)
        seen = []

        def spy(data, samples, features):
            seen.append((samples, features))
            return reconstruction_error(data, samples, features)

        monkeypatch.setattr(selection_mod, "reconstruction_error", spy)
        s, f, err = oracle_best_subsets(ds, SelectionRequest(3, 2))
        assert len(seen) == math.comb(6, 3) * math.comb(5, 2)
        assert seen == list(product(combinations(range(6), 3), combinations(range(5), 2)))
        errors = [reconstruction_error(ds, *pair) for pair in seen]
        assert (s, f, err) == (*seen[errors.index(min(errors))], min(errors))

    def test_enumeration_guard(self):
        ds = random_dataset(7, d=30, n=40)
        with pytest.raises(ValueError, match="too large"):
            oracle_best_subsets(ds, SelectionRequest(20, 15))

    def test_budget_monotonicity(self):
        ds = random_dataset(8, d=4, n=5)
        grid = {}
        for m in (1, 2, 3):
            for r in (1, 2, 3):
                grid[m, r] = oracle_best_subsets(ds, SelectionRequest(m, r))[2]
        for m in (1, 2):
            for r in (1, 2):
                assert grid[m + 1, r] <= grid[m, r] + 1e-12
                assert grid[m, r + 1] <= grid[m, r] + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d, n, m, r", [(5, 6, 2, 2), (8, 10, 3, 2)])
    def test_memoized_oracle_equals_a_memo_free_brute_force(self, seed, d, n, m, r):
        # a fresh Dataset per pair shares no memoized pseudoinverse
        ds = random_dataset(seed, d=d, n=n)
        best = None
        for s in combinations(range(n), m):
            for f in combinations(range(d), r):
                err = reconstruction_error(Dataset(ds.matrix), s, f)
                if best is None or err < best[2]:
                    best = (s, f, err)
        assert oracle_best_subsets(ds, SelectionRequest(m, r)) == best


class TestMemo:
    def test_the_memo_is_not_a_field(self):
        ds = random_dataset(0, d=4, n=6)
        reconstruction_error(ds, [0, 1], [0, 1])
        assert [f.name for f in fields(Dataset)] == ["matrix", "feature_names", "labels", "source"]
        assert "_derived" not in repr(ds)

    def test_bytes_stay_within_the_bound_and_eviction_is_lru(self, monkeypatch):
        ds = random_dataset(1, d=4, n=6)
        # two samples keep C (4x2, 64 bytes) and C+ X (2x6, 96); two features
        # keep R (2x6, 96) and R+ (6x2, 96)
        monkeypatch.setattr(data_mod, "MEMO_BYTES", 3 * (64 + 96) + (96 + 96))
        memo = ds._derived
        f = (0, 1)
        calls = [(0, 1), (0, 2), (0, 3), (0, 1), (0, 4), (0, 2)]
        for s in calls:
            assert reconstruction_error(ds, s, f) == reconstruction_error(Dataset(ds.matrix), s, f)
            assert memo.nbytes == sum(size for _, size in memo.values()) <= data_mod.MEMO_BYTES
        # (0, 2) was the least recently used when (0, 4) arrived, then (0, 3)
        assert list(memo) == [
            ("cur_c", (0, 1)), ("cur_c", (0, 4)), ("cur_c", (0, 2)), ("cur_r", f),
        ]
        assert all(not a.flags.writeable for value, _ in memo.values() for a in value)

    def test_a_value_above_the_bound_is_returned_but_not_kept(self, monkeypatch):
        ds = random_dataset(2, d=4, n=6)
        monkeypatch.setattr(data_mod, "MEMO_BYTES", 64)
        value = data_mod._memo(ds, "big", lambda: np.zeros(9))
        assert value.shape == (9,) and not value.flags.writeable
        assert len(ds._derived) == 0 and ds._derived.nbytes == 0
