import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import alfs.bench as bench_mod
from alfs import (
    BenchSpec,
    Dataset,
    GridProtocol,
    RcurConfig,
    RegularizationParams,
    SelectionRequest,
    SolverConfig,
    SplitSpec,
    grid_search,
    knn_classify,
    load_csv,
    random_sampling,
    rank_and_select,
    rcur,
    run_curve,
    solve,
    split,
    variance_feature_select,
    write_curves_csv,
)
from alfs.bench import GRID_DEFAULT
from alfs.cli import main

from conftest import TINY_CSV, make_clusters, random_dataset

FAST_SOLVER = SolverConfig(tau=1.5)
GOLDEN = Path(__file__).resolve().parent / "golden"


def failing_grid_document() -> str:
    """``grid_search`` on the bundled data over (0.1, 1e308), where every cell
    with a weight of 1e308 fails: each cell's weights and score ``repr``, or
    its failure text, as JSON."""
    train = load_csv(TINY_CSV, label_column="label")
    result = grid_search(train, GridProtocol(m=3), grid=(0.1, 1e308))
    failures = dict(result.failures)
    cells = [
        {"alpha": params.alpha, "beta": params.beta, "eta": params.eta,
         **({"failure": failures[params]} if score is None else {"score": repr(score)})}
        for params, score in result.scores
    ]
    return json.dumps(cells, indent=1, sort_keys=True) + "\n"


def grid_scores_document() -> str:
    """The grid search of CI's bench step with ``alfs_grid`` (0.1, 10): the
    bundled data's training split (5 of 8 samples, seed 0), m = 2. The
    winning weights and each cell's weights and score ``repr``, as JSON."""
    train, _ = split(load_csv(TINY_CSV, label_column="label"), SplitSpec(n_train=5, seed=0))
    result = grid_search(train, GridProtocol(m=2), grid=(0.1, 10))

    def weights(params):
        return {"alpha": params.alpha, "beta": params.beta, "eta": params.eta}

    document = {
        "best_params": weights(result.best_params),
        "cells": [{**weights(params), "score": repr(score)} for params, score in result.scores],
    }
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def per_column_knn_accuracy(train, test):
    """1-NN accuracy with one test column at a time and ties to the lowest
    training index: the per-cell classifier curves were once scored with."""
    points = train.matrix.T
    hits = 0
    for col, label in zip(test.matrix.T, test.labels):
        diff = col - points
        hits += train.labels[int(np.argmin((diff * diff).sum(axis=1)))] == label
    return hits / test.n_samples


class TestKnnClassify:
    def test_memorizes_training_points(self):
        train = Dataset(np.array([[0.0, 5.0], [0.0, 5.0]]), labels=("a", "b"))
        preds, acc = knn_classify(train, train)
        assert preds == ("a", "b")
        assert acc == 1.0

    def test_two_clusters(self):
        rng = np.random.default_rng(0)
        left = np.array([-10.0, 0.0])[:, None] + 0.5 * rng.normal(size=(2, 20))
        right = np.array([10.0, 0.0])[:, None] + 0.5 * rng.normal(size=(2, 20))
        x = np.concatenate([left, right], axis=1)
        labels = ("L",) * 20 + ("R",) * 20
        ds = Dataset(x, labels=labels)
        train, test = split(ds, SplitSpec(n_train=20, seed=1))
        _, acc = knn_classify(train, test)
        assert acc == 1.0

    def test_random_labels_hit_chance_level(self):
        rng = np.random.default_rng(2)
        train = Dataset(
            rng.normal(size=(5, 40)), labels=tuple(rng.integers(0, 4, size=40))
        )
        test = Dataset(
            rng.normal(size=(5, 400)), labels=tuple(rng.integers(0, 4, size=400))
        )
        _, acc = knn_classify(train, test)
        sigma = np.sqrt(0.25 * 0.75 / 400)
        assert abs(acc - 0.25) <= 3 * sigma

    def test_distance_ties_break_by_training_index(self):
        # two training points equidistant from the test point
        train = Dataset(np.array([[1.0, -1.0]]), labels=("first", "second"))
        test = Dataset(np.array([[0.0]]))
        preds, _ = knn_classify(train, test)
        assert preds == ("first",)

    @given(st.data())
    def test_predicts_the_first_nearest_training_column(self, data):
        d = data.draw(st.integers(1, 3), label="d")
        coords = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
        # few distinct training columns, drawn with repetition, so that
        # exact distance ties (duplicates and mirror images) are common
        distinct = data.draw(st.lists(coords, min_size=1, max_size=4), label="distinct")
        picks = data.draw(
            st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8),
            label="picks",
        )
        train_cols = [distinct[i] for i in picks]
        test_cols = data.draw(st.lists(coords, min_size=1, max_size=5), label="test")
        # label = training index, so a prediction names the chosen column
        train = Dataset(np.array(train_cols, dtype=float).T, labels=tuple(range(len(picks))))
        test = Dataset(np.array(test_cols, dtype=float).T)

        expected = []
        for t in test_cols:
            d2 = [sum((a - b) ** 2 for a, b in zip(t, x)) for x in train_cols]
            expected.append(d2.index(min(d2)))
        preds, acc = knn_classify(train, test)
        assert preds == tuple(expected)
        assert acc is None

    @given(st.data())
    def test_a_pass_classifies_each_selection_in_its_own_order(self, data):
        d = data.draw(st.integers(1, 3), label="d")
        coords = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
        distinct = data.draw(st.lists(coords, min_size=1, max_size=3), label="distinct")
        picks = data.draw(
            st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8), label="picks"
        )
        train_cols = [distinct[i] for i in picks]
        test_cols = data.draw(st.lists(coords, min_size=1, max_size=7), label="test")
        # unsorted selections and feature sets, as ranked selections give them
        index = st.lists(st.integers(0, len(picks) - 1), min_size=1, unique=True)
        selections = data.draw(st.lists(index, min_size=1, max_size=4), label="selections")
        features = data.draw(
            st.none() | st.lists(st.integers(0, d - 1), min_size=1, unique=True), label="features"
        )
        rows = range(d) if features is None else features
        train = Dataset(np.array(train_cols, dtype=float).T, labels=tuple(range(len(picks))))
        test = Dataset(np.array(test_cols, dtype=float).T)
        block_bytes = data.draw(st.integers(8, 8 * 2 * len(picks)), label="block bytes")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bench_mod, "KNN_BLOCK_BYTES", block_bytes)
            predicted = bench_mod._nearest_labels(train, test, selections, features)

        for chosen, predictions in zip(selections, predicted):
            expected = []
            for t in test_cols:
                d2 = [sum((t[f] - train_cols[j][f]) ** 2 for f in rows) for j in chosen]
                expected.append(chosen[d2.index(min(d2))])
            assert predictions == tuple(expected)

    def test_memory_does_not_grow_with_the_test_set(self):
        rng = np.random.default_rng(7)
        d, n_train, n_test = 20, 800, 400
        train = Dataset(rng.normal(size=(d, n_train)), labels=tuple(range(n_train)))
        test = Dataset(rng.normal(size=(d, n_test)))
        full_tensor = 8 * n_test * n_train * d
        assert full_tensor >= 50e6
        tracemalloc.start()
        try:
            knn_classify(train, test)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_tensor / 10

    def test_validation(self):
        labeled = Dataset(np.ones((2, 3)), labels=("a", "b", "a"))
        bare = Dataset(np.ones((2, 3)))
        with pytest.raises(ValueError, match="labels"):
            knn_classify(bare, labeled)


def small_clusters():
    ds = make_clusters(n=60, d=10, n_classes=3, sep=8.0, noise=1.0, seed=21)
    return split(ds, SplitSpec(n_train=40, seed=2))


class TestRunCurve:
    def test_full_budget_equals_full_data_accuracy(self):
        train, test = small_clusters()
        spec = BenchSpec(
            method="random", sample_budgets=(train.n_samples,), repeats=3, seed=5
        )
        curve = run_curve(train, test, spec)
        _, full_acc = knn_classify(train, test)
        assert curve.mean_accuracy == (full_acc,) and set(
            curve.per_repeat[0]
        ) == {full_acc}

    @pytest.mark.parametrize("method", ["random", "rcur"])
    def test_a_recurring_selection_is_classified_once(self, monkeypatch, method):
        # at the full budget every repeat selects every sample
        train, test = small_clusters()
        scored = []
        original = bench_mod._nearest_labels

        def counting_pass(train_ds, test_ds, selections, features=None):
            scored.extend(len(s) for s in selections)
            return original(train_ds, test_ds, selections, features)

        monkeypatch.setattr(bench_mod, "_nearest_labels", counting_pass)
        spec = BenchSpec(method=method, sample_budgets=(5, train.n_samples), repeats=3, seed=2)
        curve = run_curve(train, test, spec)
        assert scored.count(train.n_samples) == 1
        full = curve.per_repeat[1]
        assert full == (full[0],) * 3 and full[0] == knn_classify(train, test)[1]

    @pytest.mark.parametrize("method, budgets", [
        ("random", {"sample_budgets": (5, 40)}),
        ("rcur", {"sample_budgets": (5, 40)}),
        ("variance+random", {"sample_budgets": (40,), "feature_budgets": (3, 10)}),
    ], ids=["random", "rcur", "variance+random"])
    def test_each_distinct_selection_is_scored_once_in_one_pass_per_feature_set(
        self, monkeypatch, method, budgets
    ):
        # at the full budget every repeat selects every sample
        train, test = small_clusters()
        passes = []
        original = bench_mod._nearest_labels

        def counting_pass(train_ds, test_ds, selections, features=None):
            passes.append((features, list(selections)))
            return original(train_ds, test_ds, selections, features)

        monkeypatch.setattr(bench_mod, "_nearest_labels", counting_pass)
        spec = BenchSpec(method=method, repeats=3, seed=2, rcur_rank=3, **budgets)
        curve = run_curve(train, test, spec)

        runner = bench_mod._MethodRunner(train.without_labels(), spec)
        cells = [
            runner.select(40, b, 2 + t) if spec.feature_budgets else runner.select(b, None, 2 + t)
            for b in curve.budgets for t in range(3)
        ]
        feature_sets = list(dict.fromkeys(feats for _, feats in cells))
        assert [features for features, _ in passes] == feature_sets
        for features, selections in passes:
            assert selections == list(dict.fromkeys(s for s, f in cells if f == features))
        scored = [s for _, selections in passes for s in selections]
        if not spec.feature_budgets:
            assert scored.count(tuple(range(40))) == 1
            full = curve.per_repeat[1]
            assert full == (full[0],) * 3 and full[0] == knn_classify(train, test)[1]

    def test_a_failing_pass_fails_exactly_the_cells_it_scores(self, monkeypatch):
        train, test = small_clusters()
        spec = BenchSpec(method="variance+random", sample_budgets=(10,),
                         feature_budgets=(3, 5), repeats=3, seed=0)
        clean = run_curve(train, test, spec)
        calls = {"count": 0}
        original = bench_mod._nearest_labels

        def flaky_pass(*args):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("boom")
            return original(*args)

        monkeypatch.setattr(bench_mod, "_nearest_labels", flaky_pass)
        with pytest.raises(bench_mod.BenchMethodError, match="budget 3") as exc_info:
            run_curve(train, test, spec)
        partial = exc_info.value.partial
        assert partial.failures == tuple((3, t, "RuntimeError: boom") for t in range(3))
        assert partial.per_repeat == ((None,) * 3, clean.per_repeat[1])
        assert calls["count"] == 2

    def test_a_failing_pass_keeps_the_failures_in_cell_order(self, monkeypatch):
        # a selection failure (cell 1) and a pass failure (every cell) interleave
        train, test = small_clusters()
        original = bench_mod.random_sampling
        calls = {"count": 0}

        def flaky_select(n, m, seed):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("no selection")
            return original(n, m, seed)

        def broken_pass(*args):
            raise RuntimeError("no pass")

        monkeypatch.setattr(bench_mod, "random_sampling", flaky_select)
        monkeypatch.setattr(bench_mod, "_nearest_labels", broken_pass)
        spec = BenchSpec(method="random", sample_budgets=(3,), repeats=3, seed=0)
        with pytest.raises(bench_mod.BenchMethodError) as exc_info:
            run_curve(train, test, spec)
        assert exc_info.value.partial.failures == (
            (3, 0, "RuntimeError: no pass"),
            (3, 1, "RuntimeError: no selection"),
            (3, 2, "RuntimeError: no pass"),
        )

    @given(st.data())
    def test_every_accuracy_equals_per_cell_classification(self, data):
        # integer coordinates drawn from a few distinct columns (and their
        # mirror images) make exact distance ties common; a small block size
        # splits the test set unevenly
        d = data.draw(st.integers(1, 3), label="d")
        coords = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
        distinct = data.draw(st.lists(coords, min_size=1, max_size=4), label="distinct")
        if data.draw(st.booleans(), label="mirror"):
            distinct += [[-v for v in col] for col in distinct]
        picks = data.draw(
            st.lists(st.integers(0, len(distinct) - 1), min_size=2, max_size=10), label="picks"
        )
        n_train = len(picks)
        train = Dataset(
            np.array([distinct[i] for i in picks], dtype=float).T,
            labels=tuple(data.draw(st.lists(st.integers(0, 2), min_size=n_train, max_size=n_train),
                                   label="train labels")),
        )
        n_test = data.draw(st.integers(1, 9), label="n_test")
        test = Dataset(
            np.array(data.draw(st.lists(coords, min_size=n_test, max_size=n_test), label="test"),
                     dtype=float).T,
            labels=tuple(data.draw(st.lists(st.integers(0, 2), min_size=n_test, max_size=n_test),
                                   label="test labels")),
        )
        budget = st.lists(st.integers(1, n_train), min_size=1, max_size=3, unique=True)
        if data.draw(st.booleans(), label="feature curve"):
            spec = BenchSpec(
                method="variance+random",
                sample_budgets=(data.draw(st.integers(1, n_train), label="m"),),
                feature_budgets=tuple(data.draw(
                    st.lists(st.integers(1, d), min_size=1, max_size=d, unique=True),
                    label="feature budgets")),
                repeats=data.draw(st.integers(1, 3), label="repeats"),
                seed=data.draw(st.integers(0, 5), label="seed"),
            )
        else:
            spec = BenchSpec(
                method="random",
                sample_budgets=tuple(data.draw(budget, label="sample budgets")),
                repeats=data.draw(st.integers(1, 3), label="repeats"),
                seed=data.draw(st.integers(0, 5), label="seed"),
            )
        block_bytes = data.draw(st.integers(8, 8 * 3 * n_train), label="block bytes")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bench_mod, "KNN_BLOCK_BYTES", block_bytes)
            curve = run_curve(train, test, spec)

        runner = bench_mod._MethodRunner(train.without_labels(), spec)
        for i, b in enumerate(curve.budgets):
            for t in range(spec.repeats):
                if spec.feature_budgets:
                    samples, feats = runner.select(spec.sample_budgets[0], b, spec.seed + t)
                    labeled = train.restrict(samples=list(samples), features=list(feats))
                    test_view = test.restrict(features=list(feats))
                else:
                    samples, _ = runner.select(b, None, spec.seed + t)
                    labeled, test_view = train.restrict(samples=list(samples)), test
                assert curve.per_repeat[i][t] == per_column_knn_accuracy(labeled, test_view)

    def test_memory_stays_below_a_test_by_train_table(self):
        rng = np.random.default_rng(8)
        d, n_train, n_test = 4, 2000, 1000
        train = Dataset(rng.normal(size=(d, n_train)), labels=tuple(rng.integers(0, 3, n_train)))
        test = Dataset(rng.normal(size=(d, n_test)), labels=tuple(rng.integers(0, 3, n_test)))
        table = 8 * n_test * n_train
        assert table >= 10 * bench_mod.KNN_BLOCK_BYTES
        spec = BenchSpec(method="random", sample_budgets=(10, n_train), repeats=2, seed=0)
        tracemalloc.start()
        try:
            run_curve(train, test, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table

    def test_variance_features_are_restricted_once_per_budget(self, monkeypatch):
        train, test = small_clusters()
        calls = []
        original = bench_mod.variance_feature_select

        def counting_var(ds, r):
            calls.append(r)
            return original(ds, r)

        monkeypatch.setattr(bench_mod, "variance_feature_select", counting_var)
        spec = BenchSpec(
            method="variance+rcur", sample_budgets=(6,), feature_budgets=(3, 5),
            repeats=3, seed=1,
        )
        run_curve(train, test, spec)
        assert calls == [3, 5]

    def test_deterministic_per_seed(self):
        train, test = small_clusters()
        spec = BenchSpec(method="random", sample_budgets=(4, 8), repeats=2, seed=9)
        a = run_curve(train, test, spec)
        b = run_curve(train, test, spec)
        assert a == b

    def test_means_average_per_repeat_values(self):
        train, test = small_clusters()
        spec = BenchSpec(method="random", sample_budgets=(3, 6), repeats=5, seed=1)
        curve = run_curve(train, test, spec)
        for mean, values in zip(curve.mean_accuracy, curve.per_repeat):
            assert mean == pytest.approx(sum(values) / len(values), abs=1e-12)
        assert all(0.0 <= v <= 1.0 for vals in curve.per_repeat for v in vals)

    def test_alfs_beats_random_on_planted_clusters(self):
        # needs enough samples per cluster for the reconstruction term to
        # spread representatives across all three clusters
        ds = make_clusters(n=120, d=30, n_classes=3, sep=8.0, noise=1.0, seed=11)
        train, test = split(ds, SplitSpec(n_train=80, seed=2))
        alfs_spec = BenchSpec(
            method="alfs",
            sample_budgets=(3,),
            repeats=10,
            seed=0,
            solver=FAST_SOLVER,
        )
        rand_spec = BenchSpec(
            method="random", sample_budgets=(3,), repeats=10, seed=0
        )
        alfs_curve = run_curve(train, test, alfs_spec)
        rand_curve = run_curve(train, test, rand_spec)
        assert alfs_curve.mean_accuracy[0] >= rand_curve.mean_accuracy[0]

    def test_feature_axis_curve(self):
        train, test = small_clusters()
        spec = BenchSpec(
            method="variance+random",
            sample_budgets=(10,),
            feature_budgets=(2, 5, 10),
            repeats=3,
            seed=3,
        )
        curve = run_curve(train, test, spec)
        assert curve.budget_axis == "features"
        assert curve.budgets == (2, 5, 10)
        assert len(curve.mean_accuracy) == 3

    def test_rcur_method_runs(self):
        train, test = small_clusters()
        spec = BenchSpec(
            method="rcur", sample_budgets=(5, 10), repeats=3, seed=4, rcur_rank=3
        )
        curve = run_curve(train, test, spec)
        assert len(curve.mean_accuracy) == 2
        assert not curve.failures

    @pytest.mark.parametrize("sampler", ["random", "alfs", "rcur"])
    def test_variance_plus_runs_the_plain_sampler_on_the_kept_features(self, sampler):
        train, _ = small_clusters()
        unlabeled = train.without_labels()
        spec = BenchSpec(
            method=f"variance+{sampler}",
            sample_budgets=(6,),
            feature_budgets=(4,),
            solver=FAST_SOLVER,
            rcur_rank=3,
        )
        samples, feats = bench_mod._MethodRunner(unlabeled, spec).select(6, 4, seed=3)

        assert feats == variance_feature_select(unlabeled, 4)
        reduced = unlabeled.restrict(features=list(feats))
        if sampler == "random":
            expected = random_sampling(reduced.n_samples, 6, 3)
        elif sampler == "alfs":
            w, _ = solve(reduced, RegularizationParams(), FAST_SOLVER)
            expected = rank_and_select(w, SelectionRequest(6, 4)).selected_samples
        else:
            cfg = RcurConfig(k=3, m=6, r=4, seed=3, exact_counts=True)
            expected = rcur(reduced, cfg).column_indices
        assert samples == expected

    def test_rcur_cells_select_the_indices_of_rcur(self):
        unlabeled = make_clusters(n=1000, d=80, n_classes=8, sep=4.0, seed=5).without_labels()
        runner = bench_mod._MethodRunner(unlabeled, BenchSpec(method="rcur", sample_budgets=(10,)))
        k = bench_mod._auto_rcur_rank(unlabeled)
        for seed in range(10):
            for m, r in ((10, None), (160, None), (40, 5), (40, 40)):
                cfg = RcurConfig(k=k, m=m, r=r or 80, seed=seed, exact_counts=True)
                res = rcur(unlabeled, cfg)
                samples, features = runner.select(m, r, seed)
                assert samples == res.column_indices
                assert features == (res.row_indices if r else None)

    @pytest.mark.parametrize("method, budgets", [
        ("rcur", {"sample_budgets": (5, 10, 40)}),
        ("variance+rcur", {"sample_budgets": (10,), "feature_budgets": (4, 6, 10)}),
    ], ids=["rcur", "variance+rcur"])
    def test_an_rcur_curve_memoizes_no_cur_factors(self, monkeypatch, method, budgets):
        # a drawn index set recurs only by chance, so its pinv would never be read
        runners = []

        class Recorded(bench_mod._MethodRunner):
            def __init__(self, *args):
                super().__init__(*args)
                runners.append(self)

        monkeypatch.setattr(bench_mod, "_MethodRunner", Recorded)
        train, test = small_clusters()
        run_curve(train, test, BenchSpec(method=method, repeats=3, rcur_rank=3, **budgets))
        (runner,) = runners
        seen = [runner.unlabeled] + [kept for _, kept in runner._variance_cache.values()]
        assert {key for ds in seen for key in ds._derived} == {"svd"}

    def test_budget_above_the_training_set_rejected(self):
        train, test = small_clusters()
        spec = BenchSpec(method="random", sample_budgets=(3, 41), repeats=1)
        with pytest.raises(ValueError, match="sample budget m=41 outside 1..40"):
            run_curve(train, test, spec)
        spec = BenchSpec(
            method="variance+random", sample_budgets=(3,), feature_budgets=(11,)
        )
        with pytest.raises(ValueError, match="feature budget r=11 outside 1..10"):
            run_curve(train, test, spec)

    @pytest.mark.parametrize("method, budgets", [
        ("random", {"sample_budgets": (3, 5, 3)}),
        ("variance+random", {"sample_budgets": (3,), "feature_budgets": (2, 2)}),
    ], ids=["samples", "features"])
    def test_repeated_budget_rejected(self, method, budgets):
        # a repeated budget would merge its rows with the first one's
        with pytest.raises(ValueError, match="must not repeat a budget"):
            BenchSpec(method=method, repeats=1, **budgets)

    def test_unlabeled_train_rejected(self):
        train, test = small_clusters()
        spec = BenchSpec(method="random", sample_budgets=(3,), repeats=1)
        with pytest.raises(ValueError, match="labels"):
            run_curve(train.without_labels(), test, spec)

    def test_selection_methods_never_see_labels(self, monkeypatch):
        train, test = small_clusters()
        seen = []

        original_solve = bench_mod.solve

        def spying_solve(ds, params, cfg, *, records):
            seen.append(ds.labels)
            return original_solve(ds, params, cfg, records=records)

        original_rcur = bench_mod._rcur_indices

        def spying_rcur(ds, cfg):
            seen.append(ds.labels)
            return original_rcur(ds, cfg)

        original_var = bench_mod.variance_feature_select

        def spying_var(ds, r):
            seen.append(ds.labels)
            return original_var(ds, r)

        monkeypatch.setattr(bench_mod, "solve", spying_solve)
        monkeypatch.setattr(bench_mod, "_rcur_indices", spying_rcur)
        monkeypatch.setattr(bench_mod, "variance_feature_select", spying_var)

        for spec in (
            BenchSpec(method="alfs", sample_budgets=(3,), repeats=1, solver=FAST_SOLVER),
            BenchSpec(method="rcur", sample_budgets=(3,), repeats=1, rcur_rank=3),
            BenchSpec(
                method="variance+random",
                sample_budgets=(5,),
                feature_budgets=(4,),
                repeats=1,
            ),
        ):
            run_curve(train, test, spec)
        assert seen and all(labels is None for labels in seen)

    def test_cell_failures_are_marked_and_partial_results_kept(self, monkeypatch):
        train, test = small_clusters()
        original = bench_mod.random_sampling
        calls = {"count": 0}

        def flaky(n, m, seed):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("boom")
            return original(n, m, seed)

        monkeypatch.setattr(bench_mod, "random_sampling", flaky)
        spec = BenchSpec(method="random", sample_budgets=(3,), repeats=3, seed=0)
        curve = run_curve(train, test, spec)
        assert len(curve.failures) == 1
        assert curve.failures[0][2].startswith("RuntimeError")
        assert curve.per_repeat[0].count(None) == 1

    def test_every_cell_failing_raises_with_the_partial_curve(self, monkeypatch):
        train, test = small_clusters()

        def broken(n, m, seed):
            raise RuntimeError("boom")

        monkeypatch.setattr(bench_mod, "random_sampling", broken)
        spec = BenchSpec(method="random", sample_budgets=(3, 5), repeats=2, seed=0)
        with pytest.raises(bench_mod.BenchMethodError, match="budget 3") as exc_info:
            run_curve(train, test, spec)
        partial = exc_info.value.partial
        assert partial.budgets == (3, 5)
        assert partial.mean_accuracy == ()
        assert partial.per_repeat == ((None, None), (None, None))
        assert len(partial.failures) == 4

    def test_alfs_grid_selects_params_once_per_curve(self, monkeypatch):
        train, test = small_clusters()
        calls = {"count": 0}
        original = bench_mod.solve

        def counting_solve(ds, params, cfg, *, records):
            # one call solves a whole grid: count the cells it solves
            single = isinstance(params, RegularizationParams)
            calls["count"] += 1 if single else len(params)
            return original(ds, params, cfg, records=records)

        monkeypatch.setattr(bench_mod, "solve", counting_solve)
        spec = BenchSpec(
            method="alfs",
            sample_budgets=(10,),
            repeats=2,
            seed=0,
            alfs_grid=(0.1, 1.0),
            solver=FAST_SOLVER,
        )
        curve = run_curve(train, test, spec)
        assert len(curve.mean_accuracy) == 1
        # 8 grid cells plus the single cached curve solve
        assert calls["count"] == 9

    def test_an_empty_alfs_grid_is_rejected(self):
        # None means no grid; an empty one used to fail later, in run_curve
        with pytest.raises(ValueError, match="alfs_grid must not be empty"):
            BenchSpec(method="alfs", sample_budgets=(3,), alfs_grid=())
        BenchSpec(method="alfs", sample_budgets=(3,), alfs_grid=None)

    def test_invalid_method_for_axis(self):
        with pytest.raises(ValueError, match="not valid"):
            BenchSpec(method="variance+random", sample_budgets=(3,), repeats=1)
        with pytest.raises(ValueError, match="not valid"):
            BenchSpec(
                method="random",
                sample_budgets=(3,),
                feature_budgets=(2,),
                repeats=1,
            )

    @pytest.mark.parametrize("budgets, rank", [((1, 2), None), ((3, 4), 3)],
                             ids=["auto-rank", "set-rank"])
    def test_variance_rcur_feature_budget_must_exceed_the_target_rank(self, budgets, rank):
        with pytest.raises(ValueError, match=f"variance\\+rcur needs feature budgets >= {budgets[1]}"):
            BenchSpec(method="variance+rcur", sample_budgets=(3,),
                      feature_budgets=budgets, rcur_rank=rank)
        BenchSpec(method="variance+rcur", sample_budgets=(3,),
                  feature_budgets=budgets[1:], rcur_rank=rank)
        # plain rcur ranks the full matrix, so a one-feature budget is fine
        BenchSpec(method="rcur", sample_budgets=(3,), feature_budgets=(1,), rcur_rank=rank)


class TestWriteCurvesCsv:
    def test_row_per_cell(self, tmp_path):
        train, test = small_clusters()
        spec = BenchSpec(method="random", sample_budgets=(2, 4), repeats=2, seed=7)
        curve = run_curve(train, test, spec)
        out = tmp_path / "curves.csv"
        write_curves_csv([curve], out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,budget,repeat,accuracy"
        assert len(lines) == 1 + 4  # 2 budgets x 2 repeats
        assert lines[1].startswith("random,2,0,")

    def test_bytes_match_the_recorded_curves(self, tmp_path):
        ds = make_clusters(n=90, d=12, n_classes=3, sep=2.5, noise=1.0, seed=5)
        train, test = split(ds, SplitSpec(n_train=60, seed=3))
        sample_axis = dict(sample_budgets=(3, 8, 60), repeats=3, seed=1)
        feature_axis = dict(sample_budgets=(12,), feature_budgets=(3, 6, 12), repeats=3, seed=1)
        curves = [
            run_curve(train, test, BenchSpec(method=m, **sample_axis)) for m in ("random", "rcur")
        ] + [
            run_curve(train, test, BenchSpec(method=m, **feature_axis))
            for m in ("variance+random", "variance+rcur")
        ]
        out = tmp_path / "curves.csv"
        write_curves_csv(curves, out)
        assert out.read_bytes() == (GOLDEN / "bench-curves.csv").read_bytes()

    @pytest.mark.parametrize("config, golden", [
        ({}, "tiny-alfs-curves.csv"),
        ({"bench": {"alfs_grid": [0.1, 10]}}, "tiny-alfs-grid-curves.csv"),
    ], ids=["default-weights", "grid"])
    def test_the_bundled_alfs_curves_are_the_recorded_ones(self, tmp_path, config, golden):
        # the bytes CI's bench step compares
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "curves.csv"
        assert main(["bench", "--data", str(TINY_CSV), "--label-column", "label",
                     "--methods", "alfs,random,rcur", "--budgets", "2:4:1", "--repeats", "2",
                     "--config", str(path), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()


class TestGridSearch:
    def test_single_point_grid(self):
        train = random_dataset(30, d=4, n=6)
        result = grid_search(
            train,
            GridProtocol(m=2, r=2),
            grid=(1.0,),
            solver_cfg=FAST_SOLVER,
        )
        assert result.n_solver_calls == 1
        assert result.best_params.alpha == 1.0
        assert result.best_params.gamma == 1.0

    def test_gamma_comes_from_base_params_unless_given(self):
        train = random_dataset(30, d=4, n=6)
        base = RegularizationParams(gamma=5.0)
        result = grid_search(
            train, GridProtocol(m=2, r=2), grid=(1.0,), base_params=base,
            solver_cfg=FAST_SOLVER,
        )
        assert result.best_params.gamma == 5.0
        result = grid_search(
            train, GridProtocol(m=2, r=2), grid=(1.0,), gamma=1.0, base_params=base,
            solver_cfg=FAST_SOLVER,
        )
        assert result.best_params.gamma == 1.0

    def test_labeled_data_is_unlabeled_once_per_grid(self, monkeypatch):
        # every cell's reconstruction score reads the grid's one unlabeled dataset
        train = Dataset(random_dataset(32, d=4, n=6).matrix, labels=tuple("abcabc"))
        calls = {"count": 0}
        original = Dataset.without_labels

        def counting(ds):
            calls["count"] += 1
            return original(ds)

        monkeypatch.setattr(Dataset, "without_labels", counting)
        result = grid_search(
            train, GridProtocol(m=2, r=2), grid=(0.1, 10.0), solver_cfg=FAST_SOLVER
        )
        assert calls["count"] == 1
        for params, score in result.scores:
            w, _ = solve(train.without_labels(), params, FAST_SOLVER)
            sel = rank_and_select(w, SelectionRequest(2, 2))
            fresh = Dataset(train.matrix)
            assert score == -bench_mod.reconstruction_error(
                fresh, sel.selected_samples, sel.selected_features)

    def test_full_grid_runs_64_solves(self):
        train = random_dataset(31, d=3, n=5)
        result = grid_search(
            train,
            GridProtocol(m=2, r=2),
            grid=GRID_DEFAULT,
            solver_cfg=FAST_SOLVER,
        )
        assert result.n_solver_calls == 64
        assert len(result.scores) == 64

    @pytest.mark.parametrize("protocol, message", [
        (GridProtocol(m=9), "sample budget m=9 outside 1..6"),
        (GridProtocol(m=2, r=5), "feature budget r=5 outside 1..4"),
    ], ids=["samples", "features"])
    def test_a_budget_the_data_cannot_hold_solves_nothing(
        self, protocol, message, monkeypatch
    ):
        calls = {"count": 0}
        original = bench_mod.solve

        def counting(*args, **kwargs):
            calls["count"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(bench_mod, "solve", counting)
        with pytest.raises(ValueError, match=message):
            grid_search(random_dataset(36, d=4, n=6), protocol, solver_cfg=FAST_SOLVER)
        assert calls["count"] == 0

    @pytest.mark.parametrize("seed", [-1, 0.5, True])
    def test_a_seed_that_is_no_nonnegative_integer_is_a_user_error(self, seed):
        # not a GridSearchError (a numerical failure) after solving every cell
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            GridProtocol(m=12, seed=seed)

    def test_a_cell_whose_scoring_fails_counts_one_solve(self):
        train = random_dataset(35, d=4, n=5)

        def fails_at_alpha_10(ds, params, sel):
            if params.alpha == 10.0:
                raise RuntimeError("scoring broke")
            return 1.0

        result = grid_search(
            train,
            GridProtocol(m=2, r=2),
            grid=(0.1, 10.0),
            solver_cfg=SolverConfig(max_outer_iters=5),
            score_fn=fails_at_alpha_10,
        )
        assert len(result.failures) == 4
        assert result.n_solver_calls == len(result.scores) == 8

    def test_injected_scorer_controls_the_choice(self):
        train = random_dataset(32, d=3, n=5)

        def favors_ones(ds, params, sel):
            return 1.0 if (params.alpha, params.beta, params.eta) == (1.0, 1.0, 1.0) else 0.0

        result = grid_search(
            train,
            GridProtocol(m=2, r=2),
            grid=GRID_DEFAULT,
            solver_cfg=FAST_SOLVER,
            score_fn=favors_ones,
        )
        assert (
            result.best_params.alpha,
            result.best_params.beta,
            result.best_params.eta,
        ) == (1.0, 1.0, 1.0)

    def test_alpha_major_tie_breaking(self):
        train = random_dataset(33, d=3, n=5)
        result = grid_search(
            train,
            GridProtocol(m=2, r=2),
            grid=(0.1, 1.0),
            solver_cfg=FAST_SOLVER,
            score_fn=lambda ds, p, sel: 0.5,  # all tie
        )
        assert (
            result.best_params.alpha,
            result.best_params.beta,
            result.best_params.eta,
        ) == (0.1, 0.1, 0.1)

    def test_labeled_holdout_protocol_used_when_enough_labels(self):
        train, _ = small_clusters()
        result = grid_search(
            train,
            GridProtocol(m=12, r=None, seed=0),
            grid=(1.0,),
            solver_cfg=FAST_SOLVER,
        )
        assert 0.0 <= result.best_score <= 1.0  # an accuracy, not -error

    def test_failing_cells_leave_the_other_scores_as_recorded(self):
        expected = (GOLDEN / "tiny-failing-grid.json").read_bytes()
        assert failing_grid_document().encode("utf-8") == expected

    def test_the_bundled_grid_scores_are_the_recorded_ones(self):
        # the bundled curves of the default weights and of this grid are the
        # same bytes, so only the scores show which cell the grid selects
        expected = (GOLDEN / "tiny-grid-scores.json").read_bytes()
        assert grid_scores_document().encode("utf-8") == expected

    def test_a_solve_that_raises_fails_every_cell_alike(self):
        # an all-zero sample has no angle: solve raises before any sweep
        x = random_dataset(34, d=3, n=5).matrix.copy()
        x[:, 2] = 0.0
        with pytest.raises(bench_mod.GridSearchError) as info:
            grid_search(Dataset(x), GridProtocol(m=2, r=2), grid=(0.1, 10.0),
                        solver_cfg=FAST_SOLVER)
        assert str(info.value) == "all 8 grid combinations failed"
        assert [reason for _, reason in info.value.failures] == [
            "ValueError: angular weights undefined: zero column(s) at [2]"] * 8

    def test_all_failures_raise_with_diagnostics(self):
        train = random_dataset(34, d=3, n=5)

        def always_fails(ds, params, sel):
            raise RuntimeError("scoring broke")

        with pytest.raises(bench_mod.GridSearchError) as exc_info:
            grid_search(
                train,
                GridProtocol(m=2, r=2),
                grid=(0.1, 1.0),
                solver_cfg=FAST_SOLVER,
                score_fn=always_fails,
            )
        assert len(exc_info.value.failures) == 8
