"""Every public integer argument (index, budget, rank, seed) is held to one
contract: an integer (not a bool, a numpy bool, a float or a str) within
its range, else a ValueError that names the argument; a numpy integer is
taken as the equal ``int``."""

import dataclasses
import re

import numpy as np
import pytest

from alfs import (
    BenchSpec,
    Dataset,
    RcurConfig,
    SelectionRequest,
    SplitSpec,
    cur_from_indices,
    leverage_scores,
    random_sampling,
    rank_and_select,
    rcur,
    reconstruction_error,
    run_curve,
    split,
    variance_feature_select,
)

from conftest import make_clusters, random_dataset

D, N = 4, 6
DS = Dataset(random_dataset(0, d=D, n=N).matrix, labels=tuple("aabbcc"))
W = np.random.default_rng(1).normal(size=(N, D))
TRAIN, TEST = split(make_clusters(n=30, d=5, seed=3), SplitSpec(n_train=20, seed=0))


def _curve(method="random", **fields):
    return run_curve(TRAIN, TEST, BenchSpec(method=method, **{
        "sample_budgets": (3,), "repeats": 1, **fields}))


# (argument, what the message names, call with the value, a valid value,
#  the least value above the maximum or None where there is no maximum)
ARGUMENTS = [
    ("SelectionRequest.m", "m", lambda v: rank_and_select(W, SelectionRequest(v, 2)), 2, N + 1),
    ("SelectionRequest.r", "r", lambda v: rank_and_select(W, SelectionRequest(2, v)), 2, D + 1),
    ("SplitSpec.n_train", "n_train", lambda v: split(DS, SplitSpec(n_train=v)), 3, N),
    ("SplitSpec.seed", "seed", lambda v: split(DS, SplitSpec(n_train=3, seed=v)), 1, None),
    ("restrict.samples", "sample index", lambda v: DS.restrict(samples=[0, v]), 2, N),
    ("restrict.features", "feature index", lambda v: DS.restrict(features=[v, 0]), 2, D),
    ("reconstruction_error.samples", "sample index",
     lambda v: reconstruction_error(DS, [0, v], [1]), 2, N),
    ("reconstruction_error.features", "feature index",
     lambda v: reconstruction_error(DS, [0, 1], [v]), 2, D),
    ("cur_from_indices.columns", "column index",
     lambda v: cur_from_indices(DS, [v, 4], [0, 1], k=1), 2, N),
    ("cur_from_indices.rows", "row index",
     lambda v: cur_from_indices(DS, [0, 1], [v, 3], k=1), 2, D),
    ("cur_from_indices.k", "k", lambda v: cur_from_indices(DS, [0, 1], [0, 1], k=v), 2, D + 1),
    ("random_sampling.n", "n", lambda v: random_sampling(v, 2, 0), 6, None),
    ("random_sampling.m", "m", lambda v: random_sampling(6, v, 0), 2, 7),
    ("random_sampling.seed", "seed", lambda v: random_sampling(6, 2, v), 3, None),
    ("variance_feature_select.r", "r", lambda v: variance_feature_select(DS, v), 2, D + 1),
    ("leverage_scores.k", "k", lambda v: leverage_scores(DS, v), 2, D + 1),
    ("RcurConfig.k", "k", lambda v: rcur(DS, RcurConfig(k=v, m=3, r=3)), 2, D),
    ("RcurConfig.m", "m", lambda v: rcur(DS, RcurConfig(k=1, m=v, r=3)), 3, N + 1),
    ("RcurConfig.r", "r", lambda v: rcur(DS, RcurConfig(k=1, m=3, r=v)), 3, D + 1),
    ("RcurConfig.seed", "seed", lambda v: rcur(DS, RcurConfig(k=1, m=3, r=3, seed=v)), 2, None),
    ("BenchSpec.sample_budgets", "budget", lambda v: _curve(sample_budgets=(v,)), 3, 21),
    ("BenchSpec.feature_budgets", "budget",
     lambda v: _curve("variance+random", feature_budgets=(v,)), 2, 6),
    ("BenchSpec.repeats", "repeats", lambda v: _curve(repeats=v), 2, None),
    ("BenchSpec.seed", "seed", lambda v: _curve(seed=v), 2, None),
    ("BenchSpec.rcur_rank", "rcur_rank", lambda v: _curve("rcur", rcur_rank=v), 2, None),
]
BAD = {"True": True, "np.True_": np.True_, "float": 2.0, "str": "2", "-1": -1}
CASES = [pytest.param(name, call, bad, id=f"{arg}-{label}")
         for arg, name, call, _, above in ARGUMENTS
         for label, bad in [*BAD.items(), *([("above", above)] if above is not None else [])]]


def _same(a, b) -> bool:
    """Equal results, arrays bit for bit."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("name, call, bad", CASES)
def test_a_value_that_breaks_the_contract_is_rejected_by_name(name, call, bad):
    with pytest.raises(ValueError) as caught:
        call(bad)
    assert re.search(rf"(^| ){re.escape(name)}( |=)", str(caught.value)), str(caught.value)


@pytest.mark.parametrize("call, ok", [a[2:4] for a in ARGUMENTS], ids=[a[0] for a in ARGUMENTS])
def test_a_numpy_integer_gives_the_result_of_the_equal_int(call, ok):
    assert _same(call(np.int64(ok)), call(ok))


def test_the_range_message_names_the_value_and_the_range():
    with pytest.raises(ValueError, match=r"^k=-1 outside 1\.\.4$"):
        cur_from_indices(DS, [0, 1], [0, 1], k=-1)
    with pytest.raises(ValueError, match=r"^m=7 outside 1\.\.6$"):
        random_sampling(6, 7, 0)
    with pytest.raises(ValueError, match=r"^sample budget m=7 outside 1\.\.6$"):
        rcur(DS, RcurConfig(k=1, m=7, r=3))
