import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from alfs import (
    Dataset,
    angular_weights,
    group_shrink,
    l21_norm,
    nuclear_norm,
    soft_threshold,
    svt,
)

import alfs.kernels as kernels_mod
from alfs.kernels import _SVT_ZERO_MARGIN

from conftest import random_dataset


def matrices(max_side=6):
    shapes = st.tuples(st.integers(1, max_side), st.integers(1, max_side))
    entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=entries))


thresholds = st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)
axes = st.sampled_from([0, 1])


def svt_reference(k, mu):
    """Singular value thresholding through the SVD of every matrix: the
    arithmetic svt had before it skipped any."""
    mu = np.asarray(mu, dtype=float)
    u, s, vt = np.linalg.svd(k, full_matrices=False)
    s = np.maximum(s - (mu[..., None] if mu.ndim else mu), 0.0)
    return (u * s[..., None, :]) @ vt


def nudged(value, ulps):
    """``value`` moved ``ulps`` representable floats up (or down), not below 0."""
    for _ in range(abs(ulps)):
        value = np.nextafter(value, np.inf if ulps > 0 else -np.inf)
    return max(float(value), 0.0)


@st.composite
def rank_one_near_its_threshold(draw):
    """A rank-1 matrix and a threshold a few ulps from its top singular
    value, from its Frobenius norm, or from the norm at which svt skips
    the SVD."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    k = np.outer(draw(arrays(np.float64, n, elements=entries)),
                 draw(arrays(np.float64, d, elements=entries)))
    top = np.linalg.svd(k, compute_uv=False)[0]
    fro = np.sqrt((k * k).sum())
    base = draw(st.sampled_from([top, fro, fro / (1.0 - _SVT_ZERO_MARGIN)]))
    return k, nudged(base, draw(st.integers(-4, 4)))


@st.composite
def stacks_partly_below_their_thresholds(draw):
    """A stack of matrices, each with a threshold a factor from its
    Frobenius norm: above it the matrix is provably zero, below it not."""
    cells, n, d = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    k = draw(arrays(np.float64, (cells, n, d), elements=entries))
    factors = draw(arrays(np.float64, cells, elements=st.sampled_from(
        [0.0, 0.3, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 2e-8, 2.0, 1e3])))
    return k, np.sqrt((k * k).sum(axis=(1, 2))) * factors


class TestL21Norm:
    def test_zero_matrix(self):
        assert l21_norm(np.zeros((3, 4))) == 0.0

    def test_single_row_norm(self):
        assert l21_norm(np.array([[3.0, 4.0], [0.0, 0.0]])) == 5.0

    def test_identity(self):
        assert l21_norm(np.eye(2)) == 2.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            l21_norm(np.array([[np.inf, 0.0]]))

    @pytest.mark.parametrize("m, expected", [
        ([[1e-170, 0.0]], 1e-170),
        ([[1e200, 1e200]], 1e200 * np.sqrt(2.0)),
    ], ids=["squares-underflow", "squares-overflow"])
    def test_extreme_magnitudes_neither_underflow_nor_overflow(self, m, expected):
        assert l21_norm(np.array(m)) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_dominates_frobenius(self):
        # row-wise triangle inequality: ||M||_F <= sum of row norms
        for seed in range(40):
            rng = np.random.default_rng(seed)
            m = rng.normal(size=rng.integers(1, 6, size=2))
            assert np.linalg.norm(m) <= l21_norm(m) + 1e-12


class TestNuclearNorm:
    def test_diagonal(self):
        assert nuclear_norm(np.diag([3.0, 1.0])) == pytest.approx(4.0, abs=1e-12)

    def test_zero(self):
        assert nuclear_norm(np.zeros((2, 5))) == 0.0

    def test_rank_one_ones(self):
        assert nuclear_norm(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-12)

    def test_at_least_spectral_norm(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m = rng.normal(size=(4, 6))
            assert nuclear_norm(m) >= np.linalg.norm(m, 2) - 1e-12


class TestSoftThreshold:
    @pytest.mark.parametrize(
        "value,mu,expected",
        [(2.5, 1.0, 1.5), (-0.5, 1.0, 0.0), (-3.0, 1.0, -2.0)],
    )
    def test_scalar_cases(self, value, mu, expected):
        out = soft_threshold(np.array([[value]]), mu)
        assert out[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_a_vector_takes_a_scalar_or_per_entry_threshold(self):
        k = np.array([2.5, -0.5, -3.0])
        assert soft_threshold(k, 1.0).tolist() == [1.5, 0.0, -2.0]
        assert soft_threshold(k, np.array([1.0, 0.0, 3.0])).tolist() == [1.5, -0.5, 0.0]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones((2, 2)), -0.1)

    def test_matrix_threshold_shape_mismatch(self):
        with pytest.raises(ValueError, match="one threshold per matrix or per entry"):
            soft_threshold(np.ones((2, 2)), np.ones((3, 2)))

    @settings(max_examples=100)
    @given(k=matrices(), data=st.data())
    def test_matches_the_closed_form_bit_for_bit_in_place_too(self, k, data):
        k[data.draw(arrays(bool, k.shape))] *= -0.0  # signed zeros among the entries
        mu = data.draw(st.one_of(thresholds, arrays(np.float64, k.shape, elements=thresholds)))
        want = np.sign(k) * np.maximum(np.abs(k) - mu, 0.0)
        assert soft_threshold(k, mu).tobytes() == want.tobytes()
        inplace = k.copy()
        assert soft_threshold(inplace, mu, out=inplace) is inplace
        assert inplace.tobytes() == want.tobytes()

    def test_magnitude_never_grows(self):
        rng = np.random.default_rng(0)
        k = rng.normal(size=(5, 7))
        mu = np.abs(rng.normal(size=(5, 7)))
        out = soft_threshold(k, mu)
        assert np.all(np.abs(out) <= np.abs(k) + 1e-15)

    def test_non_expansive(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(4, 5))
            b = rng.normal(size=(4, 5))
            mu = abs(float(rng.normal()))
            lhs = np.linalg.norm(soft_threshold(a, mu) - soft_threshold(b, mu))
            assert lhs <= np.linalg.norm(a - b) + 1e-12

    def test_prox_optimality_certificate(self):
        # residual stays inside the threshold box, hits the boundary with the
        # sign of the output wherever the output is nonzero
        eps = np.finfo(float).eps
        for seed in range(30):
            rng = np.random.default_rng(seed)
            k = rng.normal(size=(6, 4)) * rng.choice([0.1, 1.0, 10.0])
            mu = np.abs(rng.normal(size=(6, 4)))
            out = soft_threshold(k, mu)
            resid = k - out
            slack = 4 * eps * np.maximum(np.abs(k), mu)  # one rounded subtraction
            assert np.all(np.abs(resid) <= mu + slack)
            nz = out != 0
            assert np.all(
                np.abs(resid[nz] - mu[nz] * np.sign(out[nz])) <= slack[nz]
            )


    @settings(max_examples=200)
    @given(
        pair=st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
            lambda shape: st.tuples(
                arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)),
                arrays(np.float64, shape, elements=thresholds),
            )
        )
    )
    def test_prox_certificate_on_drawn_inputs(self, pair):
        # k - out is a subgradient of sum mu_ij |.| at out, entry by entry
        k, mu = pair
        out = soft_threshold(k, mu)
        resid = k - out
        slack = 1e-12 * (1.0 + np.abs(k).max())
        assert np.all(np.abs(resid) <= mu + slack)
        nz = out != 0
        assert np.all(np.abs(resid[nz] - mu[nz] * np.sign(out[nz])) <= slack)


class TestGroupShrink:
    def test_rows_and_columns_by_hand(self):
        k = np.array([[3.0, 4.0], [0.3, 0.4]])
        assert np.allclose(group_shrink(k, 1.0, axis=1), [[2.4, 3.2], [0.0, 0.0]])
        cols = group_shrink(k, 1.0, axis=0)
        assert np.allclose(cols[:, 1], k[:, 1] * (1 - 1 / np.hypot(4.0, 0.4)))

    def test_extreme_magnitudes_neither_underflow_nor_overflow(self):
        k = np.array([[1e-170, 0.0], [1e200, 1e200]])
        assert np.array_equal(group_shrink(k, 0.0, axis=1), k)
        out = group_shrink(k, 1e200, axis=1)
        assert np.array_equal(out[0], [0.0, 0.0])
        assert np.allclose(out[1], k[1] * (1 - 1 / np.sqrt(2.0)), rtol=1e-12)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            group_shrink(np.ones((2, 2)), -1.0, axis=1)
        with pytest.raises(ValueError, match="axis"):
            group_shrink(np.ones((2, 2)), 1.0, axis=2)
        with pytest.raises(ValueError, match="non-finite"):
            group_shrink(np.array([[np.nan]]), 1.0, axis=0)

    @settings(max_examples=200)
    @given(k=matrices(), mu=thresholds, axis=axes)
    def test_group_norms_shrink_by_mu_and_directions_are_kept(self, k, mu, axis):
        out = group_shrink(k, mu, axis)
        before = np.linalg.norm(k, axis=axis)
        after = np.linalg.norm(out, axis=axis)
        tol = 1e-12 * (1.0 + before)
        assert np.all(np.abs(after - np.maximum(before - mu, 0.0)) <= tol)
        # each group is a nonnegative multiple (at most 1) of its input
        scale = np.divide(after, before, out=np.zeros_like(before), where=before > 0)
        expand = scale[None, :] if axis == 0 else scale[:, None]
        assert np.allclose(out, k * expand, rtol=1e-12, atol=1e-12)

    @settings(max_examples=200)
    @given(k=matrices(), mu=thresholds, axis=axes)
    def test_prox_optimality_certificate(self, k, mu, axis):
        # k - out is a subgradient of mu * (sum of group norms) at out
        out = group_shrink(k, mu, axis)
        resid = k - out
        slack = 1e-12 * (1.0 + np.abs(k).max())
        assert np.all(np.linalg.norm(resid, axis=axis) <= mu + slack)
        norms = np.linalg.norm(out, axis=axis, keepdims=True)
        live = np.broadcast_to(norms > 0, out.shape)
        unit = np.divide(out, norms, out=np.zeros_like(out), where=norms > 0)
        assert np.all(np.abs(resid - mu * unit)[live] <= slack)

    @settings(max_examples=100)
    @given(k=matrices(), mu=thresholds)
    def test_columns_are_rows_of_the_transpose(self, k, mu):
        assert np.array_equal(group_shrink(k, mu, 0), group_shrink(k.T, mu, 1).T)

    @settings(max_examples=100)
    @given(k=matrices(), axis=axes)
    def test_zero_threshold_is_identity(self, k, axis):
        assert np.allclose(group_shrink(k, 0.0, axis), k, rtol=1e-15, atol=0.0)

    @settings(max_examples=100)
    @given(
        pair=st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
            lambda shape: st.tuples(
                arrays(np.float64, shape, elements=st.floats(-100, 100)),
                arrays(np.float64, shape, elements=st.floats(-100, 100)),
            )
        ),
        mu=thresholds,
        axis=axes,
    )
    def test_non_expansive(self, pair, mu, axis):
        a, b = pair
        gap = np.linalg.norm(group_shrink(a, mu, axis) - group_shrink(b, mu, axis))
        assert gap <= np.linalg.norm(a - b) * (1 + 1e-12) + 1e-12


class TestSvt:
    def test_diagonal_shrinkage(self):
        out = svt(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(1)
        k = rng.normal(size=(4, 6))
        assert np.allclose(svt(k, 0.0), k, atol=1e-12)

    def test_rank_never_grows(self):
        rng = np.random.default_rng(2)
        k = rng.normal(size=(5, 3)) @ rng.normal(size=(3, 6))
        out = svt(k, 0.5)
        assert np.linalg.matrix_rank(out, tol=1e-9) <= np.linalg.matrix_rank(k)

    def test_singular_values_are_thresholded(self):
        rng = np.random.default_rng(3)
        k = rng.normal(size=(6, 4))
        mu = 0.7
        s_in = np.linalg.svd(k, compute_uv=False)
        s_out = np.linalg.svd(svt(k, mu), compute_uv=False)
        assert np.allclose(s_out, np.maximum(s_in - mu, 0.0), atol=1e-10)

    def test_beats_random_perturbations(self):
        # prox objective: mu ||L||_* + 0.5 ||L - K||_F^2 is minimized by svt
        def prox_objective(l, k, mu):
            return mu * np.linalg.svd(l, compute_uv=False).sum() + 0.5 * (
                (l - k) ** 2
            ).sum()

        rng = np.random.default_rng(4)
        k = rng.normal(size=(5, 4))
        mu = 0.3
        out = svt(k, mu)
        base = prox_objective(out, k, mu)
        for _ in range(1000):
            scale = rng.choice([1e-4, 1e-2, 1e-1])
            pert = out + scale * rng.normal(size=out.shape)
            assert base <= prox_objective(pert, k, mu) + 1e-12

    @settings(max_examples=200)
    @given(k=matrices(), mu=thresholds)
    def test_prox_certificate_on_drawn_inputs(self, k, mu):
        # k - out is a subgradient of mu ||.||_* at out: its spectral norm is
        # at most mu, and on the singular pairs that survive it is mu U V^T
        out = svt(k, mu)
        resid = k - out
        slack = 1e-12 * (1.0 + np.abs(k).max())
        assert np.linalg.norm(resid, 2) <= mu + slack
        u, s, vt = np.linalg.svd(k, full_matrices=False)
        kept = s > mu
        assert np.all(np.abs(resid @ vt[kept].T - mu * u[:, kept]) <= slack)
        assert np.all(np.abs(u[:, kept].T @ resid - mu * vt[kept]) <= slack)

    @settings(max_examples=200)
    @given(pair=rank_one_near_its_threshold())
    def test_rank_one_at_its_threshold_matches_the_svd_bit_for_bit(self, pair):
        k, mu = pair
        assert svt(k, mu).tobytes() == svt_reference(k, mu).tobytes()

    @settings(max_examples=100)
    @given(pair=stacks_partly_below_their_thresholds())
    def test_a_partly_skipped_stack_matches_the_svd_bit_for_bit(self, pair):
        k, mu = pair
        assert svt(k, mu).tobytes() == svt_reference(k, mu).tobytes()

    def test_only_matrices_that_may_survive_are_decomposed(self, monkeypatch):
        decomposed = []
        full_svd = np.linalg.svd

        def counted(m, *args, **kwargs):
            decomposed.append(m.shape)
            return full_svd(m, *args, **kwargs)

        monkeypatch.setattr(kernels_mod.np.linalg, "svd", counted)
        k = np.random.default_rng(6).normal(size=(4, 5, 3))
        fro = np.sqrt((k * k).sum(axis=(1, 2)))
        mu = fro * np.array([2.0, 0.5, 1.0 + 2e-8, 1.0])
        out = svt(k, mu)
        assert decomposed == [(2, 5, 3)]  # the matrices at 0.5 and 1.0 times their norm
        assert not out[[0, 2]].any() and not np.signbit(out[[0, 2]]).any()
        svt(k[0], mu[0])
        assert decomposed == [(2, 5, 3)]

    @pytest.mark.parametrize("scale, mu", [(1e200, 1e300), (1e-170, 1e-300)],
                             ids=["squares-overflow", "squares-underflow"])
    def test_a_norm_out_of_range_is_no_bound_and_warns_of_nothing(self, scale, mu):
        # the matrix is decomposed: an overflowed norm bounds nothing, and an
        # underflowed one would have thresholded the underflow case to zero
        k = np.random.default_rng(7).normal(size=(4, 3)) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = svt(k, mu)
        assert out.tobytes() == svt_reference(k, mu).tobytes()
        assert scale > 1.0 or out.any()

    def test_commutes_with_orthogonal_transforms(self):
        rng = np.random.default_rng(5)
        k = rng.normal(size=(5, 4))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        p, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        lhs = svt(q @ k @ p.T, 0.4)
        rhs = q @ svt(k, 0.4) @ p.T
        assert np.allclose(lhs, rhs, atol=1e-8)


class TestAngularWeights:
    def test_parallel_vectors(self):
        ds = Dataset(np.array([[1.0, 2.0], [0.0, 0.0]]))
        aw = angular_weights(ds, varsigma=1e-8)
        assert aw.t[0, 1] == pytest.approx(1.0, abs=1e-7)

    def test_orthogonal_vectors_hit_the_floor(self):
        ds = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]))
        aw = angular_weights(ds, varsigma=1e-8)
        assert aw.t[0, 1] == pytest.approx(1e8, rel=1e-9)

    def test_half_cosine(self):
        # columns at 60 degrees: cos = 0.5 -> weight ~ 2
        ds = Dataset(np.array([[1.0, 0.5], [0.0, np.sqrt(3) / 2]]))
        aw = angular_weights(ds, varsigma=1e-8)
        assert aw.t[0, 1] == pytest.approx(2.0, rel=1e-6)

    def test_zero_column_rejected(self):
        ds = Dataset(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="zero column"):
            angular_weights(ds)

    @pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e200, 2.0**-1070], ids=str)
    def test_any_finite_scale_gives_the_weights_of_its_power_of_two(self, scale):
        # squares of these columns underflow or overflow; the weights are
        # those of the data scaled back by an exact power of two
        x = np.random.default_rng(0).normal(size=(4, 12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            aw = angular_weights(Dataset(x * scale))
        unit = np.ldexp(x * scale, -np.frexp(scale)[1])
        assert aw.t.tobytes() == angular_weights(Dataset(unit)).t.tobytes()

    def test_invariants_on_random_data(self):
        for seed in range(10):
            ds = random_dataset(seed, d=4, n=7)
            aw = angular_weights(ds, varsigma=1e-8)
            t = aw.t
            assert np.array_equal(t, t.T)
            assert np.all(t >= 1.0 / (1.0 + aw.varsigma) - 1e-12)
            assert np.allclose(np.diag(t), 1.0, atol=1e-6)


class TestStacks:
    """A stack of matrices, one threshold each: every matrix is treated bit
    for bit as it would be alone."""

    @staticmethod
    def stack():
        k = np.random.default_rng(3).normal(size=(3, 5, 4))
        k[1] *= 1e-170  # squares underflow: the safe fallback
        k[2] *= 1e200  # squares overflow
        return k

    def test_norms(self):
        k = self.stack()
        assert np.array_equal(l21_norm(k), [l21_norm(m) for m in k])
        assert np.array_equal(nuclear_norm(k), [nuclear_norm(m) for m in k])

    @pytest.mark.parametrize("axis", [0, 1])
    def test_group_shrink(self, axis):
        k, mu = self.stack(), np.array([0.5, 1e-170, 1e200])
        out = group_shrink(k, mu, axis)
        for i in range(3):
            assert np.array_equal(out[i], group_shrink(k[i], mu[i], axis))

    def test_svt_and_soft_threshold(self):
        k, mu = self.stack()[:2], np.array([0.5, 1e-170])
        shrunk, thresholded = svt(k, mu), soft_threshold(k, mu)
        per_entry = soft_threshold(k, np.abs(k[::-1]))
        for i in range(2):
            assert np.array_equal(shrunk[i], svt(k[i], mu[i]))
            assert np.array_equal(thresholded[i], soft_threshold(k[i], mu[i]))
            assert np.array_equal(per_entry[i], soft_threshold(k[i], np.abs(k[1 - i])))

    def test_one_threshold_per_matrix_or_none(self):
        k = self.stack()
        for op in (svt, soft_threshold, lambda m, mu: group_shrink(m, mu, 1)):
            with pytest.raises(ValueError, match="threshold"):
                op(k, np.ones(2))
            with pytest.raises(ValueError, match="nonnegative"):
                op(k, np.array([1.0, -1.0, 1.0]))


THRESHOLDED = [
    pytest.param(svt, id="svt"),
    pytest.param(soft_threshold, id="soft_threshold"),
    pytest.param(lambda k, mu: group_shrink(k, mu, axis=1), id="group_shrink-rows"),
    pytest.param(lambda k, mu: group_shrink(k, mu, axis=0), id="group_shrink-columns"),
]


class TestThresholdSigns:
    """A threshold must be nonnegative, and NaN is not: it is rejected as a
    negative one is, whether it is the one threshold, one matrix's of a
    stack, or one entry's."""

    k = np.array([[3.0, 1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("op", THRESHOLDED)
    def test_a_nan_threshold_is_rejected(self, op):
        with pytest.raises(ValueError, match="nonnegative"):
            op(self.k, np.nan)

    @pytest.mark.parametrize("op", THRESHOLDED)
    def test_a_nan_among_the_per_matrix_thresholds_is_rejected(self, op):
        with pytest.raises(ValueError, match="nonnegative"):
            op(np.stack([self.k, self.k]), np.array([0.5, np.nan]))

    def test_a_nan_among_the_per_entry_thresholds_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            soft_threshold(self.k, np.array([[0.5, np.nan], [0.5, 0.5]]))

    @pytest.mark.parametrize("op", THRESHOLDED)
    def test_an_infinite_threshold_thresholds_to_zero(self, op):
        assert not op(self.k, np.inf).any()
        stacked = op(np.stack([self.k, self.k]), np.array([0.5, np.inf]))
        assert np.array_equal(stacked[0], op(self.k, 0.5))
        assert not stacked[1].any()

    def test_an_infinite_per_entry_threshold_thresholds_to_zero(self):
        per_entry = soft_threshold(self.k, np.array([[np.inf, 0.5], [0.5, np.inf]]))
        assert np.array_equal(per_entry, [[0.0, 0.5], [0.5, 0.0]])
