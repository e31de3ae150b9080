"""Shared synthetic-data generators for the test suite."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from alfs import Dataset, l21_norm, nuclear_norm

# property tests draw the same examples on every run, like the rest of the suite
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

REPO_ROOT = Path(__file__).resolve().parent.parent
TINY_CSV = REPO_ROOT / "data" / "tiny.csv"


def make_clusters(
    n: int = 120,
    d: int = 30,
    n_classes: int = 3,
    sep: float = 8.0,
    noise: float = 1.0,
    seed: int = 11,
) -> Dataset:
    """Well-separated Gaussian clusters with class labels.

    Cluster centers sit on a sphere of radius ``sep``; points scatter with
    unit ``noise``. Labels cycle through the classes so every class has
    n / n_classes members.
    """
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, d))
    centers *= sep / np.linalg.norm(centers, axis=1, keepdims=True)
    labels = tuple(int(i % n_classes) for i in range(n))
    x = centers[np.array(labels)].T + noise * rng.normal(size=(d, n))
    return Dataset(x, labels=labels, source=f"clusters(seed={seed})")


def make_planted_anchors(
    seed: int,
    d: int = 6,
    n: int = 12,
    k: int = 3,
    noise: float = 0.05,
) -> tuple[Dataset, set[int]]:
    """Dataset whose non-anchor columns are noisy mixtures of k anchor columns.

    Returns the dataset and the planted anchor indices; a good sample
    selector should rank the anchors at the top.
    """
    rng = np.random.default_rng(seed)
    anchors = rng.normal(size=(d, k))
    anchors *= 3.0 / np.linalg.norm(anchors, axis=0, keepdims=True)
    anchor_idx = sorted(rng.choice(n, size=k, replace=False).tolist())
    x = np.empty((d, n))
    for j in range(n):
        if j in anchor_idx:
            x[:, j] = anchors[:, anchor_idx.index(j)]
        else:
            weights = rng.dirichlet(np.ones(k)) * rng.uniform(0.5, 1.5)
            x[:, j] = anchors @ weights + noise * rng.normal(size=d)
    return Dataset(x, source=f"anchors(seed={seed})"), set(anchor_idx)


def random_dataset(seed: int, d: int, n: int) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(d, n)), source=f"random(seed={seed})")


@pytest.fixture
def tiny_csv() -> Path:
    assert TINY_CSV.exists(), "bundled data/tiny.csv is missing"
    return TINY_CSV


def w_smooth_objective(ds: Dataset, state, w: np.ndarray) -> float:
    """Smooth part q(W) of the W subproblem, recomputed from its definition:
    ||X - XWX||^2 + rho/2 ||WX - Z + L1/rho||^2 + rho/2 ||W - W~ + L2/rho||^2.
    """
    x = ds.matrix
    resid = x - x @ w @ x
    r1 = w @ x - state.z + state.lambda1 / state.rho
    r2 = w - state.w_tilde + state.lambda2 / state.rho
    return (
        float((resid**2).sum())
        + 0.5 * state.rho * float((r1**2).sum())
        + 0.5 * state.rho * float((r2**2).sum())
    )


def w_smooth_gradient(ds: Dataset, state, w: np.ndarray) -> np.ndarray:
    """Gradient of :func:`w_smooth_objective` with respect to W."""
    x = ds.matrix
    r1 = w @ x - state.z + state.lambda1 / state.rho
    r2 = w - state.w_tilde + state.lambda2 / state.rho
    return 2.0 * x.T @ (x @ w @ x - x) @ x.T + state.rho * r1 @ x.T + state.rho * r2


def w_split_objective(ds: Dataset, state, sigma: float, w: np.ndarray) -> float:
    """The augmented Lagrangian as a function of W alone, up to a constant:
    q(W) + <L3, W - P> + sigma/2 ||W - P||^2 + <L4, W - Q> + sigma/2 ||W - Q||^2.
    """
    rp = w - state.p
    rq = w - state.q
    return (
        w_smooth_objective(ds, state, w)
        + float((state.lambda3 * rp).sum()) + 0.5 * sigma * float((rp**2).sum())
        + float((state.lambda4 * rq).sum()) + 0.5 * sigma * float((rq**2).sum())
    )



def augmented_lagrangian(ds: Dataset, state, params, t, sigma: float) -> float:
    """Augmented Lagrangian of the split problem at the given state, with
    ``state.rho`` the penalty of the W X = Z and W = W~ constraints and
    ``sigma`` that of the W = P and W = Q constraints."""
    x = ds.matrix
    w = state.w
    resid = (x @ w) @ x - x
    coupling = 0.0
    for lam, r, penalty in (
        (state.lambda1, w @ x - state.z, state.rho),
        (state.lambda2, w - state.w_tilde, state.rho),
        (state.lambda3, w - state.p, sigma),
        (state.lambda4, w - state.q, sigma),
    ):
        coupling += float((lam * r).sum()) + 0.5 * penalty * float((r * r).sum())
    return (
        float((resid * resid).sum())
        + params.alpha * l21_norm(state.p)
        + params.beta * l21_norm(state.q.T)
        + params.gamma * nuclear_norm(state.w_tilde)
        + params.eta * float(np.abs(t.t * state.z).sum())
        + coupling
    )

def central_differences(f, w: np.ndarray, h: float) -> np.ndarray:
    """Entrywise central-difference gradient of a scalar function of W."""
    g = np.zeros_like(w)
    for idx in np.ndindex(*w.shape):
        wp = w.copy()
        wp[idx] += h
        wm = w.copy()
        wm[idx] -= h
        g[idx] = (f(wp) - f(wm)) / (2 * h)
    return g


def w_step_gradient_ratio(ds: Dataset, state) -> float:
    """Central-difference gradient of the W-block augmented Lagrangian at the
    W update, relative to its gradient at the state's W. The function is
    quadratic in W, so central differences are exact up to rounding."""
    from alfs.solver import pq_penalty, solve_w_subproblem, spectral_basis

    basis = spectral_basis(ds)
    sigma = pq_penalty(basis, state.rho)
    w = solve_w_subproblem(ds, state, basis, sigma)

    def f(v):
        return w_split_objective(ds, state, sigma, v)

    at_update = central_differences(f, w, 1e-3)
    at_start = central_differences(f, state.w, 1e-3)
    return float(np.linalg.norm(at_update) / np.linalg.norm(at_start))
