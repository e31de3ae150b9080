"""A duality-gap certificate for a solve. The objective P at any W bounds the
optimum from above; the value D of a dual feasible point, built from a
state's W and multipliers, bounds it from below (weak duality)."""

import copy

import numpy as np
import pytest

import alfs.solver as solver_mod
from alfs import solve


def final_states(ds, cells, cfg):
    """Each cell's ``(objective, state)`` at the end of each sweep of
    ``solve(ds, cells, cfg)``. The cells must fit one stack."""
    sweep, runs = solver_mod._sweep, [[] for _ in cells]

    def kept(ds, start, going, t, basis, cfg, prev, end, wx, records):
        result = sweep(ds, start, going, t, basis, cfg, prev, end, wx, records)
        for i, cell in enumerate(going.index):
            runs[cell].append((float(result[0][i]), copy.deepcopy(end[i])))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_mod, "_sweep", kept)
        solve(ds, list(cells), cfg)
    return runs


def dual_value(ds, state, params, t):
    """D at the dual point of one cell's ``state``; the weights must be positive."""
    if min(params.alpha, params.beta, params.gamma, params.eta) <= 0:
        raise ValueError("a zero weight forces its multiplier to zero")
    x = ds.matrix
    theta = 2.0 * ((x @ state.w) @ x - x)
    mu1, mu3, mu4 = state.lambda1, state.lambda3, state.lambda4
    # the nuclear block takes up the stationarity defect
    mu2 = -(x.T @ theta @ x.T + mu1 @ x.T + mu3 + mu4)
    with np.errstate(divide="ignore"):  # a zero multiplier bounds no s
        s_max = min((params.eta * t.t / np.abs(mu1)).min(),
                    params.gamma / np.linalg.norm(mu2, 2),
                    params.alpha / np.linalg.norm(mu3, axis=1).max(),
                    params.beta / np.linalg.norm(mu4, axis=0).max())
    inner, norm2 = np.vdot(theta, x), np.vdot(theta, theta)
    s = np.clip(-2.0 * inner / norm2, 0.0, s_max)
    return float(-s * inner - s * s * norm2 / 4.0)
