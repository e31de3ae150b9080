"""The package's public surface: an explicit list, without solver internals."""

import dataclasses

import alfs
import alfs.bench
import alfs.solver


def test_every_listed_name_resolves():
    assert len(alfs.__all__) == len(set(alfs.__all__))
    for name in alfs.__all__:
        assert getattr(alfs, name) is not None, name


def test_star_import_gives_exactly_the_list():
    namespace: dict = {}
    exec("from alfs import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(alfs.__all__)


def test_no_solver_internals_exported():
    internals = {
        "SolverState",
        "SpectralBasis",
        "check_convergence",
        "h_seminorm_sq",
        "pq_penalty",
        "solve_w_subproblem",
        "spectral_basis",
        "update_duals_and_rho",
        "update_p_q",
        "update_w_tilde",
        "update_z",
    }
    assert internals <= set(vars(alfs.solver))
    assert not internals & set(alfs.__all__)
    assert not [name for name in internals if hasattr(alfs, name)]


def test_removed_l_bfgs_stack_is_gone():
    assert not hasattr(alfs, "lbfgs")
    for name in ("LbfgsConfig", "minimize", "w_subproblem_gradient"):
        assert not hasattr(alfs, name)
        assert not hasattr(alfs.solver, name)


def test_options_that_changed_nothing_are_gone():
    removed = {
        alfs.SolverConfig: {"seed", "rho1_init", "rho2_init", "adaptive_rho"},
        alfs.RcurConfig: {"eps"},
        alfs.BenchSpec: {"classifier", "knn_k"},
        alfs.GridProtocol: {"holdout_fraction", "min_labeled_for_holdout", "knn_k"},
    }
    for cls, names in removed.items():
        assert not names & {f.name for f in dataclasses.fields(cls)}, cls.__name__


def test_bench_thread_knob_is_gone():
    for name in ("THREADS_ENV_VAR", "_thread_count"):
        assert not hasattr(alfs.bench, name), name
