"""Command-line front end: solve / select / bench / oracle.

Configuration is JSON with sections {data, params, solver, selection,
bench}; every key has a default so an empty config is valid, and unknown
keys are rejected outright. The params, solver and bench defaults are those
of the library dataclasses. Results are JSON documents (bulk curve
data as CSV) written with sorted keys so reruns with identical flags and
seeds are byte-identical.

Exit codes: 0 success, 2 user/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import Any, Callable, Optional

from . import __version__
from .bench import (
    BenchMethodError,
    BenchSpec,
    GridSearchError,
    run_curve,
    write_curves_csv,
)
from .data import (
    Dataset,
    ROWS_ARE_FEATURES,
    ROWS_ARE_SAMPLES,
    SelectionRequest,
    load_csv,
    standardize_features,
    validate,
)
from .selection import _low_scores_selected, oracle_best_subsets, rank_and_select
from .solver import (
    ConvergenceReport,
    RegularizationParams,
    SolverAbortError,
    SolverConfig,
    solve,
)

EXIT_OK = 0
EXIT_USER_ERROR = 2
EXIT_NUMERICAL = 3


class CliError(Exception):
    """User/validation problem: maps to exit code 2."""


_CONFIG_DEFAULTS: dict[str, dict[str, Any]] = {
    "data": {
        "has_header": True,
        "label_column": None,
        "orientation": ROWS_ARE_SAMPLES,
        "standardize": False,
    },
    "params": asdict(RegularizationParams()),
    "solver": asdict(SolverConfig()),
    "selection": {
        "m": None,  # defaults to min(10, n) at run time
        "r": None,  # defaults to min(10, d)
    },
    "bench": {
        "methods": ["alfs", "random"],
        "sample_budgets": [],
        # every BenchSpec field with a plain default (not a factory) is a key
        **{f.name: f.default for f in fields(BenchSpec) if f.default is not MISSING},
    },
}


def _merge_config(defaults: dict, overrides: dict, path: str = "") -> dict:
    merged = {}
    for key, default in defaults.items():
        if isinstance(default, dict) and default:
            section = overrides.get(key, {})
            if not isinstance(section, dict):
                raise CliError(f"config key {path}{key} must be an object")
            merged[key] = _merge_config(default, section, f"{path}{key}.")
        else:
            merged[key] = overrides.get(key, default)
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise CliError(f"unknown config key(s): {sorted(path + k for k in unknown)}")
    return merged


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return _merge_config(_CONFIG_DEFAULTS, {})
    p = Path(path)
    if not p.exists():
        raise CliError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON config {p}: {exc}") from None
    if not isinstance(raw, dict):
        raise CliError("config root must be a JSON object")
    return _merge_config(_CONFIG_DEFAULTS, raw)


def _build(make: Callable[..., Any], what: str, **values: Any) -> Any:
    """``make(**values)``; a rejected value exits 2 naming ``what`` was built."""
    try:
        return make(**values)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid {what}: {exc}") from None


def _apply_data_flags(cfg: dict, args: argparse.Namespace) -> dict:
    data = dict(cfg["data"])
    if getattr(args, "no_header", False):
        data["has_header"] = False
    if getattr(args, "label_column", None) is not None:
        data["label_column"] = args.label_column
    if getattr(args, "rows_are_features", False):
        data["orientation"] = ROWS_ARE_FEATURES
    if getattr(args, "standardize", False):
        data["standardize"] = True
    cfg = dict(cfg)
    cfg["data"] = data
    return cfg


def _load_dataset(path: str, data_cfg: dict, for_solver: bool = False) -> Dataset:
    """Load (and optionally standardize) the CSV; with ``for_solver`` also
    reject all-zero samples, which have no direction for the angular weights."""
    try:
        ds = load_csv(
            path,
            has_header=data_cfg["has_header"],
            label_column=data_cfg["label_column"],
            orientation=data_cfg["orientation"],
        )
    except (FileNotFoundError, ValueError) as exc:
        raise CliError(str(exc)) from None
    if data_cfg["standardize"]:
        ds = standardize_features(ds)
    if for_solver:
        zero = validate(ds).zero_columns
        if zero:
            raise CliError(
                f"all-zero sample(s) at 0-based index {list(zero)}: the solver's "
                "angular weights need a nonzero direction for every sample"
            )
    return ds


def _check_writable(out: str) -> Path:
    path = Path(out)
    parent = path.parent if str(path.parent) else Path(".")
    if not parent.is_dir():
        raise CliError(f"output directory does not exist: {parent}")
    if not os.access(parent, os.W_OK):
        raise CliError(f"output directory is not writable: {parent}")
    if path.exists() and not os.access(path, os.W_OK):
        raise CliError(f"output file is not writable: {path}")
    return path


def _write_json(path: Path, document: dict) -> None:
    text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _report_traces(report: ConvergenceReport) -> dict:
    return {
        "objective_trace": [rec.objective for rec in report.records],
        "residual_traces": {
            "wx_minus_z": [rec.residual_wx_z for rec in report.records],
            "w_minus_wtilde": [rec.residual_w_wtilde for rec in report.records],
            "w_minus_pq": [rec.residual_w_pq for rec in report.records],
            "rel_change": [rec.rel_change for rec in report.records],
        },
        "h_seminorm_trace": [rec.h_seminorm_sq for rec in report.records],
        "stop_reason": report.stop_reason,
        "iterations": report.iterations,
    }


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg = _apply_data_flags(_load_config(args.config), args)
    out_path = _check_writable(args.out)
    params = _build(RegularizationParams, "params section", **cfg["params"])
    solver_cfg = _build(SolverConfig, "solver section", **cfg["solver"])
    ds = _load_dataset(args.data, cfg["data"], for_solver=True)

    sel_cfg = dict(cfg["selection"])
    if args.m is not None:
        sel_cfg["m"] = args.m
    if args.r is not None:
        sel_cfg["r"] = args.r
    m = sel_cfg["m"] if sel_cfg["m"] is not None else min(10, ds.n_samples)
    r = sel_cfg["r"] if sel_cfg["r"] is not None else min(10, ds.n_features)
    try:
        req = SelectionRequest(m, r)
        req.check_against(ds.n_samples, ds.n_features)
    except ValueError as exc:
        raise CliError(f"invalid selection budgets: {exc}") from None

    cfg["selection"] = {"m": req.m, "r": req.r}
    started = time.perf_counter()
    w, report = solve(ds, params, solver_cfg)
    elapsed = time.perf_counter() - started
    result = rank_and_select(w, req)

    document = {
        "tool_version": __version__,
        # the sections solve reads; the bench section does not change the result
        "config_echo": {
            **{key: cfg[key] for key in ("data", "params", "solver", "selection")},
            "data_path": str(args.data),
        },
        "selected_samples": list(result.selected_samples),
        "selected_features": list(result.selected_features),
        "sample_ranking": list(result.sample_ranking),
        "sample_scores": list(result.sample_scores),
        "feature_ranking": list(result.feature_ranking),
        "feature_scores": list(result.feature_scores),
        "low_score_warning": result.low_score_warning,
        # timing is non-deterministic, so it goes to stderr by default and
        # into the document only on request (--timing)
        "wall_time_seconds": elapsed if args.timing else None,
        **_report_traces(report),
    }
    _write_json(out_path, document)
    print(f"solve: {report.stop_reason} after {report.iterations} iterations "
          f"({elapsed:.2f}s), result written to {out_path}", file=sys.stderr)
    if report.stop_reason == "max_iters":
        fixed = (f"; with tau = 1, rho stays at rho_init = {solver_cfg.rho_init!r}, "
                 "which may be too small" if solver_cfg.tau == 1 else "")
        print(f"solve: warning: not converged within max_outer_iters = "
              f"{solver_cfg.max_outer_iters} sweeps{fixed}", file=sys.stderr)
    return EXIT_OK


def _cmd_select(args: argparse.Namespace) -> int:
    path = Path(args.result)
    if not path.exists():
        raise CliError(f"result file not found: {path}")
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed result document: {exc}") from None
    for key in ("sample_ranking", "sample_scores", "feature_ranking", "feature_scores"):
        if key not in document:
            raise CliError(f"result document lacks {key!r}; was it written by 'solve'?")
    n = len(document["sample_ranking"])
    d = len(document["feature_ranking"])
    try:
        req = SelectionRequest(args.m, args.r)
        req.check_against(n, d)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    out_doc = {
        "tool_version": __version__,
        "source_result": str(path),
        "m": req.m,
        "r": req.r,
        "selected_samples": document["sample_ranking"][: req.m],
        "selected_features": document["feature_ranking"][: req.r],
        "low_score_warning": _low_scores_selected(
            document["sample_scores"], document["feature_scores"], req),
    }
    if args.out:
        _write_json(_check_writable(args.out), out_doc)
    else:
        print(json.dumps(out_doc, indent=2, sort_keys=True))
    return EXIT_OK


def _parse_budgets(text: str, what: str) -> tuple[int, ...]:
    try:
        if ":" in text:
            lo, hi, step = (int(p) for p in text.split(":"))
            if step < 1 or hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1, step))
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise CliError(
            f"cannot parse {what} {text!r}: expected lo:hi:step or a comma list"
        ) from None


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = _apply_data_flags(_load_config(args.config), args)
    out_path = _check_writable(args.out)
    bench_cfg = dict(cfg["bench"])
    if args.methods:
        bench_cfg["methods"] = [m.strip() for m in args.methods.split(",") if m.strip()]
    if args.budgets:
        bench_cfg["sample_budgets"] = list(_parse_budgets(args.budgets, "--budgets"))
    if args.feature_budgets:
        bench_cfg["feature_budgets"] = list(
            _parse_budgets(args.feature_budgets, "--feature-budgets")
        )
    if args.repeats is not None:
        bench_cfg["repeats"] = args.repeats
    if args.seed is not None:
        bench_cfg["seed"] = args.seed

    if not bench_cfg["sample_budgets"]:
        raise CliError("bench needs sample budgets (--budgets lo:hi:step)")
    params = _build(RegularizationParams, "params section", **cfg["params"])
    solver_cfg = _build(SolverConfig, "solver section", **cfg["solver"])

    def bench_spec(method: str) -> BenchSpec:
        grid = bench_cfg["alfs_grid"]
        return BenchSpec(
            method=method,
            sample_budgets=tuple(bench_cfg["sample_budgets"]),
            feature_budgets=tuple(bench_cfg["feature_budgets"]),
            alfs_grid=tuple(grid) if grid else None,
            alfs_params=params,
            solver=solver_cfg,
            **{key: bench_cfg[key] for key in ("repeats", "seed", "rcur_rank")},
        )

    specs = [
        _build(bench_spec, f"bench section for method {method!r}", method=method)
        for method in bench_cfg["methods"]
    ]

    uses_solver = any("alfs" in str(method) for method in bench_cfg["methods"])
    ds = _load_dataset(args.data, cfg["data"], for_solver=uses_solver)
    if ds.labels is None:
        raise CliError("bench needs a labeled dataset (use --label-column)")

    n_train = (args.train_size if args.train_size is not None
               else max(1, (2 * ds.n_samples) // 3))
    from .data import SplitSpec, split as split_dataset

    try:
        train, test = split_dataset(ds, SplitSpec(n_train=n_train, seed=bench_cfg["seed"]))
    except ValueError as exc:
        raise CliError(str(exc)) from None
    for spec in specs:
        try:
            spec.check_against(train.n_samples, train.n_features)
        except ValueError as exc:
            raise CliError(
                f"{exc}: the training set has {train.n_samples} samples "
                f"and {train.n_features} features"
            ) from None

    curves = []
    failures = []
    for spec in specs:
        curve = run_curve(train, test, spec)
        curves.append(curve)
        failures.extend(curve.failures)
    write_curves_csv(curves, out_path)
    if failures:
        print(f"bench: {len(failures)} cell(s) failed: {failures[:5]}", file=sys.stderr)
    print(f"bench: wrote {out_path}", file=sys.stderr)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _apply_data_flags(_load_config(args.config), args)
    ds = _load_dataset(args.data, cfg["data"])
    try:
        req = SelectionRequest(args.m, args.r)
        req.check_against(ds.n_samples, ds.n_features)
        samples, features, err = oracle_best_subsets(ds, req)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    print("samples:", ",".join(str(i) for i in samples))
    print("features:", ",".join(str(i) for i in features))
    print("error:", repr(err))
    return EXIT_OK


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-header", action="store_true",
                        help="the CSV has no header row")
    parser.add_argument("--label-column", default=None,
                        help="header name of the label column")
    parser.add_argument("--rows-are-features", action="store_true",
                        help="the CSV stores one feature per row")
    parser.add_argument("--standardize", action="store_true",
                        help="standardize each feature before solving")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alfs",
        description="Joint active sample selection and unsupervised feature "
                    "selection via convex reconstruction.",
    )
    parser.add_argument("--version", action="version", version=f"alfs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve and rank samples/features")
    p_solve.add_argument("--data", required=True, help="CSV dataset path")
    p_solve.add_argument("--config", default=None, help="JSON config path")
    p_solve.add_argument("--out", required=True, help="result JSON path")
    p_solve.add_argument("--m", type=int, default=None, help="sample budget")
    p_solve.add_argument("--r", type=int, default=None, help="feature budget")
    p_solve.add_argument("--timing", action="store_true",
                         help="embed wall time in the result document "
                              "(breaks byte-level reproducibility)")
    _add_data_flags(p_solve)
    p_solve.set_defaults(fn=_cmd_solve)

    p_select = sub.add_parser(
        "select", help="re-apply budgets to a saved solve result"
    )
    p_select.add_argument("--result", required=True, help="solve result JSON")
    p_select.add_argument("--m", type=int, required=True, help="sample budget")
    p_select.add_argument("--r", type=int, required=True, help="feature budget")
    p_select.add_argument("--out", default=None, help="output JSON (default: stdout)")
    p_select.set_defaults(fn=_cmd_select)

    p_bench = sub.add_parser("bench", help="accuracy curves for methods")
    p_bench.add_argument("--data", required=True, help="labeled CSV dataset path")
    p_bench.add_argument("--config", default=None, help="JSON config path")
    p_bench.add_argument("--methods", default=None,
                         help="comma list: alfs,random,rcur,variance+random,...")
    p_bench.add_argument("--budgets", default=None,
                         help="sample budgets, lo:hi:step or comma list")
    p_bench.add_argument("--feature-budgets", default=None,
                         help="feature budgets (switches to a feature-axis curve)")
    p_bench.add_argument("--repeats", type=int, default=None)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--train-size", type=int, default=None,
                         help="training columns (default: 2/3 of the data)")
    p_bench.add_argument("--out", required=True, help="curves CSV path")
    _add_data_flags(p_bench)
    p_bench.set_defaults(fn=_cmd_bench)

    p_oracle = sub.add_parser("oracle", help="exhaustive best subsets (tiny data)")
    p_oracle.add_argument("--data", required=True, help="CSV dataset path")
    p_oracle.add_argument("--config", default=None, help="JSON config path")
    p_oracle.add_argument("--m", type=int, required=True, help="sample budget")
    p_oracle.add_argument("--r", type=int, required=True, help="feature budget")
    _add_data_flags(p_oracle)
    p_oracle.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except (SolverAbortError, BenchMethodError, GridSearchError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
