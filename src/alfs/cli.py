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
import math
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
    SplitSpec,
    _ORIENTATIONS,
    _zero_columns,
    load_csv,
    split,
    standardize_features,
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


def _read_text(path: Path, what: str) -> str:
    """The UTF-8 text of the ``what`` file at ``path``; a path that is
    missing, a directory or not UTF-8 exits 2 naming it."""
    if not path.exists():
        raise CliError(f"{what} file not found: {path}")
    if path.is_dir():
        raise CliError(f"{what} path is a directory: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{what} file {path} is not UTF-8: {exc}") from None


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return _merge_config(_CONFIG_DEFAULTS, {})
    p = Path(path)
    try:
        raw = json.loads(_read_text(p, "config"))
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


def _settings(args: argparse.Namespace) -> dict:
    """The config file, checked as written, with each flag given laid over
    the ``section.key`` that is its ``dest``; a flag not given, or given an
    empty list (its type returns None), leaves the file's value."""
    cfg = _load_config(args.config)
    data, methods = cfg["data"], cfg["bench"]["methods"]
    # a string such as "false" is truthy, and a string of methods iterates
    # by character
    for section, key, ok, wanted in (
        ("data", "has_header", isinstance(data["has_header"], bool), "true or false"),
        ("data", "standardize", isinstance(data["standardize"], bool), "true or false"),
        ("data", "orientation", data["orientation"] in _ORIENTATIONS, f"one of {_ORIENTATIONS}"),
        ("data", "label_column", isinstance(data["label_column"], (str, type(None))),
         "a string or null"),
        ("bench", "methods", args.command != "bench" or (isinstance(methods, list) and methods
         and all(isinstance(m, str) for m in methods)), "a non-empty list of strings"),
    ):
        if not ok:
            raise CliError(f"invalid {section} section: {key} must be {wanted}, "
                           f"got {cfg[section][key]!r}")
    for dest, value in vars(args).items():
        section, _, key = dest.partition(".")
        if key and value is not None:
            cfg[section][key] = value
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
        zero = _zero_columns(ds.matrix)
        if zero:
            raise CliError(
                f"all-zero sample(s) at 0-based index {zero}: the solver's "
                "angular weights need a nonzero direction for every sample"
            )
    return ds


def _check_writable(out: str) -> Path:
    path = Path(out)
    if not path.parent.is_dir():
        raise CliError(f"output directory does not exist: {path.parent}")
    if not os.access(path.parent, os.W_OK):
        raise CliError(f"output directory is not writable: {path.parent}")
    if path.is_dir():
        raise CliError(f"output path is a directory: {path}")
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


def _solver_settings(cfg: dict) -> tuple[RegularizationParams, SolverConfig]:
    return (_build(RegularizationParams, "params section", **cfg["params"]),
            _build(SolverConfig, "solver section", **cfg["solver"]))


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg = _settings(args)
    out_path = _check_writable(args.out)
    params, solver_cfg = _solver_settings(cfg)
    ds = _load_dataset(args.data, cfg["data"], for_solver=True)

    sel = cfg["selection"]
    m = sel["m"] if sel["m"] is not None else min(10, ds.n_samples)
    r = sel["r"] if sel["r"] is not None else min(10, ds.n_features)
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
    try:
        document = json.loads(_read_text(path, "result"))
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed result document: {exc}") from None
    if not isinstance(document, dict):
        raise CliError("malformed result document: not a JSON object")
    for key in ("sample_ranking", "sample_scores", "feature_ranking", "feature_scores"):
        if key not in document:
            raise CliError(f"result document lacks {key!r}; was it written by 'solve'?")
    for axis in ("sample", "feature"):
        ranking, scores = document[f"{axis}_ranking"], document[f"{axis}_scores"]
        # JSON's true is no index (bool is an int), nor is NaN or Infinity a score
        if not (isinstance(ranking, list) and all(type(i) is int for i in ranking)
                and isinstance(scores, list)
                and all(type(s) in (int, float) and -math.inf < s < math.inf for s in scores)
                and len(ranking) == len(scores)):
            raise CliError(f"malformed result document: {axis}_ranking must be a list of "
                           f"integers and {axis}_scores a list of finite numbers of its length")
        if sorted(ranking) != list(range(len(ranking))):
            raise CliError(f"malformed result document: {axis}_ranking must be a "
                           f"permutation of 0..{len(ranking) - 1}")
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


def _parse_budgets(text: str, what: str) -> Optional[tuple[int, ...]]:
    if not text:
        return None
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
    cfg = _settings(args)
    out_path = _check_writable(args.out)
    bench = cfg["bench"]
    if not bench["sample_budgets"]:
        raise CliError("bench needs sample budgets (--budgets lo:hi:step)")
    if not bench["methods"]:  # --methods ","
        raise CliError("bench needs methods (--methods alfs,random,...)")
    params, solver_cfg = _solver_settings(cfg)
    # the conversions run inside _build: budgets or a grid that are no list
    # are a bad bench section too
    specs = [_build(lambda: BenchSpec(
        method, tuple(bench["sample_budgets"]), tuple(bench["feature_budgets"]),
        alfs_params=params, solver=solver_cfg,
        alfs_grid=None if bench["alfs_grid"] is None else tuple(bench["alfs_grid"]),
        **{key: bench[key] for key in ("repeats", "seed", "rcur_rank")},
    ), f"bench section for method {method!r}") for method in bench["methods"]]

    uses_solver = any("alfs" in method for method in bench["methods"])
    ds = _load_dataset(args.data, cfg["data"], for_solver=uses_solver)
    if ds.labels is None:
        raise CliError("bench needs a labeled dataset (use --label-column)")

    n_train = (args.train_size if args.train_size is not None
               else max(1, (2 * ds.n_samples) // 3))
    try:
        train, test = split(ds, SplitSpec(n_train=n_train, seed=bench["seed"]))
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

    curves = [run_curve(train, test, spec) for spec in specs]
    failures = [failure for curve in curves for failure in curve.failures]
    write_curves_csv(curves, out_path)
    if failures:
        print(f"bench: {len(failures)} cell(s) failed: {failures[:5]}", file=sys.stderr)
    print(f"bench: wrote {out_path}", file=sys.stderr)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _settings(args)
    ds = _load_dataset(args.data, cfg["data"])
    try:
        samples, features, err = oracle_best_subsets(ds, SelectionRequest(args.m, args.r))
    except ValueError as exc:
        raise CliError(str(exc)) from None
    print("samples:", ",".join(str(i) for i in samples))
    print("features:", ",".join(str(i) for i in features))
    print("error:", repr(err))
    return EXIT_OK


def _override(parser: argparse.ArgumentParser, flag: str, key: str, **options: Any) -> None:
    """Add ``flag``, which overrides the config ``key`` (``section.key``)."""
    parser.add_argument(flag, dest=key, default=argparse.SUPPRESS,
                        metavar=flag[2:].replace("-", "_").upper(), **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alfs",
        description="Joint active sample selection and unsupervised feature "
                    "selection via convex reconstruction.",
    )
    parser.add_argument("--version", action="version", version=f"alfs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the data file, the config and the data section's flags
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--data", required=True, help="CSV dataset path")
    shared.add_argument("--config", default=None, help="JSON config path")
    _override(shared, "--no-header", "data.has_header", action="store_const", const=False,
              help="the CSV has no header row")
    _override(shared, "--label-column", "data.label_column",
              help="header name of the label column")
    _override(shared, "--rows-are-features", "data.orientation", action="store_const",
              const=ROWS_ARE_FEATURES, help="the CSV stores one feature per row")
    _override(shared, "--standardize", "data.standardize", action="store_const", const=True,
              help="standardize each feature before solving")

    p_solve = sub.add_parser("solve", parents=[shared],
                             help="solve and rank samples/features")
    p_solve.add_argument("--out", required=True, help="result JSON path")
    _override(p_solve, "--m", "selection.m", type=int, help="sample budget")
    _override(p_solve, "--r", "selection.r", type=int, help="feature budget")
    p_solve.add_argument("--timing", action="store_true",
                         help="embed wall time in the result document "
                              "(breaks byte-level reproducibility)")
    p_solve.set_defaults(fn=_cmd_solve)

    p_select = sub.add_parser(
        "select", help="re-apply budgets to a saved solve result"
    )
    p_select.add_argument("--result", required=True, help="solve result JSON")
    p_select.add_argument("--m", type=int, required=True, help="sample budget")
    p_select.add_argument("--r", type=int, required=True, help="feature budget")
    p_select.add_argument("--out", default=None, help="output JSON (default: stdout)")
    p_select.set_defaults(fn=_cmd_select)

    p_bench = sub.add_parser("bench", parents=[shared], help="accuracy curves for methods")
    _override(p_bench, "--methods", "bench.methods",
              type=lambda t: [m.strip() for m in t.split(",") if m.strip()] if t else None,
              help="comma list: alfs,random,rcur,variance+random,...")
    _override(p_bench, "--budgets", "bench.sample_budgets",
              type=lambda text: _parse_budgets(text, "--budgets"),
              help="sample budgets, lo:hi:step or comma list")
    _override(p_bench, "--feature-budgets", "bench.feature_budgets",
              type=lambda text: _parse_budgets(text, "--feature-budgets"),
              help="feature budgets (switches to a feature-axis curve)")
    _override(p_bench, "--repeats", "bench.repeats", type=int)
    _override(p_bench, "--seed", "bench.seed", type=int)
    p_bench.add_argument("--train-size", type=int, default=None,
                         help="training columns (default: 2/3 of the data)")
    p_bench.add_argument("--out", required=True, help="curves CSV path")
    p_bench.set_defaults(fn=_cmd_bench)

    p_oracle = sub.add_parser("oracle", parents=[shared],
                              help="exhaustive best subsets (tiny data)")
    p_oracle.add_argument("--m", type=int, required=True, help="sample budget")
    p_oracle.add_argument("--r", type=int, required=True, help="feature budget")
    p_oracle.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        # a flag's type may raise CliError (a --budgets it cannot parse)
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except (SolverAbortError, BenchMethodError, GridSearchError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
