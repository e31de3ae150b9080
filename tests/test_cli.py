import argparse
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import alfs.cli as cli_mod
from alfs import (
    BenchSpec,
    Dataset,
    RegularizationParams,
    SelectionRequest,
    SolverConfig,
    angular_weights,
    load_csv,
    oracle_best_subsets,
    rank_and_select,
    write_csv,
)
from alfs.cli import build_parser, main
from alfs.data import ROWS_ARE_FEATURES, ROWS_ARE_SAMPLES
from alfs.solver import SolverAbortError

from conftest import REPO_ROOT, TINY_CSV, make_clusters, random_dataset


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def fast_config(tmp_path):
    cfg = {"solver": {"tau": 1.5}}
    p = tmp_path / "fast.json"
    p.write_text(json.dumps(cfg))
    return p


class TestConfigDefaults:
    def test_library_defaults_are_the_cli_defaults(self):
        cfg = cli_mod._load_config(None)
        assert cfg["params"] == dataclasses.asdict(RegularizationParams())
        assert cfg["solver"] == dataclasses.asdict(SolverConfig())
        spec_defaults = {
            f.name: f.default
            for f in dataclasses.fields(BenchSpec)
            if f.default is not dataclasses.MISSING
        }
        shared = spec_defaults.keys() & cfg["bench"].keys()
        assert shared == {
            "feature_budgets", "repeats", "seed", "rcur_rank", "alfs_grid"
        }
        for key in shared:
            assert cfg["bench"][key] == spec_defaults[key], key

    def test_readme_shows_the_cli_defaults(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1]
        shown = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
        # a JSON round trip turns the defaults' tuples into lists
        assert json.loads(shown) == json.loads(json.dumps(cli_mod._load_config(None)))


@pytest.mark.parametrize("command, config, section", [
    ("bench", {"bench": {"repeats": "3"}}, "bench section"),
    ("bench", {"bench": {"rcur_rank": 0}}, "bench section"),
    ("bench", {"bench": {"alfs_grid": [0.1, "10"]}}, "bench section"),
    ("bench", {"solver": {"max_outer_iters": 2.5}}, "solver section"),
    ("solve", {"solver": {"max_outer_iters": 2.5}}, "solver section"),
    ("solve", {"solver": {"tau": "1.1"}}, "solver section"),
    # JSON's true is an int to Python, and passed every range check as 1
    ("solve", {"params": {"alpha": True}}, "params section"),
    ("solve", {"solver": {"tau": True}}, "solver section"),
    ("solve", {"params": {"varsigma": "1e-8"}}, "params section"),
    ("solve", {"selection": {"m": 2.5}}, "selection budgets"),
    ("solve", {"selection": {"r": True}}, "selection budgets"),
    # NaN, which JSON configs may hold, fails every comparison
    ("solve", {"solver": {"tau": float("nan")}}, "solver section"),
    ("solve", {"solver": {"epsilon": float("nan"), "max_outer_iters": 50}}, "solver section"),
    ("solve", {"params": {"alpha": float("nan")}}, "params section"),
    ("solve", {"params": {"varsigma": float("nan")}}, "params section"),
    # so may Infinity, and a number too large for a float reads as infinite
    ("solve", {"solver": {"tau": float("inf")}}, "solver section"),
    ("solve", '{"params": {"alpha": 1e999}}', "params section"),
    ("bench", {"bench": {"alfs_grid": [0.1, float("inf")]}}, "bench section"),
    # a string is truthy, so "false" would standardize or read a header
    ("solve", {"data": {"standardize": "false"}}, "data section"),
    ("solve", {"data": {"has_header": "false"}}, "data section"),
    ("bench", {"data": {"has_header": 1}}, "data section"),
    ("solve", {"data": {"label_column": 4}}, "data section"),
    ("solve", {"data": {"orientation": 5}}, "data section"),
    # a string of methods used to be iterated by character
    ("bench", {"bench": {"methods": "random"}}, "bench section"),
    ("bench", {"bench": {"methods": []}}, "bench section"),
    # only null means no grid; a falsy value used to run the curve without one
    ("bench", {"bench": {"alfs_grid": 0}}, "bench section"),
    ("bench", {"bench": {"alfs_grid": False}}, "bench section"),
    ("bench", {"bench": {"alfs_grid": ""}}, "bench section"),
    ("bench", {"bench": {"alfs_grid": {}}}, "bench section"),
    ("bench", {"bench": {"alfs_grid": []}}, "bench section"),
], ids=[
    "bench-repeats", "bench-rcur_rank", "bench-alfs_grid", "bench-max_outer_iters",
    "solve-max_outer_iters", "solve-tau", "solve-alpha-true", "solve-tau-true",
    "solve-varsigma-string", "solve-selection_m", "solve-selection_r",
    "solve-tau-nan", "solve-epsilon-nan", "solve-alpha-nan", "solve-varsigma-nan",
    "solve-tau-inf", "solve-alpha-1e999", "bench-alfs_grid-inf",
    "solve-standardize-string", "solve-has_header-string", "bench-has_header-int",
    "solve-label_column-int", "solve-orientation-int",
    "bench-methods-string", "bench-methods-empty",
    "bench-alfs_grid-zero", "bench-alfs_grid-false", "bench-alfs_grid-string",
    "bench-alfs_grid-object", "bench-alfs_grid-empty",
])
def test_mistyped_config_value_exits_2_naming_the_section(
    command, config, section, tiny_csv, tmp_path, capsys
):
    cfg = tmp_path / "typo.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    out = tmp_path / "never.out"
    argv = [command, "--data", str(tiny_csv), "--label-column", "label",
            "--config", str(cfg), "--out", str(out)]
    if command == "bench":
        argv += ["--methods", "alfs", "--budgets", "2"]
    assert run_cli(*argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"invalid {section}" in err
    assert "Traceback" not in err


def _not_utf8(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b'{"params": {"alpha": 1.0}}\xff\n')
    return path


@pytest.mark.parametrize("argv, culprit", [
    (["solve", "--data", "{tiny}", "--out", "{dir}"], "{dir}"),
    (["select", "--result", "{result}", "--m", "1", "--r", "1", "--out", "{dir}"], "{dir}"),
    (["bench", "--data", "{tiny}", "--methods", "random", "--budgets", "2",
      "--out", "{dir}"], "{dir}"),
    (["solve", "--data", "{dir}", "--out", "{out}"], "{dir}"),
    (["solve", "--data", "{tiny}", "--config", "{dir}", "--out", "{out}"], "{dir}"),
    (["select", "--result", "{dir}", "--m", "1", "--r", "1"], "{dir}"),
    (["solve", "--data", "{tiny}", "--config", "{bad_config}", "--out", "{out}"],
     "{bad_config}"),
    (["select", "--result", "{bad_result}", "--m", "1", "--r", "1"], "{bad_result}"),
    (["solve", "--data", "{bad_csv}", "--out", "{out}"], "{bad_csv}"),
], ids=["solve-out-dir", "select-out-dir", "bench-out-dir", "data-dir", "config-dir",
        "result-dir", "config-not-utf8", "result-not-utf8", "data-not-utf8"])
def test_a_path_that_is_a_directory_or_not_utf8_exits_2_naming_it(
    argv, culprit, tiny_csv, tmp_path, capsys
):
    result = tmp_path / "result.json"
    result.write_text(json.dumps({
        "sample_ranking": [0, 1], "sample_scores": [1.0, 0.5],
        "feature_ranking": [0], "feature_scores": [1.0],
    }))
    paths = {
        "tiny": tiny_csv, "dir": tmp_path / "a-dir", "result": result,
        "out": tmp_path / "never.out",
        "bad_config": _not_utf8(tmp_path, "config.json"),
        "bad_result": _not_utf8(tmp_path, "result-ff.json"),
        "bad_csv": _not_utf8(tmp_path, "ff.csv"),
    }
    paths["dir"].mkdir()
    argv = [arg.format(**paths) for arg in argv]
    if argv[0] != "select":
        argv += ["--label-column", "label"]
    assert run_cli(*argv) == 2
    assert not paths["out"].exists()
    err = capsys.readouterr().err
    assert culprit.format(**paths) in err
    assert "Traceback" not in err


class _Seen(Exception):
    """Raised by a stand-in once it has seen what a command passed it."""


_SAMPLE_CURVE = {"methods": ["random"], "sample_budgets": [3], "repeats": 1}


@pytest.mark.parametrize("flag, value, key, standing, given", [
    # the config sets `key` to `standing`; the flag, given `value`, to `given`
    ("--no-header", None, "data.has_header", True, False),
    ("--label-column", "label", "data.label_column", "f0", "label"),
    ("--rows-are-features", None, "data.orientation", ROWS_ARE_SAMPLES, ROWS_ARE_FEATURES),
    ("--standardize", None, "data.standardize", False, True),
    ("--m", "3", "selection.m", 2, 3),
    ("--r", "1", "selection.r", 2, 1),
    ("--methods", "rcur", "bench.methods", ["random"], ["rcur"]),
    ("--budgets", "2:4:2", "bench.sample_budgets", [3], [2, 4]),
    ("--feature-budgets", "2,3", "bench.feature_budgets", [4], [2, 3]),
    ("--repeats", "2", "bench.repeats", 3, 2),
    ("--seed", "5", "bench.seed", 4, 5),
])
def test_a_flag_overrides_its_config_key(
    flag, value, key, standing, given, tmp_path, monkeypatch
):
    section, name = key.split(".")
    seen = {}

    def fake_load_csv(path, **kwargs):
        seen.update(kwargs)
        return load_csv(TINY_CSV, label_column="label")

    def fake_standardize(ds):
        seen["standardize"] = True
        return ds

    def fake_run_curve(train, test, spec):
        seen["spec"] = spec
        raise _Seen

    monkeypatch.setattr(cli_mod, "load_csv", fake_load_csv)
    monkeypatch.setattr(cli_mod, "standardize_features", fake_standardize)
    monkeypatch.setattr(cli_mod, "run_curve", fake_run_curve)

    def effective(*flag_argv):
        bench = dict(_SAMPLE_CURVE)
        if name == "feature_budgets":
            bench["methods"] = ["variance+random"]
        config = {"solver": {"tau": 1.5}, "bench": bench}
        config.setdefault(section, {})[name] = standing
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        seen.clear()
        command = "solve" if section == "selection" else "bench"
        try:
            assert main([command, "--data", "any.csv", "--config", str(cfg),
                         "--out", str(out), *flag_argv]) == 0
        except _Seen:
            pass
        if section == "selection":
            return json.loads(out.read_text())["config_echo"]["selection"][name]
        if section == "data":
            # the data section reaches load_csv, but for standardize
            return seen.get(name, False) if name == "standardize" else seen[name]
        if name == "methods":
            return [seen["spec"].method]
        got = getattr(seen["spec"], name)
        return list(got) if isinstance(got, tuple) else got

    assert effective(flag, *([value] if value else [])) == given
    assert effective() == standing
    if isinstance(standing, list):
        # an empty list value leaves the config's list standing
        assert effective(flag, "") == standing


def test_a_flag_that_cannot_be_parsed_is_reported_before_the_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    argv = ["bench", "--data", str(TINY_CSV), "--label-column", "label", "--config", str(bad),
            "--methods", "random", "--out", str(tmp_path / "never.csv")]
    assert run_cli(*argv, "--budgets", "oops") == 2
    assert capsys.readouterr().err == (
        "error: cannot parse --budgets 'oops': expected lo:hi:step or a comma list\n")
    assert run_cli(*argv, "--budgets", "2") == 2
    assert "malformed JSON config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "bench", "oracle"])
def test_help_lists_the_shared_flags_first(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    flags = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.MULTILINE)
    assert flags[:6] == ["--data", "--config", "--no-header", "--label-column",
                         "--rows-are-features", "--standardize"]


def _command_actions() -> dict:
    """Each command's parser actions, as ``build_parser`` declares them."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions if a.option_strings != ["-h", "--help"]]
            for name, p in sub.choices.items()}


class TestReadme:
    def readme_after(self, heading: str) -> str:
        return (REPO_ROOT / "README.md").read_text(encoding="utf-8").split(heading, 1)[1]

    def test_the_synopsis_lists_every_flag_of_every_command(self):
        block = self.readme_after("## CLI").split("```", 2)[1]
        shown: dict[str, set] = {}
        for line in block.strip().splitlines():
            if line.startswith("alfs "):
                command = line.split()[1]
            shown.setdefault(command, set()).update(re.findall(r"--[\w-]+", line))
        assert shown == {
            command: {flag for action in actions for flag in action.option_strings}
            for command, actions in _command_actions().items()
        }

    def test_the_flag_table_names_the_config_key_of_each_flag(self):
        section = self.readme_after("## Configuration")
        table = dict(re.findall(r"^\| `(--[\w-]+)` \| `(\w+\.\w+)`", section, re.MULTILINE))
        overrides = {
            flag: action.dest
            for actions in _command_actions().values()
            for action in actions if "." in action.dest
            for flag in action.option_strings
        }
        assert len(overrides) == 11
        assert table == overrides


def test_the_bundled_solve_document_is_the_recorded_one(tmp_path, monkeypatch):
    # the bytes CI's console-script step compares; the document names its
    # data path as given, so it is written from the repository root
    monkeypatch.chdir(REPO_ROOT)
    out = tmp_path / "tiny-solve.json"
    assert run_cli("solve", "--data", "data/tiny.csv", "--label-column", "label",
                   "--out", str(out)) == 0
    assert out.read_bytes() == (REPO_ROOT / "tests" / "golden" / "tiny-solve.json").read_bytes()


class TestSolveCommand:
    def test_end_to_end_on_bundled_csv(self, tiny_csv, tmp_path):
        out = tmp_path / "result.json"
        code = run_cli(
            "solve", "--data", str(tiny_csv), "--label-column", "label",
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["stop_reason"] == "converged"
        assert doc["wall_time_seconds"] is None
        assert len(doc["sample_ranking"]) == 8
        assert len(doc["feature_ranking"]) == 4
        assert doc["config_echo"]["params"]["alpha"] == 1.0
        assert doc["config_echo"]["solver"]["tau"] == 1.1
        # only the sections solve reads: a bench option cannot change it
        assert set(doc["config_echo"]) == {
            "data", "params", "solver", "selection", "data_path"
        }
        assert "inner_failures" not in doc

    def test_malformed_config_exits_2_without_output(self, tiny_csv, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "never.json"
        code = run_cli(
            "solve", "--data", str(tiny_csv), "--config", str(bad),
            "--out", str(out),
        )
        assert code == 2
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, tiny_csv, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"params": {"alpha": 1.0, "bogus": 3}}))
        code = run_cli(
            "solve", "--data", str(tiny_csv), "--config", str(bad),
            "--out", str(tmp_path / "never.json"),
        )
        assert code == 2

    @pytest.mark.parametrize("removed", [
        {"params": {"smoothing_eps": 1e-8}},
        {"solver": {"inner": {"max_iters": 25, "grad_tol": 1e-5}}},
        {"solver": {"seed": 0}},
        {"solver": {"rho1_init": 1e-6}},
        {"solver": {"rho2_init": 1e-6}},
        {"solver": {"adaptive_rho": False}},
        {"bench": {"knn_k": 1}},
    ])
    def test_removed_solver_keys_exit_2(self, tiny_csv, tmp_path, capsys, removed):
        bad = tmp_path / "old.json"
        bad.write_text(json.dumps(removed))
        code = run_cli(
            "solve", "--data", str(tiny_csv), "--config", str(bad),
            "--out", str(tmp_path / "never.json"),
        )
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_all_zero_sample_exits_2_naming_it(self, tmp_path, capsys):
        data = tmp_path / "zero.csv"
        data.write_text("a,b,c\n0,0,0\n1,3,1\n2,2,5\n")
        out = tmp_path / "never.json"
        code = run_cli("solve", "--data", str(data), "--out", str(out))
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "all-zero sample(s) at 0-based index [0]" in err
        assert "Traceback" not in err

    def test_the_guard_names_the_samples_angular_weights_rejects(self, tmp_path, capsys):
        x = random_dataset(9, d=3, n=7).matrix.copy()
        x[:, [1, 5]] = 0.0
        x[0, 5] = -0.0
        with pytest.raises(ValueError) as info:
            angular_weights(Dataset(x))
        data = tmp_path / "zero.csv"
        write_csv(Dataset(x), data)
        assert run_cli("solve", "--data", str(data), "--out", str(tmp_path / "never.json")) == 2
        named = re.search(r"all-zero sample\(s\) at 0-based index (\[.*?\])",
                          capsys.readouterr().err).group(1)
        assert named == "[1, 5]"
        assert str(info.value) == f"angular weights undefined: zero column(s) at {named}"

    def test_unwritable_out_exits_2(self, tiny_csv, tmp_path):
        code = run_cli(
            "solve", "--data", str(tiny_csv), "--label-column", "label",
            "--out", str(tmp_path / "no" / "such" / "dir" / "x.json"),
        )
        assert code == 2

    def test_missing_data_exits_2(self, tmp_path):
        code = run_cli(
            "solve", "--data", str(tmp_path / "ghost.csv"),
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2

    def test_numerical_failure_exits_3(self, tiny_csv, tmp_path, monkeypatch):
        def exploding_solve(ds, params, cfg):
            raise SolverAbortError("non-finite iterate at outer iteration 3")

        monkeypatch.setattr(cli_mod, "solve", exploding_solve)
        code = run_cli(
            "solve", "--data", str(tiny_csv), "--label-column", "label",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 3

    def test_overflow_in_the_solver_exits_3(self, tmp_path, capsys):
        x = np.random.default_rng(0).normal(size=(12, 4)) * 1e110
        data = tmp_path / "huge.csv"
        np.savetxt(data, x, delimiter=",", header="a,b,c,d", comments="")
        out = tmp_path / "never.json"
        code = run_cli("solve", "--data", str(data), "--out", str(out))
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "numerical failure: " in err
        assert "at outer iteration 1" in err
        assert "Traceback" not in err

    def test_overflow_at_the_start_exits_3(self, tmp_path, capsys):
        x = np.random.default_rng(0).normal(size=(12, 4)) * 1e155
        data = tmp_path / "huge.csv"
        np.savetxt(data, x, delimiter=",", header="a,b,c,d", comments="")
        out = tmp_path / "never.json"
        code = run_cli("solve", "--data", str(data), "--out", str(out))
        assert code == 3
        assert not out.exists()
        # the error alone: no numpy warning from loading or checking the data
        assert capsys.readouterr().err == (
            "numerical failure: objective is non-finite before outer iteration 1\n")

    def test_data_too_small_to_square_solves(self, tmp_path, capsys):
        # squares of 1e-170 underflow; the angular weights used to call
        # every sample a zero column
        x = np.random.default_rng(0).normal(size=(12, 4)) * 1e-170
        data = tmp_path / "tiny.csv"
        np.savetxt(data, x, delimiter=",", header="a,b,c,d", comments="")
        out = tmp_path / "result.json"
        assert run_cli("solve", "--data", str(data), "--out", str(out)) == 0
        assert json.loads(out.read_text())["stop_reason"] == "converged"
        assert "Traceback" not in capsys.readouterr().err

    def test_standardize_on_huge_data_solves(self, tmp_path, capsys):
        # squares of 1e200 overflow; the std used to be inf and the
        # standardized features zeros
        x = np.random.default_rng(0).normal(size=(12, 4)) * 1e200
        data = tmp_path / "huge.csv"
        np.savetxt(data, x, delimiter=",", header="a,b,c,d", comments="")
        out = tmp_path / "result.json"
        assert run_cli("solve", "--data", str(data), "--standardize", "--out", str(out)) == 0
        assert "all-zero" not in capsys.readouterr().err

    def test_an_overflowing_penalty_exits_3_with_its_error_alone(
        self, tiny_csv, tmp_path, capsys
    ):
        cfg = tmp_path / "big-rho.json"
        cfg.write_text(json.dumps({"solver": {"rho_init": 1e307, "rho_max": 1e307, "tau": 1}}))
        out = tmp_path / "never.json"
        code = run_cli("solve", "--data", str(tiny_csv), "--label-column", "label",
                       "--config", str(cfg), "--out", str(out))
        assert code == 3
        assert not out.exists()
        assert capsys.readouterr().err == (
            "numerical failure: soft_threshold input contains non-finite entries "
            "at outer iteration 1\n")

    @pytest.mark.parametrize("solver, warning", [
        ({}, None),
        ({"max_outer_iters": 5},
         "solve: warning: not converged within max_outer_iters = 5 sweeps\n"),
        ({"tau": 1}, "solve: warning: not converged within max_outer_iters = 1000 "
                     "sweeps; with tau = 1, rho stays at rho_init = 1e-06, "
                     "which may be too small\n"),
    ], ids=["converged", "max_iters", "fixed-rho"])
    def test_a_solve_out_of_sweeps_warns(self, tiny_csv, tmp_path, capsys, solver, warning):
        cfg = tmp_path / "solver.json"
        cfg.write_text(json.dumps({"solver": solver}))
        out = tmp_path / "result.json"
        assert run_cli("solve", "--data", str(tiny_csv), "--label-column", "label",
                       "--config", str(cfg), "--out", str(out)) == 0
        err = capsys.readouterr().err
        doc = json.loads(out.read_text())
        if warning is None:
            assert doc["stop_reason"] == "converged" and "warning" not in err
        else:
            assert doc["stop_reason"] == "max_iters" and err.endswith(warning)

    def test_timing_flag_embeds_wall_time(self, tiny_csv, tmp_path, fast_config):
        out = tmp_path / "timed.json"
        code = run_cli(
            "solve", "--data", str(tiny_csv), "--label-column", "label",
            "--config", str(fast_config), "--out", str(out), "--timing",
        )
        assert code == 0
        assert json.loads(out.read_text())["wall_time_seconds"] > 0

    def test_config_echo_replays_exactly(self, tiny_csv, tmp_path, fast_config):
        out1 = tmp_path / "first.json"
        run_cli(
            "solve", "--data", str(tiny_csv), "--label-column", "label",
            "--config", str(fast_config), "--out", str(out1),
        )
        doc = json.loads(out1.read_text())
        echo = dict(doc["config_echo"])
        echo.pop("data_path")
        replay_cfg = tmp_path / "replay.json"
        replay_cfg.write_text(json.dumps(echo))
        out2 = tmp_path / "second.json"
        # the echoed config holds every effective setting, including the
        # label column, so no extra flags are needed on replay
        code = run_cli(
            "solve", "--data", str(tiny_csv), "--config", str(replay_cfg),
            "--out", str(out2),
        )
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_matches_direct_library_invocation(self, tiny_csv, tmp_path, fast_config):
        from alfs import (
            RegularizationParams,
            SolverConfig,
            rank_and_select,
            solve,
        )

        out = tmp_path / "result.json"
        run_cli(
            "solve", "--data", str(tiny_csv), "--label-column", "label",
            "--config", str(fast_config), "--out", str(out),
        )
        doc = json.loads(out.read_text())

        ds = load_csv(tiny_csv, label_column="label")
        cfg = SolverConfig(tau=1.5)
        w, report = solve(ds, RegularizationParams(), cfg)
        sel = rank_and_select(w, SelectionRequest(8, 4))
        assert doc["selected_samples"] == list(sel.selected_samples)
        assert doc["sample_scores"] == list(sel.sample_scores)  # bitwise floats
        assert doc["objective_trace"] == [r.objective for r in report.records]
        assert doc["stop_reason"] == report.stop_reason


class TestSelectCommand:
    def make_result(self, tiny_csv, tmp_path, fast_config):
        out = tmp_path / "result.json"
        run_cli(
            "solve", "--data", str(tiny_csv), "--label-column", "label",
            "--config", str(fast_config), "--out", str(out),
        )
        return out

    def test_rebudget_from_result(self, tiny_csv, tmp_path, fast_config):
        result = self.make_result(tiny_csv, tmp_path, fast_config)
        out = tmp_path / "sel.json"
        code = run_cli(
            "select", "--result", str(result), "--m", "3", "--r", "2",
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        full = json.loads(result.read_text())
        assert doc["selected_samples"] == full["sample_ranking"][:3]
        assert doc["selected_features"] == full["feature_ranking"][:2]

    def test_select_prints_to_stdout(self, tiny_csv, tmp_path, fast_config, capsys):
        result = self.make_result(tiny_csv, tmp_path, fast_config)
        code = run_cli("select", "--result", str(result), "--m", "2", "--r", "1")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["selected_samples"]) == 2

    def test_select_flags_low_scores_as_solve_does(self, tmp_path, capsys):
        # row norms 1, 1e-7, 0 and column norms 1, 1e-7
        w = np.array([[1.0, 0.0], [0.0, 1e-7], [0.0, 0.0]])
        full = rank_and_select(w, SelectionRequest(3, 2))
        result = tmp_path / "result.json"
        result.write_text(json.dumps({
            "sample_ranking": full.sample_ranking, "sample_scores": full.sample_scores,
            "feature_ranking": full.feature_ranking, "feature_scores": full.feature_scores,
        }))
        for m in (1, 2, 3):
            for r in (1, 2):
                assert run_cli("select", "--result", str(result),
                               "--m", str(m), "--r", str(r)) == 0
                doc = json.loads(capsys.readouterr().out)
                expected = rank_and_select(w, SelectionRequest(m, r)).low_score_warning
                assert doc["low_score_warning"] == expected == (m > 1 or r > 1)

    def test_overbudget_exits_2(self, tiny_csv, tmp_path, fast_config):
        result = self.make_result(tiny_csv, tmp_path, fast_config)
        assert run_cli("select", "--result", str(result), "--m", "99", "--r", "1") == 2

    @pytest.mark.parametrize("change", [
        {"sample_ranking": None},
        {"feature_scores": None},
        {"sample_ranking": [0, "1", 2]},
        {"feature_ranking": [True, 0]},
        {"sample_scores": [1.0, "0.5", 0.0]},
        {"sample_scores": [1.0, 0.5]},
        {"feature_ranking": [1, 0, 2]},
        # a ranking must be a permutation of the scored indices
        {"sample_ranking": [7, 7, 7]},
        {"sample_ranking": [0, 1, 1]},
        {"sample_ranking": [0, 1, 3]},
        {"feature_ranking": [-1, 0]},
    ], ids=["null-ranking", "null-scores", "string-index", "bool-index", "string-score",
            "short-scores", "long-ranking", "repeat-out-of-range", "repeat",
            "out-of-range", "negative"])
    def test_a_malformed_document_exits_2(self, tmp_path, capsys, change):
        result = tmp_path / "result.json"
        result.write_text(json.dumps({
            "sample_ranking": [0, 1, 2], "sample_scores": [1.0, 0.5, 0.0],
            "feature_ranking": [1, 0], "feature_scores": [2, 1.0], **change,
        }))
        assert run_cli("select", "--result", str(result), "--m", "1", "--r", "1") == 2
        err = capsys.readouterr().err
        assert "malformed result document" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("score", ["NaN", "Infinity", "-Infinity"])
    def test_a_score_that_is_not_finite_exits_2(self, tmp_path, capsys, score):
        # json reads these, though solve never writes one
        result = tmp_path / "result.json"
        result.write_text(f'{{"sample_ranking": [0, 1], "sample_scores": [{score}, 0.5], '
                          '"feature_ranking": [0], "feature_scores": [1.0]}')
        assert run_cli("select", "--result", str(result), "--m", "1", "--r", "1") == 2
        err = capsys.readouterr().err
        assert "malformed result document: sample_ranking" in err
        assert "Traceback" not in err

    def test_a_document_that_is_no_object_exits_2(self, tmp_path, capsys):
        result = tmp_path / "result.json"
        result.write_text("[0, 1, 2]")
        assert run_cli("select", "--result", str(result), "--m", "1", "--r", "1") == 2
        assert "malformed result document" in capsys.readouterr().err


class TestBenchCommand:
    @pytest.fixture
    def cluster_csv(self, tmp_path):
        ds = make_clusters(n=45, d=6, n_classes=3, sep=10.0, noise=1.0, seed=4)
        p = tmp_path / "clusters.csv"
        write_csv(ds, p, label_column="label")
        return p

    def test_row_counting_contract(self, cluster_csv, tmp_path):
        out = tmp_path / "curves.csv"
        code = run_cli(
            "bench", "--data", str(cluster_csv), "--label-column", "label",
            "--methods", "random", "--budgets", "2:4:2", "--repeats", "2",
            "--seed", "0", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,budget,repeat,accuracy"
        assert len(lines) == 1 + 4  # budgets {2, 4} x 2 repeats

    def test_rerun_is_byte_identical(self, cluster_csv, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = [
            "bench", "--data", str(cluster_csv), "--label-column", "label",
            "--methods", "random", "--budgets", "2,5,9", "--repeats", "3",
            "--seed", "7",
        ]
        assert run_cli(*argv, "--out", str(out1)) == 0
        assert run_cli(*argv, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_all_zero_sample_rejected_only_for_the_solver(self, tmp_path):
        x = make_clusters(n=12, d=3, n_classes=2, seed=5).matrix.copy()
        x[:, 4] = 0.0
        p = tmp_path / "zero.csv"
        write_csv(Dataset(x, labels=(0, 1) * 6), p, label_column="label")
        argv = ["bench", "--data", str(p), "--label-column", "label",
                "--budgets", "2", "--repeats", "1", "--out", str(tmp_path / "c.csv")]
        assert run_cli(*argv, "--methods", "alfs") == 2
        assert run_cli(*argv, "--methods", "random") == 0

    def test_unlabeled_dataset_exits_2(self, tmp_path):
        ds = random_dataset(3, d=4, n=12)
        p = tmp_path / "plain.csv"
        write_csv(ds, p)
        code = run_cli(
            "bench", "--data", str(p), "--methods", "random",
            "--budgets", "2:4:2", "--out", str(tmp_path / "c.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--methods", "alfs,random", "--budgets", "2,9"],
         "sample budget m=9 outside 1..5"),
        (["--methods", "variance+random", "--budgets", "3", "--feature-budgets", "2,5"],
         "feature budget r=5 outside 1..4"),
    ], ids=["samples", "features"])
    def test_budget_above_the_training_set_exits_2(
        self, flags, message, tiny_csv, tmp_path, capsys
    ):
        out = tmp_path / "never.csv"
        code = run_cli(
            "bench", "--data", str(tiny_csv), "--label-column", "label", *flags,
            "--out", str(out),
        )
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{message}: the training set has 5 samples and 4 features" in err
        assert "Traceback" not in err

    def test_variance_rcur_with_one_feature_exits_2(self, tiny_csv, tmp_path, capsys):
        argv = ["bench", "--data", str(tiny_csv), "--label-column", "label",
                "--budgets", "3", "--feature-budgets", "1", "--repeats", "1",
                "--out", str(tmp_path / "c.csv")]
        assert run_cli(*argv, "--methods", "variance+rcur") == 2
        err = capsys.readouterr().err
        assert "invalid bench section for method 'variance+rcur'" in err
        assert "Traceback" not in err
        assert run_cli(*argv, "--methods", "rcur") == 0

    def test_repeated_budget_exits_2(self, tiny_csv, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = run_cli(
            "bench", "--data", str(tiny_csv), "--label-column", "label",
            "--methods", "random", "--budgets", "3,3", "--repeats", "1",
            "--out", str(out),
        )
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "invalid bench section for method 'random'" in err
        assert "must not repeat a budget" in err

    def test_zero_train_size_exits_2(self, cluster_csv, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = run_cli(
            "bench", "--data", str(cluster_csv), "--label-column", "label",
            "--methods", "random", "--budgets", "2", "--train-size", "0",
            "--out", str(out),
        )
        assert code == 2
        assert not out.exists()
        assert "n_train=0 outside 1..44" in capsys.readouterr().err

    def test_methods_that_name_no_method_exit_2(self, cluster_csv, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = run_cli(
            "bench", "--data", str(cluster_csv), "--label-column", "label",
            "--methods", ",", "--budgets", "2", "--out", str(out),
        )
        assert code == 2
        assert not out.exists()
        assert "bench needs methods" in capsys.readouterr().err

    def test_no_sample_budgets_exit_2(self, cluster_csv, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert run_cli("bench", "--data", str(cluster_csv), "--label-column", "label",
                       "--methods", "random", "--out", str(out)) == 2
        assert not out.exists()
        assert "bench needs sample budgets" in capsys.readouterr().err

    def test_bad_budget_spec_exits_2(self, cluster_csv, tmp_path):
        code = run_cli(
            "bench", "--data", str(cluster_csv), "--label-column", "label",
            "--methods", "random", "--budgets", "oops",
            "--out", str(tmp_path / "c.csv"),
        )
        assert code == 2


class TestOracleCommand:
    def test_tiny_exact_case(self, tmp_path, capsys):
        ds = Dataset(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        p = tmp_path / "tiny.csv"
        write_csv(ds, p)
        code = run_cli("oracle", "--data", str(p), "--m", "2", "--r", "2")
        assert code == 0
        out = capsys.readouterr().out
        assert "samples: 0,1" in out
        err = float(out.splitlines()[-1].split(":")[1])
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_oversize_guard_exits_2(self, tmp_path, capsys):
        ds = random_dataset(4, d=30, n=40)
        p = tmp_path / "big.csv"
        write_csv(ds, p)
        code = run_cli("oracle", "--data", str(p), "--m", "15", "--r", "12")
        assert code == 2
        assert "too large" in capsys.readouterr().err

    def test_matches_library_bit_for_bit(self, tmp_path, capsys):
        ds = random_dataset(5, d=4, n=5)
        p = tmp_path / "data.csv"
        write_csv(ds, p)
        code = run_cli("oracle", "--data", str(p), "--m", "2", "--r", "2")
        assert code == 0
        out = capsys.readouterr().out
        loaded = load_csv(p)
        s, f, err = oracle_best_subsets(loaded, SelectionRequest(2, 2))
        assert f"samples: {','.join(str(i) for i in s)}" in out
        assert f"features: {','.join(str(i) for i in f)}" in out
        assert f"error: {err!r}" in out
