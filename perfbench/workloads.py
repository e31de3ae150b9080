"""The three workloads: seeded inputs, their operations, and the checks.

* ``solve``: one label-free ``alfs solve`` per labeled 6-cluster CSV, the
  one-shot use; the ADMM W step dominates.
* ``grid``: per instance, ``oracle_best_subsets`` then an 8-cell
  ``grid_search`` on a tiny criterion-5-shaped matrix, ten instances per
  operation; per-solve set-up and overhead dominate once the W step is
  cheap.
* ``eval``: ``alfs bench`` curves for the non-solver methods plus ``alfs
  oracle``; the solver is bypassed, k-NN and the oracle's pseudoinverses
  dominate.

Input generation uses numpy only and depends on nothing but the seed and
the size preset; the program sees only the CSV files written here. The
held-back test split of ``solve`` stays with the benchmark.

:func:`run_op` executes inside a worker process that has imported alfs;
:class:`Checker` runs in the benchmark process and turns one operation's
outputs into failed checks and the workload's quality metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

# Sizes. "full" is the benchmark; "smoke" shrinks every shape for tests.
# solve draws two datasets per run and a held-back test split far larger
# than the training set: the 1-NN accuracy of 12 selected labels swings by
# about 0.1 between datasets, and neither costs the program any work.
# grid runs many instances on two values of the standard grid
# {0.1, 1, 10, 100}: one instance's grid cost varies by about a quarter
# from instance to instance, so two instances of the full 64-cell grid made
# wall_s spread by about 0.25 of its median between seeds. Ten instances of
# the 8-cell grid {0.1, 10} cost about as much and average that out, and
# their winners come within 1.07 of the exhaustive optimum on average (the
# full grid: 1.05; {0.1, 1}: 1.7).
SIZES = {
    "full": {
        "solve": dict(datasets=2, d=30, n_train=120, n_test=600, classes=6, sep=4.0, m=12),
        "grid": dict(instances=10, d=5, n=6, m=2, r=2, grid=(0.1, 10.0)),
        "eval": dict(
            d=80, n=1500, classes=8, sep=4.0, n_train=1000,
            budgets=(10, 40, 160, 1000), repeats=10,
            feature_m=40, feature_budgets=(5, 10, 20, 40),
            oracle_d=8, oracle_n=14, oracle_m=4, oracle_r=3,
        ),
    },
    "smoke": {
        "solve": dict(datasets=2, d=8, n_train=24, n_test=60, classes=3, sep=4.0, m=4),
        "grid": dict(instances=1, d=4, n=5, m=2, r=2, grid=(1.0, 10.0)),
        "eval": dict(
            d=10, n=90, classes=3, sep=4.0, n_train=60,
            budgets=(5, 60), repeats=2,
            feature_m=10, feature_budgets=(3, 6),
            oracle_d=5, oracle_n=7, oracle_m=2, oracle_r=2,
        ),
    },
}
WORKLOADS = ("solve", "grid", "eval")
GRID_RATIO_BAR = 1.25  # acceptance criterion 5's bar
ORACLE_RTOL = 1e-9
RANDOM_DRAWS = 200
BENCH_SEED = 0
LABEL = "label"

# quality metrics; a workload reports 1.0 for those that do not apply to it
QUALITY = ("objective", "select_acc", "oracle_ratio")


# -- seeded inputs ----------------------------------------------------------

def _clusters(rng, d: int, n: int, classes: int, sep: float):
    """Balanced Gaussian clusters: centers at distance ``sep`` from the
    origin along orthonormal directions, unit noise, shuffled labels."""
    q, _ = np.linalg.qr(rng.normal(size=(d, classes)))
    labels = np.arange(n) % classes
    rng.shuffle(labels)
    x = sep * q[:, labels] + rng.normal(size=(d, n))
    return x, [f"c{int(c)}" for c in labels]


def _write_csv(path: Path, x: np.ndarray, labels=None) -> None:
    """Rows are samples; ``repr`` floats round-trip exactly."""
    d, n = x.shape
    head = [f"f{i}" for i in range(d)] + ([LABEL] if labels is not None else [])
    lines = [",".join(head)]
    for j in range(n):
        row = [repr(float(v)) for v in x[:, j]]
        if labels is not None:
            row.append(labels[j])
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_inputs(workload: str, size: str, seed: int, out: Path) -> list[tuple[Path, dict]]:
    """Write each of the workload's datasets into ``out/d<i>`` and return
    (directory, spec) pairs; the spec holds the shapes, the file names and
    the benchmark-only data as plain JSON."""
    shape = SIZES[size][workload]
    made = []
    for i in range(shape.get("datasets", 1)):
        rng = np.random.default_rng([seed, WORKLOADS.index(workload), i])
        d = out / f"d{i}"
        d.mkdir(parents=True, exist_ok=True)
        spec = {"workload": workload, "size": size, "seed": seed, "dataset": i,
                "shape": shape}
        if workload == "solve":
            n = shape["n_train"] + shape["n_test"]
            x, y = _clusters(rng, shape["d"], n, shape["classes"], shape["sep"])
            tr = slice(0, shape["n_train"])
            te = slice(shape["n_train"], n)
            _write_csv(d / "train.csv", x[:, tr], y[tr])
            np.save(d / "test_x.npy", x[:, te])
            spec["test_labels"] = y[te]
            spec["files"] = ["train.csv"]
        elif workload == "grid":
            spec["files"] = []
            for k in range(shape["instances"]):
                name = f"instance{k}.csv"
                _write_csv(d / name, rng.normal(size=(shape["d"], shape["n"])))
                spec["files"].append(name)
        elif workload == "eval":
            x, y = _clusters(rng, shape["d"], shape["n"], shape["classes"], shape["sep"])
            _write_csv(d / "labeled.csv", x, y)
            _write_csv(d / "oracle.csv",
                       rng.normal(size=(shape["oracle_d"], shape["oracle_n"])))
            spec["files"] = ["labeled.csv", "oracle.csv"]
        else:
            raise ValueError(f"unknown workload {workload!r}")
        (d / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        made.append((d, spec))
    return made


def setup_code(spec: dict, inputs: Path) -> str:
    """Python source a fresh interpreter runs to measure set-up: import
    alfs and load the workload's input, up to the first solver, bench or
    selection call."""
    lines = ["import alfs", "from alfs.data import SplitSpec, load_csv, split"]
    w = spec["workload"]
    if w == "solve":
        lines.append(f"load_csv({str(inputs / 'train.csv')!r}, label_column={LABEL!r})")
    elif w == "grid":
        lines += [f"load_csv({str(inputs / f)!r})" for f in spec["files"]]
    else:
        lines += [
            f"ds = load_csv({str(inputs / 'labeled.csv')!r}, label_column={LABEL!r})",
            f"split(ds, SplitSpec(n_train={spec['shape']['n_train']}, seed={BENCH_SEED}))",
            f"load_csv({str(inputs / 'oracle.csv')!r})",
        ]
    return "\n".join(lines) + "\n"


# -- one operation (runs in the worker) -------------------------------------

def _cli(argv: list[str]) -> tuple[int, str]:
    from alfs.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _csv_list(values) -> str:
    return ",".join(str(v) for v in values)


def run_op(spec: dict, inputs: Path, outdir: Path, begin_op) -> dict:
    """Run the workload's operation once; return its raw outputs.

    ``begin_op(i)`` is called before the i-th program call so a tracer can
    tag its spans.
    """
    w, shape = spec["workload"], spec["shape"]
    outdir.mkdir(parents=True, exist_ok=True)
    if w == "solve":
        begin_op(0)
        code, _ = _cli([
            "solve", "--data", str(inputs / "train.csv"), "--label-column", LABEL,
            "--m", str(shape["m"]), "--out", str(outdir / "result.json"),
        ])
        return {"exit_codes": [code], "result": str(outdir / "result.json")}

    if w == "grid":
        from alfs import (GridProtocol, SelectionRequest, SolverConfig,
                          grid_search, load_csv, oracle_best_subsets)
        instances = []
        for i, name in enumerate(spec["files"]):
            begin_op(i)
            ds = load_csv(inputs / name)
            _, _, err_star = oracle_best_subsets(ds, SelectionRequest(shape["m"], shape["r"]))
            res = grid_search(
                ds, GridProtocol(m=shape["m"], r=shape["r"]), grid=shape["grid"],
                gamma=1.0, solver_cfg=SolverConfig(tau=1.5),
            )
            instances.append({
                "err_star": err_star,
                "best_score": res.best_score,
                "n_solver_calls": res.n_solver_calls,
                "failures": len(res.failures),
            })
        return {"exit_codes": [], "instances": instances}

    if w == "eval":
        common = [
            "--data", str(inputs / "labeled.csv"), "--label-column", LABEL,
            "--repeats", str(shape["repeats"]), "--seed", str(BENCH_SEED),
            "--train-size", str(shape["n_train"]),
        ]
        begin_op(0)
        c1, _ = _cli(["bench", *common, "--methods", "random,rcur",
                      "--budgets", _csv_list(shape["budgets"]),
                      "--out", str(outdir / "samples.csv")])
        begin_op(1)
        c2, _ = _cli(["bench", *common, "--methods", "variance+random,variance+rcur",
                      "--budgets", str(shape["feature_m"]),
                      "--feature-budgets", _csv_list(shape["feature_budgets"]),
                      "--out", str(outdir / "features.csv")])
        begin_op(2)
        c3, text = _cli(["oracle", "--data", str(inputs / "oracle.csv"),
                         "--m", str(shape["oracle_m"]), "--r", str(shape["oracle_r"])])
        return {
            "exit_codes": [c1, c2, c3],
            "samples_csv": str(outdir / "samples.csv"),
            "features_csv": str(outdir / "features.csv"),
            "oracle_stdout": text,
        }
    raise ValueError(f"unknown workload {w!r}")


def expected_reconstruction_calls(spec: dict) -> int:
    """reconstruction_error calls one operation makes (traced cross-check)."""
    s = spec["shape"]
    if spec["workload"] == "grid":
        pairs = math.comb(s["n"], s["m"]) * math.comb(s["d"], s["r"])
        return s["instances"] * (pairs + len(s["grid"]) ** 3)
    if spec["workload"] == "eval":
        return math.comb(s["oracle_n"], s["oracle_m"]) * math.comb(s["oracle_d"], s["oracle_r"])
    return 0


# -- checks (run in the benchmark process) ----------------------------------

def fingerprint(spec: dict, outputs: dict) -> str:
    """Every non-timing output of one operation, for determinism checks."""
    w = spec["workload"]
    if w == "solve":
        return Path(outputs["result"]).read_text(encoding="utf-8")
    if w == "grid":
        return json.dumps(outputs["instances"], sort_keys=True)
    return "\n".join([
        Path(outputs["samples_csv"]).read_text(encoding="utf-8"),
        Path(outputs["features_csv"]).read_text(encoding="utf-8"),
        outputs["oracle_stdout"],
    ])


class Checker:
    """Reference values for one workload's inputs, computed once per run."""

    def __init__(self, spec: dict, inputs: Path):
        from alfs import Dataset

        self.spec = spec
        s = spec["shape"]
        if spec["workload"] == "solve":
            from alfs import knn_classify, load_csv, random_sampling

            self.train = load_csv(inputs / "train.csv", label_column=LABEL)
            self.test = Dataset(np.load(inputs / "test_x.npy"),
                                labels=tuple(spec["test_labels"]))
            self.x_norm_sq = float((self.train.matrix ** 2).sum())
            accs = [
                knn_classify(self.train.restrict(
                    samples=list(random_sampling(s["n_train"], s["m"], t))), self.test)[1]
                for t in range(RANDOM_DRAWS)
            ]
            self.random_mean = float(np.mean(accs))
            self.random_p05 = float(np.quantile(accs, 0.05))
        elif spec["workload"] == "eval":
            from alfs import SplitSpec, knn_classify, load_csv, reconstruction_error, split

            ds = load_csv(inputs / "labeled.csv", label_column=LABEL)
            train, test = split(ds, SplitSpec(n_train=s["n_train"], seed=BENCH_SEED))
            self.full_acc = knn_classify(train, test)[1]
            oracle_ds = load_csv(inputs / "oracle.csv")
            self.first_pair_error = reconstruction_error(
                oracle_ds, range(s["oracle_m"]), range(s["oracle_r"]))

    def check(self, outputs: dict) -> tuple[list[str], list[str], dict]:
        """(failed checks, notes, quality metrics) of one operation.

        Notes record quality below a target that a correct program can
        miss on some inputs; they do not fail the operation.
        """
        fails = [f"exit code {c}" for c in outputs["exit_codes"] if c != 0]
        notes: list[str] = []
        quality = dict.fromkeys(QUALITY, 1.0)
        if fails:
            return fails, notes, quality
        w = self.spec["workload"]
        if w == "solve":
            fails += self._check_solve(outputs, notes, quality)
        elif w == "grid":
            fails += self._check_grid(outputs, notes, quality)
        else:
            fails += self._check_eval(outputs)
        return fails, notes, quality

    def _check_solve(self, outputs: dict, notes: list, quality: dict) -> list[str]:
        from alfs import knn_classify

        s = self.spec["shape"]
        doc = json.loads(Path(outputs["result"]).read_text(encoding="utf-8"))
        fails = []
        if doc["stop_reason"] != "converged":
            fails.append(f"stop_reason {doc['stop_reason']!r}")
        if sorted(doc["sample_ranking"]) != list(range(s["n_train"])):
            fails.append("sample_ranking is not a permutation")
        if sorted(doc["feature_ranking"]) != list(range(s["d"])):
            fails.append("feature_ranking is not a permutation")
        objective = doc["objective_trace"][-1]
        if not objective <= self.x_norm_sq:
            fails.append(f"objective {objective} above its value at W=0 {self.x_norm_sq}")
        top = doc["sample_ranking"][: s["m"]]
        _, acc = knn_classify(self.train.restrict(samples=top), self.test)
        # At default parameters the selection falls below the mean, and on
        # some datasets below the 5th percentile, of random sampling, so
        # those comparisons are notes; only chance level (labels of one
        # class alone) marks a broken selection.
        if not acc > 1.0 / s["classes"]:
            fails.append(f"select_acc {acc} at or below chance {1.0 / s['classes']}")
        if acc < self.random_mean:
            notes.append(f"select_acc {acc} below the random-sampling mean "
                         f"{self.random_mean} (5th percentile {self.random_p05})")
        quality["objective"] = objective
        quality["select_acc"] = acc
        return fails

    def _check_grid(self, outputs: dict, notes: list, quality: dict) -> list[str]:
        fails = []
        ratios = []
        cells = len(self.spec["shape"]["grid"]) ** 3
        for i, inst in enumerate(outputs["instances"]):
            if inst["n_solver_calls"] != cells or inst["failures"]:
                fails.append(f"instance {i}: {inst['n_solver_calls']} solver calls, "
                             f"{inst['failures']} failed cells")
            ratio = -inst["best_score"] / inst["err_star"]
            # the oracle is exhaustive, so no grid cell can beat it
            if ratio < 1.0 - ORACLE_RTOL:
                fails.append(f"instance {i}: grid beat the exhaustive optimum, ratio {ratio}")
            # criterion 5 asks for 1.25 on 16 of 20 instances, not on each
            if ratio > GRID_RATIO_BAR:
                notes.append(f"instance {i}: grid/oracle error ratio {ratio} > {GRID_RATIO_BAR}")
            ratios.append(ratio)
        # the mean, not the worst: one instance's ratio swings between 1.0
        # and 1.3 from seed to seed, too much for a bounded metric
        quality["oracle_ratio"] = sum(ratios) / len(ratios)
        return fails

    def _check_eval(self, outputs: dict) -> list[str]:
        s = self.spec["shape"]
        fails = []
        full = max(s["budgets"])
        curves = (
            ("samples_csv", ("random", "rcur"), s["budgets"]),
            ("features_csv", ("variance+random", "variance+rcur"), s["feature_budgets"]),
        )
        for key, methods, budgets in curves:
            rows = Path(outputs[key]).read_text(encoding="utf-8").splitlines()[1:]
            want = len(methods) * len(budgets) * s["repeats"]
            if len(rows) != want:
                fails.append(f"{key}: {len(rows)} rows, expected {want}")
            for row in rows:
                method, budget, _, acc = row.split(",")
                if acc == "":
                    fails.append(f"{key}: empty accuracy in {row!r}")
                elif key == "samples_csv" and int(budget) == full and float(acc) != self.full_acc:
                    fails.append(f"full-label accuracy {acc} != direct knn {self.full_acc}")
        err_line = [ln for ln in outputs["oracle_stdout"].splitlines() if ln.startswith("error:")]
        if len(err_line) != 1:
            fails.append("oracle printed no error line")
        elif not float(err_line[0].split(":", 1)[1]) <= self.first_pair_error:
            fails.append(f"oracle {err_line[0]} above the first pair's {self.first_pair_error}")
        return fails
