"""alfs benchmark: one workload, seeded inputs, checked outputs, one JSON line.

    python3 perfbench/run.py --workload {solve,grid,eval} --seed N \\
        --seconds S --trace {0,1} [--size {full,smoke}]

Run from anywhere; the program is imported from ``src/`` next to this
directory, nothing is installed. Each run

1. pins the environment every process sees (one BLAS/OpenMP thread,
   ``ALFS_THREADS=1``),
2. writes the workload's inputs from ``--seed`` under ``.perfbench_work/``,
3. with ``--trace 0``: times set-up (a fresh interpreter importing alfs and
   loading the input; median of several), then runs whole operations, each
   in a fresh worker process, back to back: one on each of the workload's
   datasets, then more while the next one is predicted to end within
   ``--seconds``. Times are medians over operations, quality metrics means
   over datasets,
4. with ``--trace 1``: runs one operation untraced and one under the span
   tracer, both on the first dataset, and reports the per-layer metrics,
   the tracing overhead, and cross-checks between layer counts,
5. checks every operation's outputs (see ``workloads.Checker``) and that
   repeated operations on the same inputs agree exactly.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the machine, the per-operation samples and
anything absent. Exit code 2 means the program could not be found.
"""

from __future__ import annotations

import os

# Pinned before numpy loads BLAS, and passed to every child process, so an
# inherited environment cannot change the numbers.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "ALFS_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_DEADLINE_S = 170.0  # every run must end within 180 s
SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "objective": "value",
    "select_acc": "ratio",
    "oracle_ratio": "ratio",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "env": PINNED_ENV,
    }


def quartiles(values: list[float]) -> dict:
    v = sorted(values)
    if len(v) > 1:
        q1, _, q3 = statistics.quantiles(v, n=4)
    else:
        q1 = q3 = v[0]
    return {"median": statistics.median(v), "q1": q1, "q3": q3, "n": len(v)}


def time_setup(code: str, deadline: float) -> list[float]:
    """Wall times of fresh interpreters running ``code``; the first run
    warms the bytecode and file caches and is not counted."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=_child_env(),
                                stdout=subprocess.DEVNULL)
        # A blocking wait: Popen.wait(timeout) polls in steps of up to
        # 50 ms, which would quantize the measurement.
        guard = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        guard.start()
        code_ = proc.wait()
        guard.cancel()
        elapsed = time.perf_counter() - start
        if code_ != 0:
            raise RuntimeError(f"set-up interpreter exited {code_}")
        if i:
            times.append(elapsed)
    return times


def run_worker(spec_dir: Path, out_dir: Path, trace: bool, deadline: float) -> dict:
    """One operation in a fresh process; raises RuntimeError if it fails."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), str(spec_dir), str(out_dir),
           "1" if trace else "0"]
    proc = subprocess.Popen(cmd, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("operation ran past the run deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads((out_dir / "outcome.json").read_text(encoding="utf-8"))


def cross_checks(spec: dict, layers: dict, absent: list[str]) -> list[str]:
    """Layer counts that must agree with each other in a traced operation."""
    fails = []

    def present(*metrics):
        return not any(m in absent for m in metrics)

    def expect(a: str, b, want):
        if layers[a] != want:
            fails.append(f"cross-check {a}={layers[a]} != {b}={want}")

    if present("solver.z_step.calls", "solver.sweeps"):
        expect("solver.z_step.calls", "solver.sweeps", layers["solver.sweeps"])
    if present("kernels.angular_weights.calls", "solver.solve.calls"):
        expect("kernels.angular_weights.calls", "solver.solve.calls",
               layers["solver.solve.calls"])
    if spec["workload"] in ("grid", "eval") and present("selection.reconstruction_error.calls"):
        expect("selection.reconstruction_error.calls", "expected",
               workloads.expected_reconstruction_calls(spec))
    return fails


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every shape (tests only)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (SRC / "alfs" / "__init__.py").is_file():
        print(f"error: the alfs sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import alfs

    if Path(alfs.__file__).resolve().parent != (SRC / "alfs").resolve():
        print(f"error: imported alfs from {alfs.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-{args.size}-seed{args.seed}"
    datasets = workloads.make_inputs(args.workload, args.size, args.seed, WORK / tag / "inputs")
    checkers = [workloads.Checker(spec, inputs) for inputs, spec in datasets]

    attempted = failed = 0
    problems: list[str] = []
    notes: list[str] = []
    fingerprints: dict[int, str] = {}
    qualities: dict[int, dict] = {}
    outcomes: list[dict] = []

    def attempt(k: int, trace: bool) -> dict | None:
        """One operation on dataset k, checked; None if it did not finish."""
        nonlocal attempted, failed
        attempted += 1
        inputs, spec = datasets[k]
        op_dir = WORK / tag / f"op{attempted}-trace{int(trace)}"
        try:
            outcome = run_worker(inputs, op_dir, trace, deadline)
        except RuntimeError as exc:
            failed += 1
            problems.append(f"op {attempted}: {exc}")
            return None
        fails, op_notes, quality = checkers[k].check(outcome["outputs"])
        notes.extend(f"op {attempted}: {n}" for n in op_notes)
        fingerprint = workloads.fingerprint(spec, outcome["outputs"])
        if fingerprints.setdefault(k, fingerprint) != fingerprint:
            fails.append("outputs differ from an earlier operation on the same inputs")
        qualities.setdefault(k, quality)
        if trace:
            fails += cross_checks(spec, outcome["layers"], outcome["absent"])
        if fails:
            failed += 1
            problems.extend(f"op {attempted}: {f}" for f in fails)
        outcomes.append(outcome)
        return outcome

    detail: dict = {"workload": args.workload, "seed": args.seed, "size": args.size,
                    "machine": machine_info()}
    metrics = None
    if args.trace:
        plain = attempt(0, trace=False)
        traced = attempt(0, trace=True)
        if plain is not None and traced is not None:
            metrics = dict(traced["layers"])
            metrics["trace.wall_s"] = traced["wall_s"]
            metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            detail["absent"] = traced["absent"]
            detail["quality"] = qualities[0]
            detail["spans"] = traced["spans"]
            detail["span_file"] = str(WORK / tag / f"op{attempted}-trace1" / "spans.tsv.gz")
        units = None
    else:
        setup = time_setup(workloads.setup_code(datasets[0][1], datasets[0][0]), deadline)
        # One pass over the datasets, then more while the next operation
        # is predicted to end within --seconds.
        start = time.monotonic()
        ops = 0
        while True:
            op_start = time.monotonic()
            attempt(ops % len(datasets), trace=False)
            ops += 1
            now = time.monotonic()
            limit = deadline if ops < len(datasets) else min(start + args.seconds, deadline)
            if now + (now - op_start) > limit:
                break
        walls = [o["wall_s"] for o in outcomes]
        if walls and qualities:
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": max(o["peak_rss_mb"] for o in outcomes),
                "success_rate": (attempted - failed) / attempted,
            }
            for name in workloads.QUALITY:
                metrics[name] = statistics.fmean(q[name] for q in qualities.values())
            detail["samples"] = {"setup_s": quartiles(setup), "wall_s": quartiles(walls),
                                 "cpu_s": quartiles([o["cpu_s"] for o in outcomes])}
            detail["quality"] = qualities
        units = END_TO_END_UNITS

    detail["problems"] = problems
    detail["notes"] = notes
    print(json.dumps(detail, sort_keys=True))
    if metrics is None:
        print("error: no operation completed; nothing was measured", file=sys.stderr)
        for p in problems:
            print(p, file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": units[k] if units else _layer_unit(k)}
            for k, v in metrics.items()
        },
    }
    (WORK / tag / f"result-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1, sort_keys=True),
        encoding="utf-8")
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
