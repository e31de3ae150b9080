"""Run one workload operation in a fresh process and report it as JSON.

    python3 perfbench/worker.py SPEC_DIR OUT_DIR TRACE

Loads the spec written by :func:`workloads.make_inputs` from SPEC_DIR, runs
the operation once (under the tracer when TRACE is 1), and writes
``outcome.json`` into OUT_DIR: wall time, the peak resident memory of this
process up to the end of the operation, the raw outputs, and with tracing
the per-layer metrics, the absent metrics and the span file.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer


def main(argv: list[str]) -> int:
    spec_dir, out_dir, trace = Path(argv[0]), Path(argv[1]), argv[2] == "1"
    spec = json.loads((spec_dir / "spec.json").read_text(encoding="utf-8"))
    import alfs  # noqa: F401  (imported before the timer and the tracer)

    with Tracer() if trace else contextlib.nullcontext() as tracer:
        start, cpu_start = time.perf_counter(), time.process_time()
        outputs = workloads.run_op(
            spec, spec_dir, out_dir, tracer.begin_op if trace else lambda i: None)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    # ru_maxrss is in KiB on Linux; read before the trace summary allocates
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcome = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_mb, "outputs": outputs}
    if trace:
        outcome["layers"] = tracer.layer_metrics()
        outcome["absent"] = tracer.absent_metrics()
        outcome["spans"] = tracer.span_count()
        tracer.dump(out_dir / "spans.tsv.gz")
    (out_dir / "outcome.json").write_text(json.dumps(outcome), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
