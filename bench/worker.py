"""Child process of the benchmark: runs one workload as a closed loop.

One thread runs jobs back to back, each a ``gapseries.cli.main([...])``
call on a freshly generated config, until the summed job time reaches the
budget.  Writing the config, checking the outputs and hashing them happen
between jobs, outside the timed region.  With ``--trace 1`` the budget is
split: the first half runs untraced, the second half runs the same job
sequence again under the span tracer, so the two halves give the tracing
overhead.  Results go to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy

import gapseries.cli
import checks
import spans
import workloads
from metrics import LAYERS


@dataclass
class JobRecord:
    index: int
    kind: str
    seconds: float
    ok: bool
    error: str  # "" on success, "exit <code>" or the escaped exception type
    outcome: checks.JobOutcome


def run_job(job: workloads.Job, workdir: Path) -> JobRecord:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(job.config))
    out = workdir / ("out" if job.command == "construct" else "out.csv")
    argv = [job.command, "--config", str(config_path), "--out", str(out), "--quiet"]
    error = ""
    gc.collect()  # every job starts from a collected heap, outside the timed region
    start = time.perf_counter()
    try:
        code = gapseries.cli.main(argv)
    except Exception as exc:  # an escaped exception is a failed job, not a crash of the benchmark
        code, error = None, type(exc).__name__
    seconds = time.perf_counter() - start
    if code not in (0, None):
        error = f"exit {code}"
    ok = not error
    written = [p for p in workdir.iterdir() if p.name.startswith("out")]
    outcome = checks.check_job(job.command, job.config, written) if ok else checks.JobOutcome()
    return JobRecord(job.index, job.kind, seconds, ok, error, outcome)


def run_loop(workload: str, seed: int, budget: float, workdir: Path, tracer: spans.Tracer | None = None) -> list[JobRecord]:
    records: list[JobRecord] = []
    spent = 0.0
    index = 0
    while spent < budget:
        job = workloads.make_job(workload, seed, index)
        if tracer is not None:
            tracer.job_id = index
        record = run_job(job, workdir)
        records.append(record)
        spent += record.seconds
        index += 1
    return records


def _ok_p50(records: list[JobRecord]) -> float:
    return statistics.median(r.seconds for r in records if r.ok)


def trace_metrics(tracer: spans.Tracer, traced: list[JobRecord], untraced: list[JobRecord]) -> dict[str, float]:
    """Per-layer metrics, as means per traced job."""
    jobs = len(traced)
    summary = spans.summarize(tracer.arrays())
    empty = {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for name, stats in summary.items():
        out[f"{name}.calls"] = stats["calls"] / jobs
        out[f"{name}.busy_s"] = stats["busy_s"] / jobs
    crit = [summary.get(name, empty) for name in spans.CRITERION_SPANS]
    out["criteria.criterion.calls"] = sum(s["calls"] for s in crit) / jobs
    out["criteria.criterion.busy_s"] = sum(s["busy_s"] for s in crit) / jobs
    for key in ("criteria.criterion.terms", "criteria.nonfinite_terms"):
        out[key] = tracer.counts[key] / jobs
    out["series.horizon_exceeded"] = tracer.counts["series.raised.HorizonExceeded"] / jobs
    out["measure.quad_failures"] = tracer.counts["measure.raised.QuadratureError"] / jobs
    self_total = 0.0
    for layer in LAYERS:
        layer_self = sum(s["self_s"] for name, s in summary.items() if name.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = layer_self / jobs
        self_total += layer_self
    out["cli.bytes_written"] = sum(r.outcome.bytes_written for r in traced) / jobs
    job_total = sum(r.seconds for r in traced)
    out["trace.job_s.mean"] = job_total / jobs
    out["trace.self_coverage"] = self_total / job_total
    # overhead: traced minus untraced median over the job indices both halves ran
    common = min(len(traced), len(untraced))
    out["trace.job_s.p50"] = _ok_p50(traced[:common])
    out["trace.overhead_s"] = out["trace.job_s.p50"] - _ok_p50(untraced[:common])
    return out


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None, help="where to write the traced spans (.npz)")
    args = parser.parse_args()

    # warm-up: one cycle of job kinds, untimed and unrecorded
    for index in range(workloads.cycle_length(args.workload)):
        run_job(workloads.make_job(args.workload, args.seed, index), args.workdir)

    result: dict = {"env": environment()}
    if args.trace:
        untraced = run_loop(args.workload, args.seed, args.seconds / 2, args.workdir)
        with spans.Tracer() as tracer:
            traced = run_loop(args.workload, args.seed, args.seconds / 2, args.workdir, tracer)
        records = untraced + traced
        result["trace"] = trace_metrics(tracer, traced, untraced)
        if args.spans is not None:
            np.savez_compressed(args.spans, **tracer.arrays())
    else:
        records = run_loop(args.workload, args.seed, args.seconds, args.workdir)
    shutil.rmtree(args.workdir, ignore_errors=True)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["jobs"] = [asdict(r) for r in records]
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
