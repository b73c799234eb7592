"""Benchmark for the gapseries CLI: one workload per call, one JSON result line.

    python3 bench/run.py --workload sweep --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45

Run from the root of a source checkout.  The program is used straight from
``src/``; nothing is built or installed.  Each call

1. generates the workload's job configs from ``--seed`` (see workloads.py),
2. times set-up in fresh interpreters: ``import gapseries.cli`` plus
   ``load_config`` and ``series_from_config`` on the first config,
3. runs the jobs in a child process, a closed loop with one client,
   for ``--seconds`` of summed job time, checking every output,
4. prints a readable report, then as its last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
   metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Scratch files go to ``.bench_work/`` and results (result JSON, spans) to
``.bench_out/`` under the checkout.  See bench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from metrics import END_TO_END, per_layer  # noqa: E402

ROOT = Path.cwd()
#: fresh-interpreter set-up probes per run; the first is discarded (cold file cache)
SETUP_PROBES = 8
#: jobs at the start of every run whose outputs make up the reported digest
DIGEST_JOBS = 12
#: whole child-process deadline; the benchmark must end within 180 s
DEADLINE_S = 170.0
#: job_s.tail keeps this many successful jobs beyond it
TAIL_BEYOND = 10

_PROBE = """
import json, sys, time
t0 = time.monotonic()
import gapseries.cli
t1 = time.monotonic()
from gapseries.config import load_config, series_from_config
cfg = load_config(sys.argv[1])
series_from_config(cfg.series, cfg.seed)
t2 = time.monotonic()
print(json.dumps([t0, t1, t2]))
"""


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one client, one thread: BLAS runs single-threaded (1 <= nproc), so a
    # second BLAS thread does not compete with neighbouring load
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _deadline_left(t_start: float) -> float:
    left = DEADLINE_S - (time.monotonic() - t_start)
    if left <= 0:
        raise BenchError("out of time")
    return left


def measure_setup(config_path: Path, env: dict[str, str], t_start: float) -> list[tuple[float, float, float]]:
    """(setup_s, import_s, config_s) for each kept fresh-interpreter probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, str(config_path)],
            env=env, capture_output=True, text=True, timeout=_deadline_left(t_start),
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
        t0, t1, t2 = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((t2 - spawned, t1 - t0, t2 - t1))
    return samples[1:]


def run_worker(args, work: Path, out_dir: Path, env: dict[str, str], t_start: float) -> dict:
    result_path = out_dir / "worker.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(work / "jobs"), "--result", str(result_path),
    ]
    if args.trace:
        cmd += ["--spans", str(out_dir / "spans.npz")]
    log_path = out_dir / "worker.log"
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=_deadline_left(t_start))
        except (subprocess.TimeoutExpired, BenchError):
            raise BenchError(f"worker ran past the deadline; see {log_path}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        raise BenchError(f"worker exited with {code}:\n{log_path.read_text()[-3000:]}")
    return json.loads(result_path.read_text())


def tail(times: list[float]) -> dict:
    """The highest percentile with TAIL_BEYOND samples beyond it, i.e. the
    (TAIL_BEYOND + 1)-th largest time; the maximum when there are fewer."""
    ordered = sorted(times)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return {"percentile": 100.0 * rank / n, "value": ordered[rank - 1], "samples": n, "beyond": n - rank}


def digest(jobs: list[dict]) -> dict:
    """sha256 over every output file of the first DIGEST_JOBS jobs, in order."""
    h = hashlib.sha256()
    files = rows = 0
    for job in jobs[:DIGEST_JOBS]:
        h.update(f"job {job['index']} {job['error']}\n".encode())
        for name, sha in job["outcome"]["files"]:
            h.update(f"{name} {sha}\n".encode())
            files += 1
        rows += job["outcome"]["rows"]
    return {"jobs": min(DIGEST_JOBS, len(jobs)), "files": files, "rows": rows, "sha256": h.hexdigest()}


def end_to_end(jobs: list[dict], setup: list[tuple[float, float, float]], peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metric values, plus the failure rates and tail details."""
    attempted = len(jobs)
    ok = [j for j in jobs if j["ok"]]
    ok_times = [j["seconds"] for j in ok]
    total_time = sum(j["seconds"] for j in jobs)
    outcome = {k: sum(j["outcome"][k] for j in jobs) for k in ("rows", "row_items", "row_errors", "checked", "check_failures", "consistency_failures", "ulp_excess")}
    job_tail = tail(ok_times) if ok_times else {"percentile": math.nan, "value": math.nan, "samples": 0, "beyond": 0}
    job_fail_rate = 1.0 - len(ok) / attempted
    row_error_rate = outcome["row_errors"] / outcome["row_items"] if outcome["row_items"] else math.nan
    check_fail_rate = outcome["check_failures"] / outcome["checked"] if outcome["checked"] else math.nan
    values = {
        "job_s.p50": statistics.median(ok_times) if ok_times else math.nan,
        "job_s.tail": job_tail["value"],
        "rows_per_s": outcome["rows"] / total_time,
        "setup_s": statistics.median(s[0] for s in setup),
        "peak_rss_mb": peak_rss_mb,
        "job_ok_rate": 1.0 - job_fail_rate,
        "row_ok_rate": 1.0 - row_error_rate,
        "check_pass_rate": 1.0 - check_fail_rate,
    }
    details = {
        "job_s.tail": job_tail,
        "job_fail_rate": job_fail_rate,
        "row_error_rate": row_error_rate,
        "check_fail_rate": check_fail_rate,
        **outcome,
        "attempted": attempted,
        "failed": attempted - len(ok),
        "errors": dict(Counter(f"{j['kind']}: {j['error']}" for j in jobs if j["error"])),
    }
    return values, details


def run_one(args) -> dict:
    t_start = time.monotonic()
    if not (ROOT / "src" / "gapseries" / "cli.py").is_file():
        raise BenchError(f"no gapseries sources under {ROOT / 'src'}; run from the root of a checkout")
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    out_dir = ROOT / ".bench_out" / tag
    out_dir.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        first = workloads.make_job(args.workload, args.seed, 0)
        first_config = work / "setup_config.json"
        first_config.write_text(json.dumps(first.config))
        setup = measure_setup(first_config, env, t_start)
        worker = run_worker(args, work, out_dir, env, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()

    jobs = worker["jobs"]
    values, details = end_to_end(jobs, setup, worker["peak_rss_mb"])
    if args.trace:
        trace = dict(worker["trace"])
        trace["setup.import_s"] = statistics.median(s[1] for s in setup)
        trace["setup.config_s"] = statistics.median(s[2] for s in setup)
        units = per_layer()
        metrics = {name: trace[name] for name in units}
    else:
        trace = None
        metrics, units = values, END_TO_END
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": dict(worker["env"], job_count=len(jobs)),
        "end_to_end": values,
        "details": details,
        "digest": digest(jobs),
        "trace_all": trace,
        "check_failure_samples": [f for j in jobs for f in j["outcome"]["failures"]][:10],
        "result": {
            "correct": details["checked"] > 0 and details["consistency_failures"] == 0,
            "attempted": details["attempted"],
            "failed": details["failed"],
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
        },
    }
    (out_dir / "result.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def print_report(report: dict) -> None:
    d = report["details"]
    print(f"== {report['workload']}  seed {report['seed']}  {report['seconds']} s  trace {report['trace']}")
    print("env: " + json.dumps(report["env"]))
    for name, value in report["end_to_end"].items():
        print(f"  {name:<22} {value:>14.6g} {END_TO_END[name]}")
    print(
        f"  {'job_fail_rate':<22} {d['job_fail_rate']:>14.6g} ratio   ({d['failed']} of {d['attempted']} jobs)\n"
        f"  {'row_error_rate':<22} {d['row_error_rate']:>14.6g} ratio   ({d['row_errors']} of {d['row_items']} rows and footers)\n"
        f"  {'check_fail_rate':<22} {d['check_fail_rate']:>14.6g} ratio   ({d['check_failures']} of {d['checked']} checked rows, "
        f"{d['consistency_failures']} failing a consistency check)\n"
        f"  M_scaled above sum_scaled within the rounding allowance: {d['ulp_excess']} rows"
    )
    t = d["job_s.tail"]
    print(f"  job_s.tail is p{t['percentile']:.4g} of {t['samples']} successful jobs, {t['beyond']} beyond it")
    if d["errors"]:
        print("  failed jobs: " + json.dumps(d["errors"]))
    for sample in report["check_failure_samples"]:
        print("  check failed: " + sample)
    print("digest: " + json.dumps(report["digest"]))
    if report["trace"]:
        for name, m in report["result"]["metrics"].items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    # turn SIGTERM into SystemExit so the finally blocks stop the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description="gapseries benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            report = run_one(argparse.Namespace(**{**vars(args), "workload": name}))
            print_report(report)
            results[name] = report["result"]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
