"""Self-tests of the benchmark harness: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import gapseries.cli  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    first = [workloads.make_job(workload, 7, i) for i in range(16)]
    again = [workloads.make_job(workload, 7, i) for i in range(16)]
    other = [workloads.make_job(workload, 8, i) for i in range(16)]
    assert [json.dumps(j.config) for j in first] == [json.dumps(j.config) for j in again]
    assert [json.dumps(j.config) for j in first] != [json.dumps(j.config) for j in other]
    # the kind sequence depends on the index only, so every run holds the same mix
    assert [j.kind for j in first] == [j.kind for j in other]


def test_theory_full_covers_deep_construct_depths():
    deep = [workloads.make_job("theory-full", 3, i) for i in range(48)]
    depths = [j.config["construct"]["depth"] for j in deep if j.kind == "construct-deep"]
    assert len(depths) == 4 and min(depths) >= 28
    # the gated theory workload holds no job that fails on the current program
    assert all(workloads.make_job("theory", 3, i).kind != "construct-deep" for i in range(48))


def test_metric_names_match_the_pattern_and_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == metrics.END_TO_END
    assert per_layer == metrics.per_layer()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for name in [*end_to_end, *per_layer]:
        assert metrics.NAME_RE.fullmatch(name), name


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(40)]) == {"percentile": 75.0, "value": 29.0, "samples": 40, "beyond": 10}
    assert run.tail([float(i) for i in range(100, 0, -1)])["value"] == 90.0
    assert run.tail([1.0, 2.0]) == {"percentile": 100.0, "value": 2.0, "samples": 2, "beyond": 0}


def test_traced_jobs_emit_every_layer_metric(tmp_path):
    original = gapseries.cli.load_config
    records = []
    with spans.Tracer() as tracer:
        assert gapseries.cli.load_config is not original
        for workload in workloads.WORKLOADS:
            for index in range(workloads.cycle_length(workload)):
                tracer.job_id = len(records)
                job = workloads.make_job(workload, 1, index)
                records.append(worker.run_job(job, tmp_path / "job"))
    assert gapseries.cli.load_config is original
    assert all(r.ok and r.outcome.consistency_failures == 0 for r in records)

    values = worker.trace_metrics(tracer, records, records)
    expected = [name for name in metrics.per_layer() if not name.startswith("setup.")]
    assert sorted(set(expected) - set(values)) == []
    for name in values:
        assert metrics.NAME_RE.fullmatch(name), name
    assert values["series.max_modulus.calls"] > 0
    assert values["constructions.witness_ratio.calls"] > 0
    assert 0.95 < values["trace.self_coverage"] <= 1.0 + 1e-9
