"""Names and units of every metric the benchmark reports (see README.md)."""

from __future__ import annotations

import re

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: end-to-end metrics (``--trace 0``); the failure rates job_fail_rate,
#: row_error_rate and check_fail_rate are one minus the three ``*_rate``
#: metrics here and appear only in the readable part of the output,
#: because a bounded metric must never be 0
END_TO_END = {
    "job_s.p50": "s",
    "job_s.tail": "s",
    "rows_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "job_ok_rate": "ratio",
    "row_ok_rate": "ratio",
    "check_pass_rate": "ratio",
}

#: public functions timed one by one, per layer (module)
TIMED = {
    "series": ("max_modulus", "min_modulus", "log_maximal_term", "sum_modulus", "evaluate", "central_index_table"),
    "measure": ("h_measure", "log_measure", "h_log_measure", "density_measure"),
    "constructions": (
        "build_damping_gadget", "domination_margin", "build_witness_series",
        "witness_exceptional_set", "witness_ratio", "witness_measure_partials",
    ),
    "config": ("load_config", "series_from_config"),
}

#: the program's layers, one per module, from the CLI down
LAYERS = ("cli", "config", "series", "measure", "criteria", "constructions")


def per_layer() -> dict[str, str]:
    """Per-layer metrics (``--trace 1``), all but setup.* and trace.job_s.p50
    as means per traced job."""
    units = {}
    for layer, functions in TIMED.items():
        for fn in functions:
            units[f"{layer}.{fn}.calls"] = "count/job"
            units[f"{layer}.{fn}.busy_s"] = "s/job"
    units.update({
        "series.horizon_exceeded": "count/job",
        "measure.quad_failures": "count/job",
        "criteria.criterion.calls": "count/job",
        "criteria.criterion.busy_s": "s/job",
        "criteria.criterion.terms": "count/job",
        "criteria.nonfinite_terms": "count/job",
        "cli.bytes_written": "B/job",
    })
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s/job"
    units.update({
        "setup.import_s": "s",
        "setup.config_s": "s",
        "trace.job_s.mean": "s/job",
        "trace.job_s.p50": "s",
        "trace.overhead_s": "s",
        "trace.self_coverage": "ratio",
    })
    return units
