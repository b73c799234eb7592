import ast
import contextlib
import dataclasses
import io
import itertools
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gapseries.cli
from gapseries import build_damping_gadget, build_witness_series, domination_margin, geometric_exponents, power_exponents, witness_exceptional_set
from gapseries.cli import _CSV_CHUNK_ROWS, _write_csv, main
from gapseries.config import Coeffs, Construct, Criteria, GapPower, Lemma, RunConfig, Series, Sweep, load_config, series_from_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run(command, config, out, *extra):
    return main([command, "--config", str(config), "--out", str(out), "--quiet", *extra])


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_rows(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    rows, footers = [], []
    for line in lines[1:]:
        cells = line.split(",")
        (footers if line.startswith("#") else rows).append(cells)
    return header, rows, footers


SINGLE_TERM = {
    "series": {
        "generator": "explicit",
        "exponents": [0.0],
        "log_moduli": [0.0],
        "complete": True,
    },
    "sweep": {"x_min": 0.0, "x_max": 5.0, "step": 0.5},
}


class TestConfigErrors:
    def test_unknown_top_level_key(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {**SINGLE_TERM, "typo": 1})
        assert run("sweep", cfg, tmp_path / "o.csv") == 1

    def test_unknown_nested_key(self, tmp_path):
        bad = {**SINGLE_TERM, "series": {**SINGLE_TERM["series"], "nope": 2}}
        cfg = write_config(tmp_path, "c.json", bad)
        assert run("sweep", cfg, tmp_path / "o.csv") == 1

    def test_reversed_sweep_range(self, tmp_path):
        bad = {**SINGLE_TERM, "sweep": {"x_min": 5.0, "x_max": 1.0, "step": 0.5}}
        cfg = write_config(tmp_path, "c.json", bad)
        assert run("sweep", cfg, tmp_path / "o.csv") == 1

    def test_invalid_json(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        assert run("sweep", cfg, tmp_path / "o.csv") == 1

    def test_missing_output(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", SINGLE_TERM)
        assert main(["sweep", "--config", str(cfg), "--quiet"]) == 1

    def test_unknown_function_name(self, tmp_path):
        bad = {**SINGLE_TERM, "h": {"name": "cubic"}}
        cfg = write_config(tmp_path, "c.json", bad)
        assert run("sweep", cfg, tmp_path / "o.csv") == 1


class TestSeriesTable:
    GEOMETRIC = {"generator": "geometric", "base": 2.0, "count": 31}

    def test_no_coeffs_means_flat_moduli(self, tmp_path):
        series = load_config(write_config(tmp_path, "c.json", {"series": self.GEOMETRIC})).series
        assert np.array_equal(series_from_config(series, 3).log_moduli, np.zeros(31))

    def test_empty_coeffs_draw_random_moduli_from_the_seed(self, tmp_path):
        payload = {"series": {**self.GEOMETRIC, "coeffs": {}}}
        series = load_config(write_config(tmp_path, "c.json", payload)).series
        lam = series_from_config(series, 3).exponents.values
        # mode "random", g = identity, jitter 1 and no phases
        want = -lam * lam + np.random.default_rng(3).uniform(0.0, 1.0, lam.size)
        assert series_from_config(series, 3).log_moduli.tobytes() == want.tobytes()
        assert not np.array_equal(series_from_config(series, 4).log_moduli, want)


def readme_key_tables():
    """{heading: keys} for every key table of README: a line such as
    "`sweep` (required by `sweep`):" or "Top level:", then a table whose
    first column names one or more keys in backticks."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    tables = {}
    for i, line in enumerate(lines):
        heading = re.fullmatch(r"(?:`([\w.]+)`[^|]*|(Top level)):", line)
        if heading and lines[i + 2].startswith("| key |"):
            rows = itertools.takewhile(lambda row: row.startswith("|"), lines[i + 4 :])
            tables[heading[1] or ""] = {key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])}
    return tables


# README's key tables and the config classes they document; a section with
# its own table is a field of RunConfig, not a row of the top-level table
README_TABLES = {
    "series": Series, "series.coeffs": Coeffs, "": RunConfig, "sweep": Sweep,
    "criteria": Criteria, "construct": Construct, "lemma": Lemma, "gap_power": GapPower,
}


def test_readme_lists_every_table():
    assert readme_key_tables().keys() == README_TABLES.keys()


@pytest.mark.parametrize("heading", README_TABLES)
def test_readme_key_table_matches_config(heading):
    want = {f.name for f in dataclasses.fields(README_TABLES[heading])}
    if heading == "":
        want -= {where for where in README_TABLES if where}
    assert readme_key_tables()[heading] == want


class TestLemmaConfigErrors:
    @pytest.mark.parametrize(
        "tables, series_count, phrase",
        [
            ({"lemma": {"q_values": [-1]}}, 31, "q_values"),
            ({"lemma": {"q_values": [0]}}, 31, "q_values"),
            ({"lemma": {"q_values": ["abc"]}}, 31, "abc"),
            ({"lemma": {"q_values": 2.0}}, 31, "JSON list"),
            ({"lemma": {"n_terms": 1000}}, 31, "n_terms"),
            ({"lemma": {"n_terms": 0}}, 31, "n_terms"),
            ({"lemma": {"max_index": 1000}}, 31, "max_index"),
            ({"lemma": {"max_index": -1}}, 31, "max_index"),
            # no key sets the damping gadgets' tail tolerance
            ({"lemma": {"tail_tol": 1e-8}}, 31, "tail_tol"),
            ({"lemma": {"n_terms": 1, "max_index": 1}}, 2, "three exponents"),
            # 3 q values on a 1000 x 999 grid: exits before a gadget is built
            ({"lemma": {"n_terms": 999, "max_index": 999}}, 1000, "lemma.max_index"),
        ],
    )
    def test_bad_lemma_section_exits_1(self, tmp_path, capsys, tables, series_count, phrase):
        # each of these used to escape main() as a raw ValueError or TypeError
        payload = json.loads((CONFIG_DIR / "geometric_lemma.json").read_text())
        payload["series"]["count"] = series_count
        for section, entries in tables.items():
            payload.setdefault(section, {}).update(entries)
        out = tmp_path / "o.csv"
        assert run("lemma1", write_config(tmp_path, "c.json", payload), out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:") and phrase in err
        assert not out.exists()


CURATED = {
    "geometric_criteria.json": "criteria",
    "geometric_damped_sweep.json": "sweep",
    "geometric_lemma.json": "lemma1",
    "two_term_gap_power.json": "gap-power",
    "witness_construct.json": "construct",
}


def edited(name, path, value):
    """The curated config ``name`` with the entry at ``path`` set to ``value``
    (missing tables on the way are created)."""
    payload = json.loads((CONFIG_DIR / name).read_text())
    node = payload
    for step in path[:-1]:
        node = node.setdefault(step, {}) if isinstance(node, dict) else node[step]
    node[path[-1]] = value
    return payload


def leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaf_paths(value, path + (i,))
    else:
        yield path


def run_edit(tmp, name, path, value):
    """Run the curated command on an edited config: (exit code, stderr, files written)."""
    cfg = write_config(tmp, "c.json", edited(name, path, value))
    out_dir = tmp / "out"
    out_dir.mkdir()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(CURATED[name], cfg, out_dir / "o.csv")
    return code, err.getvalue(), sorted(p.name for p in out_dir.iterdir())


NAN, INF = math.nan, math.inf
CRIT, SWEEP, LEMMA = "geometric_criteria.json", "geometric_damped_sweep.json", "geometric_lemma.json"
GAP, WITNESS = "two_term_gap_power.json", "witness_construct.json"


class TestEveryConfigErrorExits1:
    @pytest.mark.parametrize(
        "name, path, value, key",
        [
            # escaped main() as a traceback
            (CRIT, ("criteria", "n_terms"), "abc", "criteria.n_terms"),
            (CRIT, ("criteria", "n_terms"), 1000, "criteria.n_terms"),
            (CRIT, ("criteria", "n_terms"), 0, "criteria.n_terms"),
            (CRIT, ("criteria", "alpha"), 0, "criteria.alpha"),
            (CRIT, ("criteria", "alpha"), "x", "criteria.alpha"),
            (CRIT, ("h", "name"), {}, "h.name"),
            (CRIT, ("b_grid", 0), "x", "b_grid"),
            (WITNESS, ("construct", "n_terms"), 1000, "construct.n_terms"),
            (WITNESS, ("construct", "n_terms"), 0, "construct.n_terms"),
            (WITNESS, ("construct", "depth"), 0, "construct.depth"),
            (WITNESS, ("construct", "depth"), "x", "construct.depth"),
            (WITNESS, ("construct", "b"), 0, "construct.b"),
            (WITNESS, ("construct", "phi1", "name"), [], "construct.phi1.name"),
            (SWEEP, ("beta",), "x", "beta"),
            (SWEEP, ("sweep", "x_min"), "x", "sweep.x_min"),
            (SWEEP, ("sweep", "step"), NAN, "sweep.step"),
            (SWEEP, ("sweep", "x_max"), INF, "sweep.x_max"),
            (SWEEP, ("seed",), "x", "seed"),
            (GAP, ("gap_power", "r_points"), NAN, "gap_power.r_points"),
            (GAP, ("gap_power", "r_max"), INF, "gap_power.r_max"),
            (GAP, ("gap_power", "r_min"), "x", "gap_power.r_min"),
            (LEMMA, ("series", "base"), {}, "series.base"),
            # escaped float ** as "(34, 'Numerical result out of range')"
            (SWEEP, ("series", "base"), 1e12, "series.base"),
            # the series section and the seed
            (SWEEP, ("series", "coeffs", "jitter"), "x", "series.coeffs.jitter"),
            (GAP, ("series", "log_moduli", 0), "x", "series.log_moduli"),
            (CRIT, ("series", "count"), INF, "series.count"),
            (SWEEP, ("seed",), -1, "seed"),
            # exited 0 with no flagged point at all
            (SWEEP, ("beta",), NAN, "beta"),
            (CRIT, ("output",), 5, "output"),
            # the tolerances are constants: the table is an unknown key
            (GAP, ("tolerances",), {"grid_points": 1}, "tolerances"),
            # a truthy string made a truncated series complete, or drew phases
            (GAP, ("series", "complete"), "false", "series.complete"),
            (GAP, ("series", "complete"), 1, "series.complete"),
            (SWEEP, ("series", "coeffs", "random_phases"), "false", "series.coeffs.random_phases"),
            # exited 0 with nan envelopes and no flagged point
            (GAP, ("series", "phases"), [NAN, 0.0], "phases must be finite"),
            # a string or a table is iterable: these ran with b in {2, 4, 8} and q = 2
            (CRIT, ("b_grid",), "248", "b_grid"),
            (LEMMA, ("lemma", "q_values"), {"2": 0}, "lemma.q_values"),
            (GAP, ("series", "exponents"), "01", "series.exponents"),
            # every series key is read at load, and its errors name it
            (CRIT, ("series", "generator"), "fibonacci", "series.generator"),
            (CRIT, ("series", "generator"), "explicit", "series.exponents"),
            (GAP, ("series", "generator"), "geometric", "series.count"),
            (CRIT, ("series", "kind"), "laurent", "series.kind"),
            (CRIT, ("series", "phases"), [0.0], "series.phases"),
            (SWEEP, ("series", "coeffs", "mode"), "wild", "series.coeffs.mode"),
            (CRIT, ("series", "coeffs"), {"mode": "flat", "g": {"name": "cubic"}}, "series.coeffs.g"),
            # size caps: each exits at load, before anything is allocated
            (SWEEP, ("sweep", "x_max"), 1e12, "sweep.step"),
            (GAP, ("gap_power", "r_points"), 10**9, "gap_power.r_points"),
            (CRIT, ("series", "count"), 10**9, "series.count"),
            (SWEEP, ("sweep", "x_max"), 20_000.0, "sweep.step"),
            (GAP, ("gap_power", "r_points"), 5_000, "gap_power.r_points"),
        ],
    )
    def test_one_line_and_no_output(self, tmp_path, name, path, value, key):
        code, err, written = run_edit(tmp_path, name, path, value)
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("config error:") and key in err
        assert written == []


# a bad value in every position, large finite magnitudes too: a count or a
# grid above its cap exits 1 at load instead of asking for gigabytes
BAD_VALUES = ["x", None, [], {}, True, -1, 0, NAN, INF, -INF, 10**9, 1e12]
LEAVES = [(name, path) for name in CURATED for path in leaf_paths(json.loads((CONFIG_DIR / name).read_text()))]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(LEAVES), st.sampled_from(BAD_VALUES))
def test_bad_leaf_never_escapes_main(leaf, value):
    with tempfile.TemporaryDirectory() as tmp:
        code, err, _ = run_edit(Path(tmp), *leaf, value)
    assert code in (0, 1, 2, 3)
    if code:
        assert err.count("\n") == 1


@pytest.mark.parametrize("name", [CRIT, WITNESS])
def test_huge_power_density_falls_back_without_warning(tmp_path, name):
    # float64 ** returned inf with a RuntimeWarning instead of raising the
    # OverflowError that selects the silent np.power fallback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err, written = run_edit(tmp_path, name, ("h", "exponent"), 1e9)
    assert code == 0 and err == "" and written


class TestOverflowingMaximalTerm:
    """Where ln mu overflows float64 a row reads HorizonExceeded, and no
    RuntimeWarning reaches stderr; it used to read log_mu inf, nan envelopes
    and an empty error, like a certified row."""

    def test_explicit_complete_series(self, tmp_path):
        payload = {
            "series": {"generator": "explicit", "exponents": [0, 1, 1000], "log_moduli": [0, -1, -3], "complete": True},
            "sweep": {"x_min": 1e306, "x_max": 1.2e306, "step": 1e305},
        }
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = run("sweep", write_config(tmp_path, "c.json", payload), tmp_path / "o.csv")
        assert code == 0 and err.getvalue() == ""
        header, rows, _ = read_rows(tmp_path / "o.csv")
        assert len(rows) == 3
        assert all(r[header.index("error")] == "HorizonExceeded" and r[header.index("flag")] == "0" for r in rows)

    @pytest.mark.parametrize("x_min", [1e300, -1e300])
    def test_curated_sweep_far_out(self, tmp_path, x_min):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err, _ = run_edit(tmp_path, SWEEP, ("sweep",), {"x_min": x_min, "x_max": x_min + 2e299, "step": 1e299})
        assert code == 0 and err == ""
        header, rows, _ = read_rows(tmp_path / "out" / "o.csv")
        assert len(rows) == 3
        cfg = load_config(CONFIG_DIR / SWEEP)
        for row in rows:
            cell = dict(zip(header, row))
            if x_min > 0:
                assert cell["error"] == "HorizonExceeded"
            else:
                # the term of exponent 0 is maximal and every other term vanishes
                assert float(cell["log_mu"]) == series_from_config(cfg.series, cfg.seed).log_moduli[0]
                assert [cell[k] for k in ("nu", "M_scaled", "m_scaled", "sum_scaled", "flag", "error")] == [
                    "0", "1", "1", "1", "0", ""
                ]


class TestExitCodes:
    def test_certification_failure_is_exit_2(self, tmp_path):
        # unit gaps cannot certify the damping tails
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "series": {"generator": "power", "scale": 1.0, "power": 1.0, "count": 40},
                "lemma": {"q_values": [1.0], "n_terms": 30, "max_index": 20},
            },
        )
        assert run("lemma1", cfg, tmp_path / "o.csv") == 2

    @pytest.mark.parametrize(
        "path, value, phrase",
        [(("construct", "b"), 1e9, "below float64 resolution"), (("series", "base"), 1e9, "float64 range")],
    )
    def test_witness_beyond_float64_is_exit_2(self, tmp_path, path, value, phrase):
        # both escaped main() as a ValueError
        code, err, written = run_edit(tmp_path, WITNESS, path, value)
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("certification failure:") and phrase in err
        assert written == []

    def test_io_failure_is_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", SINGLE_TERM)
        assert run("sweep", cfg, tmp_path / "missing_dir" / "o.csv") == 3

    def test_usage_error_exits_2_on_every_call(self, tmp_path, capsys):
        # one parser serves every main() call in a process
        cfg = write_config(tmp_path, "c.json", SINGLE_TERM)
        errors = []
        for argv in (["bogus"], ["sweep", "--seed", "x"], ["bogus"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
            assert run("sweep", cfg, tmp_path / "o.csv") == 0
        assert errors[0] == errors[2] and "invalid choice: 'bogus'" in errors[0]
        assert "invalid int value: 'x'" in errors[1]


class TestSweep:
    def test_single_term_all_quiet(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", SINGLE_TERM)
        out = tmp_path / "o.csv"
        assert run("sweep", cfg, out) == 0
        header, rows, footers = read_rows(out)
        assert header[0] == "x"
        flag_col = header.index("flag")
        assert all(r[flag_col] == "0" for r in rows)
        for col in ("ratio_M_mu", "ratio_M_m"):
            idx = header.index(col)
            assert all(abs(float(r[idx])) < 1e-9 for r in rows)
        assert ["#measure", "lebesgue", "0"] == footers[0][:3]

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = CONFIG_DIR / "geometric_damped_sweep.json"
        assert run("sweep", cfg, out1) == 0
        assert run("sweep", cfg, out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_random_coefficients(self, tmp_path):
        cfg = CONFIG_DIR / "geometric_damped_sweep.json"
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("sweep", cfg, out1) == 0
        assert run("sweep", cfg, out2, "--seed", "99") == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_witness_points_flagged(self, tmp_path):
        # sweep over an explicit witness series: every grid point inside
        # the exceptional set must be flagged at beta = 0.3
        ws = build_witness_series(power_exponents(1.0, 1.0, 200), lambda t: t, 1.0, 150)
        exceptional = witness_exceptional_set(ws, 30)
        payload = {
            "series": {
                "generator": "explicit",
                "exponents": ws.spec.exponents.values.tolist(),
                "log_moduli": ws.spec.log_moduli.tolist(),
            },
            "sweep": {"x_min": 1.0, "x_max": 25.0, "step": 0.25},
            "beta": 0.3,
        }
        cfg = write_config(tmp_path, "w.json", payload)
        out = tmp_path / "o.csv"
        assert run("sweep", cfg, out) == 0
        header, rows, _ = read_rows(out)
        xcol, fcol, ecol = header.index("x"), header.index("flag"), header.index("error")
        for r in rows:
            if r[ecol]:
                continue
            if exceptional.contains(float(r[xcol])):
                assert r[fcol] == "1"

    def test_per_point_errors_do_not_abort(self, tmp_path):
        # truncated flat prefix: every point fails certification but the
        # sweep still completes with the error recorded per row
        payload = {
            "series": {"generator": "power", "scale": 1.0, "power": 1.0, "count": 30},
            "sweep": {"x_min": 0.0, "x_max": 2.0, "step": 1.0},
        }
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o.csv"
        assert run("sweep", cfg, out) == 0
        header, rows, _ = read_rows(out)
        ecol = header.index("error")
        assert len(rows) == 3
        assert all(r[ecol] == "HorizonExceeded" for r in rows)


class TestGapPower:
    def test_two_term_closed_forms(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run("gap-power", CONFIG_DIR / "two_term_gap_power.json", out) == 0
        header, rows, footers = read_rows(out)
        rcol = header.index("r")
        for row in rows:
            r = float(row[rcol])
            log_mu = float(row[header.index("log_mu")])
            m_scaled = float(row[header.index("m_scaled")])
            mx_scaled = float(row[header.index("M_scaled")])
            mu = math.exp(log_mu)
            assert mu == pytest.approx(max(1.0, r), rel=1e-12)
            assert mx_scaled * mu == pytest.approx(1.0 + r, abs=1e-9)
            assert m_scaled * mu == pytest.approx(abs(1.0 - r), abs=1e-9)

    def test_sentinel_for_vanishing_minimum(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run("gap-power", CONFIG_DIR / "two_term_gap_power.json", out) == 0
        header, rows, footers = read_rows(out)
        rcol, ratcol, fcol = header.index("r"), header.index("ratio_M_m"), header.index("flag")
        row_at_1 = next(r for r in rows if float(r[rcol]) == 1.0)
        assert row_at_1[ratcol] == "inf"
        assert row_at_1[fcol] == "1"
        # measures are computed from flags, never from the inf ratio
        for foot in footers:
            if foot[1] in ("lebesgue", "h"):
                assert math.isfinite(float(foot[2]))

    def test_substitution_footer_matches(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run("gap-power", CONFIG_DIR / "two_term_gap_power.json", out) == 0
        _, _, footers = read_rows(out)
        by_name = {f[1]: f[2] for f in footers if f[0] == "#measure"}
        h_log = float(by_name["h_log"])
        h_image = float(by_name["h_image"])
        assert h_log == pytest.approx(h_image, abs=1e-8)

    def test_power3_density_overflow_reaches_footers(self, tmp_path):
        # h = power(3): h'(exp(n_k + b/gap_k)) = 3 exp(2 (n_k + b/gap_k)) passes
        # the float range for n_k = 19^2 .. 26^2, where float ** used to raise
        payload = {
            "series": {
                "generator": "power", "kind": "gap-power", "scale": 1.0, "power": 2.0, "count": 30,
                "coeffs": {"mode": "random", "g": {"name": "affine", "slope": 0.05, "intercept": 1.0}},
            },
            "h": {"name": "power", "exponent": 3.0},
            "b_grid": [0.5, 2.0],
            "gap_power": {"r_min": 1.5, "r_max": 3.0, "r_points": 4},
        }
        out = tmp_path / "o.csv"
        assert run("gap-power", write_config(tmp_path, "c.json", payload), out) == 0
        _, rows, footers = read_rows(out)
        assert len(rows) == 4
        conds = [f for f in footers if f[0] == "#cond88"]
        assert [f[1] for f in conds] == ["0.5", "2"]
        assert all(f[2] == "inf" and f[3] in ("converging", "diverging", "inconclusive") for f in conds)

    def test_cond88_footers_present(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run("gap-power", CONFIG_DIR / "two_term_gap_power.json", out) == 0
        _, _, footers = read_rows(out)
        conds = [f for f in footers if f[0] == "#cond88"]
        assert conds and all(f[3] in ("converging", "diverging", "inconclusive") for f in conds)


class TestCriteria:
    def test_identity_density_rows_duplicate_gap_rows(self, tmp_path):
        payload = {
            "series": {"generator": "geometric", "base": 2.0, "count": 31},
            "h": {"name": "identity"},
            "phi": {"name": "identity"},
            "b_grid": [1.0],
            "criteria": {"n_terms": 30},
        }
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o.csv"
        assert run("criteria", cfg, out) == 0
        header, rows, _ = read_rows(out)
        cond, nt, ps = header.index("condition"), header.index("n_terms"), header.index("partial_sum")
        gap_rows = {r[nt]: r[ps] for r in rows if r[cond] == "gap"}
        for name in ("inverse_shifted", "scaled_inverse_shifted", "scaled_inverse", "power_growth"):
            these = {r[nt]: r[ps] for r in rows if r[cond] == name}
            assert these == gap_rows, name

    def test_geometric_partial_sum_value(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run("criteria", CONFIG_DIR / "geometric_criteria.json", out) == 0
        header, rows, _ = read_rows(out)
        cond, nt = header.index("condition"), header.index("n_terms")
        gap_final = next(r for r in rows if r[cond] == "gap" and r[nt] == "30")
        assert float(gap_final[header.index("partial_sum")]) == pytest.approx(1.5, abs=1e-8)
        assert gap_final[header.index("verdict")] == "converging"


def test_cli_uses_no_private_library_name():
    """The CLI only formats: a rule it needs from another gapseries module
    must be public there, not re-derived from that module's private parts."""
    tree = ast.parse(Path(gapseries.cli.__file__).read_text())
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("gapseries")):
            private += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
            if node.module in (None, "gapseries"):  # from . import criteria as crit
                modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name.split(".")[0] for a in node.names if a.name.startswith("gapseries"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):  # gapseries.criteria._name
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                private.append(ast.unparse(node))
    assert modules and not private


class TestConstructAndLemma:
    def test_construct_outputs(self, tmp_path):
        out = tmp_path / "witness"
        assert run("construct", CONFIG_DIR / "witness_construct.json", out) == 0
        series = json.loads((tmp_path / "witness.series.json").read_text())
        assert series["excess"] == pytest.approx(math.exp(-1.0))
        assert series["switch_points"][1] == 1.0 and series["switch_points"][2] == 1.0

        header, rows, _ = read_rows(tmp_path / "witness.verify.csv")
        pcol = header.index("pass")
        assert rows and all(r[pcol] == "1" for r in rows)

        header, rows, _ = read_rows(tmp_path / "witness.exceptional.csv")
        lengths = [float(r[header.index("length")]) for r in rows]
        gaps = np.diff(series["exponents"])
        for n, length in enumerate(lengths, start=1):
            assert length == pytest.approx(1.0 / gaps[n - 1], rel=1e-15)

        header, rows, footers = read_rows(tmp_path / "witness.hmeas.csv")
        lower = [float(r[header.index("lower_partial")]) for r in rows]
        meas = [float(r[header.index("measure_partial")]) for r in rows]
        assert all(m >= l for m, l in zip(meas, lower))

    def test_lemma_all_margins_pass(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run("lemma1", CONFIG_DIR / "geometric_lemma.json", out) == 0
        header, rows, _ = read_rows(out)
        pcol = header.index("pass")
        assert len(rows) == 3 * 31 * 30
        assert all(r[pcol] == "1" for r in rows)


class TestEnvelopeAcrossConfigs:
    @pytest.mark.parametrize(
        "name, command",
        [
            ("geometric_damped_sweep.json", "sweep"),
            ("two_term_gap_power.json", "gap-power"),
        ],
    )
    def test_envelope_invariants(self, tmp_path, name, command):
        out = tmp_path / "o.csv"
        assert run(command, CONFIG_DIR / name, out) == 0
        header, rows, _ = read_rows(out)
        ecol = header.index("error")
        checked = 0
        for r in rows:
            if r[ecol]:
                continue
            m = float(r[header.index("m_scaled")])
            mx = float(r[header.index("M_scaled")])
            s = float(r[header.index("sum_scaled")])
            assert m <= mx + 1e-12
            assert mx <= s + 1e-12
            assert s >= 1.0 - 1e-12
            checked += 1
        assert checked > 0


class TestDetectionConsistency:
    def test_detected_set_stabilizes_under_refinement(self, tmp_path):
        # successive grid refinements produce detected sets whose mutual
        # symmetric difference shrinks
        from gapseries import IntervalSet

        ws = build_witness_series(power_exponents(1.0, 1.0, 200), lambda t: t, 1.0, 150)
        base = {
            "series": {
                "generator": "explicit",
                "exponents": ws.spec.exponents.values.tolist(),
                "log_moduli": ws.spec.log_moduli.tolist(),
            },
            "beta": 0.3,
        }
        sets = {}
        for step in (1.0, 0.5, 0.25):
            payload = {**base, "sweep": {"x_min": 1.0, "x_max": 30.0, "step": step}}
            cfg = write_config(tmp_path, f"c{step}.json", payload)
            out = tmp_path / f"o{step}.csv"
            assert run("sweep", cfg, out) == 0
            header, rows, _ = read_rows(out)
            xcol, fcol = header.index("x"), header.index("flag")
            pairs = [
                (float(r[xcol]), float(r[xcol]) + step) for r in rows if r[fcol] == "1"
            ]
            sets[step] = IntervalSet.from_pairs(pairs).coalesce()

        def sym_diff(a, b):
            return a.difference(b).total_length + b.difference(a).total_length

        d_coarse = sym_diff(sets[1.0], sets[0.5])
        d_fine = sym_diff(sets[0.5], sets[0.25])
        assert d_fine <= d_coarse + 1e-9


def reference_cell(value):
    # cell formatting of the row-wise writer that _write_csv replaced
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return f"{value:.17g}"
    return str(value)


def reference_csv(header, rows, footers=()):
    lines = [",".join(header)] + [",".join(reference_cell(v) for v in row) for row in [*rows, *footers]]
    return "\n".join(lines) + "\n"


class TestWriteCsv:
    SPECIAL = [-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan, 1.0 / 3.0, 5e-324, -1.7976931348623157e308, 2.0]

    def check(self, tmp_path, header, columns, footers=()):
        path = tmp_path / "t.csv"
        _write_csv(path, header, columns, list(footers))
        rows = list(zip(*[list(c) for c in columns]))
        # compared as lines: pytest reports the first differing line of a long
        # table at once, where a diff of the two strings takes minutes
        assert path.read_text().split("\n") == reference_csv(header, rows, footers).split("\n")
        return path.read_text()

    def test_float_array_keeps_signed_zero_and_specials(self, tmp_path):
        col = np.array(self.SPECIAL * 3)
        text = self.check(tmp_path, ["v"], [col])
        assert text.split("\n")[1:7] == ["-0", "0", "inf", "-inf", "nan", "nan"]

    def test_python_and_numpy_ints(self, tmp_path):
        ints = np.array([3, -1, 0, 2**40, 3, -1], dtype=np.int64)
        self.check(tmp_path, ["i", "u", "py"], [ints, ints.astype(np.uint8), [int(v) for v in ints]])

    def test_mixed_object_columns_and_footers(self, tmp_path):
        rows = [
            ["gap", "", 1, 0.5, math.nan, "converging"],
            ["exp", 2.0, np.int64(7), np.float64(-0.0), math.inf, "inconclusive"],
            ["exp", 0.25, 15, 1e300 * 10, -math.inf, ""],
        ]
        footers = [["#measure", "h", math.nan], ["#cond88", 0.5, np.float64(1.5), "diverging"]]
        self.check(tmp_path, ["a", "b", "c", "d", "e", "f"], list(zip(*rows)), footers)

    def test_zero_rows_with_footers(self, tmp_path):
        footers = [["#measure", "lebesgue", 0.0]]
        text = self.check(tmp_path, ["x", "y"], list(zip(*[])), footers)
        assert text == "x,y\n#measure,lebesgue,0\n"

    def test_unequal_columns_raise(self, tmp_path):
        with pytest.raises(ValueError, match="unequal length"):
            _write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])

    @pytest.mark.parametrize("n", [_CSV_CHUNK_ROWS, 2 * _CSV_CHUNK_ROWS + 7])
    def test_table_longer_than_one_chunk(self, tmp_path, n):
        rng = np.random.default_rng(5)
        # few distinct values, as in the q and n columns, and many, as in margins
        floats = np.where(rng.random(n) < 0.1, -0.0, rng.choice([0.5, 1.0 / 3.0, math.inf], n))
        ints = rng.integers(-5, 5, n)
        objects = [v if i % 3 else "" for i, v in enumerate(rng.normal(size=n).tolist())]
        self.check(tmp_path, ["f", "i", "m", "g"], [floats, ints, objects, rng.normal(size=n)])

    # quiet and signalling NaNs of both signs, with and without payload bits
    NAN_PAYLOADS = np.array(
        [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
        dtype=np.uint64,
    ).view(np.float64)

    @staticmethod
    def column(kind, pool, rng, n):
        """One column of ``n`` rows drawn from a small pool of distinct
        values, so that duplicates fall in different chunks."""
        if kind == "float":
            return rng.choice(np.concatenate([pool, [-0.0, 0.0], TestWriteCsv.NAN_PAYLOADS]), n)
        if kind == "float many":
            return rng.choice(rng.normal(size=n // 2 + 1), n)
        if kind == "int narrow":
            lo = int(rng.integers(-(2**63), 2**63 - n))
            return lo + rng.integers(0, n, n)
        if kind == "int8 full span":
            # wider than int8's positive half
            return rng.integers(-128, 128, n, dtype=np.int8)
        if kind == "int wide":
            return rng.choice(np.array([-(2**63), 2**63 - 1, 0, -1, 7, 2**40], dtype=np.int64), n)
        if kind == "uint8":
            return rng.integers(0, 256, n, dtype=np.uint8)
        if kind == "uint64":
            return rng.choice(np.array([0, 1, 2**63, 2**64 - 1, 2**64 - 2], dtype=np.uint64), n)
        # mixed: Python and numpy scalars, strings, as in criteria and sweep rows
        mixed = ["", "gap", 7, np.int64(-3), np.uint8(200), *pool.tolist(), np.float64(-0.0), math.nan]
        return [mixed[i] for i in rng.integers(0, len(mixed), n)]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([1, 2, 255, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1, 2 * _CSV_CHUNK_ROWS + 3]),
        kinds=st.lists(
            st.sampled_from(["float", "float many", "int narrow", "int8 full span", "int wide", "uint8", "uint64", "mixed"]),
            min_size=1, max_size=4,
        ),
        pool=st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_row_wise_reference(self, n, kinds, pool, seed):
        rng = np.random.default_rng(seed)
        columns = [self.column(kind, np.array(pool), rng, n) for kind in kinds]
        with tempfile.TemporaryDirectory() as tmp:
            self.check(Path(tmp), [f"c{j}" for j in range(len(kinds))], columns, [["#measure", "h", -0.0]])


class TestLemmaGolden:
    def test_array_margins_write_the_scalar_reference_bytes(self, tmp_path):
        q_values = [0.4, 1.3, 2.9]
        payload = {
            "series": {"generator": "geometric", "base": 1.7, "count": 80},
            "lemma": {"q_values": q_values, "n_terms": 79, "max_index": 79},
        }
        out = tmp_path / "o.csv"
        assert run("lemma1", write_config(tmp_path, "c.json", payload), out) == 0
        rows = []
        for q in q_values:
            g = build_damping_gadget(geometric_exponents(1.7, 80), q, 79)
            for n in range(0, 80):
                for k in range(1, 80):
                    margin = domination_margin(g, n, k)
                    tolerance = g.inner_tail_error * (abs(n - k) + 1)
                    rows.append([q, n, k, margin, tolerance, int(margin >= -tolerance)])
        assert len(rows) == 18960 > _CSV_CHUNK_ROWS
        assert out.read_text() == reference_csv(["q", "n", "k", "margin", "tolerance", "pass"], rows)
