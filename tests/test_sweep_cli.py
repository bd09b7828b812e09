import csv
import io
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hyswap import (
    CSV_COLUMNS,
    ConfigError,
    SweepConfig,
    closed_form,
    dv_swap,
    evaluate_point,
    format_value,
    parse_config,
    run_sweep,
)
from hyswap.cli import main
from hyswap.sweep import SCHEME_ALIASES


BASE_CONFIG = """\
# two cheap dv points
schemes = dv
alpha_values = 0.0
T_values = 1.0, 0.5
T_prime = 1.0
cutoff = 4
output_path = {out}
"""


def write_config(tmp_path, body, name="sweep.cfg"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_full(tmp_path):
    body = (
        "schemes = dv, he-spd\n"
        "alpha_values = 0.3 0.7\n"
        "one_minus_T_range = 0:0.2:0.1\n"
        "T_prime = 0.9\n"
        "cutoff = 8\n"
        "homodyne.points = 101\n"
        "output_path = out.csv\n"
        "parallelism = 2\n"
    )
    cfg = parse_config(write_config(tmp_path, body))
    assert cfg.schemes == ("dv", "he-spd")
    assert cfg.alpha_values == (0.3, 0.7)
    assert np.allclose(cfg.T_values, (1.0, 0.9, 0.8))
    assert cfg.T_prime == 0.9
    assert cfg.cutoff == 8
    assert cfg.parallelism == 2


def test_parse_config_defaults_and_comments(tmp_path, monkeypatch):
    monkeypatch.delenv("HYSWAP_CUTOFF", raising=False)
    body = (
        "# comment line\n"
        "schemes = dv   # trailing comment\n"
        "\n"
        "alpha_values = 0.0\n"
        "T_values = 1.0\n"
        "output_path = o.csv\n"
    )
    cfg = parse_config(write_config(tmp_path, body))
    assert cfg.T_prime == 1.0
    assert cfg.cutoff == 12  # falls back to the ambient default
    assert cfg.parallelism == 1


def test_parse_config_reads_cutoff_env_only_without_cutoff_key(tmp_path, monkeypatch):
    monkeypatch.setenv("HYSWAP_CUTOFF", "abc")
    body = "schemes = dv\nalpha_values = 0.0\nT_values = 1.0\noutput_path = o.csv\n"
    assert parse_config(write_config(tmp_path, body + "cutoff = 8\n")).cutoff == 8
    with pytest.raises(ValueError, match="HYSWAP_CUTOFF must be an integer"):
        parse_config(write_config(tmp_path, body, name="no_cutoff.cfg"))


def test_parse_config_unknown_key_named(tmp_path):
    path = write_config(tmp_path, "schemes = dv\nbeta_values = 1\n")
    with pytest.raises(ConfigError, match="unknown config key: beta_values"):
        parse_config(path)


@pytest.mark.parametrize("value", ["5.0", "0", "inf"])
def test_parse_config_rejects_the_removed_x_max_key(tmp_path, value):
    """The homodyne integral is exact, so no quadrature window is read: the key is unknown.

    Values its range check used to refuse (0, inf) fail the same way as a once-valid one.
    """
    path = write_config(tmp_path, "schemes = he-ho\nalpha_values = 0.3\nT_values = 1.0\n"
                                  f"homodyne.x_max = {value}\noutput_path = o.csv\n")
    with pytest.raises(ConfigError, match="unknown config key: homodyne.x_max"):
        parse_config(path)


def test_parse_config_duplicate_key(tmp_path):
    path = write_config(tmp_path, "schemes = dv\nschemes = dv\n")
    with pytest.raises(ConfigError, match="duplicate config key: schemes"):
        parse_config(path)


def test_parse_config_missing_key(tmp_path):
    path = write_config(tmp_path, "schemes = dv\nT_values = 1.0\noutput_path = o\n")
    with pytest.raises(ConfigError, match="missing config key: alpha_values"):
        parse_config(path)


def test_parse_config_t_spec_exclusivity(tmp_path):
    base = "schemes = dv\nalpha_values = 0.0\noutput_path = o\n"
    both = base + "T_values = 1.0\none_minus_T_range = 0:0.5:0.1\n"
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(write_config(tmp_path, both))
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(write_config(tmp_path, base, name="none.cfg"))


def test_parse_config_bad_values(tmp_path):
    base = "schemes = dv\nalpha_values = 0.0\nT_values = 1.0\noutput_path = o\n"
    cases = [
        ("schemes = dv, qkd\nalpha_values = 0.0\nT_values = 1\noutput_path = o\n", "invalid value for schemes"),
        ("schemes =\nalpha_values = 0.0\nT_values = 1\noutput_path = o\n", "invalid value for schemes"),
        (base + "parallelism = 0\n", "parallelism"),
        (base + "cutoff = 1\n", "cutoff"),
        ("schemes = dv\nalpha_values = 0.0\none_minus_T_range = 0:1\noutput_path = o\n", "start:stop:step"),
        ("schemes = dv\nalpha_values = 0.0\none_minus_T_range = 0.5:0.1:0.1\noutput_path = o\n", "one_minus_T_range"),
        (base + "not a pair\n", "key = value"),
    ]
    for body, msg in cases:
        with pytest.raises(ConfigError, match=msg):
            parse_config(write_config(tmp_path, body))


def test_range_is_inclusive(tmp_path):
    body = (
        "schemes = dv\nalpha_values = 0.0\n"
        "one_minus_T_range = 0:0.9:0.1\noutput_path = o\n"
    )
    cfg = parse_config(write_config(tmp_path, body))
    assert len(cfg.T_values) == 10
    assert abs(cfg.T_values[0] - 1.0) < 1e-12
    assert abs(cfg.T_values[-1] - 0.1) < 1e-12


@pytest.mark.parametrize("spec,want", [
    ("0:0.6:0.35", (1.0, 0.65)),
    ("0:1:0.35", (1.0, 0.65, 0.3)),
    ("0:0.3:0.1", (1.0, 0.9, 0.8, 0.7)),  # 0.3 / 0.1 rounds to 2.9999999999999996
])
def test_range_never_passes_stop(tmp_path, spec, want):
    body = f"schemes = dv\nalpha_values = 0.0\none_minus_T_range = {spec}\noutput_path = o\n"
    cfg = parse_config(write_config(tmp_path, body))
    assert len(cfg.T_values) == len(want)
    assert np.allclose(cfg.T_values, want, rtol=0.0, atol=1e-12)


def test_range_value_that_rounds_past_stop_is_clamped(tmp_path):
    # 0.09 + 13 * 0.07 rounds to 1.0000000000000002, which would be T = -2.2e-16
    body = "schemes = dv\nalpha_values = 0.0\none_minus_T_range = 0.09:1.0:0.07\noutput_path = o\n"
    cfg = parse_config(write_config(tmp_path, body))
    assert len(cfg.T_values) == 14
    assert cfg.T_values[-1] == 0.0
    assert all(0.0 <= t <= 1.0 for t in cfg.T_values)


# ---------------------------------------------------------------------------
# point evaluation and formatting


def test_evaluate_point_row():
    row = evaluate_point("dv", 0.0, 0.6, 1.0, 4)
    ref = closed_form("dv", 0.0, 0.6)
    sim = dv_swap(0.6, 1.0, 4)
    assert list(row) == CSV_COLUMNS
    assert row["p_sim"] == sim.total_success_probability
    assert row["p_closed"] == ref.p
    assert row["err_p"] == abs(row["p_sim"] - row["p_closed"])
    assert row["err_p"] < 1e-12


def test_he_ho_one_node_grid_argument_is_ignored():
    # one Gauss-Legendre node once gave p_sim 0.0872 here, err_p 7.4e-2
    row = evaluate_point("he-ho", 0.5, 0.7, 1.0, 12, 6.0, 1)
    assert row["err_p"] < 1e-4 and row["err_E"] < 2e-3


def test_benchmark_grid_arguments_and_keys_are_still_accepted(tmp_path):
    """perfbench passes evaluate_point two trailing grid arguments and writes
    homodyne.points into its sweep config; both are accepted and ignored."""
    row = evaluate_point("he-ho", 0.3, 0.7, 0.9, 8)
    for points in (1, 101, 201):
        assert evaluate_point("he-ho", 0.3, 0.7, 0.9, 8, 6.0, points) == row
    body = "schemes = he-ho\nalpha_values = 0.3\nT_values = 0.7\nhomodyne.points = 101\noutput_path = o\n"
    assert parse_config(write_config(tmp_path, body)).schemes == ("he-ho",)


def test_evaluate_point_uses_cli_scheme_names():
    with pytest.raises(ValueError, match="unknown scheme"):
        evaluate_point("he_spd", 0.3, 1.0, 1.0, 4)  # internal name, not CLI name
    row = evaluate_point("he-spd", 0.3, 1.0, 1.0, 6)
    assert row["scheme"] == "he-spd"
    assert SCHEME_ALIASES["he-spd"] == "he_spd"


def test_format_value_twelve_digits():
    assert format_value(0.5) == "0.5"
    assert format_value(1.0 / 3.0) == "0.333333333333"
    assert format_value(1.23456789012345e-7) == "1.23456789012e-07"
    assert format_value(7) == "7"
    assert format_value("dv") == "dv"


# ---------------------------------------------------------------------------
# sweep runs


def test_run_sweep_writes_expected_rows(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = parse_config(write_config(tmp_path, BASE_CONFIG.format(out=out)))
    count = run_sweep(cfg)
    assert count == 2
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert list(rows[0]) == CSV_COLUMNS
    assert [r["T"] for r in rows] == ["1", "0.5"]  # config order preserved
    assert float(rows[0]["p_sim"]) == pytest.approx(0.5, abs=1e-12)
    assert all(float(r["err_E"]) < 1e-9 for r in rows)


def test_run_sweep_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        cfg = parse_config(
            write_config(tmp_path, BASE_CONFIG.format(out=out), name=out.name + ".cfg")
        )
        run_sweep(cfg)
    assert out1.read_bytes() == out2.read_bytes()


def test_run_sweep_parallel_output_is_identical(tmp_path):
    body = (
        "schemes = dv\nalpha_values = 0.0\n"
        "T_values = 1.0, 0.8, 0.6, 0.4\n"
        "cutoff = 4\noutput_path = {out}\nparallelism = {par}\n"
    )
    outs = []
    for par in (1, 3):
        out = tmp_path / f"par{par}.csv"
        cfg = parse_config(
            write_config(tmp_path, body.format(out=out, par=par), name=f"p{par}.cfg")
        )
        run_sweep(cfg)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("cutoff", [12, 16])
def test_sweep_rows_equal_cli_point_rows(tmp_path, capsys, cutoff):
    """Each row of a stacked 3-scheme sweep is, byte for byte, what ``hyswap point`` prints at its
    inputs, the unreachable T = 0 rows included.  From cutoff 15 on, a BLAS product's column can
    depend on how many columns it has, so a splitter run over many points at once would show."""
    out = tmp_path / "all.csv"
    cfg = write_config(tmp_path, "schemes = dv, he-spd, he-ho\nalpha_values = 0.0, 0.6\n"
                                 f"T_values = 1.0, 0.37, 0.0\ncutoff = {cutoff}\noutput_path = {out}\n")
    assert main(["sweep", cfg]) == 0
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    assert header == ",".join(CSV_COLUMNS) and len(rows) == 18
    if cutoff == 12:
        assert "dv,0,0,1,12,0,0,0,0.207106781187,0,0.207106781187" in rows
    capsys.readouterr()
    for row in rows:
        scheme, alpha, T = row.split(",")[:3]
        assert main(["point", "--scheme", scheme, "--alpha", alpha, "--T", T, "--cutoff", str(cutoff)]) == 0
        assert capsys.readouterr().out.splitlines() == [header, row]


def test_dv_runs_once_per_chunk_for_every_alpha(tmp_path, monkeypatch):
    """dv ignores alpha, so a three-alpha sweep makes one dv ``swap_points`` call per chunk of T
    values, and its rows under each alpha are the first alpha's with only the alpha column changed;
    he-spd still runs once per (alpha, chunk)."""
    import hyswap.sweep as sweep

    calls = []
    real = sweep.swap_points
    monkeypatch.setattr(sweep, "swap_points", lambda scheme, *args: calls.append(scheme) or real(scheme, *args))
    monkeypatch.setattr(sweep, "_ROWS_PER_CALL", 2)
    out = tmp_path / "three.csv"
    cfg = parse_config(write_config(tmp_path, "schemes = dv, he-spd\nalpha_values = 0.2, 0.5, 0.8\n"
                                              f"T_values = 1.0, 0.8, 0.5, 0.2, 0.0\ncutoff = 6\noutput_path = {out}\n"))
    assert run_sweep(cfg) == 30
    assert calls == ["dv"] * 3 + ["he_spd"] * 9
    _, *rows = out.read_text(encoding="utf-8").splitlines()
    dv = [row.split(",") for row in rows[:15]]
    assert [r[1] for r in dv] == ["0.2"] * 5 + ["0.5"] * 5 + ["0.8"] * 5
    assert all(r[:1] + r[2:] == first[:1] + first[2:] for r, first in zip(dv, dv[:5] * 3))
    assert rows[:5] == [",".join(format_value(v) for v in row.values())
                        for row in sweep.evaluate_points("dv", 0.2, cfg.T_values, 1.0, 6)]


def test_sweep_config_is_frozen():
    cfg = SweepConfig(("dv",), (0.0,), (1.0,), 1.0, 4, "o.csv", 1)
    with pytest.raises(Exception):
        cfg.cutoff = 8


# ---------------------------------------------------------------------------
# CLI


def test_cli_point_prints_csv_row(capsys):
    rc = main(["point", "--scheme", "dv", "--T", "0.6", "--cutoff", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["scheme"] == "dv"
    assert float(row["p_closed"]) == pytest.approx(0.42)
    assert float(row["err_p"]) < 1e-12


def test_cli_point_row_at_an_unreachable_point(capsys):
    """At T = 0 no outcome is reachable: p_sim and E_sim are 0 by the floor rule, and err_E is
    the closed form's limit value (sqrt(2) - 1)/2, not a truncation error."""
    assert main(["point", "--scheme", "dv", "--T", "0", "--cutoff", "12"]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    assert row == "dv,0,0,1,12,0,0,0,0.207106781187,0,0.207106781187"


def test_cli_point_requires_alpha_for_hybrid(capsys):
    rc = main(["point", "--scheme", "he-spd", "--T", "0.5"])
    assert rc == 2
    assert "--alpha is required" in capsys.readouterr().err


def test_cli_point_rejects_bad_parameter(capsys):
    rc = main(["point", "--scheme", "dv", "--T", "1.5"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_point_honours_cutoff_env(capsys, monkeypatch):
    monkeypatch.setenv("HYSWAP_CUTOFF", "5")
    rc = main(["point", "--scheme", "dv", "--T", "0.9"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert row["cutoff"] == "5"


def test_cli_sweep_roundtrip(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    cfg = write_config(tmp_path, BASE_CONFIG.format(out=out))
    rc = main(["sweep", cfg])
    assert rc == 0
    assert f"wrote 2 rows to {out}" in capsys.readouterr().err
    assert out.exists()


def test_cli_sweep_missing_config(capsys):
    rc = main(["sweep", "/nonexistent/path.cfg"])
    assert rc == 1
    assert "no such config file" in capsys.readouterr().err


def test_cli_sweep_reports_config_errors(tmp_path, capsys):
    cfg = write_config(tmp_path, "schemes = dv\nwhat = 1\n")
    rc = main(["sweep", cfg])
    assert rc == 1
    assert "unknown config key: what" in capsys.readouterr().err


def test_cli_verify_exit_status(monkeypatch, capsys):
    from hyswap.verification import CriterionResult

    good = [CriterionResult("stub", True, "ok", "none")]
    bad = good + [CriterionResult("broken", False, "off by 1", "none")]
    monkeypatch.setattr("hyswap.verification.run_all", lambda: good)
    assert main(["verify"]) == 0
    err = capsys.readouterr().err
    assert "[PASS] stub" in err
    assert "1/1 criteria passed" in err
    monkeypatch.setattr("hyswap.verification.run_all", lambda: bad)
    assert main(["verify"]) == 1
    assert "[FAIL] broken" in capsys.readouterr().err


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("hyswap")
    assert exe is not None
    out = subprocess.run(
        [exe, "point", "--scheme", "dv", "--T", "1", "--cutoff", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0
    assert out.stdout.startswith("scheme,alpha,T,")


# ---------------------------------------------------------------------------
# bad input fails fast: a regression hangs or prints a traceback, so these
# run the CLI in a subprocess with a timeout


def run_cli(*args, **kwargs):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run(
        [sys.executable, "-m", "hyswap", *args],
        capture_output=True, text=True, timeout=60, env=env, **kwargs,
    )


def assert_one_line_error(out):
    assert out.returncode != 0
    assert "Traceback" not in out.stderr
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr


def test_cli_point_rejects_non_finite_alpha():
    # 1e200 is finite, but |alpha|² is not: it ended in an OverflowError traceback
    for scheme in ("he-spd", "he-ho"):
        for alpha in ("nan", "1e200"):
            out = run_cli("point", "--scheme", scheme, "--alpha", alpha, "--T", "0.5",
                          "--cutoff", "4")
            assert_one_line_error(out)
            assert "finite" in out.stderr


def test_cli_point_reports_a_pair_with_no_amplitude_below_the_cutoff():
    # he-ho: at alpha 40 every amplitude up to cutoff 12 underflows to zero, which failed on an
    # empty reshape; at 25, 30 and 38 the kept weight is below 1e-100, which reported p = 0
    for alpha in ("25", "30", "38", "40"):
        out = run_cli("point", "--scheme", "he-ho", "--alpha", alpha, "--T", "0.9", "--cutoff", "12")
        assert out.returncode == 1
        assert_one_line_error(out)
        assert f"alpha = {alpha}.0" in out.stderr and "cutoff 12" in out.stderr
    # he-spd reads only levels 0 and 1, which no cutoff cuts: its p is the closed form's, below the floor
    out = run_cli("point", "--scheme", "he-spd", "--alpha", "40", "--T", "0.9", "--cutoff", "12")
    assert out.returncode == 0, out.stderr
    header, line = out.stdout.strip().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert float(row["p_closed"]) <= 1e-15
    assert float(row["p_sim"]) == float(row["E_sim"]) == float(row["err_p"]) == 0.0


BAD_SWEEP_VALUES = [
    ("alpha_values = 0.3, nan\nT_values = 1.0\n", "alpha_values"),
    ("alpha_values = 0.3, 1e200\nT_values = 1.0\n", "alpha_values"),  # |alpha|² overflows
    ("alpha_values = 0.3\nT_values = 1.0, 1.5\n", "T_values"),
    ("alpha_values = 0.3\nT_values = -0.1\n", "T_values"),
    ("alpha_values = 0.3\none_minus_T_range = 0:1.5:0.5\n", "one_minus_T_range"),  # T = -0.5: the key written
    ("alpha_values = 0.3\nT_values = 1.0\nT_prime = 1.2\n", "T_prime"),
    ("alpha_values = 0.3\nT_values = 1.0\nhomodyne.points = 0\n", "homodyne.points"),
    ("alpha_values = 0.3\nT_values = 1.0\ncutoff = 1\n", "cutoff"),
    ("alpha_values = 0.3\nT_values = 1.0\nparallelism = 0\n", "parallelism"),
    ("alpha_values =\nT_values = 1.0\n", "alpha_values"),
    ("alpha_values = 0.3\nT_values =\n", "T_values"),
    ("alpha_values = 0.3\none_minus_T_range = 0:1:1e-12\n", "one_minus_T_range"),
]


@pytest.mark.parametrize("body,key", BAD_SWEEP_VALUES)
def test_parse_config_rejects_out_of_range_values(tmp_path, body, key):
    path = write_config(tmp_path, "schemes = he-ho\noutput_path = o.csv\n" + body)
    with pytest.raises(ConfigError, match=f"invalid value for {key}"):
        parse_config(path)


def test_cli_sweep_rejects_out_of_range_values_before_running(tmp_path):
    out = tmp_path / "never.csv"
    cfg = write_config(
        tmp_path,
        f"schemes = dv\nalpha_values = 0.0\nT_values = 1.0, 1.5\noutput_path = {out}\n",
    )
    result = run_cli("sweep", cfg)
    assert_one_line_error(result)
    assert "T_values" in result.stderr
    assert not out.exists()


def test_cli_sweep_rejects_missing_output_directory_before_running(tmp_path):
    out = tmp_path / "nodir" / "x.csv"
    cfg = write_config(
        tmp_path,
        f"schemes = dv\nalpha_values = 0.0\nT_values = 1.0\noutput_path = {out}\n",
    )
    result = run_cli("sweep", cfg)
    assert_one_line_error(result)
    assert "invalid value for output_path" in result.stderr
    assert "config file" not in result.stderr


def test_parse_config_rejects_directory_output_path(tmp_path):
    path = write_config(
        tmp_path, f"schemes = dv\nalpha_values = 0.0\nT_values = 1.0\noutput_path = {tmp_path}\n"
    )
    with pytest.raises(ConfigError, match="invalid value for output_path: it is a directory"):
        parse_config(path)


def test_cli_sweep_rejects_directory_output_path_before_running(tmp_path):
    out = tmp_path / "out.csv"
    out.mkdir()
    cfg = write_config(
        tmp_path,
        f"schemes = dv\nalpha_values = 0.0\nT_values = 1.0\noutput_path = {out}\n",
    )
    result = run_cli("sweep", cfg)
    assert result.returncode == 1
    assert_one_line_error(result)
    assert "invalid value for output_path" in result.stderr
    assert list(out.iterdir()) == []


def test_cli_sweep_reports_unreadable_config_as_one_line(tmp_path):
    result = run_cli("sweep", str(tmp_path))  # a directory, not a file
    assert result.returncode == 1
    assert_one_line_error(result)
    assert "cannot read config file" in result.stderr


@pytest.mark.parametrize("name", ["x" * 300 + ".csv", "dangling.csv"])
def test_cli_sweep_reports_unusable_output_path_as_one_line(tmp_path, name):
    # a file name too long for the file system fails in parse_config's checks; a symlink
    # into a missing directory passes them and fails when the CSV is opened
    out = tmp_path / name
    if name == "dangling.csv":
        out.symlink_to(tmp_path / "missing" / "target.csv")
    cfg = write_config(
        tmp_path,
        f"schemes = dv\nalpha_values = 0.0\nT_values = 1.0\noutput_path = {out}\n",
    )
    result = run_cli("sweep", cfg)
    assert result.returncode == 1
    assert_one_line_error(result)
    assert result.stdout == ""


def test_sweep_opens_the_output_before_the_first_point(tmp_path, monkeypatch, capsys):
    import hyswap.sweep as sweep

    def forbidden(*args, **kwargs):
        raise AssertionError("a point ran before the output was opened")

    out = tmp_path / "dangling.csv"
    out.symlink_to(tmp_path / "missing" / "target.csv")
    cfg = write_config(tmp_path, f"schemes = dv\nalpha_values = 0.0\nT_values = 1.0\noutput_path = {out}\n")
    monkeypatch.setattr(sweep, "evaluate_points", forbidden)
    assert main(["sweep", cfg]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_failed_sweep_removes_its_partial_csv(tmp_path, monkeypatch):
    import hyswap.sweep as sweep

    calls = []
    real = sweep.evaluate_points

    def second_group_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("bad point")
        return real(*args, **kwargs)

    out = tmp_path / "out.csv"
    out.write_text("an earlier sweep\n")
    # dv runs once for all alphas, so the second group is he-spd's; the first one's rows are written
    two_groups = BASE_CONFIG.replace("schemes = dv", "schemes = dv, he-spd").replace("alpha_values = 0.0", "alpha_values = 0.5")
    cfg = parse_config(write_config(tmp_path, two_groups.format(out=out)))
    monkeypatch.setattr(sweep, "evaluate_points", second_group_fails)
    with pytest.raises(ValueError, match="bad point"):
        run_sweep(cfg)
    assert len(calls) == 2
    assert not out.exists()


def _cap_address_space():
    # a cutoff-600 he-ho point asks for 3.23 GiB at once (its float64 stack of splitter
    # blocks), so under 3 GiB it fails within a second; cutoff 200 peaks at about 0.27 GiB
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


def test_cli_reports_allocation_failure_as_one_line(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # keep BLAS buffers well under the cap
    out = tmp_path / "never.csv"
    cfg = write_config(
        tmp_path,
        f"schemes = he-ho\nalpha_values = 0.3\nT_values = 0.5\ncutoff = 600\noutput_path = {out}\n",
    )
    point = ("point", "--scheme", "he-ho", "--alpha", "0.3", "--T", "0.5", "--cutoff", "600")
    for args in (point, ("sweep", cfg)):
        result = run_cli(*args, preexec_fn=_cap_address_space)
        assert result.returncode == 1
        assert_one_line_error(result)
        assert result.stdout == ""
    assert not out.exists()
