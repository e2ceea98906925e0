"""CLI surface: exit statuses, file emission, config handling, sweeps."""

from __future__ import annotations

import collections
import enum
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zenolab import cli
from zenolab.cli import (
    OPTIONS,
    ConfigError,
    _build_spec,
    _coerce,
    _format_cell,
    _gather_options,
    build_parser,
    load_config,
    main,
    write_table,
)
from zenolab.scenarios import READS, CurveTable, VerdictBundle


def _run(argv):
    return main(argv)


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------

def test_run_counterexample_writes_everything(tmp_path, capsys):
    code = _run(["run", "counterexample", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "(I) HOLDS" in out
    assert "(II) FALSIFIED" in out
    scenario_dir = tmp_path / "counterexample"
    assert (scenario_dir / "summary.txt").is_file()
    assert (scenario_dir / "bundle.json").is_file()
    for table in ("residuals_I", "residuals_II", "residuals_IA"):
        assert (scenario_dir / f"{table}.csv").is_file()
    summary = (scenario_dir / "summary.txt").read_text(encoding="utf-8")
    assert "verdict: PASS" in summary


def test_run_hm_invariance_with_n_override(tmp_path, capsys):
    code = _run(["run", "hm-invariance", "--N", "5", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "spectral_invariance" in out
    payload = json.loads((tmp_path / "hm-invariance" / "bundle.json").read_bytes())
    assert payload["provenance"]["parameters"]["n_measurements"] == 5
    assert payload["metrics"]["delta_spectral"] <= 1e-8


def test_run_margin_violation_exits_2(tmp_path, capsys):
    code = _run(["run", "counterexample", "--x-max", "5", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "margin" in err


def test_run_rejects_unknown_scenario(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        _run(["run", "nope", "--out", str(tmp_path)])
    assert excinfo.value.code == 2


def test_survival_csv_header_and_t0_row(tmp_path):
    _run(["run", "hm-invariance", "--out", str(tmp_path)])
    lines = (tmp_path / "hm-invariance" / "survival_spectral.csv").read_text(
        encoding="utf-8").splitlines()
    assert lines[0] == "# t,s_free,s_measured,N"
    t, s_free, s_measured, n = lines[1].split(",")
    assert float(t) == 0.0
    assert float(s_free) == 1.0
    assert float(s_measured) == 1.0
    assert int(n) == 5


def test_series_csv_gaussian_error_column(tmp_path):
    _run(["run", "series-validity", "--out", str(tmp_path)])
    lines = (tmp_path / "series-validity" / "series_gaussian.csv").read_text(
        encoding="utf-8").splitlines()
    assert lines[0] == "# n_terms,error,resolution"
    by_n = {}
    for line in lines[1:]:
        n, err, _res = line.split(",")
        by_n[int(n)] = float(err)
    assert by_n[30] < 1e-10
    assert by_n[40] < 1e-10


def test_residual_csv_forward_sweep(tmp_path):
    _run(["run", "counterexample", "--out", str(tmp_path)])
    lines = (tmp_path / "counterexample" / "residuals_I.csv").read_text(
        encoding="utf-8").splitlines()
    assert lines[0] == "# t,residual,verdict"
    assert len(lines) > 1
    for line in lines[1:]:
        _t, residual, verdict = line.split(",")
        assert float(residual) <= 1e-8
        assert verdict == "HOLDS"


@pytest.mark.parametrize("flags, code", [
    ([], 0),                            # omega*t = pi/2: closed-form slope -0.920
    (["--time", "3"], 2),               # slope -0.816: no chain could pass
    (["--omega", "2", "--time", "1.4"], 2),  # omega*t = 2.8: slope -0.834
])
def test_rabi_control_exits_2_outside_its_zeno_window(tmp_path, capsys, flags, code):
    assert _run(["run", "rabi-control", "--out", str(tmp_path), *flags]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error:")
        assert "outside the Zeno window" in err
        assert not (tmp_path / "rabi-control").exists()
    else:
        assert err == ""


@pytest.mark.parametrize("scenario, flags, reason", [
    ("counterexample", ["--seed", "-1"], "seed must be a non-negative integer"),
    # a negative falsify tolerance would make cond_II_falsified pass vacuously
    ("counterexample", ["--tolerance-falsify", "-1"],
     "tolerance_falsify must be finite and positive"),
    ("counterexample", ["--tolerance-invariance", "inf"],
     "tolerance_invariance must be finite and positive"),
    ("hm-invariance", ["--tolerance-invariance", "nan"],
     "tolerance_invariance must be finite and positive"),
    ("hm-invariance", ["--tolerance-falsify", "0"],
     "tolerance_falsify must be finite and positive"),
    # NaN passes every sign check, so each field is named before any work
    ("series-validity", ["--time", "nan"], "time must be finite, got nan"),
    ("rabi-control", ["--omega", "nan"], "omega must be finite, got nan"),
    ("rabi-control", ["--time", "nan"], "time must be finite, got nan"),
    ("hm-invariance", ["--sigma", "nan"], "sigma must be finite, got nan"),
    ("hm-invariance", ["--center", "nan"], "center must be finite, got nan"),
    ("counterexample", ["--x-max", "inf"], "x_max must be finite, got inf"),
    # 2 pi sigma^2 underflows to 0 in the Gaussian's normalization
    ("counterexample", ["--sigma", "1e-300"], "2 pi sigma^2 underflows to 0"),
    ("hm-invariance", ["--sigma", "1e-300"], "2 pi sigma^2 underflows to 0"),
    # series-validity's Gaussian grid holds k_max at 6 / sigma, so a tiny sigma
    # breaks the time budget |t| * k_max <= ln(1e6) before any state is built
    ("series-validity", ["--sigma", "1e-300"],
     "time 1 is too long for sigma 1e-300 (k_max = 6e+300): |t| * k_max exceeds ln(1e6)"),
    # ... and sigma^2 overflows past about 1.3e154
    ("counterexample", ["--x-min=-1e300", "--x-max=1e300", "--sigma=1e200"],
     "sigma 1e+200 is too large: 2 pi sigma^2 overflows"),
    # ... and far below dx every sample's exponent overflows to -inf
    ("counterexample", ["--sigma", "1e-160"], "sigma 1e-160 is too small for the grid step dx"),
    ("hm-invariance", ["--sigma", "1e-160"], "sigma 1e-160 is too small for the grid step dx"),
    # every gap a tolerance bounds is a normalized state's mass, so 1 or more
    # would decide its flag before the run
    ("counterexample", ["--tolerance-falsify", "2"], "tolerance_falsify must be below 1"),
    ("counterexample", ["--tolerance-invariance", "1"], "tolerance_invariance must be below 1"),
    ("hm-invariance", ["--tolerance-invariance", "5"], "tolerance_invariance must be below 1"),
    # a domain whose length overflows has an infinite dx
    ("series-validity", ["--x-min=-1e308", "--x-max=1e308"],
     "domain [-1e+308, 1e+308] is too wide: its length overflows"),
    ("counterexample", ["--x-min=-1e308", "--x-max=1e308"],
     "domain [-1e+308, 1e+308] is too wide: its length overflows"),
    # at dx = 4.9e303 the wave-zone trial bump has no sample in its support
    ("counterexample", ["--x-min=-1e307", "--x-max=1e307"],
     "support [2.0, 6.0] holds no weighted sample of the grid (dx = 4.8828125e+303)"),
    # ... and at dx = 4.9e303 even the 4096-point bump grid has k_max = 6.4e-304
    ("series-validity", ["--x-min=-1e307", "--x-max=1e307"],
     "time 1 is too short: |t| * k_max = 6.43e-304 (k_max = 6.43398e-304)"),
    ("hm-invariance", ["--time", "-1"], "final time must be positive"),
    ("rabi-control", ["--omega", "0"], "omega must be positive"),
    ("rabi-control", ["--time", "0"], "final time must be positive"),
    ("hm-invariance", ["--sigma", "0"], "sigma must be positive"),
    ("hm-invariance", ["--N", "-1"], "n_measurements must be non-negative"),
    # |t| * k_max at or below float64 eps: U(t) is the identity to rounding
    ("series-validity", ["--time", "0"], "time 0 is too short: |t| * k_max = 0"),
    ("series-validity", ["--time", "1e-300"], "(k_max = 160.85) is at most float64 eps"),
    # cos(omega * t) and the ladder's instants k * t need finite products
    ("rabi-control", ["--omega=1e308", "--time=1e308"],
     "omega 1e+308 and time 1e+308 overflow: t, omega * t and 128 * t must be finite"),
    ("rabi-control", ["--omega=5e-324"], "omega 4.94066e-324 and time inf overflow"),
    ("rabi-control", ["--omega=1e-308"], "omega 1e-308 and time 1.5708e+308 overflow"),
    # the windowed random field places 2 * 40 + 1 Fourier amplitudes
    ("counterexample", ["--grid-points", "32"],
     "the windowed random field needs 81 Fourier modes, more than the 32 grid points hold"),
    ("counterexample", ["--grid-points", "64"],
     "the windowed random field needs 81 Fourier modes, more than the 64 grid points hold"),
    # series-validity's budgets: e^(|t| k_max) amplifies the Gaussian's cutoff
    # roundoff, and no grid of 16 points keeps the plane wave's 20 terms in budget
    ("series-validity", ["--time", "2.4"],
     "time 2.4 is too long for sigma 1 (k_max = 6): |t| * k_max exceeds ln(1e6) = 13.8"),
    ("series-validity", ["--sigma", "1e-160"], "time 1 is too long for sigma 1e-160"),
    ("series-validity", ["--time", "1e308"],
     "time 1e+308 is too long for sigma 1 (k_max = 6)"),
    ("series-validity", ["--x-min=-1e307", "--x-max=1e307", "--time", "1e-300"],
     "time 1e-300 is too short: |t| * k_max = 0 (k_max = 6.43398e-304)"),
    ("series-validity", ["--sigma", "100", "--time", "30"],
     "time 30 is too long for the eigenvector branch: no grid of 16 or more points on "
     "[-40, 40] keeps |t| * k_max in its budget"),
    ("series-validity", ["--x-min", "0"],
     "margin violation: the bump on [-2, 2] needs [-2.0, 2.0] inside [0.0, 40.0]"),
    # the Gaussian grid's length 1024 pi sigma / 6 overflows: sigma is named, not the grid
    ("series-validity", ["--sigma", "1e306"],
     "sigma 1e+306 is too large: the Gaussian grid's length 1024 pi sigma / 6 overflows"),
    # closed-form deficits at or near roundoff leave the ladder's slope to chance
    ("rabi-control", ["--time", "1e-9"],
     "omega*t = 1e-09 is outside the Zeno window: the closed-form deficit at N = 128 is 7.75e-21"),
    ("rabi-control", ["--time", "5e-6"], "by 0.284, out of 0.15 of -1"),
    # a Gaussian spectrum exp(-sigma^2 (k - k0)^2) that reaches past k_max = pi / dx
    ("counterexample", ["--sigma", "0.01"],
     "sigma 0.01 is too small for the grid step dx = 0.0195312: a Gaussian at k0 = 2 puts "
     "more than 1e-08 of its mass past k_max = 160.85"),
    ("hm-invariance", ["--sigma", "0.003"],
     "sigma 0.003 is too small for the grid step dx = 0.0195312: a Gaussian at k0 = 0"),
])
def test_invalid_seed_or_tolerance_exits_2(scenario, flags, reason, tmp_path, capsys):
    assert _run(["run", scenario, "--out", str(tmp_path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert reason in captured.err
    assert captured.out == ""
    assert not (tmp_path / scenario).exists()


def test_format_csv_skips_bundle(tmp_path):
    _run(["run", "rabi-control", "--out", str(tmp_path), "--format", "csv"])
    scenario_dir = tmp_path / "rabi-control"
    assert (scenario_dir / "summary.txt").is_file()
    assert (scenario_dir / "survival_zeno.csv").is_file()
    assert not (scenario_dir / "bundle.json").exists()


def test_zenolab_out_env_is_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ZENOLAB_OUT", str(tmp_path / "from-env"))
    code = _run(["run", "rabi-control"])
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "from-env" / "rabi-control" / "bundle.json").is_file()


# ----------------------------------------------------------------------
# determinism (golden-file mode)
# ----------------------------------------------------------------------

def test_bundle_bytes_identical_across_runs(tmp_path):
    _run(["run", "counterexample", "--out", str(tmp_path / "a")])
    _run(["run", "counterexample", "--out", str(tmp_path / "b")])
    first = (tmp_path / "a" / "counterexample" / "bundle.json").read_bytes()
    second = (tmp_path / "b" / "counterexample" / "bundle.json").read_bytes()
    assert first == second


# ----------------------------------------------------------------------
# config files
# ----------------------------------------------------------------------

def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "sigma = 2.0\n"
        "N = 7        # trailing comment\n"
        "\n"
        "grid-points = 1024\n",
        encoding="utf-8",
    )
    values = load_config(str(cfg))
    assert values == {"sigma": 2.0, "N": 7, "grid-points": 1024}


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wibble = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(str(cfg))


def test_config_type_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid-points = soon\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="expects int"):
        load_config(str(cfg))


def test_config_type_error_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\ntime = soon\n", encoding="utf-8")
    code = _run(["run", "rabi-control", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert f"{cfg}:2: key 'time' expects float, got 'soon'" in capsys.readouterr().err


@pytest.mark.parametrize("separator", ["\x0c", "\x85", "\u2028"],
                         ids=["form-feed", "next-line", "line-separator"])
def test_config_lines_break_only_at_newline(separator, tmp_path, capsys):
    # str.splitlines would read two assignments here
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"omega = 1.0{separator}time = 2\n", encoding="utf-8")
    code = _run(["run", "rabi-control", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert f"{cfg}:1: key 'omega' expects float" in capsys.readouterr().err


def test_config_crlf_lines_still_parse(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"# comment\r\nomega = 2.0\r\ntime = 1.5\r\n")
    assert load_config(str(cfg)) == {"omega": 2.0, "time": 1.5}


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma = 2.0\n", encoding="utf-8")
    code = _run(["run", "hm-invariance", "--config", str(cfg),
                 "--sigma", "1.0", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "hm-invariance" / "bundle.json").read_bytes())
    assert payload["provenance"]["parameters"]["sigma"] == 1.0


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma: 2.0\n", encoding="utf-8")
    code = _run(["run", "hm-invariance", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content, reason", [
    (b"omega = 1.0\ntime = \xff3\n", ":2: not UTF-8 text"),
    (b"omega = 1.0\nout = o\x00b\n", ":2: embedded NUL character"),
], ids=["not-utf8", "nul"])
def test_undecodable_or_nul_config_exits_2(content, reason, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(content)
    code = _run(["run", "rabi-control", "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}{reason}")
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_missing_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "absent.cfg"
    code = _run(["run", "hm-invariance", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot read config file:")
    assert not (tmp_path / "hm-invariance").exists()


# ----------------------------------------------------------------------
# list and sweep
# ----------------------------------------------------------------------

def test_list_names_all_scenarios(capsys):
    assert _run(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("counterexample", "hm-invariance", "rabi-control", "series-validity"):
        assert name in out


def test_sweep_over_sigma(tmp_path, capsys):
    code = _run(["sweep", "hm-invariance", "--param", "sigma",
                 "--values", "0.8,1.2", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "sigma=0.8: PASS" in out
    assert "sigma=1.2: PASS" in out
    for value in ("0.8", "1.2"):
        assert (tmp_path / "hm-invariance" / f"sigma={value}" / "bundle.json").is_file()


def test_sweep_parallel_jobs(tmp_path, capsys):
    code = _run(["sweep", "rabi-control", "--param", "omega",
                 "--values", "1.0,1.1", "--jobs", "2", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "rabi-control" / "omega=1.0" / "summary.txt").is_file()
    assert (tmp_path / "rabi-control" / "omega=1.1" / "summary.txt").is_file()


def test_a_sweep_run_again_into_its_output_root_rewrites_the_same_files(tmp_path, capsys):
    argv = ["sweep", "rabi-control", "--param", "omega", "--values", "1.0,1.1",
            "--out", str(tmp_path)]

    def files():
        return {p.relative_to(tmp_path): p.read_bytes()
                for p in sorted(tmp_path.rglob("*")) if p.is_file()}

    assert _run(argv) == 0
    first = files()
    assert _run(argv) == 0
    capsys.readouterr()
    assert len(first) == 2 * 3 and files() == first  # summary, bundle and one CSV a point


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_reports_every_point_when_one_is_rejected(jobs, tmp_path, capsys):
    # sigma = 1.4 puts 5e-9 of gaussian(8) into the core zone, past the
    # strict condition-(I) guard; sigma = 0.5 must still run and report
    code = _run(["sweep", "counterexample", "--param", "sigma", "--values", "0.5,1.4",
                 "--jobs", jobs, "--out", str(tmp_path)])
    assert code == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sigma=0.5: PASS"
    assert lines[1].startswith("sigma=1.4: ERROR trial state 'gaussian(8)' is not wave-zone")
    assert (tmp_path / "counterexample" / "sigma=0.5" / "bundle.json").is_file()
    assert not (tmp_path / "counterexample" / "sigma=1.4").exists()


def test_sweep_reports_a_negative_seed_as_an_error(tmp_path, capsys):
    code = _run(["sweep", "counterexample", "--param", "seed", "--values", "1,-1",
                 "--out", str(tmp_path)])
    assert code == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed=1: PASS"
    assert lines[1] == "seed=-1: ERROR seed must be a non-negative integer, got -1"
    assert (tmp_path / "counterexample" / "seed=1" / "bundle.json").is_file()
    assert not (tmp_path / "counterexample" / "seed=-1").exists()


def test_sweep_reports_a_nan_sigma_as_an_error(tmp_path, capsys):
    code = _run(["sweep", "counterexample", "--param", "sigma", "--values", "1,nan",
                 "--out", str(tmp_path)])
    assert code == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sigma=1.0: PASS"
    assert lines[1] == "sigma=nan: ERROR sigma must be finite, got nan"
    assert not (tmp_path / "counterexample" / "sigma=nan").exists()


HUGE_GRID = str(2**62)  # numpy refuses a complex128 array this long before allocating


@pytest.mark.parametrize("scenario", ["counterexample", "hm-invariance", "series-validity"])
def test_a_grid_no_array_can_hold_exits_2(scenario, tmp_path, capsys):
    code = _run(["run", scenario, "--grid-points", HUGE_GRID, "--out", str(tmp_path)])
    assert code == 2
    # series-validity derives its grids from its budgets and reads no grid size
    reason = ("series-validity does not read 'grid-points'" if scenario == "series-validity"
              else f"n_points {HUGE_GRID} is too large: a complex128 state would exceed "
                   "numpy's largest array")
    assert capsys.readouterr().err == f"error: {reason}\n"


def test_sweep_reports_a_grid_no_array_can_hold_as_an_error(tmp_path, capsys):
    code = _run(["sweep", "hm-invariance", "--param", "grid-points", "--values",
                 f"1024,{HUGE_GRID}", "--out", str(tmp_path)])
    assert code == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "grid-points=1024: PASS"
    assert lines[1].startswith(f"grid-points={HUGE_GRID}: ERROR n_points {HUGE_GRID} is too large")


@pytest.mark.parametrize("message, reason", [
    ("Unable to allocate 16.0 TiB", "Unable to allocate 16.0 TiB"),
    ("", "MemoryError"),  # Python's own MemoryError carries no message
])
def test_run_out_of_memory_exits_2(message, reason, tmp_path, capsys, monkeypatch):
    def out_of_memory(name, spec):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_scenario", out_of_memory)
    assert _run(["run", "counterexample", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"


def test_sweep_reports_out_of_memory_per_point(tmp_path, capsys, monkeypatch):
    run_scenario = cli.run_scenario

    def out_of_memory_at_large_sigma(name, spec):
        if spec.sigma > 1.0:
            raise MemoryError("Unable to allocate 16.0 TiB")
        return run_scenario(name, spec)

    monkeypatch.setattr(cli, "run_scenario", out_of_memory_at_large_sigma)
    code = _run(["sweep", "counterexample", "--param", "sigma", "--values", "2.0,1.0",
                 "--out", str(tmp_path)])
    assert code == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["sigma=2.0: ERROR Unable to allocate 16.0 TiB", "sigma=1.0: PASS"]
    assert (tmp_path / "counterexample" / "sigma=1.0" / "bundle.json").is_file()


@pytest.mark.parametrize("argv, lines", [
    (["rabi-control", "--param", "omega", "--values", "1,2", "--time", "1e308"],
     ["omega=1.0: ERROR omega 1 and time 1e+308 overflow",
      "omega=2.0: ERROR omega 2 and time 1e+308 overflow"]),
    (["counterexample", "--param", "grid-points", "--values", "256,32"],
     ["grid-points=256: FAIL",
      "grid-points=32: ERROR the windowed random field needs 81 Fourier modes"]),
])
def test_sweep_reports_an_overflow_or_a_small_grid_per_point(argv, lines, tmp_path, capsys):
    assert _run(["sweep", *argv, "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(lines) + 1 and out[-1].startswith("outputs:")
    for line, start in zip(out, lines):
        assert line.startswith(start)


def _spec_value(key: str):
    """Values for one option: every finite float, any seed, --N up to 10^6
    and power-of-two grids up to 2^12."""
    if key == "grid-points":
        return st.integers(1, 12).map(lambda k: 2**k)
    if key == "N":
        return st.integers(max_value=10**6)
    if OPTIONS[key][0] is int:
        return st.integers()
    return st.floats(-1e308, 1e308)


@st.composite
def run_argv(draw):
    """A scenario and some of the flags it reads, in --key=value form."""
    scenario = draw(st.sampled_from(sorted(READS)))
    keys = [key for key, (_, field) in OPTIONS.items() if field in READS[scenario]]
    values = draw(st.fixed_dictionaries({}, optional={k: _spec_value(k) for k in keys}))
    return [scenario, *(f"--{k}={v!r}" for k, v in values.items())]


@given(argv=run_argv())
@example(argv=["rabi-control", "--omega=1e308", "--time=1e308"])
@example(argv=["rabi-control", "--omega=5e-324"])
@example(argv=["counterexample", "--grid-points=32"])
@example(argv=["counterexample", "--grid-points=64"])
def test_no_spec_escapes_main(argv):
    # pytest turns warnings into errors (pyproject.toml), so a warning escapes too
    with tempfile.TemporaryDirectory() as out:
        assert main(["run", *argv, f"--out={out}"]) in (0, 1, 2)


def test_series_validity_accepts_a_negative_time(tmp_path):
    assert _run(["run", "series-validity", "--time", "-1", "--out", str(tmp_path)]) == 0


def test_sweep_rejects_unsweepable_param(tmp_path, capsys):
    code = _run(["sweep", "rabi-control", "--param", "out",
                 "--values", "a,b", "--out", str(tmp_path)])
    assert code == 2
    assert "cannot sweep" in capsys.readouterr().err


@pytest.mark.parametrize("flags, reason", [
    (["--values", "1.0,1.1", "--jobs", "0"], "--jobs must be at least 1"),
    (["--values", ","], "--values is empty"),
])
def test_sweep_rejects_bad_jobs_or_empty_values(flags, reason, tmp_path, capsys):
    code = _run(["sweep", "rabi-control", "--param", "omega", *flags, "--out", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {reason}")
    assert captured.out == ""
    assert not (tmp_path / "rabi-control").exists()


# ----------------------------------------------------------------------
# the parser generated from OPTIONS
# ----------------------------------------------------------------------

#: ScenarioSpec field -> its long-flag spelling
KEY_OF = {f: k for k, (_, f) in OPTIONS.items() if f is not None}


def test_options_leave_only_int_fields_the_n_spelling_and_two_cli_keys_implicit():
    assert {key for key, (typ, _) in OPTIONS.items() if typ is int} == {"grid-points", "N", "seed"}
    assert KEY_OF["n_measurements"] == "N"
    assert [key for key, (_, field) in OPTIONS.items() if field is None] == ["out", "format"]


def test_readme_reads_table_matches_reads():
    # README's "flags it reads" table restates `scenarios.READS` by hand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| scenario          | flags it reads", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` +\| `([^`]*)`", table, flags=re.MULTILINE)
    documented = {name: frozenset(OPTIONS[flag[2:]][1] for flag in flags.split())
                  for name, flags in rows}
    assert documented == READS


def _reader(field: str | None) -> str:
    """A scenario that reads `field`; any scenario for a CLI-only key."""
    return next(s for s in sorted(READS) if field is None or field in READS[s])


def _sample_raw(key: str) -> str:
    if key == "format":
        return "csv"
    return {int: "7", float: "0.25", str: "somewhere"}[OPTIONS[key][0]]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("key", list(OPTIONS))
def test_flag_and_config_key_reach_the_same_field(key, command, tmp_path):
    field = OPTIONS[key][1]
    scenario = _reader(field)
    head = [command, scenario]
    if command == "sweep":
        head += ["--param", KEY_OF[min(READS[scenario])], "--values", "1"]
    raw = _sample_raw(key)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {raw}\n", encoding="utf-8")
    parser = build_parser()
    from_flag = _gather_options(parser.parse_args(head + [f"--{key}", raw]))
    from_file = _gather_options(parser.parse_args(head + ["--config", str(cfg)]))
    assert from_flag == from_file == {key: _coerce(key, raw)}
    spec = _build_spec(scenario, from_flag)
    assert spec == _build_spec(scenario, from_file)
    if field is not None:
        assert getattr(spec, field) == _coerce(key, raw)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_bogus_format_exits_2(command, tmp_path, capsys):
    argv = [command, "rabi-control", "--out", str(tmp_path)]
    if command == "sweep":
        argv += ["--param", "omega", "--values", "1.0"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--format", "bogus"])
    assert excinfo.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = bogus\n", encoding="utf-8")
    assert main(argv + ["--config", str(cfg)]) == 2
    assert "format must be csv, bundle or both" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_interrupt_exits_130_with_one_line(command, tmp_path, monkeypatch, capsys):
    def interrupted(name, spec):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_scenario", interrupted)
    argv = [command, "rabi-control", "--out", str(tmp_path)]
    if command == "sweep":
        argv += ["--param", "omega", "--values", "1.0,2.0"]
    assert main(argv) == 130
    captured = capsys.readouterr()
    assert captured.err == "interrupted\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# the fields each scenario reads
# ----------------------------------------------------------------------

#: every (scenario, key) pair whose spec field the scenario does not read
UNREAD = [(s, k) for s in sorted(READS) for k, (_, f) in OPTIONS.items()
          if f is not None and f not in READS[s]]
#: every (scenario, key) pair whose spec field the scenario reads
READ = [(s, KEY_OF[f]) for s in sorted(READS) for f in sorted(READS[s])]


def test_the_cli_accepts_21_of_the_44_scenario_field_pairs():
    assert (len(UNREAD), len(READ)) == (23, 21)


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("scenario, key", UNREAD)
def test_a_key_the_scenario_does_not_read_exits_2(scenario, key, via, tmp_path, capsys):
    raw = _sample_raw(key)
    out = tmp_path / "out"
    argv = ["run", scenario, "--out", str(out)]
    if via == "flag":
        argv += [f"--{key}", raw]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {raw}\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {scenario} does not read {key!r}")
    assert not out.exists()


def _record_specs(monkeypatch) -> list:
    """Replace the scenario runs with an empty passing bundle; keep the specs."""
    specs = []

    def fake_run(name, spec):
        specs.append(spec)
        return VerdictBundle(name, ())

    monkeypatch.setattr(cli, "run_scenario", fake_run)
    return specs


@pytest.mark.parametrize("scenario, key", READ)
def test_a_key_the_scenario_reads_is_accepted(scenario, key, tmp_path, monkeypatch, capsys):
    specs = _record_specs(monkeypatch)
    raw = _sample_raw(key)
    assert main(["run", scenario, "--out", str(tmp_path), f"--{key}", raw]) == 0
    assert capsys.readouterr().err == ""
    assert getattr(specs[0], OPTIONS[key][1]) == _coerce(key, raw)


@pytest.mark.parametrize("scenario, extra, key", [
    ("rabi-control", ["--param", "sigma"], "sigma"),
    ("hm-invariance", ["--param", "sigma", "--seed", "3"], "seed"),
    ("counterexample", ["--param", "sigma", "--N", "3"], "N"),
])
def test_sweep_rejects_an_unread_key_before_any_point_runs(scenario, extra, key, tmp_path,
                                                           monkeypatch, capsys):
    specs = _record_specs(monkeypatch)
    code = main(["sweep", scenario, *extra, "--values", "1,2", "--jobs", "2",
                 "--out", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {scenario} does not read {key!r}")
    assert specs == []
    assert not (tmp_path / scenario).exists()


# ----------------------------------------------------------------------
# CSV cells
# ----------------------------------------------------------------------

@pytest.mark.parametrize("value, expected", [
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    (-float("inf"), "-inf"),
    (0.1, "1.0000000000000001e-01"),
    (-0.0, "-0.0000000000000000e+00"),
    (np.float64(0.1), "1.0000000000000001e-01"),
    (np.float64("nan"), "nan"),
    (True, "1"),
    (np.bool_(False), "0"),
    (3, "3"),
    (np.int64(-7), "-7"),
    ("a,b", "a,b"),
    (None, "None"),
    ((1.0, [2, {"k": (float("nan"),)}]), "(1.0, [2, {'k': (nan,)}])"),
    ({1: 2.5}, "{1: 2.5}"),
], ids=lambda v: repr(v)[:40])
def test_format_cell_pins_each_type(value, expected):
    assert _format_cell(value) == expected


def test_format_cell_writes_other_values_by_str():
    # no subclass of a builtin is special-cased, and a numpy scalar whose
    # `.item()` is still a numpy scalar is written as it is
    class Level(enum.IntEnum):
        LOW = 1

    for value in (Level.LOW, np.longdouble(1.5), np.str_("a"), collections.OrderedDict(a=1)):
        assert _format_cell(value) == str(value)


def test_write_table_bytes(tmp_path):
    table = CurveTable(("t", "flag", "label"), (
        (0.1, True, "a"),
        (float("nan"), np.bool_(False), None),
        (np.float64(-2.5), 3, np.int64(-7)),
        (float("inf"), -float("inf"), np.float64("nan")),
    ))
    path = tmp_path / "table.csv"
    write_table(path, table)
    assert path.read_bytes() == (b"# t,flag,label\n1.0000000000000001e-01,1,a\nnan,0,None\n"
                                 b"-2.5000000000000000e+00,3,-7\ninf,-inf,nan\n")


@pytest.mark.parametrize("stale", [b"x" * 4096, b"# t\n", None], ids=["longer", "shorter", "none"])
def test_write_table_leaves_only_its_own_bytes_over_a_stale_file(stale, tmp_path):
    """The table is written over the old file in place, and the old tail is cut off."""
    table = CurveTable(("t", "flag"), ((0.5, True), (1.5, False)))
    path = tmp_path / "table.csv"
    if stale is not None:
        path.write_bytes(stale)
    write_table(path, table)
    assert path.read_bytes() == b"# t,flag\n5.0000000000000000e-01,1\n1.5000000000000000e+00,0\n"


def test_write_needs_no_read_access_to_an_existing_file(tmp_path):
    path = tmp_path / "summary.txt"
    path.write_bytes(b"x" * 64)
    path.chmod(0o200)
    cli._write(path, b"new\n")
    path.chmod(0o600)
    assert path.read_bytes() == b"new\n"


@pytest.mark.skipif(os.name == "nt", reason="the null device cannot be a symlink's target")
def test_write_through_a_link_to_a_device_does_not_cut_it(tmp_path):
    """A device has no length: writing through a link to one must not try to truncate it."""
    path = tmp_path / "summary.txt"
    path.symlink_to(os.devnull)
    cli._write(path, b"new\n")
    assert path.is_symlink()
