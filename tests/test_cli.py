"""CLI surface: exit statuses, file emission, config handling, sweeps."""

from __future__ import annotations

import json

import pytest

from zenolab import cli
from zenolab.cli import (
    OPTIONS,
    ConfigError,
    _build_spec,
    _coerce,
    _gather_options,
    build_parser,
    load_config,
    main,
)
from zenolab.scenarios import READS, VerdictBundle


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
    ("series-validity", ["--sigma", "1e-300"], "2 pi sigma^2 underflows to 0"),
    # ... and sigma^2 overflows past about 1.3e154
    ("counterexample", ["--x-min=-1e300", "--x-max=1e300", "--sigma=1e200"],
     "sigma 1e+200 is too large: 2 pi sigma^2 overflows"),
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


def test_series_validity_accepts_a_negative_time(tmp_path):
    assert _run(["run", "series-validity", "--time", "-1", "--out", str(tmp_path)]) == 0


def test_sweep_rejects_unsweepable_param(tmp_path, capsys):
    code = _run(["sweep", "rabi-control", "--param", "out",
                 "--values", "a,b", "--out", str(tmp_path)])
    assert code == 2
    assert "cannot sweep" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the parser generated from OPTIONS
# ----------------------------------------------------------------------

#: ScenarioSpec field -> its long-flag spelling
KEY_OF = {f: k for k, (_, f) in OPTIONS.items() if f is not None}


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


# ----------------------------------------------------------------------
# the fields each scenario reads
# ----------------------------------------------------------------------

#: every (scenario, key) pair whose spec field the scenario does not read
UNREAD = [(s, k) for s in sorted(READS) for k, (_, f) in OPTIONS.items()
          if f is not None and f not in READS[s]]
#: every (scenario, key) pair whose spec field the scenario reads
READ = [(s, KEY_OF[f]) for s in sorted(READS) for f in sorted(READS[s])]


def test_the_cli_accepts_22_of_the_44_scenario_field_pairs():
    assert len(UNREAD) == len(READ) == 22


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
