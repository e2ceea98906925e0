"""End-to-end scenario bundles: verdicts, frozen metrics, determinism."""

from __future__ import annotations

import json
import math
import time
from dataclasses import fields, replace

import pytest

from oracles import normal_cdf, rabi_chain_survival
from zenolab import (
    DomainError,
    ScenarioSpec,
    run_scenario,
    scenario_counterexample,
    scenario_hm_invariance,
    scenario_rabi_control,
    scenario_series_validity,
)
from zenolab.errors import PreconditionError
from zenolab.operators import Propagator
from zenolab.scenarios import READS, SCENARIOS

RUNTIME_BUDGET = {
    "counterexample": 5.0,
    "hm-invariance": 10.0,
    "rabi-control": 2.0,
    "series-validity": 30.0,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes_within_budget(name):
    start = time.monotonic()
    bundle = run_scenario(name)
    elapsed = time.monotonic() - start
    failed = [f.name for f in bundle.flags if not f.passed]
    assert bundle.passed, f"failed flags: {failed}"
    assert elapsed < RUNTIME_BUDGET[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_bundles_are_deterministic(name):
    assert run_scenario(name).to_json_bytes() == run_scenario(name).to_json_bytes()


def test_unknown_scenario_rejected():
    with pytest.raises(DomainError, match="unknown scenario"):
        run_scenario("does-not-exist")


# ----------------------------------------------------------------------
# counterexample: (I) holds, (II) falsified, (I-A) fails backward
# ----------------------------------------------------------------------

def test_counterexample_verdict_pair():
    bundle = scenario_counterexample()
    verdicts = {r.condition: r.verdict for r in bundle.conditions}
    assert verdicts == {"I": "HOLDS", "II": "FALSIFIED", "I-A": "FAILS"}
    assert bundle.metrics["max_residual_I"] <= 1e-8
    assert bundle.metrics["leakage_t6"] >= 0.99
    assert abs(bundle.metrics["leakage_t6"] - normal_cdf(3.0)) <= 1e-3
    assert bundle.metrics["ia_backward_mass"] >= 0.99
    assert bundle.metrics["ia_forward_mass"] <= 1e-8


def test_counterexample_summary_lines():
    text = scenario_counterexample().summary_text()
    assert "(I) HOLDS" in text
    assert "(II) FALSIFIED" in text
    assert "(I-A) FAILS" in text
    assert "verdict: PASS" in text


def test_counterexample_residual_tables():
    bundle = scenario_counterexample()
    table = bundle.tables["residuals_I"]
    assert table.columns == ("t", "residual", "verdict")
    assert all(row[1] <= 1e-8 for row in table.rows)
    table_ii = bundle.tables["residuals_II"]
    assert any(row[1] >= 0.99 for row in table_ii.rows)


def test_counterexample_margin_guard():
    with pytest.raises(DomainError, match="margin"):
        scenario_counterexample(ScenarioSpec(name="counterexample", x_max=5.0))


# ----------------------------------------------------------------------
# the fields each scenario reads, and its margin
# ----------------------------------------------------------------------

#: a valid value other than the default for every ScenarioSpec parameter
ALTERED = {
    "grid_points": 2048, "x_min": -50.0, "x_max": 50.0, "sigma": 0.8,
    "center": -10.0, "time": 1.5, "n_measurements": 7, "omega": 1.2,
    "tolerance_invariance": 1e-9, "tolerance_falsify": 1e-5, "seed": 99,
}


def _outcome(name: str, **overrides) -> dict:
    """Everything a run asserts and measures, without the echoed parameters."""
    payload = run_scenario(name, ScenarioSpec(name=name, **overrides)).to_payload()
    del payload["provenance"]
    return payload


def test_every_parameter_has_an_altered_value():
    assert set(ALTERED) == {f.name for f in fields(ScenarioSpec)} - {"name"}
    assert set(READS) == set(SCENARIOS)
    assert all(fields_read <= set(ALTERED) for fields_read in READS.values())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_field_the_scenario_does_not_read_changes_nothing(name):
    base = _outcome(name)
    for field_name in sorted(set(ALTERED) - READS[name]):
        assert _outcome(name, **{field_name: ALTERED[field_name]}) == base, field_name


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_field_the_scenario_reads_changes_its_outcome(name):
    base = _outcome(name)
    for field_name in sorted(READS[name]):
        assert _outcome(name, **{field_name: ALTERED[field_name]}) != base, field_name


def _margin_rejects(name: str, **overrides) -> bool:
    try:
        run_scenario(name, ScenarioSpec(name=name, **overrides))
    except DomainError as exc:
        return "margin violation" in str(exc)
    except PreconditionError:
        pass
    return False


@pytest.mark.parametrize("name, field_name, edge, inward, extra", [
    ("counterexample", "x_min", -22.0, math.inf, {}),       # -8 - 8 sigma - 6
    ("counterexample", "x_max", 36.0, -math.inf, {}),       # window 30 + 6
    ("counterexample", "x_max", 38.0, -math.inf, {"sigma": 2.5}),  # 12 + 8 sigma + 6
    ("hm-invariance", "x_min", -16.0, math.inf, {}),        # center - 8 sigma
    ("hm-invariance", "x_max", 2.0, -math.inf, {}),         # t
    # the 10x wide grid [-400, 400] holds 8 sigma + |t|
    ("series-validity", "time", 392.0, math.inf, {"grid_points": 256}),
])
def test_margin_edges_are_exact(name, field_name, edge, inward, extra):
    assert not _margin_rejects(name, **extra, **{field_name: edge})
    past = math.nextafter(edge, inward)
    assert _margin_rejects(name, **extra, **{field_name: past})


@pytest.mark.parametrize("overrides, reason", [
    ({"grid_points": 65536, "n_measurements": 60, "time": 0.05},
     "cannot place 60 distinct measurement steps inside 41 steps"),
    ({"time": 0.005}, "final time is below one grid step"),
])
def test_hm_invariance_rejects_its_schedules_before_any_transform(overrides, reason,
                                                                   monkeypatch):
    calls = []
    transform = Propagator.transform

    def counting_transform(self, psi):
        calls.append(psi)
        return transform(self, psi)

    monkeypatch.setattr(Propagator, "transform", counting_transform)
    with pytest.raises(DomainError, match=reason):
        scenario_hm_invariance(ScenarioSpec(name="hm-invariance", **overrides))
    assert calls == []


# ----------------------------------------------------------------------
# hm-invariance: measurements leave survival unchanged
# ----------------------------------------------------------------------

def test_hm_invariance_deltas():
    bundle = scenario_hm_invariance()
    assert abs(bundle.metrics["delta_spectral"]) <= 1e-8
    assert bundle.metrics["delta_shift"] == 0.0
    # free survival matches the Gaussian autocorrelation oracle
    t, sigma = bundle.metrics["t"], 1.0
    assert abs(bundle.metrics["s_free_spectral"]
               - math.exp(-(t**2) / (4.0 * sigma**2))) <= 1e-6
    t_eff = bundle.metrics["t_eff"]
    assert abs(bundle.metrics["s_free_shift"]
               - math.exp(-(t_eff**2) / (4.0 * sigma**2))) <= 1e-6


def test_hm_invariance_survival_table_t0_row():
    bundle = scenario_hm_invariance()
    table = bundle.tables["survival_spectral"]
    assert table.columns == ("t", "s_free", "s_measured", "N")
    first = table.rows[0]
    assert first[0] == 0.0
    assert first[1] == 1.0
    assert first[2] == 1.0
    assert first[3] == 5


def test_hm_invariance_respects_n_override():
    bundle = scenario_hm_invariance(ScenarioSpec(name="hm-invariance", n_measurements=13))
    assert bundle.passed
    assert bundle.provenance["parameters"]["n_measurements"] == 13


def test_hm_invariance_rejects_wave_zone_preparation():
    with pytest.raises(DomainError, match="core zone"):
        scenario_hm_invariance(ScenarioSpec(name="hm-invariance", center=3.0))


# ----------------------------------------------------------------------
# rabi-control: the positive control where measurement matters
# ----------------------------------------------------------------------

def test_rabi_control_quarter_and_slope():
    bundle = scenario_rabi_control()
    assert abs(bundle.metrics["s_single_measurement"] - 0.25) <= 1e-10
    assert abs(bundle.metrics["zeno_slope"] - (-1.0)) <= 0.15
    assert bundle.metrics["chain_vs_closed_form"] <= 1e-12


def test_rabi_control_table_matches_matrix_oracle():
    bundle = scenario_rabi_control()
    t = bundle.metrics["t"]
    for row in bundle.tables["survival_zeno"].rows:
        _, _, s_measured, n = row
        assert abs(s_measured - rabi_chain_survival(1.0, t, int(n))) <= 1e-12


# ----------------------------------------------------------------------
# series-validity: who may use the power series
# ----------------------------------------------------------------------

def test_series_validity_gaussian_floor():
    bundle = scenario_series_validity()
    assert bundle.metrics["gaussian_error_n40"] < 1e-10
    assert bundle.metrics["gaussian_classification"] == "entire-like"
    assert bundle.metrics["gaussian_tail_growth"] >= 1.1


def test_series_validity_bump_divergence_trend():
    bundle = scenario_series_validity()
    assert bundle.metrics["bump_peak_fine"] > bundle.metrics["bump_peak_coarse"]
    assert bundle.metrics["bump_classification_fine"] == "saturated-by-grid"
    assert bundle.metrics["bump_classification_coarse"] == "saturated-by-grid"
    for key in ("bump_plateau_fraction_fine", "bump_plateau_fraction_coarse"):
        assert 0.5 <= bundle.metrics[key] <= 2.0
    assert bundle.metrics["eigenvector_error"] <= 1e-12


def test_series_validity_gaussian_table_entry():
    bundle = scenario_series_validity()
    table = bundle.tables["series_gaussian"]
    assert table.columns == ("n_terms", "error", "resolution")
    late = {int(row[0]): row[1] for row in table.rows if int(row[0]) >= 30}
    assert late and all(err < 1e-10 for err in late.values())


# ----------------------------------------------------------------------
# Bundle plumbing
# ----------------------------------------------------------------------

def test_bundle_payload_is_json_round_trippable():
    bundle = scenario_counterexample()
    payload = json.loads(bundle.to_json_bytes())
    assert payload["scenario"] == "counterexample"
    assert payload["provenance"]["parameters"]["seed"] == 1234
    names = {f["name"] for f in payload["flags"]}
    assert "cond_II_falsified" in names


def test_spec_replace_round_trip():
    spec = ScenarioSpec(name="counterexample")
    assert replace(spec, sigma=2.0).sigma == 2.0
    assert replace(spec, sigma=2.0).name == "counterexample"
