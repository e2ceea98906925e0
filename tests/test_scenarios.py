"""End-to-end scenario bundles: verdicts, frozen metrics, determinism."""

from __future__ import annotations

import collections
import enum
import inspect
import json
import math
import time
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np
import pytest

from oracles import dense_momentum_twin, normal_cdf, rabi_chain_survival
from zenolab import (
    DomainError,
    Grid,
    ScenarioSpec,
    core_zone_state,
    halfline_pair,
    make_gaussian,
    momentum_operator,
    run_scenario,
)
from zenolab import scenarios
from zenolab.errors import PreconditionError
from zenolab.operators import Propagator
from zenolab.scenarios import READS, SCENARIOS, _shift_schedule, make_flag
from zenolab.subspaces import ConditionReport, ConditionSample
from zenolab.zeno import MeasurementSchedule, SurvivalReport

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


def test_a_spec_for_another_scenario_is_rejected():
    # the bundle would run one scenario and record the other in provenance
    with pytest.raises(DomainError, match="'hm-invariance'.*'counterexample'"):
        run_scenario("counterexample", ScenarioSpec(name="hm-invariance"))


# ----------------------------------------------------------------------
# counterexample: (I) holds, (II) falsified, (I-A) fails backward
# ----------------------------------------------------------------------

def test_counterexample_verdict_pair():
    bundle = run_scenario("counterexample")
    verdicts = {r.condition: r.verdict for r in bundle.conditions}
    assert verdicts == {"I": "HOLDS", "II": "FALSIFIED", "I-A": "FAILS"}
    assert bundle.metrics["max_residual_I"] <= 1e-8
    assert bundle.metrics["leakage_t6"] >= 0.99
    assert abs(bundle.metrics["leakage_t6"] - normal_cdf(3.0)) <= 1e-3
    assert bundle.metrics["ia_backward_mass"] >= 0.99
    assert bundle.metrics["ia_forward_mass"] <= 1e-8


def test_counterexample_summary_lines():
    text = run_scenario("counterexample").summary_text()
    assert "(I) HOLDS" in text
    assert "(II) FALSIFIED" in text
    assert "(I-A) FAILS" in text
    assert "verdict: PASS" in text


def test_counterexample_residual_tables():
    bundle = run_scenario("counterexample")
    table = bundle.tables["residuals_I"]
    assert table.columns == ("t", "residual", "verdict")
    assert all(row[1] <= 1e-8 for row in table.rows)
    table_ii = bundle.tables["residuals_II"]
    assert any(row[1] >= 0.99 for row in table_ii.rows)


def test_counterexample_margin_guard():
    with pytest.raises(DomainError, match="margin"):
        run_scenario("counterexample", ScenarioSpec(name="counterexample", x_max=5.0))


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
def test_a_scenario_takes_only_keyword_only_spec_fields(name):
    # its parameters are its READS entry, so its body cannot read a field the
    # CLI rejects, and run_scenario passes every value from the spec
    params = inspect.signature(SCENARIOS[name]).parameters.values()
    assert params
    assert all(p.kind is inspect.Parameter.KEYWORD_ONLY and p.default is p.empty
               for p in params)
    assert {p.name for p in params} <= {f.name for f in fields(ScenarioSpec)} - {"name"}


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
    """Whether a margin check rejects the spec, or series-validity's Gaussian time budget,
    rabi-control's Zeno window or a Gaussian resolution window."""
    try:
        run_scenario(name, ScenarioSpec(name=name, **overrides))
    except DomainError as exc:
        return any(reason in str(exc) for reason in (
            "margin violation", "is too long for sigma", "outside the Zeno window",
            "is too small for the grid step"))
    except PreconditionError:
        pass
    return False


@pytest.mark.parametrize("name, field_name, edge, inward, extra", [
    ("counterexample", "x_min", -22.0, math.inf, {}),       # -8 - 8 sigma - 6
    ("counterexample", "x_max", 36.0, -math.inf, {}),       # window 30 + 6
    ("counterexample", "x_max", 38.0, -math.inf, {"sigma": 2.5}),  # 12 + 8 sigma + 6
    ("hm-invariance", "x_min", -16.0, math.inf, {}),        # center - 8 sigma
    ("hm-invariance", "x_max", 2.0, -math.inf, {}),         # t
    # |t| * k_max <= ln(1e-10 / 1e-16) on the Gaussian grid, k_max = 6 / sigma
    ("series-validity", "time", 2.3025850929940455, math.inf, {}),
    # below it a roundoff of 4 (N + 1) eps per closed-form deficit could move the
    # slope over N = 8..128 out of ZENO_SLOPE_TOL of -1
    ("rabi-control", "time", 7.118390589914249e-06, -math.inf, {}),
    # sigma (k_max - |k0|) >= sqrt(ln(1e8) / 2) at k_max = pi / dx = 160.85: the
    # gaussian(12,k2) trial state sets counterexample's edge, k0 = 0 hm-invariance's
    ("counterexample", "sigma", 0.019105212296816367, -math.inf, {}),
    ("hm-invariance", "sigma", 0.01886765847057743, -math.inf, {}),
])
def test_margin_edges_are_exact(name, field_name, edge, inward, extra):
    assert not _margin_rejects(name, **extra, **{field_name: edge})
    past = math.nextafter(edge, inward)
    assert _margin_rejects(name, **extra, **{field_name: past})


@pytest.mark.parametrize("side", ["below", "at"])
def test_hm_invariance_rejects_a_tolerance_below_eps_before_any_state(side, monkeypatch):
    """delta s is the difference of two survivals in [0, 1], each a rounded sum, so a
    tolerance below float64's eps exits 2, naming both, before any state is built; eps
    itself is accepted (its run may then fail spectral_invariance)."""
    eps = np.finfo(float).eps
    tolerance = math.nextafter(eps, 0.0) if side == "below" else eps
    built = []
    build = scenarios.make_gaussian
    monkeypatch.setattr(scenarios, "make_gaussian",
                        lambda *args, **kw: built.append(1) or build(*args, **kw))
    spec = ScenarioSpec(name="hm-invariance", grid_points=256, tolerance_invariance=tolerance)
    if side == "below":
        with pytest.raises(DomainError, match=f"tolerance_invariance {tolerance:g} is below "
                                              f"float64 eps {eps:.6g}"):
            run_scenario("hm-invariance", spec)
        assert built == []
    else:
        run_scenario("hm-invariance", spec)
        assert built == [1]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the reference needs a long double wider than float64")
@pytest.mark.parametrize("n_points", [2**12, 2**16])
def test_free_leakage_is_the_wave_mass_to_a_few_eps(n_points):
    """hm-invariance's leakage_free_spectral is the wave-zone mass of the freely evolved
    prepared state: within 8 eps, relative, of that state's wave-zone sum of squares in
    long double (4e-16 and 8e-16 measured at 2^12 and 2^16).  1 - the core mass, as
    reports read it before, keeps only 7 to 8 digits of this mass of about 1e-9."""
    spec = ScenarioSpec(name="hm-invariance", grid_points=n_points)
    metric = run_scenario("hm-invariance", spec).metrics["leakage_free_spectral"]
    grid = Grid(spec.x_min, spec.x_max, n_points)
    p_core, p_wave = halfline_pair(grid)
    e = core_zone_state(p_core, make_gaussian(grid, spec.center, spec.sigma))
    values = Propagator(momentum_operator(grid)).evolve(e, 2.0).values
    wave = values[p_wave.start:].astype(np.longdouble)
    exact = float(np.sum(wave * wave) * np.longdouble(grid.dx))
    eps = np.finfo(float).eps
    assert abs(metric - exact) <= 8 * eps * exact
    assert abs(1.0 - p_core._mass(values) - exact) > 1e3 * eps * exact


@pytest.mark.parametrize("overrides, reason", [
    ({"grid_points": 65536, "n_measurements": 60, "time": 0.05},
     "cannot place 60 distinct measurement steps inside 41 steps"),
    ({"time": 0.005}, "final time is below one grid step"),
    # eight N-long curve schedules would take seconds and hundreds of MiB
    ({"n_measurements": 2_000_000},
     "cannot place 2000000 distinct measurement steps inside 102 steps"),
])
def test_hm_invariance_rejects_its_schedules_before_any_transform(overrides, reason,
                                                                   monkeypatch):
    calls, schedules = [], []
    transform = Propagator.transform
    post_init = MeasurementSchedule.__post_init__

    def counting_transform(self, psi):
        calls.append(psi)
        return transform(self, psi)

    def counting_post_init(self):
        schedules.append(self)
        post_init(self)

    monkeypatch.setattr(Propagator, "transform", counting_transform)
    monkeypatch.setattr(MeasurementSchedule, "__post_init__", counting_post_init)
    with pytest.raises(DomainError, match=reason):
        run_scenario("hm-invariance", ScenarioSpec(name="hm-invariance", **overrides))
    assert calls == []
    # the shift lattice is checked before any schedule is built
    assert schedules == []


# ----------------------------------------------------------------------
# Flags
# ----------------------------------------------------------------------

@pytest.mark.parametrize("relation, passed", [
    ("<=", True), ("<", False), (">=", True), (">", False), ("==", True),
])
def test_make_flag_relations_at_equal_values(relation, passed):
    # a value on its threshold passes exactly the non-strict relations
    flag = make_flag("edge", 1e-10, relation, 1e-10)
    assert flag.passed is passed
    assert (flag.value, flag.relation, flag.threshold) == (1e-10, relation, 1e-10)


# ----------------------------------------------------------------------
# hm-invariance: measurements leave survival unchanged
# ----------------------------------------------------------------------

@pytest.mark.parametrize("total, n, marks", [
    (10, 2, (3, 7)),            # 10/3 and 20/3 round up and down
    (20, 5, (3, 7, 10, 13, 17)),
    (7, 1, (4,)),               # 3.5 rounds half to even
])
def test_shift_schedule_rounds_its_marks(total, n, marks):
    schedule = _shift_schedule(total, 0.5, n)
    assert schedule.t_final == total * 0.5
    assert schedule.times == tuple(m * 0.5 for m in marks)


def test_hm_invariance_deltas():
    bundle = run_scenario("hm-invariance")
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
    bundle = run_scenario("hm-invariance")
    table = bundle.tables["survival_spectral"]
    assert table.columns == ("t", "s_free", "s_measured", "N")
    first = table.rows[0]
    assert first[0] == 0.0
    assert first[1] == 1.0
    assert first[2] == 1.0
    assert first[3] == 5


def test_hm_invariance_respects_n_override():
    bundle = run_scenario("hm-invariance",
                          ScenarioSpec(name="hm-invariance", n_measurements=13))
    assert bundle.passed
    assert bundle.provenance["parameters"]["n_measurements"] == 13


def test_hm_invariance_rejects_wave_zone_preparation():
    with pytest.raises(DomainError, match="core zone"):
        run_scenario("hm-invariance", ScenarioSpec(name="hm-invariance", center=3.0))


@pytest.mark.parametrize("name, n_points", [("counterexample", 256), ("counterexample", 512),
                                             ("hm-invariance", 256), ("hm-invariance", 512)])
def test_a_dense_twin_without_ffts_gives_the_grid_scenarios_verdicts(name, n_points,
                                                                    monkeypatch):
    """Both grid scenarios rerun with `momentum_operator` swapped for a dense twin, P
    diagonalized by eigh on the matrix-basis path, which shares no FFT, bin order, scaling,
    lattice table or mirror with the FFT basis.  Every flag passes or fails alike,
    counterexample's `cond_I_holds` failure at 256 points included, and every finite float
    metric and flag value agrees within a bound from the two paths' errors.

    Bound, with p(n) = n for every n-term step (the modest growth that LAPACK's
    eigensolver error bounds assume): building P and eigh leave the exact eigensystem of
    P + E, ||E|| <= 2 n eps ||P|| with ||P|| = pi / dx, which moves a state evolved for a
    total time t by at most t ||E||, and each segment's two products with V add n eps
    each.  The FFT path errs by 16 eps log2(n) per segment (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., Thm. 24.2, as in test_subspaces' lattice test).
    Each metric is a squared overlap, mass or norm of unit states, moved by at most
    2 delta + delta^2, or a difference of two such.  The worst gaps measured are 3e-16 to
    5e-15, against bounds of 1.3e-11 to 1.1e-10."""
    spec = ScenarioSpec(name=name, grid_points=n_points)
    fft = run_scenario(name, spec)
    monkeypatch.setattr(scenarios, "momentum_operator", dense_momentum_twin)
    twin = run_scenario(name, spec)
    assert [(f.name, f.passed) for f in twin.flags] == [(f.name, f.passed) for f in fft.flags]
    eps = np.finfo(float).eps
    norm_p = math.pi / ((spec.x_max - spec.x_min) / n_points)
    # counterexample evolves each state once, up to |t| = 6; hm-invariance runs N + 1
    # segments over t
    t, segments = ((max(scenarios.T_SWEEP), 1) if name == "counterexample"
                   else (fft.metrics["t"], spec.n_measurements + 1))
    delta = (2 * t * n_points * norm_p
             + segments * (2 * n_points + 16 * math.log2(n_points))) * eps
    bound = 2 * (2 * delta + delta**2)
    pairs = [(f.name, f.value, g.value) for f, g in zip(fft.flags, twin.flags)]
    pairs += [(key, value, twin.metrics[key]) for key, value in fft.metrics.items()
              if isinstance(value, float)]
    for key, a, b in pairs:
        if math.isfinite(a):
            assert abs(a - b) <= bound, key


# ----------------------------------------------------------------------
# rabi-control: the positive control where measurement matters
# ----------------------------------------------------------------------

def test_rabi_control_quarter_and_slope():
    bundle = run_scenario("rabi-control")
    assert abs(bundle.metrics["s_single_measurement"] - 0.25) <= 1e-10
    assert abs(bundle.metrics["zeno_slope"] - (-1.0)) <= 0.15
    assert bundle.metrics["chain_vs_closed_form"] <= 1e-12


def test_rabi_control_window_at_subnormal_deficits_names_an_unbounded_blur():
    # at omega * t = 4.5e-160 every closed-form deficit is subnormal, below its own
    # roundoff, so none bounds a slope; a fit of their quantized values would read -0.849
    with pytest.raises(DomainError, match="could move the slope over N = 8..128 by inf"):
        run_scenario("rabi-control", ScenarioSpec(name="rabi-control", time=4.5e-160))


def test_rabi_control_table_matches_matrix_oracle():
    bundle = run_scenario("rabi-control")
    t = bundle.metrics["t"]
    for row in bundle.tables["survival_zeno"].rows:
        _, _, s_measured, n = row
        assert abs(s_measured - rabi_chain_survival(1.0, t, int(n))) <= 1e-12


# ----------------------------------------------------------------------
# series-validity: who may use the power series
# ----------------------------------------------------------------------

def test_series_validity_gaussian_floor():
    bundle = run_scenario("series-validity")
    assert bundle.metrics["gaussian_error_n40"] < 1e-10
    assert bundle.metrics["gaussian_classification"] == "entire-like"
    assert bundle.metrics["gaussian_tail_growth"] >= 1.1


def test_series_validity_bump_divergence_trend():
    bundle = run_scenario("series-validity")
    assert bundle.metrics["bump_peak_fine"] > bundle.metrics["bump_peak_coarse"]
    assert bundle.metrics["bump_classification_fine"] == "saturated-by-grid"
    assert bundle.metrics["bump_classification_coarse"] == "saturated-by-grid"
    for key in ("bump_plateau_fraction_fine", "bump_plateau_fraction_coarse"):
        assert 0.5 <= bundle.metrics[key] <= 2.0
    assert bundle.metrics["eigenvector_error"] <= 1e-12


def test_series_validity_rejects_a_time_below_roundoff_before_any_state(monkeypatch):
    # |t| * k_max at or below float64 eps: U(t) is the identity to rounding,
    # so no series error can grow and the resolution trend cannot be judged.
    # k_max is the derived fine grid's, 4 x 1024 points at such times
    k_max = math.pi / (80.0 / 4096)
    edge = np.finfo(float).eps / k_max
    built = []
    for factory in ("make_gaussian", "make_bump", "make_plane_wave"):
        monkeypatch.setattr(scenarios, factory, lambda *a, **k: built.append(a))
    for t in (0.0, 1e-300, -edge, edge):
        with pytest.raises(DomainError, match=r"time .* is too short: \|t\| \* k_max"):
            run_scenario("series-validity", ScenarioSpec(name="series-validity", time=t))
    assert built == []
    monkeypatch.undo()
    just_above = math.nextafter(edge, 1.0)
    assert run_scenario("series-validity",
                        ScenarioSpec(name="series-validity", time=just_above)).passed


@pytest.mark.parametrize("overrides, fine, coarse, small", [
    # |t| * k_max on the coarse grid is at most ln(1e12) = 27.6: 20.1 by default
    # (40.2 on 1024 points); on the plane wave's grid at most 11.3: 10.1 by default
    ({}, 2048, 512, 256),
    ({"time": 0.1}, 4096, 1024, 256),                  # both at their caps
    ({"time": -1.0}, 2048, 512, 256),
    ({"time": 2.3}, 1024, 256, 64),                     # 23.1 and 5.8 (11.6 on 128)
    ({"x_min": -20.0, "x_max": 20.0}, 1024, 256, 128),  # 20.1 and 10.1
    # the bump and plane-wave grids read neither sigma nor grid_points
    ({"sigma": 0.8, "grid_points": 64}, 2048, 512, 256),
])
def test_series_validity_derives_its_grids_from_its_budgets(overrides, fine, coarse, small,
                                                            monkeypatch):
    planes = []
    make_plane_wave = scenarios.make_plane_wave
    monkeypatch.setattr(scenarios, "make_plane_wave",
                        lambda grid, mode: planes.append(grid) or make_plane_wave(grid, mode))
    bundle = run_scenario("series-validity", ScenarioSpec(name="series-validity", **overrides))
    assert bundle.passed
    assert bundle.provenance["resolutions"] == [fine, coarse]
    assert [grid.n_points for grid in planes] == [small]
    # the Gaussian's 1024 points hold k_max * sigma at 6 whatever the spec
    assert {row[2] for row in bundle.tables["series_gaussian"].rows} == {"1024"}


def test_series_validity_gaussian_table_entry():
    bundle = run_scenario("series-validity")
    table = bundle.tables["series_gaussian"]
    assert table.columns == ("n_terms", "error", "resolution")
    late = {int(row[0]): row[1] for row in table.rows if int(row[0]) >= 30}
    assert late and all(err < 1e-10 for err in late.values())


# ----------------------------------------------------------------------
# Bundle plumbing
# ----------------------------------------------------------------------

def test_bundle_payload_is_json_round_trippable():
    bundle = run_scenario("counterexample")
    payload = json.loads(bundle.to_json_bytes())
    assert payload["scenario"] == "counterexample"
    assert payload["provenance"]["parameters"]["seed"] == 1234
    names = {f["name"] for f in payload["flags"]}
    assert "cond_II_falsified" in names


SERIALIZED = [
    (float("nan"), "'nan'"),
    (float("inf"), "'inf'"),
    (-float("inf"), "'-inf'"),
    (0.1, "0.1"),
    (-0.0, "-0.0"),
    (np.float64(0.1), "0.1"),
    (np.float64("nan"), "'nan'"),
    (True, "True"),
    (np.bool_(False), "False"),
    (3, "3"),
    (np.int64(-7), "-7"),
    ("a,b", "'a,b'"),
    (None, "None"),
    ((1.0, [2, {"k": (float("nan"),)}]), "[1.0, [2, {'k': ['nan']}]]"),
    ({1: 2.5}, "{'1': 2.5}"),
    (scenarios.FlagRecord("f", True, 0.5, "<=", 1.0),
     "{'name': 'f', 'passed': True, 'value': 0.5, 'relation': '<=', 'threshold': 1.0}"),
]


@pytest.mark.parametrize("value, expected", SERIALIZED, ids=lambda v: repr(v)[:40])
def test_json_safe_pins_each_type(value, expected):
    # repr pins the type too: np.float64(0.1) and 0.1 compare equal
    assert repr(scenarios._json_safe(value)) == expected
    assert repr(scenarios._json_safe(value)) == expected  # a cached dataclass type too


#: the dataclasses a bundle is built from; `_json_safe` sees no other
BUNDLE_TYPES = (scenarios.VerdictBundle, scenarios.FlagRecord, scenarios.CurveTable,
                ConditionReport, ConditionSample)


def _walk(value):
    """Every value inside `value`, as `_json_safe` descends into it."""
    yield value
    if type(value) in BUNDLE_TYPES:
        children = [getattr(value, f.name) for f in fields(value)]
    elif type(value) is dict:
        children = [*value, *value.values()]
    elif type(value) in (tuple, list):
        children = value
    else:
        children = ()
    for child in children:
        yield from _walk(child)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_bundles_carry_only_exact_plain_types(name):
    # the one exact-type path in `_json_safe` and `cli._format_cell` is sized
    # on this traffic: no numpy scalar and no subclass of a builtin
    bundle = run_scenario(name)
    plain = (float, int, str, bool, type(None), tuple, list, dict, *BUNDLE_TYPES)
    kinds = {type(v) for v in _walk(bundle)}
    assert kinds <= set(plain), kinds - set(plain)
    cells = {type(v) for table in bundle.tables.values() for row in table.rows for v in row}
    assert cells <= {float, int, str}, cells


class _Pair(NamedTuple):
    a: float
    b: float


class _Level(enum.IntEnum):
    LOW = 1


@dataclass
class _Point:
    x: float = 1.0


@pytest.mark.parametrize("metric, kind", [
    (_Pair(1.0, 2.0), "_Pair"),
    (_Level.LOW, "_Level"),
    (collections.OrderedDict(a=1.0), "OrderedDict"),
    (np.longdouble(1.5), "longdouble"),  # `.item()` keeps it a numpy scalar
    # a dataclass outside the five bundle classes, and a dataclass class
    (SurvivalReport(1.0, 0, 1.0, 1.0, 1.0), "SurvivalReport"),
    (_Point, "type"),
])
def test_json_rejects_a_type_it_does_not_dispatch(metric, kind):
    bundle = scenarios.VerdictBundle("custom", (), metrics={"m": metric})
    with pytest.raises(DomainError, match=f"cannot serialize value of type {kind}$"):
        bundle.to_json_bytes()


def test_spec_replace_round_trip():
    spec = ScenarioSpec(name="counterexample")
    assert replace(spec, sigma=2.0).sigma == 2.0
    assert replace(spec, sigma=2.0).name == "counterexample"
