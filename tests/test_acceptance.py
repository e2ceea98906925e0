"""Acceptance gate: every shipped guarantee, one printed pass/fail line each.

pytest captures stdout on success; run `pytest tests/test_acceptance.py -v -s`
to see all eight lines either way.  Each test is self-contained and checks
one guarantee at its stated tolerance against an independent oracle.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from oracles import normal_cdf, nyquist_part, rabi_chain_survival, stone_residuals
from zenolab import (
    Grid,
    MeasurementSchedule,
    Propagator,
    ShiftPropagator,
    deficit_slope,
    inner_product,
    make_gaussian,
    make_plane_wave,
    momentum_operator,
    run_scenario,
    survival_report,
)
from zenolab.cli import main
from zenolab.statespace import WaveFunction
from conftest import rabi_system, random_state


def _gate(label: str, checks: dict[str, bool], detail: str = "") -> None:
    failed = [name for name, ok in checks.items() if not ok]
    status = "PASS" if not failed else "FAIL"
    line = f"[{status}] {label}"
    if detail:
        line += f" ({detail})"
    if failed:
        line += " -- failed: " + "; ".join(failed)
    print(line)
    assert not failed, line


# ----------------------------------------------------------------------
# 1. one-way invariance counterexample, end to end through the CLI
# ----------------------------------------------------------------------

def test_acceptance_1_counterexample_cli(tmp_path):
    start = time.perf_counter()
    code = main(["run", "counterexample", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    payload = json.loads((tmp_path / "counterexample" / "bundle.json").read_bytes())
    m = payload["metrics"]
    _gate(
        "acceptance 1: translation counterexample (CLI run)",
        {
            "exit status 0": code == 0,
            "condition (I) residual <= 1e-8 on the forward sweep":
                m["max_residual_I"] <= 1e-8,
            "wave-zone leakage at t=6 >= 0.99": m["leakage_t6"] >= 0.99,
            "leakage matches Phi(3) within 1e-3":
                abs(m["leakage_t6"] - normal_cdf(3.0)) <= 1e-3,
            "two-sided variant fails backward, mass >= 0.99":
                m["ia_backward_mass"] >= 0.99,
            "runtime under 5 s": elapsed < 5.0,
        },
        detail=f"{elapsed:.2f}s",
    )


# ----------------------------------------------------------------------
# 2. measurement invariance of survival for core-zone states
# ----------------------------------------------------------------------

def test_acceptance_2_measurement_invariance(grid, translator, zone_pair, core_state):
    start = time.perf_counter()
    p_core, _ = zone_pair
    rng = np.random.default_rng(20260814)
    t_spec = 2.0
    n_steps = 102
    t_shift = n_steps * grid.dx
    shifter = ShiftPropagator(grid)

    worst_spectral = 0.0
    worst_shift = 0.0
    worst_free = 0.0
    for n in (1, 2, 5, 13):
        # arbitrary strictly ordered instants, not just equally spaced ones
        times = np.sort(rng.uniform(0.02 * t_spec, 0.98 * t_spec, size=n))
        assert np.all(np.diff(times) > 0.0)
        rep = survival_report(translator, p_core, core_state,
                              [MeasurementSchedule(t_spec, tuple(times))])[0]
        worst_spectral = max(worst_spectral, abs(rep.delta))
        worst_free = max(worst_free, abs(rep.s_free - math.exp(-t_spec ** 2 / 4.0)))

        marks = np.sort(rng.choice(np.arange(1, n_steps), size=n, replace=False))
        rep = survival_report(shifter, p_core, core_state,
                              [MeasurementSchedule(t_shift, tuple(marks * grid.dx))])[0]
        worst_shift = max(worst_shift, abs(rep.delta))
        worst_free = max(worst_free, abs(rep.s_free - math.exp(-t_shift ** 2 / 4.0)))
    elapsed = time.perf_counter() - start
    _gate(
        "acceptance 2: survival unchanged by core-zone measurements",
        {
            "spectral path |delta s| <= 1e-8": worst_spectral <= 1e-8,
            "exact-shift path |delta s| <= 1e-12": worst_shift <= 1e-12,
            "free survival matches exp(-t^2/(4 sigma^2)) within 1e-6":
                worst_free <= 1e-6,
            "runtime under 10 s": elapsed < 10.0,
        },
        detail=f"spectral {worst_spectral:.2e}, shift {worst_shift:.2e}, "
               f"{elapsed:.2f}s",
    )


# ----------------------------------------------------------------------
# 3. Rabi control: measurements do change survival off the core zone
# ----------------------------------------------------------------------

def test_acceptance_3_rabi_control():
    start = time.perf_counter()
    _, u, e, (p_core, _) = rabi_system()
    t = math.pi / 2.0

    s_single = survival_report(u, p_core, e, [MeasurementSchedule.equally_spaced(t, 1)])[0].s_measured
    counts = (8, 16, 32, 64, 128)
    reports = [survival_report(u, p_core, e, [MeasurementSchedule.equally_spaced(t, n)])[0]
               for n in counts]
    slope = deficit_slope(tuple((r.n_measurements, r.s_measured) for r in reports))
    oracle_single = rabi_chain_survival(1.0, t, 1)
    elapsed = time.perf_counter() - start
    _gate(
        "acceptance 3: Rabi single measurement and Zeno 1/N deficit",
        {
            "one measurement at t=pi/2 gives 0.25 within 1e-10":
                abs(s_single - 0.25) <= 1e-10,
            "matrix-product oracle agrees": abs(s_single - oracle_single) <= 1e-12,
            "deficit slope is -1 within 15%": abs(slope - (-1.0)) <= 0.15,
            "runtime under 2 s": elapsed < 2.0,
        },
        detail=f"s={s_single:.12f}, slope={slope:.4f}, {elapsed:.2f}s",
    )


# ----------------------------------------------------------------------
# 4. propagator laws on random states
# ----------------------------------------------------------------------

def test_acceptance_4_propagator_laws():
    g = Grid(-40.0, 40.0, 1024)
    u = Propagator(momentum_operator(g))
    shifter = ShiftPropagator(g)
    rng = np.random.default_rng(813)
    worst_unitary = worst_group = worst_identity = worst_match = 0.0
    n_states = 128
    for i in range(n_states):
        psi = random_state(g, 9000 + i)
        t, s = rng.uniform(-3.0, 3.0, size=2)
        worst_unitary = max(worst_unitary, abs(u.evolve(psi, t).norm() - 1.0))
        composed = u.evolve(u.evolve(psi, s), t)
        group_gap = composed.values - u.evolve(psi, t + s).values
        worst_group = max(worst_group, WaveFunction(g, group_gap).norm())
        identity_gap = u.evolve(psi, 0.0).values - psi.values
        worst_identity = max(worst_identity, WaveFunction(g, identity_gap).norm())
        m = int(rng.integers(-512, 513))
        t_m = m * g.dx
        # the Nyquist part, whose eigenvalue is 0, stays where the shift gives it (-1)^m
        kept = (1 - (-1) ** m) * nyquist_part(psi.values)
        gap = np.max(np.abs(u.evolve(psi, t_m).values - shifter.evolve(psi, t_m).values - kept))
        worst_match = max(worst_match, float(gap))
    _gate(
        "acceptance 4: unitary group laws on random states",
        {
            f"unitarity within 1e-12 over {n_states} states": worst_unitary <= 1e-12,
            "group law within 1e-11": worst_group <= 1e-11,
            "U(0) is the identity within 1e-14": worst_identity <= 1e-14,
            "spectral matches exact shift pointwise within 1e-10, the Nyquist part aside":
                worst_match <= 1e-10,
        },
        detail=f"unitary {worst_unitary:.2e}, group {worst_group:.2e}, "
               f"match {worst_match:.2e}",
    )


# ----------------------------------------------------------------------
# 5. generator limit: Stone residuals
# ----------------------------------------------------------------------

def test_acceptance_5_generator_limit(grid, momentum):
    g = make_gaussian(grid, 0.0, 1.0)
    ts = [1e-2 * 2.0 ** (-j) for j in range(10)]
    residuals = stone_residuals(momentum, g, ts)
    final = [(t, r) for t, r in zip(ts, residuals) if t <= 10.0 * ts[-1]]
    slope = float(np.polyfit(np.log([p[0] for p in final]),
                             np.log([p[1] for p in final]), 1)[0])

    pw = make_plane_wave(grid, 7)
    lam = float(momentum.eigenvalues[7])
    pw_ts = [0.1, 0.05, 0.025]
    pw_res = stone_residuals(momentum, pw, pw_ts)
    scalar = [abs(1j * (np.exp(-1j * lam * t) - 1.0) / t - lam) for t in pw_ts]
    pw_gap = float(np.max(np.abs(pw_res - np.array(scalar))))
    _gate(
        "acceptance 5: derivative at t->0+ recovers the generator",
        {
            "Gaussian residual slope 1 within 0.1 on the final decade":
                abs(slope - 1.0) <= 0.1,
            "eigenvector residual matches the scalar formula within 1e-12":
                pw_gap <= 1e-12,
        },
        detail=f"slope {slope:.4f}, eigenvector gap {pw_gap:.2e}",
    )


# ----------------------------------------------------------------------
# 6. series validity across resolutions
# ----------------------------------------------------------------------

def test_acceptance_6_series_validity():
    bundle = run_scenario("series-validity")
    flags = {f.name: f.passed for f in bundle.flags}
    m = bundle.metrics
    fine_fraction = m["bump_plateau_fraction_fine"]
    coarse_fraction = m["bump_plateau_fraction_coarse"]
    _gate(
        "acceptance 6: exponential series validity and its grid ceiling",
        {
            "Gaussian series error < 1e-10 by n=40 at t=1":
                flags["gaussian_series_n40"] and m["gaussian_error_n40"] < 1e-10,
            "bump peak error strictly larger on the finer grid":
                flags["bump_peak_grows_with_resolution"],
            "bump classified saturated-by-grid at both resolutions":
                m["bump_classification_fine"] == "saturated-by-grid"
                and m["bump_classification_coarse"] == "saturated-by-grid",
            "plateau tracks the spectral cutoff within a factor 2":
                flags["bump_tracks_cutoff"]
                and 0.5 <= fine_fraction <= 2.0
                and 0.5 <= coarse_fraction <= 2.0,
        },
        detail=f"n40 error {m['gaussian_error_n40']:.2e}, "
               f"plateau/cutoff {coarse_fraction:.2f} -> {fine_fraction:.2f}",
    )


# ----------------------------------------------------------------------
# 7. zone projector algebra on random states
# ----------------------------------------------------------------------

def test_acceptance_7_projector_algebra(grid, zone_pair):
    p_core, p_wave = zone_pair
    worst_idem = worst_herm = worst_pyth = 0.0
    exact_complement = True
    n_states = 128
    for i in range(n_states):
        psi = random_state(grid, 31000 + i)
        phi = random_state(grid, 64000 + i)
        once = p_core.apply(psi)
        worst_idem = max(worst_idem,
                         WaveFunction(grid, p_core.apply(once).values - once.values).norm())
        herm = abs(inner_product(phi, p_core.apply(psi))
                   - inner_product(p_core.apply(phi), psi))
        worst_herm = max(worst_herm, herm)
        exact_complement = exact_complement and np.array_equal(
            p_core.apply(psi).values + p_wave.apply(psi).values, psi.values)
        pyth = abs(p_core.mass(psi) + p_wave.mass(psi) - psi.norm_sq())
        worst_pyth = max(worst_pyth, pyth)
    _gate(
        "acceptance 7: zone projector algebra on random states",
        {
            f"idempotence within 1e-13 over {n_states} states": worst_idem <= 1e-13,
            "Hermiticity within 1e-12": worst_herm <= 1e-12,
            "complement reconstructs the state exactly": exact_complement,
            "zone masses are Pythagorean within 1e-12": worst_pyth <= 1e-12,
        },
        detail=f"idem {worst_idem:.2e}, herm {worst_herm:.2e}, pyth {worst_pyth:.2e}",
    )


# ----------------------------------------------------------------------
# 8. determinism: identical config and seed, byte-identical outputs
# ----------------------------------------------------------------------

def test_acceptance_8_deterministic_outputs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 777\nsigma = 1.0\n", encoding="utf-8")
    for sub in ("first", "second"):
        code = main(["run", "counterexample", "--config", str(cfg),
                     "--out", str(tmp_path / sub)])
        assert code == 0
    first_dir = tmp_path / "first" / "counterexample"
    second_dir = tmp_path / "second" / "counterexample"
    names = sorted(p.name for p in first_dir.iterdir())
    identical = all(
        (first_dir / name).read_bytes() == (second_dir / name).read_bytes()
        for name in names
    )
    _gate(
        "acceptance 8: reruns with one config and seed are byte-identical",
        {
            "same file set": names == sorted(p.name for p in second_dir.iterdir()),
            "every emitted file matches byte for byte": identical,
        },
        detail=", ".join(names),
    )
