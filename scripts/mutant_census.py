"""Mutant census: does its named tier-1 test catch each one-line fault?

The golden test and the spec corpus catch almost any change to a default
run's bytes, so a change that regenerates those bytes on purpose would
also hide a real fault in the same code.  This script applies each mutant
below to its own copy of `src/`, `tests/`, `benchmarks/`, `scripts/` (which
tier-1 loads) and the README and runs there first the mutant's killer, the
tier-1 test written to catch it.  Only when the killer misses the mutant
does the copy run the whole of tier-1 with `-x`, without
`tests/test_golden.py`, `tests/test_spec_corpus.py` and
`tests/test_mutant_census.py` (which checks this script's mutant texts
against the source, so it would fail on every mutant).  A run kills the
mutant only when pytest exits 1 and names a failed or errored test; any
other exit (an import error, a collection error, an internal error) is an
ERROR, not a kill.

Run from anywhere (one pass takes a few minutes, one pytest at a time):

    python scripts/mutant_census.py

It first runs tier-1 on an unmutated copy and exits 2, naming the failing
test, if that fails: otherwise every mutant would read as killed.  Then it
prints one line per mutant: `killed` with its killer; `MISMATCH` with the
first failing test of the full run when only that run killed it, so the
table names the wrong killer; `SURVIVED`; or `ERROR` with pytest's last
line.  It exits 2 when any mutant ends in an ERROR, else 1 when any mutant
survives or is a mismatch.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: (name, file, text, replacement, killer); the text must occur exactly once, and
#: the killer is the tier-1 test written to catch the mutant, as pytest names it
MUTANTS = (
    ("make_flag takes < as <=", "scenarios.py", '"<": v < thr,', '"<": v <= thr,',
     "tests/test_scenarios.py::test_make_flag_relations_at_equal_values[<-False]"),
    ("coarse plateau band ignored", "analytic.py",
     "        and lo <= coarse.plateau_fraction <= hi\n", "",
     "tests/test_analytic.py::test_compare_resolutions_needs_both_plateaus_in_band["
     "0.9-0.49-False]"),
    ("shift marks floored", "scenarios.py",
     "round(k * total_steps / (n + 1))", "int(k * total_steps / (n + 1))",
     "tests/test_scenarios.py::test_shift_schedule_rounds_its_marks[10-2-marks0]"),
    ("ENTIRE_GROWTH 1.05", "analytic.py", "ENTIRE_GROWTH = 1.1", "ENTIRE_GROWTH = 1.05",
     "tests/test_analytic.py::test_classification_splits_at_a_rho_growth_of_1_1["
     "1.099-finite-radius-like]"),
    ("series terms without 1/n", "operators.py", "(-1j * t / n)", "(-1j * t)",
     "tests/test_acceptance.py::test_acceptance_6_series_validity"),
    ("divergence bound only non-finite", "operators.py",
     "if not tn <= DIVERGENCE_FACTOR * c_norm:", "if not math.isfinite(tn):",
     "tests/test_analytic.py::test_curve_checkpoints_match_individual_runs"),
    ("curve error against U(t) c", "analytic.py",
     "d = u.step(t) * c - c", "d = u.step(t) * c",
     "tests/test_acceptance.py::test_acceptance_6_series_validity"),
    ("eigenvector reference with +1j", "scenarios.py",
     "scalar = sum((-1j * k_mode * t) ** j", "scalar = sum((1j * k_mode * t) ** j",
     "tests/test_cli.py::test_series_validity_accepts_a_negative_time"),
    ("series time bound off", "scenarios.py",
     "if abs(t) * k_max <= np.finfo(float).eps:", "if False:",
     "tests/test_cli.py::test_invalid_seed_or_tolerance_exits_2[series-validity-flags23-time 1 "
     "is too short: |t| * k_max = 6.43e-304 (k_max = 6.43398e-304)]"),
    ("gaussian time budget off", "scenarios.py",
     "if abs(t) * math.pi / wide.dx > math.log(gaussian_tol / CUTOFF_ROUNDOFF):", "if False:",
     "tests/test_cli.py::test_invalid_seed_or_tolerance_exits_2[series-validity-flags13-time 1 "
     "is too long for sigma 1e-300 (k_max = 6e+300): |t| * k_max exceeds ln(1e6)]"),
    ("coarse bump budget doubled", "scenarios.py",
     "lambda tk: tk <= math.log(DIVERGENCE_FACTOR)",
     "lambda tk: tk <= 2 * math.log(DIVERGENCE_FACTOR)",
     "tests/test_scenarios.py::test_series_validity_derives_its_grids_from_its_budgets["
     "overrides0-2048-512-256]"),
    ("eigenvector budget against 1", "scenarios.py",
     "<= math.log(eigen_tol / CUTOFF_ROUNDOFF)", "<= math.log(1.0 / CUTOFF_ROUNDOFF)",
     "tests/test_cli.py::test_invalid_seed_or_tolerance_exits_2[series-validity-flags40-time 30 "
     "is too long for the eigenvector branch: no grid of 16 or more points on [-40, 40] keeps "
     "|t| * k_max in its budget]"),
    ("step keeps the conjugate's -0.0", "operators.py", "            mirror.imag += 0.0\n", "",
     "tests/test_propagation_reuse.py::test_step_matches_whole_spectrum_exp_bit_for_bit[4096]"),
    ("hn_norms ceiling cap off", "analytic.py",
     "if at_ceiling >= CEILING_WINDOW and n < n_max:", "if False:",
     "tests/test_analytic.py::test_hn_ceiling_cap_stops_noise_riding"),
    ("clip leaves one sample", "subspaces.py",
     "values[..., self.stop:] = 0.0", "values[..., self.stop + 1:] = 0.0",
     "tests/test_acceptance.py::test_acceptance_3_rabi_control"),
    ("zone guard ten times looser", "subspaces.py", "if off > tol:", "if off > 10 * tol:",
     "tests/test_zeno.py::test_real_wave_zone_mass_is_still_rejected"),
    ("chain's later steps doubled", "zeno.py", "_clip(values), step(dts), kit",
     "_clip(values), step([2 * dt for dt in dts]), kit",
     "tests/test_acceptance.py::test_acceptance_2_measurement_invariance"),
    ("hn_norms applies 2 H", "analytic.py", "np.multiply(h.eigenvalues, v, out=v)",
     "np.multiply(2 * h.eigenvalues, v, out=v)",
     "tests/test_analytic.py::test_hn_eigenvector_ratios_are_the_eigenvalue"),
    ("hn_norms weights its norm by sqrt(dx)", "analytic.py", "r = float(_norm(v))",
     "r = float(_norm(v) * math.sqrt(psi.space.dx))",
     "tests/test_analytic.py::test_hn_plane_wave_norms"),
    ("matrix _apply skips the diagonal", "operators.py",
     "        return self._values(coeffs, diagonal, out=coeffs)\n",
     "        if self._adjoint is not None:\n"
     "            return self._inverse(coeffs)\n"
     "        return self._values(coeffs, diagonal, out=coeffs)\n",
     "tests/test_acceptance.py::test_acceptance_3_rabi_control"),
    ("_coeffs ignores out", "operators.py",
     "np.fft.fft(values, out=out)", "np.fft.fft(values)",
     "tests/test_propagation_reuse.py::test_apply_on_an_owned_buffer_has_the_bits_of_evolve["
     "fourier-16384]"),
    ("shift transform copies", "operators.py", "        return psi.values\n",
     "        return psi.values.copy()\n",
     "tests/test_propagation_reuse.py::test_values_leave_their_coefficients_alone[shift]"),
    ("json keeps nan and inf", "scenarios.py", "obj if math.isfinite(obj) else str(obj)",
     "obj",
     'tests/test_scenarios.py::test_json_safe_pins_each_type[nan-"\'nan\'"]'),
    ("json skips .item()", "scenarios.py", "return _json_safe(item)", "return obj",
     "tests/test_scenarios.py::test_json_safe_pins_each_type[np.float64(0.1)-'0.1']"),
    ("shift lattice unchecked", "scenarios.py", "if steps <= n:", "if False:",
     "tests/test_scenarios.py::test_hm_invariance_rejects_its_schedules_before_any_transform["
     "overrides0-cannot place 60 distinct measurement steps inside 41 steps]"),
    ("rabi overflow unchecked", "scenarios.py",
     "if not all(map(math.isfinite, (t, omega * t, t * ZENO_LADDER[-1]))):", "if False:",
     "tests/test_cli.py::test_invalid_seed_or_tolerance_exits_2[rabi-control-flags31-omega "
     "1e+308 and time 1e+308 overflow: t, omega * t and 128 * t must be finite]"),
    ("rabi resolvability budget off", "scenarios.py",
     "if not abs(closed_slope - (-1.0)) + blur <= ZENO_SLOPE_TOL:", "if False:",
     "tests/test_cli.py::test_invalid_seed_or_tolerance_exits_2[rabi-control-flags43-omega*t = "
     "1e-09 is outside the Zeno window: the closed-form deficit at N = 128 is 7.75e-21]"),
    ("gaussian resolution budget off", "scenarios.py",
     "if not sigma * (k_max - abs(k0)) >= bound:", "if False:",
     "tests/test_cli.py::test_invalid_seed_or_tolerance_exits_2[counterexample-flags45-sigma "
     "0.01 is too small for the grid step dx = 0.0195312: a Gaussian at k0 = 2 puts more than "
     "1e-08 of its mass past k_max = 160.85]"),
    ("window mode floor unchecked", "scenarios.py",
     "if grid.n_points < 2 * WINDOW_MODES + 1:", "if False:",
     "tests/test_cli.py::test_invalid_seed_or_tolerance_exits_2[counterexample-flags34-the "
     "windowed random field needs 81 Fourier modes, more than the 32 grid points hold]"),
    ("schema drops ConditionSample", "scenarios.py",
     "ConditionReport, ConditionSample)}", "ConditionReport)}",
     "tests/test_acceptance.py::test_acceptance_1_counterexample_cli"),
    ("large scenarios stay on the main thread", "statespace.py",
     "if (points or 0) < MAP_MIN_POINTS or", "if True or",
     "tests/test_helper_map.py::test_counterexample_hands_condition_I_times_to_a_thread_freed_by_the_others["
     "1]"),
    ("maps ignore an interrupt", "statespace.py",
     "if _stopping.is_set():", "if False:",
     "tests/test_helper_map.py::test_interrupt_stops_the_runner_after_its_current_items[0]"),
    ("a buffer per sampled pair", "subspaces.py",
     'u._values(c, step, kit.get("values"))', "u._values(c, step)",
     "tests/test_propagation_reuse.py::test_condition_I_advances_every_state_of_a_time_into_one_"
     "buffer"),
    ("lattice coarse stride b - 1", "operators.py",
     "coarse = np.exp(theta * (b * np.arange(", "coarse = np.exp(theta * ((b - 1) * np.arange(",
     "tests/test_acceptance.py::test_acceptance_1_counterexample_cli"),
    ("any odd spectrum is a lattice", "operators.py",
     "if lam.size >= 2 and np.array_equal(head, np.arange(mid + 1) * lam[1]):",
     "if lam.size >= 2:",
     "tests/test_propagation_reuse.py::test_step_matches_whole_spectrum_exp_bit_for_bit[2]"),
    ("chains ignore an interrupt", "zeno.py",
     "raise KeyboardInterrupt  # the main thread was", "pass  # the main thread was",
     "tests/test_zeno.py::test_chain_stops_before_its_next_segment_once_an_interrupt_is_pending"),
    ("closed-form deficit through cos", "zeno.py",
     "out.append(-math.expm1(2 * (n + 1) * math.log1p(x)))",
     "out.append(1.0 - math.cos(theta) ** (2 * (n + 1)))",
     "tests/test_cli.py::test_invalid_seed_or_tolerance_exits_2[rabi-control-flags43-omega*t = "
     "1e-09 is outside the Zeno window: the closed-form deficit at N = 128 is 7.75e-21]"),
    ("closed slope fitted on 1 - (1 - d)", "scenarios.py",
     "np.log(closed), 1)[0])", "np.log(1.0 - (1.0 - np.array(closed))), 1)[0])",
     "tests/test_scenarios.py::test_margin_edges_are_exact["
     "rabi-control-time-7.118390589914249e-06--inf-extra6]"),
    ("two concurrent items share one workspace array", "zeno.py",
     "scratch = threading.local()", "scratch = lambda: None",
     "tests/test_workspace.py::test_items_running_at_once_never_hold_the_same_array[spectral]"),  # one kit for all threads
    ("the chain's two step slots collapse into one", "zeno.py",
     'slots = [[[None, "step2"], [None, "step"]]', 'slots = [[[None, "step"], [None, "step"]]',
     "tests/test_workspace.py::test_a_warm_report_allocates_the_same_state_arrays_for_any_schedu"
     "le_count"),
    ("a second interrupt clears the flag at once", "statespace.py",
     "            pass\n        raise\n",
     "            pass\n        raise\n    finally:\n        _stopping.clear()\n",
     "tests/test_helper_map.py::test_a_second_interrupt_leaves_at_once_and_the_runner_still_stops"),
    ("sweep helpers are not counted as working", "statespace.py",
     "helpers.append(_submit(_pool, helper))", "helpers.append(_pool.submit(helper))",
     "tests/test_helper_map.py::test_an_interrupted_sweep_keeps_stopping_until_the_helpers_point"
     "_is_done"),
    ("a map's own interrupt leaves the helpers running", "statespace.py",
     "                _halt()\n            errors[i] = exc",
     "                pass\n            errors[i] = exc",
     "tests/test_helper_map.py::test_an_interrupt_in_the_callers_own_item_stops_the_helpers_item"),
    ("the writer keeps the old tail", "cli.py",
     "        if len(data) < old:\n            file.truncate()\n", "",
     "tests/test_cli.py::test_write_table_leaves_only_its_own_bytes_over_a_stale_file[longer]"),
    ("the writer cuts a device", "cli.py", "if len(data) < old:", "if True:",
     "tests/test_cli.py::test_write_through_a_link_to_a_device_does_not_cut_it"),
    ("a block's rows share one step slot", "zeno.py",
     "steps = [kit[held[0][1]][r] for", "steps = [kit[held[0][1]][0] for",
     "tests/test_workspace.py::test_a_block_of_rows_has_the_bits_of_one_schedule_reports"),
    ("a block clips only its first row", "zeno.py",
     "p_core._clip(values)", "p_core._clip(values[:1])",
     "tests/test_workspace.py::test_a_block_of_rows_has_the_bits_of_one_schedule_reports"),
    ("a report's s_free is read from its own chain", "zeno.py",
     "s_free=done[free][0]", "s_free=done[schedule][0]",
     "tests/test_workspace.py::test_a_report_runs_each_distinct_schedule_once[matrix]"),
    ("duplicate schedules are not merged", "zeno.py",
     "sorted(dict.fromkeys(job for pair in zip(schedules, frees) for job in pair),",
     "sorted([job for pair in zip(schedules, frees) for job in pair],",
     "tests/test_workspace.py::test_a_report_runs_each_distinct_schedule_once[spectral]"),
    ("a schedule takes an infinite t_final", "zeno.py",
     "if not 0.0 < self.t_final < math.inf:", "if not 0.0 < self.t_final:",
     "tests/test_zeno.py::test_schedule_rejects_a_non_finite_final_time[inf]"),
    ("condition checks take a nan time", "subspaces.py",
     "if bad := [t for t in ts if not np.isfinite(t)]:", "if bad := []:",
     "tests/test_subspaces.py::test_conditions_reject_a_non_finite_time_before_drawing_a_state[I]"),
    ("leakage takes a non-finite time", "subspaces.py", "    _finite([t])\n", "",
     "tests/test_subspaces.py::test_leakage_rejects_a_non_finite_time[spectral-inf]"),
    ("condition (I) takes t = 0", "subspaces.py",
     "any(t <= 0.0 for t in ts)", "any(t < 0.0 for t in ts)",
     "tests/test_subspaces.py::test_condition_I_rejects_time_zero_before_drawing_a_state"),
    ("a bump takes equal ends", "statespace.py",
     "if not support_lo < support_hi:", "if not support_lo <= support_hi:",
     "tests/test_statespace.py::test_bump_support_guard"),
    ("two step ratios cannot classify", "analytic.py",
     "len(norms.step_ratios) < 2", "len(norms.step_ratios) <= 2",
     "tests/test_analytic.py::test_two_step_ratios_are_enough_to_classify"),
    ("rabi fits a slope at an unbounded blur", "scenarios.py",
     "if blur < math.inf else math.nan", "if blur <= math.inf else math.nan",
     "tests/test_scenarios.py::test_rabi_control_window_at_subnormal_deficits_names_an_"
     "unbounded_blur"),
    ("an int field parsed as float", "cli.py",
     "(int if _HINTS[f.name] is int else float, f.name)", "(float, f.name)",
     "tests/test_cli.py::test_options_leave_only_int_fields_the_n_spelling_and_two_cli_keys_"
     "implicit"),
    ("N spelled n-measurements", "cli.py",
     '"N" if f.name == "n_measurements" else f.name.replace("_", "-")',
     'f.name.replace("_", "-")',
     "tests/test_cli.py::test_options_leave_only_int_fields_the_n_spelling_and_two_cli_keys_"
     "implicit"),
)

#: the full tier-1 run, without the files that would fail on every mutant
TIER1 = ("--ignore=tests/test_golden.py", "--ignore=tests/test_spec_corpus.py",
         "--ignore=tests/test_mutant_census.py")


def census(mutant: tuple[str, str, str, str, str] | None = None) -> tuple[str, str]:
    """Run `mutant`'s killer on a fresh copy, then tier-1 if it missed; tier-1 alone if None.

    Returns "killed" with the killer, "mismatch" (only tier-1 killed it) with
    tier-1's first failed or errored test, "passed" (tier-1 passed) or "error"
    with pytest's last line.
    """
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "benchmarks", "scripts"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):  # tier-1 reads README's tables
            shutil.copy(ROOT / name, work)
        if mutant is None:
            return pytest(work, *TIER1)
        name, module, text, replacement, killer = mutant
        path = work / "src" / "zenolab" / module
        source = path.read_text(encoding="utf-8")
        if source.count(text) != 1:
            raise SystemExit(f"mutant {name!r}: its text occurs {source.count(text)} "
                             f"times in {module}")
        path.write_text(source.replace(text, replacement), encoding="utf-8")
        if pytest(work, killer)[0] == "failed":
            return "killed", killer
        result, detail = pytest(work, *TIER1)
    if result == "failed":
        return "mismatch", f"{detail} (the table names {killer})"
    return result, detail


def pytest(work: Path, *args: str) -> tuple[str, str]:
    """Run pytest with `-x` on `args` in the copy at `work`, classified by `outcome`."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", *args],
        cwd=work, env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True)
    return outcome(proc.returncode, proc.stdout, proc.stderr)


def outcome(returncode: int, stdout: str, stderr: str) -> tuple[str, str]:
    """"passed"; "failed" (pytest exited 1 and named a failed or errored test)
    with the first such test; or "error" with pytest's last line."""
    # a collection error names a module, not a test; under -x it exits 1 too.  A
    # node id runs to the end of the line or to " - " and the message after its
    # parameters' "]", which may hold spaces
    named = re.findall(r"^(?:FAILED|ERROR) (\S+::[^\s\[]+(?:\[.*?\])?)(?: - .*)?$", stdout,
                       flags=re.MULTILINE)
    if returncode == 0:
        return "passed", ""
    if returncode == 1 and named:
        return "failed", named[0]
    last = (stdout.strip() or stderr.strip() or "no output").splitlines()[-1]
    return "error", f"pytest exit {returncode}: {last}"


def main() -> int:
    # a kill only means something if the unmutated copy passes
    result, detail = census()
    if result != "passed":
        print(f"tier-1 fails without any mutant: {detail}", file=sys.stderr)
        return 2
    label = {"killed": "killed  ", "mismatch": "MISMATCH", "passed": "SURVIVED",
             "error": "ERROR   "}
    counts = dict.fromkeys(label, 0)
    for mutant in MUTANTS:
        result, detail = census(mutant)
        counts[result] += 1
        print(f"{label[result]} {mutant[0]:32} {detail}", flush=True)
    print(f"{counts['killed']} of {len(MUTANTS)} killed by their named tests, "
          f"{counts['mismatch']} table mismatches")
    return 2 if counts["error"] else 1 if counts["passed"] or counts["mismatch"] else 0


if __name__ == "__main__":
    sys.exit(main())
