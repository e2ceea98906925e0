"""Survival vs measurement count: invariant wavepacket against Rabi control.

Side-by-side staircase for the two systems the scenarios treat separately:

  * a core-zone Gaussian under right translation -- projective measurements
    of "still in the core zone?" leave its survival untouched at every N;
  * a Rabi two-level system -- the same protocol freezes the decay, with
    the deficit 1 - s falling like 1/N.

Usage:
    python3 scripts/zeno_staircase.py
"""

import math

import numpy as np

from zenolab import (
    Grid,
    MeasurementSchedule,
    Propagator,
    ShiftPropagator,
    SubspaceProjector,
    WaveFunction,
    core_zone_state,
    deficit_slope,
    dense_hermitian,
    halfline_pair,
    make_gaussian,
    momentum_operator,
    survival_report,
)

GRID = Grid(-40.0, 40.0, 4096)
CENTER, SIGMA = -8.0, 1.0
T_WAVE = 2.0          # two sigma of rightward drift
T_RABI = math.pi / 2  # a zero crossing of the free survival
COUNTS = (0, 1, 2, 4, 8, 16, 32, 64, 128)


def _ladder(u, p_core, e, t_final, counts) -> dict[int, float]:
    """N -> measured survival over equally spaced N-schedules (N = 0 is free)."""
    reports = survival_report(u, p_core, e, [MeasurementSchedule.equally_spaced(t_final, n)
                                             for n in counts])
    return {n: rep.s_measured for n, rep in zip(counts, reports)}


def main() -> None:
    p_core, _ = halfline_pair(GRID)
    e = core_zone_state(p_core, make_gaussian(GRID, CENTER, SIGMA))
    u_wave = Propagator(momentum_operator(GRID))

    h_rabi = dense_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    u_rabi = Propagator(h_rabi)
    excited = WaveFunction(h_rabi.space, np.array([1.0, 0.0]))
    p_excited = SubspaceProjector(h_rabi.space, 0, 1)

    wave = _ladder(u_wave, p_core, e, T_WAVE, COUNTS)
    rabi = _ladder(u_rabi, p_excited, excited, T_RABI, COUNTS)
    s_free = wave[0]

    print(f"translated Gaussian: center {CENTER}, sigma {SIGMA}, t = {T_WAVE}")
    print(f"Rabi control:        Omega 1, t = pi/2")
    print()
    print(f"{'N':>4}  {'s (translation)':>17}  {'s - s_free':>10}  "
          f"{'s (Rabi)':>10}  {'1 - s':>10}  {'N (1 - s)':>10}")
    for n in COUNTS:
        delta = wave[n] - s_free
        deficit = 1.0 - rabi[n]
        scaled = n * deficit if n else float("nan")
        print(f"{n:>4}  {wave[n]:>17.12f}  {delta:>10.1e}  "
              f"{rabi[n]:>10.6f}  {deficit:>10.3e}  {scaled:>10.4f}")

    tail = tuple((n, s) for n, s in rabi.items() if n >= 8)
    print()
    print(f"translation: max |s - s_free| = "
          f"{max(abs(wave[n] - s_free) for n in COUNTS):.3e}")
    print(f"Rabi:        log-log deficit slope over N >= 8 = "
          f"{deficit_slope(tail):+.4f}  (Zeno freezing ~ -1)")

    # exact-shift cross-check: the flat line is not a spectral accident.
    # counts n with (n + 1) | steps keep every segment on the lattice
    shifter = ShiftPropagator(GRID)
    steps = 120  # ~ T_WAVE, quantized to the lattice
    shift_counts = (0, 1, 3, 7, 19, 39, 59)
    shift_scaling = _ladder(shifter, p_core, e, steps * GRID.dx, shift_counts)
    worst = max(abs(s - shift_scaling[0]) for s in shift_scaling.values())
    print(f"shift path:  max |s - s_free| = {worst:.3e} over counts "
          f"{shift_counts[1:]}")


if __name__ == "__main__":
    main()
