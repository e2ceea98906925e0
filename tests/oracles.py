"""Reference values computed independently of the package under test.

Everything here goes through a different code path than zenolab itself:
closed forms via math/scipy, quadrature via scipy.integrate or numpy's
Gauss-Hermite rule, and the two-level measurement chain via brute-force 2x2
matrix products.  `inner_product` is the Riemann sum as one numpy vdot.
Four references build on the package's own propagator: `stone_residuals`
writes out the generator's difference quotient, one evolve per time;
`naive_chain` runs a measured chain, one evolve per segment, and
`naive_final_coeffs` gives its final coefficients as a chain ends on them;
and `dense_momentum_twin` builds the momentum operator without an FFT, for the
matrix-basis path.  `apply_generator` and `fft_pair_hn_norms` apply
H = V Lambda V^dagger on the values as its definition, with one numpy complex
FFT pair per application on a grid.  Frozen literals in
the test modules were produced by these helpers.  `child_bundles` runs
scenarios in child interpreters, for tests that compare bundles across an
environment that only a fresh process reads.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import integrate

import zenolab
from zenolab import Propagator, SpectralOperator
from zenolab.analytic import CEILING_WINDOW, SATURATION_FRACTION


def normal_cdf(z: float) -> float:
    """Phi(z) through the complementary error function."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def gaussian_amplitude(x: np.ndarray, center: float, sigma: float) -> np.ndarray:
    """L2-normalized Gaussian amplitude (|psi|^2 integrates to one)."""
    norm = (2.0 * math.pi * sigma**2) ** (-0.25)
    return norm * np.exp(-((x - center) ** 2) / (4.0 * sigma**2))


def gaussian_overlap_quad(delta: float, sigma: float) -> float:
    """|<g_c, g_{c+delta}>| by adaptive quadrature (center drops out)."""

    def integrand(x: float) -> float:
        return float(
            gaussian_amplitude(np.array([x]), 0.0, sigma)[0]
            * gaussian_amplitude(np.array([x]), delta, sigma)[0]
        )

    value, _ = integrate.quad(integrand, -np.inf, np.inf)
    return value


def gaussian_halfline_mass_quad(center: float, sigma: float) -> float:
    """integral_0^inf |g|^2 dx by adaptive quadrature."""

    def integrand(x: float) -> float:
        return float(gaussian_amplitude(np.array([x]), center, sigma)[0] ** 2)

    value, _ = integrate.quad(integrand, 0.0, np.inf)
    return value


def clipped_gaussian_survival(center: float, sigma: float, tau: float, dx: float,
                              delta: float) -> float:
    """|<g, g(. - tau)>|^2 / <g, g>^2 for the Gaussian amplitude a(x) = exp(-(x - c)^2 /
    (4 sigma^2)) clipped to x < 0, as the Riemann sums of a grid with step dx give it.

    The integrals are sqrt(2 pi) sigma exp(-tau^2 / (8 sigma^2)) Phi((-c - tau/2) / sigma)
    for the overlap and sqrt(2 pi) sigma Phi(-c / sigma) for the norm.  delta in (0, dx]
    is the distance from the last core sample to 0 (dx when x = 0 is a sample); each
    sum adds its first Euler-Maclaurin endpoint term at the cut, (dx/2 - delta) a(0)
    a(-tau) and (dx/2 - delta) a(0)^2, so what is left is second order in dx.
    """
    edge = math.exp(-center**2 / (4.0 * sigma**2))
    moved = math.exp(-(center + tau) ** 2 / (4.0 * sigma**2))
    root = math.sqrt(2.0 * math.pi) * sigma
    overlap = (root * math.exp(-tau**2 / (8.0 * sigma**2)) * normal_cdf((-center - tau / 2) / sigma)
               + (dx / 2 - delta) * edge * moved)
    norm = root * normal_cdf(-center / sigma) + (dx / 2 - delta) * edge**2
    return (overlap / norm) ** 2


def momentum_power_norm(n: int, sigma: float) -> float:
    """||p^n g|| for a width-sigma Gaussian: sqrt((2n-1)!!) / (2 sigma)^n."""
    double_fact = 1.0
    for j in range(1, n + 1):
        double_fact *= 2 * j - 1
    return math.sqrt(double_fact) / (2.0 * sigma) ** n


def momentum_power_log_norm(n: int, sigma: float) -> float:
    """log ||p^n g|| for a width-sigma Gaussian: 1/2 log((2n-1)!!) - n log(2 sigma)."""
    return 0.5 * sum(math.log(2 * j - 1) for j in range(1, n + 1)) - n * math.log(2.0 * sigma)


def gaussian_rho_tail_growth(n_max: int) -> float:
    """`AnalyticityReport.tail_growth` of a Gaussian probed to n_max powers of p.

    The step ratios are sqrt((2j + 1) / (4 sigma^2)), so rho_j = (j + 1) * 2 sigma /
    sqrt(2j + 1) and sigma cancels from the ratio of the tail window's ends;
    n_max = 16 gives 16 sqrt(23) / (12 sqrt(31)).
    """
    first = n_max - max(5, n_max // 3)
    return (n_max / math.sqrt(2 * n_max - 1)) / ((first + 1) / math.sqrt(2 * first + 1))


def gaussian_series_error(n: int, t: float, sigma: float, nodes: int = 120) -> float:
    """||U(t) g - sum_{m<n} (-i t p)^m g / m!|| for a width-sigma Gaussian g.

    err_n^2 = integral |g^(k)|^2 |R_n(-i t k)|^2 dk / 2 pi, where the momentum
    density |g^(k)|^2 / 2 pi is normal with deviation 1 / (2 sigma) and R_n is
    the exponential's remainder after n terms, summed term by term from
    z^n / n! so that no cancellation against e^z occurs.  Gauss-Hermite
    quadrature with `nodes` points.
    """
    u, w = np.polynomial.hermite.hermgauss(nodes)
    z = -1j * t * (math.sqrt(2.0) * u / (2.0 * sigma))
    term = np.ones_like(z)
    for m in range(1, n + 1):
        term = term * z / m
    remainder = np.zeros_like(z)
    for m in range(n + 1, n + 200):  # |z| <= 30 here: the tail is far below 1e-16 by then
        remainder += term
        term = term * z / m
    return math.sqrt(float(np.sum(w * np.abs(remainder) ** 2)) / math.sqrt(math.pi))


def rabi_unitary(omega: float, t: float) -> np.ndarray:
    """exp(-i t omega sigma_x) written out in closed form."""
    c, s = math.cos(omega * t), math.sin(omega * t)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def rabi_chain_survival(omega: float, t_final: float, n: int) -> float:
    """Brute-force |<e, (P U)^n U e>|^2 for n equally spaced measurements."""
    project = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
    step = rabi_unitary(omega, t_final / (n + 1))
    psi = np.array([1.0, 0.0], dtype=np.complex128)
    for _ in range(n):
        psi = project @ (step @ psi)
    psi = step @ psi
    return float(abs(psi[0]) ** 2)


def apply_generator(h, psi) -> np.ndarray:
    """The values of H psi: a complex FFT pair around the whole spectrum on the FFT
    basis, V (Lambda (V^dagger psi)) on a matrix basis."""
    if h.basis is None:
        return np.fft.ifft(h.eigenvalues * np.fft.fft(psi.values))
    return h.basis @ (h.eigenvalues * (h.basis.conj().T @ psi.values))


def nyquist_part(values: np.ndarray) -> np.ndarray:
    """The Nyquist mode's part of grid values, c (-1)^j with c = sum_j values_j (-1)^j / n,
    by direct sums.  The momentum operator's eigenvalue there is 0, so U(t) leaves it
    alone, while a shift by m whole steps multiplies it by (-1)^m."""
    sign = 1.0 - 2.0 * (np.arange(values.shape[-1]) % 2)
    return (values @ sign / values.shape[-1]) * sign


def stone_residuals(h, psi, ts) -> list[float]:
    """Forward derivative residuals ||i (U(t) psi - psi) / t - H psi||, one per t.

    For states in the generator's domain these fall linearly in t (slope 1
    on a log-log plot) as t -> 0+.
    """
    u = Propagator(h)
    hpsi = apply_generator(h, psi)
    return [float(np.linalg.norm(1j * (u.evolve(psi, t).values - psi.values) / t - hpsi))
            * math.sqrt(psi.space.dx) for t in ts]


def inner_product(psi, phi) -> complex:
    """<psi, phi> = sum_j conj(psi_j) phi_j dx, the Riemann sum, as one numpy vdot."""
    return complex(np.vdot(psi.values, phi.values) * psi.space.dx)


def _measured(u, p_core, e, schedule):
    """(state, instant) after the last measurement of the schedule: one `u.evolve` and
    one `p_core.apply` per instant, from (e, 0.0)."""
    psi, elapsed = e, 0.0
    for t_k in schedule.times:
        psi = p_core.apply(u.evolve(psi, t_k - elapsed))
        elapsed = t_k
    return psi, elapsed


def naive_chain(u, p_core, e, schedule):
    """The final state of e measured by p_core at each instant of the schedule: one
    `u.evolve` and one `p_core.apply` per instant, then one evolve to t_final."""
    psi, elapsed = _measured(u, p_core, e, schedule)
    return u.evolve(psi, schedule.t_final - elapsed)


def naive_final_coeffs(u, p_core, e, schedule) -> np.ndarray:
    """The eigenbasis coefficients of `naive_chain`'s final state, as a chain ends on
    them: the last measured state's `u.transform`, times the step to t_final by
    `u._phase` into a fresh array (a roll on the shift)."""
    psi, elapsed = _measured(u, p_core, e, schedule)
    return u._phase(u.transform(psi), u.step(schedule.t_final - elapsed))


def dense_momentum_twin(grid) -> SpectralOperator:
    """-i d/dx on `grid` as a dense Hermitian matrix diagonalized by `np.linalg.eigh`.

    P = sum_j k_j w_j w_j^dagger over the unit plane waves w_j[m] = exp(2 pi i j m / n) /
    sqrt(n), with k_j = j 2 pi / L for j < n/2, 0 at the Nyquist mode j = n/2 and
    (j - n) 2 pi / L above: FFT bin order.  Each exponent takes j m mod n, an exact
    integer, so no phase loses accuracy to a large argument.  No FFT and no
    `Grid.wavenumbers`.
    """
    n = grid.n_points
    idx = np.arange(n)
    j = np.where(idx < n // 2, idx, idx - n)
    j[n // 2] = 0
    k = j * (2.0 * math.pi / grid.length)
    waves = np.exp((2j * math.pi / n) * (np.outer(idx, idx) % n)) / math.sqrt(n)
    lam, basis = np.linalg.eigh((waves * k) @ waves.conj().T)
    return SpectralOperator(grid, lam, basis=basis)


def fft_pair_hn_norms(h, psi, n_max: int):
    """(step_ratios, nilpotent_at, capped_at) of `analytic.hn_norms` with H
    applied on the values: forward FFT, multiply by the eigenvalues, inverse FFT.

    Each power is renormalized by its norm sum |v|^2 dx, and the iteration
    stops at an exact zero or after CEILING_WINDOW consecutive ratios of at
    least SATURATION_FRACTION of the spectral radius, as `HnNorms` documents.
    FFT-basis operators only.
    """
    lam = h.eigenvalues
    ceiling = float(np.max(np.abs(lam)))
    scale = math.sqrt(psi.space.dx)
    v = psi.values / (np.linalg.norm(psi.values) * scale)
    ratios: list[float] = []
    at_ceiling = 0
    for n in range(1, n_max + 1):
        w = np.fft.ifft(lam * np.fft.fft(v))
        r = float(np.linalg.norm(w)) * scale
        if r == 0.0:
            return ratios, n, None
        ratios.append(r)
        v = w / r
        at_ceiling = at_ceiling + 1 if r >= SATURATION_FRACTION * ceiling else 0
        if at_ceiling >= CEILING_WINDOW and n < n_max:
            return ratios, None, n
    return ratios, None, None


def child_bundles(out: Path, names, variable: str, value: str, *flags: str) -> dict[str, bytes]:
    """Each named scenario's bundle.json bytes, from `zenolab run <name> *flags --out out`
    in a child interpreter whose environment sets `variable` to `value`."""
    src = str(Path(zenolab.__file__).resolve().parents[1])
    env = dict(os.environ, **{variable: value},
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name in names:
        subprocess.run([sys.executable, "-m", "zenolab.cli", "run", name, *flags, "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
    return {name: (out / name / "bundle.json").read_bytes() for name in names}
