"""Hermitian operators in spectral form and the propagators built from them.

An operator is stored as a real spectrum plus a unitary change of basis
(either the FFT or an explicit eigenvector matrix).  The propagator is the
functional calculus U(t) = exp(-i t H), split into three steps:

  * ``transform(psi)``: the state's eigenbasis coefficients (one forward
    change of basis),
  * ``step(t)``: the phase vector exp(-i lambda t) of one time; a
    fourier-kind spectrum is odd (lambda[n-j] = -lambda[j]), so exp runs on
    the entries [0, n/2] and the rest are their conjugates, bit for bit,
  * ``advance(coeffs, step)``: multiply and change back, giving U(t) psi.

``evolve(psi, t)`` is exactly ``advance(transform(psi), step(t))``, so a
caller that evolves one state to many times, or many states to one time,
transforms each state once and builds each phase vector once and gets the
same bits as separate evolves.  Coefficients and steps are read-only and
``advance`` never writes to them.  ``ShiftPropagator`` speaks the same
protocol with the state itself as its coefficients, a whole-step count as
its step and a circular roll as its advance.  The adjoint U(t)^dagger is
realized as U(-t); only the full-space unitary group is modelled here.

Sign and layout conventions:
  * momentum acts as -i d/dx, so U(t) = exp(-i t p) translates to the right:
    values move from x to x + t,
  * wavenumbers follow FFT bin order with the Nyquist mode at +pi/dx,
  * eigenbasis coefficients always carry plain l2 normalization, which makes
    the change of basis an exact isometry with respect to the state norm.

The central subtlety of everything downstream: on a finite grid every
operator is bounded (|lambda| <= spectral_radius), so exp(-i t H) has a
power series with infinite radius of convergence for *every* vector — the
unbounded-operator distinction between analytic and non-analytic vectors
cannot literally exist here.  What discretization preserves is the *rate*
structure: how fast ||H^n psi||^(1/n) grows before it saturates at the
spectral cutoff, and how that saturation point moves when the grid is
refined.  Series-based evolution (`evolve_series`) is therefore always
formally convergent, yet numerically trustworthy only while t * cutoff is
small enough that the truncated sum does not amplify roundoff; the
divergence flag and tail estimate report this honestly rather than hiding
it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, SpaceMismatchError
from .statespace import DenseSpace, Grid, WaveFunction, _norm

#: a series term whose norm exceeds DIVERGENCE_FACTOR * ||psi|| flags divergence
DIVERGENCE_FACTOR = 1e12


@dataclass(frozen=True, eq=False)
class SpectralOperator:
    """Hermitian operator H = V diag(eigenvalues) V^dagger.

    kind selects the basis transform V:
      * "fourier": V^dagger = unitary FFT (grid spaces, odd spectrum),
      * "matrix":  V = explicit unitary eigenvector matrix (dense spaces).
    """

    space: Grid | DenseSpace
    eigenvalues: np.ndarray
    kind: str
    basis: np.ndarray | None = None

    def __post_init__(self) -> None:
        lam = np.asarray(self.eigenvalues, dtype=np.float64).copy()
        if lam.shape != (self.space.n_points,):
            raise SpaceMismatchError(
                f"eigenvalue count {lam.shape} does not match space dimension "
                f"{self.space.n_points}"
            )
        lam.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        if self.kind not in ("fourier", "matrix"):
            raise DomainError(f"unknown operator kind {self.kind!r}")
        if self.kind == "matrix":
            if self.basis is None:
                raise DomainError("matrix kind requires an eigenvector basis")
            b = np.asarray(self.basis, dtype=np.complex128).copy()
            b.setflags(write=False)
            object.__setattr__(self, "basis", b)
        else:
            # Propagator.step mirrors the phases of half the spectrum, which
            # takes lambda[n - j] = -lambda[j] exactly, as wavenumbers have it
            mid = lam.size // 2
            if not np.array_equal(lam[mid + 1:], -lam[1:lam.size - mid][::-1]):
                raise DomainError(
                    "fourier-kind spectrum must be odd: lambda[n - j] = -lambda[j] "
                    "for 0 < j < n / 2"
                )

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))

    # -- raw array fast paths ------------------------------------------------

    def _to_coeffs(self, values: np.ndarray) -> np.ndarray:
        w = self.space.dx
        if self.kind == "fourier":
            coeffs = np.fft.fft(values)
            coeffs *= np.sqrt(w / self.space.n_points)
            return coeffs
        return self.basis.conj().T @ values

    def _from_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Values of `coeffs`, which must be a fresh array: it is overwritten."""
        w = self.space.dx
        if self.kind == "fourier":
            coeffs /= np.sqrt(w / self.space.n_points)
            return np.fft.ifft(coeffs, out=coeffs)
        return self.basis @ coeffs

    def _apply_values(self, values: np.ndarray) -> np.ndarray:
        return self._from_coeffs(self.eigenvalues * self._to_coeffs(values))

    # -- public API ------------------------------------------------------------

    def apply(self, psi: WaveFunction) -> WaveFunction:
        self._check_space(psi)
        return WaveFunction(self.space, self._apply_values(psi.values))

    def _check_space(self, psi: WaveFunction) -> None:
        if psi.space != self.space:
            raise SpaceMismatchError("state and operator live on different spaces")


def momentum_operator(grid: Grid) -> SpectralOperator:
    """The operator -i d/dx, diagonal in the Fourier basis."""
    return SpectralOperator(grid, grid.wavenumbers(), "fourier")


def dense_hermitian(matrix: np.ndarray, tol: float = 1e-12) -> SpectralOperator:
    """Spectral form of an explicit Hermitian matrix on a DenseSpace.

    Rejects matrices whose anti-Hermitian part exceeds `tol` (relative to the
    largest entry).  The eigendecomposition reconstructs the input to 1e-10.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpaceMismatchError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > tol * scale:
        raise DomainError(
            f"matrix is not Hermitian: max |M - M^dagger| = {dev:.3e} exceeds {tol:g}"
        )
    lam, vec = np.linalg.eigh(m)
    return SpectralOperator(DenseSpace(m.shape[0]), lam, "matrix", basis=vec)


@dataclass(frozen=True, eq=False)
class Propagator:
    """U(t) = exp(-i t H) for a spectral operator H, valid for any real t."""

    generator: SpectralOperator

    @property
    def space(self) -> Grid | DenseSpace:
        return self.generator.space

    def transform(self, psi: WaveFunction) -> np.ndarray:
        """Read-only eigenbasis coefficients of psi."""
        h = self.generator
        h._check_space(psi)
        coeffs = h._to_coeffs(psi.values)
        coeffs.setflags(write=False)
        return coeffs

    def step(self, t: float) -> np.ndarray:
        """Read-only phase vector exp(-i t lambda).

        A fourier-kind spectrum is odd, so exp runs on the entries [0, n/2]
        only and the rest are the conjugates of entries n/2 - 1 .. 1: the
        same bits as exp over the whole array for every finite t, at about
        half the cost.
        """
        h = self.generator
        if h.kind == "matrix":
            phases = -1j * float(t) * h.eigenvalues
            np.exp(phases, out=phases)
        else:
            n = h.eigenvalues.size
            half = n // 2 + 1
            phases = np.empty(n, dtype=np.complex128)
            np.multiply(-1j * float(t), h.eigenvalues[:half], out=phases[:half])
            np.exp(phases[:half], out=phases[:half])
            mirror = phases[half:]
            np.conjugate(phases[1:n - half + 1][::-1], out=mirror)
            # where t * lambda rounds to 0 the phase is 1 + 0j on both sides;
            # adding +0.0 turns the conjugate's -0.0 back into +0.0 and
            # leaves every other value as it is
            mirror.imag += 0.0
        phases.setflags(write=False)
        return phases

    def advance(self, coeffs: np.ndarray, step: np.ndarray) -> WaveFunction:
        """The state whose coefficients are step * coeffs; neither is written."""
        h = self.generator
        # always step * coeffs: numpy's complex multiply is not bitwise
        # commutative, so a swapped operand order changes the last bits
        return WaveFunction._adopt(h.space, h._from_coeffs(step * coeffs))

    def evolve(self, psi: WaveFunction, t: float) -> WaveFunction:
        return evolve_spectral(self, psi, t)


def evolve_spectral(propagator: Propagator, psi: WaveFunction, t: float) -> WaveFunction:
    """Apply exp(-i t H) through the eigenbasis phase multiply."""
    return propagator.advance(propagator.transform(psi), propagator.step(t))


def evolve_exact_shift(psi: WaveFunction, n_steps: int) -> WaveFunction:
    """Circular shift by whole samples: values move right by n_steps * dx.

    Bit-reproducible reference translation; the zero-residual oracle for the
    spectral propagator at commensurate times.
    """
    return WaveFunction._adopt(psi.space, np.roll(psi.values, int(n_steps)))


@dataclass(frozen=True, eq=False)
class ShiftPropagator:
    """Translation restricted to whole grid steps t = m * dx.

    Shares the transform/step/advance/evolve protocol with Propagator so
    condition checks and measurement chains can run on either path: a
    state is its own coefficients, a step is a whole-step count and an
    advance is a circular roll.
    """

    grid: Grid

    @property
    def space(self) -> Grid:
        return self.grid

    def transform(self, psi: WaveFunction) -> WaveFunction:
        if psi.space != self.grid:
            raise SpaceMismatchError("state and shift propagator live on different grids")
        return psi

    def step(self, t: float) -> int:
        """Whole grid steps in t; DomainError unless t is a multiple of dx."""
        ratio = float(t) / self.grid.dx
        steps = round(ratio)
        if abs(ratio - steps) > 1e-9:
            raise DomainError(
                f"time {t} is not commensurate with dx = {self.grid.dx}: "
                f"t/dx = {ratio}"
            )
        return steps

    def advance(self, coeffs: WaveFunction, step: int) -> WaveFunction:
        return evolve_exact_shift(coeffs, step)

    def evolve(self, psi: WaveFunction, t: float) -> WaveFunction:
        return self.advance(self.transform(psi), self.step(t))


@dataclass(frozen=True)
class SeriesResult:
    """Truncated power-series propagation output.

    tail_estimate = ||H^n psi|| |t|^n / n!  (first omitted term), and
    `diverged` is set when any partial term grows past
    DIVERGENCE_FACTOR * ||psi|| (or stops being finite), which signals the
    pre-asymptotic blow-up of states outside the series' comfort zone.
    """

    state: WaveFunction
    tail_estimate: float
    diverged: bool


def _series_terms(h: SpectralOperator, psi: WaveFunction, t: float, n_terms: int):
    """Shared summation kernel: yields after each of the first n_terms terms.

    Adds terms (-i t H)^n psi / n! for n = 0..n_terms-1 in a fixed order so
    every caller sees identical floating-point results, and yields
    (n_terms_so_far, partial_values, diverged, last_term) after each one.
    Only the current partial sum is kept alive, and a consumer that stops
    iterating stops the summing.  A non-finite term halts the sum: the last
    record keeps the partial sum before it, with last_term None.
    """
    h._check_space(psi)
    psi_norm = psi.norm()
    term = total = psi.values
    diverged = False
    yield 1, total, diverged, term
    for n in range(1, n_terms):
        # an overflowing term is reported through `diverged`, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            term = h._apply_values(term) * (-1j * t / n)
            tn = float(_norm(term)) * np.sqrt(psi.space.dx)
        if not np.isfinite(tn):
            # freeze the partial sum instead of poisoning it
            yield n + 1, total, True, None
            return
        if tn > DIVERGENCE_FACTOR * psi_norm:
            diverged = True
        total = total + term
        yield n + 1, total, diverged, term


def evolve_series(h: SpectralOperator, psi: WaveFunction, t: float, n_terms: int) -> SeriesResult:
    """Sum the first n_terms of exp(-i t H) psi = sum_n (-i t H)^n psi / n!.

    The 1/n! factor is folded in incrementally via term_{n+1} =
    (t / (i (n+1))) H term_n; explicit factorials and matrix powers never
    appear, and only one partial sum is alive at a time.  Overflowing terms
    set the divergence flag rather than raising.
    """
    if n_terms < 1:
        raise DomainError(f"n_terms must be >= 1, got {n_terms}")
    for _, total, diverged, term in _series_terms(h, psi, t, n_terms):
        pass
    if term is None:
        tail = float("inf")
    else:
        nxt = h._apply_values(term)
        tail = float(_norm(nxt)) * np.sqrt(psi.space.dx) * abs(t) / n_terms
        if not np.isfinite(tail):
            tail = float("inf")
    return SeriesResult(WaveFunction(psi.space, total), tail, diverged)


def stone_residual(h: SpectralOperator, psi: WaveFunction, t_list) -> np.ndarray:
    """Forward derivative residuals || i (U(t) psi - psi) / t - H psi ||.

    For states in the generator's domain these fall linearly in t (slope 1 on
    a log-log plot).  t_list must be strictly positive and strictly
    decreasing, matching the one-sided t -> 0+ limit being probed.
    """
    ts = np.asarray(t_list, dtype=np.float64)
    if ts.size == 0:
        raise PreconditionError("t_list must be non-empty")
    if np.any(ts <= 0.0):
        raise PreconditionError("t_list must be strictly positive")
    if np.any(np.diff(ts) >= 0.0):
        raise PreconditionError("t_list must be strictly decreasing")
    u = Propagator(h)
    coeffs = u.transform(psi)
    hpsi = h._apply_values(psi.values)
    out = np.empty(ts.size)
    for i, t in enumerate(ts):
        diff = 1j * (u.advance(coeffs, u.step(t)).values - psi.values) / t - hpsi
        out[i] = _norm(diff) * np.sqrt(psi.space.dx)
    return out
