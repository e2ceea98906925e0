"""Hermitian operators in spectral form and the propagators built from them.

An operator is stored as a real spectrum plus a unitary change of basis:
the FFT when its basis is None, else an explicit eigenvector matrix.  The
propagator is the functional calculus U(t) = exp(-i t H), in three steps:

  * ``transform(psi)``: the state's eigenbasis coefficients (one forward
    change of basis),
  * ``step(t)``: the phase vector exp(-i lambda t) of one time; an
    FFT-basis spectrum is odd (lambda[n-j] = -lambda[j]), so only the
    entries [0, n/2] are computed and the rest are their conjugates, bit
    for bit.  On a lattice, lambda[j] = j dk as the momentum operator has
    it, those entries are the outer product of two tables of about
    sqrt(n/2) exps, within a few ulp of exp over the whole array; any
    other odd spectrum runs exp on them,
  * ``advance(coeffs, step)``: multiply and change back, giving U(t) psi.

``evolve(psi, t)`` is exactly ``advance(transform(psi), step(t))``, so a
caller that evolves one state to many times, or many states to one time,
transforms each state once and builds each phase vector once and gets the
same bits as separate evolves.  Coefficients and steps are read-only and
``advance`` never writes to them.  ``Propagator`` alone changes basis, each
way in one place: ``_coeffs`` forward, ``_inverse`` back, ``_values``
multiplies by a diagonal and changes back (a step gives U(t) psi, the
eigenvalues H psi), and ``_apply`` is ``_coeffs`` then ``_values`` on one
buffer, the caller's values on the FFT basis, so a measurement chain runs
in one buffer from its first step on.  ``_step(t, out)`` writes
a step into a buffer the caller hands over, and ``_values`` takes one too,
so the items of a survival report or a condition check reuse their
thread's arrays instead of allocating new ones.
The FFT basis scales by multiplying with 1/sqrt(dx/n), which has the bits
of dividing by sqrt(dx/n) at a fraction of the cost (see ``_inverse``).
``ShiftPropagator`` speaks the same protocol with a state's values as its
coefficients, a whole-step count as its step and a circular roll as its
advance.  The adjoint U(t)^dagger is realized as U(-t); only the
full-space unitary group is modelled here.

Sign and layout conventions:
  * momentum acts as -i d/dx, so U(t) = exp(-i t p) translates to the right:
    values move from x to x + t,
  * wavenumbers j * 2 pi / L follow FFT bin order with the Nyquist mode
    at +pi/dx,
  * eigenbasis coefficients always carry plain l2 normalization, which makes
    the change of basis an exact isometry with respect to the state norm.

The central subtlety of everything downstream: on a finite grid every
operator is bounded (|lambda| <= spectral_radius), so exp(-i t H) has a
power series with infinite radius of convergence for *every* vector — the
unbounded-operator distinction between analytic and non-analytic vectors
cannot literally exist here.  What discretization preserves is the *rate*
structure: how fast ||H^n psi||^(1/n) grows before it saturates at the
spectral cutoff, and how that saturation point moves when the grid is
refined.  The power series (`_series_terms`) sums its terms on the
eigenbasis coefficients and never changes basis back.  It is always formally
convergent, yet numerically trustworthy only while t * cutoff is small enough
that the truncated sum does not amplify roundoff; the kernel stops at the
first term past its divergence bound, which reports this honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SpaceMismatchError
from .statespace import DenseSpace, Grid, WaveFunction, _norm

#: a series term whose norm exceeds DIVERGENCE_FACTOR * ||psi|| flags divergence
DIVERGENCE_FACTOR = 1e12
#: largest anti-Hermitian part, relative to the largest entry, that
#: `dense_hermitian` accepts
HERMITIAN_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SpectralOperator:
    """Hermitian operator H = V diag(eigenvalues) V^dagger, as checked data.

    The basis selects the transform V, which only `Propagator` applies:
      * None:     V^dagger = unitary FFT (grid spaces, odd spectrum),
      * a matrix: V = that explicit unitary (n, n) eigenvector matrix
        (dense spaces).
    """

    space: Grid | DenseSpace
    eigenvalues: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self) -> None:
        lam = np.asarray(self.eigenvalues, dtype=np.float64).copy()
        if lam.shape != (self.space.n_points,):
            raise SpaceMismatchError(
                f"eigenvalue count {lam.shape} does not match space dimension "
                f"{self.space.n_points}"
            )
        if not np.all(np.isfinite(lam)):
            raise DomainError("eigenvalues must be finite")
        lam.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        spacing = None
        if self.basis is not None:
            b = np.asarray(self.basis, dtype=np.complex128).copy()
            if b.shape != (lam.size, lam.size):
                raise SpaceMismatchError(
                    f"basis shape {b.shape} does not match space dimension {lam.size}"
                )
            b.setflags(write=False)
            object.__setattr__(self, "basis", b)
        else:
            # Propagator.step mirrors the phases of half the spectrum, which
            # takes lambda[n - j] = -lambda[j] exactly, as wavenumbers have it
            mid = lam.size // 2
            if not np.array_equal(lam[mid + 1:], -lam[1:lam.size - mid][::-1]):
                raise DomainError(
                    "an FFT-basis spectrum must be odd: lambda[n - j] = -lambda[j] "
                    "for 0 < j < n / 2"
                )
            # Propagator.step builds the phases of a lattice, lambda[j] == j *
            # lambda[1] exactly for j <= n/2 (as wavenumbers have it), from two
            # small tables; any other spectrum takes the plain exp
            head = lam[:mid + 1]
            if lam.size >= 2 and np.array_equal(head, np.arange(mid + 1) * lam[1]):
                spacing = float(lam[1])
        object.__setattr__(self, "_spacing", spacing)

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))


def momentum_operator(grid: Grid) -> SpectralOperator:
    """The operator -i d/dx, diagonal in the Fourier basis."""
    return SpectralOperator(grid, grid.wavenumbers())


def dense_hermitian(matrix: np.ndarray) -> SpectralOperator:
    """Spectral form of an explicit Hermitian matrix on a DenseSpace.

    Rejects matrices with a non-finite entry or whose anti-Hermitian part
    exceeds HERMITIAN_TOL (relative to the largest entry).  The
    eigendecomposition reconstructs the input to 1e-10.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpaceMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        # nan would pass the tolerance test below, since nan > tol is False
        raise DomainError("matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(m))))
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > HERMITIAN_TOL * scale:
        raise DomainError(
            f"matrix is not Hermitian: max |M - M^dagger| = {dev:.3e} "
            f"exceeds {HERMITIAN_TOL:g}"
        )
    lam, vec = np.linalg.eigh(m)
    return SpectralOperator(DenseSpace(m.shape[0]), lam, basis=vec)


@dataclass(frozen=True, eq=False)
class Propagator:
    """U(t) = exp(-i t H) for a spectral operator H, valid for any real t."""

    generator: SpectralOperator

    def __post_init__(self) -> None:
        """Change-of-basis constants, once: sqrt(dx/n), its reciprocal, V^dagger."""
        h = self.generator
        scale = np.sqrt(h.space.dx / h.space.n_points)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_inverse_scale", 1.0 / scale)
        object.__setattr__(self, "_adjoint", None if h.basis is None else h.basis.conj().T)

    @property
    def space(self) -> Grid | DenseSpace:
        return self.generator.space

    def transform(self, psi: WaveFunction) -> np.ndarray:
        """Read-only eigenbasis coefficients of psi."""
        psi._require_space(self.space)
        coeffs = self._coeffs(psi.values)
        coeffs.setflags(write=False)
        return coeffs

    def _coeffs(self, values: np.ndarray, out=None) -> np.ndarray:
        """Coefficients of `values`, fresh or, on the FFT basis, in `out`."""
        if self._adjoint is None:
            coeffs = np.fft.fft(values, out=out)
            coeffs *= self._scale
            return coeffs
        return self._adjoint @ values

    def step(self, t: float) -> np.ndarray:
        """Read-only phase vector exp(-i t lambda).

        An FFT-basis spectrum is odd, so only the entries [0, n/2] are
        computed and the rest are their conjugates, n/2 - 1 .. 1, bit for
        bit.  On a lattice spectrum, lambda[j] = j * dk, entry j = r b + c
        is coarse[r] * fine[c] with coarse = exp(i theta b r) and fine =
        exp(i theta c), theta = -t dk and b = isqrt(n/2) + 1: two tables
        of about sqrt(n/2) exps and one outer product, within a few ulp of
        exp over the whole array.  Any other odd spectrum runs exp on the
        entries [0, n/2].
        """
        phases = self._step(t)
        phases.setflags(write=False)
        return phases

    def _step(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """`step(t)`'s phases, into the writable array `out` or fresh when None; one multiply-
        and-exp covers a non-lattice spectrum: all n entries, no mirror, on a matrix basis."""
        h = self.generator
        n = h.eigenvalues.size
        half = n if h.basis is not None else n // 2 + 1
        phases = np.empty(n, dtype=np.complex128) if out is None else out
        if h._spacing is None:
            np.multiply(-1j * float(t), h.eigenvalues[:half], out=phases[:half])
            np.exp(phases[:half], out=phases[:half])
        else:
            b = math.isqrt(n // 2) + 1
            rows = -(-half // b)
            theta = 1j * (-float(t) * h._spacing)
            coarse = np.exp(theta * (b * np.arange(rows, dtype=np.float64)))
            fine = np.exp(theta * np.arange(b, dtype=np.float64))
            # rows * b <= n, so the table fills a prefix of phases; the
            # entries past n/2 are overwritten by the mirror below
            np.multiply(coarse[:, None], fine, out=phases[:rows * b].reshape(rows, b))
        if half < n:
            mirror = phases[half:]
            np.conjugate(phases[1:n - half + 1][::-1], out=mirror)
            # where t * lambda rounds to 0 the phase is 1 + 0j on both sides;
            # adding +0.0 turns the conjugate's -0.0 back into +0.0 and
            # leaves every other value as it is
            mirror.imag += 0.0
        return phases

    def advance(self, coeffs: np.ndarray, step: np.ndarray) -> WaveFunction:
        """The state whose coefficients are step * coeffs; neither is written."""
        return WaveFunction._adopt(self.space, self._values(coeffs, step))

    def _values(self, coeffs: np.ndarray, diagonal: np.ndarray, out=None) -> np.ndarray:
        """Values of diagonal * coeffs (a step gives U(t)), fresh or, on the FFT basis, in `out`."""
        # always diagonal * coeffs: numpy's complex multiply is not bitwise
        # commutative, so a swapped operand order changes the last bits
        return self._inverse(np.multiply(diagonal, coeffs, out=out))

    def _apply(self, values: np.ndarray, diagonal: np.ndarray, spare=None) -> np.ndarray:
        """`_values(_coeffs(values), diagonal)` on one buffer, for a chain's later segments:
        the FFT basis works in `values` and returns it, a matrix basis a fresh array.
        `spare` is for a shift, whose roll cannot run in place; it is not used here."""
        coeffs = self._coeffs(values, out=values)
        return self._values(coeffs, diagonal, out=coeffs)

    def _inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """Values of `coeffs`, which must be a fresh array: it is overwritten."""
        if self._adjoint is None:
            # numpy divides by a real r as by r + 0j: Smith's formula with
            # the zero ratio gives (re + im*0, im - re*0) * (1/r), and the
            # complex multiply by 1/r gives (re*(1/r) - im*0, re*0 + im*(1/r)),
            # the same bits on every finite nonzero part and the same nan/inf
            # pattern at a fraction of the cost; only the sign of an exact
            # zero may differ.  A float64 view would turn inf+nanj into inf+xj.
            coeffs *= self._inverse_scale
            return np.fft.ifft(coeffs, out=coeffs)
        return self.generator.basis @ coeffs

    def evolve(self, psi: WaveFunction, t: float) -> WaveFunction:
        return evolve_spectral(self, psi, t)


def evolve_spectral(propagator: Propagator, psi: WaveFunction, t: float) -> WaveFunction:
    """Apply exp(-i t H) through the eigenbasis phase multiply."""
    return propagator.advance(propagator.transform(psi), propagator.step(t))


@dataclass(frozen=True, eq=False)
class ShiftPropagator:
    """Translation restricted to whole grid steps t = m * dx.

    Shares the transform/step/advance/evolve protocol with Propagator so
    condition checks and measurement chains can run on either path: a
    state's values are its coefficients, a step is a whole-step count m and
    an advance is a circular roll, which moves values right by m * dx bit
    for bit (the zero-residual oracle for the spectral path at
    commensurate times).
    """

    grid: Grid

    @property
    def space(self) -> Grid:
        return self.grid

    def transform(self, psi: WaveFunction) -> np.ndarray:
        psi._require_space(self.grid)
        return psi.values

    def step(self, t: float) -> int:
        """Whole grid steps in t; DomainError unless t is a multiple of dx."""
        ratio = float(t) / self.grid.dx
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9:
            raise DomainError(
                f"time {t} is not commensurate with dx = {self.grid.dx}: "
                f"t/dx = {ratio}"
            )
        return round(ratio)

    def advance(self, coeffs: np.ndarray, step: int) -> WaveFunction:
        return WaveFunction._adopt(self.grid, self._values(coeffs, step))

    def _values(self, coeffs: np.ndarray, step: int, out=None) -> np.ndarray:
        """np.roll's values for `advance` as one copy of two slices, into `out` or fresh."""
        split = -int(step) % coeffs.shape[0]
        return np.concatenate((coeffs[split:], coeffs[:split]), out=out)

    def _step(self, t: float, out=None) -> int:
        """`step(t)`: a count, so `out` is not used."""
        return self.step(t)

    def _apply(self, values: np.ndarray, step: int, spare=None) -> np.ndarray:
        """`_values`, as values are coefficients: into `spare`, never `values`, or fresh."""
        return self._values(values, step, spare)

    def evolve(self, psi: WaveFunction, t: float) -> WaveFunction:
        return self.advance(self.transform(psi), self.step(t))


def _series_terms(h: SpectralOperator, coeffs: np.ndarray, t: float, n_terms: int):
    """Running sums of the power series on psi's eigenbasis coefficients `coeffs`.

    Term n is term n-1 times lambda, then times -i t / n, so no term changes
    basis; its norm is the coefficients' plain l2 norm (the change of basis
    is an isometry).  Terms 1..n-1 are added in a fixed order into `rest`,
    in place, and `rest` is yielded after each of the first n_terms terms, so
    every caller sees the same bits; a consumer copies a record it keeps, and
    stopping the iteration stops the summing.  The kernel returns at the
    first term whose norm is not within DIVERGENCE_FACTOR * ||c||, inf and
    nan included, without adding it: fewer than n_terms records mean the
    series diverged.
    """
    c_norm = float(_norm(coeffs))
    term, rest = coeffs, np.zeros_like(coeffs)
    yield rest
    for n in range(1, n_terms):
        # an overflowing term ends the sum, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            term = h.eigenvalues * term * (-1j * t / n)
            tn = float(_norm(term))
        if not tn <= DIVERGENCE_FACTOR * c_norm:
            return
        rest += term
        yield rest
