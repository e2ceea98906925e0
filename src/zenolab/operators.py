"""Hermitian operators in spectral form and the propagators built from them.

An operator is stored as a real spectrum plus a unitary change of basis:
the real FFT when its basis is None, else an explicit eigenvector matrix.
The propagator is the functional calculus U(t) = exp(-i t H), in three steps:

  * ``transform(psi)``: the state's eigenbasis coefficients (one forward
    change of basis),
  * ``step(t)``: the phase vector exp(-i lambda t) of one time.  An
    FFT-basis spectrum is odd, lambda[n-j] = -lambda[j] for every j (so
    lambda[0] = lambda[n/2] = 0), and only its entries [0, n/2] are needed.
    On a lattice, lambda[j] = j dk for j < n/2 as the momentum operator has
    it, they are the outer product of two tables of about sqrt(n/2) exps,
    within a few ulp of exp, and a Nyquist 1; any other spectrum runs exp,
  * ``_values(coeffs, step)``: multiply and change back, giving U(t) psi.

On the FFT basis U(t) maps real rows to real rows: a float64 state is one
row and a complex128 state two, re and im.  A row's coefficients are the
entries [0, n/2] of its `rfft` times sqrt(dx/n), and sqrt(2) more at 0 < j <
n/2 for the conjugate n - j each stands for, so their plain l2 norm is the
state norm.  They have shape (n/2 + 1,) for a real state and (2, n/2 + 1)
for a complex one, and the eigenvalues of coefficients c are
h.eigenvalues[:c.shape[-1]] on either basis.  H maps real rows to imaginary
ones, so it acts on coefficients only (`_series_terms`, `analytic.hn_norms`).

``evolve(psi, t)`` adopts ``_values(transform(psi), step(t))`` as a state,
so a caller that evolves one state to many times, or many states to one
time, transforms each state once and builds each phase vector once and gets
the same bits as separate evolves.  Coefficients and steps are read-only
and ``_values`` never writes to them.  ``Propagator`` alone changes basis,
each way in one place: ``_coeffs`` forward, ``_inverse`` back, ``_phase``
multiplies by a diagonal (a step gives U(t), a list of them a block's rows),
and ``_values`` is ``_phase`` then ``_inverse``.  The change of basis is an
isometry, so ``_inner`` reads an inner product from coefficients and a
measurement chain ends on them (`zeno._chain`).  ``_step(t, out)``,
``_phase`` and ``_values`` write into buffers the caller hands over, so the
items of a survival report or a condition check reuse their thread's arrays
instead of allocating new ones.  Scaling multiplies float64 parts, which
rounds alike on every host.
``ShiftPropagator`` speaks the same protocol with a state's values as its
coefficients (its ``_inverse`` returns them), a whole-step count as its step
and a circular roll as its ``_phase``.  The adjoint U(t)^dagger is realized
as U(-t); only the full-space unitary group is modelled here.

Sign and layout conventions:
  * momentum acts as -i d/dx, so U(t) = exp(-i t p) translates to the right:
    values move from x to x + t,
  * wavenumbers j * 2 pi / L follow FFT bin order, and the Nyquist mode's
    is 0, so -i d/dx is real and odd (see `Grid.wavenumbers`),
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
from .statespace import MAP_MIN_POINTS, DenseSpace, Grid, WaveFunction, _blocked, _norm

#: a series term whose norm exceeds DIVERGENCE_FACTOR * ||psi|| flags divergence
DIVERGENCE_FACTOR = 1e12
#: largest anti-Hermitian part, relative to the largest entry, that
#: `dense_hermitian` accepts
HERMITIAN_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SpectralOperator:
    """Hermitian operator H = V diag(eigenvalues) V^dagger, as checked data.

    The basis selects the transform V, which only `Propagator` applies:
      * None:     V^dagger = unitary FFT (grid spaces, odd spectrum, taken as
                  the real FFT of real rows),
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
            # U(t) keeps real rows real, and Propagator.step computes [0, n/2]
            # only, when lambda[n - j] = -lambda[j] exactly for every j (j = 0
            # and n/2 are their own partners), as wavenumbers have it
            if not np.array_equal(np.roll(lam[::-1], 1), -lam):
                raise DomainError(
                    "an FFT-basis spectrum must be odd: lambda[n - j] = -lambda[j] "
                    "for every j, so lambda[0] = lambda[n / 2] = 0"
                )
            # Propagator.step builds the phases of a lattice, lambda[j] == j *
            # lambda[1] exactly for j < n/2 (as wavenumbers have it), from two
            # small tables; any other spectrum takes the plain exp
            mid = lam.size // 2
            if np.array_equal(lam[:mid], np.arange(mid) * lam[1]):
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
        """Change-of-basis constants, once: the FFT basis's weights and their reciprocals,
        V^dagger, `_rows`."""
        h = self.generator
        n = h.space.n_points
        # entries 0 and n/2 stand for themselves, each other one for itself and n - j
        weights = np.sqrt(h.space.dx / n), np.sqrt(2.0 * h.space.dx / n)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_inverse_weights", tuple(1.0 / w for w in weights))
        object.__setattr__(self, "_adjoint", None if h.basis is None else h.basis.conj().T)
        rows = max(MAP_MIN_POINTS // n, 1) if h.basis is None else 1
        object.__setattr__(self, "_rows", rows)  # the states of one chain block

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
        """Coefficients of `values`, a state's or a block's: fresh, or on the FFT basis in `out`."""
        if self._adjoint is None:
            rows = _real_rows(values)
            if out is None:  # C order, which numpy would not give the rows of a complex state
                out = np.empty(rows.shape[:-1] + (self.space.n_points // 2 + 1,), np.complex128)
            return _weighted(np.fft.rfft(rows, out=out), *self._weights)
        return self._adjoint @ values

    def step(self, t: float) -> np.ndarray:
        """Read-only phase vector exp(-i t lambda): the entries [0, n/2] on the FFT basis.

        On a lattice spectrum, lambda[j] = j * dk for j < n/2, entry j = r b
        + c is coarse[r] * fine[c] with coarse = exp(i theta b r) and fine =
        exp(i theta c), theta = -t dk and b = isqrt(n/2) + 1: two tables of
        about sqrt(n/2) exps and one outer product, within a few ulp of exp
        over the whole array, and the Nyquist entry is 1.  Any other odd
        spectrum runs exp on the entries [0, n/2].
        """
        phases = self._step(t)
        phases.setflags(write=False)
        return phases

    def _step(self, t: float, out: np.ndarray | None = None) -> np.ndarray:
        """`step(t)`'s phases, into the writable array `out` or fresh when None; one multiply-
        and-exp covers a non-lattice spectrum: all n entries on a matrix basis."""
        h = self.generator
        lam = h.eigenvalues if h.basis is not None else h.eigenvalues[:h.eigenvalues.size // 2 + 1]
        phases = np.empty(lam.size, dtype=np.complex128) if out is None else out
        if h._spacing is None:
            np.multiply(-1j * float(t), lam, out=phases)
            np.exp(phases, out=phases)
        else:
            mid = lam.size - 1
            b = math.isqrt(mid) + 1
            full, part = divmod(mid, b)
            theta = 1j * (-float(t) * h._spacing)
            coarse = np.exp(theta * (b * np.arange(full + (part > 0), dtype=np.float64)))
            fine = np.exp(theta * np.arange(b, dtype=np.float64))
            np.multiply(coarse[:full, None], fine, out=phases[:full * b].reshape(full, b))
            np.multiply(coarse[-1], fine[:part], out=phases[full * b:mid])  # the last, short row
            phases[mid] = 1.0  # the Nyquist eigenvalue is 0
        return phases

    def _values(self, coeffs: np.ndarray, diagonal, out=None, work=None) -> np.ndarray:
        """Values of `_phase(coeffs, diagonal, work)`, on the FFT basis into `out` or fresh."""
        return self._inverse(self._phase(coeffs, diagonal, work), out)

    def _phase(self, coeffs: np.ndarray, diagonal, work=None) -> np.ndarray:
        """diagonal * coeffs into `work` (fresh when None; it may be `coeffs`); a list of
        diagonals fills a block `work` row by row, from `coeffs` or its rows."""
        # always diagonal * coeffs: numpy's complex multiply is not bitwise
        # commutative, so a swapped operand order changes the last bits
        if isinstance(diagonal, list):
            rows = coeffs if coeffs.ndim == work.ndim else [coeffs] * len(work)
            for d, c, row in zip(diagonal, rows, work):
                np.multiply(d, c, out=row)
            return work
        return np.multiply(diagonal, coeffs, out=work)

    def _inner(self, a: np.ndarray, b: np.ndarray) -> complex:
        """<psi, phi> from psi's coefficients `a` and phi's `b` by `_blocked` dots: `vdot` times
        dx on a matrix basis; on the FFT basis the real part of `vdot` for each pair of real
        rows, <re, re> + <im, im> + i (<re, im> - <im, re>) over a complex state's two."""
        if self._adjoint is not None:
            return complex(_blocked(np.vdot, a, b) * self.space.dx)
        a, b = a.reshape(-1, a.shape[-1]), b.reshape(-1, b.shape[-1])

        def dot(i: int, j: int) -> float:  # a real state has no im row
            return _blocked(np.vdot, a[i], b[j]).real if i < len(a) and j < len(b) else 0.0

        return complex(dot(0, 0) + dot(1, 1), dot(0, 1) - dot(1, 0))

    def _inverse(self, coeffs: np.ndarray, out=None) -> np.ndarray:
        """Values of `coeffs`, which must be a fresh array: it is overwritten.  The FFT basis
        writes them into `out` or a fresh array, float64 for one real row's coefficients
        and complex128 for a complex state's two."""
        if self._adjoint is None:
            _weighted(coeffs, *self._inverse_weights)
            n = self.space.n_points
            if out is None:
                out = np.empty(n, np.float64 if coeffs.ndim == 1 else np.complex128)
            np.fft.irfft(coeffs, n=n, out=_real_rows(out))
            return out
        return self.generator.basis @ coeffs

    def evolve(self, psi: WaveFunction, t: float) -> WaveFunction:
        return evolve_spectral(self, psi, t)


def _weighted(coeffs: np.ndarray, edge: float, inner: float) -> np.ndarray:
    """`coeffs` with each float64 part of the entries 0 and n/2 times `edge` and of the
    others times `inner`, in place: one real multiply each, rounded alike on every host."""
    parts = coeffs.view(np.float64)
    for part, weight in ((parts[..., 2:-2], inner), (parts[..., :2], edge), (parts[..., -2:], edge)):
        np.multiply(part, weight, out=part)
    return coeffs


def _real_rows(values: np.ndarray) -> np.ndarray:
    """The real rows of float64 or complex128 values: themselves, or a complex array's
    real and imaginary parts as a view, (..., n) -> (..., 2, n)."""
    if values.dtype != np.complex128:
        return values
    return values.view(np.float64).reshape(values.shape + (2,)).swapaxes(-1, -2)


def evolve_spectral(propagator: Propagator, psi: WaveFunction, t: float) -> WaveFunction:
    """Apply exp(-i t H) through the eigenbasis phase multiply."""
    coeffs = propagator.transform(psi)
    return WaveFunction._adopt(propagator.space, propagator._values(coeffs, propagator.step(t)))


@dataclass(frozen=True, eq=False)
class ShiftPropagator:
    """Translation restricted to whole grid steps t = m * dx.

    Shares the transform/step/evolve protocol and the private `_values`,
    `_phase`, `_inverse` and `_inner` with Propagator so condition checks and
    measurement chains can run on either path: a state's values are its
    coefficients, a step is a whole-step count m and `_phase` is a circular
    roll, which moves values right by m * dx bit for bit (the zero-residual
    oracle for the spectral path at commensurate times).
    """

    grid: Grid
    _rows = 1  # a roll is one state's

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

    _values = Propagator._values  # a roll into `work`: the values are the coefficients

    def _phase(self, coeffs: np.ndarray, step: int, work=None) -> np.ndarray:
        """np.roll(coeffs, step) as one copy of two slices, into `work`, never `coeffs`, or
        fresh."""
        split = -int(step) % coeffs.shape[0]
        return np.concatenate((coeffs[split:], coeffs[:split]), out=work)

    def _inverse(self, coeffs: np.ndarray, out=None) -> np.ndarray:
        """`coeffs` themselves: they are the values, so `out` is not used."""
        return coeffs

    def _inner(self, a: np.ndarray, b: np.ndarray) -> complex:
        """<psi, phi> from their values: the Riemann sum, `vdot` times dx."""
        return complex(_blocked(np.vdot, a, b) * self.grid.dx)

    def _step(self, t: float, out=None) -> int:
        """`step(t)`: a count, so `out` is not used."""
        return self.step(t)

    def evolve(self, psi: WaveFunction, t: float) -> WaveFunction:
        return WaveFunction._adopt(self.grid, self._values(self.transform(psi), self.step(t)))


def _series_terms(h: SpectralOperator, coeffs: np.ndarray, t: float, n_terms: int):
    """Running sums of the power series on psi's eigenbasis coefficients `coeffs`.

    Term n is term n-1 times lambda (the first coeffs.shape[-1] eigenvalues),
    then times -i t / n, so no term changes basis; its norm is the
    coefficients' plain l2 norm (the change of basis is an isometry).  Terms
    1..n-1 are added in a fixed order into `rest`, in place, and `rest` is
    yielded after each of the first n_terms terms, so every caller sees the
    same bits; a consumer copies a record it keeps, and stopping the
    iteration stops the summing.  The kernel returns at the
    first term whose norm is not within DIVERGENCE_FACTOR * ||c||, inf and
    nan included, without adding it: fewer than n_terms records mean the
    series diverged.
    """
    c_norm = float(_norm(coeffs))
    lam = h.eigenvalues[:coeffs.shape[-1]]
    term, rest = coeffs, np.zeros_like(coeffs)
    yield rest
    for n in range(1, n_terms):
        # an overflowing term ends the sum, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            term = lam * term * (-1j * t / n)
            tn = float(_norm(term))
        if not tn <= DIVERGENCE_FACTOR * c_norm:
            return
        rest += term
        yield rest
