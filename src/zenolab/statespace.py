"""Periodic uniform grids and sampled complex wavefunctions.

Conventions used throughout the package: hbar = 1, lengths and times are
dimensionless, and the inner product is the plain Riemann sum

    <psi|phi> = sum_j conj(psi_j) * phi_j * dx

with no endpoint correction, so the projectors onto the sample ranges on
either side of a split add up exactly to the identity.  Grids are periodic
with a power-of-two point count (FFT pathways); state factories enforce
containment margins so nothing silently wraps around the domain edge.

Every vector reduction in the package (norms, inner products, zone masses)
goes through `_blocked`, which hands BLAS consecutive blocks of at most
REDUCTION_BLOCK = 8192 = 2^13 elements and adds the partial results in
order.  OpenBLAS passes a dot product of more than 10000 elements to its
thread pool, whose threads then spin after the call, compete with
`sweep --jobs` workers, and make the summation order depend on the host's
thread count.  Blocks of 8192 stay single-threaded, so reductions cost no
idle CPU and give the same bits on every host; vectors of 8192 or fewer
elements are one block and get exactly the bits of `np.vdot` and
`np.linalg.norm`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SpaceMismatchError

#: most elements per BLAS call in a reduction, below OpenBLAS's threading cutoff
REDUCTION_BLOCK = 8192


def _blocked(dot, a: np.ndarray, b: np.ndarray):
    """dot(a, b) of two 1-D arrays as the in-order sum of blockwise dots.

    Blocks are views of at most REDUCTION_BLOCK elements, so no BLAS call
    wakes a thread pool and the sum does not depend on the host.
    """
    total = dot(a[:REDUCTION_BLOCK], b[:REDUCTION_BLOCK])
    for i in range(REDUCTION_BLOCK, a.shape[0], REDUCTION_BLOCK):
        total = total + dot(a[i:i + REDUCTION_BLOCK], b[i:i + REDUCTION_BLOCK])
    return total


def _norm(values: np.ndarray) -> np.floating:
    """np.linalg.norm of a complex vector, sqrt(re.re + im.im), with blocked dots."""
    re, im = values.real, values.imag
    return np.sqrt(_blocked(np.dot, re, re) + _blocked(np.dot, im, im))


@dataclass(frozen=True)
class Grid:
    """Uniform sampling x_j = x_min + j*dx, j = 0..n_points-1, periodic topology.

    x_max itself is not a sample; it wraps back onto x_min.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not self.x_max > self.x_min:
            raise DomainError(f"empty domain [{self.x_min}, {self.x_max}]")
        n = self.n_points
        if n < 2 or (n & (n - 1)) != 0:
            raise DomainError(f"n_points must be a power of two >= 2, got {n}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    def positions(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers in FFT bin order.

        Symmetric layout; the single Nyquist mode is assigned +pi/dx so the
        spectrum is a fixed, documented convention.
        """
        k = 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)
        k[self.n_points // 2] = abs(k[self.n_points // 2])
        return k

    def contains(self, lo: float, hi: float) -> bool:
        """True when the interval [lo, hi] lies inside the domain."""
        return self.x_min <= lo and hi <= self.x_max


@dataclass(frozen=True)
class DenseSpace:
    """Finite-dimensional state space with unit sample weight (dx = 1)."""

    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DomainError(f"dimension must be positive, got {self.dim}")

    @property
    def n_points(self) -> int:
        return self.dim

    @property
    def dx(self) -> float:
        return 1.0


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Complex amplitudes over a Grid or DenseSpace, immutable after creation."""

    space: Grid | DenseSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.space.n_points,):
            raise SpaceMismatchError(
                f"amplitude shape {v.shape} does not match space with "
                f"{self.space.n_points} points"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def _adopt(cls, space: Grid | DenseSpace, values: np.ndarray) -> "WaveFunction":
        """Wrap a freshly computed complex128 array of the right shape, uncopied.

        The array is made read-only; the caller must hold no other reference
        it could write through.
        """
        psi = object.__new__(cls)
        object.__setattr__(psi, "space", space)
        values.setflags(write=False)
        object.__setattr__(psi, "values", values)
        return psi

    def norm_sq(self) -> float:
        return float(np.real(_blocked(np.vdot, self.values, self.values)) * self.space.dx)

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def normalized(self) -> "WaveFunction":
        n = self.norm()
        if n == 0.0:
            raise DomainError("cannot normalize the zero state")
        return WaveFunction(self.space, self.values / n)

    def _check_space(self, other: "WaveFunction") -> None:
        if self.space != other.space:
            raise SpaceMismatchError("states live on different spaces")

    def __add__(self, other: "WaveFunction") -> "WaveFunction":
        self._check_space(other)
        return WaveFunction(self.space, self.values + other.values)

    def __sub__(self, other: "WaveFunction") -> "WaveFunction":
        self._check_space(other)
        return WaveFunction(self.space, self.values - other.values)

    def __mul__(self, scalar: complex) -> "WaveFunction":
        return WaveFunction(self.space, self.values * scalar)

    __rmul__ = __mul__


def inner_product(psi: WaveFunction, phi: WaveFunction) -> complex:
    """Riemann-sum inner product, conjugate-linear in the first argument."""
    psi._check_space(phi)
    return complex(_blocked(np.vdot, psi.values, phi.values) * psi.space.dx)


def make_gaussian(grid: Grid, center: float, sigma: float, k0: float = 0.0) -> WaveFunction:
    """Normalized Gaussian packet

        psi(x) = (2 pi sigma^2)^(-1/4) exp(-(x-center)^2/(4 sigma^2)) exp(i k0 x)

    so |psi|^2 has mean `center` and standard deviation `sigma`.  Requires the
    8-sigma support interval to fit inside the domain (periodic wrap guard).
    """
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    lo, hi = center - 8.0 * sigma, center + 8.0 * sigma
    if not grid.contains(lo, hi):
        raise DomainError(
            f"gaussian support [{lo}, {hi}] (8 sigma) exceeds domain "
            f"[{grid.x_min}, {grid.x_max}]"
        )
    # sigma**2 overflows to inf for a numpy scalar and raises for a Python float
    try:
        with np.errstate(over="ignore"):
            variance = 2.0 * np.pi * sigma**2
    except OverflowError:
        variance = np.inf
    if variance == np.inf:
        raise DomainError(f"sigma {sigma} is too large: 2 pi sigma^2 overflows")
    if variance == 0.0:
        raise DomainError(f"sigma {sigma} is too small: 2 pi sigma^2 underflows to 0")
    x = grid.positions()
    envelope = variance ** (-0.25) * np.exp(-((x - center) ** 2) / (4.0 * sigma**2))
    if k0 == 0.0:
        # the carrier would be exactly 1 + 0j, which leaves every bit alone
        return WaveFunction(grid, envelope).normalized()
    return WaveFunction(grid, envelope * np.exp(1j * k0 * x)).normalized()


def make_bump(grid: Grid, support_lo: float, support_hi: float) -> WaveFunction:
    """Normalized C-infinity bump, exactly zero at every sample outside (lo, hi).

    Profile exp(-1/(1-u^2)) with u the affine map of [lo, hi] onto [-1, 1].
    Smooth but not analytic at the support edges.
    """
    if not support_lo < support_hi:
        raise DomainError(f"empty support [{support_lo}, {support_hi}]")
    if not grid.contains(support_lo, support_hi):
        raise DomainError(
            f"support [{support_lo}, {support_hi}] exceeds domain "
            f"[{grid.x_min}, {grid.x_max}]"
        )
    x = grid.positions()
    u = (2.0 * x - support_lo - support_hi) / (support_hi - support_lo)
    inside = np.abs(u) < 1.0
    vals = np.zeros(grid.n_points)
    vals[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return WaveFunction(grid, vals).normalized()


def make_plane_wave(grid: Grid, mode: int) -> WaveFunction:
    """Normalized plane wave exp(i k x) for the given FFT mode index."""
    k = grid.wavenumbers()[mode]
    x = grid.positions()
    return WaveFunction(grid, np.exp(1j * k * x) / np.sqrt(grid.length)).normalized()
