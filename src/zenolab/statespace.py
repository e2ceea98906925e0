"""Periodic uniform grids and sampled wavefunctions, real or complex.

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

Independent evolves (a scenario's checks, condition samples, survival
schedules, sweep points) go through `_map`, on the calling thread and idle
helpers from one process-wide pool of CPUS threads.  A helper holds one of
CPUS - 1 permits while it works, so at most CPUS threads compute and a
`_map` nested inside a helper runs inline; numpy's FFT, exp and elementwise
arithmetic release the GIL.  Each item runs the same code on the same
inputs as a serial loop, so the bits do not depend on how many helpers took
part.  A scenario of MAP_MIN_POINTS or more points called on the main
thread runs on a pool thread, whose malloc arena refaults fewer pages
(`_run_apart`), while the main thread waits with no permit.  Helpers hold
at most CPUS - 1 pool threads and only the waiting main thread hands the
pool a scenario, so one thread is always free for it.  An interrupt of a
wait (`_join`) or a map item sets `_stopping` until nothing handed to the
pool works: every map stops after its item, a chain after its segment.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SpaceMismatchError

#: most elements per BLAS call in a reduction, below OpenBLAS's threading cutoff
REDUCTION_BLOCK = 8192
#: fewest points per state for which `_map` hands evolves to helpers; a smaller
#: item takes about as long as its handoff
MAP_MIN_POINTS = 2**14
#: exponents of a state profile at or below this give a 0.0 sample: exp of it is
#: 2^-511, whose square is float64's least normal number 2^-1022
EXP_CUT = -511 * math.log(2.0)

try:
    #: CPUs this process may run on
    CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    CPUS = os.cpu_count() or 1

# a helper holds one permit while it works; the pool's one thread more is `_run_apart`'s
_permits = threading.BoundedSemaphore(CPUS - 1)
_pool = ThreadPoolExecutor(max_workers=CPUS, thread_name_prefix="zenolab")
# set by an interrupt until no fn handed to the pool, `_working`, runs
_stopping = threading.Event()
_working: list = []
_lock = threading.Lock()  # for each check of `_working` and the set or clear it decides


def _submit(fn):
    """_pool.submit(fn), with fn in `_working` until it returns or raises."""
    def work():
        try:
            return fn()
        finally:  # before the future is done, so that its waiters see this
            with _lock:
                _working.remove(fn)
                if not _working:
                    _stopping.clear()

    _working.append(fn)  # atomic; a clear it races found all earlier work done
    return _pool.submit(work)


def _halt() -> None:
    """Set `_stopping` for an interrupt while some fn in `_working` is left to clear it."""
    with _lock:
        if _working:
            _stopping.set()


def _join(futures) -> list:
    """The futures' results, in timed waits that raise an interrupt: the first
    sets `_stopping` and is raised once they are done, a second at once."""
    try:
        while wait(futures, timeout=0.05).not_done:
            pass
    except KeyboardInterrupt:
        _halt()
        while wait(futures, timeout=0.05).not_done:
            pass
        raise
    return [f.result() for f in futures]


def _map(fn, items, most: int | None = None, points: int | None = None) -> list:
    """[fn(x) for x in items] in input order, on this thread and idle helpers.

    The caller takes items from a shared counter itself.  Before each item
    it runs, while items are left for others, it adds a helper for every
    permit it gets without waiting, at most `most` - 1 helpers in all, so a
    permit freed after the map began still joins it.  Items that evolve
    states of `points` < MAP_MIN_POINTS points, or with `most` == 1, run as
    the serial loop.  After an error no new item starts; once every helper
    has finished, the error of the earliest failing item is raised, the one
    a serial loop would raise, since items are taken in order.
    """
    if most == 1 or (points is not None and points < MAP_MIN_POINTS):
        return [fn(x) for x in items]
    items = list(items)
    results = [None] * len(items)
    errors: dict[int, BaseException] = {}
    claim = itertools.count()  # next() on it is atomic under the GIL
    helpers = []

    def run(i: int) -> None:
        try:
            if _stopping.is_set():
                raise KeyboardInterrupt  # the main thread was interrupted
            results[i] = fn(items[i])
        except BaseException as exc:
            if isinstance(exc, KeyboardInterrupt):  # the helpers' items stop too
                _halt()
            errors[i] = exc

    def helper() -> None:
        try:
            while not errors and (i := next(claim)) < len(items):
                run(i)
        finally:
            _permits.release()

    wanted = min(len(items), len(items) if most is None else most) - 1
    while not errors and (i := next(claim)) < len(items):
        # recruit only while some item is still left for a helper to take
        while i + 1 < len(items) and len(helpers) < wanted and _permits.acquire(blocking=False):
            helpers.append(_submit(helper))
        run(i)
    _join(helpers)
    if errors:
        raise errors[min(errors)]
    return results


def _run_apart(fn, points: int | None):
    """fn(), on a pool thread when the main thread calls with `points` >= MAP_MIN_POINTS."""
    if (points or 0) < MAP_MIN_POINTS or threading.current_thread() is not threading.main_thread():
        return fn()
    return _join([_submit(fn)])[0]


def _blocked(dot, a: np.ndarray, b: np.ndarray):
    """dot(a, b) of two 1-D arrays; past one block, the in-order sum of blockwise dots.

    Blocks are views of at most REDUCTION_BLOCK elements, so no BLAS call
    wakes a thread pool and the sum does not depend on the host.
    """
    if a.shape[0] <= REDUCTION_BLOCK:
        return dot(a, b)
    total = dot(a[:REDUCTION_BLOCK], b[:REDUCTION_BLOCK])
    for i in range(REDUCTION_BLOCK, a.shape[0], REDUCTION_BLOCK):
        total = total + dot(a[i:i + REDUCTION_BLOCK], b[i:i + REDUCTION_BLOCK])
    return total


def _norm(values: np.ndarray) -> np.floating:
    """np.linalg.norm of a complex array's entries, sqrt(re.re + im.im), with blocked dots."""
    re, im = values.reshape(-1).real, values.reshape(-1).imag
    return np.sqrt(_blocked(np.dot, re, re) + _blocked(np.dot, im, im))


def _norm_sq(values: np.ndarray, dx: float) -> float:
    """||psi||^2 of the samples `values` at sample weight dx."""
    return float(np.real(_blocked(np.vdot, values, values)) * dx)


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
        if not math.isfinite(self.length):
            # an infinite dx turns every sample and step ratio into nan
            raise DomainError(f"domain [{self.x_min:g}, {self.x_max:g}] is too wide: "
                              "its length overflows")
        n = self.n_points
        if n < 2 or (n & (n - 1)) != 0:
            raise DomainError(f"n_points must be a power of two >= 2, got {n}")
        if n > np.iinfo(np.intp).max // 16:  # bytes of a complex128 array
            raise DomainError(f"n_points {n} is too large: a complex128 state would "
                              "exceed numpy's largest array")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    def positions(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers j * dk in FFT bin order, dk = 2 pi / (n dx), j = 0, 1, ..,
        n/2 - 1, then 0 at the Nyquist bin n/2, then -(n/2 - 1), .., -1.

        Each entry is one product of an exact j and dk, so the spectrum is an
        exact lattice (k[j] == j * k[1] for j < n/2) and odd (k[n - j] == -k[j]
        for every j), which `Propagator.step` exploits.  The Nyquist mode has no
        partner of opposite sign, so only 0 there keeps -i d/dx real, and U(t)
        real states real (Trefethen, Spectral Methods in MATLAB, 2000, ch. 3).
        """
        n = self.n_points
        j = np.arange(n, dtype=np.float64)
        j[n // 2:] -= n
        j[n // 2] = 0.0
        return j * (2.0 * np.pi / (n * self.dx))

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
    """Amplitudes over a Grid or DenseSpace, immutable after creation: float64 for
    real input, which a momentum operator's U(t) keeps real, else complex128."""

    space: Grid | DenseSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        kind = np.complex128 if np.iscomplexobj(self.values) else np.float64
        v = np.array(self.values, dtype=kind)  # converts and copies in one pass
        if v.shape != (self.space.n_points,):
            raise SpaceMismatchError(
                f"amplitude shape {v.shape} does not match space with "
                f"{self.space.n_points} points"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def _adopt(cls, space: Grid | DenseSpace, values: np.ndarray) -> "WaveFunction":
        """Wrap a freshly computed float64 or complex128 array of the right shape, uncopied.

        The array is made read-only; the caller must hold no other reference
        it could write through.
        """
        psi = object.__new__(cls)
        object.__setattr__(psi, "space", space)
        values.setflags(write=False)
        object.__setattr__(psi, "values", values)
        return psi

    def norm_sq(self) -> float:
        return _norm_sq(self.values, self.space.dx)

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def normalized(self) -> "WaveFunction":
        n = self.norm()
        if n == 0.0:
            raise DomainError("cannot normalize the zero state")
        return WaveFunction._adopt(self.space, self.values * (1.0 / n))

    def _require_space(self, space: Grid | DenseSpace) -> None:
        """SpaceMismatchError unless this state lives on `space`."""
        if self.space != space:
            raise SpaceMismatchError(f"state lives on {self.space}, not on {space}")


def _gaussian_variance(sigma: float) -> np.float64:
    """2 pi sigma^2, the Gaussian's normalization, when float64 holds it."""
    # a numpy scalar's square overflows to inf, where a Python float's raises
    with np.errstate(over="ignore"):
        variance = 2.0 * np.pi * np.float64(sigma)**2
    if variance == np.inf:
        raise DomainError(f"sigma {sigma} is too large: 2 pi sigma^2 overflows")
    if variance == 0.0:
        raise DomainError(f"sigma {sigma} is too small: 2 pi sigma^2 underflows to 0")
    return variance


def _exp(arg: np.ndarray) -> np.ndarray:
    """exp(arg), 0.0 where arg <= EXP_CUT, by numpy's complex exp: unlike its real exp,
    whose AVX-512 loops round differently, that calls libm at every SIMD level."""
    out = np.zeros(arg.shape)
    live = arg > EXP_CUT
    parts = arg[live].astype(np.complex128)
    out[live] = np.exp(parts, out=parts).real
    return out


def make_gaussian(grid: Grid, center: float, sigma: float, k0: float = 0.0) -> WaveFunction:
    """Normalized Gaussian packet

        psi(x) = (2 pi sigma^2)^(-1/4) exp(-(x-center)^2/(4 sigma^2)) exp(i k0 x)

    so |psi|^2 has mean `center` and standard deviation `sigma`.  Requires the
    8-sigma support interval to fit inside the domain (periodic wrap guard).
    """
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if not math.isfinite(float(k0) * max(abs(grid.x_min), abs(grid.x_max))):
        raise DomainError(f"carrier k0 = {k0} makes k0 * x non-finite on the domain "
                          f"[{grid.x_min}, {grid.x_max}]")
    lo, hi = center - 8.0 * sigma, center + 8.0 * sigma
    if not grid.contains(lo, hi):
        raise DomainError(
            f"gaussian support [{lo}, {hi}] (8 sigma) exceeds domain "
            f"[{grid.x_min}, {grid.x_max}]"
        )
    variance = _gaussian_variance(sigma)
    x = grid.positions()
    # a sigma far below dx overflows the exponent to -inf, i.e. a zero sample
    with np.errstate(over="ignore"):
        envelope = variance ** (-0.25) * _exp(-((x - center) ** 2) / (4.0 * sigma**2))
    if not envelope.any():
        raise DomainError(f"sigma {sigma} is too small for the grid step dx = {grid.dx}: "
                          f"no sample carries weight")
    if k0 == 0.0:  # a real state, without the carrier's 1 + 0j
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
    vals[inside] = _exp(-1.0 / (1.0 - u[inside] ** 2))
    if not vals.any():
        raise DomainError(f"support [{support_lo}, {support_hi}] holds no weighted sample "
                          f"of the grid (dx = {grid.dx})")
    return WaveFunction(grid, vals).normalized()


def make_plane_wave(grid: Grid, mode: int) -> WaveFunction:
    """Normalized plane wave exp(i k x) of FFT bin `mode`: k = j dk, j = mode mod n,
    less n past n/2, so the Nyquist bin's wave is (-1)^j up to a phase, not the
    constant that its wavenumber 0 would give."""
    n = grid.n_points
    j = mode % n
    k = (j - n if j > n // 2 else j) * (2.0 * np.pi / (n * grid.dx))
    x = grid.positions()
    return WaveFunction(grid, np.exp(1j * k * x) * (1.0 / np.sqrt(grid.length))).normalized()
