"""Host-speed pacing: reference kernels timed next to every measurement.

Shared hosts slow all work at once, by up to 2x, for seconds to minutes at
a time, which moves raw medians by 20-30% between runs of the same code.  A
reference kernel here never calls zenolab, so no change to the program moves
it; only the host's speed does.  `paced` scales a measured time by the
kernel's nominal time over its time around the measurement, giving seconds
on a host where the kernel takes its nominal time.  A program that gets 20%
slower still reads 20% slower.

A kernel tracks the host only for work shaped like its own, so there are
two: `Reference` (2^12-point FFTs, a complex exp, an interpreted loop, in
the calling thread) for serial operations and for set-up, and
`ThreadedReference` (2^16-point FFTs and exps that release the GIL, in as
many threads as the operation runs) for operations that use several
threads at once.
"""

from __future__ import annotations

import statistics
import threading
import time

#: kernel timings per reference sample; the sample is their median
REPEATS = 3


class Reference:
    """Serial kernel: 2^12-point FFTs, a complex exp and an interpreted loop."""

    #: seconds one kernel timing takes on the nominal host: about its median
    #: next to the workloads on 2 vCPUs of a shared Xeon host
    nominal = 0.007
    threads = 1

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        rng = np.random.default_rng(12345)
        self._states = [self._state(rng) for _ in range(self.threads)]
        self.samples: list[float] = []
        self._kernel()  # warm-up, unrecorded

    def _state(self, rng):
        return rng.standard_normal(2**12) + 1j * rng.standard_normal(2**12)

    def _work(self, x) -> None:
        np = self._np
        for _ in range(20):
            np.fft.ifft(np.exp(-0.3j * np.abs(x)) * np.fft.fft(x))
            acc = 0.0
            for k in range(200):
                acc += k * 0.5

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        self._work(self._states[0])
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Median of REPEATS kernel timings, recorded in `samples`."""
        t = statistics.median(self._kernel() for _ in range(REPEATS))
        self.samples.append(t)
        return t


class ThreadedReference(Reference):
    """`threads` threads at once, each on its own 2^16-point state."""

    nominal = 0.045

    def __init__(self, threads: int) -> None:
        self.threads = threads
        super().__init__()

    def _state(self, rng):
        return rng.standard_normal(2**16) + 1j * rng.standard_normal(2**16)

    def _work(self, x) -> None:
        np = self._np
        for _ in range(3):
            np.fft.ifft(np.exp(-0.3j * np.abs(x)) * np.fft.fft(x))

    def _kernel(self) -> float:
        workers = [threading.Thread(target=self._work, args=(x,)) for x in self._states]
        t0 = time.perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        return time.perf_counter() - t0


def paced(times, refs, nominal: float) -> list[float]:
    """Scale times[i] to a host where the kernel takes `nominal` seconds.

    refs holds one more sample than times: refs[i] was taken right before
    times[i] and refs[i + 1] right after it.
    """
    if len(refs) != len(times) + 1:
        raise ValueError("need one reference sample before and after every time")
    return [t * 2 * nominal / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]


class Pacer:
    """Wall and cpu times of segments of work, with a reference sample
    before the first segment and right after each one."""

    def __init__(self, ref: Reference) -> None:
        self.ref = ref
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.refs = [ref.sample()]
        self._c0 = self._t0 = 0.0

    def begin(self) -> None:
        self._c0, self._t0 = time.process_time(), time.perf_counter()

    def end(self) -> None:
        t1, c1 = time.perf_counter(), time.process_time()
        self.walls.append(t1 - self._t0)
        self.cpus.append(c1 - self._c0)
        self.refs.append(self.ref.sample())

    def split(self) -> None:
        """End the running segment and begin the next; an op calls this
        between its parts, so that long ops get reference samples inside."""
        self.end()
        self.begin()

    def per_op(self, segments) -> tuple[list[float], list[float], list[float]]:
        """Unscaled walls, scaled walls and scaled cpu times per op, where
        op k spans the segments segments[k] = (first, end)."""
        nominal = self.ref.nominal
        walls = paced(self.walls, self.refs, nominal)
        cpus = paced(self.cpus, self.refs, nominal)
        return ([sum(self.walls[a:b]) for a, b in segments],
                [sum(walls[a:b]) for a, b in segments],
                [sum(cpus[a:b]) for a, b in segments])
