"""Blocked vector reductions: same bits as numpy up to one block, host-free above.

Every norm, inner product and zone mass goes through
`statespace._blocked`, which feeds BLAS blocks of at most REDUCTION_BLOCK
elements and sums them in order.  These tests pin the helper against
`np.vdot` / `np.linalg.norm` and against the in-order block sum, check that
no reduction in the translation scenarios hands BLAS a longer vector, and
that bundles no longer depend on how many threads OpenBLAS may use.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zenolab
from zenolab.scenarios import ScenarioSpec, run_scenario
from zenolab.statespace import REDUCTION_BLOCK, _blocked, _norm

TRANSLATION_SCENARIOS = ("counterexample", "hm-invariance")


def _vector(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


# ----------------------------------------------------------------------
# the helper against numpy and against the in-order block sum
# ----------------------------------------------------------------------


def test_reduction_block_is_below_openblas_threading_cutoff():
    assert REDUCTION_BLOCK == 8192 < 10000


@pytest.mark.parametrize("n", [1, 4096, 8192])
def test_one_block_matches_numpy_bit_for_bit(n):
    a, b = _vector(n, 1), _vector(n, 2)
    assert _bits(_blocked(np.vdot, a, b)) == _bits(np.vdot(a, b))
    assert _bits(_blocked(np.vdot, a, a)) == _bits(np.vdot(a, a))
    assert _bits(_norm(a)) == _bits(np.linalg.norm(a))


@pytest.mark.parametrize("n", [16384, 65536])
def test_long_vectors_are_the_in_order_block_sum(n):
    a, b = _vector(n, 3), _vector(n, 4)
    starts = range(0, n, REDUCTION_BLOCK)

    def block_sum(dot, x, y):
        total = dot(x[:REDUCTION_BLOCK], y[:REDUCTION_BLOCK])
        for i in starts[1:]:
            total = total + dot(x[i:i + REDUCTION_BLOCK], y[i:i + REDUCTION_BLOCK])
        return total

    assert _bits(_blocked(np.vdot, a, b)) == _bits(block_sum(np.vdot, a, b))
    re, im = a.real, a.imag
    expected = np.sqrt(block_sum(np.dot, re, re) + block_sum(np.dot, im, im))
    assert _bits(_norm(a)) == _bits(expected)
    # and it is still the same number as numpy's unblocked reduction
    assert _blocked(np.vdot, a, b) == pytest.approx(np.vdot(a, b), rel=1e-13)
    assert _norm(a) == pytest.approx(np.linalg.norm(a), rel=1e-13)


# ----------------------------------------------------------------------
# no BLAS reduction longer than one block in the translation scenarios
# ----------------------------------------------------------------------


def test_translation_scenarios_never_reduce_more_than_one_block():
    largest = {"vdot": 0, "dot": 0, "norm": 0}
    calls = dict.fromkeys(largest, 0)

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            largest[name] = max(largest[name], *(np.size(a) for a in args))
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "vdot", recording("vdot", np.vdot))
        mp.setattr(np, "dot", recording("dot", np.dot))
        mp.setattr(np.linalg, "norm", recording("norm", np.linalg.norm))
        for name in TRANSLATION_SCENARIOS:
            run_scenario(name, ScenarioSpec(name=name, grid_points=2**15))
    assert calls["vdot"] > 0
    assert max(largest.values()) <= REDUCTION_BLOCK, largest


# ----------------------------------------------------------------------
# bundle bytes do not depend on OpenBLAS's thread count
# ----------------------------------------------------------------------


def _blas_is_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


def _bundles(tmp_path: Path, threads: int) -> dict[str, bytes]:
    out = tmp_path / f"threads-{threads}"
    src = str(Path(zenolab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name in TRANSLATION_SCENARIOS:
        subprocess.run(
            [sys.executable, "-m", "zenolab.cli", "run", name,
             "--grid-points", "16384", "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
    return {name: (out / name / "bundle.json").read_bytes() for name in TRANSLATION_SCENARIOS}


@pytest.mark.skipif(not _blas_is_openblas(),
                    reason="numpy's BLAS is not OpenBLAS, so OPENBLAS_NUM_THREADS has no effect")
def test_bundles_do_not_depend_on_blas_threads(tmp_path):
    assert _bundles(tmp_path, 1) == _bundles(tmp_path, 2)
