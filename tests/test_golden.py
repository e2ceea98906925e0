"""Golden outputs: every file a default run emits, and `zenolab list`, byte for byte.

The files under tests/golden/ were written by `zenolab run <scenario>` at the
default spec and by `zenolab list`.  Only two bundle fields are masked:
provenance.version (it reads 0+unknown or the installed version, depending
on how the package is imported) and provenance.numpy.  Neither changes what
a run computes.  The floats come from numpy's FFT on the host that wrote
them; a different numpy build may round differently in the last digit.
"""

from __future__ import annotations

import re
import runpy
from pathlib import Path

import numpy as np
import pytest

from oracles import child_bundles
from zenolab.cli import main

GOLDEN = Path(__file__).parent / "golden"
STAIRCASE = Path(__file__).parent.parent / "scripts" / "zeno_staircase.py"
SCENARIO_NAMES = ("counterexample", "hm-invariance", "rabi-control", "series-validity")
MASKED = re.compile(rb'"(numpy|version)":"[^"]*"')


def _masked(name: str, data: bytes) -> bytes:
    if name != "bundle.json":
        return data
    out, count = MASKED.subn(rb'"\1":"*"', data)
    assert count == 2, "bundle.json should carry exactly one version and one numpy field"
    return out


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_default_run_matches_golden(scenario, tmp_path, capsys):
    """Each output path first holds junk longer than its golden file: the run writes over it
    in place, so it must also cut the old tail off."""
    produced = tmp_path / scenario
    expected = GOLDEN / scenario
    produced.mkdir()
    for path in expected.iterdir():
        (produced / path.name).write_bytes(b"stale\n" * (path.stat().st_size // 6 + 100))
    assert main(["run", scenario, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in produced.iterdir()) == sorted(p.name for p in expected.iterdir())
    for path in sorted(expected.iterdir()):
        assert _masked(path.name, (produced / path.name).read_bytes()) == path.read_bytes(), path.name


def test_list_matches_golden(capsys):
    assert main(["list"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "list.txt").read_bytes()


def test_zeno_staircase_matches_golden(capsys):
    """The staircase script prints the same lines; its s - s_free column is roundoff-sized."""
    runpy.run_path(str(STAIRCASE), run_name="__main__")
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "zeno_staircase.txt").read_bytes()


def _dispatch_levels() -> list[str]:
    """The x86-64 SIMD levels numpy dispatches to on this host, from X86_V3 up, lowest first."""
    umath = getattr(np._core, "_multiarray_umath", None)
    targets = list(getattr(umath, "__cpu_dispatch__", ()))
    features = getattr(umath, "__cpu_features__", {})
    if "X86_V3" not in targets:
        return []
    return [t for t in targets[targets.index("X86_V3"):] if features.get(t)]


def test_bundles_do_not_depend_on_the_simd_level(tmp_path):
    """numpy picks its ufunc loops by the CPU's features, and some (real exp among
    them) round differently at different levels; the four default bundles are the
    same bytes at every level from X86_V3 up that this host has, each reached by
    turning off the dispatch targets above it."""
    levels = _dispatch_levels()
    if len(levels) < 2:
        pytest.skip("numpy dispatches to no x86-64 level above X86_V3 on this host")
    bundles = [child_bundles(tmp_path / f"level-{i}", SCENARIO_NAMES,
                             "NPY_DISABLE_CPU_FEATURES", " ".join(levels[i + 1:]))
               for i in range(len(levels))]
    assert all(b == bundles[0] for b in bundles[1:])
