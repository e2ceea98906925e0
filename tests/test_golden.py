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

import pytest

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
