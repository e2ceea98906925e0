"""scripts/mutant_census.py: its mutants apply, each names a test it runs, and only a named
test counts as a kill."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutant_census",
                                               ROOT / "scripts" / "mutant_census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


@pytest.mark.parametrize("mutant", census.MUTANTS, ids=lambda m: m[0])
def test_each_mutant_text_occurs_once(mutant):
    _, module, text, replacement, _ = mutant
    source = (ROOT / "src" / "zenolab" / module).read_text(encoding="utf-8")
    assert source.count(text) == 1
    assert replacement != text


def test_every_killer_is_a_tier1_test_that_the_census_runs():
    killers = {m[4] for m in census.MUTANTS}
    ignored = {flag.split("=", 1)[1] for flag in census.TIER1}
    assert not {k for k in killers if k.split("::")[0] in ignored}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *sorted(killers)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert {line for line in run.stdout.splitlines() if "::" in line} == killers


@pytest.mark.parametrize("killer_run, tier1_run, expected", [
    ("failed", None, ("killed", "tests/k.py::test_k")),
    ("passed", "failed", ("mismatch", "tests/o.py::test_o (the table names tests/k.py::test_k)")),
    ("error", "failed", ("mismatch", "tests/o.py::test_o (the table names tests/k.py::test_k)")),
    ("passed", "passed", ("passed", "")),
])
def test_only_a_mutant_its_killer_misses_gets_the_full_run(killer_run, tier1_run, expected,
                                                           monkeypatch):
    runs = []

    def pytest_run(work, *args):
        runs.append(args)
        if args == ("tests/k.py::test_k",):
            return killer_run, ""
        return tier1_run, "tests/o.py::test_o" if tier1_run == "failed" else ""

    monkeypatch.setattr(census, "pytest", pytest_run)
    mutant = (*census.MUTANTS[-1][:4], "tests/k.py::test_k")
    assert census.census(mutant) == expected
    assert runs == [("tests/k.py::test_k",)] + [census.TIER1] * (tier1_run is not None)


@pytest.mark.parametrize("returncode, stdout, stderr, expected", [
    (0, "600 passed in 12.0s\n", "", ("passed", "")),
    (1, "F\nFAILED tests/test_cli.py::test_a - AssertionError\n1 failed\n", "",
     ("failed", "tests/test_cli.py::test_a")),
    (1, "E\nERROR tests/test_zeno.py::test_b - ValueError\n1 error\n", "",
     ("failed", "tests/test_zeno.py::test_b")),
    # a mutant that breaks an import: pytest exits 4 with nothing on stdout
    (4, "", "ImportError while loading conftest\nE   SyntaxError: bad\n",
     ("error", "pytest exit 4: E   SyntaxError: bad")),
    # a collection error names a module, not a test: under -x pytest exits 1
    (1, "ERROR tests/test_cli.py\n!! stopping after 1 failures !!\n1 error in 0.9s\n", "",
     ("error", "pytest exit 1: 1 error in 0.9s")),
    (2, "ERROR tests/test_cli.py - ImportError\n!! Interrupted: 1 error during collection !!\n",
     "", ("error", "pytest exit 2: !! Interrupted: 1 error during collection !!")),
    (1, "", "", ("error", "pytest exit 1: no output")),
])
def test_only_a_named_test_failure_is_a_kill(returncode, stdout, stderr, expected):
    assert census.outcome(returncode, stdout, stderr) == expected
