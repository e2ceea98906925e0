"""The repository's pytest configuration reports a failing property test."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_always_fails(x):
    assert x < 0
"""


def test_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    # hypothesis's failure reporter imports libcst, which warns through
    # mypy_extensions; under filterwarnings = error that warning used to
    # stop the run with INTERNALERROR (exit 3) and skip the remaining tests
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
