"""scripts/paired_ops.py: outcome and bundle bytes are counted apart."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("paired_ops", ROOT / "scripts" / "paired_ops.py")
paired_ops = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_ops)


def _side(failed=0, sha="a" * 64):
    return {"wall_s": 0.05, "cpu_s": 0.05, "attempted": 4, "failed": failed,
            "incorrect": False, "bundles_sha256": sha}


def _pair(parent, change):
    return {"index": 0, "first": "parent", "parent": parent, "change": change}


B = "b" * 64


@pytest.mark.parametrize("changes, outcome, bytes_", [
    ([{}, {}, {}], 0, 0),
    # equal outcomes with different bytes count only as bytes
    ([{"sha": B}, {}], 0, 1),
    # a different failed count is an outcome difference, whatever the bytes
    ([{"failed": 1}, {"failed": 1, "sha": B}, {}], 2, 1),
])
def test_outcome_and_bytes_are_counted_apart(changes, outcome, bytes_):
    pairs = [_pair(_side(), _side(**change)) for change in changes]
    assert paired_ops.differing(pairs) == {"pairs_differing_in_outcome": outcome,
                                           "pairs_differing_in_bytes": bytes_}
