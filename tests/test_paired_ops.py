"""scripts/paired_ops.py: outcome and bundle bytes are counted apart, faults and RSS per side."""

from __future__ import annotations

import importlib.util
import json
import statistics
import subprocess
import sys
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


FAKE_WORKLOADS = '''
import mmap
from types import SimpleNamespace


def import_zenolab():
    pass


class Touch:
    """Each op writes one byte in each page of a fresh 4 MiB mapping: 1024 faults.

    The mappings stay open, so each op adds 4 MiB to the resident set."""

    def __init__(self, seed, tmp):
        self.inputs = [seed]
        self.kept = []

    def run(self, item):
        pages = mmap.mmap(-1, 4 << 20)
        for i in range(0, len(pages), mmap.PAGESIZE):
            pages[i] = 1
        self.kept.append(pages)
        return len(pages)

    def check(self, item, result):
        return SimpleNamespace(bundles={"n": str(result).encode()}, attempted=1,
                               failed=0, incorrect=False)


WORKLOADS = {"touch": Touch}
'''


def test_each_side_reports_the_minor_faults_of_its_ops(tmp_path, capsys):
    checkout = tmp_path / "checkout"
    (checkout / "benchmarks").mkdir(parents=True)
    (checkout / "benchmarks" / "workloads.py").write_text(FAKE_WORKLOADS)
    assert paired_ops.main([str(checkout), str(checkout), "--workload", "touch",
                            "--seed", "0", "--pairs", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    for side in paired_ops.SIDES:
        faults = [p[side]["minflt"] for p in summary["pair_records"]]
        assert all(f >= 512 for f in faults), faults
        assert summary[f"{side}_minflt_median"] == statistics.median(faults)
        line = next(s for s in lines if s.startswith(side))
        assert f"minor faults median {statistics.median(faults):.0f}" in line


def test_each_side_reports_its_peak_rss_after_its_last_op(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "benchmarks").mkdir(parents=True)
    (checkout / "benchmarks" / "workloads.py").write_text(FAKE_WORKLOADS)
    # a worker's ru_maxrss starts at the RSS of the process that spawned it,
    # so the controller runs in a fresh interpreter, not inside pytest
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "paired_ops.py"),
                          str(checkout), str(checkout), "--workload", "touch",
                          "--seed", "0", "--pairs", "3"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    summary = json.loads(lines[-1])
    for side in paired_ops.SIDES:
        rss = [p[side]["maxrss_kib"] for p in summary["pair_records"]]
        # the 4 MiB that each op keeps show in the high-water mark
        assert all(b - a >= 3 << 10 for a, b in zip(rss, rss[1:])), rss
        assert summary[f"{side}_peak_rss_mib"] == rss[-1] / 1024
        line = next(s for s in lines if s.startswith(side))
        assert f"peak RSS {rss[-1] / 1024:.1f} MiB" in line
