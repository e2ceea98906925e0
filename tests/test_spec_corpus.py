"""Spec corpus: exit code, output and every emitted file of many specs, hashed.

The golden test pins the four default runs byte for byte.  This corpus pins
the rest of the spec domain by hash: small and large grids, the sigmas at
and past the validity windows, the exit-1 specs that still fail a physical
check, the exit-2 paths and one parallel sweep.  Each entry of
`spec_corpus.json` holds the exit code of `zenolab <spec>` and a sha256 of
its stdout, its stderr and every file it wrote under the output root.  The
output root reads `<out>` in stdout and stderr, and bundle.json is masked
as in `test_golden.py` (provenance.version and provenance.numpy).

An entry may change only when changing that spec's behaviour is the intent
of the change that moves it.  To rewrite the manifest from the current
code, run `PYTHONPATH=src python tests/test_spec_corpus.py`: it prints what
moved in each entry against the manifest it replaces (`diff_entries`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from test_golden import _masked
from zenolab.cli import main

MANIFEST = Path(__file__).parent / "spec_corpus.json"

SPECS = (
    # every scenario from 256 to 8192 points
    *(f"run {s} --grid-points {n}"
      for s in ("counterexample", "hm-invariance", "series-validity")
      for n in (256, 1024, 2048, 8192)),
    "run counterexample --grid-points 256 --sigma 0.8",
    "run hm-invariance --grid-points 16384",
    "run series-validity --grid-points 64",
    "run series-validity --grid-points 32",
    # sigma inside, at and past the windows
    *(f"run {s} --sigma {sigma}"
      for s in ("counterexample", "hm-invariance", "series-validity")
      for sigma in ("0.8", "1.035", "1.05", "1e-160")),
    # centre/sigma at most 5.3: the untruncated oracle misreads the clipped state
    "run hm-invariance --sigma 1.5",
    "run hm-invariance --sigma 2",
    "run hm-invariance --N 0",
    "run hm-invariance --N 13",
    # prepared-state centers, final times and domains off the defaults
    "run hm-invariance --center -4",
    "run hm-invariance --center -6",
    "run hm-invariance --time 10",
    "run series-validity --time 2",
    # the Gaussian budget |t| * k_max <= ln(1e6) at k_max = 6 / sigma: t <= 2.30 sigma
    "run series-validity --time 2.3",
    "run series-validity --time 2.4",
    "run series-validity --time 0",
    "run series-validity --time 1e-300",
    "run series-validity --x-min -20 --x-max 20",
    "run counterexample --x-min=-1e307 --x-max=1e307",
    "run series-validity --x-min=-1e307 --x-max=1e307",
    # a sigma whose Gaussian grid length 1024 pi sigma / 6 overflows
    "run series-validity --sigma 1e306",
    # grids too small for counterexample's 81-mode windowed field, and rabi
    # times whose products overflow
    "run counterexample --grid-points 32",
    "run counterexample --grid-points 64",
    "run rabi-control --omega=1e308 --time=1e308",
    "run rabi-control --omega=5e-324",
    # rabi times whose closed-form deficits sit at roundoff: at t = 1e-6 the N = 128
    # deficit is 0.0 in float64, so the slope fit judges roundoff
    "run rabi-control --time 1e-6",
    "run rabi-control --time 1e-9",
    # sigmas whose Gaussian spectra reach past k_max = pi / dx at 4096 points
    "run counterexample --sigma 0.01",
    "run hm-invariance --sigma 0.003",
    # tolerances that no residual or survival gap can reach
    "run counterexample --tolerance-falsify 2",
    "run hm-invariance --tolerance-invariance 5",
    "run rabi-control --time 1.0",
    "run rabi-control --omega 2",
    "run rabi-control --omega 2 --time 10",
    # exit 1 outside validity windows not yet written: tolerances below the
    # roundoff they bound (cond_I 8.70e-18, ia_forward 1.03e-19), a falsify
    # tolerance above the largest leakage (cond_II 0.998691), and a grid step
    # of 0.178 whose spectral tail fails cond_I off the lattice (1.58e-7).
    # hm-invariance's 1e-16 entry exits 2: below float64 eps no tolerance can
    # tell a survival difference's rounding (2.8e-16 here) from physics; 1e-15,
    # a few eps, pins the other side of that floor and exits 0
    "run hm-invariance --tolerance-invariance 1e-16",
    "run hm-invariance --tolerance-invariance 1e-15",
    "run counterexample --tolerance-invariance 1e-20",
    "run counterexample --tolerance-falsify 0.999",
    "run counterexample --x-max 690",
    # keys the scenario does not read
    "run rabi-control --grid-points 256",
    "run series-validity --N 3",
    "run counterexample --time 1.0",
    # one output format each, and a sweep with a passing, a failing and an
    # erroring point
    "run counterexample --seed 7 --format csv",
    "run rabi-control --format bundle",
    "sweep hm-invariance --param sigma --values 0.8,1.2,1e-160 --grid-points 1024 --jobs 2",
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_spec(spec: str) -> dict:
    """The manifest entry of one spec, from an in-process `cli.main` run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(spec.split() + ["--out", tmp])
        root = Path(tmp)
        files = {str(p.relative_to(root)): _sha(_masked(p.name, p.read_bytes()))
                 for p in sorted(root.rglob("*")) if p.is_file()}
    return {
        "exit": code,
        "stdout": _sha(stdout.getvalue().replace(tmp, "<out>").encode("utf-8")),
        "stderr": _sha(stderr.getvalue().replace(tmp, "<out>").encode("utf-8")),
        "files": files,
    }


def diff_entries(old: dict, new: dict) -> list[str]:
    """One line per spec whose entry moved from manifest `old` to `new`: its exit a -> b,
    stdout, stderr and each file whose hash moved, was added or was removed."""
    lines = []
    for spec in sorted(old.keys() | new.keys()):
        a, b = old.get(spec), new.get(spec)
        if a is None or b is None:
            lines.append(f"{spec}: {'added' if a is None else 'removed'}")
            continue
        moved = [f"exit {a['exit']} -> {b['exit']}"] if a["exit"] != b["exit"] else []
        moved += [part for part in ("stdout", "stderr") if a[part] != b[part]]
        for name in sorted(a["files"].keys() | b["files"].keys()):
            x, y = a["files"].get(name), b["files"].get(name)
            if x != y:
                moved.append(name if x and y else f"{name} ({'added' if x is None else 'removed'})")
        if moved:
            lines.append(f"{spec}: {', '.join(moved)}")
    return lines


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_lists_every_spec_once(manifest):
    assert len(set(SPECS)) == len(SPECS)
    assert sorted(manifest) == sorted(SPECS)


@pytest.mark.parametrize("spec", SPECS)
def test_spec_matches_manifest(spec, manifest):
    assert run_spec(spec) == manifest[spec]


def test_diff_names_each_moved_part_of_each_entry():
    def entry(code=0, out="o", err="e", **files):
        return {"exit": code, "stdout": out, "stderr": err, "files": files}

    old = {"a": entry(), "b": entry(f="1", g="2"), "c": entry(), "d": entry(f="1")}
    new = {"a": entry(), "b": entry(2, "O", f="1", g="3", h="4"), "d": entry(err="E"),
           "e": entry()}
    assert diff_entries(old, old) == []
    assert diff_entries(old, new) == [
        "b: exit 0 -> 2, stdout, g, h (added)",
        "c: removed",
        "d: stderr, f (removed)",
        "e: added",
    ]


if __name__ == "__main__":
    entries = {spec: run_spec(spec) for spec in SPECS}
    if MANIFEST.exists():
        for line in diff_entries(json.loads(MANIFEST.read_text(encoding="utf-8")), entries):
            print(line)
    MANIFEST.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {MANIFEST}", file=sys.stderr)
