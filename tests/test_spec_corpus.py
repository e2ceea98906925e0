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
code, run `PYTHONPATH=src python tests/test_spec_corpus.py`.
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
    # roundoff they bound (spectral_invariance 5.55e-16, cond_I 8.70e-18,
    # ia_forward 1.03e-19), a falsify tolerance above the largest leakage
    # (cond_II 0.998691), and a grid step of 0.178 whose spectral tail fails
    # cond_I off the lattice (1.70e-7)
    "run hm-invariance --tolerance-invariance 1e-16",
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


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_lists_every_spec_once(manifest):
    assert len(set(SPECS)) == len(SPECS)
    assert sorted(manifest) == sorted(SPECS)


@pytest.mark.parametrize("spec", SPECS)
def test_spec_matches_manifest(spec, manifest):
    assert run_spec(spec) == manifest[spec]


if __name__ == "__main__":
    entries = {spec: run_spec(spec) for spec in SPECS}
    MANIFEST.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {MANIFEST}", file=sys.stderr)
