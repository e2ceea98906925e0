"""Mutant census: does a named tier-1 test catch each one-line fault?

The golden test and the spec corpus catch almost any change to a default
run's bytes, so a change that regenerates those bytes on purpose would
also hide a real fault in the same code.  This script applies each mutant
below to its own copy of `src/`, `tests/`, `benchmarks/`, `scripts/` (which
tier-1 loads) and the README and runs tier-1 there with `-x`, without
`tests/test_golden.py`, `tests/test_spec_corpus.py` and
`tests/test_mutant_census.py` (which checks this script's mutant texts
against the source, so it would fail on every mutant).  A mutant is killed
only when pytest exits 1 and names a failed or errored test; any other exit
(an import error, a collection error, an internal error) is an ERROR, not a
kill.

Run from anywhere (one pass takes a few minutes, one pytest at a time):

    python scripts/mutant_census.py

It first runs tier-1 on an unmutated copy and exits 2, naming the failing
test, if that fails: otherwise every mutant would read as killed.  Then it
prints one line per mutant with the first failing test, or pytest's last
line for an ERROR.  It exits 2 when any mutant ends in an ERROR, else 1
when any mutant survives.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: (name, file, text, replacement); the text must occur exactly once
MUTANTS = (
    ("make_flag takes < as <=", "scenarios.py", '"<": v < thr,', '"<": v <= thr,'),
    ("coarse plateau band ignored", "analytic.py",
     "        and lo <= coarse.plateau_fraction <= hi\n", ""),
    ("shift marks floored", "scenarios.py",
     "round(k * total_steps / (n + 1))", "int(k * total_steps / (n + 1))"),
    ("ENTIRE_GROWTH 1.05", "analytic.py", "ENTIRE_GROWTH = 1.1", "ENTIRE_GROWTH = 1.05"),
    ("series terms without 1/n", "operators.py", "(-1j * t / n)", "(-1j * t)"),
    ("divergence bound only non-finite", "operators.py",
     "if not tn <= DIVERGENCE_FACTOR * c_norm:", "if not math.isfinite(tn):"),
    ("curve error against U(t) c", "analytic.py",
     "d = u.step(t) * c - c", "d = u.step(t) * c"),
    ("eigenvector reference with +1j", "scenarios.py",
     "scalar = sum((-1j * k_mode * t) ** j", "scalar = sum((1j * k_mode * t) ** j"),
    ("series time bound off", "scenarios.py",
     "if abs(t) * k_max <= np.finfo(float).eps:", "if False:"),
    ("gaussian time budget off", "scenarios.py",
     "if abs(t) * math.pi / wide.dx > math.log(gaussian_tol / CUTOFF_ROUNDOFF):", "if False:"),
    ("coarse bump budget doubled", "scenarios.py",
     "lambda tk: tk <= math.log(DIVERGENCE_FACTOR)",
     "lambda tk: tk <= 2 * math.log(DIVERGENCE_FACTOR)"),
    ("eigenvector budget against 1", "scenarios.py",
     "<= math.log(eigen_tol / CUTOFF_ROUNDOFF)", "<= math.log(1.0 / CUTOFF_ROUNDOFF)"),
    ("step keeps the conjugate's -0.0", "operators.py", "        mirror.imag += 0.0\n", ""),
    ("hn_norms ceiling cap off", "analytic.py",
     "if at_ceiling >= CEILING_WINDOW and n < n_max:", "if False:"),
    ("clip leaves one sample", "subspaces.py",
     "values[self.stop:] = 0.0", "values[self.stop + 1:] = 0.0"),
    ("zone guard ten times looser", "subspaces.py", "if off > tol:", "if off > 10 * tol:"),
    ("chain's later steps doubled", "zeno.py", "_clip(values), step(dt), kit",
     "_clip(values), step(2 * dt), kit"),
    ("hn_norms applies 2 H", "analytic.py", "np.multiply(h.eigenvalues, v, out=v)",
     "np.multiply(2 * h.eigenvalues, v, out=v)"),
    ("hn_norms weights its norm by sqrt(dx)", "analytic.py", "r = float(_norm(v))",
     "r = float(_norm(v) * math.sqrt(psi.space.dx))"),
    ("matrix _apply skips the diagonal", "operators.py",
     "        return self._values(coeffs, diagonal, out=coeffs)\n",
     "        if self._adjoint is not None:\n"
     "            return self._inverse(coeffs)\n"
     "        return self._values(coeffs, diagonal, out=coeffs)\n"),
    ("_coeffs ignores out", "operators.py",
     "np.fft.fft(values, out=out)", "np.fft.fft(values)"),
    ("shift transform copies", "operators.py", "        return psi.values\n",
     "        return psi.values.copy()\n"),
    ("json keeps nan and inf", "scenarios.py", "obj if math.isfinite(obj) else str(obj)",
     "obj"),
    ("json skips .item()", "scenarios.py", "return _json_safe(item)", "return obj"),
    ("shift lattice unchecked", "scenarios.py", "if steps <= n:", "if False:"),
    ("rabi overflow unchecked", "scenarios.py",
     "if not all(map(math.isfinite, (t, omega * t, t * ZENO_LADDER[-1]))):", "if False:"),
    ("rabi resolvability budget off", "scenarios.py",
     "if not abs(closed_slope - (-1.0)) + blur <= ZENO_SLOPE_TOL:", "if False:"),
    ("gaussian resolution budget off", "scenarios.py",
     "if not sigma * (k_max - abs(k0)) >= bound:", "if False:"),
    ("window mode floor unchecked", "scenarios.py",
     "if grid.n_points < 2 * WINDOW_MODES + 1:", "if False:"),
    ("schema drops ConditionSample", "scenarios.py",
     "ConditionReport, ConditionSample)}", "ConditionReport)}"),
    ("large scenarios stay on the main thread", "statespace.py",
     "if (points or 0) < MAP_MIN_POINTS or", "if True or"),
    ("maps ignore an interrupt", "statespace.py",
     "if _stopping.is_set():", "if False:"),
    ("a buffer per sampled pair", "subspaces.py",
     'u._values(c, step, kit.get("values"))', "u._values(c, step)"),
    ("lattice coarse stride b - 1", "operators.py",
     "coarse = np.exp(theta * (b * np.arange(", "coarse = np.exp(theta * ((b - 1) * np.arange("),
    ("any odd spectrum is a lattice", "operators.py",
     "if lam.size >= 2 and np.array_equal(head, np.arange(mid + 1) * lam[1]):",
     "if lam.size >= 2:"),
    ("chains ignore an interrupt", "zeno.py",
     "raise KeyboardInterrupt  # the main thread was", "pass  # the main thread was"),
    ("closed-form deficit through cos", "zeno.py",
     "out.append(-math.expm1(2 * (n + 1) * math.log1p(x)))",
     "out.append(1.0 - math.cos(theta) ** (2 * (n + 1)))"),
    ("closed slope fitted on 1 - (1 - d)", "scenarios.py",
     "np.log(closed), 1)[0])", "np.log(1.0 - (1.0 - np.array(closed))), 1)[0])"),
    ("two concurrent items share one workspace array", "zeno.py",
     "scratch = threading.local()", "scratch = lambda: None"),  # one kit for all threads
    ("the chain's two step slots collapse into one", "zeno.py",
     'slots = [[None, "step2"], [None, "step"]]', 'slots = [[None, "step"], [None, "step"]]'),
    ("a second interrupt clears the flag at once", "statespace.py",
     "            pass\n        raise\n",
     "            pass\n        raise\n    finally:\n        _stopping.clear()\n"),
    ("sweep helpers are not counted as working", "statespace.py",
     "helpers.append(_submit(_pool, helper))", "helpers.append(_pool.submit(helper))"),
    ("a map's own interrupt leaves the helpers running", "statespace.py",
     "                _halt()\n            errors[i] = exc",
     "                pass\n            errors[i] = exc"),
)


def tier1(mutant: tuple[str, str, str, str] | None = None) -> tuple[str, str]:
    """Run tier-1 on a fresh copy with `mutant` applied, if any.

    Returns "passed", "failed" (pytest exited 1 and named a failed or
    errored test) or "error", with the first such test or pytest's last line.
    """
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "benchmarks", "scripts"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):  # tier-1 reads README's tables
            shutil.copy(ROOT / name, work)
        if mutant is not None:
            name, module, text, replacement = mutant
            path = work / "src" / "zenolab" / module
            source = path.read_text(encoding="utf-8")
            if source.count(text) != 1:
                raise SystemExit(f"mutant {name!r}: its text occurs {source.count(text)} "
                                 f"times in {module}")
            path.write_text(source.replace(text, replacement), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
             "--ignore=tests/test_golden.py", "--ignore=tests/test_spec_corpus.py",
             "--ignore=tests/test_mutant_census.py"],
            cwd=work, env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True)
    return outcome(proc.returncode, proc.stdout, proc.stderr)


def outcome(returncode: int, stdout: str, stderr: str) -> tuple[str, str]:
    """Classify one pytest run as `tier1` reports it."""
    # a collection error names a module, not a test; under -x it exits 1 too
    named = re.findall(r"^(?:FAILED|ERROR) (\S+::\S+)", stdout, flags=re.MULTILINE)
    if returncode == 0:
        return "passed", ""
    if returncode == 1 and named:
        return "failed", named[0]
    last = (stdout.strip() or stderr.strip() or "no output").splitlines()[-1]
    return "error", f"pytest exit {returncode}: {last}"


def main() -> int:
    # a kill only means something if the unmutated copy passes
    result, detail = tier1()
    if result != "passed":
        print(f"tier-1 fails without any mutant: {detail}", file=sys.stderr)
        return 2
    label = {"failed": "killed  ", "passed": "SURVIVED", "error": "ERROR   "}
    counts = dict.fromkeys(label, 0)
    for mutant in MUTANTS:
        result, detail = tier1(mutant)
        counts[result] += 1
        print(f"{label[result]} {mutant[0]:32} {detail}", flush=True)
    print(f"{counts['failed']} of {len(MUTANTS)} killed by named tests")
    return 2 if counts["error"] else 1 if counts["passed"] else 0


if __name__ == "__main__":
    sys.exit(main())
