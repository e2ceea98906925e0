"""Seeded inputs, operations and output checks for the zenolab benchmark.

Run as a script (``python3 benchmarks/workloads.py --workload W --seed S``)
it does exactly the set-up a benchmark run pays before its first operation:
a fresh interpreter imports ``zenolab`` and ``zenolab.cli`` from ``src/``,
generates the workload's seeded inputs and prints "ready".  ``run.py`` times
spawn to "ready" to get ``setup_s``.

Inputs come in blocks of seven specs.  Inside a block every measurement
count N in [3, 9] appears once and sigma is stratified over [0.8, 1.2] (one
draw from each seventh of the range), each in its own seeded order.  Every
block therefore costs about the same and holds the same share of wide
packets, so runs of different seeds stay comparable while still covering
the whole range.  The centre stays at the scenario default of -8.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SIGMA_RANGE = (0.8, 1.2)
N_RANGE = (3, 9)
#: specs per block: one per measurement count in N_RANGE
BLOCK = N_RANGE[1] - N_RANGE[0] + 1
#: blocks generated per run; runs that finish them all start over
N_BLOCKS = 64
#: sigma values per sweep-64k operation
SWEEP_POINTS = 4
SWEEP_JOBS = 2
#: seed kept out of tuning, for checking a performance claim on fresh inputs
HELD_OUT_SEED = 90210


def import_zenolab():
    """Import zenolab from this checkout's ``src/``, never from site-packages.

    Raises ImportError when the checkout has no ``src/zenolab``, or when the
    package that got imported lives elsewhere.
    """
    init = SRC / "zenolab" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"no zenolab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import zenolab
    import zenolab.cli

    if Path(zenolab.__file__).resolve() != init.resolve():
        raise ImportError(f"zenolab was imported from {zenolab.__file__}, not {init}")
    return zenolab


@dataclass(frozen=True)
class Spec:
    """One seeded draw: packet width, measurement count and scenario seed."""

    sigma: float
    n: int
    seed: int

    def label(self) -> str:
        return f"sigma={self.sigma:.4f} N={self.n} seed={self.seed}"


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k draws from [lo, hi), one from each of k equal strata, in seeded order."""
    order = _permutation(rng, k)
    width = (hi - lo) / k
    return [round(lo + width * (j + rng.random()), 4) for j in order]


def _permutation(rng: random.Random, k: int) -> list[int]:
    """Fisher-Yates from rng.random() alone, which is stable across Pythons."""
    items = list(range(k))
    for i in range(k - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def make_specs(seed: int, n_blocks: int = N_BLOCKS) -> list[Spec]:
    """Seeded specs in blocks; the same seed always gives the same list."""
    rng = random.Random(seed)
    specs = []
    for _ in range(n_blocks):
        sigmas = _strata(rng, *SIGMA_RANGE, BLOCK)
        ns = [N_RANGE[0] + j for j in _permutation(rng, BLOCK)]
        for sigma, n in zip(sigmas, ns):
            specs.append(Spec(sigma, n, int(rng.random() * 2**31)))
    return specs


def make_sweeps(seed: int, n_ops: int = N_BLOCKS) -> list[tuple[float, ...]]:
    """Per operation, SWEEP_POINTS sigma values, one from each stratum, sorted."""
    rng = random.Random(seed)
    return [tuple(sorted(_strata(rng, *SIGMA_RANGE, SWEEP_POINTS))) for _ in range(n_ops)]


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """What one operation did: scenario runs attempted, failures, checks."""

    attempted: int = 0
    failed: int = 0
    #: an output on disk disagreed with what the program returned
    incorrect: bool = False
    #: (scenario, flag or error, spec label) for every failed scenario run
    failures: list = field(default_factory=list)
    #: bundle bytes per scenario, kept for the determinism check
    bundles: dict = field(default_factory=dict)


class Workload:
    """A named list of inputs and the operation that consumes one of them."""

    name = ""
    #: a run does a whole number of blocks of this many ops
    block = 1
    #: threads an operation keeps busy at once; picks the reference kernel
    threads = 1
    #: nominal seconds one block takes at reference speed (run.REF_NOMINAL_S)
    #: at the commit that defined the benchmark; it only sets how many blocks
    #: a run of --seconds does
    block_seconds = 1.0

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.inputs = self.make_inputs(seed)

    @staticmethod
    def make_inputs(seed: int) -> list:
        raise NotImplementedError

    def run(self, item, split=lambda: None) -> object:
        """The timed call into zenolab; returns what check() needs.

        `split` is called between the parts of a long operation, where the
        runner may take a reference sample outside the timed span.
        """
        raise NotImplementedError

    def check(self, item, result) -> Outcome:
        """Untimed verification of everything run() produced."""
        raise NotImplementedError

    def determinism(self, item, first: Outcome) -> bool:
        """Re-run item and compare its bundle bytes with the first run's."""
        raise NotImplementedError


class ScenarioPass(Workload):
    """Each operation runs a fixed list of scenarios on one spec, emitting both formats."""

    scenarios: tuple[str, ...] = ()
    grid_points = 0
    block = BLOCK
    #: take a reference sample between scenarios; worth it only when each
    #: scenario run is long next to the sample
    split_scenarios = False

    @staticmethod
    def make_inputs(seed: int) -> list:
        return make_specs(seed)

    def _spec(self, name: str, item: Spec):
        from zenolab.scenarios import ScenarioSpec

        return ScenarioSpec(name=name, grid_points=self.grid_points, sigma=item.sigma,
                            n_measurements=item.n, seed=item.seed)

    def run(self, item: Spec, split=lambda: None) -> list:
        import zenolab.cli as cli
        import zenolab.scenarios as scenarios

        results = []
        for k, name in enumerate(self.scenarios):
            if k and self.split_scenarios:
                split()
            try:
                bundle = scenarios.run_scenario(name, self._spec(name, item))
                written = cli.emit_outputs(bundle, self.out_dir / name, "both")
            except Exception as exc:  # a failed scenario run is counted, not fatal
                results.append((name, None, exc))
            else:
                results.append((name, bundle, written))
        return results

    def check(self, item: Spec, result: list) -> Outcome:
        out = Outcome(attempted=len(result))
        for name, bundle, written in result:
            if bundle is None:
                out.failed += 1
                out.failures.append((name, f"raised {type(written).__name__}", item.label()))
                continue
            problem = check_bundle_dir(self.out_dir / name, bundle, written)
            if problem:
                out.failed += 1
                out.incorrect = True
                out.failures.append((name, problem, item.label()))
                continue
            out.bundles[name] = bundle.to_json_bytes()
            if not bundle.passed:
                out.failed += 1
                out.failures.extend(
                    (name, f.name, item.label()) for f in bundle.flags if not f.passed
                )
        return out

    def determinism(self, item: Spec, first: Outcome) -> bool:
        import zenolab.scenarios as scenarios

        return all(
            scenarios.run_scenario(name, self._spec(name, item)).to_json_bytes() == data
            for name, data in first.bundles.items()
        )


class Translate64k(ScenarioPass):
    name = "translate-64k"
    scenarios = ("counterexample", "hm-invariance")
    grid_points = 65536
    block_seconds = 10.7
    split_scenarios = True


class Lab4k(ScenarioPass):
    name = "lab-4k"
    scenarios = ("counterexample", "hm-invariance", "rabi-control", "series-validity")
    grid_points = 4096
    block_seconds = 0.92


class Sweep64k(Workload):
    """Each operation is one `zenolab sweep` of hm-invariance over 4 sigma values."""

    name = "sweep-64k"
    scenario = "hm-invariance"
    grid_points = 65536
    block_seconds = 2.8
    threads = SWEEP_JOBS

    @staticmethod
    def make_inputs(seed: int) -> list:
        return make_sweeps(seed)

    def argv(self, item: tuple[float, ...]) -> list[str]:
        return ["sweep", self.scenario, "--param", "sigma",
                "--values", ",".join(f"{s:.4f}" for s in item),
                "--grid-points", str(self.grid_points), "--jobs", str(SWEEP_JOBS),
                "--out", str(self.out_dir)]

    def run(self, item: tuple[float, ...], split=lambda: None):
        import zenolab.cli as cli

        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(self.argv(item))
        except Exception as exc:  # a failed sweep is counted, not fatal
            return exc, buf.getvalue()
        return code, buf.getvalue()

    def check(self, item: tuple[float, ...], result) -> Outcome:
        code, printed = result
        out = Outcome(attempted=len(item))
        label = f"sigma={','.join(f'{s:.4f}' for s in item)}"
        if isinstance(code, Exception) or code not in (0, 1):
            what = f"raised {type(code).__name__}" if isinstance(code, Exception) else f"exit {code}"
            out.failed = len(item)
            out.failures.append((self.scenario, what, label))
            return out
        verdicts = dict(line.split(": ", 1) for line in printed.splitlines()
                        if line.startswith("sigma=") and ": " in line)
        all_passed = True
        for s in item:
            key = f"sigma={s}"
            point_dir = self.out_dir / self.scenario / key
            problem, payload = check_payload_dir(point_dir)
            if problem is None and payload["provenance"]["parameters"]["sigma"] != s:
                problem = "bundle records another sigma"
            if problem is None and verdicts.get(key) != ("PASS" if payload["passed"] else "FAIL"):
                problem = "printed verdict disagrees with bundle"
            if problem:
                out.failed += 1
                out.incorrect = True
                out.failures.append((self.scenario, problem, key))
                all_passed = False
                continue
            out.bundles[s] = (point_dir / "bundle.json").read_bytes()
            if not payload["passed"]:
                all_passed = False
                out.failed += 1
                out.failures.extend(
                    (self.scenario, f["name"], key)
                    for f in payload["flags"] if not f["passed"]
                )
        if (code == 0) != all_passed:
            out.incorrect = True
            out.failures.append((self.scenario, f"exit {code} disagrees with verdicts", label))
        return out

    def determinism(self, item: tuple[float, ...], first: Outcome) -> bool:
        """The library path must reproduce the sweep's bundle byte for byte."""
        import zenolab.scenarios as scenarios

        s = item[0]
        spec = scenarios.ScenarioSpec(name=self.scenario, grid_points=self.grid_points, sigma=s)
        return scenarios.run_scenario(self.scenario, spec).to_json_bytes() == first.bundles.get(s)


WORKLOADS = {w.name: w for w in (Translate64k, Lab4k, Sweep64k)}


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def check_payload_dir(out_dir: Path) -> tuple[str | None, dict | None]:
    """Summary, parseable bundle and one CSV per bundle table must be on disk."""
    bundle_path = out_dir / "bundle.json"
    if not (out_dir / "summary.txt").is_file() or not bundle_path.is_file():
        return "summary or bundle missing", None
    try:
        payload = json.loads(bundle_path.read_bytes())
    except ValueError:
        return "bundle.json unparseable", None
    for name, table in payload["tables"].items():
        problem = _check_csv(out_dir / f"{name}.csv", table["columns"], len(table["rows"]))
        if problem:
            return problem, None
    return None, payload


def check_bundle_dir(out_dir: Path, bundle, written) -> str | None:
    """Everything emit_outputs wrote must match the bundle it was given."""
    expected = {out_dir / "summary.txt", out_dir / "bundle.json"}
    expected |= {out_dir / f"{name}.csv" for name in bundle.tables}
    if set(written) != expected:
        return "emit_outputs wrote an unexpected file set"
    problem, _ = check_payload_dir(out_dir)
    if problem:
        return problem
    if (out_dir / "bundle.json").read_bytes() != bundle.to_json_bytes():
        return "bundle.json differs from to_json_bytes()"
    if (out_dir / "summary.txt").read_text(encoding="utf-8") != bundle.summary_text():
        return "summary.txt differs from summary_text()"
    return None


def _check_csv(path: Path, columns, n_rows: int) -> str | None:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return f"{path.name} missing"
    if not lines or lines[0] != "# " + ",".join(columns) or len(lines) - 1 != n_rows:
        return f"{path.name} header or row count wrong"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="set-up only: import zenolab, make inputs")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reference", action="store_true",
                        help='after "ready", print one serial reference sample in seconds')
    args = parser.parse_args(argv)
    import_zenolab()
    WORKLOADS[args.workload].make_inputs(args.seed)
    print("ready", flush=True)
    if args.reference:
        import pacing

        print(repr(pacing.Reference().sample()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
