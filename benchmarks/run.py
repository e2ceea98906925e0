"""zenolab benchmark: one client, closed loop, every output checked.

    python3 benchmarks/run.py --workload translate-64k --seed 1 --seconds 27 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` in
this process; one operation starts only after the previous one returned.
With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics from a
run in which every operation is executed twice, once traced and once not,
in alternating order, so that ``trace.overhead_frac`` compares like with
like.  The lines before it are a human-readable report: the environment,
the op counts behind every timing and each failing (scenario, flag, spec).
Without a ``src/zenolab`` next to this directory the run exits 2 and prints
no result.

A run does a fixed number of whole input blocks, chosen from ``--seconds``
and the workload's nominal block cost, so that ``attempted`` and ``failed``
depend only on the seed and ``--seconds``, never on how fast the host was.

Every reported time is paced (see ``pacing.py``): scaled by a reference
kernel's nominal time over its time around the measurement, so that it reads
in seconds on a nominal host however fast the shared host was meanwhile.  A
kernel sample is taken right before and right after every timed operation;
set-up is paced by a sample the fresh interpreter takes itself once it is
ready.  The report prints the unscaled medians and the reference times too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pacing  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OUT_ROOT = workloads.ROOT / ".bench_out"
#: fresh interpreters timed for setup_s, after one untimed one that
#: compiles the bytecode caches
SETUP_SAMPLES = 9
#: ops that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


def n_blocks(seconds: float, block_seconds: float) -> int:
    """Whole blocks whose nominal cost is nearest to `seconds`, at least one."""
    return max(1, round(seconds / block_seconds))


def tail_percentile(values, beyond: int = TAIL_BEYOND) -> tuple[int, float, int]:
    """Highest whole percentile q with at least `beyond` values above it.

    The q-th percentile is the nearest-rank value sorted[ceil(q n / 100) - 1].
    Returns (q, value, values above it); q is 0, the minimum, when fewer than
    beyond + 1 values exist.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no values")
    q = max(0, math.floor(100 * (n - beyond) / n))
    rank = max(1, math.ceil(q * n / 100))
    return q, ordered[rank - 1], n - rank


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its "ready" line.

    The child imports zenolab and zenolab.cli and makes the workload's
    inputs, prints "ready", then takes a serial reference sample and prints
    it; only the part up to "ready" is timed.  The sample comes from the
    child because the child may run on another CPU than this process.
    Returns unscaled times, scaled times and the samples.
    """
    argv = [sys.executable, str(Path(workloads.__file__)), "--workload", workload,
            "--seed", str(seed), "--reference"]

    def spawn() -> tuple[float, float]:
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=workloads.ROOT, stdout=subprocess.PIPE) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = child.stdout.read()
        if child.returncode != 0 or line != b"ready\n":
            raise RuntimeError(f"set-up child failed with exit code {child.returncode}")
        return elapsed, float(rest)

    spawn()  # untimed: compiles the bytecode caches
    times, refs = zip(*(spawn() for _ in range(SETUP_SAMPLES)))
    nominal = pacing.Reference.nominal
    return list(times), [t * nominal / r for t, r in zip(times, refs)], list(refs)


def environment(zenolab) -> dict:
    def getconf(name: str):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except OSError:
            return None
        return int(out) if out.isdigit() else None

    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "zenolab_provenance_version": zenolab.scenarios._package_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes_per_core": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes_shared": getconf("LEVEL3_CACHE_SIZE"),
        "state_bytes_2p16": 16 * 2**16,
    }


class Tally:
    """Failures and correctness across the operations of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: dict[tuple, None] = {}

    def add(self, outcome: workloads.Outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.correct &= not outcome.incorrect
        self.failures.update(dict.fromkeys(outcome.failures))


def run_untraced(wl: workloads.Workload, n_ops: int, tally: Tally, ref: pacing.Reference):
    """Closed loop over n_ops ops; returns the pacer, each op's segments and
    the first outcome."""
    pacer = pacing.Pacer(ref)
    segments = []
    first = None
    for i in range(n_ops):
        item = wl.inputs[i % len(wl.inputs)]
        k = len(pacer.walls)
        pacer.begin()
        result = wl.run(item, pacer.split)
        pacer.end()
        segments.append((k, len(pacer.walls)))
        outcome = wl.check(item, result)
        tally.add(outcome)
        first = first or outcome
    return pacer, segments, first


def run_traced(wl: workloads.Workload, n_ops: int, tally: Tally, zenolab):
    """Each op twice, traced and untraced in alternating order; returns spans and walls."""
    rec = spans.Recorder()
    traced_wall = untraced_wall = 0.0
    for i in range(n_ops):
        item = wl.inputs[i % len(wl.inputs)]
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with spans.Instrumented(rec, zenolab):
                    rec.begin_op(i)
                    t0 = time.perf_counter()
                    result = wl.run(item)
                    traced_wall += time.perf_counter() - t0
                    rec.end_op()
            else:
                t0 = time.perf_counter()
                result = wl.run(item)
                untraced_wall += time.perf_counter() - t0
            tally.add(wl.check(item, result))
    return rec, traced_wall, untraced_wall


def write_spans(rec: spans.Recorder, path: Path, meta: dict) -> None:
    names = sorted({s[spans.NAME] for s in rec.spans})
    index = {n: k for k, n in enumerate(names)}
    rows = [[s[spans.ID], s[spans.PARENT], s[spans.OP], index[s[spans.NAME]],
             s[spans.START], s[spans.END]] for s in rec.spans]
    doc = {"meta": meta, "names": names,
           "columns": ["id", "parent", "op", "name", "start_ns", "end_ns"], "spans": rows}
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        zenolab = workloads.import_zenolab()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(zenolab)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("env: " + json.dumps(env, sort_keys=True))

    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = OUT_ROOT / f"run-{os.getpid()}"
    try:
        if args.trace:
            metrics, tally = traced_run(args, zenolab, out_dir)
        else:
            metrics, tally = untraced_run(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for scenario, what, spec in tally.failures:
        print(f"failed: {scenario} {what} {spec}")
    print(f"scenario runs: {tally.attempted} attempted, {tally.failed} failed, "
          f"outputs {'correct' if tally.correct else 'INCORRECT'}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def untraced_run(args, out_dir: Path):
    setup_raw, setup, setup_refs = measure_setup(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    ref = pacing.Reference() if wl.threads == 1 else pacing.ThreadedReference(wl.threads)
    wl.check(wl.inputs[0], wl.run(wl.inputs[0]))  # warm-up, uncounted
    tally = Tally()
    n_ops = wl.block * n_blocks(args.seconds, wl.block_seconds)
    pacer, segments, first = run_untraced(wl, n_ops, tally, ref)
    if not wl.determinism(wl.inputs[0], first):
        tally.correct = False
        tally.failed += 1
        tally.failures[(wl.name, "determinism", "inputs[0]")] = None

    raw_walls, walls, cpus = pacer.per_op(segments)
    q, tail, beyond = tail_percentile(walls)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail, "s"),
        "ops_per_s": (n_ops / sum(walls), "1/s"),
        "cpu_per_op_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_mib, "MiB"),
        "pass_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
    }
    print(f"setup_s: median of {len(setup)} fresh interpreters, unscaled: "
          + " ".join(f"{t:.4f}" for t in setup_raw)
          + "; their reference samples (ms): " + " ".join(f"{r * 1e3:.3f}" for r in setup_refs))
    print(f"op timings over {n_ops} ops in {len(pacer.walls)} segments "
          f"({sum(raw_walls):.3f} s timed wall, {sum(pacer.cpus):.3f} s cpu, "
          f"unscaled median {statistics.median(raw_walls):.4f} s); "
          f"op_tail_s is p{q} with {beyond} ops beyond it")
    print(f"reference kernel ({type(ref).__name__}, {ref.threads} thread(s)): "
          f"{len(ref.samples)} samples, median {statistics.median(ref.samples) * 1e3:.3f} ms, "
          f"min {min(ref.samples) * 1e3:.3f} ms, max {max(ref.samples) * 1e3:.3f} ms; "
          f"times scaled to {ref.nominal * 1e3:g} ms")
    print(f"fail_frac: {tally.failed}/{tally.attempted} scenario runs")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, tally


def traced_run(args, zenolab, out_dir: Path):
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    wl.check(wl.inputs[0], wl.run(wl.inputs[0]))  # warm-up, uncounted
    tally = Tally()
    # every op runs twice, so half as many blocks fill the same time
    n_ops = wl.block * n_blocks(args.seconds / 2, wl.block_seconds)
    rec, traced_wall, untraced_wall = run_traced(wl, n_ops, tally, zenolab)
    layer = spans.per_layer(rec.spans, n_ops, workloads.SWEEP_JOBS)
    layer["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    self_sum = sum(spans.self_times(rec.spans).values()) * 1e-9
    write_spans(rec, OUT_ROOT / f"trace-{args.workload}.json",
                {"workload": args.workload, "seed": args.seed, "ops": n_ops})

    print(f"traced {n_ops} ops ({len(rec.spans)} spans), each also run untraced")
    print(f"accounting: summed self time {self_sum:.4f} s, traced wall {traced_wall:.4f} s, "
          f"untraced wall {untraced_wall:.4f} s; summed self / untraced - 1 = "
          f"{self_sum / untraced_wall - 1:.4f}; sweep worker threads add their own busy time")
    units = {"calls": "count/op", "self_s": "s/op", "points": "count/op",
             "ns_per_point": "ns", "copy_bytes_computed": "B/op", "segments": "count/op",
             "terms": "count/op", "bytes": "B/op"}
    metrics = {}
    for name, value in layer.items():
        unit = units.get(name.rsplit(".", 1)[1], "ratio")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    return metrics, tally


if __name__ == "__main__":
    sys.exit(main())
