"""Time two checkouts op by op on one benchmark workload, in alternating pairs.

    python scripts/paired_ops.py PARENT CHANGE --workload lab-4k --seed 1 --pairs 400

PARENT and CHANGE are the roots of two checkouts.  One worker process per
checkout imports zenolab from that checkout's own ``src/`` through its
``benchmarks/workloads.py``, builds the workload's seeded inputs and runs
one untimed warm-up op.  Like ``benchmarks/run.py``, a worker writes its
outputs under its checkout's ``.bench_out/`` (in ``paired-<pid>/``, removed
when it exits), so an emission change is timed on the filesystem the
benchmark writes to.  The controller then sends the same input to both
workers, one after the other: PARENT first in even pairs, CHANGE first in
odd ones, so that a drift in the host's speed hits both sides alike.  A
worker times ``Workload.run`` by wall clock and process CPU time, counts
the minor page faults the process took during it (``ru_minflt``), then
checks the outputs untimed (``Workload.check``), hashes the op's bundle
bytes, so a pair also shows whether both sides attempted and failed the
same scenario runs and wrote the same bundles, and reads the process's peak
resident set so far (``ru_maxrss``, which starts at the controller's RSS
when the worker was spawned; the controller itself stays small).

It prints each side's median op time with its quartiles, its median CPU
time and minor page faults per op and its peak RSS after its last op (the
warm-up included), the median of the per-pair ratio
CHANGE / PARENT, the number of pairs CHANGE won and, counted apart, the
pairs whose sides differ in outcome (attempted, failed or incorrect runs)
and in bundle bytes; the last line is a JSON object with the same numbers
and every pair.  It exits 1 when any pair differs.  The times are
raw wall seconds, not paced like ``benchmarks/run.py``'s, so use it to
compare two checkouts on one host, not to read absolute speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def worker(checkout: Path, workload: str, seed: int) -> int:
    """Serve ops on stdin (one input index per line) until it closes."""
    sys.path.insert(0, str(checkout / "benchmarks"))
    import workloads

    workloads.import_zenolab()
    protocol, sys.stdout = sys.stdout, sys.stderr  # zenolab's prints stay off the protocol
    out_dir = checkout / ".bench_out" / f"paired-{os.getpid()}"
    out_dir.parent.mkdir(exist_ok=True)
    try:
        wl = workloads.WORKLOADS[workload](seed, out_dir)
        wl.check(wl.inputs[0], wl.run(wl.inputs[0]))  # warm-up, untimed
        print("ready", file=protocol, flush=True)
        for line in sys.stdin:
            item = wl.inputs[int(line) % len(wl.inputs)]
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            wall, cpu = time.perf_counter(), time.process_time()
            result = wl.run(item)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            out = wl.check(item, result)
            digest = hashlib.sha256()
            for key in sorted(out.bundles):
                digest.update(repr(key).encode() + b"\0" + out.bundles[key])
            record = {"wall_s": wall, "cpu_s": cpu, "minflt": faults,
                      "attempted": out.attempted, "failed": out.failed,
                      "incorrect": out.incorrect, "bundles_sha256": digest.hexdigest(),
                      # KiB on Linux; the high-water mark, so the last op's is the peak
                      "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            print(json.dumps(record), file=protocol, flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


def differing(pairs: list[dict]) -> dict[str, int]:
    """How many pairs differ between the two sides in outcome and in bytes."""
    def count(keys):
        return sum(any(p["parent"][k] != p["change"][k] for k in keys) for p in pairs)
    return {"pairs_differing_in_outcome": count(("attempted", "failed", "incorrect")),
            "pairs_differing_in_bytes": count(("bundles_sha256",))}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, nargs="?", help="root of the baseline checkout")
    parser.add_argument("change", type=Path, nargs="?", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=40, help="ops per side (default 40)")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.worker, args.workload, args.seed)
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    procs = {}
    try:
        for side in SIDES:
            procs[side] = subprocess.Popen(
                [sys.executable, __file__, "--worker", str(getattr(args, side).resolve()),
                 "--workload", args.workload, "--seed", str(args.seed)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for side, proc in procs.items():
            if proc.stdout.readline().strip() != "ready":
                print(f"error: the {side} worker did not start", file=sys.stderr)
                return 2

        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"index": i, "first": order[0]}
            for side in order:
                procs[side].stdin.write(f"{i}\n")
                procs[side].stdin.flush()
                line = procs[side].stdout.readline()
                if not line:
                    print(f"error: the {side} worker exited at pair {i}", file=sys.stderr)
                    return 2
                pair[side] = json.loads(line)
            pairs.append(pair)
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()
            proc.stdout.close()

    walls = {side: [p[side]["wall_s"] for p in pairs] for side in SIDES}
    ratios = [p["change"]["wall_s"] / p["parent"]["wall_s"] for p in pairs]
    differ = differing(pairs)
    summary = {
        "workload": args.workload, "seed": args.seed, "pairs": len(pairs),
        **{f"{side}_wall_s": _spread(walls[side]) for side in SIDES},
        **{f"{side}_{key}_median": statistics.median(p[side][key] for p in pairs)
           for side in SIDES for key in ("cpu_s", "minflt")},
        **{f"{side}_peak_rss_mib": pairs[-1][side]["maxrss_kib"] / 1024 for side in SIDES},
        "median_ratio": statistics.median(ratios),
        "change_wins": sum(r < 1.0 for r in ratios),
        **differ,
    }
    for side in SIDES:
        s = summary[f"{side}_wall_s"]
        print(f"{side:6} median {s['median'] * 1e3:.3f} ms "
              f"(quartiles {s['q1'] * 1e3:.3f}-{s['q3'] * 1e3:.3f} ms), "
              f"cpu median {summary[f'{side}_cpu_s_median'] * 1e3:.3f} ms, "
              f"minor faults median {summary[f'{side}_minflt_median']:.0f}, "
              f"peak RSS {summary[f'{side}_peak_rss_mib']:.1f} MiB")
    print(f"median ratio change/parent {summary['median_ratio']:.4f}; change faster in "
          f"{summary['change_wins']} of {len(pairs)} pairs; "
          f"{differ['pairs_differing_in_outcome']} pairs differ in outcome, "
          f"{differ['pairs_differing_in_bytes']} in bytes")
    print(json.dumps(dict(summary, pair_records=pairs)))
    return 1 if any(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
