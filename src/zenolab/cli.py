"""Command-line front end: run scenarios, emit summaries, bundles and curves.

Commands
--------
run <scenario>      execute one scenario, write summary + bundle + CSV curves
list                show the available scenarios
sweep <scenario>    re-run one scenario over a list of values for one
                    parameter, each run in its own output subdirectory

Exit status: 0 when every pass flag is true, 1 when the scenario ran but a
flag failed (scientific failure), 2 for usage, config, margin or I/O errors
and for a flag or config key the scenario does not read (`scenarios.READS`),
which sweep checks once, before any point runs.  A sweep prints one PASS,
FAIL or ERROR line per point in input order and exits 2 when any point
raised an error, after running all the others.

Output layout: <out>/<scenario>/summary.txt, bundle.json and one CSV per
curve table.  CSVs are UTF-8 with LF endings, a `# column,names` header
line, and 17-significant-digit scientific notation for floats so that
golden files round-trip bit-exactly.  The output root comes from --out,
else $ZENOLAB_OUT, else ./zenolab-out.

Config files are flat `key = value` lines with `#` comments; keys use the
long flag spellings (e.g. `grid-points = 4096`).  Explicit flags override
file values.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .errors import DomainError, PreconditionError, SpaceMismatchError
from .scenarios import READS, SCENARIOS, CurveTable, ScenarioSpec, VerdictBundle, run_scenario


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


#: long-flag spelling -> (python type, ScenarioSpec field or None for cli-only)
OPTIONS: dict[str, tuple[type, str | None]] = {
    "grid-points": (int, "grid_points"),
    "x-min": (float, "x_min"),
    "x-max": (float, "x_max"),
    "sigma": (float, "sigma"),
    "center": (float, "center"),
    "time": (float, "time"),
    "N": (int, "n_measurements"),
    "omega": (float, "omega"),
    "tolerance-invariance": (float, "tolerance_invariance"),
    "tolerance-falsify": (float, "tolerance_falsify"),
    "seed": (int, "seed"),
    "out": (str, None),
    "format": (str, None),
}
#: values accepted by --format
FORMATS = ("csv", "bundle", "both")
#: --help text of the options that carry one
HELP = {
    "N": "number of selective measurements",
    "out": "output root (default: $ZENOLAB_OUT or ./zenolab-out)",
}


def _coerce(key: str, raw: str):
    typ, _ = OPTIONS[key]
    if key == "format" and raw not in FORMATS:
        raise ConfigError(f"format must be csv, bundle or both, not {raw!r}")
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"key {key!r} expects {typ.__name__}, got {raw!r}") from None


def load_config(path: str) -> dict:
    """Parse a flat `key = value` file into typed option values."""
    values: dict[str, object] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, value = key.strip(), value.strip()
        if key not in OPTIONS:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        values[key] = _coerce(key, value)
    return values


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    for key, (typ, _) in OPTIONS.items():
        parser.add_argument(f"--{key}", type=typ, default=None, help=HELP.get(key),
                            choices=FORMATS if key == "format" else None)
    parser.add_argument("--config", type=str, default=None,
                        help="flat key = value config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenolab",
        description="numerical laboratory for zone invariance, selective "
                    "measurement survival, and series-propagation validity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write its outputs")
    run_p.add_argument("scenario", choices=sorted(SCENARIOS))
    _add_run_options(run_p)

    sub.add_parser("list", help="list available scenarios")

    sweep_p = sub.add_parser("sweep", help="run one scenario over several parameter values")
    sweep_p.add_argument("scenario", choices=sorted(SCENARIOS))
    sweep_p.add_argument("--param", required=True,
                         help="option to vary (long flag spelling, e.g. sigma or N)")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values for --param")
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="run sweep points in parallel")
    _add_run_options(sweep_p)
    return parser


def _gather_options(args: argparse.Namespace) -> dict:
    """Merge config-file values under explicit CLI flags."""
    merged = load_config(args.config) if args.config else {}
    for key in OPTIONS:
        cli_value = getattr(args, key.replace("-", "_"), None)
        if cli_value is not None:
            merged[key] = cli_value
    return merged


def _build_spec(scenario: str, options: dict) -> ScenarioSpec:
    fields = {OPTIONS[k][1]: v for k, v in options.items() if OPTIONS[k][1] is not None}
    return ScenarioSpec(name=scenario, **fields)


def _require_read(scenario: str, keys) -> None:
    """Reject an explicit spec key that `scenario` does not read; CLI-only keys pass."""
    for key in keys:
        if OPTIONS[key][1] not in READS[scenario] | {None}:
            raise ConfigError(f"{scenario} does not read {key!r}")


def _output_root(options: dict) -> Path:
    if "out" in options:
        return Path(str(options["out"]))
    env = os.environ.get("ZENOLAB_OUT")
    return Path(env) if env else Path("zenolab-out")


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".16e")
    return str(value)


def write_table(path: Path, table: CurveTable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + ",".join(table.columns) + "\n")
        for row in table.rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


def emit_outputs(bundle: VerdictBundle, out_dir: Path, fmt: str) -> list[Path]:
    """Write summary, bundle and/or CSV curves; returns the paths written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    summary_path = out_dir / "summary.txt"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(bundle.summary_text())
    written.append(summary_path)
    if fmt in ("bundle", "both"):
        bundle_path = out_dir / "bundle.json"
        bundle_path.write_bytes(bundle.to_json_bytes())
        written.append(bundle_path)
    if fmt in ("csv", "both"):
        for name in sorted(bundle.tables):
            csv_path = out_dir / f"{name}.csv"
            write_table(csv_path, bundle.tables[name])
            written.append(csv_path)
    return written


def _cmd_run(args: argparse.Namespace) -> int:
    options = _gather_options(args)
    spec = _build_spec(args.scenario, options)
    _require_read(args.scenario, options)
    bundle = run_scenario(args.scenario, spec)
    out_dir = _output_root(options) / args.scenario
    fmt = str(options.get("format", "both"))
    emit_outputs(bundle, out_dir, fmt)
    sys.stdout.write(bundle.summary_text())
    sys.stdout.write(f"outputs: {out_dir}\n")
    return 0 if bundle.passed else 1


def _cmd_list() -> int:
    for name in sorted(SCENARIOS):
        blurb = (SCENARIOS[name].__doc__ or "").strip().split("\n", 1)[0]
        print(f"{name:18} {blurb}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.param not in OPTIONS or OPTIONS[args.param][1] is None:
        raise ConfigError(f"cannot sweep over {args.param!r}")
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    options = _gather_options(args)
    _require_read(args.scenario, [args.param, *options])
    values = [_coerce(args.param, v.strip()) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values is empty")
    root = _output_root(options) / args.scenario
    fmt = str(options.get("format", "both"))

    def one(value) -> str:
        """PASS, FAIL or ERROR <reason>: a bad point does not stop the others."""
        point = dict(options)
        point[args.param] = value
        try:
            spec = _build_spec(args.scenario, point)
            bundle = run_scenario(args.scenario, spec)
        except (ConfigError, DomainError, PreconditionError) as exc:
            return f"ERROR {exc}"
        emit_outputs(bundle, root / f"{args.param}={value}", fmt)
        return "PASS" if bundle.passed else "FAIL"

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        outcomes = list(pool.map(one, values))
    for value, outcome in zip(values, outcomes):
        print(f"{args.param}={value}: {outcome}")
    print(f"outputs: {root}")
    if any(o.startswith("ERROR") for o in outcomes):
        return 2
    return 0 if all(o == "PASS" for o in outcomes) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list":
            return _cmd_list()
        return _cmd_sweep(args)
    except (ConfigError, DomainError, PreconditionError, SpaceMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
