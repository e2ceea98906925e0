"""Command-line front end: run scenarios, emit summaries, bundles and curves.

Commands
--------
run <scenario>      execute one scenario, write summary + bundle + CSV curves
list                show the available scenarios
sweep <scenario>    re-run one scenario over a list of values for one
                    parameter, each run in its own output subdirectory;
                    --jobs N runs at most N points at once, and never more
                    threads than the CPUs this process may use

Exit status: 0 when every pass flag is true, 1 when the scenario ran but a
flag failed (scientific failure), 2 for usage, config, margin, memory or
I/O errors and for a flag or config key the scenario does not read (its
function's keyword-only parameters, `scenarios.READS`), which sweep checks
once, before any point runs.  A
sweep prints one PASS, FAIL or ERROR line per point in input order and
exits 2 when any point raised an error, after running all the others.

Output layout: <out>/<scenario>/summary.txt, bundle.json and one CSV per
curve table.  CSVs are UTF-8 with LF endings, a `# column,names` header
line, and 17-significant-digit scientific notation for floats so that
golden files round-trip bit-exactly.  An existing output file is rewritten
in place and cut to length: the same bytes as a truncate-then-write, and no
more atomic.  A write that fails midway leaves a partial file, and a machine
crash before writeback may leave the previous run's file whole, looking
complete and valid, or old and new bytes mixed.  The output root comes from
--out, else $ZENOLAB_OUT, else ./zenolab-out.

Flags and config keys are the `ScenarioSpec` fields but `name`, dashed
(`grid-points`), `N` for `n_measurements`, plus `out` and `format`.  Config
files are flat `key = value` lines with `#` comments; flags override them.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import DomainError, PreconditionError, SpaceMismatchError
from .scenarios import READS, SCENARIOS, CurveTable, ScenarioSpec, VerdictBundle, run_scenario
from .statespace import _map


class ConfigError(ValueError):
    """Malformed or unknown configuration input."""


#: errors that reject a spec (exit 2, or a sweep point's ERROR line); a MemoryError
#: is a grid this host cannot hold, not a failed physical claim
REJECTED = (ConfigError, DomainError, PreconditionError, MemoryError)


_HINTS = get_type_hints(ScenarioSpec)
#: long-flag spelling -> (python type, ScenarioSpec field or None for cli-only)
OPTIONS: dict[str, tuple[type, str | None]] = {
    "N" if f.name == "n_measurements" else f.name.replace("_", "-"):
        (int if _HINTS[f.name] is int else float, f.name)
    for f in fields(ScenarioSpec) if f.name != "name"
} | {"out": (str, None), "format": (str, None)}
#: values accepted by --format
FORMATS = ("csv", "bundle", "both")
#: --help text of the options that carry one
HELP = {
    "N": "number of selective measurements",
    "out": "output root (default: $ZENOLAB_OUT or ./zenolab-out)",
}


def _coerce(key: str, raw: str, where: str = ""):
    typ, _ = OPTIONS[key]
    if key == "format" and raw not in FORMATS:
        raise ConfigError(f"{where}format must be csv, bundle or both, not {raw!r}")
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"{where}key {key!r} expects {typ.__name__}, got {raw!r}") from None


def load_config(path: str) -> dict:
    """Parse a flat `key = value` file into typed option values."""
    values: dict[str, object] = {}
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line_no}: not UTF-8 text ({exc.reason})") from None
    # only "\n" ends a line, not a form feed or U+2028; strip() drops CRLF's "\r"
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "\0" in line:  # a path would fail only once the scenario has run
            raise ConfigError(f"{path}:{line_no}: embedded NUL character")
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, value = key.strip(), value.strip()
        if key not in OPTIONS:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        values[key] = _coerce(key, value, f"{path}:{line_no}: ")
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
    sweep_p.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="at most N points at once, and never more threads "
                              "than the CPUs this process may use")
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
    kind = type(value)  # exact types; a numpy scalar is written as its `.item()`
    if kind is float:
        return format(value, ".16e")
    if kind is bool:
        return "1" if value else "0"
    if kind is int or kind is str or not isinstance(value, np.generic):
        return str(value)
    return str(item) if isinstance(item := value.item(), np.generic) else _format_cell(item)


def write_table(path: Path, table: CurveTable) -> None:
    lines = ["# " + ",".join(table.columns)]
    lines += [",".join([_format_cell(v) for v in row]) for row in table.rows]
    _write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _write(path: Path, data: bytes) -> None:
    """`Path.write_bytes` in place: ext4, xfs and btrfs start writeback when a file truncated
    to zero and rewritten closes, so an existing file is overwritten and cut to length.
    Only a longer old file is cut: a FIFO or a device has no length and cannot be cut."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as file:
        old = os.fstat(fd).st_size
        file.write(data)
        if len(data) < old:
            file.truncate()


def emit_outputs(bundle: VerdictBundle, out_dir: Path, fmt: str) -> list[Path]:
    """Write summary, bundle and/or CSV curves; returns the paths written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    summary_path = out_dir / "summary.txt"
    _write(summary_path, bundle.summary_text().encode("utf-8"))
    written.append(summary_path)
    if fmt in ("bundle", "both"):
        bundle_path = out_dir / "bundle.json"
        _write(bundle_path, bundle.to_json_bytes())
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
        except REJECTED as exc:
            return f"ERROR {_reason(exc)}"
        emit_outputs(bundle, root / f"{args.param}={value}", fmt)
        return "PASS" if bundle.passed else "FAIL"

    outcomes = _map(one, values, most=args.jobs)
    for value, outcome in zip(values, outcomes):
        print(f"{args.param}={value}: {outcome}")
    print(f"outputs: {root}")
    if any(o.startswith("ERROR") for o in outcomes):
        return 2
    return 0 if all(o == "PASS" for o in outcomes) else 1


def _reason(exc: Exception) -> str:
    """The message of a rejection, or its type when it has none (a bare MemoryError)."""
    return str(exc) or type(exc).__name__


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list":
            return _cmd_list()
        return _cmd_sweep(args)
    except (*REJECTED, SpaceMismatchError, OSError) as exc:
        print(f"error: {_reason(exc)}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # Ctrl-C: one line and the shell's 128 + SIGINT, no traceback
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
