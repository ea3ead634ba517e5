"""Command-line entry point.

Subcommands map one-to-one onto the experiment runners.  Settings come
from defaults, then a flat ``key = value`` config file, then explicit
flags, in that order of precedence.  Each run writes ``report.json`` and
one CSV per table into the output directory and exits 0 iff every metric
passed.
"""
from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import warnings
from dataclasses import fields as dc_fields
from pathlib import Path

from .experiments import (
    RunSettings,
    cmd_euler_study,
    cmd_exact_vs_chaos,
    cmd_girsanov_check,
    cmd_negativity,
    cmd_operator_check,
    cmd_simulate,
)

__all__ = ["main", "build_settings", "parse_config_file"]

_COMMANDS = {
    "simulate": cmd_simulate,
    "exact-vs-chaos": cmd_exact_vs_chaos,
    "euler-study": cmd_euler_study,
    "negativity": cmd_negativity,
    "girsanov-check": cmd_girsanov_check,
    "operator-check": cmd_operator_check,
}

# a negative decimal number, exponent included; argparse's own pattern
# misses "-1e-3" and would take "--b -1e-3" for a flag missing its value
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

# the messages of numpy's floating-point warnings
_FLOAT_WARNING = "(overflow|underflow|invalid value|divide by zero) encountered"

_PARSERS = {
    "int": int,
    "float": float,
    "bool": lambda text: text.lower() in ("1", "true", "yes"),
}
# setting name -> parser of its text form, from the RunSettings annotation
# ("int | None" parses as int); the flags and config keys derive from it
_SETTING_PARSERS = {
    f.name: _PARSERS[f.type.split(" | ")[0]] for f in dc_fields(RunSettings)
}


def parse_config_file(path: Path) -> dict:
    """Flat ``key = value`` pairs; '#' starts a comment; keys match flags."""
    out: dict = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _SETTING_PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
        out[key] = _convert(key, value)
    return out


def _convert(key: str, text: str):
    if text.lower() in ("none", ""):
        return None
    return _SETTING_PARSERS[key](text)


def build_settings(args: argparse.Namespace) -> RunSettings:
    values: dict = {}
    if args.config is not None:
        values.update(parse_config_file(Path(args.config)))
    for name in _SETTING_PARSERS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    if args.no_beta:
        values["beta"] = None
    return RunSettings(**values)


def _write_outputs(report, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False)
    (out_dir / "report.json").write_text(payload + "\n")
    for name, (header, rows) in sorted(report.tables.items()):
        with open(out_dir / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fracsde",
        description="Monte Carlo experiments for linear Skorohod equations "
        "driven by fractional noise",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        c = sub.add_parser(name)
        c._negative_number_matcher = _NEGATIVE_NUMBER
        for key, parse in _SETTING_PARSERS.items():
            flag = "--" + key.replace("_", "-")
            if parse is _PARSERS["bool"]:
                c.add_argument(flag, action="store_const", const=True)
            else:
                c.add_argument(flag, type=parse)
        c.add_argument("--no-beta", action="store_true",
                       help="force the one-parameter model even if the config sets beta")
        c.add_argument("--out", default=".")
        c.add_argument("--config")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # a value past the double range reads inf or nan and fails its metric;
    # numpy's floating-point warning would only repeat that on stderr.  The
    # filter list is process-wide, so it also holds in the pool's worker
    # threads, which do not inherit an np.errstate
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", _FLOAT_WARNING, RuntimeWarning)
        try:
            report = _COMMANDS[args.command](build_settings(args))
        except (ValueError, RuntimeError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
    _write_outputs(report, Path(args.out))
    for m in report.metrics:
        verdict = "PASS" if m.passed else "FAIL"
        line = f"{verdict} {m.name} = {m.value:.6g} ({m.tolerance})"
        if m.target is not None:
            line += f" target {m.target:.6g}"
        print(line)
    print(f"{report.experiment}: {'PASS' if report.passed else 'FAIL'} "
          f"in {report.wall_seconds:.2f}s")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
