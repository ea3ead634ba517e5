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
import sys
from dataclasses import fields as dc_fields
from pathlib import Path

from .experiments import (
    NegativityConfig,
    RunSettings,
    cmd_euler_study,
    cmd_exact_vs_chaos,
    cmd_girsanov_check,
    cmd_negativity,
    cmd_operator_check,
    cmd_simulate,
)
from .model import build_grid2d

__all__ = ["main", "build_settings", "parse_config_file"]

_COMMANDS = {
    "simulate": cmd_simulate,
    "exact-vs-chaos": cmd_exact_vs_chaos,
    "euler-study": cmd_euler_study,
    "negativity": None,  # wrapped below, takes NegativityConfig
    "girsanov-check": cmd_girsanov_check,
    "operator-check": cmd_operator_check,
}

_SETTING_TYPES = {f.name: f for f in dc_fields(RunSettings)}


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
        if key not in _SETTING_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
        out[key] = _convert(key, value)
    return out


def _convert(key: str, text: str):
    if text.lower() in ("none", ""):
        return None
    if key in ("grid_n", "samples", "seed", "threads", "truncation"):
        return int(text)
    if key == "debug_corrupt_quadrature":
        return text.lower() in ("1", "true", "yes")
    return float(text)


def build_settings(args: argparse.Namespace) -> RunSettings:
    values: dict = {}
    if args.config is not None:
        values.update(parse_config_file(Path(args.config)))
    for name in _SETTING_TYPES:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    if args.no_beta:
        values["beta"] = None
    return RunSettings(**values)


def _negativity_from(settings: RunSettings) -> NegativityConfig:
    return NegativityConfig(
        a=settings.a,
        epsilon=settings.epsilon,
        n_window=settings.T,
        grid=build_grid2d(settings.grid_n, settings.grid_n, settings.T),
        truncation=3 if settings.truncation is None else settings.truncation,
        replicas=settings.samples,
        seed=settings.seed,
        threads=settings.threads,
    )


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
        c.add_argument("--alpha", type=float)
        c.add_argument("--beta", type=float)
        c.add_argument("--no-beta", action="store_true",
                       help="force the one-parameter model even if the config sets beta")
        c.add_argument("--a", type=float)
        c.add_argument("--b", type=float)
        c.add_argument("--T", type=float)
        c.add_argument("--grid-n", dest="grid_n", type=int)
        c.add_argument("--samples", type=int)
        c.add_argument("--seed", type=int)
        c.add_argument("--truncation", type=int)
        c.add_argument("--epsilon", type=float)
        c.add_argument("--threads", type=int)
        c.add_argument("--out", default=".")
        c.add_argument("--config")
        c.add_argument("--debug-corrupt-quadrature", dest="debug_corrupt_quadrature",
                       action="store_const", const=True)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        settings = build_settings(args)
        if args.command == "negativity":
            report = cmd_negativity(_negativity_from(settings))
        else:
            report = _COMMANDS[args.command](settings)
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
