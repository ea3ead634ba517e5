#!/usr/bin/env python3
"""Compare two output trees of the CLI or the battery; exit 0 iff they agree.

Usage: python scripts/compare_runs.py OLD NEW.  Each report.json is compared
without ``wall_seconds`` and ``parameters.threads``, every other file byte
for byte; each difference and each file found on one side only is printed.
A report difference is named by its dotted path down to the field that
differs, a metric by its name: ``[metrics.indicator_norm_identity.value]``.
A differing CSV is sized: the count of its numeric cells that differ, their
largest absolute and relative gaps, and the count of other cells that differ.
"""
import csv
import json
import math
import sys
from itertools import chain
from pathlib import Path


def _report(path: Path) -> dict:
    report = json.loads(path.read_text())
    report.pop("wall_seconds", None)
    report.get("parameters", {}).pop("threads", None)
    return report


_MISSING = object()


def _keyed(value) -> dict | None:
    """A JSON object or array as a mapping, or None for a scalar.  Array
    items are keyed by their "name" where every item has a distinct one,
    else by their index."""
    if isinstance(value, dict):
        return value
    if not isinstance(value, list):
        return None
    names = [v.get("name") if isinstance(v, dict) else None for v in value]
    if None in names or len(set(names)) != len(names):
        names = [str(i) for i in range(len(value))]
    return dict(zip(names, value))


def _report_gaps(a, b, path: str = "") -> list[str]:
    """Dotted paths of the fields at which two JSON values differ."""
    if a == b:
        return []
    ka, kb = _keyed(a), _keyed(b)
    if ka is None or kb is None or type(a) is not type(b):
        return [path]
    return [
        gap
        for k in sorted(ka.keys() | kb.keys())
        for gap in _report_gaps(ka.get(k, _MISSING), kb.get(k, _MISSING),
                                f"{path}.{k}" if path else k)
    ]


def _csv_gap(old: Path, new: Path) -> str:
    """How two CSV files differ, cell by cell."""
    tables = [list(csv.reader(p.open(newline=""))) for p in (old, new)]
    if [len(row) for row in tables[0]] != [len(row) for row in tables[1]]:
        return "tables differ in shape"
    cells, other, gap_abs, gap_rel = 0, 0, 0.0, 0.0
    for x, y in zip(*(chain.from_iterable(t) for t in tables)):
        if x == y:
            continue
        try:
            u, v = float(x), float(y)
        except ValueError:
            u = v = math.nan
        if not (math.isfinite(u) and math.isfinite(v)):
            other += 1
            continue
        cells += 1
        gap = abs(u - v)
        gap_abs = max(gap_abs, gap)
        gap_rel = max(gap_rel, gap / max(abs(u), abs(v)) if gap else 0.0)
    return (
        f"{cells} numeric cells, largest gap {gap_abs:.3g} absolute and "
        f"{gap_rel:.3g} relative; {other} other cells"
    )


def compare(old: Path, new: Path) -> list[str]:
    files = [{p.relative_to(r) for p in r.rglob("*") if p.is_file()} for r in (old, new)]
    problems = [f"only in {old}: {f}" for f in sorted(files[0] - files[1])]
    problems += [f"only in {new}: {f}" for f in sorted(files[1] - files[0])]
    for f in sorted(files[0] & files[1]):
        if f.name == "report.json":
            gaps = _report_gaps(_report(old / f), _report(new / f))
            problems += [f"differs: {f} [{gap}]" for gap in gaps]
        elif (old / f).read_bytes() != (new / f).read_bytes():
            gap = f" ({_csv_gap(old / f, new / f)})" if f.suffix == ".csv" else ""
            problems.append(f"differs: {f}{gap}")
    return problems


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    problems = compare(Path(sys.argv[1]), Path(sys.argv[2]))
    print("\n".join(problems) or "no differences")
    sys.exit(1 if problems else 0)
