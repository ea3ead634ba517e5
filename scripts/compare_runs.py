#!/usr/bin/env python3
"""Compare two output trees of the CLI or the battery; exit 0 iff they agree.

Usage: python scripts/compare_runs.py OLD NEW.  Each report.json is compared
without ``wall_seconds`` and ``parameters.threads``, every other file byte
for byte; each difference and each file found on one side only is printed.
"""
import json
import sys
from pathlib import Path


def _report(path: Path) -> dict:
    report = json.loads(path.read_text())
    report.pop("wall_seconds", None)
    report.get("parameters", {}).pop("threads", None)
    return report


def compare(old: Path, new: Path) -> list[str]:
    files = [{p.relative_to(r) for p in r.rglob("*") if p.is_file()} for r in (old, new)]
    problems = [f"only in {old}: {f}" for f in sorted(files[0] - files[1])]
    problems += [f"only in {new}: {f}" for f in sorted(files[1] - files[0])]
    for f in sorted(files[0] & files[1]):
        if f.name == "report.json":
            a, b = _report(old / f), _report(new / f)
            keys = sorted(k for k in a | b if a.get(k) != b.get(k))
            problems += [f"differs: {f} [{k}]" for k in keys]
        elif (old / f).read_bytes() != (new / f).read_bytes():
            problems.append(f"differs: {f}")
    return problems


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    problems = compare(Path(sys.argv[1]), Path(sys.argv[2]))
    print("\n".join(problems) or "no differences")
    sys.exit(1 if problems else 0)
