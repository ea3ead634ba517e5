"""One workload process: import fracsde, run its commands, check their output.

Started by ``run.py`` in a fresh interpreter with BLAS threads pinned, from
the root of a source checkout:

    python3 perfbench/child.py --commands '[["euler-study", "--a", "1"]]' \
        --seed 20240801 --threads 1 --trace 0 --work .perfbench/work/x \
        --run-id x --record .perfbench/work/x.json

Each command goes through ``fracsde.cli.main`` with ``--seed``,
``--threads`` and ``--out`` appended.  Untraced, the only hook is a span
around each chunk map (its entry time ends the command's set-up).  Traced
(``--trace 1``), every layer function is wrapped too; the spans go to
``<record stem>.spans.jsonl`` and their per-layer numbers into the record.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

from tracer import MAP_SPAN, Tracer, layer_metrics


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in report.json")


def check_output(out_dir: Path, exit_code: int) -> tuple[list[str], str | None]:
    """(failure reasons, digest) for one command's output directory.

    The digest covers report.json and the bytes of every CSV, so two runs
    of the same code compare byte for byte.  It leaves out ``wall_seconds``
    and the echoed ``threads`` setting: neither is a result, and the thread
    count must not change any result.
    """
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit code {exit_code}")
    try:
        report = json.loads((out_dir / "report.json").read_text(),
                            parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        return reasons + [f"report.json: {exc}"], None
    failing = [m.get("name") for m in report.get("metrics", []) if m.get("passed") is not True]
    if failing:
        reasons.append(f"metrics not passed: {failing}")
    if not report.get("metrics"):
        reasons.append("report has no metrics")
    report.pop("wall_seconds", None)
    report.get("parameters", {}).pop("threads", None)
    h = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    for csv_path in sorted(out_dir.glob("*.csv")):
        h.update(csv_path.name.encode() + b"\0" + csv_path.read_bytes())
    return reasons, h.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run(commands, seed: int, threads: int, trace: bool, work: Path, run_id: str,
        spans_path: Path) -> dict:
    sys.path.insert(0, str(Path.cwd() / "src"))
    t_import = time.perf_counter()
    import fracsde.cli as cli
    from fracsde.special import calibrate_d_alpha

    import_s = time.perf_counter() - t_import

    tracer = Tracer(run_id)
    tracer.install_map_clock(chunks=trace)
    if trace:
        tracer.install_layers()
    calibration_before = calibrate_d_alpha.cache_info()

    results = []
    for idx, argv in enumerate(commands):
        out_dir = work / f"{idx:02d}_{argv[0]}"
        full = [*argv, "--seed", str(seed), "--threads", str(threads), "--out", str(out_dir)]
        with tracer.span("cli.main", command=idx) as rec:
            code = cli.main(full)
        reasons, digest = check_output(out_dir, code)
        maps = [s for s in tracer.spans
                if s["name"] == MAP_SPAN and rec["start"] <= s["start"] <= rec["end"]]
        first_map = min((s["start"] for s in maps), default=rec["end"])
        results.append({
            "argv": full,
            "exit_code": code,
            "reasons": reasons,
            "digest": digest,
            "wall_s": rec["end"] - rec["start"],
            "setup_s": first_map - rec["start"],
            "map_s": sum(s["end"] - s["start"] for s in maps),
            "replicas": sum(s["replicas"] for s in maps),
        })

    record = {
        "run_id": run_id,
        "traced": trace,
        "import_s": import_s,
        "commands": results,
        "environment": environment(),
    }
    if trace:
        calibration = calibrate_d_alpha.cache_info()
        layers = layer_metrics(
            tracer.spans,
            calibration.hits - calibration_before.hits,
            calibration.misses - calibration_before.misses,
        )
        layers["fracsde.import_s"] = import_s
        record["layers"] = layers
        tracer.dump(spans_path)
        record["spans"] = str(spans_path)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--commands", required=True, help="JSON list of fracsde argv lists")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--record", required=True)
    args = ap.parse_args(argv)
    record_path = Path(args.record)
    record = run(json.loads(args.commands), args.seed, args.threads, bool(args.trace),
                 Path(args.work), args.run_id, record_path.with_suffix(".spans.jsonl"))
    record_path.write_text(json.dumps(record, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
