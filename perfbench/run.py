#!/usr/bin/env python3
"""fracsde benchmark: time one workload end to end, or trace its layers.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload line-chaos --seed 20240801 --seconds 40 --trace 0

Each repetition starts a fresh interpreter (``perfbench/child.py``) with
BLAS and OpenMP pinned to one thread; it runs the workload's commands
through ``fracsde.cli.main`` and checks their output.  Repetitions run one
after another (a closed loop with one client) until ``--seconds`` would be
exceeded, at least one of each kind.  With ``--trace 0`` every repetition
is untraced and the end-to-end metrics are medians over them.  With
``--trace 1`` untraced and traced repetitions alternate; the per-layer
metrics are medians over the traced ones, and ``trace.overhead_s`` is the
traced minus the untraced median wall time.

The metrics printed, and their units, are those named in BENCHMARK.json.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (commands) and ``metrics``.
Details of every repetition, with the environment, go to
``.perfbench/runs/<workload>-seed<seed>-trace<t>/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
PINNED_ENV = {
    name: str(BLAS_THREADS)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
# every run must end within 180 s; stop starting repetitions well before
DEADLINE_S = 165.0


class MissingProgram(RuntimeError):
    """The working directory holds no fracsde source tree."""


class Oversubscribed(RuntimeError):
    """Worker threads times BLAS threads exceed the CPUs available."""


class MissingMetric(RuntimeError):
    """A metric named in BENCHMARK.json got no value."""


def check_threads(threads: int, blas_threads: int, nproc: int) -> None:
    if threads * blas_threads > nproc:
        raise Oversubscribed(
            f"--threads {threads} x BLAS threads {blas_threads} > nproc {nproc}"
        )


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def run_rep(root: Path, commands, seed: int, threads: int, traced: bool,
            run_dir: Path, rep: int, timeout: float) -> dict:
    """Run one workload process and summarise it."""
    run_id = f"{run_dir.name}-rep{rep}"
    work = root / ".perfbench" / "work" / run_id
    record_path = run_dir / f"rep{rep}.json"
    log_path = run_dir / f"rep{rep}.log"
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--commands", json.dumps(commands), "--seed", str(seed),
        "--threads", str(threads), "--trace", str(int(traced)),
        "--work", str(work), "--run-id", run_id, "--record", str(record_path),
    ]
    status = usage = None
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env={**os.environ, **PINNED_ENV},
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if status is None:
                proc.kill()
                proc.wait()
    shutil.rmtree(work, ignore_errors=True)

    summary = {"rep": rep, "traced": traced, "wall_s": wall,
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode != 0 or not record_path.exists():
        tail = log_path.read_text().strip().splitlines()[-1:]
        summary.update(attempted=len(commands), failed=len(commands), digests=[],
                       reasons=[f"workload process exit {proc.returncode}: {tail}"])
        return summary
    record = json.loads(record_path.read_text())
    cmds = record["commands"]
    map_s = sum(c["map_s"] for c in cmds)
    replicas = sum(c["replicas"] for c in cmds)
    summary.update(
        attempted=len(cmds),
        failed=sum(1 for c in cmds if c["reasons"]),
        reasons=[r for c in cmds for r in c["reasons"]],
        digests=[c["digest"] for c in cmds],
        setup_s=record["import_s"] + sum(c["setup_s"] for c in cmds),
        replicas=replicas,
        map_s=map_s,
        replicas_per_s=replicas / map_s if map_s > 0 else 0.0,
        environment=record["environment"],
        layers=record.get("layers"),
    )
    return summary


def run(root: Path, workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (root / "src" / "fracsde" / "cli.py").is_file():
        raise MissingProgram(f"no src/fracsde/cli.py under {root}")
    workload = WORKLOADS[workload_name]
    nproc = len(os.sched_getaffinity(0))
    check_threads(workload.threads, BLAS_THREADS, nproc)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]

    run_dir = root / ".perfbench" / "runs" / f"{workload_name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    commands = [list(c) for c in workload.commands]

    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        remaining = DEADLINE_S - (time.perf_counter() - start)
        reps.append(run_rep(root, commands, seed, workload.threads, traced,
                            run_dir, len(reps), remaining))
        r = reps[-1]
        print(f"rep {r['rep']} {'traced' if traced else 'untraced'}: "
              f"wall {r['wall_s']:.3f} s, peak RSS {r['peak_rss_mb']:.0f} MB, "
              f"failed {r['failed']}/{r['attempted']}, digests {r['digests']}", flush=True)
        for reason in r["reasons"]:
            print(f"  FAIL {reason}", flush=True)
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(reps)
        missing_kind = trace and len(reps) < 2
        if elapsed + per_rep > DEADLINE_S:
            break
        if not missing_kind and elapsed + per_rep > seconds:
            break

    plain = [r for r in reps if not r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    reproducible = len({tuple(r["digests"]) for r in reps}) == 1
    timed = [r for r in plain if "setup_s" in r]
    values: dict[str, float] = {}
    if timed:
        for key in ("wall_s", "setup_s", "replicas_per_s", "peak_rss_mb"):
            values[key] = statistics.median(r[key] for r in timed)
    values["passed_share"] = (attempted - failed) / attempted
    traced_reps = [r for r in reps if r["traced"] and r.get("layers")]
    if traced_reps and timed:
        for key in traced_reps[0]["layers"]:
            values[key] = statistics.median(r["layers"][key] for r in traced_reps)
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced_reps)
            - statistics.median(r["wall_s"] for r in timed)
        )

    env = next((r["environment"] for r in reps if "environment" in r), {})
    env.update(nproc=nproc, blas_threads=BLAS_THREADS, pinned=PINNED_ENV,
               threads=workload.threads, seed=seed, commit=git_commit(root))
    correct = failed == 0 and reproducible
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(
        {"workload": workload_name, "environment": env, "reproducible": reproducible,
         "result": result, "all_values": values,
         "reps": [{k: v for k, v in r.items() if k != "environment"} for r in reps]},
        indent=1, sort_keys=True))

    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"repetitions: {len(plain)} untraced, {len(reps) - len(plain)} traced; "
          f"outputs reproducible across repetitions: {reproducible}")
    print(f"failed_share = {failed / attempted:.6g} share ({failed} of {attempted} commands)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise MissingMetric(f"no value for {missing}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=20240801)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(Path.cwd(), args.workload, args.seed, args.seconds, bool(args.trace))
    except (MissingProgram, Oversubscribed, MissingMetric) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
