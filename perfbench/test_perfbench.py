"""Self-tests of the benchmark, at tiny replica counts.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the repository root; the traced workload processes import
fracsde from ``src/``.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from child import check_output
from run import PINNED_ENV, Oversubscribed, check_threads
from tracer import covered_length, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# sheet-fields needs two chunks (4096 replicas each) for the thread test
TINY_SAMPLES = {"line-chaos": 300, "sheet-fields": 5000, "sheet-chain": 100}


def tiny_commands(name: str) -> list[list[str]]:
    out = []
    for argv in WORKLOADS[name].commands:
        argv = list(argv)
        if "--samples" in argv:
            argv[argv.index("--samples") + 1] = str(TINY_SAMPLES[name])
        out.append(argv)
    return out


def traced_run(tmp_path: Path, name: str, threads: int) -> tuple[dict, list[dict]]:
    record = tmp_path / f"{name}-t{threads}.json"
    subprocess.run(
        [sys.executable, str(HERE / "child.py"),
         "--commands", json.dumps(tiny_commands(name)), "--seed", "7",
         "--threads", str(threads), "--trace", "1",
         "--work", str(tmp_path / f"out-{name}-t{threads}"), "--run-id", "test",
         "--record", str(record)],
        cwd=ROOT, env={**os.environ, **PINNED_ENV}, check=True,
        stdout=subprocess.DEVNULL, timeout=300,
    )
    spans = [json.loads(line)
             for line in record.with_suffix(".spans.jsonl").read_text().splitlines()]
    return json.loads(record.read_text()), spans


def descendants_of(spans, root_id: int) -> list[dict]:
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        parent = by_id.get(s["parent"])
        while parent is not None and parent["id"] != root_id:
            parent = by_id.get(parent["parent"])
        if parent is not None:
            out.append(s)
    return out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return {
        (name, threads): traced_run(tmp, name, threads)
        for name, threads in (("line-chaos", 1), ("sheet-chain", 1),
                              ("sheet-fields", 1), ("sheet-fields", 2))
    }


def test_self_time_subtracts_the_union_of_children():
    assert covered_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        # two chunks of a threaded map overlap; a third sticks out past the end
        {"id": 2, "parent": 1, "start": 1.0, "end": 5.0},
        {"id": 3, "parent": 1, "start": 2.0, "end": 6.0},
        {"id": 4, "parent": 1, "start": 9.0, "end": 12.0},
        {"id": 5, "parent": 2, "start": 1.5, "end": 2.5},
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)


def test_oversubscription_is_refused():
    check_threads(2, 1, 2)
    with pytest.raises(Oversubscribed):
        check_threads(2, 1, 1)
    with pytest.raises(Oversubscribed):
        check_threads(1, 4, 2)


def test_output_check(tmp_path):
    report = {"metrics": [{"name": "m", "passed": True, "value": 1.0}],
              "parameters": {"threads": 1}, "wall_seconds": 1.0}
    (tmp_path / "report.json").write_text(json.dumps(report))
    (tmp_path / "t.csv").write_text("a,b\n1,2\n")
    reasons, digest = check_output(tmp_path, 0)
    assert reasons == []
    report.update(wall_seconds=2.0, parameters={"threads": 2})
    (tmp_path / "report.json").write_text(json.dumps(report))
    assert check_output(tmp_path, 0) == ([], digest)

    (tmp_path / "t.csv").write_text("a,b\n1,3\n")
    assert check_output(tmp_path, 0)[1] != digest

    report["metrics"][0]["value"] = float("nan")
    (tmp_path / "report.json").write_text(json.dumps(report))
    reasons, digest = check_output(tmp_path, 0)
    assert digest is None and "non-finite" in reasons[0]

    report["metrics"][0].update(value=1.0, passed=False)
    (tmp_path / "report.json").write_text(json.dumps(report))
    reasons, _ = check_output(tmp_path, 1)
    assert reasons == ["exit code 1", "metrics not passed: ['m']"]


def test_child_spans_never_exceed_their_command(runs):
    for (name, threads), (record, spans) in runs.items():
        # at these replica counts a statistical verdict may fail; the
        # report must still parse
        assert all(c["digest"] for c in record["commands"]), (name, record["commands"])
        roots = [s for s in spans if s["name"] == "cli.main" or s["name"].startswith("experiments.cmd_")]
        assert len(roots) == 2 * len(WORKLOADS[name].commands)
        for root in roots:
            children = [s for s in spans if s["parent"] == root["id"]]
            assert children, (name, root["name"])
            assert sum(s["end"] - s["start"] for s in children) <= root["end"] - root["start"]


def test_normal_count_is_replicas_times_cells_for_sheet_simulate(runs):
    record, spans = runs[("sheet-fields", 2)]
    simulate = next(s for s in spans if s["name"] == "cli.main" and s["command"] == 0)
    draws = [s for s in descendants_of(spans, simulate["id"]) if s["name"] == "model.rng.draw"]
    cells = 16 * 16
    assert sum(s["normals"] for s in draws) == TINY_SAMPLES["sheet-fields"] * cells
    girsanov_cells = 64 * 64
    assert record["layers"]["model.rng.normals"] == TINY_SAMPLES["sheet-fields"] * (
        cells + girsanov_cells
    )


def test_sheet_fields_digests_do_not_depend_on_threads(runs):
    one = [c["digest"] for c in runs[("sheet-fields", 1)][0]["commands"]]
    two = [c["digest"] for c in runs[("sheet-fields", 2)][0]["commands"]]
    assert None not in one and one == two
    layers = runs[("sheet-fields", 2)][0]["layers"]
    assert layers["experiments.chunks"] == 4
    assert 0.0 < layers["experiments.worker_busy_share"] <= 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "line-chaos",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
    assert "MissingProgram" in out.stderr
