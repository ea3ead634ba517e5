"""Each command takes, reads and echoes the settings of its row of
``experiments.SETTINGS_READ``, and no others.

The flags the battery, the benchmark workloads and the README pass must
all parse: a flag the table refuses would stop that run with exit 2.  The
battery's runs and the workloads are read from their sources with ``ast``,
so the check imports nothing from ``scripts`` or ``perfbench``.
"""
import ast
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from fracsde import experiments
from fracsde.cli import _COMMANDS, _parser, main
from fracsde.experiments import NEGATIVITY_DELTA, SETTINGS_READ, RunSettings

ROOT = Path(__file__).resolve().parents[1]
FIELDS = {f.name for f in fields(RunSettings)}


def battery_runs() -> list[list[str]]:
    tree = ast.parse((ROOT / "scripts" / "run_all_experiments.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "RUNS" for t in node.targets)):
            return [[command, *flags] for command, flags in ast.literal_eval(node.value)]
    raise AssertionError("run_all_experiments.py assigns no RUNS")


def workload_commands() -> list[list[str]]:
    """Each command of perfbench/workloads.py, with the flags that
    perfbench/child.py appends to it."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    commands = [
        list(command)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Workload"
        for command in ast.literal_eval(node.args[2])
    ]
    assert commands, "workloads.py builds no Workload"
    return [[*c, "--seed", "1", "--threads", "1", "--out", "out"] for c in commands]


def readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S)[1]
    lines = [shlex.split(line)[1:] for line in block.splitlines()
             if line.startswith("fracsde ")]
    assert lines, "the README's command-line block runs no fracsde command"
    return lines


@pytest.mark.parametrize("argv", [
    *battery_runs(), *workload_commands(), *readme_commands(),
], ids=lambda argv: " ".join(argv))
def test_every_documented_and_benchmarked_command_line_parses(argv):
    args = _parser().parse_args(argv)
    assert args.command == argv[0]


def test_the_table_covers_every_command_with_real_settings():
    assert set(SETTINGS_READ) == set(_COMMANDS)
    for command, read in SETTINGS_READ.items():
        assert {"seed", "threads"} <= set(read) <= FIELDS, command


# tests/test_experiments_cli.py refuses the unread flags of negativity,
# euler-study and operator-check one by one; these reach a read flag only
# by abbreviation
@pytest.mark.parametrize("argv, flag", [
    (["girsanov-check", "--alpha", "0.3", "--beta", "0.3", "--a", "0.4"], "--a 0.4"),
    (["operator-check", "--alph", "0.3"], "--alph 0.3"),
])
def test_a_flag_is_not_abbreviated(argv, flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--out", str(tmp_path)])
    assert exit_.value.code == 2
    assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_a_config_key_the_command_does_not_read_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.25\nsamples = 50\n")
    code = main(["operator-check", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: ValueError:" in err
    assert "operator-check does not read setting 'samples'" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", sorted(SETTINGS_READ))
def test_no_beta_is_offered_where_beta_is_read(command):
    if "beta" in SETTINGS_READ[command]:
        assert _parser().parse_args([command, "--no-beta"]).no_beta is True
    else:
        with pytest.raises(SystemExit):
            _parser().parse_args([command, "--no-beta"])


# tiny runs of each command, both simulate models included
_TINY = {
    "simulate-line": ("simulate", dict(alpha=0.3, grid_n=8, samples=50)),
    "simulate-sheet": ("simulate", dict(alpha=0.3, beta=0.7, grid_n=8, samples=50)),
    "exact-vs-chaos": ("exact-vs-chaos",
                       dict(alpha=0.7, a=0.5, b=0.2, grid_n=16, samples=50)),
    "euler-study": ("euler-study", dict(a=0.5, samples=50)),
    "negativity": ("negativity", dict(T=3.0, grid_n=8, epsilon=0.05, samples=50)),
    "girsanov-check": ("girsanov-check",
                       dict(alpha=0.3, beta=0.3, grid_n=8, samples=50)),
    "operator-check": ("operator-check", dict(alpha=0.25)),
}


def _documented_echoes(command: str, settings: RunSettings) -> dict:
    """The values a report echoes in place of a setting: the model that
    negativity runs and the truncation a command resolves from None."""
    if command == "negativity":
        return dict(alpha=0.5, beta=0.5, b=-settings.a, delta=NEGATIVITY_DELTA,
                    truncation=3)
    if command == "exact-vs-chaos":
        return dict(truncation=20)
    return {}


@pytest.mark.parametrize("run", list(_TINY))
def test_a_report_echoes_what_its_command_read(run, monkeypatch):
    command, values = _TINY[run]
    reads, recording = set(), [False]

    class Recording(RunSettings):
        def __getattribute__(self, name):
            if recording[0] and name in FIELDS:
                reads.add(name)
            return object.__getattribute__(self, name)

    report_ = experiments._report

    def report(*args, **kwargs):
        recording[0] = False
        return report_(*args, **kwargs)

    monkeypatch.setattr(experiments, "_report", report)
    settings = Recording(**values)
    recording[0] = True
    parameters = _COMMANDS[command](settings).parameters
    recording[0] = False

    table = set(SETTINGS_READ[command])
    # operator-check draws nothing, so it reads neither seed nor threads
    # before the report stamps the seed; every command takes both
    assert reads | {"seed", "threads"} == table
    echoed = {name: getattr(settings, name) if name in table else None
              for name in sorted(FIELDS)}
    assert parameters == {**echoed, **_documented_echoes(command, settings)}
