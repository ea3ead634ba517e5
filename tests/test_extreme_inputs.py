"""No traceback at any finite input: every command, at tiny sizes, over
extreme values of each real-valued setting it reads.

A run may pass or fail its metrics (exit 0 or 1) and must then write a
strict-JSON ``report.json``, or refuse its input (exit 2) with a named
``error:`` line.  A flag is swept only where the command's row of
``experiments.SETTINGS_READ`` lists it.
"""
import json

import pytest

from fracsde.cli import main
from fracsde.experiments import SETTINGS_READ

# tiny runs of every command; a swept flag given later overrides its base
BASES = {
    "exact-vs-chaos": ["exact-vs-chaos", "--alpha", "0.7", "--grid-n", "8",
                       "--samples", "10"],
    "euler-study": ["euler-study", "--samples", "10"],
    "negativity": ["negativity", "--T", "3", "--grid-n", "8", "--epsilon", "0.05",
                   "--samples", "10"],
    "girsanov-check": ["girsanov-check", "--alpha", "0.3", "--beta", "0.3",
                       "--grid-n", "8", "--samples", "10"],
    "operator-check": ["operator-check", "--alpha", "0.25"],
    "simulate-line": ["simulate", "--alpha", "0.3", "--grid-n", "8", "--samples", "10"],
    "simulate-sheet": ["simulate", "--alpha", "0.3", "--beta", "0.7", "--grid-n", "8",
                       "--samples", "10"],
}
EXTREMES = {
    "T": ["1e-300", "1e-100", "1e-8", "1e8", "1e100", "1e300"],
    "a": ["1e-300", "1e-8", "1e8", "1e300"],
    "b": ["-800", "800", "1e300", "-1e-3"],
    "epsilon": ["1e-300", "1e300"],
    "alpha": ["0.01", "0.99"],
    "beta": ["0.01", "0.99"],
}


def sweep() -> list[list[str]]:
    runs = []
    for base in BASES.values():
        read = SETTINGS_READ[base[0]]
        for setting, values in EXTREMES.items():
            # line simulate reads beta only to leave it unset
            if setting in read and not (setting == "beta" and "--beta" not in base):
                runs += [[*base, f"--{setting}", value] for value in values]
    return runs


def _reject(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_the_sweep_covers_every_command_and_setting():
    runs = sweep()
    assert {argv[0] for argv in runs} == set(SETTINGS_READ)
    assert {argv[-2].removeprefix("--") for argv in runs} == set(EXTREMES)
    assert len(runs) == 76


@pytest.mark.parametrize("argv", sweep(), ids=lambda argv: " ".join(argv))
def test_extreme_input_ends_in_a_report_or_a_named_error(argv, tmp_path, capsys):
    code = main([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and ": " in err.removeprefix("error: "), err
    else:
        assert code in (0, 1)
        report = json.loads((tmp_path / "report.json").read_text(),
                            parse_constant=_reject)
        assert report["passed"] is (code == 0)
