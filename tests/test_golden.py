"""Golden CLI reports: the exact stdout and exit code of each command on
the committed fixtures.

Each file in ``tests/golden/`` starts with one ``exit=<code>`` line,
followed by the command's stdout verbatim.  A refactor that claims to
keep reports byte-identical must keep these files passing unchanged.
To regenerate after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import os
import sys

import pytest

from passdown.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
FIX = os.path.join(HERE, "..", "fixtures")
WORKED = os.path.join(FIX, "worked_terminating.txt")

CASES = {
    "pipeline_worked": ["pipeline", WORKED, "--name", "worked"],
    "pipeline_f2": ["pipeline", os.path.join(FIX, "f2_style.txt"), "--name", "f2"],
    "pipeline_stable": ["pipeline", os.path.join(FIX, "acc_stable.txt"), "--name", "stable"],
    "certify_worked": ["certify", WORKED, "--name", "worked"],
    "passdown_S0_T0": ["passdown", WORKED, "--structure", "S0", "--tree", "T0"],
    "cutpoints_XP": ["cutpoints", WORKED, "--complex", "XP"],
    "classify_T0_Gab": ["classify", WORKED, "--tree", "T0", "--group", "Gab"],
    "resolve_XP_T0": ["resolve", WORKED, "--complex", "XP", "--tree", "T0"],
    "tracks_XP_T0": ["tracks", WORKED, "--complex", "XP", "--tree", "T0"],
    "split_XP_T0": ["split", WORKED, "--complex", "XP", "--tree", "T0"],
    "contract_XP_T0": ["contract", WORKED, "--complex", "XP", "--tree", "T0"],
    "h1_XP": ["h1", WORKED, "--complex", "XP"],
    "reduce_XP": ["reduce", WORKED, "--complex", "XP"],
}


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return f"exit={rc}\n" + out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    with open(os.path.join(GOLDEN, name + ".txt")) as fh:
        expected = fh.read()
    assert run_case(CASES[name]) == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        with open(os.path.join(GOLDEN, name + ".txt"), "w") as fh:
            fh.write(run_case(argv))
    sys.exit(0)
