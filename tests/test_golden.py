"""Golden CLI reports: the exact stdout and exit code of each command on
the committed fixtures.

Each file in ``tests/golden/`` starts with one ``exit=<code>`` line,
followed by the command's stdout verbatim.  A refactor that claims to
keep reports byte-identical must keep these files passing unchanged.
``dot_pipeline_worked/`` holds the DOT files that
``passdown --dot DIR pipeline`` writes for the worked fixture, byte for
byte.  To regenerate after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile

import pytest

from passdown import cli
from passdown.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
FIX = os.path.join(HERE, "..", "fixtures")
WORKED = os.path.join(FIX, "worked_terminating.txt")
CONTRACTING = os.path.join(FIX, "contracting.txt")

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
    "split_XP_PT": ["split", WORKED, "--complex", "XP", "--tree", "PT"],
    "tracks_XP_PT": ["tracks", WORKED, "--complex", "XP", "--tree", "PT"],
    "contract_XP_T0": ["contract", WORKED, "--complex", "XP", "--tree", "T0"],
    "h1_XP": ["h1", WORKED, "--complex", "XP"],
    "reduce_XP": ["reduce", WORKED, "--complex", "XP"],
    "pipeline_contracting": ["pipeline", CONTRACTING, "--name", "contracting"],
    "certify_contracting": ["certify", CONTRACTING, "--name", "contracting"],
    "passdown_SC_TL": ["passdown", CONTRACTING, "--structure", "SC", "--tree", "TL"],
    "contract_XC_TL": ["contract", CONTRACTING, "--complex", "XC", "--tree", "TL"],
}


DOT_GOLDEN = os.path.join(GOLDEN, "dot_pipeline_worked")


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return f"exit={rc}\n" + out.getvalue()


def write_dot(directory):
    """Run the worked pipeline with ``--dot directory``; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["--dot", directory, "pipeline", WORKED, "--name", "worked"])


def read_dir(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    with open(os.path.join(GOLDEN, name + ".txt")) as fh:
        expected = fh.read()
    assert run_case(CASES[name]) == expected


def test_golden_dot_export(tmp_path):
    assert write_dot(str(tmp_path)) == 0
    assert read_dir(tmp_path) == read_dir(DOT_GOLDEN)


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        with open(os.path.join(GOLDEN, name + ".txt"), "w") as fh:
            fh.write(run_case(argv))
    shutil.rmtree(DOT_GOLDEN, ignore_errors=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_dot(tmp)
        shutil.copytree(tmp, DOT_GOLDEN)
    sys.exit(0)


def test_one_parser_serves_consecutive_commands():
    assert cli._parser() is cli._parser()
    for name in ("h1_XP", "passdown_S0_T0", "pipeline_worked", "h1_XP"):
        with open(os.path.join(GOLDEN, name + ".txt")) as fh:
            assert run_case(CASES[name]) == fh.read()
