"""Smoke run of the benchmark's operation shapes.

Seed 1 of each workload in ``perfbench/workloads.py``: its two cheapest
operations by triangles x levels, plus the widest surgery grid, run
through ``passdown pipeline``.  Each verdict must match the outcome the
generator derives from the construction: exit code, covolume ledger,
certificate level and whether an ACC alert appears.
"""

import pytest

from passdown.cli import main

from bench_ops import workloads


def _picked():
    out = []
    for name in sorted(workloads.WORKLOADS):
        ops = workloads.generate(name, 1)
        picked = sorted(ops, key=lambda op: op.tri_levels)[:2]
        if name == "surgery":
            picked.append(max(ops, key=lambda op: op.track_link))
        out += [pytest.param(op, id=f"{name}: {op.label}") for op in picked]
    return out


def _line_value(text, prefix):
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


@pytest.mark.parametrize("op", _picked())
def test_verdict_matches_the_construction(op, tmp_path, capsys):
    path = tmp_path / "op.txt"
    path.write_text(op.text)
    code = main(["pipeline", str(path), "--name", op.pipeline])
    out = capsys.readouterr().out
    exp = op.expected
    assert code == exp.exit
    assert tuple(map(int, _line_value(out, "covolume ledger:").split())) == exp.ledger
    level = _line_value(out, "certified: every B'_w is a tree at level ")
    assert (None if level is None else int(level)) == exp.cert_level
    assert ("\nACC alert: " in out) == exp.acc
