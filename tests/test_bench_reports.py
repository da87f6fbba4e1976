"""The benchmark's reports, pinned byte for byte.

Every operation of ``perfbench/workloads.py`` at seeds 1, 2 and 3 runs
through ``passdown pipeline``; the sha256 of its exit code and standard
output must equal the digest recorded in
``tests/golden/bench_ops_seed<seed>.sha256`` (one
``<digest>  <workload>: <label>`` line per operation, sorted by key).  A
change that keeps every benchmark report byte-identical keeps these files
unchanged.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from passdown.cli import main

from bench_ops import workloads

GOLDEN = Path(__file__).resolve().parent / "golden"
SEEDS = (1, 2, 3)


def _digest(op, tmp_path):
    path = tmp_path / "op.txt"
    path.write_text(op.text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["pipeline", str(path), "--name", op.pipeline])
    return hashlib.sha256(f"exit {code}\n{out.getvalue()}".encode()).hexdigest()


def digests(tmp_path, seed):
    """``{"<workload>: <label>": sha256}`` over every operation of ``seed``."""
    return {
        f"{name}: {op.label}": _digest(op, tmp_path)
        for name in sorted(workloads.WORKLOADS)
        for op in workloads.generate(name, seed)
    }


def render(table):
    return "".join(f"{table[key]}  {key}\n" for key in sorted(table))


@pytest.mark.parametrize("seed", SEEDS)
def test_reports_match_the_golden_digests(tmp_path, seed):
    golden = GOLDEN / f"bench_ops_seed{seed}.sha256"
    assert render(digests(tmp_path, seed)) == golden.read_text()
