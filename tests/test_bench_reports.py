"""The benchmark's reports, pinned byte for byte.

Every seed-1 operation of ``perfbench/workloads.py`` runs through
``passdown pipeline``; the sha256 of its exit code and standard output
must equal the digest recorded in ``tests/golden/bench_ops_seed1.sha256``
(one ``<digest>  <workload>: <label>`` line per operation, sorted by
key).  A change that keeps every benchmark report byte-identical keeps
this file unchanged.
"""

import contextlib
import hashlib
import io
from pathlib import Path

from passdown.cli import main

from bench_ops import workloads

GOLDEN = Path(__file__).resolve().parent / "golden" / "bench_ops_seed1.sha256"


def _digest(op, tmp_path):
    path = tmp_path / "op.txt"
    path.write_text(op.text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["pipeline", str(path), "--name", op.pipeline])
    return hashlib.sha256(f"exit {code}\n{out.getvalue()}".encode()).hexdigest()


def digests(tmp_path):
    """``{"<workload>: <label>": sha256}`` over every seed-1 operation."""
    return {
        f"{name}: {op.label}": _digest(op, tmp_path)
        for name in sorted(workloads.WORKLOADS)
        for op in workloads.generate(name, 1)
    }


def render(table):
    return "".join(f"{table[key]}  {key}\n" for key in sorted(table))


def test_seed1_reports_match_the_golden_digests(tmp_path):
    assert render(digests(tmp_path)) == GOLDEN.read_text()
