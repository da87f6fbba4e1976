"""The benchmark's reports, pinned byte for byte.

Every operation of ``perfbench/workloads.py`` at seeds 1, 2 and 3 runs
through ``passdown pipeline``; the sha256 of its exit code and standard
output must equal the digest recorded in
``tests/golden/bench_ops_seed<seed>.sha256`` (one
``<digest>  <workload>: <label>`` line per operation, sorted by key).  A
change that keeps every benchmark report byte-identical keeps these files
unchanged.

The reports drop the per-stage covolume ledger that ``passdown_full``
returns, so ``tests/golden/passdown_ledger_seed<seed>.sha256`` pins it
beside them, in the same line format: per operation, the sha256 of what
every ``passdown_full`` call of the run returned, in call order.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from passdown import pipeline
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


def _passdown_digest(op, tmp_path, monkeypatch):
    calls = []
    passdown_full = pipeline.passdown_full

    def recorded(terminals, tl):
        result = passdown_full(terminals, tl)
        calls.append((
            list(terminals),
            {orbit: list(received) for orbit, received in result.terminals.items()},
            list(result.ledger.items()),
            sorted(result.tau.triangle_map.items(), key=lambda item: item[0]),
            sorted(result.tau.edge_map.items()),
            sorted(result.tau.renamed.items()),
        ))
        return result

    with monkeypatch.context() as m:
        m.setattr(pipeline, "passdown_full", recorded)
        _digest(op, tmp_path)
    return hashlib.sha256(repr(calls).encode()).hexdigest()


def passdown_digests(tmp_path, monkeypatch, seed):
    """``{"<workload>: <label>": sha256}`` over every operation of ``seed``,
    of the input terminal ids, the output terminal ids by vertex orbit, the
    ledger items and the triangle and side maps of each ``passdown_full``
    call, in call order."""
    return {
        f"{name}: {op.label}": _passdown_digest(op, tmp_path, monkeypatch)
        for name in sorted(workloads.WORKLOADS)
        for op in workloads.generate(name, seed)
    }


def render(table):
    return "".join(f"{table[key]}  {key}\n" for key in sorted(table))


@pytest.mark.parametrize("seed", SEEDS)
def test_reports_match_the_golden_digests(tmp_path, seed):
    golden = GOLDEN / f"bench_ops_seed{seed}.sha256"
    assert render(digests(tmp_path, seed)) == golden.read_text()


@pytest.mark.parametrize("seed", SEEDS)
def test_passdown_ledgers_match_the_golden_digests(tmp_path, monkeypatch, seed):
    golden = GOLDEN / f"passdown_ledger_seed{seed}.sha256"
    assert render(passdown_digests(tmp_path, monkeypatch, seed)) == golden.read_text()
