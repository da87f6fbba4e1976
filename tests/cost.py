"""Opcode counts of the engine: a cost that repeats exactly, run to run.

``opcodes(fn, *args)`` runs ``fn`` under ``sys.settrace`` with opcode
events on, and counts the bytecodes executed in frames whose code lies in
``src/passdown/``, per function.  Counts differ between hash seeds by a
hair and between CPython versions by more, so the tier-1 gates on them
(``tests/test_stability.py``) compare ratios, never raw counts.

Run as ``python tests/cost.py`` to print, for the ``worked`` and ``chain``
benchmark ops, the opcodes of ``run_pipeline`` (parse excluded) at
horizons 32 and 64 and the cost per level between them, by function.
"""

import random
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ENGINE = str(SRC / "passdown")

if __name__ == "__main__":
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

from bench_ops import workloads  # noqa: E402
from passdown.fixtures import parse_text  # noqa: E402
from passdown.pipeline import run_pipeline  # noqa: E402


def opcodes(fn, *args):
    """``fn(*args)``'s result and the bytecodes it executed in engine
    frames, as a Counter keyed by qualified function name."""
    counts, engine = Counter(), {}  # code object -> whether it lies in the engine

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def call(frame, event, arg):
        code = frame.f_code
        inside = engine.get(code)
        if inside is None:
            inside = engine[code] = code.co_filename.startswith(ENGINE)
        if not inside:
            return None
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    by_name = Counter()  # two code objects may share a name, say two generator expressions in one function
    for code, n in counts.items():
        by_name[getattr(code, "co_qualname", code.co_name)] += n
    return result, by_name


def run_opcodes(family, horizon):
    """The report and opcodes of ``run_pipeline`` on the seed-1 benchmark op
    of ``family`` (``worked`` or ``chain``) at ``horizon``, parse excluded."""
    op = getattr(workloads, family)(random.Random(1), horizon)
    fx = parse_text(op.text)
    return opcodes(run_pipeline, fx, op.pipeline)


def per_level(family, low=32, high=64):
    """The opcodes per level of ``family`` between horizons ``low`` and
    ``high``, by function, and the total."""
    (_, a), (_, b) = run_opcodes(family, low), run_opcodes(family, high)
    b.subtract(a)
    return {name: n / (high - low) for name, n in b.items() if n}, b.total() / (high - low)


def main():
    for family in ("worked", "chain"):
        by_function, total = per_level(family)
        print(f"{family}: {total:,.1f} opcodes per level (run_pipeline, H = 32 -> 64, parse excluded)")
        for name, n in sorted(by_function.items(), key=lambda item: (-item[1], item[0])):
            if abs(n) >= 0.5:
                print(f"  {n:9,.1f}  {name}")


if __name__ == "__main__":
    main()
