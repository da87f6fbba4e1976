"""Opcode counts of the engine: a cost that repeats exactly, run to run.

``opcodes(fn, *args)`` runs ``fn`` under ``sys.settrace`` with opcode
events on, and counts the bytecodes executed in frames whose code lies in
``src/passdown/``, per function.  Counts differ between hash seeds by a
hair and between CPython versions by more, so the tier-1 gates on them
(``tests/test_stability.py``) compare ratios, never raw counts.

It returns ``fn``'s result, the counts and, for each function named in
``inclusive``, every opcode run while one of its frames is on the stack
(empty when ``inclusive`` names none).

Run as ``python tests/cost.py`` to print, for the ``worked`` and ``chain``
benchmark ops, the opcodes of ``run_pipeline`` (parse excluded) at
horizons 32 and 64 and the cost per level between them, by function;
then, over the seed-1 ``surgery`` pool (parse plus ``run_pipeline``), the
inclusive opcodes of the track collapse and its parts, and the total.
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


def opcodes(fn, *args, inclusive=()):
    """``fn(*args)``'s result, the bytecodes it executed in engine frames,
    as a Counter keyed by qualified function name, and, as a second such
    Counter, for each name in ``inclusive`` every opcode run while a frame
    of its function is on the stack (none of them recurses)."""
    counts, engine = Counter(), {}  # code object -> whether it lies in the engine
    opened, spans = {}, Counter()  # open frame of an inclusive name -> the total at its call

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        elif event == "return" and frame in opened:
            spans[_name(frame.f_code)] += counts.total() - opened.pop(frame)
        return local

    def call(frame, event, arg):
        code = frame.f_code
        inside = engine.get(code)
        if inside is None:
            inside = engine[code] = code.co_filename.startswith(ENGINE)
        if not inside:
            return None
        frame.f_trace_opcodes = True
        if inclusive and _name(code) in inclusive:
            opened[frame] = counts.total()
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    by_name = Counter()  # two code objects may share a name, say two generator expressions in one function
    for code, n in counts.items():
        by_name[_name(code)] += n
    return result, by_name, spans


def _name(code):
    return getattr(code, "co_qualname", code.co_name)


def pipeline_opcodes(op):
    """The opcodes of ``run_pipeline`` on the benchmark op ``op``, parse
    excluded, as a Counter keyed by function."""
    return opcodes(run_pipeline, parse_text(op.text), op.pipeline)[1]


def run_opcodes(family, horizon):
    """The report and opcodes of ``run_pipeline`` on the seed-1 benchmark op
    of ``family`` (``worked`` or ``chain``) at ``horizon``, parse excluded."""
    op = getattr(workloads, family)(random.Random(1), horizon)
    fx = parse_text(op.text)
    return opcodes(run_pipeline, fx, op.pipeline)[:2]


COLLAPSE = ("_collapse", "split_collapse", "tracks_from_resolution", "_cutpoint_pieces")


def surgery_opcodes(seed=1):
    """Over the ``surgery`` pool of ``seed``, each op parsed and run: the
    inclusive opcodes of each function of ``COLLAPSE``, and the total."""
    spans, total = Counter(), 0

    def parse_and_run(op):
        return run_pipeline(parse_text(op.text), op.pipeline)

    for op in workloads.generate("surgery", seed):
        _, by_name, inside = opcodes(parse_and_run, op, inclusive=COLLAPSE)
        spans.update(inside)
        total += by_name.total()
    return spans, total


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
    spans, total = surgery_opcodes()
    print("surgery, seed 1: inclusive opcodes (parse plus run_pipeline)")
    for name in COLLAPSE:
        print(f"  {spans[name]:11,}  {name}")
    print(f"  {total:11,}  all engine opcodes")


if __name__ == "__main__":
    main()
