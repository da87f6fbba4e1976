"""Self-check of the benchmark's generators and metric lists.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py

1. For seeds 1..SEEDS, the same seed gives byte-identical fixture text; two seeds give
   different text.
2. The engine agrees with every expected value (exit code, ledger,
   certificate level, ACC alert, level-0 obstruction) on every operation
   of every workload for those seeds.  Grids wider than the link cap are rerun with the
   cap lifted, since at the fixture's cap they are the known
   "cap reached" defect, not a wrong expectation.
3. ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints.

Exits 1 and names the operation on the first disagreement.
"""

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads

SEEDS = 3


def main():
    sys.path.insert(0, str(run.SRC))
    from passdown import cli

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if listed != run.END_TO_END:
        print(f"BENCHMARK.json end_to_end {listed} != run.py {run.END_TO_END}")
        return 1
    listed = [m["name"] for m in bench["per_layer"]]
    if listed != run.PER_LAYER or any(m["unit"] != run.unit_of(m["name"]) for m in bench["per_layer"]):
        print("BENCHMARK.json per_layer differs from run.PER_LAYER")
        return 1
    if sorted(w["name"] for w in bench["workloads"]) != sorted(workloads.WORKLOADS):
        print("BENCHMARK.json workloads differ from workloads.WORKLOADS")
        return 1

    checked = lifted = 0
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for workload in sorted(workloads.WORKLOADS):
            for seed in range(1, SEEDS + 1):
                ops = workloads.generate(workload, seed)
                if [op.text for op in ops] != [op.text for op in workloads.generate(workload, seed)]:
                    print(f"{workload} seed {seed}: two generations differ")
                    return 1
                other = workloads.generate(workload, seed + 1000)
                if sorted(op.text for op in ops) == sorted(op.text for op in other):
                    print(f"{workload}: seeds {seed} and {seed + 1000} give the same inputs")
                    return 1
                for op in ops:
                    text = op.text
                    if op.track_link > workloads.LINK_CAP:
                        text = text.replace(f"link-cap={workloads.LINK_CAP}", "link-cap=1000")
                        lifted += 1
                    path = Path(tmp) / "op.txt"
                    path.write_text(text)
                    _dt, cause = run.run_op(cli, op, path)
                    if cause is not None:
                        print(f"{workload} seed {seed} {op.label}: {cause}")
                        return 1
                    checked += 1
    print(f"ok: {checked} operations agree with their construction "
          f"({lifted} grids over the cap rerun with the cap lifted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
