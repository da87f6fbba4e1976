"""Record the benchmark baseline, its run-to-run spread and the layer shares.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py [--out perfbench/BASELINE.json]

Runs ``run.py`` untraced on every workload for seeds 1..SEEDS,
interleaving the workloads, then once traced per workload (seed 1); every
run is a fresh process and measures ``run_seconds`` from
``BENCHMARK.json``.  Writes, per workload, each end-to-end metric's median
and spread (quartile distance over median, as ``statistics.quantiles``
gives them) with the raw wall-clock median and spread of each timing
metric beside it, the per-layer metrics, the failure breakdown and each
layer's share of the traced wall time.  Exits 1 when a metric of
``run.LAYER_TABLE`` reads zero on every workload (its wrapper was bound
in the wrong place) or when a run reports ``correct: false``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run
import spans

HERE = Path(__file__).resolve().parent
SEEDS = 10

# The layer each workload was chosen to stress, as the metrics whose share
# of traced wall time should dominate there.
CHOSEN_FOR = {
    "horizon": ("stability composition", ["stability.self_s"]),
    "size": ("cones and complexes incidence", ["stability.self_s", "complexes.self_s"]),
    "surgery": ("the passdown stages", ["hierarchy.passdown_full.s"]),
}


def run_once(workload, seed, seconds, trace):
    """The JSON result of one run, and for an untraced run its raw
    wall-clock figures."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wall = run.OUT / f"wall-{workload}-s{seed}-t{trace}.json"
    return result, (json.loads(wall.read_text()) if trace == 0 else None)


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=str(HERE / "BASELINE.json"))
    args = p.parse_args(argv)

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    untraced = {name: [] for name in names}
    walls = {name: [] for name in names}
    for seed in range(1, SEEDS + 1):
        for name in names:
            result, wall = run_once(name, seed, seconds, 0)
            untraced[name].append(result)
            walls[name].append(wall)
            print(f"seed {seed} {name}: done", flush=True)
    record = {
        "seeds": SEEDS,
        "run_seconds": seconds,
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(), "platform": platform.platform()},
        "workloads": {},
    }
    traced, incorrect = {}, 0
    for w in bench["workloads"]:
        name = w["name"]
        results = untraced[name]
        incorrect += sum(not r["correct"] for r in results)
        e2e = {}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            med, iqr = spread(values)
            e2e[metric] = {"median": med, "spread": iqr, "bound": bounds[metric], "values": values}
            print(f"{name:8s} {metric:17s} median {med:10.5g} {units[metric]:5s} spread {iqr:.3f}  bound {bounds[metric]}")
            if metric in walls[name][0]:
                raw = [wall[metric] for wall in walls[name]]
                med, iqr = spread(raw)
                e2e[metric]["wall"] = {"median": med, "spread": iqr, "values": raw}
                print(f"{'':8s} {'  raw wall-clock':17s} median {med:10.5g} {units[metric]:5s} spread {iqr:.3f}")
        res1, _ = run_once(name, 1, seconds, 1)
        incorrect += not res1["correct"]
        layer = traced[name] = {k: m["value"] for k, m in res1["metrics"].items()}
        total = sum(layer[f"{lay}.self_s"] for lay in spans.LAYERS)
        shares = {lay: layer[f"{lay}.self_s"] / total for lay in spans.LAYERS}
        what, keys = CHOSEN_FOR[name]
        chosen_share = sum(layer[k] for k in keys) / total
        record["workloads"][name] = {
            "why": w["why"],
            "end_to_end": e2e,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "per_layer": layer,
            "layer_shares": shares,
            "chosen_for": what,
            "chosen_share": chosen_share,
            "top_layer": max(shares, key=shares.get),
        }
        print(f"{name}: {what} {100 * chosen_share:.1f}% of traced wall; layer shares "
              + ", ".join(f"{lay} {100 * s:.1f}%" for lay, s in sorted(shares.items(), key=lambda x: -x[1])[:3])
              + f"; tracing overhead {100 * layer['trace.overhead_frac']:.1f}%")
    zero = [m for m in run.LAYER_TABLE if all(traced[w][m] == 0 for w in traced)]
    record["zero_on_every_workload"] = zero
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    if zero:
        print("error: zero on every workload (wrapper bound in the wrong place?): " + ", ".join(zero))
    if incorrect:
        print(f"error: {incorrect} runs reported correct: false")
    return 1 if zero or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
