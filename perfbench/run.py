"""End-to-end and per-layer benchmark of ``passdown pipeline``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {horizon,size,surgery} --seed N \\
        --seconds S --trace {0,1}

One client, closed loop: each operation is the real user path
``passdown pipeline <fixture> --name <p>``, run in-process through
``passdown.cli.main`` with stdout captured, on a fixture freshly written
from the seeded generator (``workloads.py``) and parsed anew by every
call.  The operation pool of a workload is run in complete passes until
``--seconds`` have elapsed and at least ``MIN_SAMPLES`` calls are timed,
so the p90 has ten samples beyond it.

Timings are in seconds at a fixed reference speed.  Right before and
after each timed call the benchmark times a fixed pure-Python kernel
(dict and set building, ``reference_s``), and scales the call's wall
time by ``REF_NOMINAL_S`` over the mean of the two kernel times.  On a
shared host the same call can run 1.5x slower for seconds to minutes at
a time; the kernel slows down with it, so the scaled times stay steady
from run to run while a change to passdown still moves them in full.
``tri_levels_per_s`` is the timed operations' triangles x (horizon + 1)
over the sum of their scaled times; ``verdict_s_p50`` and
``verdict_s_p90`` are percentiles over all timed calls.  The printed
summary and ``.bench_out/wall-<tag>.json`` give the raw wall-clock
figures.  Per-layer times of the
traced run are raw wall time.

Every output is checked against the outcome the generator derives from
the construction.  An operation fails when it raises an untyped
exception, exits 2 or 3, or reports a wrong ledger or verdict; a grid
wider than the link cap, certifiable by construction but reported
"cap reached", fails as cap-undecided.  A "cap reached" on any other
input is a wrong verdict.  ``correct`` is false when any failure is of another
kind than cap-undecided, since only that one is an explicit "could not
decide" from the engine.

``--trace 0`` prints the end-to-end metrics (tracing off) and writes
their raw wall-clock counterparts to ``.bench_out/wall-<tag>.json``.
``--trace 1`` alternates untraced and traced passes, prints the
per-layer metrics from the traced ones (``spans.py``), the tracing
overhead and the wall time no layer accounts for, and writes the spans
and the full per-function table under ``.bench_out/``.  It exits 1 when
a wrapper misses calls: ``cli.main`` counted fewer times than it ran, or
a binding site the recorder cannot patch holding an unwrapped function.
It warns when a layer-table metric reads zero that ``BASELINE.json``
records as non-zero on the workload.  The last stdout line is the JSON
result.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_SAMPLES = 100
REF_KEYS = [f"k{i}" for i in range(400)]
REF_NOMINAL_S = 0.001  # the reference kernel on an unloaded core: 1.0-1.1 ms, 2.0 GHz Xeon VM, CPython 3.11
SETUP_REPEATS = 7
CAUSES = ("untyped", "exit23", "ledger", "verdict", "cap_undecided")

END_TO_END = {  # name -> unit
    "tri_levels_per_s": "1/s",
    "verdict_s_p50": "s",
    "verdict_s_p90": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "setup_s": "s",
}

# Per-layer metrics: values are per operation.  `.s` is inclusive time in
# calls to one public function, `.n` a count, `self_s` the time a layer's
# span is the innermost open one.  LAYER_TABLE holds the layer metrics
# proper; one that reads zero on every workload has a wrapper bound in the
# wrong place (baseline.py fails then, since only it sees every workload).
LAYER_TABLE = [
    "cli.self_s",
    "fixtures.self_s", "fixtures.parse_fixtures.s", "fixtures.lines.n",
    "pipeline.self_s", "pipeline.RunReport.render.s", "pipeline.levels.n",
    "hierarchy.self_s", "hierarchy.passdown_full.s", "hierarchy.passdown_full.n",
    "hierarchy.validate_hstructure.s", "hierarchy.make_tree_level.s",
    "resolution.self_s", "resolution.build_resolution.s", "resolution.build_resolution.n",
    "resolution.ActionTable.classification.n",
    "tracks.self_s", "tracks.split_collapse.s", "tracks.essential_tracks.s",
    "tracks.tracks.n", "tracks.essential.n", "tracks.essential_ratio",
    "complexes.self_s", "complexes.h1_z2.s", "complexes.h1_z2.n", "complexes.cutpoints.n",
    "complexes.reduced_cutpoint_tree.s", "complexes.validate_complex.s",
    "complexes.Complex2.face_vertices.n", "complexes.Complex2.is_simplicial.n",
    "groups.self_s", "groups.GroupTable.leq.n", "groups.GroupTable.mint.n",
    "provenance.self_s", "provenance.TauFragment.compose.n",
    "stability.self_s", "stability.stabilization_report.s", "stability.stable_pairs.s",
    "stability.stable_pairs.n", "stability.RunView.compose.s", "stability.RunView.compose.n",
    "stability.equivalence_classes.s", "stability.equivalence_classes.n", "stability.acc_monitor.s",
    "stability.cone_criterion_check.s", "stability.enumerate_simple_cones.n", "stability.cones.n",
    "stability.cap_hits.n", "stability.build_bw.s", "stability.certified_ratio",
    "trees.self_s",
]
PER_LAYER = LAYER_TABLE + [f"{layer}.errors.n" for layer in spans.LAYERS] + [
    "trace.overhead_frac", "unattributed_s", "fail_frac",
] + [f"fail.{cause}.frac" for cause in CAUSES]


def unit_of(name):
    if name.endswith(".n"):
        return "count/op"
    if name.endswith("_s") or name.endswith(".s"):
        return "s/op"
    return "ratio"


def _ledger(text):
    for line in text.splitlines():
        if line.startswith("covolume ledger:"):
            return tuple(int(v) for v in line.split(":", 1)[1].split())
    return None


def _cert_level(text):
    for line in text.splitlines():
        if line.startswith("certified: every B'_w is a tree at level "):
            return int(line.rsplit(" ", 1)[1])
    return None


def check(op, code, text, exc):
    """The failure cause of one operation, or None when it is correct."""
    exp = op.expected
    if exc is not None:
        return "untyped"
    if code in (2, 3):
        return "exit23"
    if _ledger(text) != exp.ledger:
        return "ledger"
    cert = _cert_level(text)
    level0_obstructed = any(
        line.startswith("level 0 complex ") and ": obstructed;" in line for line in text.splitlines()
    )
    if (
        code == exp.exit
        and cert == exp.cert_level
        and ("\nACC alert: " in text) == exp.acc
        and level0_obstructed >= exp.level0_obstructed
    ):
        return None
    if op.track_link > workloads.LINK_CAP and cert is None and "cap reached at" in text:
        return "cap_undecided"
    return "verdict"


def run_op(cli, op, path):
    """One verdict: returns (seconds, failure cause or None)."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(["pipeline", str(path), "--name", op.pipeline])
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # any untyped escape is a failure to report
            code, exc = None, e
        dt = time.perf_counter() - t0
    return dt, check(op, code, out.getvalue(), exc)


def setup(workload, seed, workdir):
    """Import passdown afresh, generate and write the inputs, run the
    smallest operation once.  Returns (raw seconds, reference-speed
    seconds, cli module, ops, paths, warm-up failure cause)."""
    gc.collect()  # start every repeat from the same heap, free of the last import
    before = reference_s()
    t0 = time.perf_counter()
    for name in [m for m in sys.modules if m == "passdown" or m.startswith("passdown.")]:
        del sys.modules[name]
    for layer in spans.LAYERS:
        importlib.import_module(f"passdown.{layer}")
    cli = sys.modules["passdown.cli"]
    ops = workloads.generate(workload, seed)
    paths = []
    for i, op in enumerate(ops):
        path = workdir / f"op{i:02d}.txt"
        path.write_text(op.text)
        paths.append(path)
    warm = min(range(len(ops)), key=lambda i: ops[i].tri_levels)
    _dt, cause = run_op(cli, ops[warm], paths[warm])
    dt = time.perf_counter() - t0
    return dt, dt * REF_NOMINAL_S * 2 / (before + reference_s()), cli, ops, paths, cause


def reference_s():
    """Best of two timings of a fixed dict-and-set kernel."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        for _ in range(4):
            d = {}
            for i, k in enumerate(REF_KEYS):
                d[k] = {k, i, (k, i)}
            s = set()
            for v in d.values():
                s |= v
            sorted(REF_KEYS)
        best = min(best, time.perf_counter() - t0)
    return best


def one_pass(cli, ops, paths, rec=None):
    """Run the pool once.  Returns (raw seconds, reference-speed seconds,
    failure causes), one time per operation."""
    raw, scaled, causes = [], [], Counter()
    for op, path in zip(ops, paths):
        if rec is not None:
            rec.op += 1
        before = reference_s()
        dt, cause = run_op(cli, op, path)
        ref = (before + reference_s()) / 2
        raw.append(dt)
        scaled.append(dt * REF_NOMINAL_S / ref)
        if cause:
            causes[cause] += 1
    return raw, scaled, causes


def per_layer(rec, n_ops, traced_wall, overhead, causes, attempted):
    """Every per-layer metric, per traced operation, plus the full table."""
    full = {}
    for layer in spans.LAYERS:
        full[f"{layer}.self_s"] = rec.self_s[layer] / n_ops
        full[f"{layer}.errors.n"] = rec.errors[layer] / n_ops
    for key, n in rec.calls.items():
        full[f"{key}.n"] = n / n_ops
    for key, s in rec.incl.items():
        full[f"{key}.s"] = s / n_ops
    for name, n in rec.counts.items():
        full[f"{name}.n"] = n / n_ops
    tracks_n = rec.counts.get("tracks.tracks", 0)
    full["tracks.essential_ratio"] = rec.counts.get("tracks.essential", 0) / tracks_n if tracks_n else 0.0
    checks = rec.calls.get("stability.cone_criterion_check", 0)
    full["stability.certified_ratio"] = rec.counts.get("stability.certified", 0) / checks if checks else 0.0
    full["trace.overhead_frac"] = overhead
    full["unattributed_s"] = (traced_wall - sum(rec.self_s.values())) / n_ops
    failed = sum(causes.values())
    full["fail_frac"] = failed / attempted
    for cause in CAUSES:
        full[f"fail.{cause}.frac"] = causes[cause] / attempted
    return full


def zero_since_baseline(workload, metrics):
    """LAYER_TABLE metrics that read zero here but not in BASELINE.json."""
    path = Path(__file__).resolve().parent / "BASELINE.json"
    if not path.is_file():
        return []
    base = json.loads(path.read_text())["workloads"].get(workload, {}).get("per_layer", {})
    return [name for name in LAYER_TABLE if metrics[name] == 0 and base.get(name, 0) != 0]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "passdown" / "cli.py").is_file():
        print(f"error: no passdown sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / tag
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, raw_setups, texts = [], [], None
        for _ in range(SETUP_REPEATS):
            raw_dt, dt, cli, ops, paths, warm_cause = setup(args.workload, args.seed, workdir)
            setups.append(dt)
            raw_setups.append(raw_dt)
            if texts is not None and texts != [op.text for op in ops]:
                print("error: the generator is not deterministic for this seed", file=sys.stderr)
                return 1
            texts = [op.text for op in ops]
        if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: imported passdown from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        causes = Counter()
        print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations per pass")
        for op in ops:
            print(f"  {op.label}: {op.triangles} triangles, expect exit {op.expected.exit}")

        if args.trace == 0:
            raw, times, passes = [], [], 0
            t_start = time.perf_counter()
            while True:
                r, t, c = one_pass(cli, ops, paths)
                raw += r
                times += t
                causes += c
                passes += 1
                if time.perf_counter() - t_start >= args.seconds and len(times) >= MIN_SAMPLES:
                    break
            attempted = len(times)
            work = passes * sum(op.tri_levels for op in ops)
            metrics = {
                "tri_levels_per_s": work / sum(times),
                "verdict_s_p50": statistics.median(times),
                "verdict_s_p90": statistics.quantiles(times, n=10)[-1],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_frac": 1 - sum(causes.values()) / attempted,
                "setup_s": statistics.median(setups),
            }
            wall = {
                "tri_levels_per_s": work / sum(raw),
                "verdict_s_p50": statistics.median(raw),
                "verdict_s_p90": statistics.quantiles(raw, n=10)[-1],
                "setup_s": statistics.median(raw_setups),
                "reference_speed_factor": sum(raw) / sum(times),
            }
            (OUT / f"wall-{tag}.json").write_text(json.dumps(wall, indent=1, sort_keys=True) + "\n")
            print(f"verdicts timed: {attempted} in {passes} passes; raw wall-clock figures: "
                  + ", ".join(f"{name} {value:.6g}" for name, value in wall.items()))
        else:
            rec = spans.Recorder()
            rec.line_counts = {str(pth): op.text.count("\n") for op, pth in zip(ops, paths)}
            ratios, attempted, n_traced, traced_wall = [], 0, 0, 0.0
            t_start = time.perf_counter()
            while True:
                t_u, _, c_u = one_pass(cli, ops, paths)
                rec.install()
                try:
                    missed = rec.unpatched()
                    if missed:
                        print("error: binding sites hold unwrapped functions: " + ", ".join(missed),
                              file=sys.stderr)
                        return 1
                    t_t, _, c_t = one_pass(cli, ops, paths, rec)
                finally:
                    rec.restore()
                rec.keep_spans = False  # keep the spans of the first traced pass only
                causes += c_u + c_t
                attempted += len(t_u) + len(t_t)
                n_traced += len(t_t)
                traced_wall += sum(t_t)
                ratios.append(sum(t_t) / sum(t_u) - 1)
                if time.perf_counter() - t_start >= args.seconds:
                    break
            if rec.calls.get("cli.main") != n_traced:
                print("error: cli.main wrapper missed calls; a binding site was not patched", file=sys.stderr)
                return 1
            full = per_layer(rec, n_traced, traced_wall, statistics.median(ratios), causes, attempted)
            metrics = {name: full.get(name, 0.0) for name in PER_LAYER}
            # A metric of the layer table that was non-zero on this workload
            # at the recorded baseline may read zero because a change removed
            # the work, or because a wrapper no longer sees its calls.
            for name in zero_since_baseline(args.workload, metrics):
                print(f"warning: {name} reads 0; BASELINE.json records it non-zero on {args.workload}")
            rec.write(OUT / f"spans-{tag}.tsv")
            (OUT / f"layers-{tag}.json").write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
            print(f"traced verdicts: {n_traced} in {len(ratios)} traced passes; "
                  f"tracing overhead {100 * full['trace.overhead_frac']:.1f}%; "
                  f"unattributed {full['unattributed_s']:.2e} s/op")
            print("layer self time per verdict (share of traced wall):")
            for layer in spans.LAYERS:
                s = full[f"{layer}.self_s"]
                print(f"  {layer:<11} {s:.5f} s  {100 * s * n_traced / traced_wall:5.1f}%")

        failed = sum(causes.values())
        print(f"fail_frac {failed / attempted:.4f} ({failed} of {attempted}): " + ", ".join(
            f"{cause} {causes[cause]}" for cause in CAUSES))
        units = END_TO_END if args.trace == 0 else {name: unit_of(name) for name in PER_LAYER}
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {units[name]}")
        result = {
            "correct": set(causes) | {warm_cause} <= {None, "cap_undecided"},
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
