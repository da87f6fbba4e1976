"""Command-line front end.

Every command reads one or more fixture files (merged in order) and
writes a report to standard output.  Exit codes: 0 success/certified,
1 hypothesis violation, 2 malformed input, 3 internal invariant failure.
"""

import argparse
import functools
import os
import sys
from collections import defaultdict

from .complexes import covolume, cutpoints, h1_z2, reduce_complex, reduced_cutpoint_tree
from .dot import bw_to_dot, cutpoint_tree_to_dot, gog_to_dot, resolution_to_dot
from .errors import FixtureError, PassdownError
from .fixtures import FixtureSet, parse_fixtures, write
from .hierarchy import make_tree_level, passdown_full
from .pipeline import run_pipeline
from .resolution import CONTRACTING, build_resolution, contract
from .stability import build_bw
from .tracks import essential_tracks, split_collapse, tracks_from_resolution


@functools.cache
def _parser():
    p = argparse.ArgumentParser(
        prog="passdown",
        description="hierarchy passdown, track surgery and covolume accounting "
        "on stabilizer-labeled 2-complexes",
    )
    p.add_argument("--dot", metavar="DIR", help="write DOT exports into this directory")
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name, help_, *args):
        c = sub.add_parser(name, help=help_)
        c.add_argument("fixtures", nargs="+", help="fixture file(s)")
        for flags, kw in args:
            c.add_argument(*flags, **kw)
        return c

    cmd("reduce", "simplicial reduction of a complex", (["--complex"], {"required": True}))
    cmd("h1", "first Z2 cohomology rank", (["--complex"], {"required": True}))
    cmd("cutpoints", "cut vertices and the reduced cutpoint tree", (["--complex"], {"required": True}))
    cmd(
        "classify",
        "five-way classification of a declared subgroup action",
        (["--tree"], {"required": True}),
        (["--group"], {"required": True}),
    )
    cmd(
        "resolve",
        "build the resolution of a complex over a tree",
        (["--complex"], {"required": True}),
        (["--tree"], {"required": True}),
    )
    cmd(
        "tracks",
        "track system of the resolution, with essential marks",
        (["--complex"], {"required": True}),
        (["--tree"], {"required": True}),
    )
    cmd(
        "split",
        "collapse essential tracks and reduce",
        (["--complex"], {"required": True}),
        (["--tree"], {"required": True}),
    )
    cmd(
        "contract",
        "collapse the boundary preimage of a contracting resolution",
        (["--complex"], {"required": True}),
        (["--tree"], {"required": True}),
    )
    cmd(
        "passdown",
        "full passdown of a structure over a tree",
        (["--structure"], {"required": True}),
        (["--tree"], {"required": True}),
    )
    cmd("pipeline", "run a scripted passdown pipeline", (["--name"], {"required": True}))
    cmd("certify", "run a pipeline and print only the certificate lines", (["--name"], {"required": True}))
    return p


def _dot_write(args, filename, text):
    if args.dot:
        try:
            os.makedirs(args.dot, exist_ok=True)
            with open(os.path.join(args.dot, filename), "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise FixtureError(f"cannot write DOT files to {args.dot}: {exc}") from exc


def _named(fx, kind, name):
    table = {"complex": fx.complexes, "tree": fx.trees, "structure": fx.structures}[kind]
    if name not in table:
        raise FixtureError(f"unknown {kind} {name!r}")
    return table[name]


def _resolution_for(fx, args):
    x = _named(fx, "complex", args.complex)
    t = _named(fx, "tree", args.tree)
    return x, t, build_resolution(x, t, fx.action_table(args.tree))


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        fx = parse_fixtures(args.fixtures)
        if args.command == "reduce":
            out = reduce_complex(_named(fx, "complex", args.complex), fx.groups)
            sys.stdout.write(write(FixtureSet(complexes={args.complex + ".reduced": out})))
        elif args.command == "h1":
            print(h1_z2(_named(fx, "complex", args.complex)))
        elif args.command == "cutpoints":
            x = _named(fx, "complex", args.complex)
            cuts = cutpoints(x)
            print("cutpoints:", " ".join(sorted(cuts)) if cuts else "(none)")
            if not cuts:
                return 0
            ct = reduced_cutpoint_tree(x, fx.groups)
            print(f"reduced cutpoint tree: {len(ct.comp_nodes)} pieces, {len(ct.cut_nodes)} cut vertices")
            _dot_write(args, f"{args.complex}.cutpoints.dot", cutpoint_tree_to_dot(ct))
        elif args.command == "classify":
            _named(fx, "tree", args.tree)
            kind = fx.action_table(args.tree).classification(args.group)
            print(f"{args.group} acts {kind} on {args.tree}")
        elif args.command == "resolve":
            x, t, res = _resolution_for(fx, args)
            print(f"resolution kind: {res.kind}")
            for v in sorted(res.source.vertices):
                print(f"vertex {v} -> {res.vertex_image[v]}")
            _dot_write(args, f"{args.complex}.{args.tree}.resolution.dot", resolution_to_dot(res))
        elif args.command == "tracks":
            x, t, res = _resolution_for(fx, args)
            ts = tracks_from_resolution(res)
            star = essential_tracks(ts)
            star_ids = {tr.id for tr in star.tracks}
            for tr in ts.tracks:
                mark = "essential" if tr.id in star_ids else "inessential"
                arcs = "; ".join(f"{fid}:{a}|{b}" for fid, (a, b) in sorted(tr.arcs.items()))
                print(f"track {tr.id} at {tr.tree_edge} [{mark}] edges=" + ",".join(sorted(tr.points)) + (f" arcs {arcs}" if arcs else ""))
        elif args.command == "split":
            x, t, res = _resolution_for(fx, args)
            xt, frag = split_collapse(essential_tracks(tracks_from_resolution(res)), fx.groups)
            survivors = sum(1 for v in frag.triangle_map.values() if v is not None)
            print(f"covolume {covolume(x)} -> {covolume(xt)}; {survivors} triangles survive")
            sys.stdout.write(write(FixtureSet(complexes={args.complex + ".split": xt})))
        elif args.command == "contract":
            x, t, res = _resolution_for(fx, args)
            if res.kind != CONTRACTING:
                print("resolution is splitting; nothing to contract")
                return 1
            xc, descended, _ = contract(res, fx.groups)
            print(f"covolume {covolume(x)} -> {covolume(xc)}; descended kind {descended.kind}")
            sys.stdout.write(write(FixtureSet(complexes={args.complex + ".contracted": xc})))
        elif args.command == "passdown":
            ks = _named(fx, "structure", args.structure)
            tl = make_tree_level(args.tree, _named(fx, "tree", args.tree), fx.action_table(args.tree))
            result = passdown_full(ks.terminals(), tl)
            for stage, value in result.ledger.items():
                print(f"covolume[{stage}] = {value}")
            for v, received in sorted(result.terminals.items()):
                print(f"vertex {v}: covolume {sum(covolume(x) for _gid, x in received.values())}")
            _dot_write(args, f"{args.tree}.quotient.dot", gog_to_dot(tl.gog))
        elif args.command in ("pipeline", "certify"):
            report = run_pipeline(fx, args.name)
            if args.command == "pipeline":
                sys.stdout.write(report.render())
            else:
                for line in report.certificates:
                    status = "trees ok" if line.certified else "obstructed"
                    print(f"level {line.level} {line.cid}: {status}")
                if report.certificate_level is not None:
                    print(f"certified at level {report.certificate_level}")
                else:
                    print("not certified within the horizon")
            n = report.certificate_level
            if args.dot and n is not None:
                # an id is a script path of any length, so it goes inside the file, not in its name
                per_complex = defaultdict(list)
                for cls in report.classes[n]:
                    per_complex[cls.cid].append(cls)
                for i, cid in enumerate(sorted(report.run.levels[n].complexes)):
                    bw, _ = build_bw(report.run.levels[n].complexes[cid], per_complex[cid], report.run.groups)
                    _dot_write(args, f"level{n}.{i}.bw.dot", bw_to_dot(bw, name=cid))
            return report.exit_code
        return 0
    except PassdownError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
