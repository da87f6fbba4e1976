"""Command-line front end.

Every command reads one or more fixture files (merged in order) and
writes a report to standard output.  Exit codes: 0 success/certified,
1 hypothesis violation, 2 malformed input, 3 internal invariant failure.
"""

import argparse
import os
import sys

from .complexes import covolume, cutpoints, h1_z2, reduce_complex
from .dot import bw_to_dot, cutpoint_tree_to_dot, gog_to_dot, resolution_to_dot
from .errors import FixtureError, PassdownError
from .fixtures import parse_fixtures, serialize_complex, serialize_resolution
from .hierarchy import make_tree_level, passdown_full, structure_covolume
from .pipeline import run_pipeline
from .resolution import CONTRACTING, build_resolution, contract
from .tracks import essential_tracks, split_collapse, tracks_from_resolution


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
        os.makedirs(args.dot, exist_ok=True)
        with open(os.path.join(args.dot, filename), "w") as fh:
            fh.write(text)


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
            sys.stdout.write(serialize_complex(args.complex + ".reduced", out))
        elif args.command == "h1":
            print(h1_z2(_named(fx, "complex", args.complex)))
        elif args.command == "cutpoints":
            x = _named(fx, "complex", args.complex)
            cuts = cutpoints(x)
            print("cutpoints:", " ".join(sorted(cuts)) if cuts else "(none)")
            if not cuts:
                return 0
            from .complexes import reduced_cutpoint_tree

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
            sys.stdout.write(serialize_resolution("rho", res, args.complex, args.tree))
            _dot_write(args, f"{args.complex}.{args.tree}.resolution.dot", resolution_to_dot(res))
        elif args.command == "tracks":
            x, t, res = _resolution_for(fx, args)
            ts = tracks_from_resolution(res)
            star = essential_tracks(ts, x)
            star_ids = {tr.id for tr in star.tracks}
            for tr in ts.tracks:
                mark = "essential" if tr.id in star_ids else "inessential"
                arcs = "; ".join(f"{fid}:{a}|{b}" for fid, (a, b) in sorted(tr.arcs.items()))
                print(f"track {tr.id} at {tr.tree_edge} [{mark}] edges=" + ",".join(sorted(tr.points)) + (f" arcs {arcs}" if arcs else ""))
        elif args.command == "split":
            x, t, res = _resolution_for(fx, args)
            ts = essential_tracks(tracks_from_resolution(res), x)
            xt, frag = split_collapse(x, res, ts, fx.groups)
            survivors = sum(1 for v in frag.triangle_map.values() if v is not None)
            print(f"covolume {covolume(x)} -> {covolume(xt)}; {survivors} triangles survive")
            sys.stdout.write(serialize_complex(args.complex + ".split", xt))
        elif args.command == "contract":
            x, t, res = _resolution_for(fx, args)
            if res.kind != CONTRACTING:
                print("resolution is splitting; nothing to contract")
                return 1
            xc, descended, _ = contract(res, fx.groups)
            print(f"covolume {covolume(x)} -> {covolume(xc)}; descended kind {descended.kind}")
            sys.stdout.write(serialize_complex(args.complex + ".contracted", xc))
        elif args.command == "passdown":
            ks = _named(fx, "structure", args.structure)
            tl = make_tree_level(
                args.tree, _named(fx, "tree", args.tree), fx.action_table(args.tree), fx.groups,
                jsj=args.tree in fx.jsj_trees,
            )
            result = passdown_full(ks, tl, groups=fx.groups, no_dinfty=fx.config.no_dinfty)
            for stage, value in result.ledger.items():
                print(f"covolume[{stage}] = {value}")
            for v in sorted(result.structures):
                print(f"vertex {v}: covolume {structure_covolume(result.structures[v])}")
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
            if args.dot and report.run is not None:
                from .stability import build_bw as _bw

                n = report.certificate_level
                if n is not None:
                    from .stability import equivalence_classes

                    classes = equivalence_classes(report.run, n, None, report.run.groups)
                    for cid in sorted(report.run.levels[n].complexes):
                        x = report.run.levels[n].complexes[cid]
                        cls = [c for c in classes if c.cid == cid]
                        bw, _ = _bw(x, cls, report.run.groups)
                        safe = cid.replace("/", "_")
                        _dot_write(args, f"{safe}.bw.dot", bw_to_dot(bw, name=cid))
            return report.exit_code
        return 0
    except PassdownError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
