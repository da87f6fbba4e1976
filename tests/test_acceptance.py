"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they go.  Everything is seeded and desk-scale; the whole module is meant
to finish well under a minute.
"""

import dataclasses
import os
import random
import warnings

from passdown.complexes import (
    DisconnectedComplexWarning,
    covolume,
    h1_z2,
    is_connected,
)
from passdown.errors import TruncationError
from passdown.fixtures import parse_fixtures
from passdown.groups import GroupTable
from passdown.hierarchy import (
    HNode,
    Hierarchy,
    HStructure,
    jsj_depth_bound,
    make_tree_level,
    passdown_full,
)
from passdown.pipeline import run_pipeline
from passdown.resolution import ActionTable
from passdown.tracks import essential_tracks, split_collapse, tracks_from_resolution
from passdown.trees import ActionDescriptor, make_tree

from generators import DepthBoundGenerator, random_cell_complex, splitting_fixture
from differential import compared
from test_complexes import reduction_keeps

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def report(name):
    print(f"PASS {name}")


def test_reduction_suite():
    """200 randomized bigon/triangle complexes: reduce is idempotent,
    preserves connectivity and h1 = 0, never increases covolume."""
    rng = random.Random(20260809)
    checked_h1 = sum(reduction_keeps(random_cell_complex(rng, max_vertices=12)) for _ in range(200))
    assert checked_h1 >= 20  # the sample genuinely exercises the h1 clause
    report("reduction suite (200 randomized complexes, exact)")


def test_h1_oracle_equivalence():
    """h1_z2 against the independent boundary-matrix-rank oracle on 500
    random complexes."""
    compared("simplicial complex", "acceptance")
    report("h1 oracle equivalence (500 randomized complexes, exact)")


def test_splitting_resolution_suite():
    """On fixtures satisfying the hypotheses, the collapse output is
    connected with h1 = 0."""
    rng = random.Random(4096)
    groups = GroupTable()
    done = 0
    attempts = 0
    while done < 50:
        attempts += 1
        assert attempts < 600, "generator failed to produce enough fixtures"
        made = splitting_fixture(rng)
        if made is None:
            continue
        x, t, res = made
        try:
            ts = essential_tracks(tracks_from_resolution(res))
            xt, frag = split_collapse(ts, groups)
        except TruncationError:
            continue
        assert is_connected(xt)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DisconnectedComplexWarning)
            assert h1_z2(xt) == 0
        assert covolume(xt) <= covolume(x)
        done += 1
    report(f"splitting-resolution suite ({done} fixtures, exact)")


def _fan_complex(prefix, covol):
    verts = [f"{prefix}p", f"{prefix}q"] + [f"{prefix}z{i}" for i in range(covol)]
    edges = {f"{prefix}pq": (f"{prefix}p", f"{prefix}q")}
    faces = {}
    for i in range(covol):
        edges[f"{prefix}pz{i}"] = (f"{prefix}p", f"{prefix}z{i}")
        edges[f"{prefix}qz{i}"] = (f"{prefix}q", f"{prefix}z{i}")
        faces[f"{prefix}t{i}"] = (f"{prefix}pq", f"{prefix}pz{i}", f"{prefix}qz{i}")
    from passdown.complexes import make_complex

    return make_complex(verts, edges, faces)


def _random_elliptic_structure(rng, groups, idx):
    """Structure with 1-3 complex-bearing terminals, and a tree whose
    vertices carry exactly those terminal groups."""
    from passdown.trees import make_gog

    n = rng.randint(1, 3)
    tgids = []
    for i in range(n):
        tgids.append(groups.mint(f"T{idx}", h_elliptic=True).id)
    root_g = groups.mint(f"G{idx}").id
    for g in tgids:
        groups.declare_leq(g, root_g)
    verts = {f"a{i}": g for i, g in enumerate(tgids)}
    edges = {}
    ids = sorted(verts)
    for a, b in zip(ids, ids[1:]):
        eid = groups.mint(f"e{idx}", supergroups={verts[a], verts[b]}, slender=True).id
        edges[f"qe{len(edges)}.{idx}"] = (a, b, eid)
    qk = make_gog(f"QK{idx}", verts, edges, groups=groups)
    nodes = {"r": HNode(id="r", group=root_g, action=qk)}
    complexes = {}
    covols = []
    for i, g in enumerate(tgids):
        nid = f"n{i}"
        nodes[nid] = HNode(id=nid, group=g, parent="r")
        nodes["r"].children[f"a{i}"] = nid
        cv = rng.randint(0, 4)
        covols.append(cv)
        complexes[nid] = _fan_complex(f"x{idx}.{i}.", cv) if cv else None
    k = Hierarchy(name=f"K{idx}", root="r", nodes=nodes)
    ks = HStructure(hierarchy=k, terminal_complexes=complexes)
    # tree: a path with one vertex per terminal group
    tv = [f"y{i}" for i in range(n)]
    tedges = {f"tf{i}": (tv[i], tv[i + 1]) for i in range(n - 1)}
    stab = {tv[i]: tgids[i] for i in range(n)}
    for i in range(n - 1):
        stab[f"tf{i}"] = groups.mint(f"te{idx}", supergroups={tgids[i], tgids[i + 1]}, slender=True).id
    tree = make_tree(tv, tedges, stab=stab, groups=groups)
    actions = ActionTable(tree, groups)
    for i, g in enumerate(tgids):
        actions.declare_descriptors(g, [ActionDescriptor(kind="elliptic", fixed=frozenset({tv[i]}))])
    actions.declare_descriptors(root_g, [ActionDescriptor(kind="elliptic", fixed=frozenset(tv))])
    tl = make_tree_level(f"T{idx}", tree, actions)
    return ks, tl, sum(covols)


def _covolumes(result):
    return {v: sum(covolume(x) for _gid, x in terms.values()) for v, terms in result.terminals.items()}


def test_covolume_accounting():
    """Equality through a passdown of elliptic terminals, in total and
    per vertex orbit; never an increase; a strict drop on the pinched
    fixture."""
    rng = random.Random(99)
    groups = GroupTable()
    for idx in range(12):
        ks, tl, total = _random_elliptic_structure(rng, groups, idx)
        terminals = ks.terminals()
        full = passdown_full(terminals, tl)
        assert full.ledger["output"] == total == sum(covolume(x) for _gid, x in terminals.values())
        # trivially labelled complexes map to the least tree vertex, whose orbit gets them all
        first = tl.tree.orbit[min(tl.tree.vertices)]
        assert _covolumes(full) == {v: total if v == first else 0 for v in tl.gog.vertices}
        # labelled with its terminal's group, a complex goes to the tree vertex that group fixes
        labelled = {
            nid: (gid, dataclasses.replace(x, stab=dict.fromkeys(x.stab, gid))) for nid, (gid, x) in terminals.items()
        }
        expected = dict.fromkeys(tl.gog.vertices, 0)
        for nid, (_gid, x) in labelled.items():
            expected[tl.tree.orbit["y" + nid[1:]]] += covolume(x)  # terminal n<i> fixes y<i>
        assert _covolumes(passdown_full(labelled, tl)) == expected
    fx = parse_fixtures([os.path.join(FIX, "worked_terminating.txt")])
    tl = make_tree_level("T0", fx.trees["T0"], fx.action_table("T0"))
    result = passdown_full(fx.structures["S0"].terminals(), tl)
    assert result.ledger["input"] == 3
    assert result.ledger["output"] == 2  # strict drop on the pinched fixture
    assert _covolumes(result) == {"o0": 1, "o1": 1}
    report("covolume accounting (equality, monotonicity, strict pinch drop; exact)")


def test_depth_bound_replay():
    """depth(H) <= depth(K) + 1 on scripted pairs; trivial K forces a
    trivial H."""
    gen = DepthBoundGenerator(random.Random(1234))
    count = 0
    for i in range(24):
        dk = [0, 1, 1, 2, 2, 3][i % 6]
        h, k = gen.pair(dk)
        rep = jsj_depth_bound(h, k, gen.tables, gen.groups)
        assert rep.ok, rep.violations
        assert rep.depth_h <= rep.depth_k + 1
        if rep.depth_k == 0:
            assert rep.depth_h == 0
        count += 1
    assert count >= 20
    report(f"depth-bound replay ({count} scripted pairs, exact)")


def test_classification_oracle():
    """classify_subgroup_action against direct evaluation of the defining
    conditions, over trees with up to 8 vertices and up to 3 descriptors."""
    checked = compared("descriptor set", "acceptance")["cases"]
    report(f"classification oracle ({checked} descriptor sets, exact)")


def test_cone_criterion_crosscheck():
    """Certificate/counterexample verdict coincides with the direct
    connectivity-and-acyclicity test of B_w and with cone enumeration; no
    certified instance has a cyclic B_w.  Triangle trees, whose B_w need
    not be connected, and complexes with classes left out are checked
    against the enumeration only."""
    c = compared("class partition", "acceptance")
    report(
        f"cone criterion cross-check (34 fixtures: {c['certified']} certified, "
        f"{c['counterexamples']} counterexamples; 200 triangle trees and 40 partial partitions against "
        f"enumeration, {c['tree_counterexamples']} counterexamples; exact)"
    )


def test_wide_grid_certifies():
    """A 3 x 18 grid over a path tree certifies at level 1: every link of a
    track point is a path of 18 vertices, wider than any link cap."""
    fx = parse_fixtures([os.path.join(FIX, "wide_grid.txt")])
    (name,) = fx.pipelines
    rep = run_pipeline(fx, name)
    assert rep.certificate_level == 1
    assert rep.exit_code == 0
    assert all(line.certified for line in rep.certificates)
    report("wide grid (3 x 18) certified at level 1")


def test_pipeline_end_to_end():
    """The committed terminating fixture certifies at its expected level;
    the re-splitting script never certifies within horizon 10 and raises
    the expected diagnostic."""
    fx = parse_fixtures([os.path.join(FIX, "worked_terminating.txt")])
    rep = run_pipeline(fx, "worked")
    assert rep.ledger == (3, 2, 2, 2, 2)
    assert rep.n_delta == 1 and rep.n_prime == 1 and rep.n_dprime == 1
    assert rep.certificate_level == 1
    assert rep.exit_code == 0

    fx2 = parse_fixtures([os.path.join(FIX, "f2_style.txt")])
    rep2 = run_pipeline(fx2, "f2")
    assert rep2.horizon == 10
    assert rep2.certificate_level is None
    assert rep2.exit_code == 1
    assert any("chain" in d for d in rep2.diagnostics)
    report("pipeline end-to-end (worked fixture at level 1; re-splitting script refused)")


def test_acc_monitor():
    """Exactly one alert naming the chain on the growing fixture; none on
    the stabilizing one."""
    fx = parse_fixtures([os.path.join(FIX, "f2_style.txt")])
    rep = run_pipeline(fx, "f2")
    assert len(rep.acc_alerts) == 1
    assert "bc" in rep.acc_alerts[0].chain
    assert rep.acc_alerts[0].labels[-1] == "S11"

    fx2 = parse_fixtures([os.path.join(FIX, "acc_stable.txt")])
    rep2 = run_pipeline(fx2, "stable")
    assert rep2.acc_alerts == ()
    assert rep2.exit_code == 0
    report("ACC monitor (one alert on the growing chain, quiet otherwise; exact)")
