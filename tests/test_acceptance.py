"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they go.  Everything is seeded and desk-scale; the whole module is meant
to finish well under a minute.
"""

import itertools
import os
import random
import warnings

import pytest

from passdown.complexes import (
    DisconnectedComplexWarning,
    covolume,
    h1_z2,
    is_connected,
    reduce_complex,
    validate_complex,
)
from passdown.errors import ConsistencyError, TruncationError
from passdown.fixtures import parse_fixtures
from passdown.groups import GroupTable
from passdown.hierarchy import (
    HNode,
    Hierarchy,
    HStructure,
    jsj_depth_bound,
    make_tree_level,
    passdown_full,
    passdown_structure,
    structure_covolume,
)
from passdown.pipeline import run_pipeline
from passdown.resolution import ActionTable
from passdown.stability import TriangleClass, build_bw, cone_criterion_check, make_cone
from passdown.tracks import essential_tracks, split_collapse, tracks_from_resolution
from passdown.trees import ActionDescriptor, classify_subgroup_action, make_tree

from generators import (
    DepthBoundGenerator,
    random_cell_complex,
    random_edge_glued_complex,
    random_simplicial_complex,
    random_triangle_partition,
    random_triangle_tree_complex,
    splitting_fixture,
)
from lemmas import is_simple
from oracles import classification_oracle, cone_criterion_oracle, h1_rank_oracle

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def report(name):
    print(f"PASS {name}")


def test_reduction_suite():
    """200 randomized bigon/triangle complexes: reduce is idempotent,
    preserves connectivity and h1 = 0, never increases covolume."""
    rng = random.Random(20260809)
    checked_h1 = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DisconnectedComplexWarning)
        for _ in range(200):
            x = random_cell_complex(rng, max_vertices=12)
            r = reduce_complex(x)
            validate_complex(r, require_simplicial=True)
            r2 = reduce_complex(r)
            assert r2.vertices == r.vertices
            assert set(map(frozenset, r2.edges.values())) == set(map(frozenset, r.edges.values()))
            assert {frozenset(r2.face_vertices(f)) for f in r2.faces} == {
                frozenset(r.face_vertices(f)) for f in r.faces
            }
            assert covolume(r) <= covolume(x)
            if is_connected(x):
                assert is_connected(r)
                if h1_z2(x) == 0:
                    assert h1_z2(r) == 0
                    checked_h1 += 1
    assert checked_h1 >= 20  # the sample genuinely exercises the h1 clause
    report("reduction suite (200 randomized complexes, exact)")


def test_h1_oracle_equivalence():
    """h1_z2 against the independent boundary-matrix-rank oracle on 500
    random complexes."""
    rng = random.Random(77)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DisconnectedComplexWarning)
        for _ in range(500):
            x = random_simplicial_complex(rng, max_vertices=8)
            assert h1_z2(x) == h1_rank_oracle(x)
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
            ts = essential_tracks(tracks_from_resolution(res), x)
            xt, frag = split_collapse(x, res, ts, groups)
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
    tl = make_tree_level(f"T{idx}", tree, actions, groups)
    return ks, tl, sum(covols)


def test_covolume_accounting():
    """Equality through the elliptic-terminal passdown; never an increase
    through the full passdown; a strict drop on the pinched fixture."""
    rng = random.Random(99)
    groups = GroupTable()
    for idx in range(12):
        ks, tl, total = _random_elliptic_structure(rng, groups, idx)
        result = passdown_structure(ks, tl, groups=groups)
        out = sum(structure_covolume(s) for s in result.structures.values())
        assert out == total == structure_covolume(ks)
        full = passdown_full(ks, tl, groups=groups)
        assert full.ledger["output"] == total  # degenerate case: equality
    fx = parse_fixtures([os.path.join(FIX, "worked_terminating.txt")])
    tl = make_tree_level("T0", fx.trees["T0"], fx.action_table("T0"), fx.groups)
    result = passdown_full(fx.structures["S0"], tl, groups=fx.groups)
    assert result.ledger["input"] == 3
    assert result.ledger["output"] == 2  # strict drop on the pinched fixture
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


def _classification_pool(tree, rng):
    ideals = sorted(tree.ideal_points)
    pool = []
    for p, q in itertools.combinations(ideals, 2):
        pool.append(ActionDescriptor(kind="hyperbolic", ends=(p, q)))
        pool.append(ActionDescriptor(kind="hyperbolic", ends=(p, q), swaps_ends=True))
    verts = sorted(tree.vertices)
    adj = tree.adjacency()
    for v in verts:
        pool.append(ActionDescriptor(kind="elliptic", fixed=frozenset({v})))
    for v in verts:
        for w in sorted(adj[v]):
            if v < w:
                pool.append(ActionDescriptor(kind="elliptic", fixed=frozenset({v, w})))
    return pool


def test_classification_oracle():
    """classify_subgroup_action against direct evaluation of the defining
    conditions, over trees with up to 8 vertices and up to 3 descriptors."""
    rng = random.Random(5150)
    trees = []
    for legs in (3, 4):
        verts = ["c"] + [f"l{i}" for i in range(legs)]
        edges = {f"e{i}": ("c", f"l{i}") for i in range(legs)}
        ideal = {f"p{i}": ("c", f"l{i}") for i in range(legs)}
        trees.append(make_tree(verts, edges, ideal))
    verts = [f"x{i}" for i in range(7)]
    edges = {f"f{i}": (f"x{i}", f"x{i+1}") for i in range(6)}
    trees.append(make_tree(verts, edges, {"p": ("x1", "x0"), "q": ("x5", "x6")}))
    checked = 0
    for tree in trees:
        pool = _classification_pool(tree, rng)
        sets = [[d] for d in pool]
        sets += [list(c) for c in itertools.combinations(pool, 2)]
        sets += [rng.sample(pool, 3) for _ in range(400)]
        for descriptors in sets:
            try:
                expect = classification_oracle(descriptors)
            except ValueError:
                with pytest.raises(ConsistencyError):
                    classify_subgroup_action(descriptors, tree)
                checked += 1
                continue
            try:
                got = classify_subgroup_action(descriptors, tree)
            except ConsistencyError:
                # engine-only guard: elliptic descriptor off the shared axis
                assert expect in ("linear", "dihedral")
                checked += 1
                continue
            assert got == expect, (descriptors, got, expect)
            checked += 1
    assert checked > 1500  # singles, all pairs, sampled triples
    report(f"classification oracle ({checked} descriptor sets, exact)")


def _wheel(n):
    from passdown.complexes import make_complex

    verts = ["hub"] + [f"u{i}" for i in range(n)]
    edges = {}
    faces = {}
    for i in range(n):
        edges[f"sp{i}"] = ("hub", f"u{i}")
        edges[f"rim{i}"] = (f"u{i}", f"u{(i + 1) % n}")
    for i in range(n):
        faces[f"t{i}"] = (f"sp{i}", f"rim{i}", f"sp{(i + 1) % n}")
    return make_complex(verts, edges, faces)


def _check_cone_verdict(x, classes, result):
    """The verdict matches the enumeration oracle, and a counterexample is
    a simple cone of x with at least three boundary vertices whose fan
    meets two or more classes."""
    violating = cone_criterion_oracle(x, classes)
    assert result.certified == (not violating)
    cone = result.counterexample
    if cone is None:
        return
    class_of = {f: cls.id for cls in classes for f in cls.triangles}
    assert is_simple(cone) and len(cone.boundary) >= 3
    assert len({class_of.get(f) for f in cone.fan}) >= 2
    assert make_cone(x, cone.center, cone.boundary) == cone
    assert (cone.center, set(cone.fan)) in [(c.center, set(c.fan)) for c in violating]


def test_cone_criterion_crosscheck():
    """Certificate/counterexample verdict coincides with the direct
    connectivity-and-acyclicity test of B_w and with cone enumeration; no
    certified instance has a cyclic B_w.  Triangle trees, whose B_w need
    not be connected, are checked against the enumeration only."""
    rng = random.Random(31337)
    groups = GroupTable()
    agreements = 0
    certified = 0
    counterexamples = 0
    while agreements < 34:
        if agreements % 3 == 2:
            # closed fans force a straddling cone whenever split
            x = _wheel(rng.randint(3, 6))
            parts = random_triangle_partition(rng, x, n_classes=rng.randint(1, 3))
        else:
            x = random_edge_glued_complex(rng, n_triangles=rng.randint(3, 8))
            parts = random_triangle_partition(rng, x)
        classes = [
            TriangleClass(id=f"Y{i}", cid="X", triangles=part) for i, part in enumerate(parts)
        ]
        result = cone_criterion_check(x, classes, groups)
        _check_cone_verdict(x, classes, result)
        bw, _ = build_bw(x, classes, groups)
        assert result.certified == bw.is_tree()
        if result.certified:
            assert not bw.has_cycle()
            certified += 1
        else:
            assert result.counterexample is not None
            counterexamples += 1
        agreements += 1
    tree_counterexamples = 0
    for _ in range(200):
        x = random_triangle_tree_complex(rng, n_triangles=rng.randint(3, 14))
        parts = random_triangle_partition(rng, x)
        classes = [TriangleClass(id=f"Y{i}", cid="X", triangles=part) for i, part in enumerate(parts)]
        result = cone_criterion_check(x, classes, groups)
        _check_cone_verdict(x, classes, result)
        tree_counterexamples += not result.certified
    assert certified and counterexamples and tree_counterexamples  # both verdicts exercised
    report(
        f"cone criterion cross-check ({agreements} fixtures: {certified} certified, "
        f"{counterexamples} counterexamples; 200 triangle trees against enumeration, "
        f"{tree_counterexamples} counterexamples; exact)"
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
