import dataclasses
import functools
import glob
import itertools
import os
import random
import sys

import pytest

import oracles
from generators import random_edge_glued_complex, random_simplicial_complex, random_triangle_partition
from lemmas import area, boundary_edges, cone_pushforward, is_simple, simple_subcone
from oracles import (
    Pair,
    PairSet,
    acc_monitor_full_walk,
    enumerate_simple_cones,
    equivalence_classes,
    expand_run,
    identity_fragment,
    n_dprime_oracle,
    n_prime_oracle,
    pair_set,
    pairs_at,
    stable_pairs,
    subcomplex_of,
)
from bench_ops import workloads
from passdown import graphs, hierarchy, pipeline, stability
from passdown.cli import main
from passdown.fixtures import parse_fixtures, parse_text
from passdown.pipeline import analyze_run, run_pipeline

from passdown.complexes import Complex2, cutpoints, make_complex
from passdown.errors import EngineError, FixtureError, HypothesisError
from passdown.groups import GroupRef, GroupTable
from passdown.provenance import TauFragment
from passdown.resolution import resolution_from_images
from passdown.stability import (
    LevelData,
    RunView,
    TriangleClass,
    build_bw,
    class_cutpoints,
    classes_of_complex,
    cone_criterion_check,
    detect_n_delta,
    level_classes,
    make_cone,
    stable_classes,
    stabilization_report,
)
from passdown.tracks import essential_tracks, split_collapse, tracks_from_resolution
from passdown.trees import make_tree


def line_tree(n=2, ideals=()):
    verts = [f"x{i}" for i in range(n)]
    edges = {f"f{i}": (f"x{i}", f"x{i+1}") for i in range(n - 1)}
    ideal = {}
    for k, name in enumerate(ideals):
        ideal[name] = ("x1", "x0") if k == 0 else (f"x{n-2}", f"x{n-1}")
    return make_tree(verts, edges, ideal)


def tau_from_fragment(cid_src, cid_dst, frag):
    """A fragment from complex ``cid_src`` to ``cid_dst`` keyed (complex
    id, face id)."""
    return TauFragment(
        triangle_map={(cid_src, f): None if img is None else (cid_dst, img) for f, img in frag.triangle_map.items()},
        edge_map={((cid_src, f), e): img for (f, e), img in frag.edge_map.items()},
    )


def identity_run(x, levels=3, groups=None):
    frag = identity_fragment(x)
    tau = tau_from_fragment("X", "X", frag)
    return RunView(
        levels=[LevelData(complexes={"X": x}) for _ in range(levels)],
        taus=[tau for _ in range(levels - 1)],
        groups=groups or GroupTable(),
    )


class TestNDelta:
    def test_constant(self):
        assert detect_n_delta([4, 4, 4]) == 0

    def test_drop_then_constant(self):
        assert detect_n_delta([5, 4, 4, 4]) == 1

    def test_increase_is_a_bug(self):
        with pytest.raises(EngineError):
            detect_n_delta([3, 4])


def strip2():
    # two triangles sharing edge [b,c]
    return make_complex(
        ["a", "b", "c", "d"],
        {
            "ab": ("a", "b"),
            "ac": ("a", "c"),
            "bc": ("b", "c"),
            "bd": ("b", "d"),
            "cd": ("c", "d"),
        },
        {"t1": ("ab", "bc", "ac"), "t2": ("bc", "cd", "bd")},
        boundary_marked=["a", "d"],
    )


class TestStablePairs:
    def test_horizon_equal_to_level_keeps_all(self):
        x = strip2()
        run = identity_run(x, levels=1)
        ps = stable_pairs(run, 0)
        assert len(ps.pairs) == len(pairs_at(run, 0)) == 1
        assert pair_set(stable_classes(run, 0)[0]) == ps.pairs

    def test_identity_run_pairs_stay(self):
        run = identity_run(strip2(), levels=4)
        ps = stable_pairs(run, 0)
        assert {(p.t1, p.t2) for p in ps.pairs} == {("t1", "t2")}

    def test_pair_cut_by_track_is_excluded(self):
        # level 0: the strip; level 1: its collapse along a track through bc
        x = strip2()
        t = line_tree(2)
        res = resolution_from_images(x, t, {"a": "x0", "b": "x0", "c": "x1", "d": "x1"})
        ts = essential_tracks(tracks_from_resolution(res))
        assert len(ts.tracks) == 1
        groups = GroupTable()
        xt, frag = split_collapse(ts, groups)
        run = RunView(
            levels=[LevelData(complexes={"X": x}), LevelData(complexes={"X": xt})],
            taus=[tau_from_fragment("X", "X", frag)],
            groups=groups,
        )
        ps = stable_pairs(run, 0)
        assert ps.pairs == frozenset()
        records = stable_classes(run, 0)[0]
        assert pair_set(records) == frozenset()
        classes = level_classes(0, records)
        assert classes == equivalence_classes(run, 0, ps)
        assert len(classes) == 2  # singletons


class TestClasses:
    def test_chain_of_four(self):
        verts = ["v0", "v1", "v2", "v3", "v4", "w"]
        edges = {}
        faces = {}
        for i in range(4):
            edges[f"r{i}"] = (f"v{i}", "w")
            edges[f"s{i}"] = (f"v{i}", f"v{i+1}")
        edges["r4"] = ("v4", "w")
        for i in range(4):
            faces[f"t{i}"] = (f"r{i}", f"s{i}", f"r{i+1}")
        x = make_complex(verts, edges, faces)
        run = identity_run(x, levels=2)
        classes = level_classes(0, stable_classes(run, 0)[0])
        assert classes == equivalence_classes(run, 0, stable_pairs(run, 0))
        assert len(classes) == 1
        assert classes[0].triangles == frozenset({"t0", "t1", "t2", "t3"})

    def test_no_stable_pairs_gives_singletons(self):
        x = strip2()
        run = identity_run(x, levels=1)
        classes = level_classes(0, {"X": classes_of_complex(x, [])})
        assert classes == equivalence_classes(run, 0, ps=PairSet(0, 0, frozenset()))
        assert len(classes) == 2


class TestBW:
    def fan3(self):
        # three triangles around the shared edge's endpoint pattern:
        # t1, t2, t3 all containing edge uv
        return make_complex(
            ["u", "v", "a", "b", "c"],
            {
                "uv": ("u", "v"),
                "ua": ("u", "a"),
                "va": ("v", "a"),
                "ub": ("u", "b"),
                "vb": ("v", "b"),
                "uc": ("u", "c"),
                "vc": ("v", "c"),
            },
            {
                "t1": ("uv", "ua", "va"),
                "t2": ("uv", "ub", "vb"),
                "t3": ("uv", "uc", "vc"),
            },
        )

    def classes_for(self, x, partition):
        run = identity_run(x, levels=1)
        from passdown.stability import TriangleClass

        return [
            TriangleClass(id=f"Y{i}", cid="X", triangles=frozenset(p))
            for i, p in enumerate(partition)
        ]

    def test_single_class_single_node(self):
        x = self.fan3()
        bw, _ = build_bw(x, self.classes_for(x, [("t1", "t2", "t3")]), GroupTable())
        assert bw.class_nodes == ("Y0",) and not bw.edge_nodes
        assert bw.is_tree()

    def test_two_classes_sharing_edge_make_a_path(self):
        x = strip2()
        bw, _ = build_bw(x, self.classes_for(x, [("t1",), ("t2",)]), GroupTable())
        assert len(bw.class_nodes) == 2 and bw.edge_nodes == ("bc",)
        assert len(bw.edges) == 2
        assert bw.is_tree()

    def test_three_classes_around_one_edge_is_a_star(self):
        x = self.fan3()
        bw, _ = build_bw(x, self.classes_for(x, [("t1",), ("t2",), ("t3",)]), GroupTable())
        assert bw.edge_nodes == ("uv",)
        assert len(bw.edges) == 3
        assert bw.is_tree() and not bw.has_cycle()

    def test_nonslender_shared_edge_collapses(self):
        groups = GroupTable([GroupRef("Big")])
        x = make_complex(
            strip2().vertices,
            dict(strip2().edges),
            dict(strip2().faces),
            stab={"bc": "Big", "b": "Big", "c": "Big"},
            boundary_marked=["a", "d"],
            groups=groups,
        )
        bw, bpw = build_bw(x, self.classes_for(x, [("t1",), ("t2",)]), groups)
        assert len(bw.class_nodes) == 2
        assert len(bpw.class_nodes) == 1 and not bpw.edge_nodes


def wheel(n=3, center="v"):
    verts = [center] + [f"u{i}" for i in range(n)]
    edges = {}
    faces = {}
    for i in range(n):
        edges[f"sp{i}"] = (center, f"u{i}")
        edges[f"rim{i}"] = (f"u{i}", f"u{(i+1) % n}")
    for i in range(n):
        faces[f"t{i}"] = (f"sp{i}", f"rim{i}", f"sp{(i+1) % n}")
    return make_complex(verts, edges, faces, boundary_marked=[center, "u0"])


def annulus():
    """Inner triangle a0 a1 a2 and outer triangle b0 b1 b2 joined by six
    triangles: a simplicial annulus, h1 = 1."""
    verts = [f"{r}{i}" for r in "ab" for i in range(3)]
    edges, faces = {}, {}
    for i in range(3):
        j = (i + 1) % 3
        edges[f"a{i}a{j}"] = (f"a{i}", f"a{j}")
        edges[f"b{i}b{j}"] = (f"b{i}", f"b{j}")
        edges[f"a{i}b{i}"] = (f"a{i}", f"b{i}")
        edges[f"a{j}b{i}"] = (f"a{j}", f"b{i}")
    for i in range(3):
        j = (i + 1) % 3
        faces[f"s{i}"] = (f"a{i}a{j}", f"a{j}b{i}", f"a{i}b{i}")
        faces[f"t{i}"] = (f"a{j}b{i}", f"b{i}b{j}", f"a{j}b{j}")
    return make_complex(verts, edges, faces)


class TestCones:
    def test_closed_fan_found(self):
        x = wheel(3)
        cones = enumerate_simple_cones(x, "v")
        assert len(cones) == 1
        assert set(cones[0].boundary) == {"u0", "u1", "u2"}
        assert is_simple(cones[0])

    def test_open_fan_has_no_simple_cone(self):
        x = make_complex(
            ["v", "a", "b", "c"],
            {
                "va": ("v", "a"),
                "vb": ("v", "b"),
                "vc": ("v", "c"),
                "ab": ("a", "b"),
                "bc": ("b", "c"),
            },
            {"t1": ("va", "ab", "vb"), "t2": ("vb", "bc", "vc")},
        )
        assert enumerate_simple_cones(x, "v") == []

    def test_doubled_fan_finds_both_subfans(self):
        # link of v is a 4-cycle with a chord: three simple cycles
        x = make_complex(
            ["v", "a", "b", "c", "d"],
            {
                "va": ("v", "a"),
                "vb": ("v", "b"),
                "vc": ("v", "c"),
                "vd": ("v", "d"),
                "ab": ("a", "b"),
                "bc": ("b", "c"),
                "cd": ("c", "d"),
                "da": ("d", "a"),
                "ac": ("a", "c"),
            },
            {
                "t1": ("va", "ab", "vb"),
                "t2": ("vb", "bc", "vc"),
                "t3": ("vc", "cd", "vd"),
                "t4": ("vd", "da", "va"),
                "t5": ("va", "ac", "vc"),
            },
        )
        cones = enumerate_simple_cones(x, "v")
        boundaries = {frozenset(c.boundary) for c in cones}
        assert boundaries == {
            frozenset({"a", "b", "c"}),
            frozenset({"a", "c", "d"}),
            frozenset({"a", "b", "c", "d"}),
        }
        # brute-force oracle: try all vertex orders up to rotation/reflection
        link = {"a", "b", "c", "d"}
        found = set()
        for r in (3, 4):
            for perm in itertools.permutations(sorted(link), r):
                try:
                    make_cone(x, "v", perm)
                except Exception:
                    continue
                found.add(frozenset(perm))
        assert found == boundaries


class TestSimpleSubcone:
    def test_already_simple_unchanged(self):
        x = wheel(4)
        cone = make_cone(x, "v", ("u0", "u1", "u2", "u3"))
        out = simple_subcone(cone, ("u0", "u1"), ("u1", "u2"))
        assert out == cone

    def test_double_wrap_halves(self):
        x = wheel(3)
        cone = make_cone(x, "v", ("u0", "u1", "u2", "u0", "u1", "u2"))
        assert not is_simple(cone) and area(cone) == 6
        out = simple_subcone(cone, ("u0", "u1"), ("u1", "u2"))
        assert is_simple(out) and area(out) == 3
        assert ("u0", "u1") in boundary_edges(out)
        assert ("u1", "u2") in boundary_edges(out)

    def test_pinched_fan_cuts_to_smaller(self):
        # boundary revisits u0 once: wheel of 4 with an extra wrap step
        x = make_complex(
            ["v", "u0", "u1", "u2", "u3"],
            {
                "s0": ("v", "u0"),
                "s1": ("v", "u1"),
                "s2": ("v", "u2"),
                "s3": ("v", "u3"),
                "r01": ("u0", "u1"),
                "r12": ("u1", "u2"),
                "r20": ("u2", "u0"),
                "r03": ("u0", "u3"),
                "r31": ("u3", "u1"),
            },
            {
                "t0": ("s0", "r01", "s1"),
                "t1": ("s1", "r12", "s2"),
                "t2": ("s2", "r20", "s0"),
                "t3": ("s0", "r03", "s3"),
                "t4": ("s3", "r31", "s1"),
            },
        )
        cone = make_cone(x, "v", ("u0", "u1", "u2", "u0", "u3"))
        assert not is_simple(cone)
        out = simple_subcone(cone, ("u0", "u1"), ("u1", "u2"))
        assert is_simple(out)
        assert area(out) < area(cone)
        assert ("u0", "u1") in boundary_edges(out) and ("u1", "u2") in boundary_edges(out)

    def test_local_injectivity_required(self):
        x = wheel(4)
        cone = make_cone(x, "v", ("u0", "u1", "u2", "u3"))
        with pytest.raises(HypothesisError):
            simple_subcone(cone, ("u0", "u1"), ("u1", "u0"))


class TestPushforward:
    def test_no_track_same_size(self):
        x = wheel(3)
        t = line_tree(2)
        res = resolution_from_images(x, t, {v: "x0" for v in x.vertices})
        groups = GroupTable()
        ts = essential_tracks(tracks_from_resolution(res))
        xt, frag = split_collapse(ts, groups)
        cone = make_cone(x, "v", ("u0", "u1", "u2"))
        out = cone_pushforward(cone, res, ts, frag, xt)
        assert out.circumference == 3
        assert out.center == "v"
        assert not out.new_adjacencies

    def test_enclosing_circle_keeps_circumference(self):
        x = wheel(3)
        t = line_tree(2)
        res = resolution_from_images(
            x, t, {"v": "x0", "u0": "x1", "u1": "x1", "u2": "x1"}
        )
        groups = GroupTable()
        ts = essential_tracks(tracks_from_resolution(res))
        assert len(ts.tracks) == 1
        xt, frag = split_collapse(ts, groups)
        cone = make_cone(x, "v", ("u0", "u1", "u2"))
        out = cone_pushforward(cone, res, ts, frag, xt)
        assert out.used_track == ts.tracks[0].id
        assert out.center == frag.track_point[ts.tracks[0].id]
        assert out.circumference <= 3

    def test_merge_drops_circumference(self):
        # the pinch complex: the cone around a loses a triangle to a merge
        x = make_complex(
            ["a", "b", "c", "d"],
            {
                "ab": ("a", "b"),
                "ac": ("a", "c"),
                "bc": ("b", "c"),
                "ad": ("a", "d"),
                "bd": ("b", "d"),
                "cd": ("c", "d"),
            },
            {"t1": ("ab", "bc", "ac"), "t2": ("ab", "bd", "ad"), "t3": ("ac", "cd", "ad")},
            boundary_marked=["a", "c"],
        )
        t = line_tree(2)
        res = resolution_from_images(x, t, {"a": "x0", "b": "x0", "c": "x1", "d": "x1"})
        groups = GroupTable()
        ts = essential_tracks(tracks_from_resolution(res))
        xt, frag = split_collapse(ts, groups)
        cone = make_cone(x, "a", ("b", "c", "d"))
        out = cone_pushforward(cone, res, ts, frag, xt)
        assert out.circumference == 2 < area(cone)


class TestConeCriterion:
    def classes_for(self, x, partition):
        from passdown.stability import TriangleClass

        return [
            TriangleClass(id=f"Y{i}", cid="X", triangles=frozenset(p))
            for i, p in enumerate(partition)
        ]

    def test_one_class_certifies(self):
        x = wheel(3)
        result = cone_criterion_check(x, self.classes_for(x, [("t0", "t1", "t2")]), GroupTable())
        assert result.certified and result.bw_tree

    def test_straddling_cone_reported(self):
        x = wheel(3)
        result = cone_criterion_check(x, self.classes_for(x, [("t0", "t1"), ("t2",)]), GroupTable())
        assert not result.certified
        assert result.counterexample is not None
        assert not result.bw_tree  # the 4-cycle through the two shared spokes

    def test_no_cones_is_vacuous(self):
        x = strip2()
        result = cone_criterion_check(x, self.classes_for(x, [("t1",), ("t2",)]), GroupTable())
        assert result.certified and result.bw_tree

    def test_wide_wheel_one_class_certifies(self):
        x = wheel(20)  # the link of v is a 20-cycle
        result = cone_criterion_check(x, self.classes_for(x, [tuple(f"t{i}" for i in range(20))]), GroupTable())
        assert result.certified and result.bw_tree and result.bpw_tree
        assert result.counterexample is None

    def test_wide_wheel_split_gives_a_counterexample(self):
        x = wheel(20)
        classes = self.classes_for(x, [tuple(f"t{i}" for i in range(k, k + 10)) for k in (0, 10)])
        result = cone_criterion_check(x, classes, GroupTable())
        assert not result.certified and not result.bw_tree
        cone = result.counterexample
        assert cone.center == "v" and is_simple(cone) and area(cone) == 20
        assert make_cone(x, cone.center, cone.boundary) == cone

    def test_annulus_breaks_the_h1_hypothesis(self):
        # every link is a path, so there is no simple cone, yet B_w is a 12-cycle
        x = annulus()
        with pytest.raises(HypothesisError, match="cone-criterion"):
            cone_criterion_check(x, self.classes_for(x, [(f,) for f in sorted(x.faces)]), GroupTable())

    def test_non_simplicial_complex_is_rejected(self):
        x = make_complex(
            ["a", "b", "c"],
            {"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a"), "ca2": ("c", "a")},
            {"t1": ("ab", "bc", "ca"), "t2": ("ab", "bc", "ca2")},
        )
        with pytest.raises(FixtureError):
            cone_criterion_check(x, self.classes_for(x, [("t1", "t2")]), GroupTable())

    def test_the_cone_search_matches_the_every_vertex_search(self):
        """Stepping over the vertices whose star lies in one class leaves
        the first cone found: on generated complexes cut into edge-connected
        classes, every third with triangles left out of every class."""
        rng = random.Random(20261021)
        cones = in_no_class = 0
        for i in range(300):
            x = random_edge_glued_complex(rng, rng.randint(3, 14)) if i % 2 else random_simplicial_complex(rng)
            class_of = {f: k for k, part in enumerate(random_triangle_partition(rng, x)) for f in part}
            if i % 3 == 0 and class_of:
                for f in rng.sample(sorted(class_of), rng.randint(1, len(class_of))):
                    del class_of[f]
            cone = stability._straddling_cone(x, class_of)
            assert cone == oracles.straddling_cone_every_vertex(x, class_of)
            cones += cone is not None
            in_no_class += cone is not None and not class_of.keys() >= set(cone.fan)
        assert cones > 20 and in_no_class > 5


def override_labels(x, eid, gid):
    plus = dict(x.stab_plus)
    plus[eid] = gid
    return make_complex(
        x.vertices, dict(x.edges), dict(x.faces), stab=dict(x.stab), orbit=dict(x.orbit),
        boundary_marked=x.boundary_marked, stab_plus=plus,
    )


class TestStabilizationAndAcc:
    def chain_groups(self):
        return GroupTable(
            [
                GroupRef("S1", is_slender=True),
                GroupRef("S2", is_slender=True),
                GroupRef("S3", is_slender=True),
            ]
        )

    def growing_run(self, levels=4):
        groups = self.chain_groups()
        groups.declare_leq("S1", "S2")
        groups.declare_leq("S2", "S3")
        base = strip2()
        xs = [override_labels(base, "bc", f"S{min(i + 1, 3)}") for i in range(levels)]
        frag = identity_fragment(base)
        taus = [tau_from_fragment("X", "X", frag) for _ in range(levels - 1)]
        return RunView(levels=[LevelData(complexes={"X": x}) for x in xs], taus=taus, groups=groups)

    def test_constant_classes_give_n_prime_at_n_delta(self):
        run = identity_run(strip2(), levels=4)
        report = stabilization_report(run)
        assert report.n_delta == 0
        assert report.n_prime == 0
        assert report.n_dprime == 0
        assert not report.acc_alerts

    def test_growing_chain_raises_one_alert(self):
        run = self.growing_run(levels=3)  # S1 < S2 < S3 still growing at the end
        report = stabilization_report(run)
        assert len(report.acc_alerts) == 1
        alert = report.acc_alerts[0]
        assert "bc" in alert.chain
        assert alert.labels == ("S1", "S2", "S3")

    def test_stabilizing_chain_is_quiet(self):
        run = self.growing_run(levels=5)  # caps at S3 two levels before the horizon
        report = stabilization_report(run)
        assert not report.acc_alerts


# ---------------------------------------------------------------------------
# the one-sweep run analysis against the recomposition definitions


def random_fragment(rng, x, y, same, calm=False):
    """A TauFragment from x to y.  When ``same`` (y is x), a triangle
    survives, survives with two side images swapped, or merges onto a
    neighbour; otherwise it merges onto a random triangle of y, each side
    going to some side of the image.  Any triangle may drop.  Sometimes a
    second step of drops on y follows.  A ``calm`` step between equal
    complexes only keeps triangles, some with two side images swapped."""
    tri, edge = {}, {}
    targets = sorted(y.triangles())
    for f in sorted(x.triangles()):
        r = rng.uniform(0.1, 0.8) if calm else rng.random()
        sides = x.faces[f]
        neighbours = [t for t in targets if t != f and set(y.faces[t]) & set(sides)] if same else []
        if r < 0.1:
            tri[f] = None
        elif same and r < 0.8:
            tri[f] = f
            images = list(sides)
            if r >= 0.7:  # swap the images of two sides
                i, j = rng.sample(range(len(sides)), 2)
                images[i], images[j] = images[j], images[i]
            edge.update(((f, e), img) for e, img in zip(sides, images))
        else:
            tri[f] = rng.choice(neighbours if neighbours and r < 0.9 else targets)
            edge.update(((f, e), rng.choice(y.faces[tri[f]])) for e in sides)
    frag = TauFragment(triangle_map=tri, edge_map=edge)
    if not calm and rng.random() < 0.3:
        drops = identity_fragment(y)
        for f in targets:
            if rng.random() < 0.2:
                drops.triangle_map[f] = None
        frag = frag.compose(drops)
    frag.check_consistency(x, y)
    return frag


def random_run(rng):
    """Two random complexes carried to a random horizon by random
    fragments, plus a third one that splits into the other two at a random
    level, so that N_delta varies; steps from a random level on are calm,
    so that N' and N'' vary."""
    fixed = {"A": random_edge_glued_complex(rng, rng.randint(2, 7)), "B": random_simplicial_complex(rng)}
    extra = random_edge_glued_complex(rng, rng.randint(1, 4))
    horizon = rng.randint(1, 6)
    extra_until = rng.randint(0, horizon)
    calm_from = rng.randint(extra_until, horizon)
    levels = [
        LevelData(complexes={**fixed, **({"C": extra} if n < extra_until else {})})
        for n in range(horizon + 1)
    ]
    taus = []
    for n in range(horizon):
        tri, edge = {}, {}
        for cid, x in levels[n].complexes.items():
            if cid in levels[n + 1].complexes:
                dsts = [cid]
            else:  # the vanishing complex splits between the others
                dsts = [d for d in ("A", "B") if levels[n + 1].complexes[d].triangles()]
            options = [
                tau_from_fragment(cid, d, random_fragment(rng, x, levels[n + 1].complexes[d], d == cid, n >= calm_from))
                for d in dsts
            ]
            for f in sorted(x.triangles()):
                tau = rng.choice(options)
                tri[(cid, f)] = tau.triangle_map[(cid, f)]
                edge.update({(key, e): img for (key, e), img in tau.edge_map.items() if key == (cid, f)})
        taus.append(TauFragment(triangle_map=tri, edge_map=edge))
    return RunView(levels=levels, taus=taus, groups=GroupTable())


def renamed_run(rng, run):
    """The run with a copy of a random level n inserted after it, its
    complexes under new ids, reached by a step that renames all of them
    or, per complex, either renames it or maps it face by face; the old
    tau_n follows from the copy."""
    n = rng.randint(0, run.horizon)
    complexes = run.levels[n].complexes
    whole = rng.random() < 0.5
    step = TauFragment()
    for cid, x in complexes.items():
        if whole or rng.random() < 0.5:
            step.renamed[cid] = cid + "'"
        else:
            step.update(tau_from_fragment(cid, cid + "'", identity_fragment(x)))
    copy = LevelData(complexes={cid + "'": x for cid, x in complexes.items()})
    taus = run.taus[:n] + [step]
    if n < run.horizon:
        old = run.taus[n]
        taus.append(
            TauFragment(
                triangle_map={(cid + "'", f): img for (cid, f), img in old.triangle_map.items()},
                edge_map={((cid + "'", f), e): img for ((cid, f), e), img in old.edge_map.items()},
            )
        )
        taus += run.taus[n + 1 :]
    return RunView(levels=run.levels[: n + 1] + [copy] + run.levels[n + 1 :], taus=taus, groups=run.groups)


def chain_labelled_run(rng, run, mode):
    """``run`` with oriented-edge labels from the chain S0 < S1 < ... <
    S{horizon}: at level n an edge carries S{min(n, end)}.  ``end`` is the
    horizon when ``mode`` is "grows", a level below it for the whole run
    when "stops", and drawn per complex and edge id when "mixed".
    Returns the run and the run-wide ``end``."""
    horizon = run.horizon
    groups = GroupTable(
        [GroupRef(f"S{i}", declared_supergroups=frozenset({f"S{i + 1}"})) for i in range(horizon)] + [GroupRef(f"S{horizon}")]
    )
    end = horizon if mode == "grows" else rng.randint(0, horizon - 1)
    ends = {}
    levels = []
    for n, level in enumerate(run.levels):
        complexes = {}
        for cid, x in level.complexes.items():
            if mode == "mixed":
                plus = {e: f"S{min(n, ends.setdefault((cid, e), rng.randint(0, horizon)))}" for e in x.edges}
            else:
                plus = dict.fromkeys(x.edges, f"S{min(n, end)}")
            complexes[cid] = x.relabel(plus)
        levels.append(LevelData(complexes=complexes))
    return RunView(levels=levels, taus=run.taus, groups=groups), end


class TestAccMonitor:
    def test_chain_labelled_runs_match_the_full_walk(self):
        """The monitor walks the chains only when some step into the
        horizon grows; its alerts are those of the walk from every class
        edge, on generated runs (every other one with renamings) whose
        last step grows, whose growth stops earlier, or whose level H-1
        lies below N_delta."""
        rng = random.Random(20261022)
        alerted = stopped_earlier = below_start = 0
        for i in range(150):
            run = random_run(rng) if i % 2 else renamed_run(rng, random_run(rng))
            mode = ("grows", "stops", "mixed")[i % 3]
            run, end = chain_labelled_run(rng, run, mode)
            report = stabilization_report(run)
            alerts = acc_monitor_full_walk(run, report.n_delta, report.classes)
            assert list(report.acc_alerts) == alerts
            alerted += bool(alerts)
            stopped_earlier += mode == "stops" and report.n_delta < end
            below_start += run.horizon - 1 < report.n_delta
        assert alerted > 20 and stopped_earlier > 10 and below_start > 10


class TestRenamings:
    """A renamed complex takes its stable pairs and classes from its image,
    and a step renaming the whole level passes sigma and the pullback
    without a walk; the oracle is the same run with every renaming written
    out face by face (``oracles.expand_run``)."""

    def test_generated_renamed_runs_match_their_expansion(self):
        rng = random.Random(20261020)
        whole = partial = 0
        for _ in range(150):
            run = renamed_run(rng, random_run(rng))
            expanded = expand_run(run)
            report = stabilization_report(run)
            assert report == stabilization_report(expanded)
            for n, records in stable_classes(run, 0).items():
                assert pair_set(records) == stable_pairs(expanded, n).pairs
                assert level_classes(n, records) == equivalence_classes(expanded, n, stable_pairs(expanded, n))
            assert report.n_prime == n_prime_oracle(expanded, report.n_delta, report.classes)
            assert report.n_dprime == n_dprime_oracle(expanded, report.n_prime)
            for n, tau in enumerate(run.taus):
                if tau.renamed:
                    whole += stability._renames_level(run, n)
                    partial += not stability._renames_level(run, n)
        assert whole > 20 and partial > 20

    def test_seed1_benchmark_reports_match_their_expansion(self):
        ops = [op for name in sorted(workloads.WORKLOADS) for op in workloads.generate(name, 1)]
        renamed = 0
        for op in ops:
            fx = parse_text(op.text)
            rep = run_pipeline(fx, op.pipeline)
            expanded = expand_run(rep.run)
            renamed += sum(bool(tau.renamed) for tau in rep.run.taus)
            assert stabilization_report(expanded) == stabilization_report(rep.run)
            assert dataclasses.replace(analyze_run(op.pipeline, expanded), run=None) == dataclasses.replace(rep, run=None)
        assert len(ops) > 50 and renamed > 1000


class TestRunAnalysisOracles:
    def test_sweep_and_indices_match_recomposition(self):
        rng = random.Random(20261017)
        levels = kept = deeper_prime = deeper_dprime = 0
        for _ in range(150):
            run = random_run(rng)
            sweep = stable_classes(run, 0)
            per_face = oracles.stable_pair_sets(run, 0)
            assert sorted(sweep) == sorted(per_face) == list(range(run.horizon + 1))
            for n, records in sweep.items():
                assert pair_set(records) == per_face[n].pairs == stable_pairs(run, n).pairs
                levels += 1
                kept += len(per_face[n].pairs)
            report = stabilization_report(run)
            for n, classes in report.classes.items():
                assert classes == equivalence_classes(run, n, stable_pairs(run, n))
            assert report.n_prime == n_prime_oracle(run, report.n_delta, report.classes)
            assert report.n_dprime == n_dprime_oracle(run, report.n_prime)
            assert list(report.acc_alerts) == acc_monitor_full_walk(run, report.n_delta, report.classes)
            deeper_prime += report.n_prime > report.n_delta
            deeper_dprime += report.n_dprime > report.n_prime
        # the generated runs exercise every branch: kept pairs, N' above
        # N_delta and N'' above N'
        assert levels > 400 and kept > 0 and deeper_prime > 0 and deeper_dprime > 0

    def test_composed_fragments_match_the_recomposition(self):
        """A run's one-step maps are TauFragments: composed with
        ``TauFragment.compose`` from level n to every m > n they equal
        ``oracles.compose``, on the generated runs and on the runs of the
        committed fixtures."""
        rng = random.Random(20261019)
        runs = [random_run(rng) for _ in range(60)]
        for path in sorted(glob.glob(os.path.join(os.path.dirname(WORKED), "*.txt"))):
            fx = parse_fixtures([path])
            runs += [expand_run(run_pipeline(fx, name).run) for name in sorted(fx.pipelines)]
        checked = 0
        for run in runs:
            for n in range(run.horizon):
                composed = run.taus[n]
                for m in range(n + 1, run.horizon + 1):
                    if m > n + 1:
                        composed = composed.compose(run.taus[m - 1])
                    assert (composed.triangle_map, composed.edge_map) == oracles.compose(run, n, m)
                    checked += 1
        assert checked > 200

    def test_class_check_matches_the_built_subcomplex(self):
        """``class_cutpoints`` against the cutpoints of the validated class
        subcomplex: on every class of the generated runs, and on random
        triangle sets of their complexes, where cutpoints do occur."""
        rng = random.Random(20261018)
        classes = with_cuts = 0
        for _ in range(150):
            run = random_run(rng)
            for n, level_classes in stabilization_report(run).classes.items():
                for cls in level_classes:
                    x = run.levels[n].complexes[cls.cid]
                    assert class_cutpoints(x, cls.triangles) == cutpoints(subcomplex_of(cls, x)) == set()
                    classes += 1
                for cid, x in run.levels[n].complexes.items():
                    fids = sorted(x.triangles())
                    if not fids:
                        continue
                    cls = TriangleClass(id="Z", cid=cid, triangles=frozenset(rng.sample(fids, rng.randint(1, len(fids)))))
                    cuts = class_cutpoints(x, cls.triangles)
                    assert cuts == cutpoints(subcomplex_of(cls, x))
                    with_cuts += bool(cuts)
        assert classes > 400 and with_cuts > 0

    def test_a_bowtie_class_is_an_engine_error(self):
        # two triangles meeting only at c: a class holding both has a cutpoint
        x = make_complex(
            ["a", "b", "c", "d", "e"],
            {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c"), "cd": ("c", "d"), "de": ("d", "e"), "ce": ("c", "e")},
            {"t1": ("ab", "bc", "ac"), "t2": ("cd", "de", "ce")},
        )
        assert class_cutpoints(x, {"t1", "t2"}) == {"c"}
        assert class_cutpoints(x, {"t1"}) == set()
        # any iterable of triangles will do, and the kept verdict cannot be
        # changed through the returned set
        assert class_cutpoints(x, iter(["t2", "t1"])) == {"c"} == class_cutpoints(x, ["t1", "t2", "t1"])
        assert isinstance(class_cutpoints(x, ("t1", "t2")), frozenset)
        run = identity_run(x, levels=1)
        joined = PairSet(level=0, horizon=0, pairs=frozenset({Pair(cid="X", t1="t1", t2="t2", edge="ac")}))
        with pytest.raises(EngineError, match="'Y0.0' subcomplex has a cutpoint"):
            equivalence_classes(run, 0, joined)
        record = classes_of_complex(x, [("t1", "t2", "ac")])
        assert record.classes == (frozenset({"t1", "t2"}),) and record.cut == 0
        with pytest.raises(EngineError, match="'Y0.2' subcomplex has a cutpoint"):
            level_classes(0, {"W": classes_of_complex(strip2(), []), "X": record})

    def test_swapped_sides_in_a_wheel_delay_n_dprime(self):
        # three triangles around c; tau_0 swaps the images of t1's sides
        # ca and ab, which breaks the pair t1|t3 on ca at level 0 only
        x = make_complex(
            ["c", "a", "b", "d"],
            {"ca": ("c", "a"), "cb": ("c", "b"), "cd": ("c", "d"), "ab": ("a", "b"), "bd": ("b", "d"), "da": ("d", "a")},
            {"t1": ("ca", "ab", "cb"), "t2": ("cb", "bd", "cd"), "t3": ("cd", "da", "ca")},
        )
        run = identity_run(x, levels=3)
        run.taus[0] = tau_from_fragment("X", "X", identity_fragment(x))
        run.taus[0].edge_map[(("X", "t1"), "ca")] = "ab"
        run.taus[0].edge_map[(("X", "t1"), "ab")] = "ca"
        sweep = stable_classes(run, 0)
        assert {(p.t1, p.t2) for p in pair_set(sweep[0])} == {("t1", "t2"), ("t2", "t3")}
        assert len(pair_set(sweep[1])) == 3
        report = stabilization_report(run)
        assert [len(report.classes[n]) for n in range(3)] == [1, 1, 1]
        assert (report.n_delta, report.n_prime, report.n_dprime) == (0, 0, 1)
        assert report.n_prime == n_prime_oracle(run, 0, report.classes)
        assert report.n_dprime == n_dprime_oracle(run, 0)

    def test_a_two_to_one_class_merge_is_not_a_bijection(self):
        # level 0: two disjoint triangles of orbit o; level 1: two triangles
        # of orbit o glued along an E0 edge, one image each.  Sigma is total
        # and onto but sends both classes to one, so step 0 does not count.
        orbit0 = {"t1": "o", "t2": "o"}
        edges0 = {}
        for i in (1, 2):
            edges0.update({f"p{i}": (f"a{i}", f"b{i}"), f"q{i}": (f"b{i}", f"c{i}"), f"r{i}": (f"c{i}", f"a{i}")})
            orbit0.update({f"p{i}": "E0", f"q{i}": "E1", f"r{i}": "E2"})
        x0 = make_complex(
            [f"{v}{i}" for v in "abc" for i in (1, 2)], edges0, {"t1": ("p1", "q1", "r1"), "t2": ("p2", "q2", "r2")}, orbit=orbit0
        )
        x1 = make_complex(
            ["a", "b", "c", "d"],
            {"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a"), "bd": ("b", "d"), "da": ("d", "a")},
            {"A": ("ab", "bc", "ca"), "B": ("ab", "bd", "da")},
            orbit={"A": "o", "B": "o", "ab": "E0", "bc": "E1", "ca": "E2", "bd": "E1", "da": "E2"},
        )
        sides = {"t1": ("A", {"p1": "ab", "q1": "bc", "r1": "ca"}), "t2": ("B", {"p2": "ab", "q2": "bd", "r2": "da"})}
        tau = TauFragment(
            triangle_map={("X", t): ("X", img) for t, (img, _) in sides.items()},
            edge_map={(("X", t), e): img_e for t, (_, es) in sides.items() for e, img_e in es.items()},
        )
        run = RunView(levels=[LevelData(complexes={"X": x0}), LevelData(complexes={"X": x1})], taus=[tau], groups=GroupTable())
        report = stabilization_report(run)
        assert {n: [sorted(c.triangles) for c in cs] for n, cs in report.classes.items()} == {
            0: [["t1"], ["t2"]],
            1: [["A", "B"]],
        }
        assert (report.n_delta, report.n_prime) == (0, 1)
        assert n_prime_oracle(run, 0, report.classes) == 1

    def test_a_pair_pulled_back_into_two_complexes_does_not_pull_back(self):
        # P and Q use the same face and edge ids; the stable pair t1|t2 of
        # level 1 has one preimage in each, so the step fails the pullback
        x = strip2()
        tau = TauFragment(
            triangle_map={("P", "t1"): ("X", "t1"), ("P", "t2"): None, ("Q", "t1"): None, ("Q", "t2"): ("X", "t2")},
            edge_map={(("P", "t1"), e): e for e in x.faces["t1"]} | {(("Q", "t2"), e): e for e in x.faces["t2"]},
        )
        run = RunView(
            levels=[LevelData(complexes={"P": x, "Q": x}), LevelData(complexes={"X": x})], taus=[tau], groups=GroupTable()
        )
        above = stable_classes(run, 0)[1]
        assert pair_set(above) == frozenset({Pair(cid="X", t1="t1", t2="t2", edge="bc")})
        assert stability._pulls_back(run, 0, above) is False
        assert n_dprime_oracle(run, 0) == 1

    def test_pair_split_between_complexes_is_not_stable(self):
        # t1 and t2 go to equally named triangles of two different complexes
        x = strip2()
        tau = tau_from_fragment("X", "P", identity_fragment(x))
        tau.triangle_map[("X", "t2")] = ("Q", "t2")
        run = RunView(
            levels=[LevelData(complexes={"X": x}), LevelData(complexes={"P": x, "Q": x})],
            taus=[tau],
            groups=GroupTable(),
        )
        assert stable_pairs(run, 0).pairs == frozenset()
        assert pair_set(stable_classes(run, 0)[0]) == frozenset()

    def test_side_image_off_the_image_triangle_is_an_engine_error(self):
        x = strip2()
        tau = tau_from_fragment("X", "X", identity_fragment(x))
        tau.edge_map[(("X", "t1"), "ab")] = "cd"  # cd is a side of t2, not of t1
        run = RunView(levels=[LevelData(complexes={"X": x})] * 2, taus=[tau], groups=GroupTable())
        for sweep in (stable_classes, oracles.stable_pair_sets):
            with pytest.raises(EngineError, match="not a side"):
                sweep(run, 0)
        with pytest.raises(EngineError, match="not a side"):
            stabilization_report(run)

    def test_a_renaming_onto_other_cells_is_an_engine_error(self):
        # X is renamed to Y, an equal complex built apart (its own cell
        # data), and to Z, a relabelling of X with orbits of its own
        x = strip2()
        y = strip2()
        z = x.relabel({})
        object.__setattr__(z, "orbit", dict(x.orbit))
        for target in (y, z):
            run = RunView(
                levels=[LevelData(complexes={"X": x}), LevelData(complexes={"Y": target})],
                taus=[TauFragment(renamed={"X": "Y"})],
                groups=GroupTable(),
            )
            with pytest.raises(EngineError, match="tau_0 renames 'X' to 'Y', which does not share its cells"):
                stabilization_report(run)
        run = RunView(
            levels=[LevelData(complexes={"X": x}), LevelData(complexes={"Y": x.relabel({})})],
            taus=[TauFragment(renamed={"X": "Y"})],
            groups=GroupTable(),
        )
        assert stabilization_report(run) == stabilization_report(expand_run(run))


WORKED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures", "worked_terminating.txt")
ACC_STABLE = os.path.join(os.path.dirname(WORKED), "acc_stable.txt")


class TestRunAnalysisWork:
    """The run analysis is computed once: call counts, not timings."""

    H = 64

    @pytest.fixture
    def worked64(self, tmp_path):
        with open(WORKED) as fh:
            text = fh.read()
        assert "horizon=4 " in text
        path = tmp_path / "worked64.txt"
        path.write_text(text.replace("horizon=4 ", f"horizon={self.H} "))
        return str(path)

    @pytest.fixture
    def calls(self, monkeypatch):
        """The first argument of every call to the run-analysis steps
        (a level, or the complex a class record is built for)."""
        calls = {name: [] for name in ("compose", "stable_pairs", "classes_of_complex", "level_classes", "_sigma", "_pulls_back")}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name].append(args[0] if name in ("classes_of_complex", "level_classes") else args[1])
                return fn(*args, **kwargs)

            return wrapper

        steps = (oracles, ("compose", "stable_pairs")), (stability, ("classes_of_complex", "level_classes", "_sigma", "_pulls_back"))
        for module, names in steps:
            for name in names:
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        return calls

    def assert_classes_built_once(self, calls, rep_levels, n_delta):
        """Class records are built for the complexes of the horizon only,
        every step from N_delta on renames its whole level, and each level
        numbers its classes once."""
        assert calls["classes_of_complex"] == [rep_levels[self.H].complexes[cid] for cid in rep_levels[self.H].complexes]
        assert calls["level_classes"] == list(range(n_delta, self.H + 1))
        assert calls["_sigma"] == calls["_pulls_back"] == []
        assert calls["compose"] == [] and calls["stable_pairs"] == []

    def test_pipeline_computes_each_level_once(self, worked64, calls, monkeypatch):
        covolumes = []
        level_covolume = stability.LevelData.covolume
        monkeypatch.setattr(stability.LevelData, "covolume", lambda self: covolumes.append(self) or level_covolume(self))
        rep = run_pipeline(parse_fixtures([worked64]), "worked")
        assert rep.horizon == self.H and rep.certificate_level == 1
        assert covolumes == rep.run.levels  # the ledger, once per level
        assert len(rep.run.levels[self.H].complexes) == 2
        self.assert_classes_built_once(calls, rep.run.levels, rep.n_delta)

    @pytest.mark.parametrize("family", ["worked", "chain"])
    def test_unchanged_levels_cost_no_rebuild(self, family, tmp_path, monkeypatch):
        """A run of unchanged levels checks no terminal, distributes
        nothing, counts no covolume, lists no pair and builds no class
        again: on a benchmark run these are called as often at horizon 8
        as at horizon 64."""
        counted = (
            (hierarchy, "_check_terminal_complex"),
            (hierarchy, "_distribute"),
            (stability, "pairs_of_complex"),
            (stability, "classes_of_complex"),
            (stability, "class_cutpoints"),
        )

        def calls(horizon):
            op = getattr(workloads, family)(random.Random(1), horizon)
            path = tmp_path / f"{family}{horizon}.txt"
            path.write_text(op.text)
            out = dict.fromkeys([name for _module, name in counted] + ["covolume"], 0)

            def wrap(name, fn):
                def wrapper(*args, **kwargs):
                    out[name] += 1
                    return fn(*args, **kwargs)

                return wrapper

            with monkeypatch.context() as m:
                for module, name in counted:
                    m.setattr(module, name, wrap(name, getattr(module, name)))
                derive = functools.cached_property(wrap("covolume", Complex2.__dict__["covolume"].func))
                derive.__set_name__(Complex2, "covolume")
                m.setattr(Complex2, "covolume", derive)
                rep = run_pipeline(parse_fixtures([str(path)]), op.pipeline)
            assert rep.horizon == horizon and rep.certificate_level == op.expected.cert_level
            return out

        short, long = calls(8), calls(64)
        assert short == long and all(short.values())

    def test_class_cutpoint_checks_do_not_grow_with_the_horizon(self, tmp_path, monkeypatch):
        """An unchanged class on an unchanged complex is checked for
        cutpoints once per run: ``class_cutpoints`` computes as many blocks
        on a benchmark worked run at horizon 8 as at horizon 64."""

        def blocks_calls(horizon):
            op = workloads.worked(random.Random(1), horizon)
            path = tmp_path / f"worked{horizon}.txt"
            path.write_text(op.text)
            calls = []
            blocks = graphs.blocks

            def counted(*args):
                if sys._getframe(1).f_code is stability.class_cutpoints.__code__:
                    calls.append(args)
                return blocks(*args)

            with monkeypatch.context() as m:
                m.setattr(graphs, "blocks", counted)
                rep = run_pipeline(parse_fixtures([str(path)]), op.pipeline)
            assert rep.horizon == horizon and rep.certificate_level == op.expected.cert_level
            return len(calls)

        assert blocks_calls(8) == blocks_calls(64) > 0

    def test_the_chain_monitor_does_not_walk_a_run_that_stopped_growing(self, tmp_path, monkeypatch):
        """A run whose chains stop growing before the horizon is not walked:
        ``acc_monitor`` looks up as many images on the stabilizing chain
        fixture at horizon 8 as at horizon 64."""

        def image_calls(horizon):
            with open(ACC_STABLE) as fh:
                text = fh.read()
            assert "horizon=4 " in text
            path = tmp_path / f"acc{horizon}.txt"
            path.write_text(text.replace("horizon=4 ", f"horizon={horizon} "))
            calls = []
            image = TauFragment.image
            monitor = {stability.acc_monitor.__code__, stability._grows_into_horizon.__code__}

            def counted(self, key):
                if sys._getframe(1).f_code in monitor:
                    calls.append(key)
                return image(self, key)

            with monkeypatch.context() as m:
                m.setattr(TauFragment, "image", counted)
                rep = run_pipeline(parse_fixtures([str(path)]), "stable")
            assert rep.horizon == horizon and rep.acc_alerts == () and rep.exit_code == 0
            return len(calls)

        assert image_calls(8) == image_calls(64) > 0

    def test_the_cone_check_builds_blocks_only_where_two_classes_meet(self, monkeypatch):
        """``cone_criterion_check`` builds link blocks once per vertex whose
        star meets two classes, and at no other vertex: on the seed-1 size
        ops, which all certify, one ``graphs.blocks`` call inside the check
        per such vertex."""
        inside, calls, expected = [], [], []
        blocks, check = graphs.blocks, stability.cone_criterion_check

        def counted_blocks(*args):
            if inside:
                calls.append(args)
            return blocks(*args)

        def counted_check(x, classes, groups):
            class_of = {f: cls.id for cls in classes for f in cls.triangles}
            expected.extend(v for v, star in x.triangles_by_vertex.items() if len({class_of.get(f) for f in star}) > 1)
            inside.append(x)
            try:
                return check(x, classes, groups)
            finally:
                inside.pop()

        monkeypatch.setattr(graphs, "blocks", counted_blocks)
        monkeypatch.setattr(pipeline, "cone_criterion_check", counted_check)
        for op in workloads.generate("size", 1):
            rep = run_pipeline(parse_text(op.text), op.pipeline)
            assert rep.certificate_level == op.expected.cert_level is not None
        assert len(calls) == len(expected) > 0

    def test_dot_export_reuses_the_classes(self, worked64, calls, tmp_path, capsys, monkeypatch):
        runs = []
        analyze = pipeline.analyze_run
        monkeypatch.setattr(pipeline, "analyze_run", lambda name, run: runs.append(run) or analyze(name, run))
        assert main(["--dot", str(tmp_path / "dot"), "pipeline", worked64, "--name", "worked"]) == 0
        assert sorted(os.listdir(tmp_path / "dot")) == ["w0.a0_o0.t0.bw.dot", "w0.a1_o1.t0.bw.dot"]
        n_delta = int(capsys.readouterr().out.split("N_delta=")[1].split()[0])
        (run,) = runs
        self.assert_classes_built_once(calls, run.levels, n_delta)
