import functools
import itertools
import os
import random
from collections import Counter, defaultdict

import pytest

import oracles
from bench_ops import workloads
from differential import differential_test, nest, pair_set, record, seed1, spy, worked64
from generators import line_tree, open_fan, pinch, tau_from_fragment, triangle_classes, wheel
from lemmas import area, boundary_edges, cone_pushforward, is_simple, simple_subcone
from oracles import (
    Pair,
    PairSet,
    class_cutpoints,
    enumerate_simple_cones,
    equivalence_classes,
    expand_run,
    identity_fragment,
    n_dprime_oracle,
    n_prime_oracle,
    pairs_at,
    stable_pairs,
)
from passdown import graphs, hierarchy, pipeline, stability
from passdown.cli import main
from passdown.fixtures import parse_text
from passdown.pipeline import run_pipeline

from passdown.complexes import Complex2, make_complex
from passdown.errors import EngineError, FixtureError, HypothesisError
from passdown.groups import GroupRef, GroupTable
from passdown.provenance import TauFragment
from passdown.resolution import resolution_from_images
from passdown.stability import (
    LevelData,
    RunView,
    build_bw,
    classes_of_complex,
    cone_criterion_check,
    detect_n_delta,
    level_classes,
    make_cone,
    pairs_of_complex,
    stable_classes,
    stabilization_report,
)
from passdown.tracks import essential_tracks, split_collapse, tracks_from_resolution


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
        classes = level_classes(0, {cid: rec.classes for cid, rec in records.items()})
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
        classes = level_classes(0, {cid: rec.classes for cid, rec in stable_classes(run, 0)[0].items()})
        assert classes == equivalence_classes(run, 0, stable_pairs(run, 0))
        assert len(classes) == 1
        assert classes[0].triangles == frozenset({"t0", "t1", "t2", "t3"})

    def test_no_stable_pairs_gives_singletons(self):
        x = strip2()
        run = identity_run(x, levels=1)
        classes = level_classes(0, {"X": classes_of_complex(x, []).classes})
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

    def test_single_class_single_node(self):
        x = self.fan3()
        bw, _ = build_bw(x, triangle_classes([("t1", "t2", "t3")]), GroupTable())
        assert bw.class_nodes == ("Y0",) and not bw.edge_nodes
        assert bw.is_tree()

    def test_two_classes_sharing_edge_make_a_path(self):
        x = strip2()
        bw, _ = build_bw(x, triangle_classes([("t1",), ("t2",)]), GroupTable())
        assert len(bw.class_nodes) == 2 and bw.edge_nodes == ("bc",)
        assert len(bw.edges) == 2
        assert bw.is_tree()

    def test_three_classes_around_one_edge_is_a_star(self):
        x = self.fan3()
        bw, _ = build_bw(x, triangle_classes([("t1",), ("t2",), ("t3",)]), GroupTable())
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
        bw, bpw = build_bw(x, triangle_classes([("t1",), ("t2",)]), groups)
        assert len(bw.class_nodes) == 2
        assert len(bpw.class_nodes) == 1 and not bpw.edge_nodes


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
        x = open_fan()
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
        x, res = pinch()
        groups = GroupTable()
        ts = essential_tracks(tracks_from_resolution(res))
        xt, frag = split_collapse(ts, groups)
        cone = make_cone(x, "a", ("b", "c", "d"))
        out = cone_pushforward(cone, res, ts, frag, xt)
        assert out.circumference == 2 < area(cone)


class TestConeCriterion:
    def test_one_class_certifies(self):
        x = wheel(3)
        result = cone_criterion_check(x, triangle_classes([("t0", "t1", "t2")]), GroupTable())
        assert result.certified and result.bw_tree

    def test_straddling_cone_reported(self):
        x = wheel(3)
        result = cone_criterion_check(x, triangle_classes([("t0", "t1"), ("t2",)]), GroupTable())
        assert not result.certified
        assert result.counterexample is not None
        assert not result.bw_tree  # the 4-cycle through the two shared spokes

    def test_no_cones_is_vacuous(self):
        x = strip2()
        result = cone_criterion_check(x, triangle_classes([("t1",), ("t2",)]), GroupTable())
        assert result.certified and result.bw_tree

    def test_wide_wheel_one_class_certifies(self):
        x = wheel(20)  # the link of v is a 20-cycle
        result = cone_criterion_check(x, triangle_classes([tuple(f"t{i}" for i in range(20))]), GroupTable())
        assert result.certified and result.bw_tree and result.bpw_tree
        assert result.counterexample is None

    def test_wide_wheel_split_gives_a_counterexample(self):
        x = wheel(20)
        classes = triangle_classes([tuple(f"t{i}" for i in range(k, k + 10)) for k in (0, 10)])
        result = cone_criterion_check(x, classes, GroupTable())
        assert not result.certified and not result.bw_tree
        cone = result.counterexample
        assert cone.center == "v" and is_simple(cone) and area(cone) == 20
        assert make_cone(x, cone.center, cone.boundary) == cone

    def test_annulus_breaks_the_h1_hypothesis(self):
        # every link is a path, so there is no simple cone, yet B_w is a 12-cycle
        x = annulus()
        with pytest.raises(HypothesisError, match="cone-criterion"):
            cone_criterion_check(x, triangle_classes([(f,) for f in sorted(x.faces)]), GroupTable())

    def test_non_simplicial_complex_is_rejected(self):
        x = make_complex(
            ["a", "b", "c"],
            {"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a"), "ca2": ("c", "a")},
            {"t1": ("ab", "bc", "ca"), "t2": ("ab", "bc", "ca2")},
        )
        with pytest.raises(FixtureError):
            cone_criterion_check(x, triangle_classes([("t1", "t2")]), GroupTable())

    test_the_cone_search_matches_the_every_vertex_search = differential_test("classed complex")


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


class TestAccMonitor:
    test_chain_labelled_runs_match_the_full_walk = differential_test("run", "chain-labelled run")

    def test_a_complex_renamed_to_itself_is_not_scanned(self):
        """On the seed-1 size ops tau_{H-1} renames every complex to the
        very same complex, so the scan into the horizon compares no label."""
        scanned = 0
        for _op, rep in seed1("size").reports:
            run = rep.run
            tau, above = run.taus[-1], run.levels[-1].complexes
            assert all(above[tau.renamed[cid]] is x for cid, x in run.levels[-2].complexes.items())
            scanned += run.horizon - 1 >= rep.n_delta
        assert seed1("size").counts["leq in _grows_into_horizon"] == 0 and scanned > 0


class TestRenamings:
    """A renamed complex takes its stable pairs and classes from its image,
    and a step renaming the whole level passes sigma and the pullback
    without a walk; the oracle is the same run with every renaming written
    out face by face (``oracles.expand_run``)."""

    test_generated_renamed_runs_match_their_expansion = differential_test("run", "renamed run")
    test_seed1_benchmark_reports_match_their_expansion = differential_test("benchmark run")


class TestRunAnalysisOracles:
    test_sweep_and_indices_match_recomposition = differential_test("run", "run")
    test_composed_fragments_match_the_recomposition = differential_test("run", "composed run")
    test_class_check_matches_the_built_subcomplex = differential_test("run", "triangle sets")
    test_classes_are_cutpoint_free_by_construction = differential_test("pair subsets")

    def test_a_bowtie_triangle_set_has_a_cutpoint_and_forms_no_class(self):
        # two triangles meeting only at c: the set of both has a cutpoint,
        # and no pair joins them, since they share no side
        x = make_complex(
            ["a", "b", "c", "d", "e"],
            {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c"), "cd": ("c", "d"), "de": ("d", "e"), "ce": ("c", "e")},
            {"t1": ("ab", "bc", "ac"), "t2": ("cd", "de", "ce")},
        )
        assert class_cutpoints(x, {"t1", "t2"}) == {"c"}
        assert class_cutpoints(x, {"t1"}) == set()
        # any iterable of triangles will do
        assert class_cutpoints(x, iter(["t2", "t1"])) == {"c"} == class_cutpoints(x, ["t1", "t2", "t1"])
        assert isinstance(class_cutpoints(x, ("t1", "t2")), frozenset)
        assert pairs_of_complex(x) == []
        assert classes_of_complex(x, pairs_of_complex(x)).classes == (frozenset({"t1"}), frozenset({"t2"}))

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
        """The arguments of every call to the run-analysis steps."""
        log = defaultdict(list)
        for owner, name in ((oracles, "compose"), (oracles, "stable_pairs"), (stability, "classes_of_complex"),
                            (stability, "level_classes"), (stability, "_sigma"), (stability, "_pulls_back")):
            record(monkeypatch, log, owner, name)
        return log

    def assert_classes_built_once(self, calls, rep_levels, n_delta):
        """Class records are built for the complexes of the horizon only,
        every step from N_delta on renames its whole level, and a level
        numbers its classes only where they are read, once: here the
        certificate loop reads level N_delta, which certifies."""
        assert [x for x, *_ in calls["classes_of_complex"]] == list(rep_levels[self.H].complexes.values())
        assert [n for n, _classes_of in calls["level_classes"]] == [n_delta]
        assert calls["_sigma"] == calls["_pulls_back"] == calls["compose"] == calls["stable_pairs"] == []

    def test_pipeline_computes_each_level_once(self):
        rep, log = worked64()
        assert rep.horizon == self.H and rep.certificate_level == 1
        assert [level for (level,) in log["covolume"]] == rep.run.levels  # the ledger, once per level
        assert len(rep.run.levels[self.H].complexes) == 2
        self.assert_classes_built_once(log, rep.run.levels, rep.n_delta)

    @staticmethod
    def benchmark_calls(family, horizon, counted, monkeypatch):
        """The calls to each of ``counted`` (owner, name) on the seed-1
        benchmark op of ``family`` at ``horizon``, and the covolumes counted."""
        op = getattr(workloads, family)(random.Random(1), horizon)
        out, covolume = Counter(dict.fromkeys([name for _module, name in counted] + ["covolume"], 0)), Complex2.covolume.func
        with monkeypatch.context() as m:
            for module, name in counted:
                spy(m, out, module, name)
            derive = functools.cached_property(lambda x: out.update(["covolume"]) or covolume(x))
            derive.__set_name__(Complex2, "covolume")
            m.setattr(Complex2, "covolume", derive)
            rep = run_pipeline(parse_text(op.text), op.pipeline)
        assert rep.horizon == horizon and rep.certificate_level == op.expected.cert_level
        return out

    @pytest.mark.parametrize("family", ["worked", "chain"])
    def test_unchanged_levels_cost_no_rebuild(self, family, monkeypatch):
        """A run of unchanged levels checks no terminal, distributes
        nothing, counts no covolume, lists no pair and builds no class
        again: on a benchmark run these are called as often at horizon 8
        as at horizon 64."""
        counted = (
            (hierarchy, "_check_terminal_complex"),
            (hierarchy, "_distribute"),
            (stability, "pairs_of_complex"),
            (stability, "classes_of_complex"),
        )
        short, long = (self.benchmark_calls(family, h, counted, monkeypatch) for h in (8, 64))
        assert short == long and all(short.values())

    @pytest.mark.parametrize("family, counted", [
        ("worked", ((pipeline, "_effective"), (pipeline, "_children_by_orbit"), (TauFragment, "located"))),
        ("chain", ((TauFragment, "located"),)),
    ])
    def test_identity_steps_cost_no_script_work(self, family, counted, monkeypatch):
        """A script node is derived once, at its first expansion, and an
        identity step's tau is recorded as a renaming, with no fragment
        located: on a benchmark run these are called as often at horizon 8
        as at horizon 64.  A chain run expands a new script node at every
        level, so there only ``located`` is pinned."""
        short, long = (self.benchmark_calls(family, h, counted, monkeypatch) for h in (8, 64))
        assert short == long and all(short.values())

    @pytest.mark.parametrize("name", ["leq", "_gf2_rank", "reduced_path"])
    def test_each_distinct_label_pair_rank_and_image_pair_is_worked_once(self, name):
        """Containments are checked once per distinct (label, label above)
        pair, every cutpoint piece and merge-free reduction is handed its Z2
        boundary rank, and a resolution computes one tree path per distinct
        pair of end images: on the 15 seed-1 size ops, each of whose complexes
        carries only the trivial label and maps to one tree vertex,
        ``complexes._gf2_rank`` and ``trees.reduced_path`` each run once per
        op, not once per piece or edge, and ``GroupTable.leq`` not at all:
        a trivial label lies below every label without asking the table."""
        assert len(seed1("size").reports) == 15
        assert seed1("size").counts[name] == (0 if name == "leq" else 15)

    def test_class_cutpoint_checks_do_not_grow_with_the_horizon(self, monkeypatch):
        """The classes are cutpoint-free by construction, so the class
        analysis searches no cutpoint: ``stable_classes`` computes no blocks
        on a benchmark worked run, at horizon 8 as at horizon 64."""

        def blocks_calls(horizon):
            op, calls, inside = workloads.worked(random.Random(1), horizon), Counter(), Counter()
            with monkeypatch.context() as m:
                nest(m, inside, stability, "stable_classes")
                spy(m, calls, graphs, "blocks", blocks=lambda frame, *args: bool(inside["stable_classes"]))
                rep = run_pipeline(parse_text(op.text), op.pipeline)
            assert rep.horizon == horizon and rep.certificate_level == op.expected.cert_level
            return calls["blocks"]

        assert blocks_calls(8) == blocks_calls(64) == 0

    def test_the_class_analysis_searches_no_cutpoint(self):
        """On the seed-1 ops of every workload, ``stable_classes`` calls
        ``graphs.blocks`` not at all."""
        assert [seed1(w).counts["blocks in stable_classes"] for w in sorted(workloads.WORKLOADS)] == [0, 0, 0]

    def test_the_chain_monitor_does_not_walk_a_run_that_stopped_growing(self, monkeypatch):
        """A run whose chains stop growing before the horizon is not walked:
        ``acc_monitor`` scans the last step of the stabilizing chain fixture
        once, at horizon 8 as at horizon 64, and looks up no image, since
        that step renames every complex to the very same complex."""
        monitor = {stability.acc_monitor.__code__, stability._grows_into_horizon.__code__}

        def image_calls(horizon):
            with open(ACC_STABLE) as fh:
                text = fh.read()
            assert "horizon=4 " in text
            calls = Counter()
            with monkeypatch.context() as m:
                spy(m, calls, TauFragment, "image", image=lambda frame, *args: frame.f_code in monitor)
                spy(m, calls, stability, "_grows_into_horizon")
                rep = run_pipeline(parse_text(text.replace("horizon=4 ", f"horizon={horizon} ")), "stable")
            assert rep.horizon == horizon and rep.acc_alerts == () and rep.exit_code == 0
            return calls["image"], calls["_grows_into_horizon"]

        assert image_calls(8) == image_calls(64) == (0, 1)

    def test_the_cone_check_builds_blocks_only_where_two_classes_meet(self):
        """``cone_criterion_check`` builds link blocks once per vertex whose
        star meets two classes, and at no other vertex: on the seed-1 size
        ops, which all certify, one ``graphs.blocks`` call inside the check
        per such vertex."""
        counts = seed1("size").counts
        assert all(rep.certificate_level == op.expected.cert_level is not None for op, rep in seed1("size").reports)
        assert counts["blocks in cone checks"] == counts["vertices whose star meets two classes"] > 0

    def test_a_one_class_complex_certifies_without_a_cone_walk(self):
        """The certificate loop derives ``triangles_by_vertex`` only for a
        complex whose triangles meet two classes: on none of the seed-1
        horizon and surgery ops, where every checked complex is one class,
        and once per such complex on the size ops."""
        counts = {w: seed1(w).counts for w in ("horizon", "size", "surgery")}
        assert [counts[w]["cone checks meeting two classes"] for w in ("horizon", "surgery")] == [0, 0]
        assert [counts[w]["triangles_by_vertex in cone checks"] for w in ("horizon", "surgery")] == [0, 0]
        size = counts["size"]
        assert size["triangles_by_vertex in cone checks"] == size["cone checks meeting two classes"] > 0

    def test_dot_export_reuses_the_classes(self, worked64, calls, tmp_path, capsys, monkeypatch):
        runs = []
        analyze = pipeline.analyze_run
        monkeypatch.setattr(pipeline, "analyze_run", lambda name, run: runs.append(run) or analyze(name, run))
        assert main(["--dot", str(tmp_path / "dot"), "pipeline", worked64, "--name", "worked"]) == 0
        assert sorted(os.listdir(tmp_path / "dot")) == ["level1.0.bw.dot", "level1.1.bw.dot"]
        n_delta = int(capsys.readouterr().out.split("N_delta=")[1].split()[0])
        (run,) = runs
        self.assert_classes_built_once(calls, run.levels, n_delta)
