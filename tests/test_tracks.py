import dataclasses
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from passdown import complexes, graphs, resolution, tracks
from passdown.complexes import Complex2, covolume, cutpoints, h1_z2, is_connected, make_complex, reduce_complex
from passdown.errors import ConsistencyError, HypothesisError, TruncationError
from passdown.fixtures import parse_fixtures, parse_text
from passdown.groups import GroupRef, GroupTable
from passdown.hierarchy import passdown_full
from passdown.pipeline import run_pipeline
from passdown.provenance import TauFragment
from passdown.resolution import resolution_from_images
from passdown.tracks import essential_tracks, split_collapse, tracks_from_resolution
from passdown.trees import make_tree

from bench_ops import workloads
from differential import differential_test, identity_handed_on, identity_step_matches, point_level, seed1, spy, worked64
from generators import line_tree, open_fan, pinch, random_strip_chain, triangle
from oracles import compose_fragments, identity_fragment, identity_step_oracle, track_sides, tracks_by_walk, vertex_fate


def crossing_indicator(ts, eid, f):
    """Does a track of tree edge f carry a point on edge eid?"""
    return any(tr.tree_edge == f and eid in tr.points for tr in ts.tracks)


def is_vertex_parallel(x, tr):
    """True when one side of the track is the star of a single vertex."""
    return any(len(s) == 1 for s in track_sides(x, tr))


def total_and_bijective(frag):
    """Every triangle survives and no two share an image."""
    images = list(frag.triangle_map.values())
    return None not in images and len(set(images)) == len(images)


def test_single_edge_single_crossing():
    t = line_tree(2)
    x = make_complex(["a", "b"], {"ab": ("a", "b")}, {})
    res = resolution_from_images(x, t, {"a": "x0", "b": "x1"})
    ts = tracks_from_resolution(res)
    assert len(ts.tracks) == 1
    assert ts.tracks[0].points == frozenset({"ab"})
    assert crossing_indicator(ts, "ab", "f0")


def test_constant_triangle_has_no_arcs():
    t = line_tree(2)
    x = triangle()
    res = resolution_from_images(x, t, {"a": "x0", "b": "x0", "c": "x0"})
    ts = tracks_from_resolution(res)
    assert ts.tracks == ()


def test_square_over_path_gives_one_track_with_two_arcs():
    # two triangles sharing [a,c]; one tree edge crossed by both
    t = line_tree(2)
    x = make_complex(
        ["a", "b", "c", "d"],
        {
            "ab": ("a", "b"),
            "bc": ("b", "c"),
            "ac": ("a", "c"),
            "ad": ("a", "d"),
            "cd": ("c", "d"),
        },
        {"t1": ("ab", "bc", "ac"), "t2": ("ac", "cd", "ad")},
    )
    res = resolution_from_images(x, t, {"a": "x0", "b": "x1", "c": "x1", "d": "x0"})
    ts = tracks_from_resolution(res)
    assert len(ts.tracks) == 1
    (tr,) = ts.tracks
    assert len(tr.arcs) == 2
    assert tr.points == frozenset({"ab", "ac", "cd"})


class TestEssential:
    def fan(self, marked):
        x = open_fan(marked)
        t = line_tree(2)
        res = resolution_from_images(x, t, {"v": "x0", "a": "x1", "b": "x1", "c": "x1"})
        return x, tracks_from_resolution(res)

    def test_vertex_parallel_unmarked_discarded(self):
        x, ts = self.fan(marked=["a"])
        assert len(ts.tracks) == 1
        assert is_vertex_parallel(x, ts.tracks[0])
        assert essential_tracks(ts).tracks == ()

    def test_marked_on_both_sides_retained(self):
        x, ts = self.fan(marked=["v", "a"])
        star = essential_tracks(ts)
        assert len(star.tracks) == 1

    def test_mixed_strip_matches_component_mass_oracle(self):
        # strip of 6 triangles over a 3-edge path; one track per tree edge
        t = line_tree(4)
        verts = [f"u{i}" for i in range(4)] + [f"w{i}" for i in range(4)]
        edges = {f"r{i}": (f"u{i}", f"w{i}") for i in range(4)}
        for i in range(3):
            edges[f"u{i}{i+1}"] = (f"u{i}", f"u{i+1}")
            edges[f"w{i}{i+1}"] = (f"w{i}", f"w{i+1}")
            edges[f"d{i}"] = (f"u{i}", f"w{i+1}")
        faces = {}
        for i in range(3):
            faces[f"a{i}"] = (f"u{i}{i+1}", f"r{i+1}", f"d{i}")
            faces[f"b{i}"] = (f"d{i}", f"w{i}{i+1}", f"r{i}")
        marked = {"u0", "w1"}
        x = make_complex(verts, edges, faces, boundary_marked=marked)
        images = {f"u{i}": f"x{i}" for i in range(4)} | {f"w{i}": f"x{i}" for i in range(4)}
        res = resolution_from_images(x, t, images)
        ts = tracks_from_resolution(res)
        assert len(ts.tracks) == 3
        star = essential_tracks(ts)
        assert 0 < len(star.tracks) < 3
        for tr in ts.tracks:
            expect = all(bool(s & marked) for s in track_sides(x, tr))
            assert (tr in star.tracks) == expect


class TestSplitCollapse:
    def test_no_tracks_no_boundary_is_reduction(self):
        t = line_tree(2)
        x = triangle()
        res = resolution_from_images(x, t, {"a": "x0", "b": "x0", "c": "x0"})
        ts = essential_tracks(tracks_from_resolution(res))
        xt, frag = split_collapse(ts, GroupTable())
        assert covolume(xt) == 1
        assert total_and_bijective(frag)
        assert {frozenset(xt.face_vertices(f)) for f in xt.faces} == {frozenset({"a", "b", "c"})}

    def strip4(self):
        # 4-triangle strip over two rails
        verts = ["u0", "u1", "u2", "w0", "w1", "w2"]
        edges = {
            "u01": ("u0", "u1"),
            "u12": ("u1", "u2"),
            "w01": ("w0", "w1"),
            "w12": ("w1", "w2"),
            "r0": ("u0", "w0"),
            "r1": ("u1", "w1"),
            "r2": ("u2", "w2"),
            "d0": ("u0", "w1"),
            "d1": ("u1", "w2"),
        }
        faces = {
            "t0": ("r0", "w01", "d0"),
            "t1": ("u01", "r1", "d0"),
            "t2": ("r1", "w12", "d1"),
            "t3": ("u12", "r2", "d1"),
        }
        return make_complex(verts, edges, faces, boundary_marked=["u0", "u2"])

    def test_strip_with_one_track(self):
        x = self.strip4()
        t = line_tree(2)
        images = {"u0": "x0", "w0": "x0", "w1": "x0", "d_": None}
        images = {"u0": "x0", "w0": "x0", "w1": "x0", "u1": "x1", "u2": "x1", "w2": "x1"}
        res = resolution_from_images(x, t, images)
        ts = essential_tracks(tracks_from_resolution(res))
        assert len(ts.tracks) == 1
        xt, frag = split_collapse(ts, GroupTable())
        assert is_connected(xt)
        assert h1_z2(xt) == 0
        assert covolume(xt) == covolume(x) == 4
        assert total_and_bijective(frag)

    def test_pinch_drops_covolume(self):
        x, res = pinch()
        assert h1_z2(x) == 0 and is_connected(x)
        ts = essential_tracks(tracks_from_resolution(res))
        assert len(ts.tracks) == 1
        xt, frag = split_collapse(ts, GroupTable())
        assert covolume(x) == 3
        assert covolume(xt) == 2
        assert frag.triangle_map["t1"] == frag.triangle_map["t2"]
        assert not total_and_bijective(frag)
        assert is_connected(xt) and h1_z2(xt) == 0

    def test_track_order_irrelevant(self):
        x = self.strip4()
        t = line_tree(3)
        images = {"u0": "x0", "w0": "x0", "w1": "x1", "u1": "x1", "u2": "x2", "w2": "x2"}
        res = resolution_from_images(x, t, images)
        ts = essential_tracks(tracks_from_resolution(res))
        xt1, _ = split_collapse(ts, GroupTable())
        reversed_ts = dataclasses.replace(ts, tracks=tuple(reversed(ts.tracks)))
        xt2, _ = split_collapse(reversed_ts, GroupTable())
        assert xt1.vertices == xt2.vertices
        assert xt1.edges == xt2.edges
        assert xt1.faces == xt2.faces

    def test_vertex_parallel_collapse_keeps_h1(self):
        x = open_fan(["v", "a"])
        t = line_tree(2)
        res = resolution_from_images(x, t, {"v": "x0", "a": "x1", "b": "x1", "c": "x1"})
        ts = essential_tracks(tracks_from_resolution(res))
        assert len(ts.tracks) == 1 and is_vertex_parallel(x, ts.tracks[0])
        xt, _ = split_collapse(ts, GroupTable())
        assert h1_z2(xt) == h1_z2(x) == 0

    def test_truncation_error_when_ray_too_short(self):
        t = line_tree(2, ideals=("p",))  # ideal beyond x0
        x = make_complex(["a", "b"], {"ab": ("a", "b")}, {}, boundary_marked=["b"])
        res = resolution_from_images(x, t, {"a": "p", "b": "x0"})
        # path from x0 to leaf x0 of p is trivial: no crossing at all
        ts = essential_tracks(tracks_from_resolution(res))
        with pytest.raises(TruncationError):
            split_collapse(ts, GroupTable())

    def test_a_corner_at_a_truncated_end_needs_an_essential_arc(self):
        """Over the star c - l0, l1, l2 with the ray of p toward l0, the
        triangle's corner a at p is cut off by the arc of f0 alone; with that
        track left out, each side at a still carries a point, and the
        triangle reaches the truncated end at a."""
        t = make_tree(["c", "l0", "l1", "l2"], {f"f{i}": ("c", f"l{i}") for i in range(3)}, {"p": ("c", "l0")})
        res = resolution_from_images(triangle(), t, {"a": "p", "b": "l1", "c": "l2"})
        ts = tracks_from_resolution(res)
        assert [tr.tree_edge for tr in ts.tracks] == ["f0", "f1", "f2"]
        without_f0 = dataclasses.replace(ts, tracks=ts.tracks[1:])
        message = "triangle 'f' reaches the truncated end at 'a' without an essential arc"
        with pytest.raises(TruncationError, match=message):
            split_collapse(without_f0, GroupTable())

    def test_segments_of_one_orbit_must_join_one_pair_of_orbits(self):
        """Edges e1 = ab and e2 = cd of one orbit cross one and two tree
        edges, so their second segments, both of orbit e.1, join a track
        point to b and two track points."""
        t = make_tree(["x0", "x1", "x2"], {"f0": ("x0", "x1"), "f1": ("x1", "x2")}, orbit={"x2": "x1"})
        x = make_complex(
            "abcd", {"e1": ("a", "b"), "e2": ("c", "d"), "g": ("b", "c")}, {},
            orbit={"e1": "e", "e2": "e", "a": "p", "c": "p", "b": "q", "d": "q"},
        )
        res = resolution_from_images(x, t, {"a": "x0", "c": "x0", "b": "x1", "d": "x2"})
        with pytest.raises(ConsistencyError, match="edges of orbit 'e.1' have mismatched endpoint orbits"):
            split_collapse(tracks_from_resolution(res), GroupTable())

    def test_boundary_preimage_removed(self):
        t = line_tree(3, ideals=("p",))  # ray toward x0
        x = triangle(boundary_marked=["b", "c"])
        res = resolution_from_images(x, t, {"a": "p", "b": "x2", "c": "x2"})
        ts = essential_tracks(tracks_from_resolution(res))
        xt, frag = split_collapse(ts, GroupTable())
        assert "a" not in xt.vertices
        assert vertex_fate(res, "a") is None
        assert all((vertex_fate(res, v) is None) == (v not in xt.vertices) for v in x.vertices)
        assert covolume(xt) == 1  # central triangle survives
        assert is_connected(xt) and h1_z2(xt) == 0


def test_fragment_composition_associative():
    x = triangle()
    ident = identity_fragment(x)
    drop = TauFragment(triangle_map={"f": None}, edge_map={})
    left = compose_fragments(compose_fragments(ident, ident), drop)
    right = compose_fragments(ident, compose_fragments(ident, drop))
    assert left.triangle_map == right.triangle_map
    assert left.edge_map == right.edge_map


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


class TestIdentityCollapse:
    """A level over a one-vertex tree hands reduced, cutpoint-free
    complexes whose labels all act elliptically on as they are: the
    identity step of ``passdown_full``.  Its general path, forced by
    reading no complex as reduced, is the oracle."""

    test_shortcut_matches_the_full_path = differential_test("identity step")

    def test_a_complex_out_of_canonical_order_takes_the_full_path(self, monkeypatch):
        groups = GroupTable()
        x = make_complex(
            ["a", "b", "c", "d"],
            {"bc": ("c", "b"), "ab": ("a", "b"), "ac": ("a", "c"), "bd": ("b", "d"), "cd": ("c", "d")},
            {"t2": ("bc", "cd", "bd"), "t1": ("ab", "bc", "ac")},
            stab_plus={"bc": "1"},
            groups=groups,
        )
        assert not x.is_reduced
        ((_gid, xt),) = identity_step_matches({"r": ("1", x)}, groups).terminals["p"].values()
        assert xt is not x and xt.is_reduced
        assert list(xt.edges.items()) == [
            ("ab", ("a", "b")), ("ac", ("a", "c")), ("bc", ("b", "c")), ("bd", ("b", "d")), ("cd", ("c", "d"))
        ]
        assert list(xt.faces.items()) == [("t1", ("ab", "bc", "ac")), ("t2", ("bc", "cd", "bd"))]
        assert identity_step_matches({"r": ("1", xt)}, groups).terminals["p"]["p.root"][1] is xt
        # only x is rebuilt: the quotient step runs once, on x's triangles
        rebuilt = []
        step = complexes.canonical_complex
        monkeypatch.setattr(complexes, "canonical_complex", lambda *a: rebuilt.append(a[2]) or step(*a))
        for y in (x, xt):
            passdown_full({"r": ("1", y)}, point_level(groups.copy()))
        assert len(rebuilt) == 1 and [ids for _triple, ids in sorted(rebuilt[0].items())] == [("t1",), ("t2",)]

    def test_a_kept_identity_step_rechecks_the_oriented_labels(self):
        # a relabelling shares the terminal signature of the complex it
        # came from; with no oriented label on its edges it is not
        # reduced, so the identity step kept for that signature does not
        # apply and the general path runs, as on a fresh tree level
        groups = GroupTable()
        x = reduce_complex(triangle(), groups)
        tl = point_level(groups)
        assert passdown_full({"r": ("1", x)}, tl).terminals["p"]["p.root"][1] is x
        y = x.relabel({})
        assert not y.is_reduced
        full = identity_step_oracle({"r": ("1", y)}, point_level(groups.copy()))
        kept = passdown_full({"r": ("1", y)}, tl)
        assert len(tl.identity_steps) == 1
        assert kept.terminals["p"]["p.root"][1] is not y
        assert identity_handed_on(kept, {"r": ("1", y)}) == identity_handed_on(full, {"r": ("1", y)})

    def test_an_ideal_vertex_takes_the_full_path(self):
        # a reduced triangle over a point tree with one ideal point: with
        # every label fixing the tree vertex, no vertex reaches the ideal
        # point and the level is an identity step
        x = reduce_complex(triangle(), GroupTable())
        result = identity_step_matches({"r": ("1", x)}, GroupTable(), ideal_points={"q": ("p",)})
        assert result.terminals["p"]["p.root"][1] is x
        # with vertex a's label fixing the ideal point and no track to cut
        # a off, the general path runs, and its collapse reports the
        # truncation
        groups = GroupTable([GroupRef("Pa", is_slender=True)])
        x = reduce_complex(triangle(stab={"a": "Pa"}, groups=groups), groups)
        assert x.is_reduced and not cutpoints(x)
        tl = point_level(groups, ideal_points={"q": ("p",)})
        tl.actions.declare_parabolic("Pa", "q")
        with pytest.raises(TruncationError, match="reaches a truncated end"):
            passdown_full({"r": ("1", x)}, tl)

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.txt")), ids=lambda path: path.stem)
    def test_fixture_reports_match_the_full_path(self, path, monkeypatch):
        fx = parse_fixtures([str(path)])
        fast = [run_pipeline(fx, name).render() for name in sorted(fx.pipelines)]
        monkeypatch.setattr(Complex2, "is_reduced", property(lambda self: False))
        assert [run_pipeline(fx, name).render() for name in sorted(fx.pipelines)] == fast


class TestCollapseWithNothingToCollapse:
    """With no track and no vertex at an ideal point, ``split_collapse``
    reduces its complex under the identity fragment and builds nothing
    else.  The oracle is the collapse built cell by cell
    (``oracles.collapse_by_construction``), and on a tree with no edge the
    crossing walk (``oracles.tracks_by_walk``)."""

    test_the_shortcut_matches_the_construction = differential_test("constant images")

    def test_a_tree_with_no_edge_refuses_what_the_walk_refuses(self):
        x = random_strip_chain(random.Random(5))
        res = resolution_from_images(x, make_tree(["p"], {}), dict.fromkeys(x.vertices, "p"))
        contracting = dataclasses.replace(res, kind=resolution.CONTRACTING)
        for extract in (tracks_from_resolution, tracks_by_walk):
            with pytest.raises(HypothesisError, match="splitting"):
                extract(contracting)

    def test_size_ops_collapse_over_point_trees_without_a_rebuild(self):
        """Every collapse of the seed-1 size ops is over a one-vertex tree
        and builds one complex, its reduction; no edge crossing is looked
        up, by the track extraction or the collapse; the reduction hands
        on the incidence and cutpoints, so the ops call ``graphs.blocks``
        no more than they need."""
        counts = seed1("size").counts
        assert counts["collapses"] == counts["built in a collapse"] == counts["reduce_with_map in a collapse"] == 45
        assert counts["canonical_complex in a collapse"] == 45
        assert counts["collapses over a tree with edges"] == 0
        assert counts["crossings"] == 0 and counts["blocks"] <= 180


class TestTrackPointDeclares:
    """``split_collapse`` reads the crossing table of its track system and
    declares only the containments under a track point."""

    test_generated_collapses_match_the_construction = differential_test(
        "track system", "chain", "doubled chain", "strip", "doubled", "simplicial", "tree", "glued"
    )
    test_the_worked_collapse_matches_the_construction = differential_test("track system", "worked")
    test_a_merged_cell_takes_its_least_id = differential_test("track system", "worked, second made sorts first")
    test_benchmark_collapses_match_the_construction = differential_test("track system", "surgery", "size")


def test_the_collapse_derives_each_table_once():
    """Count pins over the seed-1 ops.  On ``surgery`` the edge crossings
    are looked up once per distinct edge path, by the track extraction (121
    calls of ``Resolution.crossings`` for 2,016 edges), the collapse's declare step calls
    ``GroupTable.leq`` only under track points and once per distinct
    (label, label above) pair (53 calls; 3,670 pairs), and no
    cutpoint piece (68) computes its blocks with ``graphs.blocks``: it
    holds them from its parent.  On ``size``, where no collapse has a
    track, the declare step calls ``leq`` not at all."""
    seen = {}
    for workload in ("surgery", "size"):
        counts = seed1(workload).counts
        pieces = sum(kind == "piece" for kind, _x, _groups in seed1(workload).built.complexes)
        seen[workload] = (counts["crossings"], counts["leq in a collapse's declare step"], counts["blocks on pieces"], pieces)
    assert seen["surgery"] == (121, 53, 0, 68)
    assert seen["size"] == (0, 0, 0, 45)


def test_the_sides_of_all_tracks_take_one_components_pass(monkeypatch):
    """The track extraction calls ``graphs.components`` as often on
    ``grid`` 16x256 (15 tracks) as on ``grid`` 4x64 (3 tracks): once for
    the tracks, and once for the pieces of the complex minus every track
    point, which each track's sides join."""
    counts, seen = Counter(), {}
    spy(monkeypatch, counts, graphs, "components")
    for rows, cols in ((4, 64), (16, 256)):
        fx = parse_text(workloads.grid(random.Random(1), rows, cols, 2).text)
        (x,) = fx.complexes.values()
        name, tree = next((name, t) for name, t in fx.trees.items() if t.edges)
        res = resolution.build_resolution(x, tree, fx.action_table(name))
        counts.clear()
        seen[rows, cols] = len(tracks_from_resolution(res).tracks), counts["components"]
    assert seen == {(4, 64): (3, 2), (16, 256): (15, 2)}


def test_the_label_check_is_handed_on_by_the_parse():
    """On the seed-1 ``size`` and ``surgery`` ops ``cell_labels_reduced`` is
    never derived: each parsed complex (15 each) has an orbit per cell, so
    its validation hands it True, and every cutpoint piece, reduction and
    X_T is handed it in turn."""
    for workload in ("size", "surgery"):
        counts = seed1(workload).counts
        assert counts["parsed complexes"] == 15 and counts["cell_labels_reduced"] == 0, workload


def test_a_collapse_validates_only_what_it_builds():
    """A collapse checks the complex it builds, and not one it reduces as
    it is: on the seed-1 ops the declare step of the one-pass build runs
    once for each ``surgery`` collapse (15, all with tracks) and for no
    ``size`` collapse (45, none with a track or an ideal vertex), and the
    only complexes whose cells are validated are the parsed ones (15 each):
    none is built by a contraction."""
    surgery, size = seed1("surgery").counts, seed1("size").counts
    assert surgery["declare_pairs"] == surgery["collapses"] == 15
    assert size["declare_pairs"] == 0 < size["collapses"]
    for counts in (surgery, size):
        assert counts["_validate_cells"] == counts["parsed complexes"] == 15 and counts["_validate_cells in a collapse"] == 0


def test_a_track_collapse_builds_x_t_in_one_pass():
    """Every seed-1 ``surgery`` collapse has tracks and builds one complex,
    X_T (15 in all), in one call of the quotient step: no intermediate
    complex, no reduction of one and no validation."""
    counts = seed1("surgery").counts
    assert counts["collapses"] == counts["collapses over a tree with edges"] == counts["built in a collapse"] == 15
    assert counts["canonical_complex in a collapse"] == counts["canonical_complex"] == 15
    steps = ("reduce_with_map", "_validate_cells")
    assert [counts[f"{name} in a collapse"] for name in steps] == [0, 0]


WORKED = Path(__file__).resolve().parents[1] / "fixtures" / "worked_terminating.txt"


def test_worked_run_rebuilds_only_levels_with_tracks():
    """At horizon 64 the worked run collapses tracks only at its first
    level; every later level is a point tree and an identity step.  Only
    the first level resolves, collapses and rebuilds its complexes, each
    collapse building X_T once, in one pass, and each action table
    resolves a group id at most once per version of its group table."""
    rep, log = worked64()
    assert rep.horizon == 64 and rep.certificate_level == 1
    first = {id(x) for x in rep.run.levels[0].complexes.values()}
    assert log["build_resolution"] and {id(x) for x, *_ in log["build_resolution"]} <= first
    assert all(ts.tracks for ts, _groups in log["split_collapse"])
    assert len(log["canonical_complex"]) == len(log["split_collapse"]) >= 1 and not log["reduce_with_map"]
    assert log["_owner"] and max(Counter(log["_owner"]).values()) == 1


def test_worked_run_resolves_each_complex_once_per_tree():
    """At horizon 64 the worked run hands its complexes on unchanged,
    level after level.  Each complex object is resolved, and its tracks
    drawn, at most once per tree; each tree gets one tree level for the
    run; and the class check reads the level complex without building
    a complex, such as a class subcomplex."""
    rep, log = worked64()
    assert rep.horizon == 64 and rep.certificate_level == 1
    for name, key in (
        ("build_resolution", lambda x, t, actions: (id(x), id(t))),
        ("tracks_from_resolution", lambda res: (id(res.source), id(res.target))),
        ("make_tree_level", lambda name, *args: name),
    ):
        assert log[name] and max(Counter(key(*args) for args in log[name]).values()) == 1, name
    assert log["__init__"] == [] and len(rep.classes) > 1


DISK = """
groups
  group A
  group B
  group F slender sub-of=A,B
end

complex D
  vertex a marked stab=A
  vertex b stab=B
  vertex c stab=B
  vertex d marked stab=B
  edge ab a b stab=F
  edge ac a c stab=F
  edge bc b c stab=B
  edge bd b d stab=B
  edge cd c d stab=B
  triangle t1 ab bc ac stab=F
  triangle FACE bc cd bd stab=B
end

tree T
  vertex x0
  vertex x1
  edge f0 x0 x1
end

actions T
  elliptic A fix=x0
  elliptic B fix=x1
  elliptic F fix=x0,x1
end
"""


def _renamed(text, old, new):
    return re.sub(rf"(?<![\w.:]){re.escape(old)}(?![\w.:])", new, text)


class TestMintedIds:
    """A cell id that the collapse or the contraction would mint with the
    separator ``.`` (``:``) is taken by the input: the step mints with a
    doubled separator, and the result is the one of the input without the
    clash, under the renaming that undoes both."""

    @staticmethod
    def collapse(text, cx, tree):
        fx = parse_text(text)
        res = resolution.build_resolution(fx.complexes[cx], fx.trees[tree], fx.action_table(tree))
        if res.kind == resolution.CONTRACTING:
            xc, _res, frag = resolution.contract(res, fx.groups)
            return xc, frag
        return split_collapse(essential_tracks(tracks_from_resolution(res)), fx.groups)

    @staticmethod
    def shape(x, frag, back):
        """Cells, labels, orbits, marks and triangle map, every id passed
        through ``back``."""
        return (
            frozenset(map(back, x.vertices)),
            {back(e): frozenset(map(back, ends)) for e, ends in x.edges.items()},
            {back(f): frozenset(map(back, es)) for f, es in x.faces.items()},
            {back(c): g for c, g in x.stab.items()},
            {back(c): back(o) for c, o in x.orbit.items()},
            {back(e): g for e, g in x.stab_plus.items()},
            frozenset(map(back, x.boundary_marked)),
            {back(f): img and back(img) for f, img in frag.triangle_map.items()},
        )

    @pytest.mark.parametrize(
        "source, cx, tree, old, new, sep",
        [
            ("disk", "D", "T", "FACE", "t1.mid", "."),
            ("disk", "D", "T", "d", "w.s0", "."),
            ("worked_terminating.txt", "XP", "T0", "cd", "ac.0", "."),
            ("contracting.txt", "XC", "TL", "a", "c:u", ":"),
        ],
    )
    def test_a_taken_id_gives_an_isomorphic_result(self, source, cx, tree, old, new, sep):
        text = DISK if source == "disk" else (FIXTURES / source).read_text()
        x, frag = self.collapse(text, cx, tree)
        renamed_x, renamed_frag = self.collapse(_renamed(text, old, new), cx, tree)
        assert new in renamed_x.cells() and 2 * sep in "".join(renamed_x.cells())
        assert covolume(renamed_x) == covolume(x)

        def back(cell):
            return old if cell == new else cell.replace(2 * sep, sep)

        assert self.shape(renamed_x, renamed_frag, back) == self.shape(x, frag, str)

    def test_the_renamed_worked_run_reports_alike(self):
        text = WORKED.read_text()
        renamed = run_pipeline(parse_text(_renamed(text, "cd", "ac.0")), "worked")
        assert renamed.render() == run_pipeline(parse_text(text), "worked").render()
