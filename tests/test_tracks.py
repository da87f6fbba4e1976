import random
from collections import Counter
from pathlib import Path

import pytest

from passdown import complexes, hierarchy, pipeline, resolution, stability, tracks
from passdown.complexes import covolume, h1_z2, is_connected, make_complex, reduce_complex
from passdown.errors import TruncationError
from passdown.fixtures import parse_fixtures
from passdown.groups import GroupTable
from passdown.pipeline import run_pipeline
from passdown.provenance import TauFragment
from passdown.resolution import resolution_from_images
from passdown.tracks import essential_tracks, split_collapse, tracks_from_resolution
from passdown.trees import make_tree

from generators import random_labelled_complex
from oracles import identity_collapse_oracle


def line_tree(n=2, ideals=()):
    verts = [f"x{i}" for i in range(n)]
    edges = {f"f{i}": (f"x{i}", f"x{i+1}") for i in range(n - 1)}
    ideal = {}
    for k, name in enumerate(ideals):
        ray = ("x1", "x0") if k == 0 else (f"x{n-2}", f"x{n-1}")
        ideal[name] = ray
    return make_tree(verts, edges, ideal)


def crossing_indicator(ts, eid, f):
    """Does a track of tree edge f carry a point on edge eid?"""
    return any(tr.tree_edge == f and eid in tr.points for tr in ts.tracks)


def is_vertex_parallel(tr):
    """True when one side of the track is the star of a single vertex."""
    return any(len(s) == 1 for s in tr.sides)


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
    x = make_complex(
        ["a", "b", "c"],
        {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")},
        {"f": ("ab", "bc", "ac")},
    )
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
            boundary_marked=marked,
        )
        t = line_tree(2)
        res = resolution_from_images(x, t, {"v": "x0", "a": "x1", "b": "x1", "c": "x1"})
        return x, tracks_from_resolution(res)

    def test_vertex_parallel_unmarked_discarded(self):
        x, ts = self.fan(marked=["a"])
        assert len(ts.tracks) == 1
        assert is_vertex_parallel(ts.tracks[0])
        assert essential_tracks(ts, x).tracks == ()

    def test_marked_on_both_sides_retained(self):
        x, ts = self.fan(marked=["v", "a"])
        star = essential_tracks(ts, x)
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
        star = essential_tracks(ts, x)
        assert 0 < len(star.tracks) < 3
        for tr in ts.tracks:
            expect = all(bool(s & marked) for s in tr.sides)
            assert (tr in star.tracks) == expect


class TestSplitCollapse:
    def test_no_tracks_no_boundary_is_reduction(self):
        t = line_tree(2)
        x = make_complex(
            ["a", "b", "c"],
            {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")},
            {"f": ("ab", "bc", "ac")},
        )
        res = resolution_from_images(x, t, {"a": "x0", "b": "x0", "c": "x0"})
        ts = essential_tracks(tracks_from_resolution(res), x)
        xt, frag = split_collapse(x, res, ts, GroupTable())
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
        ts = essential_tracks(tracks_from_resolution(res), x)
        assert len(ts.tracks) == 1
        xt, frag = split_collapse(x, res, ts, GroupTable())
        assert is_connected(xt)
        assert h1_z2(xt) == 0
        assert covolume(xt) == covolume(x) == 4
        assert total_and_bijective(frag)

    def pinch(self):
        # three faces of a tetrahedron; one track around the [a,b]|[c,d] split
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
        return x, res

    def test_pinch_drops_covolume(self):
        x, res = self.pinch()
        assert h1_z2(x) == 0 and is_connected(x)
        ts = essential_tracks(tracks_from_resolution(res), x)
        assert len(ts.tracks) == 1
        xt, frag = split_collapse(x, res, ts, GroupTable())
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
        ts = essential_tracks(tracks_from_resolution(res), x)
        xt1, _ = split_collapse(x, res, ts, GroupTable())
        reversed_ts = type(ts)(resolution=ts.resolution, tracks=tuple(reversed(ts.tracks)))
        xt2, _ = split_collapse(x, res, reversed_ts, GroupTable())
        assert xt1.vertices == xt2.vertices
        assert xt1.edges == xt2.edges
        assert xt1.faces == xt2.faces

    def test_vertex_parallel_collapse_keeps_h1(self):
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
            boundary_marked=["v", "a"],
        )
        t = line_tree(2)
        res = resolution_from_images(x, t, {"v": "x0", "a": "x1", "b": "x1", "c": "x1"})
        ts = essential_tracks(tracks_from_resolution(res), x)
        assert len(ts.tracks) == 1 and is_vertex_parallel(ts.tracks[0])
        xt, _ = split_collapse(x, res, ts, GroupTable())
        assert h1_z2(xt) == h1_z2(x) == 0

    def test_truncation_error_when_ray_too_short(self):
        t = line_tree(2, ideals=("p",))  # ideal beyond x0
        x = make_complex(["a", "b"], {"ab": ("a", "b")}, {}, boundary_marked=["b"])
        res = resolution_from_images(x, t, {"a": "p", "b": "x0"})
        # path from x0 to leaf x0 of p is trivial: no crossing at all
        ts = essential_tracks(tracks_from_resolution(res), x)
        with pytest.raises(TruncationError):
            split_collapse(x, res, ts, GroupTable())

    def test_boundary_preimage_removed(self):
        t = line_tree(3, ideals=("p",))  # ray toward x0
        x = make_complex(
            ["a", "b", "c"],
            {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")},
            {"f": ("ab", "bc", "ac")},
            boundary_marked=["b", "c"],
        )
        res = resolution_from_images(x, t, {"a": "p", "b": "x2", "c": "x2"})
        ts = essential_tracks(tracks_from_resolution(res), x)
        xt, frag = split_collapse(x, res, ts, GroupTable())
        assert "a" not in xt.vertices
        assert frag.vertex_map["a"] is None
        assert covolume(xt) == 1  # central triangle survives
        assert is_connected(xt) and h1_z2(xt) == 0


def test_fragment_composition_associative():
    x = make_complex(
        ["a", "b", "c"],
        {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")},
        {"f": ("ab", "bc", "ac")},
    )
    ident = TauFragment.identity(x)
    drop = TauFragment(triangle_map={"f": None}, edge_map={}, vertex_map={v: v for v in x.vertices})
    left = ident.compose(ident).compose(drop)
    right = ident.compose(ident.compose(drop))
    assert left.triangle_map == right.triangle_map
    assert left.edge_map == right.edge_map
    assert left.vertex_map == right.vertex_map


class TestIdentityCollapse:
    """Over a point tree there is no track and no ideal vertex: a reduced
    complex is its own collapse.  The full rebuild, wire and reduce path of
    ``split_collapse`` is the oracle."""

    @staticmethod
    def over_point_tree(x):
        res = resolution_from_images(x, make_tree(["p"], {}, {}), {v: "p" for v in x.vertices})
        return res, tracks_from_resolution(res)

    def assert_matches_oracle(self, x, groups):
        res, ts = self.over_point_tree(x)
        assert ts.tracks == ()
        fast_groups, full_groups = groups.copy(), groups.copy()
        xt, frag = split_collapse(x, res, ts, fast_groups)
        xo, fo = identity_collapse_oracle(x, res, ts, full_groups)
        assert (xt is x) == x.is_reduced
        assert xt.vertices == xo.vertices
        assert list(xt.edges.items()) == list(xo.edges.items())
        assert list(xt.faces.items()) == list(xo.faces.items())
        assert xt.stab == xo.stab and xt.orbit == xo.orbit
        assert xt.boundary_marked == xo.boundary_marked
        assert {e: xt.edge_stab_plus(e) for e in xt.edges} == {e: xo.edge_stab_plus(e) for e in xo.edges}
        for name in ("triangle_map", "edge_map", "vertex_map", "track_point"):
            assert getattr(frag, name) == getattr(fo, name), name
        # no ref minted and no containment declared that the shortcut skips
        assert fast_groups._mint_counter == full_groups._mint_counter
        assert fast_groups._up == full_groups._up
        return xt

    @pytest.mark.parametrize("shape", ["simplicial", "cell", "tree", "glued"])
    @pytest.mark.parametrize("seed", range(15))
    def test_shortcut_matches_the_full_path(self, seed, shape):
        x, groups = random_labelled_complex(random.Random(seed), shape)
        reduced = reduce_complex(x, groups)
        assert reduced.is_reduced
        # the generated complex itself, usually not reduced, then its reduction
        for y in (x, reduced) if x.is_simplicial() else (reduced,):
            self.assert_matches_oracle(y, groups)

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
        xt = self.assert_matches_oracle(x, groups)
        assert xt is not x and xt.is_reduced
        assert list(xt.edges.items()) == [
            ("ab", ("a", "b")), ("ac", ("a", "c")), ("bc", ("b", "c")), ("bd", ("b", "d")), ("cd", ("c", "d"))
        ]
        assert list(xt.faces.items()) == [("t1", ("ab", "bc", "ac")), ("t2", ("bc", "cd", "bd"))]
        assert self.assert_matches_oracle(xt, groups) is xt
        rebuilt = []
        full = tracks.reduce_collapsed
        monkeypatch.setattr(tracks, "reduce_collapsed", lambda *a: rebuilt.append(a[0]) or full(*a))
        for y in (x, xt):
            split_collapse(y, *self.over_point_tree(y), groups.copy())
        assert len(rebuilt) == 1 and rebuilt[0].faces.keys() == x.faces.keys()

    def test_an_ideal_vertex_takes_the_full_path(self):
        # a reduced triangle with one vertex at the truncated end and no
        # track to cut it off: the rebuild reports the truncation
        x = reduce_complex(
            make_complex(
                ["a", "b", "c"],
                {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")},
                {"f": ("ab", "bc", "ac")},
                boundary_marked=["b"],
            )
        )
        assert x.is_reduced
        res = resolution_from_images(x, line_tree(2, ideals=("p",)), {"a": "p", "b": "x0", "c": "x0"})
        ts = tracks_from_resolution(res)
        assert ts.tracks == () and res.ideal_vertices() == {"a"}
        with pytest.raises(TruncationError, match="reaches a truncated end"):
            split_collapse(x, res, ts, GroupTable())


WORKED = Path(__file__).resolve().parents[1] / "fixtures" / "worked_terminating.txt"


def test_worked_run_rebuilds_only_levels_with_tracks(tmp_path, monkeypatch):
    """At horizon 64 the worked run collapses tracks only at its first
    level; every later level is a point tree.  The collapse is rebuilt and
    reduced only where tracks are, and each action table resolves a group
    id at most once per version of its group table."""
    text = WORKED.read_text()
    assert "horizon=4 " in text
    path = tmp_path / "worked64.txt"
    path.write_text(text.replace("horizon=4 ", "horizon=64 "))

    collapses = Counter()
    split = hierarchy.split_collapse

    def counted_split(x, res, ts, groups=None):
        collapses["with tracks" if ts.tracks else "without"] += 1
        return split(x, res, ts, groups)

    rebuilt = []
    full = tracks.reduce_collapsed
    resolves = Counter()
    owner = resolution.ActionTable._owner

    def counted_owner(self, gid):
        resolves[(id(self), gid, getattr(self.groups, "version", None))] += 1
        return owner(self, gid)

    monkeypatch.setattr(hierarchy, "split_collapse", counted_split)
    monkeypatch.setattr(tracks, "reduce_collapsed", lambda *a: rebuilt.append(a) or full(*a))
    monkeypatch.setattr(resolution.ActionTable, "_owner", counted_owner)
    rep = run_pipeline(parse_fixtures([str(path)]), "worked")
    assert rep.horizon == 64 and rep.certificate_level == 1
    assert collapses["without"] >= 64
    assert len(rebuilt) == collapses["with tracks"] >= 1
    assert resolves and max(resolves.values()) == 1


def test_worked_run_resolves_each_complex_once_per_tree(tmp_path, monkeypatch):
    """At horizon 64 the worked run hands its complexes on unchanged,
    level after level.  Each complex object is resolved, and its tracks
    drawn, at most once per tree; each tree gets one tree level for the
    run; and the class check reads the level complex without building
    class subcomplexes."""
    path = tmp_path / "worked64.txt"
    path.write_text(WORKED.read_text().replace("horizon=4 ", "horizon=64 "))

    held = []  # every counted object stays alive, so no id is reused
    resolved, drawn, tree_levels = Counter(), Counter(), Counter()
    build, draw, make = hierarchy.build_resolution, hierarchy.tracks_from_resolution, pipeline.make_tree_level

    def counted_build(x, t, actions, no_dinfty=True):
        held.append((x, t))
        resolved[(id(x), id(t))] += 1
        return build(x, t, actions, no_dinfty=no_dinfty)

    def counted_draw(res):
        held.append(res)
        drawn[(id(res.source), id(res.target))] += 1
        return draw(res)

    def counted_make(name, *args, **kwargs):
        tree_levels[name] += 1
        return make(name, *args, **kwargs)

    classing = []  # non-empty while equivalence_classes runs
    classes, sub = stability.equivalence_classes, complexes.subcomplex
    built_in_classes = []

    def counted_classes(*args, **kwargs):
        classing.append(True)
        try:
            return classes(*args, **kwargs)
        finally:
            classing.pop()

    def counted_sub(*args, **kwargs):
        if classing:
            built_in_classes.append(args[1])
        return sub(*args, **kwargs)

    monkeypatch.setattr(hierarchy, "build_resolution", counted_build)
    monkeypatch.setattr(hierarchy, "tracks_from_resolution", counted_draw)
    monkeypatch.setattr(pipeline, "make_tree_level", counted_make)
    monkeypatch.setattr(stability, "equivalence_classes", counted_classes)
    monkeypatch.setattr(complexes, "subcomplex", counted_sub)
    monkeypatch.setattr(stability, "subcomplex", counted_sub, raising=False)
    rep = run_pipeline(parse_fixtures([str(path)]), "worked")
    assert rep.horizon == 64 and rep.certificate_level == 1
    assert resolved and max(resolved.values()) == 1
    assert drawn and max(drawn.values()) == 1
    assert tree_levels and max(tree_levels.values()) == 1
    assert built_in_classes == [] and len(rep.classes) > 1
