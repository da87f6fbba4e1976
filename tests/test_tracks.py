import dataclasses
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from passdown import complexes, graphs, hierarchy, pipeline, resolution, stability, tracks
from passdown.complexes import Complex2, covolume, cutpoints, h1_z2, is_connected, make_complex, reduce_complex
from passdown.errors import FixtureError, HypothesisError, TruncationError
from passdown.fixtures import parse_fixtures, parse_text
from passdown.groups import GroupRef, GroupTable
from passdown.hierarchy import make_tree_level, passdown_full
from passdown.pipeline import run_pipeline
from passdown.provenance import TauFragment
from passdown.resolution import ActionTable, resolution_from_images
from passdown.tracks import essential_tracks, split_collapse, tracks_from_resolution
from passdown.trees import make_tree

from bench_ops import workloads
from generators import random_labelled_complex, random_strip_chain
from oracles import (
    collapse_by_construction,
    expand_renamings,
    identity_fragment,
    identity_step_oracle,
    track_sides,
    tracks_by_walk,
    vertex_fate,
)


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
        x = make_complex(
            ["a", "b", "c"],
            {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")},
            {"f": ("ab", "bc", "ac")},
        )
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
        reversed_ts = type(ts)(resolution=ts.resolution, tracks=tuple(reversed(ts.tracks)))
        xt2, _ = split_collapse(reversed_ts, GroupTable())
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

    def test_boundary_preimage_removed(self):
        t = line_tree(3, ideals=("p",))  # ray toward x0
        x = make_complex(
            ["a", "b", "c"],
            {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")},
            {"f": ("ab", "bc", "ac")},
            boundary_marked=["b", "c"],
        )
        res = resolution_from_images(x, t, {"a": "p", "b": "x2", "c": "x2"})
        ts = essential_tracks(tracks_from_resolution(res))
        xt, frag = split_collapse(ts, GroupTable())
        assert "a" not in xt.vertices
        assert vertex_fate(res, "a") is None
        assert all((vertex_fate(res, v) is None) == (v not in xt.vertices) for v in x.vertices)
        assert covolume(xt) == 1  # central triangle survives
        assert is_connected(xt) and h1_z2(xt) == 0


def test_fragment_composition_associative():
    x = make_complex(
        ["a", "b", "c"],
        {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")},
        {"f": ("ab", "bc", "ac")},
    )
    ident = identity_fragment(x)
    drop = TauFragment(triangle_map={"f": None}, edge_map={})
    left = ident.compose(ident).compose(drop)
    right = ident.compose(ident.compose(drop))
    assert left.triangle_map == right.triangle_map
    assert left.edge_map == right.edge_map


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


class TestIdentityCollapse:
    """A level over a one-vertex tree hands reduced, cutpoint-free
    complexes whose labels all act elliptically on as they are: the
    identity step of ``passdown_full``.  Its general path, forced by
    reading no complex as reduced, is the oracle."""

    @staticmethod
    def point_level(groups, ideal_points=None):
        tree = make_tree(["p"], {}, ideal_points)
        return make_tree_level("P", tree, ActionTable(tree, groups))

    @staticmethod
    def elliptic_labels(groups):
        """The same order with every group H-elliptic, so that every cell
        label passes the terminal check."""
        return GroupTable(dataclasses.replace(groups[gid], is_h_elliptic=True) for gid in sorted(groups.ids()))

    @staticmethod
    def handed_on(result, terminals):
        """Everything a passdown hands on, with cell dicts in stored order
        and the renamings of an identity step written out face by face
        (tau as maps: the general path lists faces piece by piece)."""

        def cells(x):
            plus = {eid: x.edge_stab_plus(eid) for eid in x.edges}
            return sorted(x.vertices), list(x.edges.items()), list(x.faces.items()), x.stab, x.orbit, x.boundary_marked, plus

        received = [(v, [(tid, gid, cells(x)) for tid, (gid, x) in got.items()]) for v, got in result.terminals.items()]
        tau = expand_renamings(result.tau, {nid: x for nid, (_gid, x) in terminals.items()})
        return received, list(result.ledger.items()), tau.triangle_map, tau.edge_map

    def assert_matches_oracle(self, terminals, groups, ideal_points=None):
        fast_groups, full_groups = groups.copy(), groups.copy()
        fast = passdown_full(terminals, self.point_level(fast_groups, ideal_points))
        full = identity_step_oracle(terminals, self.point_level(full_groups, ideal_points))
        assert not full.tau.renamed
        assert self.handed_on(fast, terminals) == self.handed_on(full, terminals)
        # no ref minted and no containment declared that the identity step skips
        assert fast_groups._mint_counter == full_groups._mint_counter
        assert fast_groups._up == full_groups._up
        # the identity step hands on the very input complexes; the general
        # path hands on none of them
        inputs = {id(x) for _gid, x in terminals.values()}
        outputs = {id(x) for got in fast.terminals.values() for _gid, x in got.values()}
        if all(x.is_reduced and not cutpoints(x) for _gid, x in terminals.values()):
            assert outputs == inputs
            assert fast.tau.renamed.keys() == terminals.keys() and not fast.tau.triangle_map
        else:
            assert not outputs & inputs
        return fast

    @pytest.mark.parametrize("shape", ["simplicial", "cell", "tree", "glued"])
    @pytest.mark.parametrize("seed", range(15))
    def test_shortcut_matches_the_full_path(self, seed, shape):
        x, groups = random_labelled_complex(random.Random(seed), shape)
        groups = self.elliptic_labels(groups)
        reduced = reduce_complex(x, groups)
        assert reduced.is_reduced
        # the generated complex itself, usually not reduced, then its
        # reduction, then both at once; a disconnected complex or one with
        # h1 != 0 fails the terminal check on both paths alike
        ys = (x, reduced) if x.is_simplicial() else (reduced,)
        valid = []
        for y in ys:
            if is_connected(y) and h1_z2(y) == 0:
                valid.append(y)
                self.assert_matches_oracle({"r": ("1", y)}, groups)
                continue
            for passdown in (passdown_full, identity_step_oracle):
                with pytest.raises(FixtureError, match="is disconnected|has h1 != 0"):
                    passdown({"r": ("1", y)}, self.point_level(groups.copy()))
        if len(valid) == 2:
            self.assert_matches_oracle({"r0": ("V1", valid[0]), "r1": ("1", valid[1])}, groups)

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
        ((_gid, xt),) = self.assert_matches_oracle({"r": ("1", x)}, groups).terminals["p"].values()
        assert xt is not x and xt.is_reduced
        assert list(xt.edges.items()) == [
            ("ab", ("a", "b")), ("ac", ("a", "c")), ("bc", ("b", "c")), ("bd", ("b", "d")), ("cd", ("c", "d"))
        ]
        assert list(xt.faces.items()) == [("t1", ("ab", "bc", "ac")), ("t2", ("bc", "cd", "bd"))]
        assert self.assert_matches_oracle({"r": ("1", xt)}, groups).terminals["p"]["p.root"][1] is xt
        rebuilt = []
        full = tracks.finish_collapse
        monkeypatch.setattr(tracks, "finish_collapse", lambda *a: rebuilt.append(a[1]) or full(*a))
        for y in (x, xt):
            passdown_full({"r": ("1", y)}, self.point_level(groups.copy()))
        assert len(rebuilt) == 1 and rebuilt[0].faces.keys() == x.faces.keys()

    def test_a_kept_identity_step_rechecks_the_oriented_labels(self):
        # a relabelling shares the terminal signature of the complex it
        # came from; with no oriented label on its edges it is not
        # reduced, so the identity step kept for that signature does not
        # apply and the general path runs, as on a fresh tree level
        groups = GroupTable()
        triangle = make_complex(
            ["a", "b", "c"], {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")}, {"f": ("ab", "bc", "ac")}
        )
        x = reduce_complex(triangle, groups)
        tl = self.point_level(groups)
        assert passdown_full({"r": ("1", x)}, tl).terminals["p"]["p.root"][1] is x
        y = x.relabel({})
        assert not y.is_reduced
        full = identity_step_oracle({"r": ("1", y)}, self.point_level(groups.copy()))
        kept = passdown_full({"r": ("1", y)}, tl)
        assert len(tl.identity_steps) == 1
        assert kept.terminals["p"]["p.root"][1] is not y
        assert self.handed_on(kept, {"r": ("1", y)}) == self.handed_on(full, {"r": ("1", y)})

    def test_an_ideal_vertex_takes_the_full_path(self):
        # a reduced triangle over a point tree with one ideal point: with
        # every label fixing the tree vertex, no vertex reaches the ideal
        # point and the level is an identity step
        triangle = make_complex(
            ["a", "b", "c"], {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")}, {"f": ("ab", "bc", "ac")}
        )
        x = reduce_complex(triangle, GroupTable())
        result = self.assert_matches_oracle({"r": ("1", x)}, GroupTable(), ideal_points={"q": ("p",)})
        assert result.terminals["p"]["p.root"][1] is x
        # with vertex a's label fixing the ideal point and no track to cut
        # a off, the general path runs, and its collapse reports the
        # truncation
        groups = GroupTable([GroupRef("Pa", is_slender=True)])
        x = reduce_complex(
            make_complex(
                ["a", "b", "c"],
                {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")},
                {"f": ("ab", "bc", "ac")},
                stab={"a": "Pa"},
                groups=groups,
            ),
            groups,
        )
        assert x.is_reduced and not cutpoints(x)
        tl = self.point_level(groups, ideal_points={"q": ("p",)})
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

    @staticmethod
    def fields(x):
        return (
            x.vertices, list(x.edges.items()), list(x.faces.items()), list(x.stab.items()),
            list(x.orbit.items()), x.boundary_marked, list(x.stab_plus.items()),
        )

    @staticmethod
    def trees():
        """A point tree, one with an ideal point no vertex reaches, and a
        path that every vertex maps to one end of."""
        yield make_tree(["p"], {}), "p"
        yield make_tree(["p"], {}, {"q": ("p",)}), "p"
        yield line_tree(3), "x0"

    def assert_matches(self, x, groups):
        for tree, vertex in self.trees():
            res = resolution_from_images(x, tree, dict.fromkeys(x.vertices, vertex))
            ts = tracks_from_resolution(res)
            assert ts == tracks_by_walk(res) and not ts.tracks and not res.ideal_vertices()
            fast_groups, full_groups = groups.copy(), groups.copy()
            fast, fast_frag = split_collapse(ts, fast_groups)
            full, full_frag = collapse_by_construction(ts, full_groups)
            assert self.fields(fast) == self.fields(full)
            for name in ("triangle_map", "edge_map", "track_point", "renamed"):
                assert list(getattr(fast_frag, name).items()) == list(getattr(full_frag, name).items())
            assert fast_groups.version == full_groups.version
            assert fast_groups._mint_counter == full_groups._mint_counter and fast_groups._up == full_groups._up

    @pytest.mark.parametrize("shape", ["strip", "doubled", "simplicial", "glued", "tree"])
    def test_the_shortcut_matches_the_construction(self, shape):
        rng = random.Random(20261025)
        for _ in range(40):
            x, groups = random_labelled_complex(rng, shape)
            if not x.is_simplicial():
                # a complex with parallel edges or bigons has no tracks, on
                # either path; its reduction is collapsed in its place
                res = resolution_from_images(x, make_tree(["p"], {}), dict.fromkeys(x.vertices, "p"))
                for extract in (tracks_from_resolution, tracks_by_walk):
                    with pytest.raises(FixtureError, match="needs a simplicial complex"):
                        extract(res)
                x = reduce_complex(x, groups)
            self.assert_matches(x, groups)

    def test_a_tree_with_no_edge_refuses_what_the_walk_refuses(self):
        x = random_strip_chain(random.Random(5))
        res = resolution_from_images(x, make_tree(["p"], {}), dict.fromkeys(x.vertices, "p"))
        contracting = dataclasses.replace(res, kind=resolution.CONTRACTING)
        for extract in (tracks_from_resolution, tracks_by_walk):
            with pytest.raises(HypothesisError, match="splitting"):
                extract(contracting)

    def test_size_ops_collapse_over_point_trees_without_a_rebuild(self, monkeypatch):
        """Every collapse of the seed-1 size ops is over a one-vertex tree
        and builds one complex, its reduction; no edge crossing is looked
        up, by the track extraction or the collapse; the reduction hands
        on the incidence and cutpoints, so the ops call ``graphs.blocks``
        and ``complexes._grouped`` no more than they need."""
        calls = Counter()
        inside = []
        blocks, grouped, init, collapse = graphs.blocks, complexes._grouped, Complex2.__init__, hierarchy.split_collapse

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def counted_init(self, *args, **kwargs):
            if inside:
                calls["built in a collapse"] += 1
            return init(self, *args, **kwargs)

        def counted_collapse(ts, groups):
            assert not ts.resolution.target.edges
            calls["collapses"] += 1
            inside.append(ts)
            try:
                return collapse(ts, groups)
            finally:
                inside.pop()

        monkeypatch.setattr(resolution.Resolution, "crossings", counted("crossings", resolution.Resolution.crossings))
        monkeypatch.setattr(graphs, "blocks", counted("blocks", blocks))
        monkeypatch.setattr(complexes, "_grouped", counted("grouped", grouped))
        monkeypatch.setattr(Complex2, "__init__", counted_init)
        monkeypatch.setattr(hierarchy, "split_collapse", counted_collapse)
        for op in workloads.generate("size", 1):
            rep = run_pipeline(parse_text(op.text), op.pipeline)
            assert rep.certificate_level == op.expected.cert_level is not None
        assert calls["collapses"] == calls["built in a collapse"] == 45
        assert calls["crossings"] == 0 and calls["blocks"] <= 180 and calls["grouped"] <= 240


WORKED = Path(__file__).resolve().parents[1] / "fixtures" / "worked_terminating.txt"


def test_worked_run_rebuilds_only_levels_with_tracks(tmp_path, monkeypatch):
    """At horizon 64 the worked run collapses tracks only at its first
    level; every later level is a point tree and an identity step.  Only
    the first level resolves, collapses and rebuilds its complexes, and
    each action table resolves a group id at most once per version of its
    group table."""
    text = WORKED.read_text()
    assert "horizon=4 " in text
    path = tmp_path / "worked64.txt"
    path.write_text(text.replace("horizon=4 ", "horizon=64 "))

    resolved = []
    build = hierarchy.build_resolution
    collapses = Counter()
    split = hierarchy.split_collapse

    def counted_split(ts, groups):
        collapses["with tracks" if ts.tracks else "without"] += 1
        return split(ts, groups)

    rebuilt = []
    full = tracks.finish_collapse
    resolves = Counter()
    owner = resolution.ActionTable._owner

    def counted_owner(self, gid):
        resolves[(id(self), gid, getattr(self.groups, "version", None))] += 1
        return owner(self, gid)

    monkeypatch.setattr(hierarchy, "build_resolution", lambda x, *a, **kw: resolved.append(x) or build(x, *a, **kw))
    monkeypatch.setattr(hierarchy, "split_collapse", counted_split)
    monkeypatch.setattr(tracks, "finish_collapse", lambda *a: rebuilt.append(a) or full(*a))
    monkeypatch.setattr(resolution.ActionTable, "_owner", counted_owner)
    rep = run_pipeline(parse_fixtures([str(path)]), "worked")
    assert rep.horizon == 64 and rep.certificate_level == 1
    first = {id(x) for x in rep.run.levels[0].complexes.values()}
    assert resolved and {id(x) for x in resolved} <= first
    assert collapses["without"] == 0
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

    def counted_build(x, t, actions):
        held.append((x, t))
        resolved[(id(x), id(t))] += 1
        return build(x, t, actions)

    def counted_draw(res):
        held.append(res)
        drawn[(id(res.source), id(res.target))] += 1
        return draw(res)

    def counted_make(name, *args, **kwargs):
        tree_levels[name] += 1
        return make(name, *args, **kwargs)

    classing = []  # non-empty while a class record is built
    classes, sub = stability.classes_of_complex, complexes.subcomplex
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
    monkeypatch.setattr(stability, "classes_of_complex", counted_classes)
    monkeypatch.setattr(complexes, "subcomplex", counted_sub)
    monkeypatch.setattr(stability, "subcomplex", counted_sub, raising=False)
    rep = run_pipeline(parse_fixtures([str(path)]), "worked")
    assert rep.horizon == 64 and rep.certificate_level == 1
    assert resolved and max(resolved.values()) == 1
    assert drawn and max(drawn.values()) == 1
    assert tree_levels and max(tree_levels.values()) == 1
    assert built_in_classes == [] and len(rep.classes) > 1


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
