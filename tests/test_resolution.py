import contextlib
import dataclasses
import io
from collections import Counter
from pathlib import Path

import pytest

from passdown import cli, complexes, hierarchy, resolution
from passdown.cli import main
from passdown.complexes import covolume, make_complex, validate_complex
from passdown.errors import ConsistencyError, HypothesisError, PassdownError
from passdown.fixtures import parse_fixtures
from passdown.groups import GroupRef, GroupTable
from passdown.resolution import (
    CONTRACTING,
    SPLITTING,
    ActionTable,
    build_resolution,
    contract,
    resolution_from_images,
    w_components,
)
from passdown.trees import ActionDescriptor, make_tree, reduced_path

from differential import SHAPES, built_lists, differential_test, handed_on, nest, record_built, seed1, spy
from generators import line_tree, star, triangle
from oracles import brute_components, check_resolution, crossing_partition_holds, track_sides


def std_groups():
    return GroupTable(
        [
            GroupRef("E", is_slender=True),  # elliptic label
            GroupRef("L", is_slender=True),  # linear label
            GroupRef("Esub", is_slender=True, declared_supergroups=frozenset({"E", "L"})),
        ]
    )


def linear_path(groups):
    """The path a - b - c with every cell labelled L."""
    return make_complex(["a", "b", "c"], {"ab": ("a", "b"), "bc": ("b", "c")}, {}, stab=dict.fromkeys(("a", "b", "c", "ab", "bc"), "L"), groups=groups)


def actions_for(t, groups, elliptic_at=("x1",), axis=("p", "q")):
    table = ActionTable(t, groups)
    table.declare_descriptors("E", [ActionDescriptor(kind="elliptic", fixed=frozenset(elliptic_at))])
    if axis:
        table.declare_descriptors(
            "L", [ActionDescriptor(kind="hyperbolic", ends=tuple(axis), group="L")]
        )
    return table


class TestWComponents:
    def test_no_linear_cells(self):
        t = line_tree(4, ("p", "q"))
        groups = std_groups()
        x = make_complex(["a", "b"], {"ab": ("a", "b")}, {}, stab={"a": "E", "b": "E", "ab": "Esub"}, groups=groups)
        assert w_components(x, actions_for(t, groups)) == []

    def test_single_linear_edge(self):
        t = line_tree(4, ("p", "q"))
        groups = std_groups()
        x = make_complex(
            ["a", "b"], {"ab": ("a", "b")}, {}, stab={"a": "L", "b": "L", "ab": "L"}, groups=groups
        )
        (w,) = w_components(x, actions_for(t, groups))
        assert w.cells == frozenset({"a", "b", "ab"})
        assert set(w.axis) == {"p", "q"}
        assert w.end == "p"

    def test_two_linear_edges_same_axis_one_component(self):
        t = line_tree(4, ("p", "q"))
        groups = std_groups()
        x = linear_path(groups)
        ws = w_components(x, actions_for(t, groups))
        assert len(ws) == 1
        # connected-components oracle on the linear subgraph
        comps = brute_components({"a", "b", "c"}, [("a", "b"), ("b", "c")])
        assert len(comps) == 1

    def test_linear_edge_under_elliptic_vertex_rejected(self):
        # declarations are fine (Lsub <= E) but the annotations say the edge
        # acts linearly under an elliptic vertex: annotation inconsistency
        t = line_tree(4, ("p", "q"))
        groups = std_groups()
        groups.add(GroupRef("Lsub", is_slender=True, declared_supergroups=frozenset({"E"})))
        table = actions_for(t, groups)
        table.declare_descriptors(
            "Lsub", [ActionDescriptor(kind="hyperbolic", ends=("p", "q"))]
        )
        x = make_complex(
            ["a", "b"], {"ab": ("a", "b")}, {}, stab={"a": "E", "b": "E", "ab": "Lsub"}, groups=groups
        )
        with pytest.raises(ConsistencyError):
            w_components(x, table)

    def test_dihedral_cell_contradicts_the_no_dinfty_assumption(self):
        # an edge label with a swapping axis acts dihedrally; the input is
        # always declared free of D-infinity actions, so this is malformed
        t = line_tree(4, ("p", "q"))
        groups = std_groups()
        groups.add(GroupRef("D", is_slender=True, declared_supergroups=frozenset({"L"})))
        table = actions_for(t, groups)
        table.declare_descriptors(
            "D",
            [ActionDescriptor(kind="hyperbolic", ends=("p", "q")), ActionDescriptor(kind="hyperbolic", ends=("p", "q"), swaps_ends=True)],
        )
        assert table.classification("D") == "dihedral"
        x = make_complex(["a", "b"], {"ab": ("a", "b")}, {}, stab={"a": "L", "b": "L", "ab": "D"}, groups=groups)
        for build in (lambda: w_components(x, table), lambda: build_resolution(x, t, table)):
            with pytest.raises(ConsistencyError, match="cell 'ab' classified dihedral, but no D-infinity action is ever allowed"):
                build()


class TestBuildResolution:
    def test_single_edge_maps_to_tree_edge(self):
        t = line_tree(4, ("p", "q"))
        groups = std_groups()
        table = ActionTable(t, groups)
        table.declare_descriptors("E", [ActionDescriptor(kind="elliptic", fixed=frozenset({"x1"}))])
        groups.add(GroupRef("E2", is_slender=True))
        table.declare_descriptors("E2", [ActionDescriptor(kind="elliptic", fixed=frozenset({"x2"}))])
        groups.add(GroupRef("Eboth", is_slender=True, declared_supergroups=frozenset({"E", "E2"})))
        table.declare_descriptors(
            "Eboth", [ActionDescriptor(kind="elliptic", fixed=frozenset({"x1", "x2"}))]
        )
        x = make_complex(
            ["a", "b"], {"ab": ("a", "b")}, {}, stab={"a": "E", "b": "E2", "ab": "Eboth"}, groups=groups
        )
        res = build_resolution(x, t, table)
        assert res.vertex_image == {"a": "x1", "b": "x2"}
        assert res.edge_path["ab"].vertices == ("x1", "x2")
        assert res.kind == SPLITTING

    def test_edge_inside_one_w_is_contracting(self):
        t = line_tree(4, ("p", "q"))
        groups = std_groups()
        x = make_complex(
            ["a", "b"], {"ab": ("a", "b")}, {}, stab={"a": "L", "b": "L", "ab": "L"}, groups=groups
        )
        res = build_resolution(x, t, actions_for(t, groups))
        assert res.kind == CONTRACTING
        assert res.edge_path["ab"].constant_ideal == "p"

    def test_triangle_edge_paths_match_reduced_path_oracle(self):
        t = line_tree(4, ("p", "q"))
        groups = std_groups()
        table = ActionTable(t, groups)
        for gid, fix in (("Ga", "x0"), ("Gb", "x1"), ("Gc", "x3")):
            groups.add(GroupRef(gid, is_slender=True))
            table.declare_descriptors(gid, [ActionDescriptor(kind="elliptic", fixed=frozenset({fix}))])
        groups.add(
            GroupRef("Gall", is_slender=True, declared_supergroups=frozenset({"Ga", "Gb", "Gc"}))
        )
        table.declare_descriptors(
            "Gall", [ActionDescriptor(kind="elliptic", fixed=frozenset({"x0", "x1", "x2", "x3"}))]
        )
        x = triangle(
            stab={
                "a": "Ga",
                "b": "Gb",
                "c": "Gc",
                "ab": "Gall",
                "bc": "Gall",
                "ac": "Gall",
                "f": "Gall",
            },
            groups=groups,
        )
        res = build_resolution(x, t, table)
        for eid, (u, v) in x.edges.items():
            assert res.edge_path[eid] == reduced_path(t, res.vertex_image[u], res.vertex_image[v])

    def test_determinism(self):
        t = line_tree(4, ("p", "q"))
        groups = std_groups()
        x = make_complex(
            ["a", "b"], {"ab": ("a", "b")}, {}, stab={"a": "L", "b": "E", "ab": "Esub"}, groups=groups
        )
        r1 = build_resolution(x, t, actions_for(t, groups))
        r2 = build_resolution(x, t, actions_for(t, std_groups()))
        assert r1.vertex_image == r2.vertex_image
        assert r1.edge_path == r2.edge_path

    def test_sym_through_vertex_for_double_ideal_edge(self):
        t = line_tree(4, ("p", "q"))
        groups = std_groups()
        groups.add(GroupRef("L2", is_slender=True))
        table = actions_for(t, groups, elliptic_at=("x2",))
        # second linear label on a different line: tree needs another leg
        verts = ["x0", "x1", "x2", "x3", "y"]
        edges = {"f0": ("x0", "x1"), "f1": ("x1", "x2"), "f2": ("x2", "x3"), "g": ("x1", "y")}
        ideal = {"p": ("x1", "x0"), "q": ("x2", "x3"), "r": ("x1", "y")}
        t2 = make_tree(verts, edges, ideal)
        table = ActionTable(t2, groups)
        table.declare_descriptors("E", [ActionDescriptor(kind="elliptic", fixed=frozenset({"x2"}))])
        table.declare_descriptors("L", [ActionDescriptor(kind="hyperbolic", ends=("p", "q"))])
        table.declare_descriptors("L2", [ActionDescriptor(kind="hyperbolic", ends=("q", "r"))])
        groups.add(GroupRef("Eedge", is_slender=True, declared_supergroups=frozenset({"L", "L2", "E"})))
        table.declare_descriptors("Eedge", [ActionDescriptor(kind="elliptic", fixed=frozenset({"x2"}))])
        x = make_complex(
            ["a", "b"], {"ab": ("a", "b")}, {}, stab={"a": "L", "b": "L2", "ab": "Eedge"}, groups=groups
        )
        res = build_resolution(x, t2, table)
        assert res.kind == SPLITTING
        # a maps to an end of (p,q), b to an end of (p,r); both ideal
        assert res.image_is_ideal("a") and res.image_is_ideal("b")
        assert res.edge_path["ab"].constant_ideal is None

    def test_edge_between_two_ends_must_fix_a_tree_vertex(self):
        groups = std_groups()
        groups.add(GroupRef("L2", is_slender=True))
        groups.add(GroupRef("Epar", is_slender=True, declared_supergroups=frozenset({"L", "L2"})))
        verts = ["x0", "x1", "x2", "x3", "y"]
        edges = {"f0": ("x0", "x1"), "f1": ("x1", "x2"), "f2": ("x2", "x3"), "g": ("x1", "y")}
        ideal = {"p": ("x1", "x0"), "q": ("x2", "x3"), "r": ("x1", "y")}
        t = make_tree(verts, edges, ideal)
        table = ActionTable(t, groups)
        table.declare_descriptors("L", [ActionDescriptor(kind="hyperbolic", ends=("p", "q"))])
        table.declare_descriptors("L2", [ActionDescriptor(kind="hyperbolic", ends=("q", "r"))])
        table.declare_parabolic("Epar", "q")
        x = make_complex(
            ["a", "b"], {"ab": ("a", "b")}, {}, stab={"a": "L", "b": "L2", "ab": "Epar"}, groups=groups
        )
        with pytest.raises(ConsistencyError, match="runs between two ends"):
            build_resolution(x, t, table)

    def test_hyperbolic_cell_rejected(self):
        t = star("a", "b", "u", "v")
        groups = GroupTable([GroupRef("H")])
        table = ActionTable(t, groups)
        table.declare_descriptors(
            "H",
            [
                ActionDescriptor(kind="hyperbolic", ends=("pa", "pb")),
                ActionDescriptor(kind="hyperbolic", ends=("pu", "pv")),
            ],
        )
        x = make_complex(["a"], {}, {}, stab={"a": "H"}, groups=groups)
        with pytest.raises(HypothesisError):
            build_resolution(x, t, table)


class TestContract:
    """``contract`` on hand-built strips and paths, and on generated
    contracting resolutions against the contraction built by definition
    (``oracles.contract_by_construction``)."""

    test_generated_contractions_match_the_construction = differential_test("contraction")

    def strip(self, groups):
        # two triangles sharing edge [u,v]; u,v linear on one line
        return make_complex(
            ["u", "v", "a", "b"],
            {
                "uv": ("u", "v"),
                "ua": ("u", "a"),
                "va": ("v", "a"),
                "ub": ("u", "b"),
                "vb": ("v", "b"),
            },
            {"t1": ("uv", "ua", "va"), "t2": ("uv", "ub", "vb")},
            stab={"u": "L", "v": "L", "uv": "L", "a": "E", "b": "E", "ua": "Esub", "va": "Esub", "ub": "Esub", "vb": "Esub", "t1": "Esub", "t2": "Esub"},
            groups=groups,
        )

    def test_two_triangle_collapse(self):
        t = line_tree(4, ("p", "q"))
        groups = std_groups()
        x = self.strip(groups)
        res = build_resolution(x, t, actions_for(t, groups))
        assert res.kind == CONTRACTING
        xc, descended, frag = contract(res, groups)
        # u,v merged: each triangle becomes a bigon, reduced to an edge
        assert len(xc.vertices) == 3
        assert not xc.faces
        assert covolume(xc) <= covolume(x)
        assert descended.kind == SPLITTING
        assert frag.triangle_map == {"t1": None, "t2": None}

    def test_singleton_components_relabel_identity(self):
        # one linear vertex (isolated in the boundary preimage) plus a
        # genuine contracted edge elsewhere
        t = line_tree(4, ("p", "q"))
        groups = std_groups()
        x = make_complex(
            ["w", "u", "v"],
            {"uv": ("u", "v")},
            {},
            stab={"w": "L", "u": "L", "v": "L", "uv": "L"},
            groups=groups,
        )
        res = build_resolution(x, t, actions_for(t, groups))
        xc, descended, _ = contract(res, groups)
        assert "w" in xc.vertices
        assert xc.stab["w"] == "L"
        assert descended.vertex_image["w"] == "p"

    def test_component_of_three_vertices_two_edges(self):
        t = line_tree(4, ("p", "q"))
        groups = std_groups()
        x = linear_path(groups)
        res = build_resolution(x, t, actions_for(t, groups))
        xc, _, _ = contract(res, groups)
        assert len(xc.vertices) == 1
        (v,) = xc.vertices
        assert groups.slender(xc.stab[v])

    def test_a_contraction_builds_x_c_in_one_pass(self, capsys):
        """Each contraction, of the committed contracting fixture (by the
        ``contract``, ``passdown`` and ``pipeline`` commands) and of the
        ``contraction`` row's cases, builds X_C in one call of the quotient
        step, or none when it refuses: no complex is built whole to be
        validated, reduced or declared over (the quotient step declares
        the containments of a complex it mints a class label for)."""
        steps = ("canonical_complex", "validate_complex", "_validate_cells", "reduce_with_map", "declare_containments")
        counts, inside, made = Counter(), Counter(), []

        def contracting(fn):
            def wrapper(res, groups):
                inside["contract"] += 1
                start, done = Counter(counts), False
                try:
                    out, done = fn(res, groups), True
                    return out
                finally:
                    inside["contract"] -= 1
                    made.append((done, counts - start))

            return wrapper

        def counted(frame, *args):
            return bool(inside["contract"]) and not inside["canonical_complex"]

        with pytest.MonkeyPatch.context() as m:
            for owner in (resolution, hierarchy, cli):
                m.setattr(owner, "contract", contracting(owner.contract))
            for owner in (complexes, resolution):
                for name in steps:
                    if hasattr(owner, name):
                        if name == "canonical_complex":
                            nest(m, inside, owner, name)
                        spy(m, counts, owner, name, **{name: counted})
            path = str(FIXTURES / "contracting.txt")
            for argv in (
                ["contract", path, "--complex", "XC", "--tree", "TL"],
                ["passdown", path, "--structure", "SC", "--tree", "TL"],
                ["pipeline", path, "--name", "contracting"],
            ):
                assert main(argv) == 0
            capsys.readouterr()
            assert len(made) == 3
            for shape in ("cell", "tree", "glued", "strip", "doubled"):
                cases, _pins = SHAPES["contraction", shape]
                for res, groups in cases():
                    if res is not None:
                        with contextlib.suppress(PassdownError):
                            resolution.contract(res, groups.copy())
        assert sum(done for done, _calls in made) > 150 and not all(done for done, _calls in made)
        for done, calls in made:
            assert calls == (Counter(canonical_complex=1) if done else Counter())

    def test_rejects_splitting_input(self):
        t = line_tree(4, ("p", "q"))
        groups = std_groups()
        x = make_complex(["a"], {}, {}, stab={"a": "E"}, groups=groups)
        res = build_resolution(x, t, actions_for(t, groups))
        with pytest.raises(HypothesisError):
            contract(res, groups)


class TestActionTableMemo:
    """``ActionTable.resolved`` is kept per group id, and follows every
    change of the group table or of the annotations."""

    def setup_table(self):
        t = line_tree(4)
        groups = GroupTable(
            [GroupRef("A"), GroupRef("Z"), GroupRef("C", declared_supergroups=frozenset({"Z"}))]
        )
        table = ActionTable(t, groups)
        table.declare_descriptors("A", [ActionDescriptor(kind="elliptic", fixed=frozenset({"x0"}))])
        table.declare_descriptors("Z", [ActionDescriptor(kind="elliptic", fixed=frozenset({"x3"}))])
        return groups, table

    def test_a_later_containment_changes_the_owner(self):
        groups, table = self.setup_table()
        assert table.resolved("C").fixed == frozenset({"x3"})  # inherited from Z
        assert table.resolved("C") is table.resolved("C")
        # A is now a parent too, and the smaller id wins among nearest owners
        groups.declare_leq("C", "A")
        assert table.resolved("C").fixed == frozenset({"x0"})

    def test_a_later_annotation_takes_over(self):
        groups, table = self.setup_table()
        assert table.resolved("C").fixed == frozenset({"x3"})
        table.declare_descriptors("C", [ActionDescriptor(kind="elliptic", fixed=frozenset({"x1", "x2"}))])
        assert table.resolved("C").fixed == frozenset({"x1", "x2"})

    def test_a_later_parabolic_end_takes_over(self):
        t = line_tree(4, ("p", "q"))
        table = ActionTable(t, GroupTable([GroupRef("P")]))
        table.declare_descriptors("P", [ActionDescriptor(kind="elliptic", fixed=frozenset({"x1"}))])
        assert table.classification("P") == "elliptic"
        table.declare_parabolic("P", "p")
        assert table.resolved("P").kind == "parabolic" and table.resolved("P").end == "p"

    def test_a_copy_of_the_group_table_is_a_separate_table(self):
        groups, table = self.setup_table()
        assert table.resolved("C").fixed == frozenset({"x3"})
        copy = groups.copy()
        copy.declare_leq("C", "A")
        assert table.resolved("C").fixed == frozenset({"x3"})
        assert table.over(copy).resolved("C").fixed == frozenset({"x0"})


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def _commands(path):
    """Every ``pipeline`` and ``passdown`` command of one fixture file."""
    fx = parse_fixtures([str(path)])
    return [["pipeline", str(path), "--name", name] for name in sorted(fx.pipelines)] + [
        ["passdown", str(path), "--structure", s, "--tree", t] for s in sorted(fx.structures) for t in sorted(fx.trees)
    ]


class TestBuiltResolutions:
    """Every resolution that ``passdown_full`` builds or restricts on the
    committed fixtures and in the recorded seed-1 ``surgery`` and ``size``
    runs (whose bead chains split at cutpoints), checked against the
    definitions the constructor does not recheck; with them every complex
    a collapse builds or reduces as it is, every reduction and cutpoint
    piece, each with a copy of the group table as it was then, and every
    track system drawn and kept essential."""

    @pytest.fixture(scope="class")
    def built(self):
        built = built_lists()
        with pytest.MonkeyPatch.context() as mp:
            record_built(mp, built)
            for path in sorted(FIXTURES.glob("*.txt")):
                for argv in _commands(path):
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                        main(argv)
        for workload in ("surgery", "size"):
            for name, items in vars(seed1(workload).built).items():
                getattr(built, name).extend(items)
        return built

    def test_each_resolution_is_reduced_and_of_its_kind(self, built):
        assert {res.kind for res in built.made} == {SPLITTING, CONTRACTING}
        for res in built.made + [piece for _res, _sub, piece in built.restricted]:
            check_resolution(res)

    def test_a_restriction_is_the_resolution_of_the_piece_images(self, built):
        assert built.restricted
        for res, sub_x, piece in built.restricted:
            images = {v: res.vertex_image[v] for v in sub_x.vertices}
            assert piece == resolution_from_images(sub_x, res.target, images, actions=res.actions)

    def test_track_sides_are_the_complement_components(self, built):
        assert any(ts.tracks for ts in built.track_systems)
        for ts in built.track_systems:
            res = ts.resolution
            infinite = res.ideal_vertices() | res.source.boundary_marked
            for tr in ts.tracks:
                sides = track_sides(res.source, tr)
                assert tr.side_infinite == tuple(bool(side & infinite) for side in sides)
                assert tr.separates == (len(sides) == 2)

    def test_each_built_complex_is_valid_over_the_run_table(self, built):
        """The oracle of the checks a collapse leaves out: the X_T that a
        collapse of tracks builds in one pass, every complex a contraction
        builds, and every complex a collapse reduces as it is, unvalidated
        there, is valid over the table of the run, its faces of one orbit
        of one shape included, as the reader asks of a complex it reads.  A
        fresh copy is validated, so that its label check is derived, not
        handed on; what each complex was handed equals a fresh
        derivation."""
        kinds = {"collapsed", "contracted", "uncollapsed", "reduced", "piece"}
        assert {kind for kind, _x, _groups in built.complexes} == kinds
        for _kind, x, groups in built.complexes:
            validate_complex(dataclasses.replace(x), groups)
            handed_on(x, {"skeleton_blocks"})

    def test_each_track_system_keeps_the_crossing_partition(self, built):
        assert any(ts.tracks for ts in built.track_systems)
        for ts in built.track_systems:
            assert crossing_partition_holds(ts)


def test_the_resolution_oracle_refuses_an_orbit_sent_to_two_tree_orbits():
    """The vertices a and c of orbit o go to x0 and x1: the constructor
    checks no orbit and builds it, and the oracle refuses it unless x0 and
    x1 are one tree orbit."""
    x = make_complex(["a", "b", "c"], {"ab": ("a", "b"), "bc": ("b", "c")}, {}, orbit={"a": "o", "c": "o"})
    images = {"a": "x0", "b": "x0", "c": "x1"}
    with pytest.raises(AssertionError, match="vertices of orbit 'o' map to different target orbits"):
        check_resolution(resolution_from_images(x, line_tree(2), images))
    one_orbit = make_tree(["x0", "x1"], {"f0": ("x0", "x1")}, orbit={"x0": "t", "x1": "t"})
    check_resolution(resolution_from_images(x, one_orbit, images))
