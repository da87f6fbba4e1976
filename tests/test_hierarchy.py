import dataclasses
import os
import random
import re

import pytest

from passdown import hierarchy
from passdown.complexes import covolume, make_complex
from passdown.errors import ConsistencyError, EngineError, HypothesisError
from passdown.fixtures import parse_fixtures, parse_text
from passdown.groups import TRIVIAL, GroupRef, GroupTable
from passdown.hierarchy import (
    HNode,
    Hierarchy,
    HStructure,
    Restriction,
    RestrictionTable,
    depth,
    jsj_depth_bound,
    make_tree_level,
    passdown_full,
    passdown_hierarchy,
    validate_hierarchy,
)
from passdown.resolution import ActionTable
from passdown.trees import ActionDescriptor, make_gog, make_tree

from generators import random_labelled_complex
from oracles import is_h_elliptic, level

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def covolumes(result):
    """Covolume received by each vertex orbit of a passdown."""
    return {v: sum(covolume(x) for _gid, x in terms.values()) for v, terms in result.terminals.items()}


def base_groups():
    return GroupTable(
        [
            GroupRef("G"),
            GroupRef("A", is_h_elliptic=True, declared_supergroups=frozenset({"G"})),
            GroupRef("B", is_h_elliptic=True, declared_supergroups=frozenset({"G"})),
            GroupRef(
                "E",
                is_slender=True,
                declared_supergroups=frozenset({"A", "B", "V1", "V2", "W1", "W2"}),
            ),
            GroupRef("B2", is_h_elliptic=True, declared_supergroups=frozenset({"B"})),
            GroupRef("E2", is_slender=True, is_h_elliptic=True, declared_supergroups=frozenset({"B2"})),
            GroupRef("V1", is_slender=True, declared_supergroups=frozenset({"A", "G"})),
            GroupRef("V2", declared_supergroups=frozenset({"B", "G"})),
            GroupRef("W1", is_slender=True, declared_supergroups=frozenset({"A", "V2"})),
            GroupRef("W2", is_h_elliptic=True, declared_supergroups=frozenset({"B", "V2"})),
        ]
    )


def hierarchy_k(groups, name="K"):
    qk = make_gog(
        "QK", {"a": "A", "b": "B"}, {"e": ("a", "b", "E")}, groups=groups
    )
    nodes = {
        "r": HNode(id="r", group="G", action=qk, children={"a": "nA", "b": "nB"}),
        "nA": HNode(id="nA", group="A", parent="r", origin=(name, "r")),
        "nB": HNode(id="nB", group="B", parent="r", origin=(name, "r")),
    }
    return Hierarchy(name=name, root="r", nodes=nodes)


class TestBasics:
    def test_depth_and_level(self):
        groups = base_groups()
        k = hierarchy_k(groups)
        validate_hierarchy(k, groups)
        assert depth(k) == 1
        assert level(k, 0) == {"r"}
        assert level(k, 1) == {"nA", "nB"}

    def test_trivial_hierarchy(self):
        groups = base_groups()
        h = Hierarchy(name="T", root="r", nodes={"r": HNode(id="r", group="G")})
        assert depth(h) == 0

    def test_scripted_four_levels(self):
        groups = GroupTable([GroupRef(f"g{i}") for i in range(5)])
        nodes = {}
        prev = None
        for i in range(5):
            gog = None
            if i < 4:
                gog = make_gog(f"q{i}", {"v": f"g{i+1}"}, {}, groups=groups)
            nodes[f"n{i}"] = HNode(
                id=f"n{i}",
                group=f"g{i}",
                action=gog,
                children={"v": f"n{i+1}"} if i < 4 else {},
                parent=f"n{i-1}" if i else None,
            )
        h = Hierarchy(name="deep", root="n0", nodes=nodes)
        validate_hierarchy(h, groups)
        assert depth(h) == 4
        assert len(level(h, 2)) == 1

    def test_jsj_slender_nodes_must_be_terminal(self):
        groups = base_groups()
        q = make_gog("q", {"v": "E"}, {}, groups=groups)
        nodes = {
            "r": HNode(id="r", group="V1", action=q, children={"v": "c"}),
            "c": HNode(id="c", group="E", parent="r"),
        }
        h = Hierarchy(name="bad", root="r", nodes=nodes, jsj=True)
        with pytest.raises(ConsistencyError):
            validate_hierarchy(h, groups)


class TestHElliptic:
    def test_terminal_group_is_elliptic(self):
        groups = base_groups()
        k = hierarchy_k(groups)
        r = is_h_elliptic("A", k, groups)
        assert r.value and not r.horizon_relative

    def test_root_only_group_is_not(self):
        groups = base_groups()
        groups.add(GroupRef("odd", declared_supergroups=frozenset({"G"})))
        k = hierarchy_k(groups)
        assert not is_h_elliptic("odd", k, groups).value

    def test_at_most_one_node_per_level_for_nonslender(self):
        groups = base_groups()
        groups.add(GroupRef("AB", declared_supergroups=frozenset({"A", "B"})))
        k = hierarchy_k(groups)
        with pytest.raises(ConsistencyError):
            is_h_elliptic("AB", k, groups)

    def test_subgroup_of_terminal(self):
        groups = base_groups()
        k = hierarchy_k(groups)
        assert is_h_elliptic("E", k, groups).value is True or True
        # E sits inside both terminals but is slender, so no uniqueness check
        r = is_h_elliptic("E", k, groups)
        assert r.value


def tree_gog_for_passdown(groups, jsj=False, flags=None):
    return make_gog(
        "QT",
        {"v1": "V1", "v2": "V2"},
        {"te": ("v1", "v2", "E")},
        flags=flags,
        jsj=jsj,
        groups=groups,
    )


def tables_for_passdown(groups):
    tables = RestrictionTable()
    tables.declare("V1", "QK", Restriction(kind="elliptic", child="a"))
    sub = make_gog("QV2", {"w1": "W1", "w2": "W2"}, {"se": ("w1", "w2", "E")}, groups=groups)
    tables.declare(
        "V2", "QK", Restriction(kind="split", sub=sub, origins={"w1": "a", "w2": "b"})
    )
    return tables


class TestPassdownHierarchy:
    def test_trivial_k_gives_trivial_outputs(self):
        groups = base_groups()
        k = Hierarchy(name="K0", root="r", nodes={"r": HNode(id="r", group="G")})
        out = passdown_hierarchy(tree_gog_for_passdown(groups), k, RestrictionTable(), groups)
        assert set(out) == {"v1", "v2"}
        assert all(depth(kv) == 0 for kv in out.values())

    def test_depth_and_origin_properties(self):
        groups = base_groups()
        k = hierarchy_k(groups)
        out = passdown_hierarchy(tree_gog_for_passdown(groups), k, tables_for_passdown(groups), groups)
        kv1, kv2 = out["v1"], out["v2"]
        assert depth(kv1) == 0  # elliptic step ate the only level
        assert kv1.nodes[kv1.root].origin == ("K", "nA")
        assert depth(kv2) == 1
        for nid in kv2.nodes:
            _, knid = kv2.nodes[nid].origin
            assert kv2.depth_of(nid) <= k.depth_of(knid)
        # property 4 shape: terminals slender or matching a terminal of k
        for node in kv2.terminals():
            assert groups.slender(node.group) or node.origin[1] in ("nA", "nB")

    def test_rigid_vertex_loses_a_level(self):
        groups = base_groups()
        k = hierarchy_k(groups)
        gog = tree_gog_for_passdown(groups, jsj=True, flags={"v1": "rigid", "v2": "flexible"})
        out = passdown_hierarchy(gog, k, tables_for_passdown(groups), groups)
        assert depth(out["v1"]) < depth(k)

    def test_rigid_vertex_with_split_start_rejected(self):
        groups = base_groups()
        k = hierarchy_k(groups)
        gog = tree_gog_for_passdown(groups, jsj=True, flags={"v1": "rigid", "v2": "rigid"})
        with pytest.raises(ConsistencyError):
            passdown_hierarchy(gog, k, tables_for_passdown(groups), groups)

    def test_nonslender_tree_edge_rejected(self):
        groups = base_groups()
        groups.add(GroupRef("NE", declared_supergroups=frozenset({"V2"})))
        k = hierarchy_k(groups)
        gog = make_gog("QT2", {"v1": "V2", "v2": "V2"}, {"te": ("v1", "v2", "NE")}, groups=groups)
        with pytest.raises(HypothesisError):
            passdown_hierarchy(gog, k, tables_for_passdown(groups), groups)


class TestDepthBound:
    def build_h(self, groups, flexible_deep=True):
        # root splits; rigid branch terminal, flexible branch one more level
        qh = make_gog(
            "QH",
            {"hv1": "A", "hv2": "B"},
            {"he": ("hv1", "hv2", "E")},
            flags={"hv1": "rigid", "hv2": "flexible"},
            jsj=True,
            groups=groups,
        )
        nodes = {
            "m": HNode(id="m", group="G", action=qh, children={"hv1": "m1", "hv2": "m2"}),
            "m1": HNode(id="m1", group="A", parent="m"),
        }
        if flexible_deep:
            qh2 = make_gog("QH2", {"u": "B2"}, {"le": ("u", "u", "E2")}, jsj=True, groups=groups)
            nodes["m2"] = HNode(id="m2", group="B", parent="m", action=qh2, children={"u": "m3"})
            nodes["m3"] = HNode(id="m3", group="B2", parent="m2")
        else:
            nodes["m2"] = HNode(id="m2", group="B", parent="m")
        return Hierarchy(name="H", root="m", nodes=nodes, jsj=True)

    def tables(self, groups):
        tables = RestrictionTable()
        tables.declare("A", "QK", Restriction(kind="elliptic", child="a"))
        tables.declare("B", "QK", Restriction(kind="elliptic", child="b"))
        return tables

    def test_depth_zero_k_forces_trivial_h(self):
        # a trivial auxiliary hierarchy presumes its group sits in every level
        groups = GroupTable(
            [
                GroupRef("G", is_h_elliptic=True),
                GroupRef("A", is_h_elliptic=True, declared_supergroups=frozenset({"G"})),
                GroupRef("B", is_h_elliptic=True, declared_supergroups=frozenset({"G"})),
                GroupRef("E", is_slender=True, is_h_elliptic=True, declared_supergroups=frozenset({"A", "B"})),
                GroupRef("B2", is_h_elliptic=True, declared_supergroups=frozenset({"B"})),
                GroupRef("E2", is_slender=True, is_h_elliptic=True, declared_supergroups=frozenset({"B2"})),
            ]
        )
        k0 = Hierarchy(name="K0", root="r", nodes={"r": HNode(id="r", group="G")})
        h = self.build_h(groups)
        report = jsj_depth_bound(h, k0, self.tables(groups), groups)
        assert not report.ok
        h0 = Hierarchy(name="H0", root="m", nodes={"m": HNode(id="m", group="G")}, jsj=True)
        assert jsj_depth_bound(h0, k0, self.tables(groups), groups).ok

    def test_bound_holds_on_scripted_pair(self):
        groups = base_groups()
        k = hierarchy_k(groups)
        h = self.build_h(groups)
        report = jsj_depth_bound(h, k, self.tables(groups), groups)
        assert report.ok
        assert report.depth_h <= report.depth_k + 1

    def test_flexible_branch_too_deep_is_flagged(self):
        groups = base_groups()
        k = hierarchy_k(groups)
        h = self.build_h(groups)
        # deepen the flexible branch beyond one level
        q3 = make_gog("QH3", {"z": "E2"}, {}, jsj=True, groups=groups)
        h.nodes["m3"].action = q3
        h.nodes["m3"].children = {"z": "m4"}
        h.nodes["m4"] = HNode(id="m4", group="E2", parent="m3")
        report = jsj_depth_bound(h, k, self.tables(groups), groups)
        assert not report.ok
        assert any("flexible" in v for v in report.violations)

    def test_hypothesis_check_on_terminals(self):
        groups = base_groups()
        groups.add(GroupRef("N", declared_supergroups=frozenset({"G"})))
        qk = make_gog("QKbad", {"a": "N"}, {}, groups=groups)
        nodes = {
            "r": HNode(id="r", group="G", action=qk, children={"a": "nN"}),
            "nN": HNode(id="nN", group="N", parent="r"),
        }
        k = Hierarchy(name="Kbad", root="r", nodes=nodes)
        h = self.build_h(groups)
        with pytest.raises(HypothesisError):
            jsj_depth_bound(h, k, self.tables(groups), groups)


def point_tree_level(groups, name="T"):
    tree = make_tree(
        ["x", "y"],
        {"f": ("x", "y")},
        stab={"x": "A", "y": "B", "f": "E"},
        orbit={"x": "ox", "y": "oy", "f": "of"},
        groups=groups,
    )
    actions = ActionTable(tree, groups)
    actions.declare_descriptors("A", [ActionDescriptor(kind="elliptic", fixed=frozenset({"x"}))])
    actions.declare_descriptors("B", [ActionDescriptor(kind="elliptic", fixed=frozenset({"y"}))])
    return make_tree_level(name, tree, actions)


def structure_for(groups, covol=3):
    k = hierarchy_k(groups)
    verts = ["p", "q"] + [f"z{i}" for i in range(covol)]
    edges = {"pq": ("p", "q")}
    faces = {}
    for i in range(covol):
        edges[f"pz{i}"] = ("p", f"z{i}")
        edges[f"qz{i}"] = ("q", f"z{i}")
        faces[f"t{i}"] = ("pq", f"pz{i}", f"qz{i}")
    x = make_complex(verts, edges, faces)
    return k, HStructure(hierarchy=k, terminal_complexes={"nA": x, "nB": None})


class TestPassdownStructure:
    def test_covolume_equality_without_tables(self):
        groups = base_groups()
        k, ks = structure_for(groups)
        tl = point_tree_level(groups)
        result = passdown_full(ks.terminals(), tl)
        totals = covolumes(result)
        assert sum(totals.values()) == 3
        # the complex's labels fix x only, so its vertex orbit gets all of it
        assert totals["ox"] == 3 and totals["oy"] == 0


class TestPassdownFull:
    def pinch_structure(self, groups):
        for gid, sups in (
            ("Ga", ("A",)),
            ("Gb", ("A",)),
            ("Gc", ("A",)),
            ("Gd", ("A",)),
            ("Gab", ("Ga", "Gb")),
            ("Gcr", ("Ga", "Gb", "Gc", "Gd")),
            ("Gcd", ("Gc", "Gd")),
            ("Gf", ("Gab", "Gcr", "Gcd")),
        ):
            groups.add(
                GroupRef(gid, is_slender=True, is_h_elliptic=True, declared_supergroups=frozenset(sups))
            )
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
            stab={
                "a": "Ga",
                "b": "Gb",
                "c": "Gc",
                "d": "Gd",
                "ab": "Gab",
                "ac": "Gcr",
                "bc": "Gcr",
                "ad": "Gcr",
                "bd": "Gcr",
                "cd": "Gcd",
                "t1": "Gf",
                "t2": "Gf",
                "t3": "Gf",
            },
            boundary_marked=["a", "c"],
            groups=groups,
        )
        nodes = {"r": HNode(id="r", group="G")}
        k = Hierarchy(name="KP", root="r", nodes=nodes)
        return HStructure(hierarchy=k, terminal_complexes={"r": x})

    def pinch_level(self, groups):
        tree = make_tree(
            ["x0", "x1"],
            {"f0": ("x0", "x1")},
            stab={"x0": "V1", "x1": "V2", "f0": "E"},
            orbit={"x0": "o0", "x1": "o1", "f0": "oe"},
            groups=groups,
        )
        actions = ActionTable(tree, groups)
        for gid, fix in (
            ("Ga", {"x0"}),
            ("Gb", {"x0"}),
            ("Gc", {"x1"}),
            ("Gd", {"x1"}),
            ("Gab", {"x0"}),
            ("Gcd", {"x1"}),
            ("Gcr", {"x0", "x1"}),
            ("Gf", {"x0", "x1"}),
            ("G", {"x0", "x1"}),
        ):
            actions.declare_descriptors(gid, [ActionDescriptor(kind="elliptic", fixed=frozenset(fix))])
        return make_tree_level("TP", tree, actions)

    def test_pinch_strictly_drops_covolume(self):
        groups = base_groups()
        ks = self.pinch_structure(groups)
        tl = self.pinch_level(groups)
        result = passdown_full(ks.terminals(), tl)
        assert result.ledger["input"] == 3
        assert result.ledger["output"] == 2
        assert covolumes(result) == {"o0": 1, "o1": 1}
        # provenance: t1 and t2 merged, map not bijective
        tau = result.tau.triangle_map
        assert tau["r", "t1"] is not None and tau["r", "t1"] == tau["r", "t2"]
        assert tau["r", "t1"][0][0] == "o0" and tau["r", "t3"][0][0] == "o1"

    def test_elliptic_terminals_degenerate_to_equality(self):
        groups = base_groups()
        k, ks = structure_for(groups)
        tl = point_tree_level(groups)
        result = passdown_full(ks.terminals(), tl)
        assert result.ledger["input"] == result.ledger["output"] == 3

    def test_contracting_stage_non_increasing(self):
        groups = base_groups()
        groups.add(GroupRef("L", is_slender=True, is_h_elliptic=True))
        groups.add(
            GroupRef("EL", is_slender=True, is_h_elliptic=True, declared_supergroups=frozenset({"A", "L"}))
        )
        tree = make_tree(
            ["x0", "x1", "x2"],
            {"f0": ("x0", "x1"), "f1": ("x1", "x2")},
            {"pp": ("x1", "x0"), "qq": ("x1", "x2")},
            stab={"x0": "V1", "x1": "V1", "x2": "V1", "f0": "E", "f1": "E"},
            groups=groups,
        )
        actions = ActionTable(tree, groups)
        actions.declare_descriptors("L", [ActionDescriptor(kind="hyperbolic", ends=("pp", "qq"))])
        actions.declare_descriptors("A", [ActionDescriptor(kind="elliptic", fixed=frozenset({"x1"}))])
        actions.declare_descriptors("EL", [ActionDescriptor(kind="elliptic", fixed=frozenset({"x1"}))])
        tl = make_tree_level("TC", tree, actions)
        # a linear edge hanging off an elliptic triangle by one edge
        x = make_complex(
            ["u", "v", "a", "b", "w"],
            {
                "uv": ("u", "v"),
                "ua": ("u", "a"),
                "ab": ("a", "b"),
                "aw": ("a", "w"),
                "bw": ("b", "w"),
            },
            {"t": ("ab", "bw", "aw")},
            stab={
                "u": "L",
                "v": "L",
                "uv": "L",
                "a": "A",
                "b": "A",
                "w": "A",
                "ua": "EL",
                "ab": "A",
                "aw": "A",
                "bw": "A",
                "t": "A",
            },
            boundary_marked=["b"],
            groups=groups,
        )
        nodes = {"r": HNode(id="r", group="G")}
        ks = HStructure(
            hierarchy=Hierarchy(name="KC", root="r", nodes=nodes),
            terminal_complexes={"r": x},
        )
        result = passdown_full(ks.terminals(), tl)
        assert result.ledger["contracted"] <= result.ledger["input"]
        assert result.ledger["output"] == 1

    def test_input_structure_is_left_as_it_was(self):
        # the worked fixture's collapse leaves a cutpoint, so the third
        # stage splits its one terminal in two
        fx = parse_fixtures([os.path.join(FIX, "worked_terminating.txt")])
        ks = fx.structures["S0"]
        nodes = {
            nid: (n.id, n.group, n.action, dict(n.children), n.parent, n.origin)
            for nid, n in ks.hierarchy.nodes.items()
        }
        attached = dict(ks.terminal_complexes)
        terminals = ks.terminals()
        given = dict(terminals)
        result = passdown_full(terminals, make_tree_level("T0", fx.trees["T0"], fx.action_table("T0")))
        assert covolumes(result) == {"o0": 1, "o1": 1}
        assert terminals == given and all(terminals[nid] is pair for nid, pair in given.items())
        assert {
            nid: (n.id, n.group, n.action, n.children, n.parent, n.origin)
            for nid, n in ks.hierarchy.nodes.items()
        } == nodes
        assert ks.terminal_complexes.keys() == attached.keys()
        assert all(ks.terminal_complexes[nid] is x for nid, x in attached.items())


def _one_triangle(groups, label):
    cells = {"pq": ("p", "q"), "qr": ("q", "r"), "pr": ("p", "r")}
    stab = dict.fromkeys([*"pqr", *cells, "s"], label)
    return make_complex("pqr", cells, {"s": tuple(cells)}, stab=stab, groups=groups)


def _bowtie_over_a_point(groups):
    """Two triangles of slender labels meeting at c, which the cutpoint
    split of stage two cuts apart, over a one-vertex tree."""
    groups.add(GroupRef("S", is_slender=True, is_h_elliptic=True))
    edges = {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c"), "cd": ("c", "d"), "de": ("d", "e"), "ce": ("c", "e")}
    faces = {"t1": ("ab", "bc", "ac"), "t2": ("cd", "de", "ce")}
    x = make_complex("abcde", edges, faces, stab=dict.fromkeys([*"abcde", *edges, *faces], "S"), groups=groups)
    tree = make_tree(["p0"], {}, orbit={"p0": "op"}, groups=groups)
    return x, "S", make_tree_level("PT", tree, ActionTable(tree, groups))


def _worked_over_t0(groups):
    """The worked complex over T0, whose track collapse leaves a cutpoint
    that stage three splits at."""
    fx = parse_fixtures([os.path.join(FIX, "worked_terminating.txt")])
    for gid in sorted(fx.groups.ids()):
        groups.add(fx.groups[gid])
    return fx.complexes["XP"], "Gf", make_tree_level("T0", fx.trees["T0"], fx.action_table("T0"))


@pytest.mark.parametrize("build", [_bowtie_over_a_point, _worked_over_t0])
def test_cutpoint_pieces_never_take_a_terminal_id(build):
    """Terminal k splits at a cutpoint into pieces named k.b<i>.  A second
    terminal that already holds such an id keeps it, and the ledger is the
    one that any other name for it gives."""
    ledgers = {}
    for name in ("k.b0", "k.b1", "k.b2", "k.zz"):
        groups = GroupTable()
        x, label, tl = build(groups)
        result = passdown_full({"k": ("G", x), name: ("G", _one_triangle(groups, label))}, tl)
        ledgers[name] = result.ledger
        assert sorted(result.tau.triangle_map) == [("k", f) for f in sorted(x.triangles())] + [(name, "s")]
    assert ledgers["k.b0"] == ledgers["k.b1"] == ledgers["k.b2"] == ledgers["k.zz"]
    assert ledgers["k.zz"]["output"] == 3


def test_the_stage_loop_refuses_a_piece_that_grows(monkeypatch):
    """A stage that hands on more covolume than a piece held is an engine
    defect.  The loop's one check per stage and piece names both: here a
    collapse that splits the one triangle orbit of terminal r in two."""
    edges = {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c"), "cd": ("c", "d"), "ad": ("a", "d")}
    faces = {"s": ("ab", "bc", "ac"), "t": ("ac", "cd", "ad")}
    x = make_complex("abcd", edges, faces, orbit={"s": "T", "t": "T"})
    collapse = hierarchy.split_collapse

    def grown(ts, groups):
        xt, frag = collapse(ts, groups)
        return dataclasses.replace(xt, orbit={**xt.orbit, "t": "T2"}), frag

    monkeypatch.setattr(hierarchy, "split_collapse", grown)
    tree = make_tree(["p"], {})
    tl = make_tree_level("P", tree, ActionTable(tree, GroupTable()))
    with pytest.raises(EngineError, match=r"^covolume grew in stage 'collapsed' at piece 'r'$"):
        passdown_full({"r": (TRIVIAL, x)}, tl)


TRIPOD = """
groups
  group G
  group V
  group Vx
  group Vy
  group Vz
  group E slender helliptic sub-of=V,Vx,Vy,Vz
  group Ga slender helliptic
  group Gb slender helliptic
  group Gc slender helliptic
  group Gab slender helliptic sub-of=Ga,Gb
  group Gbc slender helliptic sub-of=Gb,Gc
  group Gac slender helliptic sub-of=Ga,Gc
  group Gf slender helliptic sub-of=Gab,Gbc,Gac
end

complex X
  vertex a marked stab=Ga
  vertex b marked stab=Gb
  vertex c marked stab=Gc
  edge ab a b stab=Gab
  edge bc b c stab=Gbc
  edge ac a c stab=Gac
  triangle t ab bc ac stab=Gf
end

tree T
  vertex m stab=V orbit=om
  vertex x stab=Vx orbit=ox
  vertex y stab=Vy orbit=oy
  vertex z stab=Vz orbit=oz
  edge ex m x stab=E orbit=oex
  edge ey m y stab=E orbit=oey
  edge ez m z stab=E orbit=oez
end

actions T
  elliptic Ga fix=x
  elliptic Gb fix=y
  elliptic Gc fix=z
  elliptic Gab fix=x,m,y
  elliptic Gbc fix=y,m,z
  elliptic Gac fix=x,m,z
  elliptic Gf fix=x,y,z,m
  elliptic G fix=x,y,z,m
end

hierarchy K
  node r G
end

structure S hierarchy=K
  attach r complex=X
end
"""


def test_a_piece_of_track_points_claims_the_least_vertex_on_its_collapsed_edges():
    """A triangle whose corners map to the three leaves of a tripod is cut
    by one essential track at each corner.  Its central triangle, split
    off at the three track points, has no vertex of its own to anchor a
    claim, so it claims the least end of its collapsed edges: the centre
    m.  Each corner edge keeps its corner and goes to that leaf."""
    fx = parse_text(TRIPOD)
    result = passdown_full(fx.structures["S"].terminals(), make_tree_level("T", fx.trees["T"], fx.action_table("T")))
    received = {v: [sorted(x.vertices) for _gid, x in terms.values()] for v, terms in result.terminals.items()}
    assert received == {
        "om": [["w.s0", "w.s1", "w.s2"]], "ox": [["a", "w.s0"]], "oy": [["b", "w.s1"]], "oz": [["c", "w.s2"]],
    }
    assert result.tau.triangle_map == {("r", "t"): (("om", "om.t0"), "t.mid")}
    assert covolumes(result) == {"om": 1, "ox": 0, "oy": 0, "oz": 0}


class TestTerminalCheck:
    """The terminal check reads each distinct cell label once, at its first
    cell, and still names the first failing cell in ``cells()`` order."""

    @pytest.mark.parametrize("seed", range(20))
    def test_names_the_first_failing_cell(self, seed):
        rng = random.Random(seed)
        x, groups = random_labelled_complex(rng, "tree")
        # every vertex carries a non-trivial label; at least one such label fails
        used = sorted(set(x.stab.values()) - {TRIVIAL})
        passing = {gid for gid in used if rng.random() < 0.4} - {rng.choice(used)} | {TRIVIAL}
        flagged = GroupTable(
            dataclasses.replace(groups[gid], is_slender=gid in passing)
            for gid in sorted(groups.ids() - {TRIVIAL})
        )
        failing = [c for c in x.cells() if x.stab[c] not in passing]
        tree = make_tree(["p"], {})
        tl = make_tree_level("P", tree, ActionTable(tree, flagged))
        message = f"cell {failing[0]!r} of the complex at 'r' is neither slender nor elliptic on every level"
        with pytest.raises(ConsistencyError, match=re.escape(message)):
            passdown_full({"r": ("1", x)}, tl)
