import dataclasses
import random
import sys
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passdown import complexes, graphs
from passdown.cli import main
from passdown.complexes import (
    CellData,
    Complex2,
    DisconnectedComplexWarning,
    components,
    covolume,
    cutpoints,
    h1_z2,
    is_connected,
    make_complex,
    reduce_complex,
    reduce_with_map,
    reduced_cutpoint_tree,
    validate_complex,
    wire_and_validate,
)
from passdown.errors import ConsistencyError, FixtureError
from passdown.fixtures import parse_fixtures
from passdown.groups import TRIVIAL, GroupRef, GroupTable
from passdown.hierarchy import make_tree_level, passdown_full
from passdown.pipeline import run_pipeline
from passdown.resolution import ActionTable
from passdown.stability import class_cutpoints
from passdown.trees import make_tree

from bench_ops import workloads
from generators import (
    random_cell_complex,
    random_labelled_complex,
    random_simplicial_complex,
    random_triangle_tree_complex,
)
from oracles import (
    boundary_rank_oracle,
    brute_blocks,
    brute_components,
    brute_cutpoints,
    contracted_cutpoint_tree,
    cutpoint_tree,
    h1_rank_oracle,
    is_reduced_oracle,
    is_simplicial_oracle,
)


def triangle(marked=()):
    return make_complex(
        ["a", "b", "c"],
        {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")},
        {"t": ("ab", "bc", "ac")},
        boundary_marked=marked,
    )


def test_validation_rejects_missing_edge():
    with pytest.raises(FixtureError):
        make_complex(["a", "b"], {"ab": ("a", "b")}, {"t": ("ab", "bc", "ac")})


def test_validation_rejects_open_face():
    with pytest.raises(FixtureError):
        make_complex(
            ["a", "b", "c", "d"],
            {"ab": ("a", "b"), "bc": ("b", "c"), "cd": ("c", "d")},
            {"t": ("ab", "bc", "cd")},
        )


class TestReduce:
    def test_bigon_collapses_to_single_edge(self):
        x = make_complex(
            ["u", "v"],
            {"e1": ("u", "v"), "e2": ("u", "v")},
            {"b": ("e1", "e2")},
        )
        r = reduce_complex(x, GroupTable())
        assert r.vertices == frozenset({"u", "v"})
        assert len(r.edges) == 1
        assert not r.faces

    def test_simplicial_input_unchanged(self):
        x = triangle()
        r = reduce_complex(x, GroupTable())
        assert r.vertices == x.vertices
        assert set(map(frozenset, r.edges.values())) == set(map(frozenset, x.edges.values()))
        assert len(r.faces) == 1
        assert covolume(r) == covolume(x)

    def test_triangle_with_doubled_side(self):
        # hand enumeration: 3 vertices, 4 edges (one doubled), 1 triangle
        # reduces to the plain triangle on the same vertices
        x = make_complex(
            ["a", "b", "c"],
            {"ab": ("a", "b"), "ab2": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")},
            {"t": ("ab", "bc", "ac")},
        )
        r = reduce_complex(x, GroupTable())
        assert len(r.edges) == 3
        assert len(r.faces) == 1
        assert set(r.face_vertices(next(iter(r.faces)))) == {"a", "b", "c"}

    def test_merged_triangles_drop_covolume(self):
        x = make_complex(
            ["a", "b", "c"],
            {"ab": ("a", "b"), "ab2": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")},
            {"t1": ("ab", "bc", "ac"), "t2": ("ab2", "bc", "ac")},
            orbit={"t1": "o1", "t2": "o2"},
        )
        assert covolume(x) == 2
        r = reduce_complex(x, GroupTable())
        assert covolume(r) == 1


class TestH1:
    def test_hollow_triangle_is_circle(self):
        x = make_complex(
            ["a", "b", "c"],
            {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")},
            {},
        )
        assert h1_z2(x) == 1

    def test_filled_triangle_is_disk(self):
        assert h1_z2(triangle()) == 0

    def test_disconnected_warns(self):
        x = make_complex(["a", "b"], {}, {})
        with pytest.warns(DisconnectedComplexWarning):
            assert h1_z2(x) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_rank_oracle(self, seed):
        x = random_simplicial_complex(random.Random(seed))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DisconnectedComplexWarning)
            assert h1_z2(x) == h1_rank_oracle(x)


class TestCovolume:
    def test_no_triangles(self):
        x = make_complex(["a", "b"], {"ab": ("a", "b")}, {})
        assert covolume(x) == 0

    def test_distinct_orbits(self):
        rng = random.Random(1)
        x = random_simplicial_complex(rng)
        assert covolume(x) == len({x.orbit[f] for f in x.triangles()})

    def test_six_triangles_three_orbits(self):
        verts = [f"v{i}" for i in range(9)] + ["hub"]
        edges, faces, orbit = {}, {}, {}
        names = ["a", "a", "b", "b", "b", "c"]
        for i in range(6):
            u, v = f"v{i}", f"v{(i + 1) % 9 + 2}"
            edges[f"h{i}u"] = ("hub", u)
            edges[f"h{i}v"] = ("hub", v)
            edges[f"{i}uv"] = (u, v)
            faces[f"t{i}"] = (f"h{i}u", f"{i}uv", f"h{i}v")
            orbit[f"t{i}"] = names[i]
        x = make_complex(verts, edges, faces, orbit=orbit)
        assert covolume(x) == 3


class TestCutpoints:
    def wedge(self):
        return make_complex(
            ["a", "b", "v", "c", "d"],
            {
                "av": ("a", "v"),
                "ab": ("a", "b"),
                "bv": ("b", "v"),
                "vc": ("v", "c"),
                "cd": ("c", "d"),
                "vd": ("v", "d"),
            },
            {"t1": ("av", "ab", "bv"), "t2": ("vc", "cd", "vd")},
        )

    def test_two_triangles_sharing_vertex(self):
        assert cutpoints(self.wedge()) == {"v"}

    def test_single_triangle_has_none(self):
        assert cutpoints(triangle()) == set()

    def test_chain_of_three_triangles(self):
        # glued at two distinct vertices; brute-force deletion agrees
        x = make_complex(
            ["a", "b", "v", "c", "w", "d", "e"],
            {
                "ab": ("a", "b"),
                "av": ("a", "v"),
                "bv": ("b", "v"),
                "vc": ("v", "c"),
                "vw": ("v", "w"),
                "cw": ("c", "w"),
                "wd": ("w", "d"),
                "we": ("w", "e"),
                "de": ("d", "e"),
            },
            {"t1": ("ab", "av", "bv"), "t2": ("vc", "vw", "cw"), "t3": ("wd", "we", "de")},
        )
        assert cutpoints(x) == {"v", "w"} == brute_cutpoints(x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_brute_force(self, seed):
        x = random_simplicial_complex(random.Random(seed))
        assert cutpoints(x) == brute_cutpoints(x)


class TestCutpointTree:
    def test_cutpoint_free_is_single_vertex(self):
        bx = cutpoint_tree(triangle(), GroupTable())
        assert len(bx.comp_nodes) == 1 and not bx.cut_nodes and not bx.edges

    def test_wedge_is_path(self):
        bx = cutpoint_tree(TestCutpoints().wedge(), GroupTable())
        assert len(bx.comp_nodes) == 2
        assert bx.cut_nodes == ("v",)
        assert len(bx.edges) == 2
        assert bx.is_tree()

    def test_wedge_of_three_and_collapse(self):
        verts, edges, faces = ["v"], {}, {}
        for k, (a, b) in enumerate([("a1", "b1"), ("a2", "b2"), ("a3", "b3")]):
            verts += [a, b]
            edges[f"va{k}"] = ("v", a)
            edges[f"vb{k}"] = ("v", b)
            edges[f"ab{k}"] = (a, b)
            faces[f"t{k}"] = (f"va{k}", f"ab{k}", f"vb{k}")
        groups = GroupTable([GroupRef("Big")])  # not slender
        x = make_complex(verts, edges, faces, stab={"v": "Big"}, groups=groups)
        bx = cutpoint_tree(x, groups)
        assert len(bx.comp_nodes) == 3 and len(bx.edges) == 3  # star with 3 leaves
        bpx = reduced_cutpoint_tree(x, groups)
        # the non-slender cut vertex merges everything into one node
        assert len(bpx.comp_nodes) == 1 and not bpx.cut_nodes

    def test_slender_cut_vertex_survives_reduction(self):
        x = TestCutpoints().wedge()
        bpx = reduced_cutpoint_tree(x, GroupTable())
        assert bpx.cut_nodes == ("v",)
        assert len(bpx.comp_nodes) == 2

    def test_cut_vertex_named_like_a_block_splits(self, tmp_path, capsys):
        # the wedge, its cut vertex named like its second block: the blocks
        # take ids that no vertex has, and the complex splits in two
        path = tmp_path / "wedge.txt"
        path.write_text(
            "complex W\n"
            + "".join(f"  vertex {v}\n" for v in ("a", "b", "C1", "c", "d"))
            + "  edge av a C1\n  edge ab a b\n  edge bv b C1\n"
            + "  edge vc C1 c\n  edge cd c d\n  edge vd C1 d\n"
            + "  triangle t1 av ab bv\n  triangle t2 vc cd vd\nend\n"
        )
        assert main(["cutpoints", str(path), "--complex", "W"]) == 0
        assert capsys.readouterr().out == "cutpoints: C1\nreduced cutpoint tree: 2 pieces, 1 cut vertices\n"
        x = parse_fixtures([str(path)]).complexes["W"]
        bpx = reduced_cutpoint_tree(x, GroupTable())
        assert bpx.comp_nodes == ("CC0", "CC1") and bpx.cut_nodes == ("C1",) and bpx.is_tree()
        tree = make_tree(["p"], {})
        result = passdown_full({"r": (TRIVIAL, x)}, make_tree_level("P", tree, ActionTable(tree, GroupTable())))
        assert {tid: sorted(y.faces) for tid, (_gid, y) in result.terminals["p"].items()} == {
            "p.t0": ["t1"],
            "p.t1": ["t2"],
        }

    def test_a_triangle_orbit_across_two_piece_orbits_is_malformed(self):
        # a generated triangle tree, every label slender so that every cut
        # vertex stays a node: the triangles of orbit o.1.1 lie in pieces of
        # different orbits, and over a point tree the cutpoint split would
        # count that orbit more than once
        x, groups = random_labelled_complex(random.Random(12), "tree")
        groups = GroupTable(dataclasses.replace(groups[gid], is_slender=True) for gid in sorted(groups.ids()))
        tree = make_tree(["p"], {})
        tl = make_tree_level("P", tree, ActionTable(tree, groups))
        with pytest.raises(ConsistencyError, match="triangle orbit 'o.1.1' lies in cutpoint-free pieces of different orbits"):
            passdown_full({"r": (TRIVIAL, x)}, tl)
        with pytest.raises(ConsistencyError, match="lies in cutpoint-free pieces of different orbits"):
            reduced_cutpoint_tree(x, groups)

    def test_matches_contracted_oracle(self):
        # cut vertices labelled at random: slender (S), non-slender and
        # H-elliptic (U), or neither (V)
        groups = GroupTable([GroupRef("S", is_slender=True), GroupRef("U", is_h_elliptic=True), GroupRef("V")])
        merged = 0
        for seed in range(60):
            rng = random.Random(seed)
            x = random_triangle_tree_complex(rng, n_triangles=rng.randint(2, 9))
            x = dataclasses.replace(x, stab={**x.stab, **{v: rng.choice("SUV") for v in sorted(cutpoints(x))}})
            bpx = reduced_cutpoint_tree(x, groups)
            comp_nodes, cells, cut_nodes, edges, orbit, flags = contracted_cutpoint_tree(x, groups)
            assert bpx.comp_nodes == comp_nodes
            assert bpx.comp_cells == cells
            assert bpx.cut_nodes == cut_nodes
            assert bpx.edges == edges
            assert bpx.node_orbit == orbit
            assert {n: groups.h_elliptic(bpx.node_stab[n]) for n in comp_nodes} == flags
            merged += len(comp_nodes) < len(cutpoint_tree(x, groups).comp_nodes)
        assert merged

    def test_merged_piece_is_h_elliptic_only_if_every_merged_cut_vertex_is(self):
        # three triangles in a chain through the non-slender cut vertices
        # u (H-elliptic) and w (not): one merged piece, not H-elliptic
        groups = GroupTable([GroupRef("U", is_h_elliptic=True), GroupRef("V")])
        x = make_complex(
            ["a", "b", "u", "c", "w", "d", "e"],
            {
                "ab": ("a", "b"),
                "au": ("a", "u"),
                "bu": ("b", "u"),
                "uc": ("u", "c"),
                "cw": ("c", "w"),
                "uw": ("u", "w"),
                "wd": ("w", "d"),
                "de": ("d", "e"),
                "we": ("w", "e"),
            },
            {"t1": ("ab", "bu", "au"), "t2": ("uc", "cw", "uw"), "t3": ("wd", "de", "we")},
            stab={"u": "U", "w": "V"},
            groups=groups,
        )
        bpx = reduced_cutpoint_tree(x, groups)
        assert bpx.comp_nodes == ("C0",) and not bpx.cut_nodes
        assert not groups.h_elliptic(bpx.node_stab["C0"])


class TestReductionProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_idempotent_monotone_and_h1_preserving(self, seed):
        x = random_cell_complex(random.Random(seed))
        r = reduce_complex(x, GroupTable())
        r2 = reduce_complex(r, GroupTable())
        assert r2.vertices == r.vertices
        assert set(map(frozenset, r2.edges.values())) == set(map(frozenset, r.edges.values()))
        assert {frozenset(r2.face_vertices(f)) for f in r2.faces} == {
            frozenset(r.face_vertices(f)) for f in r.faces
        }
        assert covolume(r) <= covolume(x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DisconnectedComplexWarning)
            if is_connected(x):
                assert is_connected(r)
                if h1_z2(x) == 0:
                    assert h1_z2(r) == 0


class TestDerivedIncidence:
    """The incidence kept on Complex2 against recomputation from the cell
    dicts, in the orders the callers rely on."""

    def cases(self):
        for seed in range(120):
            yield random_simplicial_complex(random.Random(seed))
            yield random_cell_complex(random.Random(seed))

    def test_maps_match_recomputation(self):
        for x in self.cases():
            fv = {f: {w for e in es for w in x.edges[e]} for f, es in x.faces.items()}
            tris = [f for f, es in x.faces.items() if len(es) == 3]
            assert all(x.face_vertices(f) == fv[f] for f in x.faces)
            assert x.edges_by_pair == {
                key: tuple(sorted(e for e in x.edges if frozenset(x.edges[e]) == key))
                for key in map(frozenset, x.edges.values())
            }
            assert x.triangles_by_vertex == {
                v: tuple(f for f in tris if v in fv[f]) for v in x.vertices if any(v in fv[f] for f in tris)
            }
            first_met = dict.fromkeys(e for f in sorted(tris) for e in x.faces[f])
            assert list(x.triangles_by_edge.items()) == [
                (e, tuple(sorted(f for f in tris if e in x.faces[f]))) for e in first_met
            ]
            assert x.triangles_by_triple == {
                key: tuple(sorted(f for f in tris if fv[f] == key)) for key in (frozenset(fv[f]) for f in tris)
            }
            assert x.is_simplicial() == is_simplicial_oracle(x)

    def test_components_blocks_and_rank_match_recomputation(self):
        for x in self.cases():
            assert components(x) == brute_components(x.vertices, x.edges.values())
            assert is_connected(x) == (len(brute_components(x.vertices, x.edges.values())) <= 1)
            assert sorted((set(es) for _vs, es in x.skeleton_blocks if es), key=sorted) == brute_blocks(x)
            for verts, eids in x.skeleton_blocks:
                if eids:
                    assert verts == {w for e in eids for w in x.edges[e]}
            isolated = {v for v in x.vertices if not any(v in ends for ends in x.edges.values())}
            assert {v for verts, eids in x.skeleton_blocks if not eids for v in verts} == isolated
            assert cutpoints(x) == brute_cutpoints(x)
            assert x.boundary_rank == boundary_rank_oracle(x)

    def test_returned_collections_do_not_write_through(self):
        x = random_simplicial_complex(random.Random(3))
        comps = components(x)
        comps.append({"stray"})
        assert components(x) == brute_components(x.vertices, x.edges.values())
        cuts = cutpoints(x)
        cuts.add("stray")
        assert cutpoints(x) == brute_cutpoints(x)
        assert isinstance(x.face_vertices(next(iter(x.faces))), frozenset)


class TestReductionCellData:
    """What ``reduce_with_map`` hands on in the cell data of its output
    against a fresh ``CellData`` of the same cells: the incidence by pair
    and triple and the canonical order always, the cutpoints and
    components only when the input holds them already."""

    BUILT = {"edges_by_pair", "triangles_by_triple", "is_canonical"}
    SKELETON = {"cutpoints", "vertex_components"}

    @staticmethod
    def handed_on(y):
        # the values held right after the reduction: handed on, or derived
        # by the declare step of a reduction that mints a label
        data = y.cell_data.__dict__
        fresh = CellData(y.vertices, y.edges, y.faces)
        names = data.keys() - {"vertices", "edges", "faces", "class_cuts"}
        for name in names:
            assert data[name] == getattr(fresh, name), name
        assert fresh.is_canonical and fresh.is_simplicial()
        return names

    @pytest.mark.parametrize("shape", ["doubled", "strip", "cell", "glued"])
    def test_handed_on_values_match_a_fresh_derivation(self, shape):
        rng = random.Random(20261023)
        bigons = parallel = cuts = 0
        for _ in range(60):
            x, groups = random_labelled_complex(rng, shape)
            bigons += len(x.bigons())
            parallel += len(x.edges) - len(x.edges_by_pair)
            before = self.SKELETON & x.cell_data.__dict__.keys()
            reduced, _ = reduce_with_map(x, groups.copy())
            names = self.handed_on(reduced)
            assert self.BUILT <= names and names & self.SKELETON == before
            cuts += bool(cutpoints(x))
            components(x)
            reduced, _ = reduce_with_map(x, groups.copy())
            assert self.BUILT | self.SKELETON <= self.handed_on(reduced)
            assert cutpoints(reduced) == brute_cutpoints(reduced)
            assert components(reduced) == brute_components(reduced.vertices, reduced.edges.values())
        if shape == "doubled":
            assert bigons > 100 and parallel > 200
        if shape in ("doubled", "strip"):
            assert cuts > 20


def _labelled_triangle(**changes):
    """A triangle over the order C < A (cells labelled A, the face C),
    built without validation and then changed."""
    fields = dict(
        vertices=frozenset("abc"),
        edges={"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")},
        faces={"t": ("ab", "bc", "ac")},
        stab={c: "A" for c in ("a", "b", "c", "ab", "bc", "ac")} | {"t": "C"},
        orbit={c: c for c in ("a", "b", "c", "ab", "bc", "ac", "t")},
    )
    fields.update(changes)
    return Complex2(**fields)


def _order():
    return GroupTable([GroupRef("A"), GroupRef("B"), GroupRef("C", declared_supergroups=frozenset({"A"}))])


class TestWireAndValidate:
    """``wire_and_validate`` skips only the containments its wiring has just
    declared: every other bad label fails as in ``validate_complex``."""

    @pytest.mark.parametrize(
        "changes, error, message",
        [
            ({"orbit": {c: c for c in ("a", "b", "c", "ab", "bc", "ac")} | {"t": "a"}},
             ConsistencyError, "orbit 'a' carries several stabilizer labels: ['A', 'C']"),
            ({"orbit": {c: c for c in ("a", "b", "c", "bc", "t")} | {"ab": "e", "ac": "e"}},
             ConsistencyError, "edges of orbit 'e' have mismatched endpoint orbits"),
            ({"stab_plus": {"cd": "A"}}, FixtureError, "stab+ label on missing edge 'cd'"),
            ({"stab_plus": {"ab": "NOPE"}}, FixtureError, "unknown group id 'NOPE'"),
            ({"edges": {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "a")}}, FixtureError, "edge 'ac' is a loop"),
        ],
    )
    def test_other_checks_fail_alike(self, changes, error, message):
        x = _labelled_triangle(**changes)
        for check in (validate_complex, wire_and_validate):
            with pytest.raises(error) as info:
                check(x, _order())
            assert type(info.value) is error and str(info.value) == message

    def test_the_skipped_containments_are_the_declared_ones(self):
        x = _labelled_triangle(stab={c: "A" for c in ("a", "b", "ab", "bc", "ac")} | {"c": "B", "t": "B"})
        groups = _order()
        with pytest.raises(ConsistencyError, match="face 't' stabilizer 'B' not declared inside edge"):
            validate_complex(x, groups)
        wire_and_validate(x, groups)
        validate_complex(x, groups)
        assert groups.leq("B", "A") and groups.leq("A", "B")


def test_a_reduction_declares_what_its_minted_labels_need():
    """A bigon whose two edges carry labels A and B reduces to one edge with
    a minted label.  The reduction declares that label inside the labels of
    its ends and above the label of the triangle on it, so the reduced
    complex is valid over the table."""
    groups = GroupTable([GroupRef("G"), GroupRef("T", declared_supergroups=frozenset({"A"}))])
    for g in ("A", "B"):
        groups.add(GroupRef(g, declared_supergroups=frozenset({"G"})))
    x = make_complex(
        "abc",
        {"ab": ("a", "b"), "ab2": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")},
        {"g": ("ab", "ab2"), "t": ("ab", "bc", "ac")},
        stab={"a": "G", "b": "G", "c": "G", "ab": "A", "ab2": "B", "bc": "A", "ac": "A", "t": "T"},
        groups=groups,
    )
    out = reduce_complex(x, groups)
    assert list(out.edges) == ["ab", "ac", "bc"] and out.stab["ab"].startswith("red")
    validate_complex(out, groups)
    # with one label on the bigon's edges nothing is minted, and every
    # containment of the reduction is one of x: the table is left alone
    same = make_complex(x.vertices, x.edges, x.faces, stab={**x.stab, "ab2": "A"}, groups=groups)
    version = groups.version
    out = reduce_complex(same, groups)
    assert out.stab["ab"] == "A" and groups.version == version
    validate_complex(out, groups)


def _perturbed(x, rng):
    """Copies of a reduced complex that each break one part of being reduced."""
    out = [dataclasses.replace(x, edges=dict(reversed(x.edges.items())))]
    out.append(dataclasses.replace(x, faces=dict(reversed(x.faces.items()))))
    out.append(dataclasses.replace(x, stab={**x.stab, "stray": TRIVIAL}))
    if x.edges:
        eid = rng.choice(sorted(x.edges))
        out.append(dataclasses.replace(x, stab_plus={e: g for e, g in x.stab_plus.items() if e != eid}))
        out.append(dataclasses.replace(x, edges={**x.edges, eid: x.edges[eid][::-1]}))
    if x.faces:
        fid = rng.choice(sorted(x.faces))
        es = x.faces[fid]
        out.append(dataclasses.replace(x, faces={**x.faces, fid: es[1:] + es[:1]}))
        other = next((c for c in x.cells() if x.stab[c] != x.stab[fid]), None)
        if other is not None:
            out.append(dataclasses.replace(x, orbit={**x.orbit, fid: x.orbit[other]}))
    return out


class TestIsReduced:
    @pytest.mark.parametrize("shape", ["simplicial", "cell", "tree", "glued"])
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_reduce_giving_back_the_complex(self, seed, shape):
        rng = random.Random(seed)
        x, groups = random_labelled_complex(rng, shape)
        reduced = reduce_complex(x, groups)
        assert reduced.is_reduced and is_reduced_oracle(reduced, groups.copy())
        for y in [x] + _perturbed(reduced, rng):
            assert y.is_reduced == is_reduced_oracle(y, groups.copy())


class TestRelabel:
    """``relabel`` against a complex built from scratch with the same
    fields: every derived value agrees, and every cell-derived one is the
    original's own object."""

    SHARED = (
        "cell_data", "edges_by_pair", "triangles_by_vertex", "triangles_by_edge", "triangles_by_triple",
        "vertex_components", "skeleton_blocks", "first_cell_by_label",
    )
    FIELDS = ("vertices", "edges", "faces", "stab", "orbit", "boundary_marked")

    @staticmethod
    def derived(x):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DisconnectedComplexWarning)
            h1 = h1_z2(x)
        return {
            "face_vertices": {fid: x.face_vertices(fid) for fid in x.faces},
            **{name: getattr(x, name) for name in TestRelabel.SHARED[1:]},
            "boundary_rank": x.boundary_rank,
            "triangles": x.triangles(),
            "is_simplicial": x.is_simplicial(),
            "cutpoints": cutpoints(x),
            "is_reduced": x.is_reduced,
            "h1_z2": h1,
        }

    def assert_matches_fresh_build(self, x, stab_plus):
        y = x.relabel(stab_plus=stab_plus)
        fresh = Complex2(**{name: getattr(x, name) for name in self.FIELDS}, stab_plus=dict(stab_plus))
        assert y == fresh and y.stab_plus == stab_plus
        # y is derived first, so x reads what y derived on the shared data
        assert self.derived(y) == self.derived(fresh)
        for name in self.FIELDS:
            assert getattr(y, name) is getattr(x, name), name
        for name in self.SHARED:
            assert getattr(y, name) is getattr(x, name), name
        assert all(y.face_vertices(fid) is x.face_vertices(fid) for fid in x.faces)
        assert y.cell_data.cutpoints is x.cell_data.cutpoints
        assert y.cell_data.triangles is x.cell_data.triangles
        return y

    @pytest.mark.parametrize("shape", ["simplicial", "cell", "tree", "glued"])
    @pytest.mark.parametrize("seed", range(10))
    def test_a_relabelled_complex_matches_a_fresh_build(self, seed, shape):
        rng = random.Random(seed)
        x, groups = random_labelled_complex(rng, shape)
        for y in (x, reduce_complex(x, groups)):
            plus = {eid: rng.choice(("P", "E", "1", "V1")) for eid in sorted(y.edges) if rng.random() < 0.6}
            self.assert_matches_fresh_build(y, plus)

    @pytest.mark.parametrize("seed", range(10))
    def test_an_added_oriented_label_makes_a_complex_reduced(self, seed):
        rng = random.Random(seed)
        x, groups = random_labelled_complex(rng, "tree")
        reduced = reduce_complex(x, groups)
        eid = rng.choice(sorted(reduced.edges))
        missing = {e: g for e, g in reduced.stab_plus.items() if e != eid}
        unreduced = dataclasses.replace(reduced, stab_plus=missing)
        assert reduced.is_reduced and not unreduced.is_reduced
        assert self.assert_matches_fresh_build(unreduced, {**missing, eid: "P"}).is_reduced
        assert not self.assert_matches_fresh_build(reduced, missing).is_reduced

    def test_a_relabelling_keeps_the_class_cutpoint_verdicts(self):
        x = random_triangle_tree_complex(random.Random(4), n_triangles=6)
        kept = class_cutpoints(x, x.faces)
        y = x.relabel(stab_plus=dict.fromkeys(x.edges, "P"))
        assert class_cutpoints(y, list(x.faces)) is kept


def test_components_blocks_and_rank_computed_once_per_complex(tmp_path, monkeypatch):
    """A benchmark chain run overrides an oriented stabilizer at every
    level, and each relabelled complex shares the cell data of the one it
    relabels.  So the run computes the components, the 1-skeleton blocks
    and the boundary rank at most once per cell data, however often
    connectivity, h1 and cutpoints are checked, and as often at horizon 8
    as at horizon 64."""

    def derivations(horizon):
        op = workloads.chain(random.Random(1), horizon)
        path = tmp_path / f"chain{horizon}.txt"
        path.write_text(op.text)
        counts = {"components": Counter(), "blocks": Counter(), "rank": Counter()}
        kept = []  # every counted cell data stays alive, so no id is reused

        def counted(kind, fn):
            def wrapper(*args, **kwargs):
                caller = sys._getframe(1)
                if caller.f_globals["__name__"] == "passdown.complexes":
                    cells = caller.f_locals["self"]  # the cell data being derived
                    assert isinstance(cells, complexes.CellData)
                    kept.append(cells)
                    counts[kind][id(cells)] += 1
                return fn(*args, **kwargs)

            return wrapper

        with monkeypatch.context() as m:
            m.setattr(graphs, "components", counted("components", graphs.components))
            m.setattr(graphs, "blocks", counted("blocks", graphs.blocks))
            m.setattr(complexes, "_gf2_rank", counted("rank", complexes._gf2_rank))
            rep = run_pipeline(parse_fixtures([str(path)]), op.pipeline)
        assert rep.horizon == horizon and rep.certificate_level == op.expected.cert_level
        assert rep.ledger == op.expected.ledger
        for kind, per_cells in counts.items():
            assert max(per_cells.values()) == 1, (kind, max(per_cells.values()))
        return {kind: sum(per_cells.values()) for kind, per_cells in counts.items()}

    assert derivations(8) == derivations(64)
