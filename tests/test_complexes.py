import dataclasses
import random
import warnings
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passdown import complexes, graphs
from passdown.cli import main
from passdown.complexes import (
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
)
from passdown.errors import ConsistencyError, FixtureError
from passdown.fixtures import parse_fixtures, parse_text
from passdown.groups import TRIVIAL, GroupRef, GroupTable
from passdown.hierarchy import make_tree_level, passdown_full
from passdown.pipeline import run_pipeline
from passdown.resolution import ActionTable
from passdown.trees import make_tree

from bench_ops import workloads
from differential import differential_test, h1, minting, nest, record, relabelled, spy
from generators import random_cell_complex, random_labelled_complex, random_simplicial_complex, triangle
from oracles import brute_components, brute_cutpoints, cutpoint_tree, separator_by_minting, wire_and_validate
from test_cli import BOWTIE


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
        x = triangle("t")
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
        assert h1_z2(triangle("t")) == 0

    def test_disconnected_warns(self):
        x = make_complex(["a", "b"], {}, {})
        with pytest.warns(DisconnectedComplexWarning):
            assert h1_z2(x) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_rank_oracle(self, seed):
        h1(random_simplicial_complex(random.Random(seed)))


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
        assert cutpoints(triangle("t")) == set()

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
        bx = cutpoint_tree(triangle("t"), GroupTable())
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
        # the bowtie, its labels trivial and so slender: the triangles of
        # orbit o lie in pieces of different orbits, and over a point tree
        # the cutpoint split would count that orbit more than once
        fx = parse_text(BOWTIE)
        x, tree = fx.complexes["X"], make_tree(["p"], {})
        tl = make_tree_level("P", tree, ActionTable(tree, fx.groups))
        with pytest.raises(ConsistencyError, match="triangle orbit 'o' lies in cutpoint-free pieces of different orbits"):
            passdown_full({"r": (TRIVIAL, x)}, tl)
        with pytest.raises(ConsistencyError, match="lies in cutpoint-free pieces of different orbits"):
            reduced_cutpoint_tree(x, fx.groups)

    test_matches_contracted_oracle = differential_test("cut-labelled complex")

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


def reduction_keeps(x):
    """Reducing x gives a valid simplicial complex that reduces to the same
    cells again, with no more covolume, connected and with h1 = 0 when x
    is.  Returns whether x is connected with h1 = 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DisconnectedComplexWarning)
        r = reduce_complex(x, GroupTable())
        validate_complex(r)
        assert r.is_simplicial()
        r2 = reduce_complex(r, GroupTable())
        assert r2.vertices == r.vertices
        assert set(map(frozenset, r2.edges.values())) == set(map(frozenset, r.edges.values()))
        assert {frozenset(r2.face_vertices(f)) for f in r2.faces} == {frozenset(r.face_vertices(f)) for f in r.faces}
        assert covolume(r) <= covolume(x)
        if is_connected(x):
            assert is_connected(r)
        kept = is_connected(x) and h1_z2(x) == 0
        if kept:
            assert h1_z2(r) == 0
    return kept


class TestReductionProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_idempotent_monotone_and_h1_preserving(self, seed):
        reduction_keeps(random_cell_complex(random.Random(seed)))


class TestDerivedIncidence:
    test_maps_match_recomputation = differential_test("incidence")
    test_components_blocks_and_rank_match_recomputation = differential_test("skeleton")
    test_loops_and_canonical_check_match_grouping_and_sorting = differential_test("cell order")

    def test_returned_collections_do_not_write_through(self):
        x = random_simplicial_complex(random.Random(3))
        comps = components(x)
        comps.append({"stray"})
        assert components(x) == brute_components(x.vertices, x.edges.values())
        cuts = cutpoints(x)
        cuts.add("stray")
        assert cutpoints(x) == brute_cutpoints(x)
        assert isinstance(x.face_vertices(next(iter(x.faces))), tuple)


class TestReductionCellData:
    test_handed_on_values_match_a_fresh_derivation = differential_test("reduction")


class TestMergeFreeReduction:
    test_it_equals_the_quotient_path = differential_test("merge-free reduction")

    def test_a_complex_with_two_labels_in_an_orbit_takes_the_quotient_path(self):
        x = make_complex(
            "abcd", {"ab": "ab", "bc": "bc", "ac": "ac", "cd": "cd", "bd": "bd"},
            {"t1": ("ab", "bc", "ac"), "t2": ("bc", "cd", "bd")},
            stab={"t1": "F", "t2": "G"}, orbit={"t1": "o", "t2": "o"},
        )
        assert x.is_simplicial() and not x.cell_labels_reduced
        groups = GroupTable([GroupRef("F"), GroupRef("G")])
        out, cell_map = reduce_with_map(x, groups)
        assert out.stab["t1"] == out.stab["t2"] == "red.0" and groups._mint_counter == 1


class TestPieceCellData:
    test_handed_on_values_match_a_fresh_derivation = differential_test("pieces")


class TestLabelChecks:
    """Validation and resolution check each distinct label once and raise
    as the walk of every cell does, on complexes with some labels redrawn."""

    test_each_label_is_checked_once = differential_test("mislabelled complex")


class TestFreshSeparator:
    """``fresh_separator`` returns ``sep`` without minting when no taken
    id contains it; otherwise it lengthens ``sep`` as its definition
    (``oracles.separator_by_minting``) does."""

    @pytest.mark.parametrize(
        "taken, sep, expected, mints",
        [
            ({"a", "b0", "c"}, ".", ".", 0),
            (set(), ":", ":", 0),
            ({"x.y", "a..0"}, ".", ".", 1),
            ({"a.0", "z"}, ".", "..", 2),
            ({"a.0", "a..0", ".c"}, ".", "...", 3),
            ({"b:1", "q"}, ":", "::", 2),
            ({"bb1", "abb0"}, "b", "bbb", 3),
        ],
    )
    def test_taken_sets_with_and_without_dotted_ids(self, taken, sep, expected, mints):
        calls, oracle_calls = [], []
        assert complexes.fresh_separator((taken,), minting(calls), sep) == expected
        assert separator_by_minting(taken, minting(oracle_calls), sep) == expected
        assert len(calls) == mints

    test_random_taken_sets_match_the_definition = differential_test("taken ids")


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
    """The check of a complex built whole, by the oracles'
    ``wire_and_validate`` (the collapse and the contraction by
    construction), skips only the containments its wiring has just
    declared: every other bad label fails as in ``validate_complex``.  No
    surgery step of the package builds a complex whole: each builds its
    result in one pass through the quotient step."""

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

    def test_an_orbit_error_names_the_first_orbit_in_cell_order(self):
        """The one-pass label check first fails at vertex c (orbit o2), but
        the error names o1, the first orbit met in cell order with two
        labels, as the per-orbit label sets word it."""
        orbit = {c: c for c in ("bc", "ac", "t")} | {"a": "o1", "ab": "o1", "b": "o2", "c": "o2"}
        stab = {c: "A" for c in ("a", "b", "bc", "ac")} | {"c": "B", "ab": "B", "t": "C"}
        x = _labelled_triangle(orbit=orbit, stab=stab)
        with pytest.raises(ConsistencyError, match=r"^orbit 'o1' carries several stabilizer labels: \['A', 'B'\]$"):
            complexes._validate_orbit_labels(x)

    def test_the_skipped_containments_are_the_declared_ones(self):
        x = _labelled_triangle(stab={c: "A" for c in ("a", "b", "ab", "bc", "ac")} | {"c": "B", "t": "B"})
        groups = _order()
        with pytest.raises(ConsistencyError, match="face 't' stabilizer 'B' not declared inside edge"):
            validate_complex(x, groups)
        wire_and_validate(x, groups)
        validate_complex(x, groups)
        assert groups.leq("B", "A") and groups.leq("A", "B")


def test_parsing_checks_each_distinct_containment_pair_once(monkeypatch):
    """Parsing a labelled grid asks ``GroupTable.leq`` once per distinct
    (label, label above) pair of its complex's containments, and parsing
    an unlabelled beads fixture, every cell of which carries the trivial
    group, asks it nothing at all."""
    grid, beads = workloads.grid(random.Random(1), 4, 8, 2), workloads.beads(random.Random(1), 32, 2, 2)
    counts, inside = Counter(), Counter()
    nest(monkeypatch, inside, complexes, "validate_complex")
    spy(monkeypatch, counts, GroupTable, "leq", leq=lambda frame, *args: 1, checked=lambda frame, *args: bool(inside["validate_complex"]))
    (x,) = parse_text(grid.text).complexes.values()
    pairs = {(label, above) for _cell, label, _above, above in complexes._containments(x)}
    assert counts["checked"] == len(pairs) > 1
    counts.clear()
    parse_text(beads.text)
    assert counts["leq"] == 0


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


class TestIsReduced:
    test_matches_reduce_giving_back_the_complex = differential_test("is reduced")


class TestRelabel:
    test_a_relabelled_complex_matches_a_fresh_build = differential_test("relabel")

    @pytest.mark.parametrize("seed", range(10))
    def test_an_added_oriented_label_makes_a_complex_reduced(self, seed):
        rng = random.Random(seed)
        x, groups = random_labelled_complex(rng, "tree")
        reduced = reduce_complex(x, groups)
        eid = rng.choice(sorted(reduced.edges))
        missing = {e: g for e, g in reduced.stab_plus.items() if e != eid}
        unreduced = dataclasses.replace(reduced, stab_plus=missing)
        assert reduced.is_reduced and not unreduced.is_reduced
        assert relabelled(unreduced, {**missing, eid: "P"}).is_reduced
        assert not relabelled(reduced, missing).is_reduced


def test_components_blocks_and_rank_computed_once_per_complex(monkeypatch):
    """A benchmark chain run overrides an oriented stabilizer at every
    level, and each relabelled complex shares the cell data of the one it
    relabels.  So the run computes the 1-skeleton blocks, whose search
    gives the components too, and the boundary rank at most once per cell
    data, however often connectivity, h1 and cutpoints are checked, and as
    often at horizon 8 as at horizon 64; no cell data runs a components
    search of its own."""

    def derivations(horizon):
        op, log, names = workloads.chain(random.Random(1), horizon), defaultdict(list), ("components", "blocks", "_gf2_rank")

        def cell_data(frame, *args):  # the cell data being derived, held so that no id is reused
            if frame.f_globals["__name__"] == "passdown.complexes":
                assert isinstance(frame.f_locals["self"], complexes.CellData)
                return frame.f_locals["self"]

        with monkeypatch.context() as m:
            for name in names:
                record(m, log, complexes if name == "_gf2_rank" else graphs, name, cell_data)
            rep = run_pipeline(parse_text(op.text), op.pipeline)
        assert rep.horizon == horizon and rep.certificate_level == op.expected.cert_level
        assert rep.ledger == op.expected.ledger
        assert not log["components"]
        for name in names[1:]:
            assert max(Counter(map(id, log[name])).values()) == 1, name
        return {name: len(log[name]) for name in names}

    assert derivations(8) == derivations(64)
