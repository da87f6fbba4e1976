import itertools
import random

import pytest

from passdown.errors import ConsistencyError, FixtureError, HypothesisError
from passdown.groups import GroupRef, GroupTable
from passdown.trees import (
    ActionDescriptor,
    axis_core,
    check_reduced,
    classify_subgroup_action,
    make_gog,
    make_tree,
    minimal_invariant_subtree,
    reduced_path,
)

from generators import random_treehat
from oracles import bfs_path, classification_oracle


def path_tree(n=5, ideals=("p", "q")):
    verts = [f"x{i}" for i in range(n)]
    edges = {f"f{i}": (f"x{i}", f"x{i+1}") for i in range(n - 1)}
    ideal = {}
    if ideals:
        ideal[ideals[0]] = ("x1", "x0")
        if len(ideals) > 1:
            ideal[ideals[1]] = (f"x{n-2}", f"x{n-1}")
    return make_tree(verts, edges, ideal)


def is_constant(p):
    """A path between one ideal point and itself, or with at most one
    vertex and no ideal end."""
    return p.constant_ideal is not None or (len(p.vertices) <= 1 and p.start_ideal is None and p.end_ideal is None)


def ell(*fixed, group=None):
    return ActionDescriptor(kind="elliptic", fixed=frozenset(fixed), group=group)


def hyp(p, q, swaps=False, length=1, group=None):
    return ActionDescriptor(
        kind="hyperbolic", ends=(p, q), swaps_ends=swaps, translation_length=length, group=group
    )


class TestReducedPath:
    def test_adjacent_vertices(self):
        t = path_tree()
        assert reduced_path(t, "x0", "x1").vertices == ("x0", "x1")

    def test_same_ideal_point_is_constant(self):
        t = path_tree()
        p = reduced_path(t, "p", "p")
        assert p.constant_ideal == "p"
        assert is_constant(p)

    def test_between_ideal_points(self):
        t = path_tree(5)
        p = reduced_path(t, "p", "q")
        assert p.vertices == ("x0", "x1", "x2", "x3", "x4")
        assert p.start_ideal == "p" and p.end_ideal == "q"

    def test_matches_bfs_oracle(self):
        rng = random.Random(7)
        for _ in range(30):
            t = random_treehat(rng)
            adj = {v: sorted(t.adjacency[v]) for v in t.vertices}
            a, b = rng.sample(sorted(t.vertices), 2) if len(t.vertices) > 1 else (None, None)
            if a is None:
                continue
            assert list(reduced_path(t, a, b).vertices) == bfs_path(adj, a, b)

    def test_missing_ray_rejected(self):
        with pytest.raises(FixtureError):
            make_tree(["x0", "x1"], {"f0": ("x0", "x1")}, {"p": ()})


class TestClassification:
    def test_single_elliptic(self):
        t = path_tree()
        assert classify_subgroup_action([ell("x2")], t) == "elliptic"

    def test_common_fixed_vertex_required(self):
        t = path_tree()
        with pytest.raises(ConsistencyError):
            classify_subgroup_action([ell("x0"), ell("x4")], t)

    def test_linear_vs_dihedral(self):
        t = path_tree()
        assert classify_subgroup_action([hyp("p", "q"), hyp("p", "q")], t) == "linear"
        assert classify_subgroup_action([hyp("p", "q"), hyp("p", "q", swaps=True)], t) == "dihedral"

    def test_disjoint_axes_are_hyperbolic(self):
        # spider with four ideal legs
        verts = ["c", "a", "b", "u", "v"]
        edges = {"ea": ("c", "a"), "eb": ("c", "b"), "eu": ("c", "u"), "ev": ("c", "v")}
        ideal = {"pa": ("c", "a"), "pb": ("c", "b"), "pu": ("c", "u"), "pv": ("c", "v")}
        t = make_tree(verts, edges, ideal)
        assert classify_subgroup_action([hyp("pa", "pb"), hyp("pu", "pv")], t) == "hyperbolic"

    def test_parabolic_shares_one_end(self):
        verts = ["c", "a", "b", "u"]
        edges = {"ea": ("c", "a"), "eb": ("c", "b"), "eu": ("c", "u")}
        ideal = {"pa": ("c", "a"), "pb": ("c", "b"), "pu": ("c", "u")}
        t = make_tree(verts, edges, ideal)
        assert classify_subgroup_action([hyp("pa", "pb"), hyp("pa", "pu")], t) == "parabolic"

    def test_slender_consistency_guard(self):
        verts = ["c", "a", "b", "u"]
        edges = {"ea": ("c", "a"), "eb": ("c", "b"), "eu": ("c", "u")}
        ideal = {"pa": ("c", "a"), "pb": ("c", "b"), "pu": ("c", "u")}
        t = make_tree(verts, edges, ideal)
        groups = GroupTable([GroupRef("S", is_slender=True)])
        with pytest.raises(ConsistencyError):
            classify_subgroup_action(
                [hyp("pa", "pb", group="S"), hyp("pa", "pu", group="S")], t, groups
            )

    def test_permutation_invariance(self):
        t = path_tree()
        descriptors = [ell("x1", "x2"), hyp("p", "q"), hyp("p", "q", swaps=True)]
        results = {
            classify_subgroup_action(list(perm), t)
            for perm in itertools.permutations(descriptors)
        }
        assert results == {"dihedral"}


class TestMinimalSubtree:
    def test_single_axis(self):
        t = path_tree(5)
        sub = minimal_invariant_subtree([hyp("p", "q")], t)
        assert sub.vertices == ("x0", "x1", "x2", "x3", "x4")
        assert sub.ideal_points == ("p", "q")

    def test_linear_pair_gives_shared_axis(self):
        t = path_tree(4)
        sub = minimal_invariant_subtree([hyp("p", "q"), hyp("p", "q")], t)
        assert sub.vertices == tuple(sorted(axis_core(t, ("p", "q"))))

    def test_hull_of_two_overlapping_axes(self):
        # T: path x0..x3 plus a leg x2-y0; ideal points at x0, x3, y0
        verts = ["x0", "x1", "x2", "x3", "y0"]
        edges = {"f0": ("x0", "x1"), "f1": ("x1", "x2"), "f2": ("x2", "x3"), "g": ("x2", "y0")}
        ideal = {"p": ("x1", "x0"), "q": ("x2", "x3"), "r": ("x2", "y0")}
        t = make_tree(verts, edges, ideal)
        sub = minimal_invariant_subtree([hyp("p", "q"), hyp("p", "r")], t)
        # brute-force hull: union of pairwise paths between axis vertices
        expect = set(axis_core(t, ("p", "q"))) | set(axis_core(t, ("p", "r")))
        assert set(sub.vertices) == expect

    def test_requires_hyperbolic(self):
        t = path_tree()
        with pytest.raises(HypothesisError):
            minimal_invariant_subtree([ell("x0")], t)


class TestCheckReduced:
    def setup_method(self):
        self.groups = GroupTable(
            [
                GroupRef("E"),
                GroupRef("V", ),
                GroupRef("Esub", declared_supergroups=frozenset({"V"})),
            ]
        )

    def test_single_loop_circle(self):
        g = make_gog("g", {"v": "V"}, {"e": ("v", "v", "Esub")}, groups=self.groups)
        assert check_reduced(g, self.groups)

    def test_valence_two_equal_label_fails(self):
        groups = GroupTable([GroupRef("V")])
        g = make_gog(
            "g",
            {"a": "V", "b": "V", "c": "V"},
            {"e1": ("a", "b", "V"), "e2": ("b", "c", "V")},
            groups=groups,
        )
        assert not check_reduced(g, groups)

    def test_strictly_larger_middle_label_passes(self):
        g = make_gog(
            "g",
            {"a": "V", "b": "V", "c": "V"},
            {"e1": ("a", "b", "Esub"), "e2": ("b", "c", "Esub")},
            groups=self.groups,
        )
        assert check_reduced(g, self.groups)


class TestClassificationOracle:
    def spider(self, legs=4):
        verts = ["c"] + [f"l{i}" for i in range(legs)]
        edges = {f"e{i}": ("c", f"l{i}") for i in range(legs)}
        ideal = {f"p{i}": ("c", f"l{i}") for i in range(legs)}
        return make_tree(verts, edges, ideal)

    def test_agreement_on_enumerated_sets(self):
        t = self.spider(4)
        ideals = sorted(t.ideal_points)
        axes = list(itertools.combinations(ideals, 2))
        singles = [hyp(p, q) for p, q in axes] + [hyp(p, q, swaps=True) for p, q in axes]
        singles += [ell("c"), ell("l0"), ell("c", "l1")]
        rng = random.Random(3)
        sets = [list(c) for c in itertools.combinations(singles, 2)]
        sets += [rng.sample(singles, 3) for _ in range(60)]
        for descriptors in sets:
            try:
                expect = classification_oracle(descriptors)
            except ValueError:
                with pytest.raises(ConsistencyError):
                    classify_subgroup_action(descriptors, t)
                continue
            try:
                got = classify_subgroup_action(descriptors, t)
            except ConsistencyError:
                # engine-only consistency guards (elliptic off the shared axis)
                assert expect in ("linear", "dihedral")
                continue
            assert got == expect
