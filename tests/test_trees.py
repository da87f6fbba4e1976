import itertools
import random

import pytest

from passdown.errors import ConsistencyError, FixtureError
from passdown.groups import GroupRef, GroupTable
from passdown.trees import (
    ActionDescriptor,
    check_reduced,
    classify_subgroup_action,
    make_gog,
    make_tree,
    reduced_path,
)

from differential import differential_test
from generators import line_tree, random_treehat, star
from oracles import bfs_path


def is_constant(p):
    """A path between one ideal point and itself, or with at most one
    vertex and no ideal end."""
    return p.constant_ideal is not None or (len(p.vertices) <= 1 and p.start_ideal is None and p.end_ideal is None)


def ell(*fixed, group=None):
    return ActionDescriptor(kind="elliptic", fixed=frozenset(fixed), group=group)


def hyp(p, q, swaps=False, group=None):
    return ActionDescriptor(kind="hyperbolic", ends=(p, q), swaps_ends=swaps, group=group)


class TestReducedPath:
    def test_adjacent_vertices(self):
        t = line_tree(5, ("p", "q"))
        assert reduced_path(t, "x0", "x1").vertices == ("x0", "x1")

    def test_same_ideal_point_is_constant(self):
        t = line_tree(5, ("p", "q"))
        p = reduced_path(t, "p", "p")
        assert p.constant_ideal == "p"
        assert is_constant(p)

    def test_between_ideal_points(self):
        t = line_tree(5, ("p", "q"))
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
        t = line_tree(5, ("p", "q"))
        assert classify_subgroup_action([ell("x2")], t) == "elliptic"

    def test_common_fixed_vertex_required(self):
        t = line_tree(5, ("p", "q"))
        with pytest.raises(ConsistencyError):
            classify_subgroup_action([ell("x0"), ell("x4")], t)

    def test_linear_vs_dihedral(self):
        t = line_tree(5, ("p", "q"))
        assert classify_subgroup_action([hyp("p", "q"), hyp("p", "q")], t) == "linear"
        assert classify_subgroup_action([hyp("p", "q"), hyp("p", "q", swaps=True)], t) == "dihedral"

    def test_disjoint_axes_are_hyperbolic(self):
        # spider with four ideal legs
        t = star("a", "b", "u", "v")
        assert classify_subgroup_action([hyp("pa", "pb"), hyp("pu", "pv")], t) == "hyperbolic"

    def test_parabolic_shares_one_end(self):
        t = star("a", "b", "u")
        assert classify_subgroup_action([hyp("pa", "pb"), hyp("pa", "pu")], t) == "parabolic"

    def test_slender_consistency_guard(self):
        t = star("a", "b", "u")
        groups = GroupTable([GroupRef("S", is_slender=True)])
        with pytest.raises(ConsistencyError):
            classify_subgroup_action(
                [hyp("pa", "pb", group="S"), hyp("pa", "pu", group="S")], t, groups
            )

    def test_permutation_invariance(self):
        t = line_tree(5, ("p", "q"))
        descriptors = [ell("x1", "x2"), hyp("p", "q"), hyp("p", "q", swaps=True)]
        results = {
            classify_subgroup_action(list(perm), t)
            for perm in itertools.permutations(descriptors)
        }
        assert results == {"dihedral"}


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
    test_agreement_on_enumerated_sets = differential_test("descriptor set", "spider")
