"""The shared graph toolkit against the brute-force oracles, on seeded
random multigraphs with parallel edges and isolated nodes."""

import random
from types import SimpleNamespace

from passdown.graphs import UnionFind, blocks, components, cut_vertices, is_tree, path, reached

from oracles import bfs_path, brute_components, brute_cutpoints


def random_multigraph(rng):
    """Nodes n0..n{k-1} (some isolated), edge id -> (u, v), u != v,
    parallel edges allowed."""
    nodes = [f"n{i}" for i in range(rng.randint(1, 12))]
    edges = {}
    if len(nodes) > 1:
        for i in range(rng.randint(0, 2 * len(nodes))):
            u, v = rng.sample(nodes, 2)
            edges[f"e{i}"] = (u, v)
            if rng.random() < 0.2:
                edges[f"p{i}"] = (v, u)
    return nodes, edges


def graphs(seed, count=300):
    rng = random.Random(seed)
    return [random_multigraph(rng) for _ in range(count)]


def test_union_find_representative_is_class_minimum():
    for nodes, edges in graphs(1):
        uf = UnionFind(nodes)
        for u, v in edges.values():
            uf.union(u, v)
        classes = uf.classes()
        assert list(classes) == sorted(classes)
        for rep, members in classes.items():
            assert rep == min(members)
            assert all(uf.find(m) == rep for m in members)
        expected = brute_components(nodes, edges.values())
        assert sorted(map(sorted, classes.values())) == sorted(map(sorted, expected))


def test_union_find_classes_over_given_items():
    uf = UnionFind()
    uf.union(("b", 2), ("a", 9))
    uf.union("z", "y")
    assert uf.classes([("b", 2)]) == {("a", 9): {("b", 2)}}
    assert uf.classes(["q"]) == {"q": {"q"}}
    assert uf.find("z") == "y"


def test_components_match_oracle_in_least_node_order():
    for nodes, edges in graphs(2):
        comps = components(nodes, edges.values())
        assert comps == brute_components(nodes, edges.values())
        assert [min(c) for c in comps] == sorted(min(c) for c in comps)


def test_components_ignore_edges_leaving_the_node_set():
    assert components({"a", "b"}, [("a", "x"), ("x", "b")]) == [{"a"}, {"b"}]
    assert components({"a", "b"}, [("b", "a")]) == [{"a", "b"}]


def test_is_tree_edge_cases():
    assert is_tree([], [])
    assert is_tree(["a"], [])
    assert not is_tree(["a"], [("a", "b")])
    assert not is_tree(["a", "b"], [("a", "x")])
    assert is_tree(["a", "b"], [("a", "b"), ("a", "b")])  # edges count as a set
    assert not is_tree(["a", "b", "c"], [("a", "b"), ("b", "a")])
    assert not is_tree(["a", "b", "c"], [("a", "b")])
    assert not is_tree(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert is_tree(["a", "b", "c"], [("a", "b"), ("c", "b")])


def test_is_tree_matches_definition():
    for nodes, edges in graphs(3):
        pairs = set(edges.values())
        expected = len(brute_components(nodes, pairs)) == 1 and len(pairs) == len(nodes) - 1
        assert is_tree(nodes, pairs) == expected


def test_blocks_partition_edges_and_give_cutpoints():
    for nodes, edges in graphs(4):
        blks = blocks(nodes, edges)
        seen = [e for _verts, eids in blks for e in eids]
        assert sorted(seen) == sorted(edges)
        for verts, eids in blks:
            if eids:
                assert verts == {w for e in eids for w in edges[e]}
            else:
                assert len(verts) == 1 and not any(verts & set(ends) for ends in edges.values())
        x = SimpleNamespace(vertices=set(nodes), edges=edges)
        assert cut_vertices(blks) == brute_cutpoints(x)


def test_blocks_keep_parallel_edges_together():
    blks = blocks(["a", "b", "c"], {"e1": ("a", "b"), "e2": ("b", "a"), "e3": ("b", "c")})
    assert sorted(sorted(eids) for _v, eids in blks) == [["e1", "e2"], ["e3"]]
    assert cut_vertices(blks) == {"b"}


def test_path_is_a_shortest_path_or_none_across_components():
    """``path`` joins two nodes of one component by a shortest path, and
    ``reached`` finds the component of its start."""
    for nodes, edges in graphs(5, count=100):
        adjacency = {}
        for u, v in edges.values():
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        comp_of = {v: i for i, comp in enumerate(brute_components(nodes, edges.values())) for v in comp}
        pairs = {frozenset(p) for p in edges.values()}
        for a in nodes:
            assert reached(adjacency, a).keys() == {v for v in nodes if comp_of[v] == comp_of[a]}
            for b in nodes:
                found = path(adjacency, a, b)
                if comp_of[a] != comp_of[b]:
                    assert found is None
                    continue
                assert found[0] == a and found[-1] == b
                assert all(frozenset(step) in pairs for step in zip(found, found[1:]))
                assert len(found) == len(bfs_path(adjacency, a, b))
