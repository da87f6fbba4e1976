"""Graph primitives shared by the complex, stability and surgery code.

Nodes are any mutually comparable hashable values (ids, or tuples of
ids).  Everything here is deterministic: classes and components come out
ordered by their least node, and a union-find class is represented by its
least member, so ids derived from representatives do not depend on the
order in which unions happen.
"""


class UnionFind:
    """Disjoint sets; the representative of a set is its least member."""

    def __init__(self, items=()):
        self.parent = {item: item for item in items}

    def find(self, a):
        parent = self.parent
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def classes(self, items=None):
        """{representative: member set} over ``items`` (default: every item
        seen so far), in increasing representative order."""
        members = {}
        for item in self.parent if items is None else items:
            members.setdefault(self.find(item), set()).add(item)
        return {rep: members[rep] for rep in sorted(members)}


def components(nodes, edges):
    """Connected components of the graph on ``nodes``, as sets, ordered by
    their least node.  ``edges`` are (u, v) pairs; pairs with an end
    outside ``nodes`` are ignored, so this also gives the components of an
    induced subgraph."""
    adj = {v: [] for v in nodes}
    for u, v in edges:
        if u in adj and v in adj:
            adj[u].append(v)
            adj[v].append(u)
    seen = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = {start}
        todo = [start]
        while todo:
            for w in adj[todo.pop()]:
                if w not in comp:
                    comp.add(w)
                    todo.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def reached(adj, a):
    """Each node reached from ``a`` in the graph whose node -> neighbours
    map is ``adj`` -> the node it is first reached from (``a`` -> None), by
    breadth-first search that tries the neighbours in their order."""
    prev = {a: None}
    queue = [a]
    for v in queue:  # the list grows while it is walked
        for w in adj.get(v, ()):
            if w not in prev:
                prev[w] = v
                queue.append(w)
    return prev


def path(adj, a, b):
    """A shortest vertex tuple from ``a`` to ``b`` in the graph whose node ->
    neighbours map is ``adj``, through the search of ``reached``; None when
    no path joins them."""
    prev = reached(adj, a)
    if b not in prev:
        return None
    out = [b]
    while out[-1] != a:
        out.append(prev[out[-1]])
    return tuple(out[::-1])


def is_tree(nodes, edges):
    """Is the graph a tree?  Edges count as a set of (u, v) pairs; the
    empty graph is a tree and an edge leaving ``nodes`` is never part of
    one."""
    nodes, edges = set(nodes), set(edges)
    if not nodes:
        return True
    if any(u not in nodes or v not in nodes for u, v in edges):
        return False
    return len(edges) == len(nodes) - 1 and len(components(nodes, edges)) == 1


def blocks(nodes, edges):
    """Blocks (maximal biconnected subgraphs) and connected components of a
    multigraph, by one vertex-stack lowpoint DFS (Hopcroft-Tarjan 1973)
    that starts each component at its least node.

    ``edges`` maps edge id -> (u, v) with u != v and both ends in
    ``nodes``; parallel edges are distinct and lie in one block.  Returns
    (blocks, components): each block a (vertex frozenset, edge id
    frozenset) pair, an isolated node a block of its own with no edges,
    and the components as vertex frozensets ordered by their least node.
    A block is the run of the vertex stack from its first node on, with
    that node's parent; every edge joins a node to an ancestor and is filed
    after the search, in the block of its deeper end."""
    adj = {v: [] for v in nodes}
    for u, v in edges.values():
        adj[u].append(v)
        adj[v].append(u)
    depth, low, block_of = {}, {}, {}
    members, comps = [], []
    for root in sorted(adj):
        if root in depth:
            continue
        depth[root] = low[root] = 0
        comp, below = [root], []
        if not adj[root]:
            members.append([root])
        stack = [(root, iter(adj[root]), 0)]
        while stack:
            v, it, start = stack[-1]
            dv = depth[v]
            for w in it:
                dw = depth.get(w)
                if dw is None:
                    depth[w] = low[w] = dv + 1
                    comp.append(w)
                    stack.append((w, iter(adj[w]), len(below)))
                    below.append(w)
                    break
                if dw < low[v]:  # the parent's depth, over the tree edge, changes no test
                    low[v] = dw
            else:
                stack.pop()
                if not stack:
                    continue
                pv, lv = stack[-1][0], low[v]
                if lv < low[pv]:
                    low[pv] = lv
                if lv >= depth[pv]:
                    block = below[start:]
                    del below[start:]
                    block_of.update(dict.fromkeys(block, len(members)))
                    members.append(block + [pv])
        comps.append(frozenset(comp))
    block_edges = [[] for _ in members]
    for eid, (u, v) in edges.items():
        block_edges[block_of[v] if depth[v] > depth[u] else block_of[u]].append(eid)
    return [(frozenset(vs), frozenset(es)) for vs, es in zip(members, block_edges)], comps


def cut_vertices(blks):
    """Vertices lying in two or more of the given blocks."""
    seen, cuts = set(), set()
    for verts, _edges in blks:
        cuts |= seen & verts
        seen |= verts
    return cuts


def strong_components(succ):
    """Strongly connected components of the directed graph whose node ->
    successors map is ``succ`` (every successor is a key), by one
    iterative Tarjan (1972) pass.  Returns node -> the index of its
    component's root; two nodes share a component exactly when they
    reach each other."""
    index, low, comp = {}, {}, {}
    stack, on_stack = [], set()
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    w = None
                    while w != v:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp[w] = index[v]
    return comp
