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
    """Blocks (maximal biconnected subgraphs) of a multigraph, by one
    edge-stack lowpoint DFS (Hopcroft-Tarjan 1973).

    ``edges`` maps edge id -> (u, v) with u != v and both ends in
    ``nodes``; parallel edges are distinct and lie in one block.  Returns
    (vertex set, edge id set) pairs; an isolated node is a block of its
    own with no edges.
    """
    adj = {v: [] for v in nodes}
    for eid, (u, v) in edges.items():
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    depth, low, used = {}, {}, set()
    out = []
    for root in sorted(adj):
        if root in depth:
            continue
        depth[root] = low[root] = 0
        if not adj[root]:
            out.append(({root}, set()))
            continue
        edge_stack = []
        stack = [(root, None, iter(adj[root]))]
        while stack:
            v, in_edge, it = stack[-1]
            for w, eid in it:
                if eid in used:
                    continue
                used.add(eid)
                edge_stack.append(eid)
                if w in depth:
                    low[v] = min(low[v], depth[w])
                else:
                    depth[w] = low[w] = depth[v] + 1
                    stack.append((w, eid, iter(adj[w])))
                    break
            else:
                stack.pop()
                if not stack:
                    continue
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= depth[pv]:
                    # everything pushed since the tree edge into v is one block
                    block_edges = set()
                    eid = None
                    while eid != in_edge:
                        eid = edge_stack.pop()
                        block_edges.add(eid)
                    out.append(({w for e in block_edges for w in edges[e]}, block_edges))
    return out


def cut_vertices(blks):
    """Vertices lying in two or more of the given blocks."""
    seen, cuts = set(), set()
    for verts, _edges in blks:
        cuts |= seen & verts
        seen |= verts
    return cuts
