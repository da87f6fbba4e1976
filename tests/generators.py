"""Seeded random fixture generators shared by the unit and acceptance
suites.  Everything is driven by an explicit random.Random so runs are
reproducible."""

import random

from passdown.complexes import make_complex
from passdown.trees import make_tree


def random_cell_complex(rng: random.Random, max_vertices=12, allow_bigons=True):
    """A random triangle/bigon cell complex (multi-edges allowed)."""
    n = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(n)]
    edges = {}
    eid = 0
    pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]]
    rng.shuffle(pairs)
    for a, b in pairs[: rng.randint(0, min(len(pairs), 2 * n))]:
        for _ in range(rng.choice((1, 1, 1, 2))):
            edges[f"e{eid}"] = (a, b)
            eid += 1
    faces = {}
    fid = 0
    by_pair = {}
    for e, (a, b) in edges.items():
        by_pair.setdefault(frozenset((a, b)), []).append(e)
    # bigons over parallel pairs
    if allow_bigons:
        for pair, es in by_pair.items():
            if len(es) >= 2 and rng.random() < 0.5:
                faces[f"b{fid}"] = (es[0], es[1])
                fid += 1
    # triangles over closing edge triples
    vlist = list(edges.items())
    for _ in range(rng.randint(0, 2 * n)):
        if len(verts) < 3:
            break
        a, b, c = rng.sample(verts, 3)
        try:
            e1 = rng.choice(by_pair[frozenset((a, b))])
            e2 = rng.choice(by_pair[frozenset((b, c))])
            e3 = rng.choice(by_pair[frozenset((a, c))])
        except KeyError:
            continue
        faces[f"t{fid}"] = (e1, e2, e3)
        fid += 1
    orbit = {}
    # group some triangles into shared orbits to exercise covolume counting
    tri = [f for f, es in faces.items() if len(es) == 3]
    for i, f in enumerate(tri):
        orbit[f] = f"to{rng.randint(0, max(1, len(tri) // 2))}" if rng.random() < 0.4 else f
    # same-orbit triangles must share labels; default labels make that true
    return make_complex(verts, edges, faces, orbit=orbit)


def random_simplicial_complex(rng: random.Random, max_vertices=8):
    """A random simplicial 2-complex (no multi-edges, no bigons)."""
    n = rng.randint(1, max_vertices)
    verts = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]]
    rng.shuffle(pairs)
    chosen = pairs[: rng.randint(0, len(pairs))]
    edges = {f"e{i}": p for i, p in enumerate(chosen)}
    by_pair = {frozenset(p): e for e, p in edges.items()}
    faces = {}
    fid = 0
    seen = set()
    for _ in range(rng.randint(0, 2 * n)):
        if n < 3:
            break
        a, b, c = rng.sample(verts, 3)
        key = frozenset((a, b, c))
        if key in seen:
            continue
        try:
            es = (by_pair[frozenset((a, b))], by_pair[frozenset((b, c))], by_pair[frozenset((a, c))])
        except KeyError:
            continue
        seen.add(key)
        faces[f"t{fid}"] = es
        fid += 1
    return make_complex(verts, edges, faces)


def random_strip_chain(rng: random.Random, parallel=0.0):
    """One to three triangulated strips glued end to end at a vertex: each
    strip is a ladder of one to four squares, each cut by a random diagonal
    into two triangles, so a draw has two triangles per square and its
    glue vertices are cutpoints.  Ids, edge ends, side orders and the
    order of the cells are random, so the complex is rarely stored in
    canonical order.  With probability ``parallel`` an edge gets a parallel
    copy; each triangle on it takes one of the two at random, the two
    bound a bigon half the time, and a triangle all of whose sides have
    copies is doubled on the same three vertices half the time."""
    pairs, triples = [], []
    verts = ["s0"]
    for k in range(rng.randint(1, 3)):
        u = [verts[-1]] + [f"u{k}.{i}" for i in range(1, rng.randint(1, 4) + 1)]
        w = [f"w{k}.{i}" for i in range(len(u))]
        verts += u[1:] + w
        pairs += [(w[0], u[0])]
        for i in range(len(u) - 1):
            if rng.random() < 0.5:
                diagonal, apexes = (u[i], w[i + 1]), (u[i + 1], w[i])
            else:
                diagonal, apexes = (u[i + 1], w[i]), (u[i], w[i + 1])
            pairs += [(u[i], u[i + 1]), (w[i], w[i + 1]), (u[i + 1], w[i + 1]), diagonal]
            triples += [(*diagonal, apex) for apex in apexes]
        if rng.random() < 0.5:  # the next strip starts at the far end of the u rail
            verts.append(verts.pop(verts.index(u[-1])))
    edge_ids = [f"e{i}" for i in rng.sample(range(2 * len(pairs)), 2 * len(pairs))]
    copies, edges = {}, []
    for a, b in pairs:
        ends = (a, b) if rng.random() < 0.5 else (b, a)
        ids = [edge_ids.pop() for _ in range(2 if rng.random() < parallel else 1)]
        copies[frozenset(ends)] = ids
        edges += [(eid, ends) for eid in ids]
    faces = []
    for tri in triples:
        sides = [copies[frozenset(p)] for p in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2]))]
        for _ in range(2 if all(len(ids) == 2 for ids in sides) and rng.random() < 0.5 else 1):
            faces.append(rng.sample([rng.choice(ids) for ids in sides], 3))
    faces += [ids for ids in copies.values() if len(ids) == 2 and rng.random() < 0.5]
    face_ids = [f"t{i}" for i in rng.sample(range(len(faces)), len(faces))]
    rng.shuffle(edges)
    rng.shuffle(faces)
    return make_complex(verts, dict(edges), dict(zip(face_ids, faces)))


def random_labelled_complex(rng: random.Random, shape="simplicial"):
    """A random complex of one of the shapes in this module (``shape`` is
    "simplicial", "cell" without bigons, "tree", "glued", "strip" or
    "doubled", a strip chain with parallel edges and bigons), relabelled over a small
    declared order: vertices in V1 or V2, edges in E (below both) or the
    trivial group, triangles in F (below E) when every side is in E, some
    triangles sharing an orbit with a like-labelled one, some edges with an
    oriented label P, some vertices boundary-marked.  Returns (complex,
    group table)."""
    from passdown.groups import GroupRef, GroupTable

    groups = GroupTable(
        [
            GroupRef("V1"),
            GroupRef("V2"),
            GroupRef("E", declared_supergroups=frozenset({"V1", "V2"})),
            GroupRef("F", declared_supergroups=frozenset({"E"})),
            GroupRef("P"),
        ]
    )
    shape = {
        "simplicial": lambda: random_simplicial_complex(rng),
        "cell": lambda: random_cell_complex(rng, allow_bigons=False),
        "tree": lambda: random_triangle_tree_complex(rng, n_triangles=rng.randint(1, 9)),
        "glued": lambda: random_edge_glued_complex(rng, n_triangles=rng.randint(1, 9)),
        "strip": lambda: random_strip_chain(rng),
        "doubled": lambda: random_strip_chain(rng, parallel=0.4),
    }[shape]()
    stab = {v: rng.choice(("V1", "V2")) for v in sorted(shape.vertices)}
    stab.update({eid: rng.choice(("E", "1")) for eid in sorted(shape.edges)})
    orbit, stab_plus = {}, {}
    for fid in sorted(shape.faces):
        stab[fid] = "F" if all(stab[e] == "E" for e in shape.faces[fid]) else "1"
        if rng.random() < 0.4:
            orbit[fid] = f"o.{stab[fid]}.{rng.randint(0, 1)}"
    for eid in sorted(shape.edges):
        if rng.random() < 0.3:
            stab_plus[eid] = "P"
    marked = [v for v in sorted(shape.vertices) if rng.random() < 0.3]
    x = make_complex(
        shape.vertices, shape.edges, shape.faces, stab=stab, orbit=orbit,
        boundary_marked=marked, stab_plus=stab_plus, groups=groups,
    )
    return x, groups


def random_triangle_tree_complex(rng: random.Random, n_triangles=5, marked=2):
    """Connected simplicial complex with h1 = 0, grown triangle by triangle.

    Each step glues a fresh triangle along one existing edge, at one
    existing vertex, or closes a fan corner (adding one new edge over two
    existing ones sharing a vertex); all three moves preserve h1 = 0.
    """
    verts = ["v0", "v1", "v2"]
    edges = {"e0": ("v0", "v1"), "e1": ("v1", "v2"), "e2": ("v0", "v2")}
    faces = {"t0": ("e0", "e1", "e2")}
    vn, en, tn = 3, 3, 1
    by_pair = {frozenset(p): e for e, p in edges.items()}

    def add_edge(a, b):
        nonlocal en
        key = frozenset((a, b))
        if key in by_pair:
            return by_pair[key], False
        eid = f"e{en}"
        en += 1
        edges[eid] = (a, b)
        by_pair[key] = eid
        return eid, True

    tri_keys = {frozenset(("v0", "v1", "v2"))}
    while tn < n_triangles:
        move = rng.random()
        if move < 0.5:
            # glue along an existing edge with a fresh apex
            eid = rng.choice(sorted(edges))
            a, b = edges[eid]
            c = f"v{vn}"
            vn += 1
            verts.append(c)
            ea, _ = add_edge(a, c)
            eb, _ = add_edge(b, c)
            faces[f"t{tn}"] = (eid, ea, eb)
            tri_keys.add(frozenset((a, b, c)))
            tn += 1
        elif move < 0.8:
            # fresh triangle hanging off one existing vertex
            a = rng.choice(verts)
            b, c = f"v{vn}", f"v{vn+1}"
            vn += 2
            verts.extend((b, c))
            e1, _ = add_edge(a, b)
            e2, _ = add_edge(b, c)
            e3, _ = add_edge(a, c)
            faces[f"t{tn}"] = (e1, e2, e3)
            tri_keys.add(frozenset((a, b, c)))
            tn += 1
        else:
            # close a corner: two edges at a shared vertex, new third side
            v = rng.choice(verts)
            nbrs = sorted({w for p in by_pair for w in p if v in p and w != v})
            if len(nbrs) < 2:
                continue
            a, b = rng.sample(nbrs, 2)
            if frozenset((v, a, b)) in tri_keys or frozenset((a, b)) in by_pair:
                continue
            e3, fresh = add_edge(a, b)
            if not fresh:
                continue
            faces[f"t{tn}"] = (by_pair[frozenset((v, a))], e3, by_pair[frozenset((v, b))])
            tri_keys.add(frozenset((v, a, b)))
            tn += 1
    boundary = rng.sample(verts, min(marked, len(verts)))
    return make_complex(verts, edges, faces, boundary_marked=boundary)


def random_treehat(rng: random.Random, max_vertices=8, n_ideal=2):
    """Random tree with some ideal points attached to leaves."""
    n = rng.randint(2, max_vertices)
    verts = [f"x{i}" for i in range(n)]
    edges = {}
    for i in range(1, n):
        j = rng.randrange(i)
        edges[f"f{i}"] = (verts[j], verts[i])
    deg = {v: 0 for v in verts}
    for u, v in edges.values():
        deg[u] += 1
        deg[v] += 1
    leaves = [v for v in verts if deg[v] == 1]
    rng.shuffle(leaves)
    ideal = {}
    adj = {v: [] for v in verts}
    for u, v in edges.values():
        adj[u].append(v)
        adj[v].append(u)
    for k, leaf in enumerate(leaves[:n_ideal]):
        # ray: the leaf plus its neighbor, oriented toward the leaf
        ray = (adj[leaf][0], leaf) if adj[leaf] else (leaf,)
        ideal[f"p{k}"] = ray
    return make_tree(verts, edges, ideal)


def random_edge_glued_complex(rng: random.Random, n_triangles=6):
    """Edge-connected triangle mass with h1 = 0 and no cutpoints; every
    edge lies in a triangle."""
    verts = ["a0", "a1", "a2"]
    edges = {"e0": ("a0", "a1"), "e1": ("a1", "a2"), "e2": ("a0", "a2")}
    faces = {"t0": ("e0", "e1", "e2")}
    by_pair = {frozenset(p): e for e, p in edges.items()}
    tri_keys = {frozenset(verts)}
    en, vn, tn = 3, 3, 1

    def add_edge(a, b):
        nonlocal en
        key = frozenset((a, b))
        if key in by_pair:
            return by_pair[key], False
        eid = f"e{en}"
        en += 1
        edges[eid] = (a, b)
        by_pair[key] = eid
        return eid, True

    while tn < n_triangles:
        if rng.random() < 0.75:
            # glue a fresh apex along an existing edge
            eid = rng.choice(sorted(edges))
            a, b = edges[eid]
            c = f"a{vn}"
            vn += 1
            verts.append(c)
            ea, _ = add_edge(a, c)
            eb, _ = add_edge(b, c)
            faces[f"t{tn}"] = (eid, ea, eb)
            tri_keys.add(frozenset((a, b, c)))
            tn += 1
        else:
            # close a corner over two edges at a shared vertex
            v = rng.choice(verts)
            nbrs = sorted({w for p in by_pair for w in p if v in p and w != v})
            if len(nbrs) < 2:
                continue
            a, b = rng.sample(nbrs, 2)
            if frozenset((v, a, b)) in tri_keys or frozenset((a, b)) in by_pair:
                continue
            e3, fresh = add_edge(a, b)
            if not fresh:
                continue
            faces[f"t{tn}"] = (by_pair[frozenset((v, a))], e3, by_pair[frozenset((v, b))])
            tri_keys.add(frozenset((v, a, b)))
            tn += 1
    return make_complex(verts, edges, faces)


def random_triangle_partition(rng: random.Random, x, n_classes=None):
    """Partition the triangles into edge-connected groups (class stand-ins)."""
    tris = sorted(x.triangles())
    adjacency = {}
    for t in tris:
        adjacency[t] = set()
    for t in tris:
        for s in tris:
            if t != s and set(x.faces[t]) & set(x.faces[s]):
                adjacency[t].add(s)
    n_classes = n_classes or rng.randint(1, max(1, len(tris) // 2))
    seeds = rng.sample(tris, min(n_classes, len(tris)))
    owner = {t: None for t in tris}
    frontier = []
    for i, s in enumerate(seeds):
        owner[s] = i
        frontier.append(s)
    while frontier:
        t = frontier.pop(rng.randrange(len(frontier)))
        for s in sorted(adjacency[t]):
            if owner[s] is None:
                owner[s] = owner[t]
                frontier.append(s)
    # unreachable triangles (disconnected masses) become their own classes
    nxt = len(seeds)
    for t in tris:
        if owner[t] is None:
            owner[t] = nxt
            nxt += 1
    groups = {}
    for t, o in owner.items():
        groups.setdefault(o, set()).add(t)
    return [frozenset(g) for _, g in sorted(groups.items())]


def splitting_fixture(rng: random.Random, max_triangles=6, tree_size=5):
    """A complex, tree and type-I resolution satisfying the connectivity
    lemma's hypotheses: connected, h1 = 0, cutpoints elliptic."""
    from passdown.resolution import resolution_from_images
    from passdown.complexes import cutpoints as _cutpoints

    x = random_triangle_tree_complex(rng, n_triangles=rng.randint(2, max_triangles), marked=rng.randint(1, 3))
    t = random_treehat(rng, max_vertices=tree_size, n_ideal=rng.choice((0, 1, 2)))
    cuts = _cutpoints(x)
    images = {}
    ideal_ids = sorted(t.ideal_points)
    for v in sorted(x.vertices):
        if ideal_ids and v not in cuts and rng.random() < 0.15:
            images[v] = rng.choice(ideal_ids)
        else:
            images[v] = rng.choice(sorted(t.vertices))
    res = resolution_from_images(x, t, images)
    if res.kind != "splitting":
        return None
    return x, t, res


class DepthBoundGenerator:
    """Scripted (JSJ hierarchy, auxiliary hierarchy, restriction table)
    triples that satisfy the depth-bound hypotheses by construction."""

    def __init__(self, rng: random.Random):
        from passdown.groups import GroupTable
        from passdown.hierarchy import RestrictionTable

        self.rng = rng
        self.groups = GroupTable()
        self.tables = RestrictionTable()
        self.counter = 0

    def fresh(self, prefix, sups=(), slender=False):
        ref = self.groups.mint(prefix, supergroups=sups, slender=slender, h_elliptic=True)
        return ref.id

    def _gog(self, name, vertex_groups, flags=None, jsj=False):
        from passdown.trees import make_gog

        vertices = {f"v{i}": g for i, g in enumerate(vertex_groups)}
        edges = {}
        ids = sorted(vertices)
        for a, b in zip(ids, ids[1:]):
            eid = self.fresh("edge", sups={vertices[a], vertices[b]}, slender=True)
            edges[f"ed{len(edges)}.{name}"] = (a, b, eid)
        return make_gog(name, vertices, edges, flags=flags, jsj=jsj, groups=self.groups)

    def make_k(self, depth, name):
        from passdown.hierarchy import HNode, Hierarchy

        nodes = {}

        def grow(gid, d, prefix):
            nid = f"{prefix}"
            node = HNode(id=nid, group=gid)
            nodes[nid] = node
            if d == 0:
                return nid
            width = self.rng.randint(1, 2)
            children_groups = [self.fresh("kg") for _ in range(width)]
            gog = self._gog(f"{name}.{prefix}", children_groups)
            node.action = gog
            for i, vid in enumerate(sorted(gog.vertices)):
                cid = grow(gog.vertices[vid], d - 1, f"{prefix}.{i}")
                node.children[vid] = cid
                nodes[cid].parent = nid
            return nid

        root_gid = self.fresh("kg")
        root = grow(root_gid, depth, f"{name}r")
        return Hierarchy(name=name, root=root, nodes=nodes)

    def _declare_elliptic_walk(self, gid, k, start_nid):
        """Declare elliptic restrictions for gid along a path to a terminal;
        returns the terminal node id."""
        from passdown.hierarchy import Restriction

        node = k.nodes[start_nid]
        while not node.is_terminal():
            vid = self.rng.choice(sorted(node.children))
            self.tables.declare(gid, node.action.name, Restriction(kind="elliptic", child=vid))
            node = k.nodes[node.children[vid]]
            self.groups.declare_leq(gid, node.group)
        return node.id

    def make_h(self, gid, k, name):
        """A JSJ hierarchy for gid consistent with the bound against k."""
        from passdown.hierarchy import HNode, Hierarchy, depth as hdepth

        nodes = {}

        def subtree(k_sub, hg, prefix):
            nid = prefix
            node = HNode(id=nid, group=hg)
            nodes[nid] = node
            if hdepth(k_sub) == 0 or self.rng.random() < 0.3:
                return nid
            width = self.rng.randint(1, 2)
            child_specs = []
            vertex_groups = []
            for _ in range(width):
                if self.rng.random() < 0.5:
                    # rigid: restrict elliptically into k_sub, ending at a
                    # terminal, so the branch bottoms out here
                    root_children = sorted(k_sub.nodes[k_sub.root].children)
                    vid0 = self.rng.choice(root_children)
                    child_k = k_sub.nodes[k_sub.nodes[k_sub.root].children[vid0]]
                    rg = self.fresh("rg", sups={child_k.group})
                    from passdown.hierarchy import Restriction

                    self.tables.declare(
                        rg, k_sub.nodes[k_sub.root].action.name,
                        Restriction(kind="elliptic", child=vid0),
                    )
                    self._declare_elliptic_walk(rg, k_sub, child_k.id)
                    child_specs.append(("rigid", rg, None))
                    vertex_groups.append(rg)
                else:
                    fg = self.fresh("fg")
                    deep = self.rng.random() < 0.5
                    child_specs.append(("flexible", fg, deep))
                    vertex_groups.append(fg)
            flags = {}
            gog = self._gog(f"{name}.{prefix}", vertex_groups, jsj=True)
            vids = sorted(gog.vertices)
            flags = {vid: spec[0] for vid, spec in zip(vids, child_specs)}
            gog = type(gog)(
                name=gog.name, vertices=gog.vertices, edges=gog.edges,
                flags=flags, reduced=gog.reduced, jsj=True,
            )
            node.action = gog
            for i, (vid, (kind, cg, deep)) in enumerate(zip(vids, child_specs)):
                cid = f"{prefix}.{i}"
                child = HNode(id=cid, group=cg, parent=nid)
                nodes[cid] = child
                node.children[vid] = cid
                if kind == "flexible" and deep:
                    # one extra level under a flexible vertex
                    g2 = self.fresh("fg2")
                    sub = self._gog(f"{name}.{cid}", [g2], jsj=True)
                    child.action = sub
                    gcid = f"{cid}.0"
                    nodes[gcid] = HNode(id=gcid, group=g2, parent=cid)
                    child.children[sorted(sub.vertices)[0]] = gcid
            return nid

        root = subtree(k, gid, f"{name}r")
        return Hierarchy(name=name, root=root, nodes=nodes, jsj=True)

    def pair(self, depth_k):
        self.counter += 1
        k = self.make_k(depth_k, f"K{self.counter}")
        h = self.make_h(self.groups[k.nodes[k.root].group].id, k, f"H{self.counter}")
        return h, k
