"""Seeded random fixture generators shared by the unit and acceptance
suites.  Everything is driven by an explicit random.Random so runs are
reproducible."""

import random

from passdown.complexes import make_complex
from passdown.groups import GroupRef, GroupTable
from passdown.provenance import TauFragment
from passdown.stability import LevelData, RunView, TriangleClass
from passdown.trees import make_tree

from oracles import check_consistency, compose_fragments, identity_fragment


def line_tree(n=2, ideals=()):
    """The path x0 - x1 - ... with tree edges f0, f1, ...; the first name in
    ``ideals`` is an ideal point beyond x0, the second one beyond the far
    end."""
    verts = [f"x{i}" for i in range(n)]
    edges = {f"f{i}": (f"x{i}", f"x{i+1}") for i in range(n - 1)}
    rays = [("x1", "x0"), (f"x{n-2}", f"x{n-1}")]
    return make_tree(verts, edges, dict(zip(ideals, rays)))


def triangle(face="f", **labels):
    """The triangle on a, b, c with sides ab, bc, ac; ``labels`` go to
    ``make_complex``."""
    return make_complex(["a", "b", "c"], {"ab": ("a", "b"), "bc": ("b", "c"), "ac": ("a", "c")}, {face: ("ab", "bc", "ac")}, **labels)


def star(*legs):
    """The star tree on centre c with a leaf and an ideal point p<leg> per leg."""
    return make_tree(["c", *legs], {f"e{leg}": ("c", leg) for leg in legs}, {f"p{leg}": ("c", leg) for leg in legs})


def wheel(n=3, center="v", marked=("v", "u0")):
    """The closed fan of n triangles around ``center``, rim u0 ... u{n-1}."""
    edges, faces = {}, {}
    for i in range(n):
        edges[f"sp{i}"] = (center, f"u{i}")
        edges[f"rim{i}"] = (f"u{i}", f"u{(i+1) % n}")
        faces[f"t{i}"] = (f"sp{i}", f"rim{i}", f"sp{(i+1) % n}")
    return make_complex([center] + [f"u{i}" for i in range(n)], edges, faces, boundary_marked=marked)


def open_fan(marked=()):
    """Triangles t1, t2 around v on the path a - b - c: a fan that does not close."""
    edges = {"va": ("v", "a"), "vb": ("v", "b"), "vc": ("v", "c"), "ab": ("a", "b"), "bc": ("b", "c")}
    return make_complex(["v", "a", "b", "c"], edges, {"t1": ("va", "ab", "vb"), "t2": ("vb", "bc", "vc")}, boundary_marked=marked)


def pinch():
    """Three faces of a tetrahedron, marked at a and c, over an edge x0 - x1
    that a and b map to one end of and c and d to the other: one track
    around the [a,b]|[c,d] split, whose collapse merges t1 and t2."""
    from passdown.resolution import resolution_from_images

    x = make_complex(
        ["a", "b", "c", "d"],
        {"ab": ("a", "b"), "ac": ("a", "c"), "bc": ("b", "c"), "ad": ("a", "d"), "bd": ("b", "d"), "cd": ("c", "d")},
        {"t1": ("ab", "bc", "ac"), "t2": ("ab", "bd", "ad"), "t3": ("ac", "cd", "ad")},
        boundary_marked=["a", "c"],
    )
    return x, resolution_from_images(x, line_tree(2), {"a": "x0", "b": "x0", "c": "x1", "d": "x1"})


def spider(legs=4):
    """A star tree on centre c with leaves l0 ..., an ideal point p<i> beyond each leaf."""
    edges = {f"e{i}": ("c", f"l{i}") for i in range(legs)}
    return make_tree(["c"] + [f"l{i}" for i in range(legs)], edges, {f"p{i}": ("c", f"l{i}") for i in range(legs)})


def triangle_classes(partition):
    """Triangle classes Y0, Y1, ... of one complex X, one per part."""
    return [TriangleClass(id=f"Y{i}", cid="X", triangles=frozenset(p)) for i, p in enumerate(partition)]


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
    edges with an oriented label P, some vertices boundary-marked.  Most
    draws are then the picture of a group action (``symmetric_copies``), so
    that cells share orbits as cells of an action do.  Returns (complex,
    group table)."""
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
    stab.update({fid: "F" if all(stab[e] == "E" for e in es) else "1" for fid, es in shape.faces.items()})
    stab_plus = {eid: "P" for eid in sorted(shape.edges) if rng.random() < 0.3}
    marked = [v for v in sorted(shape.vertices) if rng.random() < 0.3]
    cells = shape.vertices, shape.edges, shape.faces, stab, {}, marked, stab_plus
    if rng.random() < 0.7:
        cells = symmetric_copies(rng, *cells)
    return make_complex(*cells, groups=groups), groups


def symmetric_copies(rng: random.Random, vertices, edges, faces, stab, orbit, marked, stab_plus):
    """Two or three copies of a complex glued along one of its vertices or
    the closure of one of its faces, with the cyclic group that permutes
    the copies and fixes the glued part acting on the union: copy ``i`` of
    a cell ``c`` is ``c~i`` (copy 0 is ``c``), its orbit that of ``c``, and
    it carries the labels and marks of ``c``.  The cells of one orbit are
    carried onto each other with all their cells around them, so they have
    one label, an edge orbit one pair of end orbits and a face orbit one
    tuple of side orbits.  Gluing along a connected part keeps the union
    connected with h1 = 0 when the complex is; a glued vertex becomes a
    cutpoint.  Returns the arguments of ``make_complex`` for the union."""
    if faces and rng.random() < 0.7:
        fid = rng.choice(sorted(faces))
        fixed = {fid, *faces[fid], *(w for e in faces[fid] for w in edges[e])}
    else:
        fixed = {rng.choice(sorted(vertices))}
    moved = [c for c in (*sorted(vertices), *edges, *faces) if c not in fixed]
    vertices, edges, faces = set(vertices), dict(edges), dict(faces)
    stab, orbit, marked, stab_plus = dict(stab), dict(orbit), set(marked), dict(stab_plus)
    for i in range(1, rng.choice((2, 2, 3))):

        def copy(c):
            return c if c in fixed else f"{c}~{i}"

        vertices.update(copy(v) for v in moved if v in vertices)
        edges.update((copy(e), tuple(map(copy, edges[e]))) for e in moved if e in edges)
        faces.update((copy(f), tuple(map(copy, faces[f]))) for f in moved if f in faces)
        for c in moved:
            stab[copy(c)], orbit[copy(c)] = stab[c], orbit.get(c, c)
            if c in stab_plus:
                stab_plus[copy(c)] = stab_plus[c]
            if c in marked:
                marked.add(copy(c))
    return vertices, edges, faces, stab, orbit, sorted(marked), stab_plus


def random_triangle_tree_complex(rng: random.Random, n_triangles=5, marked=2):
    """Connected simplicial complex with h1 = 0, grown triangle by triangle.

    Each step glues a fresh triangle along one existing edge, at one
    existing vertex, or closes a fan corner (adding one new edge over two
    existing ones sharing a vertex); all three moves preserve h1 = 0.
    """
    verts, edges, faces = _grown_triangles(rng, n_triangles, "v", glue=0.5, hang=0.8)
    boundary = rng.sample(verts, min(marked, len(verts)))
    return make_complex(verts, edges, faces, boundary_marked=boundary)


def _grown_triangles(rng, n_triangles, prefix, glue, hang):
    """Triangles grown from one: while a draw is below ``glue`` a fresh apex
    is glued along an existing edge, below ``hang`` a fresh triangle hangs
    off an existing vertex, and otherwise a corner over two edges at a
    shared vertex is closed by a new third side.  Returns the vertex list
    and the edge and face dicts."""
    verts = [f"{prefix}0", f"{prefix}1", f"{prefix}2"]
    edges = {"e0": (verts[0], verts[1]), "e1": (verts[1], verts[2]), "e2": (verts[0], verts[2])}
    faces = {"t0": ("e0", "e1", "e2")}
    by_pair = {frozenset(p): e for e, p in edges.items()}
    tri_keys = {frozenset(verts)}

    def add_edge(a, b):
        key = frozenset((a, b))
        if key in by_pair:
            return by_pair[key], False
        eid = by_pair[key] = f"e{len(edges)}"
        edges[eid] = (a, b)
        return eid, True

    def add_face(a, b, c, sides):
        faces[f"t{len(faces)}"] = sides
        tri_keys.add(frozenset((a, b, c)))

    def fresh():
        verts.append(f"{prefix}{len(verts)}")
        return verts[-1]

    while len(faces) < n_triangles:
        move = rng.random()
        if move < glue:
            # glue along an existing edge with a fresh apex
            eid = rng.choice(sorted(edges))
            a, b = edges[eid]
            c = fresh()
            add_face(a, b, c, (eid, add_edge(a, c)[0], add_edge(b, c)[0]))
        elif move < hang:
            # fresh triangle hanging off one existing vertex
            a = rng.choice(verts)
            b, c = fresh(), fresh()
            add_face(a, b, c, (add_edge(a, b)[0], add_edge(b, c)[0], add_edge(a, c)[0]))
        else:
            # close a corner: two edges at a shared vertex, new third side
            v = rng.choice(verts)
            nbrs = sorted({w for p in by_pair for w in p if v in p and w != v})
            if len(nbrs) < 2:
                continue
            a, b = rng.sample(nbrs, 2)
            if frozenset((v, a, b)) in tri_keys or frozenset((a, b)) in by_pair:
                continue
            e3, _ = add_edge(a, b)
            add_face(v, a, b, (by_pair[frozenset((v, a))], e3, by_pair[frozenset((v, b))]))
    return verts, edges, faces


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
    return make_complex(*_grown_triangles(rng, n_triangles, "a", glue=0.75, hang=0.75))


def random_wedge(rng: random.Random, n_parts=3):
    """Edge-glued triangle masses, each but the first glued to an earlier
    one at a single vertex, which is then a cutpoint."""
    verts, edges, faces = [], {}, {}
    for k in range(n_parts):
        vs, es, fs = _grown_triangles(rng, rng.randint(1, 6), f"m{k}.", glue=0.75, hang=0.75)
        at = {vs[0]: rng.choice(verts)} if verts else {}
        verts += [v for v in vs if v not in at]
        edges.update((f"{eid}.{k}", tuple(at.get(w, w) for w in ends)) for eid, ends in es.items())
        faces.update((f"{fid}.{k}", tuple(f"{eid}.{k}" for eid in sides)) for fid, sides in fs.items())
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
    ideal_ids = sorted(t.ideal_points)

    def draw(vertices):
        if ideal_ids and cuts.isdisjoint(vertices) and rng.random() < 0.15:
            return rng.choice(ideal_ids)
        return rng.choice(sorted(t.vertices))

    res = resolution_from_images(x, t, orbit_images(x, draw))
    if res.kind != "splitting":
        return None
    return x, t, res


def orbit_images(x, draw):
    """Vertex images of x, one per vertex orbit: ``draw(vertices)`` on the
    sorted vertices of each orbit, in sorted orbit order, is the image of
    each of them, so the vertices of one orbit map to one tree orbit."""
    members = {}
    for v in sorted(x.vertices):
        members.setdefault(x.orbit[v], []).append(v)
    return {v: image for oid in sorted(members) for image in (draw(members[oid]),) for v in members[oid]}


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


def tau_from_fragment(cid_src, cid_dst, frag):
    """A fragment from complex ``cid_src`` to ``cid_dst`` keyed (complex
    id, face id)."""
    return TauFragment(
        triangle_map={(cid_src, f): None if img is None else (cid_dst, img) for f, img in frag.triangle_map.items()},
        edge_map={((cid_src, f), e): img for (f, e), img in frag.edge_map.items()},
    )


def random_fragment(rng, x, y, same, calm=False):
    """A TauFragment from x to y.  When ``same`` (y is x), a triangle
    survives, survives with two side images swapped, or merges onto a
    neighbour; otherwise it merges onto a random triangle of y, each side
    going to some side of the image.  Any triangle may drop.  Sometimes a
    second step of drops on y follows.  A ``calm`` step between equal
    complexes only keeps triangles, some with two side images swapped."""
    tri, edge = {}, {}
    targets = sorted(y.triangles())
    for f in sorted(x.triangles()):
        r = rng.uniform(0.1, 0.8) if calm else rng.random()
        sides = x.faces[f]
        neighbours = [t for t in targets if t != f and set(y.faces[t]) & set(sides)] if same else []
        if r < 0.1:
            tri[f] = None
        elif same and r < 0.8:
            tri[f] = f
            images = list(sides)
            if r >= 0.7:  # swap the images of two sides
                i, j = rng.sample(range(len(sides)), 2)
                images[i], images[j] = images[j], images[i]
            edge.update(((f, e), img) for e, img in zip(sides, images))
        else:
            tri[f] = rng.choice(neighbours if neighbours and r < 0.9 else targets)
            edge.update(((f, e), rng.choice(y.faces[tri[f]])) for e in sides)
    frag = TauFragment(triangle_map=tri, edge_map=edge)
    if not calm and rng.random() < 0.3:
        drops = identity_fragment(y)
        for f in targets:
            if rng.random() < 0.2:
                drops.triangle_map[f] = None
        frag = compose_fragments(frag, drops)
    check_consistency(frag, x, y)
    return frag


def random_run(rng):
    """Two random complexes carried to a random horizon by random
    fragments, plus a third one that splits into the other two at a random
    level, so that N_delta varies; steps from a random level on are calm,
    so that N' and N'' vary."""
    fixed = {"A": random_edge_glued_complex(rng, rng.randint(2, 7)), "B": random_simplicial_complex(rng)}
    extra = random_edge_glued_complex(rng, rng.randint(1, 4))
    horizon = rng.randint(1, 6)
    extra_until = rng.randint(0, horizon)
    calm_from = rng.randint(extra_until, horizon)
    levels = [
        LevelData(complexes={**fixed, **({"C": extra} if n < extra_until else {})})
        for n in range(horizon + 1)
    ]
    taus = []
    for n in range(horizon):
        tri, edge = {}, {}
        for cid, x in levels[n].complexes.items():
            if cid in levels[n + 1].complexes:
                dsts = [cid]
            else:  # the vanishing complex splits between the others
                dsts = [d for d in ("A", "B") if levels[n + 1].complexes[d].triangles()]
            options = [
                tau_from_fragment(cid, d, random_fragment(rng, x, levels[n + 1].complexes[d], d == cid, n >= calm_from))
                for d in dsts
            ]
            for f in sorted(x.triangles()):
                tau = rng.choice(options)
                tri[(cid, f)] = tau.triangle_map[(cid, f)]
                edge.update({(key, e): img for (key, e), img in tau.edge_map.items() if key == (cid, f)})
        taus.append(TauFragment(triangle_map=tri, edge_map=edge))
    return RunView(levels=levels, taus=taus, groups=GroupTable())


def renamed_run(rng, run):
    """The run with a copy of a random level n inserted after it, its
    complexes under new ids, reached by a step that renames all of them
    or, per complex, either renames it or maps it face by face; the old
    tau_n follows from the copy."""
    n = rng.randint(0, run.horizon)
    complexes = run.levels[n].complexes
    whole = rng.random() < 0.5
    step = TauFragment()
    for cid, x in complexes.items():
        if whole or rng.random() < 0.5:
            step.renamed[cid] = cid + "'"
        else:
            step.update(tau_from_fragment(cid, cid + "'", identity_fragment(x)))
    copy = LevelData(complexes={cid + "'": x for cid, x in complexes.items()})
    taus = run.taus[:n] + [step]
    if n < run.horizon:
        old = run.taus[n]
        taus.append(
            TauFragment(
                triangle_map={(cid + "'", f): img for (cid, f), img in old.triangle_map.items()},
                edge_map={((cid + "'", f), e): img for ((cid, f), e), img in old.edge_map.items()},
            )
        )
        taus += run.taus[n + 1 :]
    return RunView(levels=run.levels[: n + 1] + [copy] + run.levels[n + 1 :], taus=taus, groups=run.groups)


def chain_labelled_run(rng, run, mode):
    """``run`` with oriented-edge labels from the chain S0 < S1 < ... <
    S{horizon}: at level n an edge carries S{min(n, end)}.  ``end`` is the
    horizon when ``mode`` is "grows", a level below it for the whole run
    when "stops", and drawn per complex and edge id when "mixed".
    Returns the run and the run-wide ``end``."""
    horizon = run.horizon
    groups = GroupTable(
        [GroupRef(f"S{i}", declared_supergroups=frozenset({f"S{i + 1}"})) for i in range(horizon)] + [GroupRef(f"S{horizon}")]
    )
    end = horizon if mode == "grows" else rng.randint(0, horizon - 1)
    ends = {}
    levels = []
    for n, level in enumerate(run.levels):
        complexes = {}
        for cid, x in level.complexes.items():
            if mode == "mixed":
                plus = {e: f"S{min(n, ends.setdefault((cid, e), rng.randint(0, horizon)))}" for e in x.edges}
            else:
                plus = dict.fromkeys(x.edges, f"S{min(n, end)}")
            complexes[cid] = x.relabel(plus)
        levels.append(LevelData(complexes=complexes))
    return RunView(levels=levels, taus=run.taus, groups=groups), end
