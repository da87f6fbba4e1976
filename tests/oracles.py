"""Independent oracles, written against the definitions and kept free of
the library's own code paths.  These were frozen before the main
implementations and must stay that way.  The hierarchy helpers at the
end (``level``, ``is_h_elliptic``) are definitions only the tests use."""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np


def h1_rank_oracle(x):
    """dim H^1 over Z2 from explicit cochain matrices, reduced with numpy.

    Builds d0: C^0 -> C^1 and d1: C^1 -> C^2 as dense 0/1 matrices and
    returns dim ker d1 - dim im d0.
    """
    verts = sorted(x.vertices)
    edges = sorted(x.edges)
    faces = sorted(x.faces)
    vi = {v: i for i, v in enumerate(verts)}
    ei = {e: i for i, e in enumerate(edges)}
    d0 = np.zeros((len(edges), len(verts)), dtype=np.int64)
    for e in edges:
        u, v = x.edges[e]
        d0[ei[e], vi[u]] ^= 1
        d0[ei[e], vi[v]] ^= 1
    d1 = np.zeros((len(faces), len(edges)), dtype=np.int64)
    for r, f in enumerate(faces):
        for e in x.faces[f]:
            d1[r, ei[e]] ^= 1
    return (len(edges) - _rank_mod2(d1)) - _rank_mod2(d0)


def _rank_mod2(m):
    m = m.copy() % 2
    rank = 0
    rows, cols = m.shape
    row = 0
    for col in range(cols):
        pivot = None
        for r in range(row, rows):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[row, pivot]] = m[[pivot, row]]
        for r in range(rows):
            if r != row and m[r, col]:
                m[r] = (m[r] + m[row]) % 2
        row += 1
        rank += 1
        if row == rows:
            break
    return rank


def brute_components(vertices, edge_ends):
    vertices = set(vertices)
    adj = {v: set() for v in vertices}
    for u, v in edge_ends:
        adj[u].add(v)
        adj[v].add(u)
    comps = []
    seen = set()
    for s in sorted(vertices):
        if s in seen:
            continue
        comp = {s}
        todo = [s]
        while todo:
            for w in adj[todo.pop()]:
                if w not in comp:
                    comp.add(w)
                    todo.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def brute_cutpoints(x):
    """Delete each vertex in turn and recount components."""
    base = len(brute_components(x.vertices, x.edges.values()))
    out = set()
    for v in x.vertices:
        rest = x.vertices - {v}
        if not rest:
            continue
        ends = [ends for ends in x.edges.values() if v not in ends]
        if len(brute_components(rest, ends)) > base:
            out.add(v)
    return out


def bfs_path(adjacency, a, b):
    """Shortest vertex path in an unweighted graph; None if unreachable."""
    if a == b:
        return [a]
    prev = {a: None}
    todo = [a]
    while todo:
        nxt = []
        for v in todo:
            for w in adjacency.get(v, ()):
                if w not in prev:
                    prev[w] = v
                    if w == b:
                        path = [b]
                        while path[-1] != a:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    nxt.append(w)
        todo = nxt
    return None


def classification_oracle(descriptors, groups=None):
    """Direct case analysis of the five defining conditions.

    Mirrors the stated conditions one by one: a common fixed vertex
    (elliptic); a single shared axis with ends fixed (linear) or not
    (dihedral); a single ideal point common to every axis (parabolic);
    otherwise hyperbolic.  Raises ValueError on an all-elliptic family
    without a common fixed vertex, mirroring the engine's error contract.
    """
    ells = [d for d in descriptors if d.kind == "elliptic"]
    hyps = [d for d in descriptors if d.kind == "hyperbolic"]
    if not descriptors:
        raise ValueError("empty descriptor set")
    if not hyps:
        common = set(ells[0].fixed)
        for d in ells[1:]:
            common &= set(d.fixed)
        if not common:
            raise ValueError("all-elliptic with empty common fixed set")
        return "elliptic"
    axes = {frozenset(d.ends) for d in hyps}
    if len(axes) == 1:
        if any(d.swaps_ends for d in hyps):
            return "dihedral"
        return "linear"
    shared = set.intersection(*[set(d.ends) for d in hyps])
    if len(shared) == 1:
        return "parabolic"
    return "hyperbolic"


def n_prime_oracle(run, n_delta, classes):
    """N' by its definition: the lowest n0 >= N_delta such that every step
    from n0 to the horizon is a class bijection (total, injective and onto)
    keeping the count of class
    orbit signatures and each class's count of edge orbits.  Re-walks every
    step for every candidate n0."""

    def sigma(n):
        tau = run.taus[n]
        owner = {(c.cid, f): c.id for c in classes[n + 1] for f in c.triangles}
        out = {}
        for cls in classes[n]:
            targets = {owner.get(tau.triangle_map.get((cls.cid, f))) for f in cls.triangles} - {None}
            if len(targets) > 1:
                raise ValueError(f"class {cls.id!r} maps into several classes")
            out[cls.id] = targets.pop() if targets else None
        return out

    def signatures(n):
        return len({tuple(sorted(run.levels[n].complexes[c.cid].orbit[f] for f in c.triangles)) for c in classes[n]})

    def edge_orbits(n, cls):
        x = run.levels[n].complexes[cls.cid]
        return len({x.orbit[e] for f in cls.triangles for e in x.faces[f]})

    horizon = run.horizon
    for n0 in range(n_delta, horizon + 1):
        ok = True
        for n in range(n0, horizon):
            s = sigma(n)
            values = [v for v in s.values() if v is not None]
            if len(values) != len(classes[n]) or len(set(values)) != len(values):
                ok = False
            elif len(set(values)) != len(classes[n + 1]):
                ok = False
            elif signatures(n) != signatures(n + 1):
                ok = False
            else:
                for cls in classes[n]:
                    img = next(c for c in classes[n + 1] if c.id == s[cls.id])
                    if edge_orbits(n, cls) != edge_orbits(n + 1, img):
                        ok = False
                        break
            if not ok:
                break
        if ok:
            return n0
    return None


def n_dprime_oracle(run, n_prime):
    """N'' by its definition: the lowest n0 >= N' such that, at every step
    from n0 to the horizon, each stable pair at n+1 (recomposed by
    ``stable_pairs``) has exactly one preimage triangle on each side, in
    one complex, sharing a side that tau_n sends to the pair's edge."""
    horizon = run.horizon
    for n0 in range(n_prime, horizon + 1):
        ok = True
        for n in range(n0, horizon):
            tau = run.taus[n]
            back = {}
            for key in run.levels[n].triangles():
                img = tau.triangle_map.get(key)
                if img is not None:
                    back.setdefault(img, []).append(key)
            for pair in stable_pairs(run, n + 1).pairs:
                p1 = back.get((pair.cid, pair.t1), [])
                p2 = back.get((pair.cid, pair.t2), [])
                if len(p1) != 1 or len(p2) != 1 or p1[0][0] != p2[0][0]:
                    ok = False
                    break
                (k1,), (k2,) = p1, p2
                x = run.levels[n].complexes[k1[0]]
                shared = set(x.faces[k1[1]]) & set(x.faces[k2[1]])
                if not any(tau.edge_map.get((k1, e)) == pair.edge == tau.edge_map.get((k2, e)) for e in shared):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return n0
    return None


def cone_criterion_oracle(x, classes):
    """The simple cones whose fan meets two or more classes, by
    enumerating every simple cycle of every vertex link; the cone
    criterion certifies exactly when there are none."""
    class_of = {f: cls.id for cls in classes for f in cls.triangles}
    return [
        cone
        for v in sorted(x.vertices)
        for cone in enumerate_simple_cones(x, v)
        if len({class_of.get(f) for f in cone.fan}) > 1
    ]


def straddling_cone_every_vertex(x, class_of):
    """The cone ``stability._straddling_cone`` returns, by building the
    link blocks of every vertex, one-class stars included: a simple cone
    meeting two classes, or None."""
    from passdown import graphs
    from passdown.stability import make_cone

    for v in sorted(x.triangles_by_vertex):
        link = {fid: tuple(sorted(x.face_vertices(fid) - {v})) for fid in x.triangles_by_vertex[v]}
        for _verts, fids in graphs.blocks({w for ends in link.values() for w in ends}, link):
            fids = sorted(fids)
            first = {}  # link vertex -> the first block edge at it
            for f in fids:
                for u in link[f]:
                    f1 = first.setdefault(u, f)
                    if class_of.get(f1) != class_of.get(f):
                        (a,), (b,) = set(link[f1]) - {u}, set(link[f]) - {u}
                        rest = {}  # the block minus u, neighbours in block edge order
                        for p, q in (link[g] for g in fids if u not in link[g]):
                            rest.setdefault(p, []).append(q)
                            rest.setdefault(q, []).append(p)
                        return make_cone(x, v, (u,) + graphs.path(rest, a, b))
    return None


def link_graph(x, v):
    """The link of v as an adjacency dict: one link edge per triangle at v."""
    adj = {}
    for fid in x.triangles_by_vertex.get(v, ()):
        a, b = sorted(x.face_vertices(fid) - {v})
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def enumerate_simple_cones(x, v):
    """All embedded closed triangle fans around one vertex, as the simple
    cycles of its link graph; exponential in the link size."""
    from passdown.errors import FixtureError
    from passdown.stability import make_cone

    if not x.is_simplicial():
        raise FixtureError("cone enumeration needs a simplicial complex")
    adj = link_graph(x, v)
    cones = []
    for start in sorted(adj):
        # simple cycles with minimal vertex = start, canonical direction
        stack = [(start, [start])]
        while stack:
            cur, path = stack.pop()
            for nxt in sorted(adj[cur]):
                if nxt == start and len(path) >= 3:
                    if path[1] < path[-1]:
                        cones.append(make_cone(x, v, tuple(path)))
                    continue
                if nxt <= start or nxt in path:
                    continue
                stack.append((nxt, path + [nxt]))
    return sorted(cones, key=lambda c: c.boundary)


def compose(run, n, m):
    """tau_{n,m} on triangles with the side correspondence, by composing
    the one-step maps of ``run`` from level n to level m."""
    from passdown.errors import FixtureError

    if not n <= m <= run.horizon:
        raise FixtureError("bad level range")
    tri = {key: key for key in run.levels[n].triangles()}
    edge = {}
    for cid, x in run.levels[n].complexes.items():
        for fid in x.triangles():
            for eid in x.faces[fid]:
                edge[((cid, fid), eid)] = eid
    for step in range(n, m):
        tau = run.taus[step]
        tri2 = {key: tau.triangle_map.get(img) if img is not None else None for key, img in tri.items()}
        edge2 = {}
        for (key, eid), img_eid in edge.items():
            if tri[key] is None or tri2[key] is None:
                continue
            nxt_eid = tau.edge_map.get((tri[key], img_eid))
            if nxt_eid is not None:
                edge2[(key, eid)] = nxt_eid
        tri, edge = tri2, edge2
    return tri, edge


def descends_to_pair(pair, tri, edge):
    """Does the pair stay a pair under a composed triangle map?"""
    k1, k2 = (pair.cid, pair.t1), (pair.cid, pair.t2)
    i1, i2 = tri.get(k1), tri.get(k2)
    if i1 is None or i2 is None or i1 == i2:
        return False
    if i1[0] != i2[0]:
        return False
    e1 = edge.get((k1, pair.edge))
    e2 = edge.get((k2, pair.edge))
    return e1 is not None and e1 == e2


def stable_pairs(run, n):
    """Pairs at level n that stay pairs under every computed map up to the
    horizon, by composing tau from n to each later level: the definition
    that ``stable_pair_sets`` and ``stability.stable_classes`` compute in
    one sweep."""
    composed = [compose(run, n, m) for m in range(n + 1, run.horizon + 1)]
    stable = [pair for pair in pairs_at(run, n) if all(descends_to_pair(pair, *c) for c in composed)]
    return PairSet(level=n, horizon=run.horizon, pairs=frozenset(stable))


# ---------------------------------------------------------------------------
# the per-face run analysis: every triangle of every level walked, on runs
# whose one-step maps are per-face (see ``expand_run``)


@dataclass(frozen=True)
class Pair:
    cid: str
    t1: str
    t2: str
    edge: str


@dataclass
class PairSet:
    level: int
    horizon: int
    pairs: frozenset


def pairs_at(run, n):
    """Every pair of level n, by complex id."""
    from passdown.stability import pairs_of_complex

    return [
        Pair(cid, *pair)
        for cid in sorted(run.levels[n].complexes)
        for pair in pairs_of_complex(run.levels[n].complexes[cid])
    ]


def pair_set(records):
    """The stable pairs of one level's ``stability.ComplexClasses``
    records, as Pairs."""
    return frozenset(Pair(cid, *pair) for cid, rec in records.items() for pair in rec.pairs)


def stable_pair_sets(run, start):
    """The stable-pair sets of levels start..horizon in one sweep down from
    the horizon, per face: a pair at n is stable exactly when tau_n sends
    both triangles to distinct triangles of one complex and both sides to
    one edge, and that image pair is stable at n+1.  Raises EngineError on
    a side image off its image triangle, where this would not be exact."""
    from passdown.errors import EngineError

    horizon = run.horizon
    out = {horizon: PairSet(level=horizon, horizon=horizon, pairs=frozenset(pairs_at(run, horizon)))}
    for n in range(horizon - 1, start - 1, -1):
        tri, edge = run.taus[n].triangle_map, run.taus[n].edge_map
        for (key, eid), img_eid in edge.items():
            img = tri.get(key)
            if img is not None and img_eid not in run.levels[n + 1].complexes[img[0]].faces.get(img[1], ()):
                raise EngineError(f"tau_{n} sends side {eid!r} of {key!r} to {img_eid!r}, not a side of {img!r}")
        above = out[n + 1].pairs
        stable = []
        for pair in pairs_at(run, n):
            k1, k2 = (pair.cid, pair.t1), (pair.cid, pair.t2)
            i1, i2 = tri.get(k1), tri.get(k2)
            if i1 is None or i2 is None or i1 == i2 or i1[0] != i2[0]:
                continue
            e = edge.get((k1, pair.edge))
            if e is not None and e == edge.get((k2, pair.edge)):
                if Pair(cid=i1[0], t1=min(i1[1], i2[1]), t2=max(i1[1], i2[1]), edge=e) in above:
                    stable.append(pair)
        out[n] = PairSet(level=n, horizon=horizon, pairs=frozenset(stable))
    return out


def equivalence_classes(run, n, ps):
    """Classes of the relation generated by the stable pairs ``ps`` of
    level n, over the whole level, numbered in (complex id, least face)
    order; each class induces a connected, cutpoint-free subcomplex."""
    from passdown import graphs
    from passdown.errors import EngineError
    from passdown.stability import TriangleClass, class_cutpoints

    triangles = run.levels[n].triangles()
    uf = graphs.UnionFind(triangles)
    for pair in ps.pairs:
        uf.union((pair.cid, pair.t1), (pair.cid, pair.t2))
    out = []
    for i, keys in enumerate(uf.classes(triangles).values()):
        cids = {cid for cid, _ in keys}
        if len(cids) != 1:
            raise EngineError("an equivalence class straddles complexes")
        cid = cids.pop()
        cls = TriangleClass(id=f"Y{n}.{i}", cid=cid, triangles=frozenset(f for _, f in keys))
        if class_cutpoints(run.levels[n].complexes[cid], cls.triangles):
            raise EngineError(f"class {cls.id!r} subcomplex has a cutpoint")
        out.append(cls)
    return out


def identity_fragment(x):
    """The identity triangle map of x: each face to itself, each side to
    itself."""
    from passdown.provenance import TauFragment

    return TauFragment(
        triangle_map={f: f for f in x.triangles()},
        edge_map={(f, e): e for f in x.triangles() for e in x.faces[f]},
    )


def check_resolution(res):
    """What the resolution constructor builds, against the definitions:
    every edge has a path, and it is the reduced path between its endpoint
    images (either way round; the finite part by ``bfs_path`` between the
    images or the truncated leaves of ideal ones), with no vertex twice;
    the resolution is contracting exactly when some edge has both ends at
    one ideal point."""
    from passdown.resolution import CONTRACTING, SPLITTING

    x, t = res.source, res.target
    adjacency = defaultdict(set)
    for u, v in t.edges.values():
        adjacency[u].add(v)
        adjacency[v].add(u)

    def reduced(a, b):
        """(vertices, start ideal, end ideal, constant ideal)."""
        if a == b:
            return ((), None, None, a) if t.is_ideal(a) else ((a,), None, None, None)
        start, end = (t.ideal_points[p][-1] if t.is_ideal(p) else p for p in (a, b))
        verts = tuple(bfs_path(adjacency, start, end))
        return verts, a if t.is_ideal(a) else None, b if t.is_ideal(b) else None, None

    assert set(res.edge_path) == set(x.edges), "edge paths and edges differ"
    constant = False
    for eid, (u, v) in x.edges.items():
        path = res.edge_path[eid]
        a, b = res.vertex_image[u], res.vertex_image[v]
        got = (path.vertices, path.start_ideal, path.end_ideal, path.constant_ideal)
        assert got in (reduced(a, b), reduced(b, a)), f"edge {eid!r} path is not the reduced path between its images"
        assert len(set(path.vertices)) == len(path.vertices), f"edge {eid!r} path backtracks"
        constant = constant or (a == b and t.is_ideal(a))
    assert res.kind == (CONTRACTING if constant else SPLITTING), "resolution kind flag disagrees with its boundary preimage"


def track_sides(x, track):
    """The vertex sets of the components of x minus the edges that carry a
    point of ``track``, ordered by least vertex."""
    rest = (ends for eid, ends in x.edges.items() if eid not in track.points)
    return tuple(frozenset(c) for c in brute_components(x.vertices, rest))


def crossing_partition_holds(ts):
    """Do the track points of ``ts`` on the sides of each triangle of its
    source split into three corner branches?  A branch is the tree edges
    whose points lie on both sides at a corner; the points on each side
    must be those of the branches at its two ends, which are disjoint, and
    none of the branch at the opposite corner."""
    res = ts.resolution
    x = res.source
    points = {(eid, tr.tree_edge) for tr in ts.tracks for eid in tr.points}
    for fid in x.triangles():
        corners = set(x.face_vertices(fid))
        crossed = {}
        for eid in x.faces[fid]:
            crossed[frozenset(x.edges[eid])] = {f for f in res.crossings(eid) if (eid, f) in points}
        branch = {}
        for v in corners:
            p, q = (crossed[side] for side in crossed if v in side)
            branch[v] = p & q
        for side, fs in crossed.items():
            u, v = side
            (opposite,) = corners - side
            if fs != branch[u] | branch[v] or branch[u] & branch[v] or branch[opposite] & fs:
                return False
    return True


def tracks_by_walk(res):
    """``tracks.tracks_from_resolution`` by the crossing walk on every tree,
    one with no edge included: crossing indicators, in-triangle arc
    pairings, connected tracks, and for each track whether each side of its
    complement is infinite."""
    from passdown import graphs
    from passdown.errors import EngineError, FixtureError, HypothesisError
    from passdown.resolution import SPLITTING
    from passdown.tracks import Track, TrackSystem

    if res.kind != SPLITTING:
        raise HypothesisError("tracks are extracted from splitting (type I) resolutions")
    x = res.source
    if not x.is_simplicial():
        raise FixtureError("track extraction needs a simplicial complex")

    crossings = {eid: tuple(res.crossings(eid)) for eid in x.edges}
    arcs = defaultdict(dict)  # tree edge -> face -> (side, side)
    for fid in sorted(x.triangles()):
        sides = x.faces[fid]
        per_f = defaultdict(list)
        for eid in sides:
            for f in crossings[eid]:
                per_f[f].append(eid)
        for f, crossed in per_f.items():
            if len(crossed) != 2:
                raise EngineError(
                    f"tree edge {f!r} crosses {len(crossed)} side(s) of triangle {fid!r}; "
                    "arcs must close up"
                )
            arcs[f][fid] = tuple(sorted(crossed))

    uf = graphs.UnionFind()
    points = defaultdict(set)  # tree edge -> point keys (eid)
    for eid, fs in crossings.items():
        for f in fs:
            points[f].add(eid)
    for f, per_face in arcs.items():
        for fid, (e1, e2) in per_face.items():
            uf.union((f, e1), (f, e2))

    ideal = res.ideal_vertices()
    marked = set(x.boundary_marked)
    tracks = []
    counter = 0
    for f in sorted(points):
        for keys in uf.classes((f, eid) for eid in points[f]).values():
            eids = {eid for _f, eid in keys}
            track_arcs = {
                fid: pair for fid, pair in arcs.get(f, {}).items() if pair[0] in eids or pair[1] in eids
            }
            infinite = tuple(
                bool(s & marked) or bool(s & ideal)
                for s in graphs.components(
                    x.vertices, (ends for eid, ends in x.edges.items() if eid not in eids)
                )
            )
            tracks.append(
                Track(
                    id=f"s{counter}",
                    tree_edge=f,
                    points=frozenset(eids),
                    arcs=track_arcs,
                    side_infinite=infinite,
                )
            )
            counter += 1
    return TrackSystem(resolution=res, tracks=tuple(tracks))


def collapse_by_construction(ts_star, groups):
    """``tracks.split_collapse`` with the collapsed complex built cell by
    cell in every case, no track and no ideal vertex included: one point
    per track, one segment per consecutive pair of nodes along an edge and
    one central triangle per face, then ``finish_collapse``."""
    from collections import Counter

    from passdown.complexes import Complex2, fresh_separator
    from passdown.errors import EngineError, TruncationError
    from passdown.provenance import TauFragment, finish_collapse

    def _oriented_crossings(res, eid, start_vertex):
        fs = res.crossings(eid)
        return fs if start_vertex == res.source.edges[eid][0] else fs[::-1]

    res = ts_star.resolution
    x, tree = res.source, res.target
    removed = res.ideal_vertices()

    track_of = {}  # (eid, tree edge) -> track
    for tr in ts_star.tracks:
        for eid in tr.points:
            track_of[(eid, tr.tree_edge)] = tr
    points_on = Counter(eid for eid, _f in track_of)

    def minted(sep):
        # every id the collapse may mint: an edge with n points splits
        # into at most n + 1 segments, and only a triangle on such an
        # edge gets a central face of a new id
        for tr in ts_star.tracks:
            yield f"w{sep}{tr.id}"
        for eid, n in points_on.items():
            for k in range(n + 1):
                yield f"{eid}{sep}{k}"
                yield f"{x.orbit[eid]}{sep}{k}"
            for fid in x.triangles_by_edge.get(eid, ()):
                yield f"{fid}{sep}mid"

    sep = fresh_separator(x.stab.keys() | x.orbit.values(), minted, ".")

    # one point per track, with one fresh label and orbit per orbit of
    # tracks; a point that faces a truncated end is marked: the complex
    # continues beyond it at full scale
    point_vertex, stab, orbit, marked_points, by_sig = {}, {}, {}, set(), {}
    for tr in sorted(ts_star.tracks, key=lambda t: t.id):
        vid = point_vertex[tr.id] = f"w{sep}{tr.id}"
        sig = (tree.orbit[tr.tree_edge], tuple(sorted(x.orbit[e] for e in tr.points)))
        if sig not in by_sig:
            by_sig[sig] = groups.mint("trk", supergroups={tree.stab[tr.tree_edge]}, slender=True).id, vid
        stab[vid], orbit[vid] = by_sig[sig]
        if any(w in removed for eid in tr.points for w in x.edges[eid]):
            marked_points.add(vid)
    kept = x.vertices - removed
    for v in kept:
        stab[v], orbit[v] = x.stab[v], x.orbit[v]

    # edges of the collapsed complex: one segment per consecutive pair of
    # nodes along an edge (surviving ends and track points in path order)
    seg_edges, seg_plus = {}, {}
    seg_of = {}  # (eid, frozenset of node pair) -> segment id
    for eid in sorted(x.edges):
        u, v = x.edges[eid]
        untouched = not points_on[eid]
        if untouched and (u in removed or v in removed):
            raise TruncationError(
                f"edge {eid!r} reaches a truncated end without an essential crossing; "
                "extend the tree's rays or the boundary marking"
            )
        points = [point_vertex[track_of[(eid, f)].id] for f in res.crossings(eid) if (eid, f) in track_of]
        nodes = ([u] if u in kept else []) + points + ([v] if v in kept else [])
        for k, (a, b) in enumerate(zip(nodes, nodes[1:])):
            sid = eid if untouched else f"{eid}{sep}{k}"
            seg_edges[sid] = (a, b)
            stab[sid] = x.stab[eid]
            orbit[sid] = x.orbit[eid] if untouched else f"{x.orbit[eid]}{sep}{k}"
            if eid in x.stab_plus:
                seg_plus[sid] = x.stab_plus[eid]
            seg_of[(eid, frozenset((a, b)))] = sid

    # central triangle per face, via the tripod of its three branches
    mid_faces, tri_map, edge_map = {}, {}, {}
    for fid in sorted(x.triangles()):
        # x is simplicial (track extraction checks it): one edge per side
        a, b, c = sorted(x.face_vertices(fid))
        sides = {pair: x.edges_by_pair[frozenset(pair)][0] for pair in ((a, b), (b, c), (a, c))}
        crossed = {
            pair: [f for f in res.crossings(eid) if (eid, f) in track_of]
            for pair, eid in sides.items()
        }
        # a tree edge crossing the triangle crosses two of its sides
        # (track extraction checks it), so the branches at the corners
        # partition the crossings
        branch = {
            a: set(crossed[(a, b)]) & set(crossed[(a, c)]),
            b: set(crossed[(a, b)]) & set(crossed[(b, c)]),
            c: set(crossed[(b, c)]) & set(crossed[(a, c)]),
        }

        corner_node = {}
        for corner, other in ((a, b), (b, a), (c, a)):
            if branch[corner]:
                # arcs cutting this corner, ordered from the corner inward;
                # the central region is bounded by the innermost one
                eid = sides[tuple(sorted((corner, other)))]
                ordered = [
                    f
                    for f in _oriented_crossings(res, eid, corner)
                    if f in branch[corner] and (eid, f) in track_of
                ]
                innermost = ordered[-1]
                corner_node[corner] = point_vertex[track_of[(eid, innermost)].id]
            else:
                if corner in removed:
                    raise TruncationError(
                        f"triangle {fid!r} reaches the truncated end at {corner!r} without an "
                        "essential arc; extend the tree's rays or the boundary marking"
                    )
                corner_node[corner] = corner

        untouched = all(corner_node[cn] == cn for cn in (a, b, c))
        mid_id = fid if untouched else f"{fid}{sep}mid"
        tri_sides = {}
        for p, q in ((a, b), (b, c), (a, c)):
            eid = sides[(p, q)]
            key = frozenset((corner_node[p], corner_node[q]))
            sid = seg_of.get((eid, key))
            if sid is None:
                raise EngineError(f"central region side missing on triangle {fid!r}")
            tri_sides[(p, q)] = sid
        mid_faces[mid_id] = (tri_sides[(a, b)], tri_sides[(b, c)], tri_sides[(a, c)])
        stab[mid_id], orbit[mid_id] = x.stab[fid], x.orbit[fid]
        tri_map[fid] = mid_id
        for pair, eid in sides.items():
            edge_map[(fid, eid)] = tri_sides[pair]

    collapsed = Complex2(
        vertices=kept.union(point_vertex.values()),
        edges=seg_edges,
        faces=mid_faces,
        stab=stab,
        orbit=orbit,
        boundary_marked=(x.boundary_marked & kept) | marked_points,
        stab_plus=seg_plus,
    )
    frag = TauFragment(triangle_map=tri_map, edge_map=edge_map, track_point=point_vertex)
    return finish_collapse(x, collapsed, frag, groups, "collapse")


def vertex_fate(res, v):
    """Where a track collapse over ``res`` takes vertex v: nowhere (None)
    when v maps to an ideal point, else to itself."""
    return None if res.image_is_ideal(v) else v


def expand_renamings(tau, complexes):
    """``tau`` with every renaming written out per face, over the complexes
    ``complexes`` (complex id -> complex) of its sources: each face of a
    renamed complex goes to the same face of the image complex, each side
    to itself."""
    from passdown.provenance import TauFragment

    tri, edge = dict(tau.triangle_map), dict(tau.edge_map)
    for cid, to in tau.renamed.items():
        x = complexes[cid]
        tri.update(((cid, f), (to, f)) for f in x.faces)
        edge.update((((cid, f), e), e) for f in x.faces for e in x.faces[f])
    return TauFragment(triangle_map=tri, edge_map=edge)


def expand_run(run):
    """The run with the renamings of its one-step maps written out per face."""
    from passdown.stability import RunView

    taus = [expand_renamings(tau, run.levels[n].complexes) for n, tau in enumerate(run.taus)]
    return RunView(levels=run.levels, taus=taus, groups=run.groups)


def acc_monitor_full_walk(run, start, classes):
    """The alerts of ``stability.acc_monitor`` by following every class
    edge from every level from ``start`` on to the horizon, whether or not
    any last step grows."""
    from passdown.stability import AccAlert

    groups = run.groups
    horizon = run.horizon
    chains = {}
    consumed = set()
    for n in range(start, horizon):
        for cls in classes[n]:
            x = run.levels[n].complexes[cls.cid]
            for fid in sorted(cls.triangles):
                for eid in x.faces[fid]:
                    key = (n, cls.cid, eid)
                    if key in consumed:
                        continue
                    chain_levels = [n]
                    chain_labels = [x.edge_stab_plus(eid)]
                    cur_key = (cls.cid, fid)
                    cur_eid = eid
                    m = n
                    while m < horizon:
                        tau = run.taus[m]
                        img = tau.image(cur_key)
                        img_eid = tau.side_image(cur_key, cur_eid)
                        if img is None or img_eid is None:
                            break
                        m += 1
                        xm = run.levels[m].complexes[img[0]]
                        consumed.add((m, img[0], img_eid))
                        chain_levels.append(m)
                        chain_labels.append(xm.edge_stab_plus(img_eid))
                        cur_key, cur_eid = img, img_eid
                    consumed.add(key)
                    if len(chain_levels) > 1:
                        chains[f"{cls.cid}:{eid}@L{n}"] = (chain_levels, chain_labels)
    alerts = []
    for name, (levels, labels) in sorted(chains.items()):
        if levels[-1] != horizon or len(labels) < 2:
            continue
        a, b = labels[-2], labels[-1]
        if groups.leq(a, b) and not groups.leq(b, a):
            alerts.append(AccAlert(chain=name, levels=tuple(levels), labels=tuple(labels)))
    return alerts


def is_simplicial_oracle(x):
    """No bigon, no two edges on one vertex pair and no two triangles on
    one vertex triple, checked by scanning the cell dicts."""
    if any(len(es) == 2 for es in x.faces.values()):
        return False
    seen_pairs = set()
    for u, v in x.edges.values():
        key = frozenset((u, v))
        if key in seen_pairs:
            return False
        seen_pairs.add(key)
    seen_faces = set()
    for es in x.faces.values():
        key = frozenset(w for eid in es for w in x.edges[eid])
        if key in seen_faces:
            return False
        seen_faces.add(key)
    return True


def boundary_rank_oracle(x):
    """Rank over Z2 of the face-to-edge boundary matrix, reduced with numpy."""
    ei = {e: i for i, e in enumerate(sorted(x.edges))}
    d1 = np.zeros((len(x.faces), len(x.edges)), dtype=np.int64)
    for r, f in enumerate(sorted(x.faces)):
        for e in x.faces[f]:
            d1[r, ei[e]] ^= 1
    return _rank_mod2(d1)


def brute_blocks(x):
    """The edge sets of the blocks of the 1-skeleton: two edges share a
    block exactly when they lie in one component and no single vertex
    separates them (an edge at the removed vertex goes with its other
    end)."""
    def side(comps, eid, w):
        u, v = x.edges[eid]
        end = v if u == w else u
        return next(i for i, c in enumerate(comps) if end in c)

    removals = []
    for w in sorted(x.vertices):
        rest = [ends for ends in x.edges.values() if w not in ends]
        removals.append((w, brute_components(set(x.vertices) - {w}, rest)))
    whole = brute_components(x.vertices, x.edges.values())
    key = {
        eid: (side(whole, eid, None),) + tuple(side(comps, eid, w) for w, comps in removals)
        for eid in x.edges
    }
    out = {}
    for eid in sorted(x.edges):
        out.setdefault(key[eid], set()).add(eid)
    return sorted(out.values(), key=sorted)


def leq_oracle(groups, extra, a, b):
    """The declared order by a fresh parent walk: the supergroups each ref
    declares plus the ``extra`` (sub, sup) containments, followed
    transitively.  The walk visits every id above ``a`` short of ``b``
    before it answers, so it raises like ``GroupTable.leq`` when it meets
    an unknown id, whatever order the sets iterate in."""
    if a == b or a == "1":
        return True
    seen, todo, found = {a}, [a], False
    while todo:
        gid = todo.pop()
        parents = set(groups[gid].declared_supergroups)
        parents.update(sup for sub, sup in extra if sub == gid)
        for parent in parents:
            if parent == b:
                found = True
            elif parent not in seen:
                seen.add(parent)
                todo.append(parent)
    return found


def declared_equal_oracle(groups):
    """The declared-equal check of ``GroupTable.validate`` by its
    definition: b declared above a is equal to a when ``leq(b, a)``; the
    first such pair, in ref order and then parent-set order, whose flags
    differ raises.  Quadratic on a chain."""
    from passdown.errors import ConsistencyError

    for a in groups._refs:
        for b in groups._parents(a):
            if groups.leq(b, a):
                ra, rb = groups[a], groups[b]
                if (ra.is_slender, ra.is_h_elliptic, ra.is_finite) != (rb.is_slender, rb.is_h_elliptic, rb.is_finite):
                    raise ConsistencyError(f"declared-equal groups {a!r}, {b!r} disagree on flags")


def identity_step_oracle(terminals, tl):
    """``passdown_full`` along its general path, whatever the level is: no
    complex reads as reduced, so no level is an identity step, and every
    complex is resolved, its tracks drawn, collapsed cell for cell,
    validated and reduced."""
    from passdown.complexes import Complex2
    from passdown.hierarchy import passdown_full

    original = Complex2.__dict__["is_reduced"]
    Complex2.is_reduced = property(lambda self: False)
    try:
        return passdown_full(terminals, tl)
    finally:
        Complex2.is_reduced = original


def is_reduced_oracle(x, groups):
    """Does ``reduce_with_map`` give back x itself: the identity cell map
    and an equal complex, with edges and faces in the same order?"""
    from passdown.complexes import reduce_with_map

    out, cell_map = reduce_with_map(x, groups)
    return (
        all(cell_map[c] == c for c in x.cells())
        and out == x
        and list(out.edges.items()) == list(x.edges.items())
        and list(out.faces.items()) == list(x.faces.items())
    )


def subcomplex_of(cls, x):
    """The subcomplex a triangle class spans in x, built and checked:
    its triangles with their sides and corners.  Its cutpoints define the
    class check that ``stability.class_cutpoints`` reads off x directly."""
    from passdown.complexes import subcomplex

    cells = set(cls.triangles)
    for fid in cls.triangles:
        for eid in x.faces[fid]:
            cells.add(eid)
            cells.update(x.edges[eid])
    return subcomplex(x, cells)


def cutpoint_tree(x, groups):
    """The bipartite tree B_X of cutpoint-free components and cut vertices.

    Requires a connected complex with h1_z2 = 0.  Cut-vertex nodes keep
    the vertex stabilizer; component nodes get fresh refs.  Each B_X edge
    is labeled by its cut vertex (the stabilizer of the matching link
    component sits inside it).
    """
    from passdown import graphs
    from passdown.complexes import CutpointTree, _block_cells, _block_orbit_signature, h1_z2, is_connected
    from passdown.errors import FixtureError

    if not is_connected(x):
        raise FixtureError("cutpoint tree needs a connected complex")
    if h1_z2(x) != 0:
        raise FixtureError("cutpoint tree needs h1_z2 = 0")
    cuts = sorted(graphs.cut_vertices(x.skeleton_blocks))
    blocks = _block_cells(x)
    comp_nodes, comp_cells, node_stab, node_orbit, edges = [], {}, {}, {}, []
    sig_orbit = {}
    for i, cells in enumerate(sorted(blocks, key=lambda c: sorted(map(str, c)))):
        cid = f"C{i}"
        comp_nodes.append(cid)
        comp_cells[cid] = frozenset(cells)
        node_stab[cid] = groups.mint("blk").id
        sig = _block_orbit_signature(x, cells)
        node_orbit[cid] = sig_orbit.setdefault(sig, cid)
        for v in cuts:
            if v in cells:
                edges.append((cid, v))
    for v in cuts:
        node_stab[v] = x.stab[v]
        node_orbit[v] = x.orbit[v]
    tree = CutpointTree(
        comp_nodes=tuple(comp_nodes),
        cut_nodes=tuple(cuts),
        edges=tuple(edges),
        node_stab=node_stab,
        node_orbit=node_orbit,
        comp_cells=comp_cells,
    )
    if not tree.is_tree():
        raise FixtureError("cutpoint tree is cyclic or disconnected (input violated h1 = 0?)")
    return tree


def contracted_cutpoint_tree(x, groups):
    """B'_X by its definition: B_X from ``cutpoint_tree``, with every edge
    whose cut vertex label is not slender contracted, checked edge by
    edge on a hand-written union of node sets.  Returns (comp nodes, comp
    cells, cut nodes, edges, node orbits, {comp node: H-elliptic flag});
    a merged piece is H-elliptic when every cut vertex merged into it is."""
    from passdown.complexes import _block_orbit_signature

    bx = cutpoint_tree(x, groups)
    part = {n: {n} for n in bx.comp_nodes + bx.cut_nodes}
    for comp, cut in bx.edges:
        if not groups.slender(x.stab[cut]) and part[comp] is not part[cut]:
            joined = part[comp] | part[cut]
            for n in joined:
                part[n] = joined
    pieces = sorted({frozenset(s) for n, s in part.items() if n in bx.comp_nodes}, key=min)
    name = {n: min(s) for s in pieces for n in s}
    cells = {min(s): frozenset().union(*(bx.comp_cells[n] for n in s if n in bx.comp_cells)) for s in pieces}
    orbit, first = {}, {}
    for rep in sorted(cells):
        orbit[rep] = first.setdefault(_block_orbit_signature(x, cells[rep]), rep)
    cut_nodes = tuple(v for v in bx.cut_nodes if v not in name)
    for v in cut_nodes:
        orbit[v] = x.orbit[v]
    edges = tuple(sorted({(name[c], v) for c, v in bx.edges if v in cut_nodes}))
    flags = {}
    for s in pieces:
        merged = [n for n in s if n in bx.cut_nodes]
        flags[min(s)] = bool(merged) and all(groups.h_elliptic(x.stab[v]) for v in merged)
    return tuple(sorted(cells)), cells, cut_nodes, edges, orbit, flags


def level(h, n):
    """The node ids of a hierarchy at depth n."""
    return {nid for nid in h.nodes if h.depth_of(nid) == n}


@dataclass(frozen=True)
class HEllipticity:
    value: bool
    horizon_relative: bool
    witness: tuple  # node ids, one per level, containing the group


def is_h_elliptic(gid, h, groups) -> HEllipticity:
    """Is the group inside a terminal node's group, or inside one node on
    every level down to the run's horizon?

    A non-slender group may sit in at most one node per level; more is an
    inconsistent fixture.
    """
    from passdown.errors import ConsistencyError
    from passdown.hierarchy import depth

    per_level = defaultdict(list)
    max_depth = depth(h)
    for nid, node in h.nodes.items():
        if groups.leq(gid, node.group):
            per_level[h.depth_of(nid)].append(nid)
    if not groups.slender(gid):
        for lvl, nids in per_level.items():
            if len(nids) > 1:
                raise ConsistencyError(
                    f"non-slender group {gid!r} sits in several nodes at level {lvl}: {sorted(nids)}"
                )
    for nid, node in h.nodes.items():
        if node.is_terminal() and groups.leq(gid, node.group):
            chain = []
            cur = node
            while cur is not None:
                chain.append(cur.id)
                cur = h.nodes[cur.parent] if cur.parent else None
            return HEllipticity(True, False, tuple(reversed(chain)))
    # descending chain through every level to the horizon
    chain = []
    node = h.nodes[h.root]
    while groups.leq(gid, node.group):
        chain.append(node.id)
        nxt = [c for c in h.children_of(node.id) if groups.leq(gid, c.group)]
        if not nxt:
            break
        node = nxt[0]
    if len(chain) == max_depth + 1 and h.nodes[chain[-1]].is_frontier():
        return HEllipticity(True, True, tuple(chain))
    return HEllipticity(False, False, ())
