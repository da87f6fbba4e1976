"""Independent oracles, written against the definitions and kept free of
the library's own code paths.  These were frozen before the main
implementations and must stay that way.  The hierarchy helpers at the
end (``level``, ``is_h_elliptic``) are definitions only the tests use."""

import functools
import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np


def h1_rank_oracle(x):
    """dim H^1 over Z2 from explicit cochain matrices, reduced with numpy.

    Builds d0: C^0 -> C^1 as a dense 0/1 matrix and returns
    dim ker d1 - dim im d0, with the rank of d1: C^1 -> C^2 from
    ``boundary_rank_oracle``.
    """
    vi = {v: i for i, v in enumerate(sorted(x.vertices))}
    d0 = np.zeros((len(x.edges), len(vi)), dtype=np.int64)
    for r, e in enumerate(sorted(x.edges)):
        for v in x.edges[e]:
            d0[r, vi[v]] ^= 1
    return (len(x.edges) - boundary_rank_oracle(x)) - _rank_mod2(d0)


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
    one complex, sharing a side that tau_n sends to the pair's edge.
    Each level's stable pairs are recomposed once, for every candidate n0."""

    @functools.cache
    def stable(n):
        return stable_pairs(run, n).pairs

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
            for pair in stable(n + 1):
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


def bw_by_definition(x, classes, groups):
    """B_w and B'_w by the walk over the sides of every class triangle,
    whatever the number of classes: class nodes, the edges lying in two
    classes or more and their incidences; then the classes around each
    non-slender shared edge merged, and that edge dropped."""
    from passdown import graphs
    from passdown.stability import BipartiteBW

    edge_classes = defaultdict(set)
    for cls in classes:
        for fid in cls.triangles:
            for eid in x.faces[fid]:
                edge_classes[eid].add(cls.id)
    shared = sorted(e for e, cs in edge_classes.items() if len(cs) > 1)
    bw = BipartiteBW(
        class_nodes=tuple(sorted(c.id for c in classes)),
        edge_nodes=tuple(shared),
        edges=tuple(sorted((cid, e) for e in shared for cid in edge_classes[e])),
    )
    uf, dropped = graphs.UnionFind(), set()
    for e in shared:
        if not groups.slender(x.stab[e]):
            dropped.add(e)
            cids = sorted(edge_classes[e])
            for c in cids[1:]:
                uf.union(cids[0], c)
    kept = [e for e in shared if e not in dropped]
    bpw = BipartiteBW(
        class_nodes=tuple(sorted({uf.find(c.id) for c in classes})),
        edge_nodes=tuple(kept),
        edges=tuple(sorted({(uf.find(c), e) for e in kept for c in edge_classes[e]})),
    )
    return bw, bpw


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
        link = {fid: tuple(sorted(set(x.face_vertices(fid)) - {v})) for fid in x.triangles_by_vertex[v]}
        for _verts, fids in graphs.blocks({w for ends in link.values() for w in ends}, link)[0]:
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
        a, b = sorted(set(x.face_vertices(fid)) - {v})
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
    for composed in compositions(run, n, m):
        pass
    return composed


def compositions(run, n, last=None):
    """tau_{n,m} for m = n, n+1, ... up to ``last`` (the horizon by
    default), each composed from the one before by one more step."""
    tri = {key: key for key in run.levels[n].triangles()}
    edge = {}
    for cid, x in run.levels[n].complexes.items():
        for fid in x.triangles():
            for eid in x.faces[fid]:
                edge[((cid, fid), eid)] = eid
    yield tri, edge
    for step in range(n, run.horizon if last is None else last):
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
        yield tri, edge


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
    horizon, by composing tau from n to each later level, one step more
    each time: the definition that ``stable_pair_sets`` and
    ``stability.stable_classes`` compute in one sweep."""
    stable = pairs_at(run, n)
    for composed in itertools.islice(compositions(run, n), 1, None):
        stable = [pair for pair in stable if descends_to_pair(pair, *composed)]
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
    from passdown.stability import TriangleClass

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


def class_cutpoints(x, triangles):
    """Cutpoints of the subcomplex that a set of triangles of ``x`` spans
    with their sides and corners, read off ``x`` without building it: the
    articulation vertices of the graph on the triangles' sides.  The class
    check that ``stability.classes_of_complex`` makes true by construction;
    ``subcomplex_of`` builds the subcomplex it reads off."""
    from passdown import graphs

    edges = {eid: x.edges[eid] for fid in triangles for eid in x.faces[fid]}
    return frozenset(graphs.cut_vertices(graphs.blocks({w for ends in edges.values() for w in ends}, edges)[0]))


def identity_fragment(x):
    """The identity triangle map of x: each face to itself, each side to
    itself."""
    from passdown.provenance import TauFragment

    return TauFragment(
        triangle_map={f: f for f in x.triangles()},
        edge_map={(f, e): e for f in x.triangles() for e in x.faces[f]},
    )


def compose_fragments(first, then):
    """``first`` followed by ``then``, both fragments with per-face maps: a
    face goes where ``then`` takes its image under ``first`` (None when
    either drops it), and a side where ``then`` takes its image, while its
    face survives both.  The composition the generated runs and
    ``finish_collapse`` follow one fragment with another by."""
    from passdown.provenance import TauFragment

    tri = {t: None if img is None else then.triangle_map.get(img) for t, img in first.triangle_map.items()}
    edges = {}
    for (t, e), fe in first.edge_map.items():
        ft = first.triangle_map.get(t)
        if ft is not None and tri.get(t) is not None and (ft, fe) in then.edge_map:
            edges[(t, e)] = then.edge_map[(ft, fe)]
    return TauFragment(triangle_map=tri, edge_map=edges)


def check_resolution(res):
    """What the resolution constructor builds, against the definitions:
    every edge has a path, and it is the reduced path between its endpoint
    images (either way round; the finite part by ``bfs_path`` between the
    images or the truncated leaves of ideal ones), with no vertex twice;
    the resolution is contracting exactly when some edge has both ends at
    one ideal point; and the vertices of one orbit map to one tree orbit
    (an ideal point is an orbit of its own)."""
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
    image_orbit = {}
    for v in sorted(x.vertices):
        img = res.vertex_image[v]
        key = t.orbit.get(img, img)
        assert image_orbit.setdefault(x.orbit[v], key) == key, f"vertices of orbit {x.orbit[v]!r} map to different target orbits"


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
    return TrackSystem(resolution=res, tracks=tuple(tracks), crossings=crossings)


def collapse_by_construction(ts_star, groups):
    """``tracks.split_collapse`` with the collapsed complex built cell by
    cell in every case, no track and no ideal vertex included: one point
    per track, one segment per consecutive pair of nodes along an edge and
    one central triangle per face, then ``finish_collapse``.  An edge's
    segments are numbered from its end in the least vertex orbit, from its
    first stored end when both ends are in one orbit."""
    from passdown.complexes import Complex2, fresh_separator
    from passdown.errors import EngineError, TruncationError
    from passdown.provenance import TauFragment

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

    sep = fresh_separator((x.stab.keys(), x.orbit.values()), minted, ".")

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
        if not untouched and x.orbit[v] < x.orbit[u]:
            # numbered from the end in the least vertex orbit
            u, v = v, u
            points.reverse()
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
        sides = {pair: x.edges_by_pair[pair][0] for pair in ((a, b), (b, c), (a, c))}
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


def _grouped(pairs):
    """{key: tuple of ids} from (key, id) pairs, keeping their order."""
    out = defaultdict(list)
    for key, cid in pairs:
        out[key].append(cid)
    return {key: tuple(ids) for key, ids in out.items()}


def incidence_by_grouping(x):
    """The four incidence maps of ``complexes.CellData``, each grouped from
    a stream of (key, id) pairs: edges by vertex pair in id order,
    triangles by vertex in face order (corners in sorted order),
    by side in id order and by vertex triple in id order.  Pairs and
    triples are grouped as vertex sets and keyed by sorted tuples at the
    end."""
    fv = {fid: frozenset(w for eid in es for w in x.edges[eid]) for fid, es in x.faces.items()}
    tris = [fid for fid, es in x.faces.items() if len(es) == 3]
    by_pair = _grouped((frozenset(x.edges[eid]), eid) for eid in sorted(x.edges))
    by_triple = _grouped((fv[fid], fid) for fid in sorted(tris))
    return {
        "edges_by_pair": {tuple(sorted(key)): ids for key, ids in by_pair.items()},
        "triangles_by_vertex": _grouped((v, fid) for fid in tris for v in sorted(fv[fid])),
        "triangles_by_edge": _grouped((eid, fid) for fid in sorted(tris) for eid in x.faces[fid]),
        "triangles_by_triple": {tuple(sorted(key)): ids for key, ids in by_triple.items()},
    }


def is_canonical_by_sorting(x):
    """Simplicial, and the cell dicts equal to the canonical ones listed
    from the sorted vertex pairs and triples: each edge ``(u, v)`` with
    ``u < v``, each triangle with sides ``(ab, bc, ac)``."""
    incidence = incidence_by_grouping(x)
    by_pair, by_triple = incidence["edges_by_pair"], incidence["triangles_by_triple"]
    if len(by_pair) != len(x.edges) or len(by_triple) != len(x.faces):
        return False

    def edge(u, v):
        return by_pair[(u, v)][0]

    return (
        list(x.edges.items()) == [(edge(u, v), (u, v)) for u, v in sorted(by_pair)]
        and list(x.faces.items())
        == [(by_triple[(a, b, c)][0], (edge(a, b), edge(b, c), edge(a, c))) for a, b, c in sorted(by_triple)]
    )


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


def reduction_by_quotient(x, groups):
    """``complexes.reduce_with_map`` by its definition: the cell map that
    keeps the least edge on each vertex pair and the least triangle on each
    vertex triple and drops every bigon (vertices, then edges and
    triangles in the order of the incidence maps), every label induced
    along it by ``quotient_labels``, the cells stored in canonical order,
    and the containments declared when a class label is minted."""
    from passdown.complexes import Complex2, declare_containments

    cell_map = {v: v for v in x.vertices}
    edge_at, face_at = {}, {}
    incidence = incidence_by_grouping(x)
    for at, by_key in ((edge_at, incidence["edges_by_pair"]), (face_at, incidence["triangles_by_triple"])):
        for key, sources in by_key.items():
            at[key] = min(sources)
            cell_map.update((src, min(sources)) for src in sources)
    for fid in x.bigons():
        cell_map[fid] = None
    stab, orbit, stab_plus = quotient_labels(x, cell_map, groups, prefix="red")
    out = Complex2(
        vertices=x.vertices,
        edges={edge_at[key]: key for key in sorted(edge_at)},
        faces={face_at[(a, b, c)]: (edge_at[(a, b)], edge_at[(b, c)], edge_at[(a, c)]) for a, b, c in sorted(face_at)},
        stab=stab,
        orbit=orbit,
        boundary_marked=x.boundary_marked,
        stab_plus=stab_plus,
    )
    if not set(x.stab.values()).issuperset(stab.values()):
        declare_containments(out, groups)
    return out, cell_map


def quotient_labels(x, cell_map, groups, prefix, extra_stab=None):
    """Induce stabilizer/orbit labels along a surjective cell map.

    ``cell_map`` sends source cells to image cells (or None for collapsed
    cells).  Source orbits whose cells land on a common image are merged
    (the quotient of an equivariant collapse); a merged class keeps its
    shared label when it has one and otherwise gets a fresh ref with no
    declared supergroups.  An image edge whose sources carry several
    oriented labels gets a fresh ref above them, declared in label order.
    ``extra_stab`` pre-assigns labels for image cells that have no source
    (contracted-component vertices).  A class holding such a cell gets no
    class label: its other image cells keep their sources' labels, so a
    class whose cells differ is refused naming the labels they carry."""
    from passdown import graphs

    preimages = defaultdict(list)
    for src in sorted(cell_map, key=str):
        img = cell_map[src]
        if img is not None:
            preimages[img].append(src)

    # merge source orbits that share an image anywhere
    uf = graphs.UnionFind()
    find = uf.find
    for srcs in preimages.values():
        first = x.orbit[srcs[0]]
        for src in srcs[1:]:
            uf.union(first, x.orbit[src])

    stab = dict(extra_stab or {})
    preset = {find(x.orbit[preimages[img][0]]) for img in stab if img in preimages}
    class_labels = defaultdict(set)
    for src, img in cell_map.items():
        cls = find(x.orbit[src])
        if img is not None and cls not in preset:
            class_labels[cls].add(x.stab[src])

    class_ref = {}
    for cls in sorted(class_labels):
        labels = sorted(class_labels[cls])
        if len(labels) == 1:
            class_ref[cls] = labels[0]
        else:
            class_ref[cls] = groups.mint(prefix).id

    orbit, stab_plus = {}, {}
    for img, srcs in preimages.items():
        cls = find(x.orbit[srcs[0]])
        orbit[img] = cls
        if img not in stab:
            stab[img] = x.stab[srcs[0]] if cls in preset else class_ref[cls]
        plus = {x.edge_stab_plus(s) for s in srcs if s in x.edges}
        if plus:
            if len(plus) == 1:
                stab_plus[img] = plus.pop()
            else:
                ref = groups.mint(prefix + ".plus")
                for old in sorted(plus):
                    groups.declare_leq(old, ref.id)
                stab_plus[img] = ref.id
    for img in stab:
        orbit.setdefault(img, img)
    return stab, orbit, stab_plus


def wire_and_validate(x, groups):
    """Record the face<=edge<=vertex containments of a synthesized complex,
    then make every other check of ``validate_complex``."""
    from passdown.complexes import _validate_cells, _validate_label_refs, _validate_orbit_labels, declare_containments

    declare_containments(x, groups)
    _validate_cells(x)
    _validate_label_refs(x, groups)
    _validate_orbit_labels(x)


def check_consistency(frag, source, target):
    """Every face ``frag`` names is a face of ``source``, and its image one
    of ``target``; every side it maps is a side of its face, and its image
    a side of the face's image."""
    from passdown.errors import EngineError

    for t, img in frag.triangle_map.items():
        if t not in source.faces:
            raise EngineError(f"provenance names unknown source face {t!r}")
        if img is not None and img not in target.faces:
            raise EngineError(f"provenance names unknown image face {img!r}")
    for (t, e), fe in frag.edge_map.items():
        if e not in source.faces[t]:
            raise EngineError(f"provenance side {e!r} is not a side of {t!r}")
        img = frag.triangle_map.get(t)
        if img is not None and fe not in target.faces[img]:
            raise EngineError(f"provenance image side {fe!r} is not a side of {img!r}")


def finish_collapse(x, collapsed, frag, groups, step):
    """Finish a collapse of ``x`` onto ``collapsed``, whose cells ``frag``
    follows: record the containments of ``collapsed`` and validate it,
    reduce it (``reduction_by_quotient``), and follow ``frag`` with the
    reduction.  The result must be consistent and no larger in covolume
    than ``x``.  Returns (reduced complex, fragment from ``x``)."""
    from passdown.complexes import covolume
    from passdown.errors import EngineError
    from passdown.provenance import TauFragment

    wire_and_validate(collapsed, groups)
    reduced, red_map = reduction_by_quotient(collapsed, groups)
    if len(reduced.edges) == len(collapsed.edges) and len(reduced.faces) == len(collapsed.faces):
        # no cell merged and no bigon dropped: the cell map is the identity
        out = frag
    else:
        out = compose_fragments(
            frag,
            TauFragment(
                triangle_map={f: red_map[f] for f in collapsed.triangles()},
                edge_map={
                    (f, e): red_map[e]
                    for f in collapsed.triangles()
                    if red_map[f] is not None
                    for e in collapsed.faces[f]
                },
            )
        )
        out.track_point = frag.track_point
    check_consistency(out, x, reduced)
    if covolume(reduced) > covolume(x):
        raise EngineError(f"{step} increased covolume")
    return reduced, out


def contract_by_construction(res, groups):
    """``resolution.contract`` with the collapsed complex's labels induced
    along its whole cell map by ``quotient_labels``, and finished by
    ``finish_collapse``."""
    from passdown import graphs
    from passdown.complexes import Complex2, fresh_separator
    from passdown.errors import EngineError, HypothesisError
    from passdown.provenance import TauFragment
    from passdown.resolution import CONTRACTING, SPLITTING, resolution_from_images

    if res.kind != CONTRACTING:
        raise HypothesisError("contract applies to contracting (type II) resolutions only")
    x = res.source
    boundary_edges = res.boundary_edges()
    if not boundary_edges:
        raise EngineError("contracting resolution without boundary edges")
    ideal_verts = res.ideal_vertices()

    uf = graphs.UnionFind()
    find = uf.find
    for eid in boundary_edges:
        uf.union(*x.edges[eid])

    classes = uf.classes(ideal_verts)
    merged = [rep for rep, members in classes.items() if len(members) > 1]
    sep = fresh_separator((x.stab.keys(), x.orbit.values()), lambda sep: (f"c{sep}{rep}" for rep in merged), ":")
    comp_vertex = {}
    image_override = {}
    extra_stab = {}
    ref_by_signature = {}
    for rep, members in classes.items():
        images = {res.vertex_image[v] for v in members}
        if len(images) != 1:
            raise EngineError("one collapsed component maps to several ideal points")
        if len(members) == 1:
            comp_vertex[rep] = rep  # singleton: keep the vertex and its label
        else:
            cid = f"c{sep}{rep}"
            comp_vertex[rep] = cid
            # components in one orbit share one fresh slender label
            sig = frozenset(x.orbit[v] for v in members)
            if sig not in ref_by_signature:
                ref_by_signature[sig] = groups.mint("cmp", slender=True).id
            extra_stab[cid] = ref_by_signature[sig]
        image_override[comp_vertex[rep]] = images.pop()

    vertex_map = {}
    for v in sorted(x.vertices):
        vertex_map[v] = comp_vertex[find(v)] if v in ideal_verts else v

    new_edges, edge_map = {}, {}
    for eid in sorted(x.edges):
        if eid in boundary_edges:
            edge_map[eid] = None
            continue
        u, v = x.edges[eid]
        nu, nv = vertex_map[u], vertex_map[v]
        if nu == nv:
            raise EngineError(f"surviving edge {eid!r} collapsed to a loop")
        new_edges[eid] = (nu, nv)
        edge_map[eid] = eid

    new_faces, face_map = {}, {}
    for fid in sorted(x.faces):
        es = [e for e in x.faces[fid] if edge_map[e] is not None]
        if len(es) <= 1:
            face_map[fid] = None
            continue
        new_faces[fid] = tuple(es)
        face_map[fid] = fid

    cell_map = {}
    cell_map.update(vertex_map)
    cell_map.update(edge_map)
    cell_map.update(face_map)
    stab, orbit, stab_plus = quotient_labels(x, cell_map, groups, prefix="cmp", extra_stab=extra_stab)
    collapsed = Complex2(
        vertices=frozenset(vertex_map[v] for v in x.vertices),
        edges=new_edges,
        faces=new_faces,
        stab=stab,
        orbit=orbit,
        boundary_marked=frozenset(
            vertex_map[v] for v in x.boundary_marked if vertex_map[v] is not None
        ),
        stab_plus=stab_plus,
    )
    # a triangle survives when it keeps all three sides
    tri_map = {f: f if len(new_faces.get(f, ())) == 3 else None for f in x.triangles()}
    frag = TauFragment(
        triangle_map=tri_map,
        edge_map={(f, e): e for f, img in tri_map.items() if img is not None for e in x.faces[f]},
    )
    xc, frag = finish_collapse(x, collapsed, frag, groups, "contraction")
    new_image = {v: image_override[v] if v in image_override else res.vertex_image[v] for v in xc.vertices}
    descended = resolution_from_images(xc, res.target, new_image, actions=res.actions)
    if descended.kind != SPLITTING:
        raise EngineError("descended resolution still has boundary edges")
    return xc, descended, frag


def validation_by_walk(x, groups):
    """``complexes.validate_complex`` with every label looked up and every
    containment checked cell by cell: the cells (``cells_by_walk``), cell
    labels in ``cells()`` order, oriented labels in stored order, then each
    face below its sides and its sorted corners and each edge below its
    ends, then the orbits (``orbits_by_walk``) and the face shapes
    (``face_shapes_by_walk``), so the first failing cell raises."""
    from passdown.errors import ConsistencyError, FixtureError

    cells_by_walk(x)
    for cell in x.cells():
        groups[x.stab.get(cell, "1")]
    for eid in x.stab_plus:
        if eid not in x.edges:
            raise FixtureError(f"stab+ label on missing edge {eid!r}")
        groups[x.stab_plus[eid]]
    below = [(fid, above) for fid, es in x.faces.items() for above in (*es, *sorted({w for e in es for w in x.edges[e]}))]
    below += [(eid, w) for eid, ends in x.edges.items() for w in ends]
    for cell, above in below:
        if not groups.leq(x.stab[cell], x.stab[above]):
            kind = "face" if cell in x.faces else "edge"
            kind_above = "edge" if above in x.edges else "vertex"
            raise ConsistencyError(
                f"{kind} {cell!r} stabilizer {x.stab[cell]!r} not declared inside {kind_above} {above!r} stabilizer"
            )
    orbits_by_walk(x.cells(), x.stab, x.orbit, x.edges, vertex=x.vertices, edge=x.edges, face=x.faces)
    face_shapes_by_walk(x)


def cells_by_walk(x):
    """The cell checks of ``complexes.validate_complex``, cell by cell:
    ids unique across kinds in ``cells()`` order, then each edge (no loop,
    both ends declared), each face (two or three sides, each declared, none
    repeated), each face's shape, and each boundary mark."""
    from passdown.errors import FixtureError

    ids = set()
    for cell in x.cells():
        if cell in ids:
            raise FixtureError(f"cell id {cell!r} is not unique across vertices/edges/faces")
        ids.add(cell)
    for eid, (u, v) in x.edges.items():
        if u == v:
            raise FixtureError(f"edge {eid!r} is a loop")
        for w in (u, v):
            if w not in x.vertices:
                raise FixtureError(f"edge {eid!r} references missing vertex {w!r}")
    for fid, es in x.faces.items():
        if len(es) not in (2, 3):
            raise FixtureError(f"face {fid!r} must be a triangle or a bigon")
        for eid in es:
            if eid not in x.edges:
                raise FixtureError(f"face {fid!r} references missing edge {eid!r}")
        if len(es) != len(set(es)):
            raise FixtureError(f"face {fid!r} repeats an edge")
    for fid, es in x.faces.items():
        if len(es) == 2:
            if frozenset(x.edges[es[0]]) != frozenset(x.edges[es[1]]):
                raise FixtureError(f"bigon {fid!r} edges do not share both endpoints")
        else:
            if len({w for e in es for w in x.edges[e]}) != 3:
                raise FixtureError(f"triangle {fid!r} does not close up on 3 vertices")
            if len({frozenset(x.edges[eid]) for eid in es}) != 3:
                raise FixtureError(f"triangle {fid!r} edges do not close up combinatorially")
    for w in x.boundary_marked:
        if w not in x.vertices:
            raise FixtureError(f"boundary mark on missing vertex {w!r}")


def orbits_by_walk(cells, stab, orbit, edges, **cells_by_kind):
    """The orbit checks of a complex or tree, by a walk of every cell:
    the first orbit, in the order of ``cells``, whose cells carry several
    labels; then the first edge orbit whose edges join two pairs of vertex
    orbits; then the first orbit with cells of two kinds, named at its
    first cell of a later kind."""
    from passdown.errors import ConsistencyError

    labels = defaultdict(set)
    for cell in cells:
        labels[orbit[cell]].add(stab[cell])
    for oid, held in labels.items():
        if len(held) > 1:
            raise ConsistencyError(f"orbit {oid!r} carries several stabilizer labels: {sorted(held)}")
    shape = {}
    for eid, (u, v) in edges.items():
        if shape.setdefault(orbit[eid], frozenset((orbit[u], orbit[v]))) != frozenset((orbit[u], orbit[v])):
            raise ConsistencyError(f"edges of orbit {orbit[eid]!r} have mismatched endpoint orbits")
    kind_of = {}
    for kind, held in cells_by_kind.items():
        for cell in held:
            if kind_of.setdefault(orbit[cell], kind) != kind:
                raise ConsistencyError(
                    f"orbit {orbit[cell]!r} holds cells of two kinds: {kind} {cell!r} in an orbit of {kind_of[orbit[cell]]} cells"
                )


def face_shapes_by_walk(x):
    """The face-shape check of ``validate_complex``, by a walk of every
    face: the first face orbit whose faces differ in their side orbits or
    corner orbits, each compared as a multiset; then, by a walk of every
    edge over all faces, the first edge orbit whose edges differ in the
    multiset of the orbits of the faces on them."""
    from passdown.errors import ConsistencyError

    shape = {}
    for fid, es in x.faces.items():
        sides = Counter(x.orbit[e] for e in es)
        corners = Counter(x.orbit[w] for w in {w for e in es for w in x.edges[e]})
        if shape.setdefault(x.orbit[fid], (sides, corners)) != (sides, corners):
            raise ConsistencyError(f"faces of orbit {x.orbit[fid]!r} have mismatched side or corner orbits")
    for eid in x.edges:
        faces = Counter(x.orbit[fid] for fid, es in x.faces.items() if eid in es)
        if shape.setdefault(x.orbit[eid], faces) != faces:
            raise ConsistencyError(f"edges of orbit {x.orbit[eid]!r} have mismatched face orbits")


def make_complex_by_walk(vertices, edges, faces, stab=None, orbit=None, boundary_marked=(), stab_plus=None, groups=None):
    """``complexes.make_complex`` by its definition: copies of the cells
    and labels, a missing label filled in per cell, and every check by a
    walk (``validation_by_walk``; the cells only without a group table)."""
    from passdown.complexes import Complex2

    stab, orbit = dict(stab or {}), dict(orbit or {})
    x = Complex2(
        frozenset(vertices), dict(edges), {fid: tuple(es) for fid, es in dict(faces).items()}, stab, orbit,
        frozenset(boundary_marked), dict(stab_plus or {}),
    )
    for cell in x.cells():
        stab.setdefault(cell, "1")
        orbit.setdefault(cell, cell)
    if groups is None:
        cells_by_walk(x)
    else:
        validation_by_walk(x, groups)
    return x


def make_tree_by_walk(vertices, edges, ideal_points=None, stab=None, orbit=None, groups=None):
    """``trees.make_tree`` by its definition: copies of the cells and
    labels, a missing label filled in per cell, then the shape of a tree
    and its ideal points, every orbit check by a walk in sorted vertex
    order, and over ``groups`` each cell label and each edge below its
    ends."""
    from passdown import graphs
    from passdown.errors import ConsistencyError, FixtureError
    from passdown.trees import TreeHat

    stab, orbit = dict(stab or {}), dict(orbit or {})
    t = TreeHat(frozenset(vertices), dict(edges), {k: tuple(v) for k, v in (ideal_points or {}).items()}, stab, orbit)
    cells = [*sorted(t.vertices), *t.edges]
    for cell in cells:
        stab.setdefault(cell, "1")
        orbit.setdefault(cell, cell)
    if not t.vertices:
        raise FixtureError("tree must have at least one vertex")
    for eid, (u, v) in t.edges.items():
        if u == v or u not in t.vertices or v not in t.vertices:
            raise FixtureError(f"tree edge {eid!r} is malformed")
    if len(t.edges) != len(t.vertices) - 1:
        raise FixtureError("tree must satisfy |E| = |V| - 1")
    if len(graphs.components(t.vertices, t.edges.values())) != 1:
        raise FixtureError("tree is disconnected")
    used_leaves = {}
    for pid, ray in t.ideal_points.items():
        if pid in t.vertices or pid in t.edges:
            raise FixtureError(f"ideal point id {pid!r} collides with a tree cell")
        if not ray or len(set(ray)) != len(ray):
            raise FixtureError(f"ideal point {pid!r} needs a simple ray")
        for w in ray:
            if w not in t.vertices:
                raise FixtureError(f"ray of ideal point {pid!r} references missing vertex {w!r}")
        for a, b in zip(ray, ray[1:]):
            if b not in t.adjacency.get(a, ()):
                raise FixtureError(f"ray of ideal point {pid!r} is not a path")
        if t.degree(ray[-1]) > 1:
            raise FixtureError(f"ideal point {pid!r} must end at a leaf (truncated end)")
        if ray[-1] in used_leaves:
            raise FixtureError(f"ideal points {used_leaves[ray[-1]]!r} and {pid!r} share a truncated end")
        used_leaves[ray[-1]] = pid
    orbits_by_walk(cells, stab, orbit, t.edges, vertex=t.vertices, edge=t.edges)
    if groups is not None:
        for cell in cells:
            groups[stab[cell]]
        for eid, (u, v) in t.edges.items():
            for w in (u, v):
                if not groups.leq(stab[eid], stab[w]):
                    raise ConsistencyError(f"tree edge {eid!r} stabilizer not declared inside endpoint {w!r} stabilizer")
    return t


def read_line(block, ln, text, header=False):
    """``fixtures``' reading of one line by its definition: ``(ln, words,
    flags, keys)`` of ``text``, line ``ln`` of ``block`` with its comment
    stripped, split and checked against its ``GRAMMAR`` form (a header by
    its block name, a restrict line by its fourth positional word, a config
    line by none, any other by its first, which is not the block name)."""
    from passdown.errors import FixtureError
    from passdown.fixtures import GRAMMAR

    words, keys = text.split(), {}
    if "=" in text:
        tokens, words = words, []
        for tok in tokens:
            if "=" in tok:
                key, value = tok.split("=", 1)
                keys[key] = value
            else:
                words.append(tok)
    if header:
        kind = block
    elif block == "restrict":
        kind = words[3] if len(words) > 3 else None
    elif block == "config":
        kind = None
    else:
        kind = words[0] if words else None
    form = GRAMMAR.get((block, kind)) if header or kind != block else None
    if form is None:
        raise FixtureError(f"bad {block} line: {text.strip()!r}", line=ln)
    arity, allowed_flags, allowed_keys, optional = form
    flags = frozenset()
    if allowed_flags and not allowed_flags.isdisjoint(words):
        flags = allowed_flags.intersection(words)
        words = [w for w in words if w not in flags]
    if not arity - optional <= len(words) <= arity:
        if header:
            raise FixtureError("expected: " + " ".join([block] + ["<name>"] * (arity - 1)), line=ln)
        raise FixtureError(f"bad {block} line: {text.strip()!r}", line=ln)
    if keys and not allowed_keys.issuperset(keys):
        label = block if kind in (block, None) else f"{block} {kind}"
        unknown = next(key for key in keys if key not in allowed_keys)
        raise FixtureError(f"unknown {label} key {unknown!r}", line=ln)
    return ln, words, flags, keys


def parse_by_walk(text):
    """``fixtures.parse_text`` by its definition: each line read by
    ``read_line``, a complex or tree block built by ``make_complex_by_walk``
    or ``make_tree_by_walk`` from cells each declared once per kind (a
    triangle and a bigon are both faces, an ideal line an ideal point),
    and every other block by its reader in ``fixtures``.  An error
    without a line is tied to its block's header line."""
    from passdown import fixtures
    from passdown.errors import FixtureError

    fx, lines, i = fixtures.FixtureSet(), text.splitlines(), 0

    def cells(body, third):
        vertices, edges, other, seen, labels, flagged = [], {}, {}, defaultdict(set), defaultdict(dict), []
        for ln, words, flags, keys in body:
            kind, cell = words[0], words[1]
            named = {"triangle": "face", "bigon": "face", "ideal": "ideal point"}.get(kind, kind)
            if cell in seen[named]:
                raise FixtureError(f"{named} {cell!r} is declared twice", line=ln)
            seen[named].add(cell)
            if kind == "vertex":
                vertices.append(cell)
            elif kind == "edge":
                edges[cell] = (words[2], words[3])
            else:
                other[cell] = tuple(words[2:]) if third == "face" else tuple(keys["ray"].split(",")) if "ray" in keys else ()
            flagged += [cell] * bool(flags)
            for key, value in keys.items():
                labels[key][cell] = value
        return vertices, edges, other, flagged, labels

    def complex_block(fx, header, body):
        vertices, edges, faces, marked, labels = cells(body, "face")
        fx.complexes[header[1][1]] = make_complex_by_walk(
            vertices, edges, faces, labels["stab"], labels["orbit"], marked, labels["stabplus"], fx.groups
        )

    def tree_block(fx, header, body):
        vertices, edges, ideal, _flagged, labels = cells(body, "ideal point")
        fx.trees[header[1][1]] = make_tree_by_walk(vertices, edges, ideal, labels["stab"], labels["orbit"], fx.groups)

    blocks = {**fixtures._BLOCKS, "complex": complex_block, "tree": tree_block}
    while i < len(lines):
        raw = lines[i].split("#", 1)[0].strip()
        if not raw:
            i += 1
            continue
        head = next((w for w in raw.split() if "=" not in w), None)
        if head is None:
            raise FixtureError(f"expected a block header, got {raw!r}", line=i + 1)
        try:
            if head == "restrict":
                fixtures._parse_restrict(fx, read_line(head, i + 1, raw))
            elif head in blocks:
                header, body, j = read_line(head, i + 1, raw, header=True), [], i + 1
                while True:
                    if j == len(lines):
                        raise FixtureError("unterminated block", line=i + 1)
                    stripped = lines[j].split("#", 1)[0].strip()
                    if stripped == "end":
                        break
                    if stripped:
                        body.append(read_line(head, j + 1, stripped))
                    j += 1
                blocks[head](fx, header, body)
                i = j
            else:
                raise FixtureError(f"unknown block {head!r}", line=i + 1)
        except FixtureError as exc:
            if exc.line is None:
                raise type(exc)(str(exc), line=i + 1) from exc
            raise
        except Exception as exc:
            raise FixtureError(str(exc), line=i + 1) from exc
        i += 1
    return fx


def resolution_by_cell_classification(x, t, actions):
    """``resolution.build_resolution`` with every cell classified in turn:
    every cell label in ``cells()`` order, up to the first hyperbolic one,
    then every vertex and edge label in sorted order, up to the first
    dihedral one; then the resolution."""
    from passdown.errors import ConsistencyError, HypothesisError
    from passdown.resolution import build_resolution

    for cell in x.cells():
        if actions.classification(x.stab[cell]) == "hyperbolic":
            raise HypothesisError(
                f"cell {cell!r} has a hyperbolically-acting stabilizer; no resolution exists", lemma="resolution"
            )
    for cell in sorted(x.vertices) + sorted(x.edges):
        if actions.classification(x.stab[cell]) == "dihedral":
            raise ConsistencyError(f"cell {cell!r} classified dihedral, but no D-infinity action is ever allowed")
    return build_resolution(x, t, actions)


def cutpoint_piece_check(x):
    """What ``hierarchy._cutpoint_pieces`` hands each piece without a
    check: it is connected, with h1 = 0 by the cochain ranks."""
    return len(brute_components(x.vertices, x.edges.values())) == 1 and h1_rank_oracle(x) == 0


def separator_by_minting(taken, minted, sep):
    """``complexes.fresh_separator`` by its definition: lengthen ``sep``
    until no id ``minted(sep)`` yields is taken."""
    while not taken.isdisjoint(minted(sep)):
        sep += sep[0]
    return sep


def subcomplex(x, cells):
    """The full subcomplex on a downward-closed cell set, keeping the order
    of ``x``'s cell dicts: what ``hierarchy._cutpoint_pieces`` builds for
    each piece, one piece at a time, with cells and labels copied from
    ``x`` and nothing handed on."""
    from passdown.complexes import Complex2

    cells = set(cells)
    verts = x.vertices & cells
    edges = {eid: ends for eid, ends in x.edges.items() if eid in cells}
    return Complex2(
        vertices=verts,
        edges=edges,
        faces={fid: es for fid, es in x.faces.items() if fid in cells},
        stab={c: x.stab[c] for c in cells},
        orbit={c: x.orbit[c] for c in cells},
        boundary_marked=x.boundary_marked & verts,
        stab_plus={eid: x.stab_plus[eid] for eid in edges if eid in x.stab_plus},
    )


def subcomplex_of(cls, x):
    """The subcomplex a triangle class spans in x, built and checked:
    its triangles with their sides and corners.  Its cutpoints define the
    class check that ``class_cutpoints`` reads off x directly."""
    cells = set(cls.triangles)
    for fid in cls.triangles:
        for eid in x.faces[fid]:
            cells.add(eid)
            cells.update(x.edges[eid])
    return subcomplex(x, cells)


def block_cells(x):
    """The cells of each block of the 1-skeleton, closed under faces: its
    vertices and edges, and every face whose sides are all its edges."""
    return [
        set(verts | eids) | {fid for fid, es in x.faces.items() if eids.issuperset(es)} for verts, eids in x.skeleton_blocks
    ]


def orbit_signature(x, cells):
    """The sorted (kind, orbit) pairs of ``cells``."""
    return tuple(sorted((("f" if c in x.faces else "e" if c in x.edges else "v"), x.orbit[c]) for c in cells))


def cutpoint_tree(x, groups):
    """The bipartite tree B_X of cutpoint-free components and cut vertices.

    Requires a connected complex with h1_z2 = 0.  Cut-vertex nodes keep
    the vertex stabilizer; component nodes get fresh refs.  Each B_X edge
    is labeled by its cut vertex (the stabilizer of the matching link
    component sits inside it).
    """
    from passdown import graphs
    from passdown.complexes import CutpointTree, h1_z2, is_connected
    from passdown.errors import FixtureError

    if not is_connected(x):
        raise FixtureError("cutpoint tree needs a connected complex")
    if h1_z2(x) != 0:
        raise FixtureError("cutpoint tree needs h1_z2 = 0")
    cuts = sorted(graphs.cut_vertices(x.skeleton_blocks))
    blocks = block_cells(x)
    comp_nodes, comp_cells, node_stab, node_orbit, edges = [], {}, {}, {}, []
    sig_orbit = {}
    for i, cells in enumerate(sorted(blocks, key=lambda c: sorted(map(str, c)))):
        cid = f"C{i}"
        comp_nodes.append(cid)
        comp_cells[cid] = frozenset(cells)
        node_stab[cid] = groups.mint("blk").id
        sig = orbit_signature(x, cells)
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
        orbit[rep] = first.setdefault(orbit_signature(x, cells[rep]), rep)
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
