"""Dunwoody tracks of a splitting resolution and the collapse to X_T.

A track is a connected component of the preimage of one tree-edge
midpoint: combinatorially, a set of points on edges of X (one per crossed
edge) joined by arcs inside triangles (one arc per triangle in which the
tree edge crosses two sides).  Essential tracks split X into two infinite
parts; collapsing each of them to a point and reducing yields X_T,
together with the triangle provenance that drives the cross-level
analysis.
"""

from dataclasses import dataclass

from . import graphs
from .complexes import canonical_complex, declare_pairs, fresh_separator, h1_z2, is_connected, reduce_with_map
from .errors import ConsistencyError, EngineError, FixtureError, HypothesisError, TruncationError
from .groups import GroupTable
from .provenance import TauFragment
from .resolution import SPLITTING, Resolution


@dataclass(frozen=True)
class Track:
    id: str
    tree_edge: str
    points: frozenset  # edge ids of X carrying one point of this track
    arcs: dict  # face id -> pair of crossed side edge ids
    side_infinite: tuple = ()  # per component of the complement, by least vertex: is it infinite?

    @property
    def separates(self):
        return len(self.side_infinite) == 2


@dataclass(frozen=True)
class TrackSystem:
    resolution: Resolution
    tracks: tuple
    # edge id -> the tree edges its path crosses, ordered from its first
    # stored end: tabulated once by the extraction and read by the collapse
    # (empty over a tree with no edge, which nothing crosses)
    crossings: dict


def tracks_from_resolution(res: Resolution) -> TrackSystem:
    """Assemble the track system from the edge paths of a splitting
    resolution: crossing indicators, in-triangle arc pairings, connected
    tracks, and for each track whether each side of its complement is
    infinite.

    Each cell is read a bounded number of times: the crossings once per
    edge path (``resolution_from_images`` shares one path among the edges
    with the same end images), each triangle once for its arcs, and the
    sides of all tracks come from one components pass over the complement
    of all track points, whose pieces each track joins across the points
    of the other tracks, on a graph with one node per piece."""
    if res.kind != SPLITTING:
        raise HypothesisError("tracks are extracted from splitting (type I) resolutions")
    x = res.source
    if not x.is_simplicial():
        raise FixtureError("track extraction needs a simplicial complex")
    if not res.target.edges:
        # no tree edge, so no edge of X crosses one
        return TrackSystem(resolution=res, tracks=(), crossings={})

    crossings, by_path, edge_path = {}, {}, res.edge_path
    for eid in x.edges:
        fs = by_path.get(id(edge_path[eid]))  # the path object, held by the resolution
        if fs is None:
            fs = by_path[id(edge_path[eid])] = res.crossings(eid)
        crossings[eid] = fs

    # a point is (tree edge, edge id); the arcs, faces in id order, each
    # join two points of one tree edge, and a track is a component of them
    arcs = []  # (face, point, point)
    for fid in sorted(x.triangles()):
        per_f = {}
        for eid in x.faces[fid]:
            for f in crossings[eid]:
                per_f.setdefault(f, []).append(eid)
        for f, crossed in per_f.items():
            if len(crossed) != 2:
                raise EngineError(
                    f"tree edge {f!r} crosses {len(crossed)} side(s) of triangle {fid!r}; "
                    "arcs must close up"
                )
            e1, e2 = sorted(crossed)
            arcs.append((fid, (f, e1), (f, e2)))
    points = [(f, eid) for eid, fs in crossings.items() for f in fs]
    # by least point: tree edges in order, then the least edge id
    track_points = graphs.components(points, ((p, q) for _fid, p, q in arcs))
    track_of = {point: i for i, members in enumerate(track_points) for point in members}
    track_arcs = [{} for _ in track_points]
    for fid, p, q in arcs:
        track_arcs[track_of[p]][fid] = (p[1], q[1])

    # the pieces of X minus every track point, in least-vertex order, and
    # per pair of pieces joined by point-carrying edges the tracks with a
    # point on each of them: the complement of any other track joins them
    pieces = graphs.components(x.vertices, (ends for eid, ends in x.edges.items() if not crossings[eid]))
    piece_of = {v: i for i, piece in enumerate(pieces) for v in piece}
    ideal, marked = res.ideal_vertices(), x.boundary_marked
    infinite = [not (piece.isdisjoint(marked) and piece.isdisjoint(ideal)) for piece in pieces]
    blocked = {}
    for eid, (u, v) in x.edges.items():
        p, q = piece_of[u], piece_of[v]
        if p != q:
            on = {track_of[(f, eid)] for f in crossings[eid]}
            key = (p, q) if p < q else (q, p)
            blocked[key] = on & blocked.get(key, on)

    tracks = []
    for i, members in enumerate(track_points):
        # a side of the track is a class of pieces joined across it; its
        # least piece holds its least vertex
        sides = graphs.UnionFind(range(len(pieces)))
        for (p, q), on in blocked.items():
            if i not in on:
                sides.union(p, q)
        infinite_sides = tuple(any(infinite[j] for j in side) for side in sides.classes().values())
        tracks.append(Track(f"s{i}", min(members)[0], frozenset(eid for _f, eid in members), track_arcs[i], infinite_sides))
    return TrackSystem(resolution=res, tracks=tuple(tracks), crossings=crossings)


def essential_tracks(ts: TrackSystem) -> TrackSystem:
    """The subfamily of tracks both of whose sides are infinite, where a
    side is infinite iff it holds a boundary-marked vertex or a vertex
    mapped to an ideal point."""
    x = ts.resolution.source
    if not is_connected(x):
        raise HypothesisError("essential-track selection needs a connected complex")
    if h1_z2(x) != 0:
        raise HypothesisError("essential-track selection needs h1_z2 = 0")
    keep = []
    for tr in ts.tracks:
        if not tr.separates:
            raise EngineError(
                f"track {tr.id!r} does not split the complex into two parts despite h1 = 0"
            )
        if all(tr.side_infinite):
            keep.append(tr)
    return TrackSystem(resolution=ts.resolution, tracks=tuple(keep), crossings=ts.crossings)


# ---------------------------------------------------------------------------
# the collapse X* / Lambda* and its reduction X_T


def _corners_and_sides(edges, sides):
    """The corners a < b < c of a triangle of a simplicial complex and its
    sides in (ab, bc, ac) order, read from its side tuple ``sides``."""
    e0, e1, e2 = sides
    u, v = edges[e0]
    p, q = edges[e1]
    w = q if p == u or p == v else p  # the corner off e0
    # e1 joins w to u or to v, and the one it misses is opposite it
    opposite = {w: e0, v: e1, u: e2} if u == p or u == q else {w: e0, u: e1, v: e2}
    a, b, c = sorted(opposite)
    return (a, b, c), (opposite[c], opposite[a], opposite[b])


def _identity_fragment(x):
    """The fragment of a collapse with nothing to collapse, in the order
    the construction gives it: faces in id order, each with its sides in
    the order of its sorted corners."""
    tri_map, edge_map = {}, {}
    for fid in sorted(x.triangles()):
        tri_map[fid] = fid
        edge_map.update(((fid, eid), eid) for eid in _corners_and_sides(x.edges, x.faces[fid])[1])
    return TauFragment(triangle_map=tri_map, edge_map=edge_map, track_point={})


def split_collapse(ts_star: TrackSystem, groups: GroupTable):
    """Remove the boundary preimage of the source of ``ts_star``'s
    resolution, collapse each track of ``ts_star`` to a point, and reduce.
    Returns (X_T, provenance fragment).

    Every triangle contributes at most one image triangle (its central
    region); images of distinct triangles may coincide, which is exactly
    when covolume drops.  The fragment records, per surviving triangle,
    the side-to-side edge correspondence.  New cells and orbits are named
    ``w<sep><track>``, ``<edge><sep><k>``, ``<orbit><sep><k>`` and
    ``<face><sep>mid``, where ``sep`` is the shortest run of dots that
    makes every such id new.

    With no track and no vertex at an ideal point nothing collapses, so
    ``x`` itself is reduced and not validated again: each complex is
    validated where it is parsed or built valid, and ``x`` is a parsed
    terminal, a contraction, or a cutpoint piece, reduction or override
    relabelling (whose labels are looked up) of a valid complex.  Track
    extraction checks that ``x`` is simplicial, so the reduction keeps
    every cell, and the fragment is the identity.

    Otherwise each edge and each triangle of ``x`` is read once: the
    segments, filed by node pair, and the central triangles, filed by
    corner triple, go to ``canonical_complex``, the quotient step of every
    reduction, as in ``resolution.contract``: X_T is the reduction of the
    collapsed complex built whole (the tests keep that construction as the
    oracle).  An edge with no track point is its own one segment, and a
    triangle reads its corners and sides off its own side tuple.  Every
    containment of the collapsed complex whose upper cell is not a track
    point is one of ``x`` between the same labels, and holds; only those
    under a track point are declared here, each distinct pair once.  Of
    the checks of a built complex only the one that parsed input can fail
    is made: the segments of a new orbit must join the same pair of vertex
    orbits.  Face shapes fix the sides of a face, not the faces on an
    edge, so two edges of one orbit may lie on different faces; the tracks
    through them then cross edges of different orbits, their points take
    different orbits, and so may the ends of the edges' segments.  An
    edge's segments are numbered from its end in the least
    vertex orbit (from its first stored end when both ends are in one
    orbit), so that the edges of one orbit number theirs alike however
    they are stored.  A triangle has at most one image, so X_T does not
    exceed ``x`` in covolume; ``passdown_full`` checks that once per stage
    and piece, so it is not checked here.

    Every orbit of the collapsed complex has one label (a segment takes
    its edge's, a central triangle its face's, a track point its orbit's
    fresh one, and ``x`` is valid), so the quotient step mints a class
    label only where cells of differently labelled orbits merge.
    """
    res = ts_star.resolution
    x, tree = res.source, res.target
    removed = res.ideal_vertices()
    if not ts_star.tracks and not removed:
        return reduce_with_map(x, groups)[0], _identity_fragment(x)

    # per edge carrying points, the tree edges of its points in path order
    # from its first stored end
    essential = {(eid, tr.tree_edge) for tr in ts_star.tracks for eid in tr.points}
    on_track = {eid: [f for f in ts_star.crossings[eid] if (eid, f) in essential] for eid, _f in essential}

    def minted(sep):
        # every id the collapse may mint: an edge with n points splits
        # into at most n + 1 segments, and only a triangle on such an
        # edge gets a central face of a new id
        for tr in ts_star.tracks:
            yield f"w{sep}{tr.id}"
        for eid, fs in on_track.items():
            for k in range(len(fs) + 1):
                yield f"{eid}{sep}{k}"
                yield f"{x.orbit[eid]}{sep}{k}"
            for fid in x.triangles_by_edge.get(eid, ()):
                yield f"{fid}{sep}mid"

    sep = fresh_separator(x.stab.keys() | x.orbit.values(), minted, ".")

    # one point per track, with one fresh label and orbit per orbit of
    # tracks; a point that faces a truncated end is marked: the complex
    # continues beyond it at full scale.  Every other cell keeps its labels
    # under its own id, so the labels of x are copied whole
    stab, orbit, plus = dict(x.stab), dict(x.orbit), dict(x.stab_plus)
    point_vertex, point_of, marked_points, by_sig = {}, {}, set(), {}
    for tr in sorted(ts_star.tracks, key=lambda t: t.id):
        vid = point_vertex[tr.id] = f"w{sep}{tr.id}"
        point_of.update(((eid, tr.tree_edge), vid) for eid in tr.points)
        sig = (tree.orbit[tr.tree_edge], tuple(sorted(x.orbit[e] for e in tr.points)))
        if sig not in by_sig:
            by_sig[sig] = groups.mint("trk", supergroups={tree.stab[tr.tree_edge]}, slender=True).id, vid
        stab[vid], orbit[vid] = by_sig[sig]
        if removed and any(w in removed for eid in tr.points for w in x.edges[eid]):
            marked_points.add(vid)
    kept = x.vertices - removed

    # segments: an edge with no track point is one, itself; else one per
    # consecutive pair of nodes along the edge (surviving ends and track
    # points in path order, from the end in the least vertex orbit).  Each
    # is filed by sorted node pair; with them, the (label, label above) of
    # each segment below a track point, and the first new orbit whose
    # segments do not all join one pair of vertex orbits
    edges_at, made, edge_pairs = {}, set(), {}
    shape, bad_orbit = {}, None
    for eid in sorted(x.edges):
        u, v = x.edges[eid]
        fs = on_track.get(eid)
        if fs is None:
            if u in removed or v in removed:
                raise TruncationError(
                    f"edge {eid!r} reaches a truncated end without an essential crossing; "
                    "extend the tree's rays or the boundary marking"
                )
            edges_at.setdefault((u, v) if u < v else (v, u), []).append(eid)
            continue
        nodes = [point_of[(eid, f)] for f in fs]
        if x.orbit[v] < x.orbit[u]:
            u, v = v, u
            nodes.reverse()
        nodes = ([u] if u in kept else []) + nodes + ([v] if v in kept else [])
        label, oriented, base = x.stab[eid], x.stab_plus.get(eid), x.orbit[eid]
        for k in range(len(nodes) - 1):
            a, b = nodes[k], nodes[k + 1]
            sid, oid = f"{eid}{sep}{k}", f"{base}{sep}{k}"
            stab[sid], orbit[sid] = label, oid
            if oriented is not None:
                plus[sid] = oriented
            oa, ob = orbit[a], orbit[b]
            ends = (oa, ob) if oa < ob else (ob, oa)
            if shape.setdefault(oid, ends) != ends and bad_orbit is None:
                bad_orbit = oid
            for w in (a, b):
                if w not in kept:  # a track point
                    edge_pairs[label, stab[w]] = None
            key = (a, b) if a < b else (b, a)
            made.add((eid, key))
            edges_at.setdefault(key, []).append(sid)
    for ids in edges_at.values():
        if len(ids) > 1:
            ids.sort()

    # central triangle per face, via the tripod of its three branches (the
    # tree edges whose arcs cut off each corner), filed by sorted corner
    # triple; with them, the (label, label above) of each face below a track
    # point.  A tree edge crossing the triangle crosses two of its sides
    # (track extraction checks it), so the branches partition the crossings
    faces_at, tri_map, edge_map, face_pairs = {}, {}, {}, {}
    for fid in sorted(x.triangles()):
        (a, b, c), (ab, bc, ac) = _corners_and_sides(x.edges, x.faces[fid])
        crossed = {ab: on_track.get(ab, ()), bc: on_track.get(bc, ()), ac: on_track.get(ac, ())}
        node = {}
        for corner, eid, other in ((a, ab, ac), (b, ab, bc), (c, ac, bc)):
            # the branch at the corner, in path order along its side eid;
            # its innermost arc, the last from the corner, bounds the
            # central region
            cut = [f for f in crossed[eid] if f in crossed[other]]
            if cut:
                node[corner] = point_of[(eid, cut[-1] if corner == x.edges[eid][0] else cut[0])]
            elif corner in removed:
                raise TruncationError(
                    f"triangle {fid!r} reaches the truncated end at {corner!r} without an "
                    "essential arc; extend the tree's rays or the boundary marking"
                )
            else:
                node[corner] = corner

        above = sorted({node[a], node[b], node[c]} - {a, b, c})  # the track points among the corners
        face_pairs.update(((x.stab[fid], stab[w]), None) for w in above)
        mid_id = f"{fid}{sep}mid" if above else fid
        for p, q, eid in ((a, b, ab), (b, c, bc), (a, c, ac)):
            if not crossed[eid]:  # a side with no point is its own segment
                edge_map[(fid, eid)] = eid
                continue
            p, q = node[p], node[q]
            key = (p, q) if p < q else (q, p)
            if (eid, key) not in made:
                raise EngineError(f"central region side missing on triangle {fid!r}")
            edge_map[(fid, eid)] = edges_at[key][0]
        stab[mid_id], orbit[mid_id] = x.stab[fid], x.orbit[fid]
        triple = tri_map[fid] = tuple(sorted(node.values()))
        faces_at.setdefault(triple, []).append(mid_id)
    for ids in faces_at.values():
        if len(ids) > 1:
            ids.sort()

    declare_pairs(groups, {**face_pairs, **edge_pairs})
    if bad_orbit is not None:
        raise ConsistencyError(f"edges of orbit {bad_orbit!r} have mismatched endpoint orbits")

    xt = canonical_complex(
        kept.union(point_vertex.values()), edges_at, faces_at, stab, orbit, plus,
        (x.boundary_marked & kept) | marked_points, groups,
    )
    frag = TauFragment(
        triangle_map={fid: faces_at[triple][0] for fid, triple in tri_map.items()},
        edge_map=edge_map,
        track_point=point_vertex,
    )
    return xt, frag
