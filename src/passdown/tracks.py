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

# what a truncation error asks for
_EXTEND = "extend the tree's rays or the boundary marking"


def _triangles(x):
    """(face id, corners a < b < c, sides (ab, bc, ac)) of each triangle
    of the simplicial complex ``x``, in id order, read from its corners
    and its edges by vertex pair, both cached (a complex not held canonical
    derived them in its simplicial check)."""
    by_pair, corners = x.edges_by_pair, x.cell_data.face_vertices
    for fid in sorted(x.faces):
        a, b, c = corners[fid]
        yield fid, (a, b, c), (by_pair[a, b][0], by_pair[b, c][0], by_pair[a, c][0])


def _identity_fragment(x):
    """The fragment of a collapse with nothing to collapse, in the order
    the construction gives it: faces in id order, each with its sides in
    the order of its sorted corners."""
    tri_map, edge_map = {}, {}
    for fid, _corners, sides in _triangles(x):
        tri_map[fid] = fid
        edge_map.update(((fid, eid), eid) for eid in sides)
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

    With no track and no vertex at an ideal point nothing collapses: ``x``
    is reduced, not validated again (each complex is validated where it is
    parsed or built valid), and, simplicial (track extraction checks it),
    keeps every cell under the identity fragment.

    Otherwise X_T is the reduction of the collapsed complex built whole
    (the tests keep that construction as the oracle), through the quotient
    step ``canonical_complex``, handed the segments by node pair and the
    central triangles by corner triple.  Only the edges with a track point
    are walked, each once, and each triangle once, its corners and sides
    from ``_triangles``: the arcs the track extraction paired in it cut off
    its corners, and the innermost arc at each cut corner bounds its
    central triangle.  Along a side the arcs at one end all come before
    those at the other (in the tree, the tree edges of the arcs at a
    corner lie between its image and the median of the three corner
    images), so each side of a central triangle is a segment of that side.
    Only the containments under a track point are declared, each distinct
    pair once; every other one is one of ``x`` between the same labels.

    Of the checks of a built complex one is made: the segments of a new
    orbit must join one pair of vertex orbits.  The edges of one orbit have
    one pair of end orbits and one multiset of face orbits
    (``validate_complex``) and one path, since a vertex maps by its label,
    so two edges of one orbit crossing one and two tree edges cannot parse.
    But a track is global: two parts of a complex alike cell by cell but of
    different sizes (the cone-capped annuli of the CLI tests) carry tracks
    of different lengths, whose points take different orbits.  An edge's
    segments are numbered from its end in the least vertex orbit (its first
    stored end when both are in one), so that the edges of one orbit number
    theirs alike however they are stored.  A triangle has at most one
    image, so X_T does not exceed ``x`` in covolume (``passdown_full``
    checks it).  Every orbit of the collapsed complex has one label, so the
    quotient step mints a class label only where orbits of different labels
    merge.
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

    sep = fresh_separator((x.stab.keys(), x.orbit.values()), minted, ".")

    # one point per track, with one fresh label and orbit per orbit of
    # tracks; a point that faces a truncated end is marked: the complex
    # continues beyond it at full scale.  Every other cell keeps its labels
    # under its own id, so the labels of x are copied whole.  Each arc is
    # filed under its face with the corner its two sides share
    stab, orbit, plus = dict(x.stab), dict(x.orbit), dict(x.stab_plus)
    point_vertex, point_of, marked_points, by_sig, cut_at, tree_edge_of = {}, {}, set(), {}, {}, {}
    for tr in sorted(ts_star.tracks, key=lambda t: t.id):
        vid = point_vertex[tr.id] = f"w{sep}{tr.id}"
        point_of.update(((eid, tr.tree_edge), vid) for eid in tr.points)
        sig = (tree.orbit[tr.tree_edge], tuple(sorted(x.orbit[e] for e in tr.points)))
        if sig not in by_sig:
            by_sig[sig] = groups.mint("trk", supergroups={tree.stab[tr.tree_edge]}, slender=True).id, vid
        stab[vid], orbit[vid] = by_sig[sig]
        tree_edge_of[vid] = tr.tree_edge
        if removed and any(w in removed for eid in tr.points for w in x.edges[eid]):
            marked_points.add(vid)
        for fid, (e1, e2) in tr.arcs.items():
            u, v = x.edges[e1]
            cut_at.setdefault(fid, []).append((u if u in x.edges[e2] else v, tr.tree_edge, vid))
    kept = x.vertices - removed

    # an edge with no track point is its own segment, filed by sorted ends
    plain = [eid for eid in x.edges if eid not in on_track]
    for eid in sorted(plain) if removed else ():
        if not removed.isdisjoint(x.edges[eid]):
            raise TruncationError(f"edge {eid!r} reaches a truncated end without an essential crossing; {_EXTEND}")
    edges_at = {tuple(sorted(x.edges[eid])): [eid] for eid in plain}

    # every other edge is cut at its points: one segment per consecutive
    # pair of nodes along it (surviving ends and track points in path
    # order, from the end in the least vertex orbit), filed by sorted node
    # pair; with them, the (label, label above) under each of its points,
    # and the first new orbit whose segments do not all join one pair of
    # vertex orbits
    segments_at, edge_pairs, shape, bad_orbit = {}, {}, {}, None
    for eid in sorted(on_track):
        u, v = x.edges[eid]
        nodes = [point_of[eid, f] for f in on_track[eid]]
        if orbit[v] < orbit[u]:
            u, v = v, u
            nodes.reverse()
        label, oriented, base = x.stab[eid], x.stab_plus.get(eid), x.orbit[eid]
        for w in nodes:
            edge_pairs[label, stab[w]] = None
        nodes = [u] * (u in kept) + nodes + [v] * (v in kept)
        a, oa = nodes[0], orbit[nodes[0]]
        for k in range(1, len(nodes)):
            b = nodes[k]
            ob = orbit[b]
            sid, oid = f"{eid}{sep}{k - 1}", f"{base}{sep}{k - 1}"
            stab[sid], orbit[sid] = label, oid
            if oriented is not None:
                plus[sid] = oriented
            ends = (oa, ob) if oa < ob else (ob, oa)
            if shape.setdefault(oid, ends) != ends and bad_orbit is None:
                bad_orbit = oid
            segments_at.setdefault((a, b) if a < b else (b, a), []).append(sid)
            a, oa = b, ob
    for ids in segments_at.values():
        ids.sort()
    edges_at.update(segments_at)

    # central triangle per face, filed by sorted corner triple: a corner cut
    # off by arcs goes to the point of the innermost, the last from it along
    # its first side in (ab, bc, ac) order (the arcs at a corner are nested);
    # with them, the (label, label above) of each face below a track point
    faces_at, tri_map, edge_map, face_pairs = {}, {}, {}, {}
    for fid, (a, b, c), (ab, bc, ac) in _triangles(x):
        node = {}  # cut corner -> the point of its innermost arc
        for corner, f, vid in cut_at.get(fid, ()):
            if corner in node:
                side = ac if corner == c else ab
                fs = on_track[side]
                if (fs.index(f) > fs.index(tree_edge_of[node[corner]])) != (corner == x.edges[side][0]):
                    continue
            node[corner] = vid
        for w in (a, b, c) if removed else ():
            if w in removed and w not in node:
                raise TruncationError(
                    f"triangle {fid!r} reaches the truncated end at {w!r} without an essential arc; {_EXTEND}"
                )
        if not node:  # no arc, so no side carries a point
            edge_map[fid, ab], edge_map[fid, bc], edge_map[fid, ac] = ab, bc, ac
            faces_at[(a, b, c)] = tri_map[fid] = [fid]
            continue
        na, nb, nc = node.get(a, a), node.get(b, b), node.get(c, c)
        for w in sorted(node.values()):
            face_pairs[x.stab[fid], stab[w]] = None
        for p, q, eid in ((na, nb, ab), (nb, nc, bc), (na, nc, ac)):
            edge_map[fid, eid] = segments_at[(p, q) if p < q else (q, p)][0] if eid in on_track else eid
        mid_id = f"{fid}{sep}mid"
        stab[mid_id], orbit[mid_id] = x.stab[fid], x.orbit[fid]
        tri_map[fid] = faces_at.setdefault(tuple(sorted((na, nb, nc))), [])
        tri_map[fid].append(mid_id)
    for ids in faces_at.values():
        ids.sort()

    declare_pairs(groups, {**face_pairs, **edge_pairs})
    if bad_orbit is not None:
        raise ConsistencyError(f"edges of orbit {bad_orbit!r} have mismatched endpoint orbits")
    xt = canonical_complex(
        kept.union(point_vertex.values()), edges_at, faces_at, stab, orbit, plus,
        (x.boundary_marked & kept) | marked_points, groups,
    )
    frag = TauFragment(
        triangle_map={fid: ids[0] for fid, ids in tri_map.items()},
        edge_map=edge_map,
        track_point=point_vertex,
    )
    return xt, frag

