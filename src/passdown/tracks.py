"""Dunwoody tracks of a splitting resolution and the collapse to X_T.

A track is a connected component of the preimage of one tree-edge
midpoint: combinatorially, a set of points on edges of X (one per crossed
edge) joined by arcs inside triangles (one arc per triangle in which the
tree edge crosses two sides).  Essential tracks split X into two infinite
parts; collapsing each of them to a point and reducing yields X_T,
together with the triangle provenance that drives the cross-level
analysis.
"""

from collections import defaultdict
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
    side_infinite: tuple = ()  # per component of the complement: is it infinite?

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
    infinite."""
    if res.kind != SPLITTING:
        raise HypothesisError("tracks are extracted from splitting (type I) resolutions")
    x = res.source
    if not x.is_simplicial():
        raise FixtureError("track extraction needs a simplicial complex")
    if not res.target.edges:
        # no tree edge, so no edge of X crosses one
        return TrackSystem(resolution=res, tracks=(), crossings={})

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


def _identity_fragment(x):
    """The fragment of a collapse with nothing to collapse, in the order
    the construction gives it: faces in id order, each with its sides in
    the order of its sorted corners."""
    tri_map, edge_map = {}, {}
    for fid in sorted(x.triangles()):
        a, b, c = sorted(x.face_vertices(fid))
        tri_map[fid] = fid
        for pair in ((a, b), (b, c), (a, c)):
            eid = x.edges_by_pair[frozenset(pair)][0]
            edge_map[(fid, eid)] = eid
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

    With no track and no vertex at an ideal point nothing collapses: the
    collapsed complex would be ``x`` with its cells and labels, so ``x``
    itself is reduced and not validated again: each complex is validated
    where it is parsed or built valid, and ``x`` is a parsed terminal, a
    contraction, or a cutpoint piece, reduction or override relabelling
    (whose labels are looked up) of a valid complex.  Track extraction checks that ``x`` is
    simplicial, so the reduction keeps every cell, and the fragment is the
    identity.

    Otherwise the segments, filed by node pair, and the central
    triangles, filed by corner triple, go to ``canonical_complex``, the
    quotient step of every reduction, as in ``resolution.contract``: X_T
    is the reduction of the collapsed complex built whole (the tests keep
    that construction as the oracle).  Every containment of the collapsed complex whose upper cell
    is not a track point is one of ``x`` between the same labels, and
    holds; only those under a track point are declared here.  Of the
    checks of a built complex only the one that input can fail is made:
    the segments of a new orbit must join the same pair of vertex orbits.
    An edge's segments are numbered from its end in the least vertex
    orbit (from its first stored end when both ends are in one orbit), so
    that the edges of one orbit number theirs alike however they are
    stored.  A triangle has at most one image, so X_T does not exceed
    ``x`` in covolume; ``passdown_full`` checks that once per stage and
    piece, so it is not checked here.

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

    track_of = {}  # (eid, tree edge) -> track
    for tr in ts_star.tracks:
        for eid in tr.points:
            track_of[(eid, tr.tree_edge)] = tr
    # per edge carrying points, the tree edges of its points in path order
    # from its first stored end
    on_track = {}
    for eid, _f in track_of:
        if eid not in on_track:
            on_track[eid] = [f for f in ts_star.crossings[eid] if (eid, f) in track_of]

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

    # segments: one per consecutive pair of nodes along an edge (surviving
    # ends and track points in path order, from the end in the least vertex
    # orbit), filed by sorted node pair; with them, the (label, label above)
    # of each segment below a track point, and the first new orbit whose
    # segments do not all join one pair of vertex orbits
    edges_at, made, plus, edge_pairs = {}, set(), {}, []
    shape, bad_orbit = {}, None
    track_points = set(point_vertex.values())
    for eid in sorted(x.edges):
        u, v = x.edges[eid]
        fs = on_track.get(eid, ())
        untouched = not fs
        if untouched and (u in removed or v in removed):
            raise TruncationError(
                f"edge {eid!r} reaches a truncated end without an essential crossing; "
                "extend the tree's rays or the boundary marking"
            )
        points = [point_vertex[track_of[(eid, f)].id] for f in fs]
        if points and x.orbit[v] < x.orbit[u]:
            u, v = v, u
            points.reverse()
        nodes = ([u] if u in kept else []) + points + ([v] if v in kept else [])
        for k, (a, b) in enumerate(zip(nodes, nodes[1:])):
            if untouched:
                sid = eid
                orbit[sid] = x.orbit[eid]
            else:
                sid = f"{eid}{sep}{k}"
                oid = orbit[sid] = f"{x.orbit[eid]}{sep}{k}"
                ends = frozenset((orbit[a], orbit[b]))
                if shape.setdefault(oid, ends) != ends and bad_orbit is None:
                    bad_orbit = oid
                edge_pairs.extend((x.stab[eid], stab[w]) for w in (a, b) if w in track_points)
            stab[sid] = x.stab[eid]
            if eid in x.stab_plus:
                plus[sid] = x.stab_plus[eid]
            key = (a, b) if a < b else (b, a)
            made.add((eid, key))
            edges_at.setdefault(key, []).append(sid)
    for ids in edges_at.values():
        if len(ids) > 1:
            ids.sort()

    # central triangle per face, via the tripod of its three branches,
    # filed by sorted corner triple; with them, the (label, label above)
    # of each face below a track point
    faces_at, tri_map, edge_map, face_pairs = {}, {}, {}, []
    for fid in sorted(x.triangles()):
        # x is simplicial (track extraction checks it): one edge per side
        a, b, c = sorted(x.face_vertices(fid))
        sides = {pair: x.edges_by_pair[frozenset(pair)][0] for pair in ((a, b), (b, c), (a, c))}
        crossed = {pair: on_track.get(eid, ()) for pair, eid in sides.items()}
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
                # the central region is bounded by the innermost one, the
                # last from the corner
                pair = tuple(sorted((corner, other)))
                eid = sides[pair]
                inward = crossed[pair] if corner == x.edges[eid][0] else crossed[pair][::-1]
                innermost = [f for f in inward if f in branch[corner]][-1]
                corner_node[corner] = point_vertex[track_of[(eid, innermost)].id]
            else:
                if corner in removed:
                    raise TruncationError(
                        f"triangle {fid!r} reaches the truncated end at {corner!r} without an "
                        "essential arc; extend the tree's rays or the boundary marking"
                    )
                corner_node[corner] = corner

        untouched = all(corner_node[cn] == cn for cn in (a, b, c))
        if not untouched:
            above = {corner_node[cn] for cn in (a, b, c) if branch[cn]}
            face_pairs.extend((x.stab[fid], stab[w]) for w in sorted(above))
        mid_id = fid if untouched else f"{fid}{sep}mid"
        for pair, eid in sides.items():
            p, q = corner_node[pair[0]], corner_node[pair[1]]
            key = (p, q) if p < q else (q, p)
            if (eid, key) not in made:
                raise EngineError(f"central region side missing on triangle {fid!r}")
            edge_map[(fid, eid)] = edges_at[key][0]
        stab[mid_id], orbit[mid_id] = x.stab[fid], x.orbit[fid]
        triple = tri_map[fid] = tuple(sorted(corner_node.values()))
        faces_at.setdefault(triple, []).append(mid_id)
    for ids in faces_at.values():
        if len(ids) > 1:
            ids.sort()

    declare_pairs(groups, face_pairs + edge_pairs)
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
