"""Dunwoody tracks of a splitting resolution and the collapse to X_T.

A track is a connected component of the preimage of one tree-edge
midpoint: combinatorially, a set of points on edges of X (one per crossed
edge) joined by arcs inside triangles (one arc per triangle in which the
tree edge crosses two sides).  Essential tracks split X into two infinite
parts; collapsing each of them to a point and reducing yields X_T,
together with the triangle provenance that drives the cross-level
analysis.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass

from . import graphs
from .complexes import Complex2, fresh_separator, h1_z2, is_connected
from .errors import EngineError, FixtureError, HypothesisError, TruncationError
from .groups import GroupTable
from .provenance import TauFragment, finish_collapse
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
        return TrackSystem(resolution=res, tracks=())

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
    return TrackSystem(resolution=ts.resolution, tracks=tuple(keep))


# ---------------------------------------------------------------------------
# the collapse X* / Lambda* and its reduction X_T


def _oriented_crossings(res, eid, start_vertex):
    fs = res.crossings(eid)
    return fs if start_vertex == res.source.edges[eid][0] else fs[::-1]


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
    itself is reduced, under the identity fragment.
    """
    res = ts_star.resolution
    x, tree = res.source, res.target
    removed = res.ideal_vertices()
    if not ts_star.tracks and not removed:
        return finish_collapse(x, x, _identity_fragment(x), groups, "collapse")

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
