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
from .complexes import Complex2, covolume, h1_z2, is_connected
from .errors import EngineError, FixtureError, HypothesisError, TruncationError
from .groups import GroupTable
from .provenance import TauFragment, reduce_collapsed
from .resolution import SPLITTING, Resolution


@dataclass(frozen=True)
class Track:
    id: str
    tree_edge: str
    points: frozenset  # edge ids of X carrying one point of this track
    arcs: dict  # face id -> pair of crossed side edge ids
    sides: tuple = ()  # vertex sets of the complement components
    side_infinite: tuple = ()

    @property
    def separates(self):
        return len(self.sides) == 2


@dataclass(frozen=True)
class TrackSystem:
    resolution: Resolution
    tracks: tuple


def tracks_from_resolution(res: Resolution) -> TrackSystem:
    """Assemble the track system from the edge paths of a splitting
    resolution: crossing indicators, in-triangle arc pairings, connected
    tracks, and each track's complement sides with infiniteness marks."""
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
            sides = tuple(
                frozenset(c)
                for c in graphs.components(
                    x.vertices, (ends for eid, ends in x.edges.items() if eid not in eids)
                )
            )
            infinite = tuple(bool(s & marked) or bool(s & ideal) for s in sides)
            tracks.append(
                Track(
                    id=f"s{counter}",
                    tree_edge=f,
                    points=frozenset(eids),
                    arcs=track_arcs,
                    sides=sides,
                    side_infinite=infinite,
                )
            )
            counter += 1
    return TrackSystem(resolution=res, tracks=tuple(tracks))


def essential_tracks(ts: TrackSystem, x: Complex2 = None) -> TrackSystem:
    """The subfamily of tracks both of whose sides are infinite, where a
    side is infinite iff it holds a boundary-marked vertex or a vertex
    mapped to an ideal point."""
    x = x or ts.resolution.source
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
    u, v = res.source.edges[eid]
    fs = list(res.crossings(eid))
    if start_vertex == u:
        return fs
    if start_vertex == v:
        return list(reversed(fs))
    raise EngineError(f"{start_vertex!r} is not an endpoint of {eid!r}")


def split_collapse(x: Complex2, res: Resolution, ts_star: TrackSystem, groups: GroupTable = None):
    """Remove the boundary preimage, collapse each essential track to a
    point, and reduce.  Returns (X_T, provenance fragment).

    Every triangle contributes at most one image triangle (its central
    region); images of distinct triangles may coincide, which is exactly
    when covolume drops.  The fragment records, per surviving triangle,
    the side-to-side edge correspondence.

    With no essential track and no ideal vertex to remove, the collapse
    rebuilds ``x`` cell for cell, so a reduced ``x`` (valid over
    ``groups``) is its own X_T under the identity fragment.
    """
    if res.source is not x:
        raise FixtureError("track system and complex belong to different resolutions")
    if res.kind != SPLITTING:
        raise HypothesisError("split_collapse needs a splitting resolution")
    removed = res.ideal_vertices()
    if not ts_star.tracks and not removed and x.is_reduced:
        return x, TauFragment.identity(x)
    groups = groups or (res.actions.groups if res.actions else GroupTable())

    track_of = {}  # (eid, tree edge) -> track
    for tr in ts_star.tracks:
        for eid in tr.points:
            track_of[(eid, tr.tree_edge)] = tr

    point_vertex = {}
    ref_by_sig = {}
    orbit_by_sig = {}
    extra_stab = {}
    tree = res.target
    for tr in sorted(ts_star.tracks, key=lambda t: t.id):
        vid = f"w.{tr.id}"
        if vid in x.vertices:
            raise FixtureError(f"vertex id {vid!r} collides with a track point")
        point_vertex[tr.id] = vid
        sig = (
            tree.orbit[tr.tree_edge],
            tuple(sorted(x.orbit[e] for e in tr.points)),
        )
        if sig not in ref_by_sig:
            ref_by_sig[sig] = groups.mint("trk", supergroups={tree.stab[tr.tree_edge]}, slender=True).id
            orbit_by_sig[sig] = f"w.{tr.id}"
        extra_stab[vid] = ref_by_sig[sig]

    # mark track points that face a truncated end: the complex continues
    # beyond them at full scale
    marked_points = set()
    for tr in ts_star.tracks:
        if any(w in removed for eid in tr.points for w in x.edges[eid]):
            marked_points.add(point_vertex[tr.id])

    def essential_nodes(eid, start):
        """Ordered node ids along an edge: surviving endpoint, the points
        of essential tracks in path order, surviving far endpoint."""
        u, v = x.edges[eid]
        a, b = (u, v) if start == u else (v, u)
        nodes = []
        if a not in removed:
            nodes.append(a)
        for f in _oriented_crossings(res, eid, a):
            tr = track_of.get((eid, f))
            if tr is not None:
                nodes.append(point_vertex[tr.id])
        if b not in removed:
            nodes.append(b)
        return nodes

    # edges of the collapsed complex: one segment per consecutive node pair
    seg_edges = {}
    seg_labels = {}
    seg_orbits = {}
    seg_plus = {}
    seg_of = {}  # (eid, frozenset of node pair) -> segment id
    point_ids = set(point_vertex.values())
    for eid in sorted(x.edges):
        u, v = x.edges[eid]
        nodes = essential_nodes(eid, u)
        if (u in removed or v in removed) and not any(n in point_ids for n in nodes):
            raise TruncationError(
                f"edge {eid!r} reaches a truncated end without an essential crossing; "
                "extend the tree's rays or the boundary marking"
            )
        untouched = len(nodes) == 2 and set(nodes) == {u, v}
        for k, (a, b) in enumerate(zip(nodes, nodes[1:])):
            sid = eid if untouched else f"{eid}.{k}"
            seg_edges[sid] = (a, b)
            seg_labels[sid] = x.stab[eid]
            seg_orbits[sid] = x.orbit[eid] if untouched else f"{x.orbit[eid]}.{k}"
            if eid in x.stab_plus:
                seg_plus[sid] = x.stab_plus[eid]
            seg_of[(eid, frozenset((a, b)))] = sid

    # central triangle per face, via the tripod of its three branches
    mid_faces = {}
    mid_labels = {}
    mid_orbits = {}
    tri_map = {}
    edge_map = {}
    for fid in sorted(x.triangles()):
        # x is simplicial (track extraction checks it): one edge per side
        a, b, c = sorted(x.face_vertices(fid))
        sides = {pair: x.edges_by_pair[frozenset(pair)][0] for pair in ((a, b), (b, c), (a, c))}
        crossed = {
            pair: [f for f in res.crossings(eid) if (eid, f) in track_of]
            for pair, eid in sides.items()
        }
        branch = {
            a: set(crossed[(a, b)]) & set(crossed[(a, c)]),
            b: set(crossed[(a, b)]) & set(crossed[(b, c)]),
            c: set(crossed[(b, c)]) & set(crossed[(a, c)]),
        }
        for (p, q), fs in crossed.items():
            third = ({a, b, c} - {p, q}).pop()
            if set(fs) != (branch[p] | branch[q]) or (branch[p] & branch[q]):
                raise EngineError(f"branch partition failed on triangle {fid!r}")
            if branch[third] & set(fs):
                raise EngineError(f"branch partition failed on triangle {fid!r}")

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
        mid_id = fid if untouched else f"{fid}.mid"
        tri_sides = {}
        for p, q in ((a, b), (b, c), (a, c)):
            eid = sides[(p, q)]
            key = frozenset((corner_node[p], corner_node[q]))
            sid = seg_of.get((eid, key))
            if sid is None:
                raise EngineError(f"central region side missing on triangle {fid!r}")
            tri_sides[(p, q)] = sid
        mid_faces[mid_id] = (tri_sides[(a, b)], tri_sides[(b, c)], tri_sides[(a, c)])
        mid_labels[mid_id] = x.stab[fid]
        mid_orbits[mid_id] = x.orbit[fid]
        tri_map[fid] = mid_id
        for pair, eid in sides.items():
            edge_map[(fid, eid)] = tri_sides[pair]

    new_vertices = {v for v in x.vertices if v not in removed}
    new_vertices.update(point_vertex.values())
    stab = dict(extra_stab)
    orbit = {}
    for tr in ts_star.tracks:
        vid = point_vertex[tr.id]
        sig = (tree.orbit[tr.tree_edge], tuple(sorted(x.orbit[e] for e in tr.points)))
        orbit[vid] = orbit_by_sig[sig]
    for v in new_vertices:
        if v not in stab:
            stab[v] = x.stab[v]
            orbit[v] = x.orbit[v]
    stab.update(seg_labels)
    orbit.update(seg_orbits)
    stab.update(mid_labels)
    orbit.update(mid_orbits)

    collapsed = Complex2(
        vertices=frozenset(new_vertices),
        edges=seg_edges,
        faces=mid_faces,
        stab=stab,
        orbit=orbit,
        boundary_marked=frozenset((x.boundary_marked & new_vertices) | marked_points),
        stab_plus=seg_plus,
    )
    xt, frag_reduce = reduce_collapsed(collapsed, groups)

    frag_collapse = TauFragment(
        triangle_map=dict(tri_map),
        edge_map=dict(edge_map),
        vertex_map={v: (None if v in removed else v) for v in x.vertices},
        track_point=dict(point_vertex),
    )
    frag = frag_collapse.compose(frag_reduce)
    frag.track_point = {tid: frag_reduce.vertex_map.get(vid, vid) for tid, vid in point_vertex.items()}
    frag.check_consistency(x, xt)

    if covolume(xt) > covolume(x):
        raise EngineError("collapse increased covolume")
    return xt, frag
