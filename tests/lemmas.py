"""Checked cone lemmas of the finiteness argument: cutting a cone down to
a simple subcone, and pushing a cone through one collapse.  The cone
criterion does not run them; the tests check the lemmas' statements on
hand-built cones."""

from collections import defaultdict
from dataclasses import dataclass

from passdown.complexes import Complex2, components
from passdown.errors import EngineError, FixtureError, HypothesisError
from passdown.stability import Cone


def is_simple(cone: Cone):
    """A cone is simple when its boundary has no repeated vertex."""
    return len(set(cone.boundary)) == len(cone.boundary)


def area(cone: Cone):
    return len(cone.fan)


def boundary_edges(cone: Cone):
    k = len(cone.boundary)
    return tuple((cone.boundary[i], cone.boundary[(i + 1) % k]) for i in range(k))


def simple_subcone(cone: Cone, e, e2) -> Cone:
    """A simple subcone containing two consecutive boundary edges, found
    by repeatedly cutting at a repeated boundary vertex; the area strictly
    decreases at every step."""
    u, v = e
    v2, w = e2
    if v != v2:
        raise FixtureError("the two edges must be consecutive")
    if u == w:
        raise HypothesisError(
            "boundary is not locally injective at the shared vertex", lemma="simple-subcone"
        )
    current = cone
    while not is_simple(current):
        k = len(current.boundary)
        pos = None
        for i in range(k):
            if (
                current.boundary[i] == u
                and current.boundary[(i + 1) % k] == v
                and current.boundary[(i + 2) % k] == w
            ):
                pos = i
                break
        if pos is None:
            raise EngineError("lost the marked edges while cutting")
        occurrences = defaultdict(list)
        for i, b in enumerate(current.boundary):
            occurrences[b].append(i)
        marked_fans = {pos, (pos + 1) % k}
        cut = None
        for b in sorted(occurrences):
            idxs = occurrences[b]
            if len(idxs) < 2:
                continue
            for ai in range(len(idxs)):
                for bi in range(ai + 1, len(idxs)):
                    i, j = idxs[ai], idxs[bi]
                    fans_ij = set()
                    cur = i
                    while cur != j:
                        fans_ij.add(cur)
                        cur = (cur + 1) % k
                    if marked_fans <= fans_ij:
                        cut = (i, j)
                        break
                    if marked_fans <= set(range(k)) - fans_ij:
                        cut = (j, i)
                        break
                if cut:
                    break
            if cut:
                break
        if cut is None:
            raise HypothesisError(
                "no cut at a repeated vertex keeps both marked edges", lemma="simple-subcone"
            )
        i, j = cut
        boundary = []
        fan = []
        cur = i
        while cur != j:
            boundary.append(current.boundary[cur])
            fan.append(current.fan[cur])
            cur = (cur + 1) % len(current.boundary)
        nxt = Cone(center=current.center, boundary=tuple(boundary), fan=tuple(fan))
        if area(nxt) >= area(current):
            raise EngineError("cutting did not decrease the area")
        current = nxt
    return current


@dataclass
class PushforwardResult:
    center: str
    fan: tuple
    circumference: int
    used_track: str
    new_adjacencies: tuple


def cone_pushforward(cone: Cone, res, ts_star, frag, xt: Complex2) -> PushforwardResult:
    """Push a cone through one collapse: if essential tracks meet the cone
    in circles around its center, collapse at the outermost one; otherwise
    push through the center vertex.  The circumference never increases; a
    strict drop creates a new adjacency."""
    x = res.source
    k = len(cone.boundary)
    spokes = [x.edges_by_pair[frozenset((cone.center, b))][0] for b in cone.boundary]

    def is_circle(tr):
        for i, fid in enumerate(cone.fan):
            pair = tr.arcs.get(fid)
            if pair is None or set(pair) != {spokes[i], spokes[(i + 1) % k]}:
                return False
        return True

    circles = [tr for tr in ts_star.tracks if is_circle(tr)]
    if circles:
        spoke0 = spokes[0]
        order = [f for f in res.crossings(spoke0)]
        u, w = x.edges[spoke0]
        if w == cone.center:
            order = list(reversed(order))
        pos = {tr.id: order.index(tr.tree_edge) for tr in circles}
        outer = max(circles, key=lambda tr: pos[tr.id])
        new_center = frag.track_point[outer.id]
        used = outer.id
    else:
        new_center = frag.vertex_map.get(cone.center)
        used = ""
        if new_center is None:
            raise HypothesisError(
                "cone center vanished and no circle track encloses it", lemma="cone-pushforward"
            )
    images = [frag.triangle_map.get(f) for f in cone.fan]
    # keep only triangles in the component of the new center
    comp = next(c for c in components(xt) if new_center in c)
    kept = [img for img in images if img is not None and xt.face_vertices(img) <= comp]
    dedup = []
    for img in kept:
        if not dedup or dedup[-1] != img:
            dedup.append(img)
    while len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    new_adj = []
    if len(dedup) < k:
        for a, b in zip(dedup, dedup[1:] + dedup[:1]):
            if a != b:
                src = [f for f in cone.fan if frag.triangle_map.get(f) == a]
                dst = [f for f in cone.fan if frag.triangle_map.get(f) == b]
                if src and dst and not _sources_adjacent(x, src, dst):
                    new_adj.append((a, b))
    if len(dedup) > k:
        raise EngineError("pushforward increased the circumference")
    return PushforwardResult(
        center=new_center,
        fan=tuple(dedup),
        circumference=len(dedup),
        used_track=used,
        new_adjacencies=tuple(sorted(set(new_adj))),
    )


def _sources_adjacent(x: Complex2, src, dst):
    for a in src:
        for b in dst:
            if set(x.faces[a]) & set(x.faces[b]):
                return True
    return False
