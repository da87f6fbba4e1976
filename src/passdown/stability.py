"""Cross-level stability analysis: triangle maps, stable pairs, class
subcomplexes, the bipartite graphs B_w, cones, and the stabilization
detectors with the ascending-chain monitor.

Everything here is horizon-relative: a finite run can only certify
"stable up to level m", and every report says which horizon it used.
"""

from collections import defaultdict
from dataclasses import dataclass

from . import graphs
from .complexes import Complex2, components, covolume, cutpoints, subcomplex
from .errors import EngineError, FixtureError, HypothesisError, LinkCapError
from .groups import GroupTable

DEFAULT_LINK_CAP = 16


# ---------------------------------------------------------------------------
# run data


@dataclass
class TauMap:
    """Triangle and side correspondence between two consecutive levels.

    Triangles are keyed (complex id, face id); the edge map gives, per
    surviving triangle, the image of each of its sides.
    """

    triangle: dict
    edge: dict  # ((cid, fid), eid) -> image edge id

    def image(self, key):
        return self.triangle.get(key)

    def edge_image(self, key, eid):
        return self.edge.get((key, eid))


@dataclass
class LevelData:
    complexes: dict  # cid -> Complex2

    def triangles(self):
        return [(cid, fid) for cid in sorted(self.complexes) for fid in sorted(self.complexes[cid].triangles())]

    def covolume(self):
        return sum(covolume(x) for x in self.complexes.values())


@dataclass
class RunView:
    levels: list
    taus: list  # taus[n]: level n -> level n+1
    groups: GroupTable

    @property
    def horizon(self):
        return len(self.levels) - 1

    def compose(self, n, m):
        """tau_{n,m} on triangles with the side correspondence."""
        if not n <= m <= self.horizon:
            raise FixtureError("bad level range")
        tri = {key: key for key in self.levels[n].triangles()}
        edge = {}
        for cid in self.levels[n].complexes:
            x = self.levels[n].complexes[cid]
            for fid in x.triangles():
                for eid in x.faces[fid]:
                    edge[((cid, fid), eid)] = eid
        for step in range(n, m):
            tau = self.taus[step]
            tri2, edge2 = {}, {}
            for key, img in tri.items():
                nxt = tau.image(img) if img is not None else None
                tri2[key] = nxt
            for (key, eid), img_eid in edge.items():
                img = tri[key]
                if img is None or tri2[key] is None:
                    continue
                nxt_eid = tau.edge_image(img, img_eid)
                if nxt_eid is not None:
                    edge2[(key, eid)] = nxt_eid
            tri, edge = tri2, edge2
        return tri, edge


def detect_n_delta(ledger) -> int:
    """First level after which the covolume ledger is constant (to the
    run horizon).  The ledger must be non-increasing."""
    for a, b in zip(ledger, ledger[1:]):
        if b > a:
            raise EngineError(f"covolume ledger increases: {ledger}")
    n = len(ledger) - 1
    while n > 0 and ledger[n - 1] == ledger[-1]:
        n -= 1
    return n


# ---------------------------------------------------------------------------
# pairs and stability


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


def pairs_of_complex(x: Complex2, cid):
    per_edge = defaultdict(list)
    for fid in sorted(x.triangles()):
        for eid in x.faces[fid]:
            per_edge[eid].append(fid)
    out = []
    for eid, fids in per_edge.items():
        for i, a in enumerate(fids):
            for b in fids[i + 1 :]:
                out.append(Pair(cid=cid, t1=min(a, b), t2=max(a, b), edge=eid))
    return out


def pairs_at(run: RunView, n: int):
    out = []
    for cid in sorted(run.levels[n].complexes):
        out.extend(pairs_of_complex(run.levels[n].complexes[cid], cid))
    return out


def descends_to_pair(pair: Pair, tri, edge):
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


def stable_pairs(run: RunView, n: int, horizon: int = None) -> PairSet:
    """Pairs at level n that stay pairs under every computed map up to the
    horizon."""
    horizon = run.horizon if horizon is None else horizon
    stable = []
    composed = {}
    for m in range(n + 1, horizon + 1):
        composed[m] = run.compose(n, m)
    for pair in pairs_at(run, n):
        if all(descends_to_pair(pair, *composed[m]) for m in composed):
            stable.append(pair)
    return PairSet(level=n, horizon=horizon, pairs=frozenset(stable))


@dataclass(frozen=True)
class TriangleClass:
    id: str
    cid: str
    triangles: frozenset

    def subcomplex_of(self, x: Complex2, groups=None):
        cells = set(self.triangles)
        for fid in self.triangles:
            for eid in x.faces[fid]:
                cells.add(eid)
                cells.update(x.edges[eid])
        return subcomplex(x, cells, groups)


def equivalence_classes(run: RunView, n: int, ps: PairSet = None, groups=None):
    """Classes of the relation generated by stable pairs, one per triangle
    at least; each class induces a connected, cutpoint-free subcomplex."""
    ps = ps if ps is not None else stable_pairs(run, n)
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
        sub = cls.subcomplex_of(run.levels[n].complexes[cid], groups)
        if cutpoints(sub):
            raise EngineError(f"class {cls.id!r} subcomplex has a cutpoint")
        out.append(cls)
    return out


def class_orbit_signature(cls: TriangleClass, x: Complex2):
    return tuple(sorted(x.orbit[f] for f in cls.triangles))


# ---------------------------------------------------------------------------
# the bipartite graphs B_w


@dataclass
class BipartiteBW:
    class_nodes: tuple
    edge_nodes: tuple
    edges: tuple  # (class id, edge id)

    def is_tree(self):
        return graphs.is_tree(self.class_nodes + self.edge_nodes, self.edges)

    def has_cycle(self):
        nodes = set(self.class_nodes) | set(self.edge_nodes)
        return len(set(self.edges)) > len(nodes) - len(graphs.components(nodes, self.edges))


def build_bw(x: Complex2, classes, groups: GroupTable = None):
    """B_w for one complex: class subcomplexes on one side, edges lying in
    more than one of them on the other; and B'_w, where shared edges with
    non-slender labels are collapsed into their classes."""
    edge_classes = defaultdict(set)
    for cls in classes:
        cells = set()
        for fid in cls.triangles:
            cells.update(x.faces[fid])
        for eid in cells:
            edge_classes[eid].add(cls.id)
    shared = sorted(e for e, cs in edge_classes.items() if len(cs) > 1)
    bw = BipartiteBW(
        class_nodes=tuple(sorted(c.id for c in classes)),
        edge_nodes=tuple(shared),
        edges=tuple(sorted((cid, e) for e in shared for cid in edge_classes[e])),
    )
    if groups is None:
        return bw, bw
    # collapse: merge the classes around each non-slender shared edge
    uf = graphs.UnionFind()
    find = uf.find
    dropped = set()
    for e in shared:
        if not groups.slender(x.stab[e]):
            dropped.add(e)
            cids = sorted(edge_classes[e])
            for c in cids[1:]:
                uf.union(cids[0], c)
    merged_nodes = sorted({find(c.id) for c in classes})
    edges = []
    for e in shared:
        if e in dropped:
            continue
        for c in sorted(edge_classes[e]):
            edges.append((find(c), e))
    bpw = BipartiteBW(
        class_nodes=tuple(merged_nodes),
        edge_nodes=tuple(e for e in shared if e not in dropped),
        edges=tuple(sorted(set(edges))),
    )
    return bw, bpw


# ---------------------------------------------------------------------------
# cones


@dataclass(frozen=True)
class Cone:
    """Closed fan of triangles around a central vertex: the image of a
    triangulated disk with one interior vertex.  ``boundary`` is the
    cyclic vertex sequence; the cone is simple iff it has no repeats."""

    center: str
    boundary: tuple
    fan: tuple  # face ids; fan[i] spans boundary[i], boundary[i+1]

    @property
    def simple(self):
        return len(set(self.boundary)) == len(self.boundary)

    @property
    def area(self):
        return len(self.fan)

    def boundary_edges(self):
        k = len(self.boundary)
        return tuple((self.boundary[i], self.boundary[(i + 1) % k]) for i in range(k))


def make_cone(x: Complex2, center, boundary) -> Cone:
    lookup = {frozenset(x.face_vertices(f)): f for f in x.triangles()}
    fan = []
    k = len(boundary)
    if k < 2:
        raise FixtureError("cone boundary needs at least two vertices")
    for i in range(k):
        a, b = boundary[i], boundary[(i + 1) % k]
        if a == b or center in (a, b):
            raise FixtureError("degenerate cone boundary")
        fid = lookup.get(frozenset((center, a, b)))
        if fid is None:
            raise FixtureError(f"no triangle on {center!r}, {a!r}, {b!r}")
        fan.append(fid)
    return Cone(center=center, boundary=tuple(boundary), fan=tuple(fan))


def link_graph(x: Complex2, v):
    adj = defaultdict(set)
    for fid in x.triangles():
        verts = x.face_vertices(fid)
        if v in verts:
            a, b = sorted(verts - {v})
            adj[a].add(b)
            adj[b].add(a)
    return adj


def enumerate_simple_cones(x: Complex2, v, link_cap=DEFAULT_LINK_CAP):
    """All embedded closed triangle fans around one vertex, as the simple
    cycles of its link graph.  Bounded by the link-size cap."""
    if not x.is_simplicial():
        raise FixtureError("cone enumeration needs a simplicial complex")
    adj = link_graph(x, v)
    if len(adj) > link_cap:
        raise LinkCapError(
            f"link of {v!r} has {len(adj)} vertices, over the cap {link_cap}",
            lemma="cone-enumeration",
        )
    cones = []
    nodes = sorted(adj)
    for start in nodes:
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
    while not current.simple:
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
        if nxt.area >= current.area:
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
    spokes = {}
    k = len(cone.boundary)
    pair_to_edge = {frozenset(ends): eid for eid, ends in x.edges.items()}
    for i, b in enumerate(cone.boundary):
        spokes[i] = pair_to_edge[frozenset((cone.center, b))]

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


# ---------------------------------------------------------------------------
# the cone criterion


@dataclass
class ConeCriterionResult:
    certified: bool
    counterexample: Cone
    bw_tree: bool
    cap_hit: tuple


def cone_criterion_check(x: Complex2, classes, groups: GroupTable = None, link_cap=DEFAULT_LINK_CAP) -> ConeCriterionResult:
    """If every simple cone lies inside one class, certify that B_w is a
    tree; otherwise return a violating cone.  The certificate is checked
    against the direct acyclicity test and a disagreement is an engine
    bug."""
    class_of = {}
    for cls in classes:
        for fid in cls.triangles:
            class_of[fid] = cls.id
    counterexample = None
    cap_hit = []
    for v in sorted(x.vertices):
        try:
            cones = enumerate_simple_cones(x, v, link_cap)
        except LinkCapError:
            cap_hit.append(v)
            continue
        for cone in cones:
            if len({class_of.get(f) for f in cone.fan}) > 1:
                counterexample = cone
                break
        if counterexample:
            break
    bw, _bpw = build_bw(x, classes, groups)
    certified = counterexample is None and not cap_hit
    if certified and bw.has_cycle():
        raise EngineError("certified complex has a cyclic B_w")
    return ConeCriterionResult(
        certified=certified,
        counterexample=counterexample,
        bw_tree=bw.is_tree(),
        cap_hit=tuple(cap_hit),
    )


# ---------------------------------------------------------------------------
# stabilization detectors and the ascending chain monitor


@dataclass
class AccAlert:
    chain: str
    levels: tuple
    labels: tuple


@dataclass
class StabilizationReport:
    horizon: int
    n_delta: int
    n_prime: int  # None when not certified within the horizon
    n_dprime: int
    class_counts: tuple
    acc_alerts: tuple


def _sigma(run, n, classes_n, classes_n1):
    """Induced map on classes along tau_{n,n+1}; must be well defined."""
    tau = run.taus[n]
    cls_of_n1 = {}
    for cls in classes_n1:
        for fid in cls.triangles:
            cls_of_n1[(cls.cid, fid)] = cls.id
    sigma = {}
    for cls in classes_n:
        targets = set()
        for fid in cls.triangles:
            img = tau.image((cls.cid, fid))
            if img is not None:
                targets.add(cls_of_n1.get(img))
        targets.discard(None)
        if len(targets) > 1:
            raise EngineError(f"class {cls.id!r} maps into several classes")
        sigma[cls.id] = targets.pop() if targets else None
    return sigma


def stabilization_report(run: RunView, link_cap=DEFAULT_LINK_CAP) -> StabilizationReport:
    """Horizon-relative N-delta / N' / N'' detection plus the ascending
    chain monitor on oriented-edge labels along class edges."""
    ledger = [lvl.covolume() for lvl in run.levels]
    n_delta = detect_n_delta(ledger)
    horizon = run.horizon

    classes = {}
    pair_sets = {}
    for n in range(n_delta, horizon + 1):
        pair_sets[n] = stable_pairs(run, n)
        classes[n] = equivalence_classes(run, n, pair_sets[n], run.groups)

    # Claim-1 and Claim-2 bookkeeping plus sigma bijectivity
    def class_count(n):
        sigs = defaultdict(int)
        for cls in classes[n]:
            sigs[class_orbit_signature(cls, run.levels[n].complexes[cls.cid])] += 1
        return len(sigs)

    counts = tuple(class_count(n) for n in range(n_delta, horizon + 1))
    n_prime = None
    for n0 in range(n_delta, horizon + 1):
        ok = True
        for n in range(n0, horizon):
            sigma = _sigma(run, n, classes[n], classes[n + 1])
            values = [v for v in sigma.values() if v is not None]
            if len(values) != len(classes[n]) or len(set(values)) != len(classes[n + 1]):
                ok = False
                break
            if class_count(n) != class_count(n + 1):
                ok = False
                break
            for cls in classes[n]:
                x_n = run.levels[n].complexes[cls.cid]
                img_id = sigma[cls.id]
                img_cls = next(c for c in classes[n + 1] if c.id == img_id)
                x_n1 = run.levels[n + 1].complexes[img_cls.cid]
                edges_n = {x_n.orbit[e] for f in cls.triangles for e in x_n.faces[f]}
                edges_n1 = {x_n1.orbit[e] for f in img_cls.triangles for e in x_n1.faces[f]}
                if len(edges_n) != len(edges_n1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            n_prime = n0
            break

    # Claim-3 style pullback: stable pairs pull back to pairs
    n_dprime = None
    if n_prime is not None:
        for n0 in range(n_prime, horizon + 1):
            ok = True
            for n in range(n0, horizon):
                tau = run.taus[n]
                back = defaultdict(list)
                for key in run.levels[n].triangles():
                    img = tau.image(key)
                    if img is not None:
                        back[img].append(key)
                for pair in stable_pairs(run, n + 1).pairs:
                    p1 = back.get((pair.cid, pair.t1), [])
                    p2 = back.get((pair.cid, pair.t2), [])
                    if len(p1) != 1 or len(p2) != 1:
                        ok = False
                        break
                    (k1,), (k2,) = p1, p2
                    if k1[0] != k2[0]:
                        ok = False
                        break
                    x = run.levels[n].complexes[k1[0]]
                    shared = set(x.faces[k1[1]]) & set(x.faces[k2[1]])
                    good = False
                    for e in shared:
                        if tau.edge_image(k1, e) == pair.edge and tau.edge_image(k2, e) == pair.edge:
                            good = True
                    if not good:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                n_dprime = n0
                break

    alerts = acc_monitor(run, n_delta, classes)
    return StabilizationReport(
        horizon=horizon,
        n_delta=n_delta,
        n_prime=n_prime,
        n_dprime=n_dprime,
        class_counts=counts,
        acc_alerts=tuple(alerts),
    )


def acc_monitor(run: RunView, start: int, classes=None):
    """Follow each class edge through the levels and compare its
    oriented-edge label with the declared subgroup order; a chain still
    strictly growing at the final step is an alert."""
    groups = run.groups
    horizon = run.horizon
    if classes is None:
        classes = {n: equivalence_classes(run, n, None, groups) for n in range(start, horizon + 1)}
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
                        img_eid = tau.edge_image(cur_key, cur_eid)
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
