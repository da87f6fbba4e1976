"""Cross-level stability analysis: triangle maps, stable pairs, class
subcomplexes, the bipartite graphs B_w, cones, and the stabilization
detectors with the ascending-chain monitor.

Everything here is horizon-relative: a finite run can only certify
"stable up to level m", and every report says which horizon it used.
"""

from collections import defaultdict
from dataclasses import dataclass

from . import graphs
from .complexes import Complex2, covolume, h1_z2
from .errors import EngineError, FixtureError, HypothesisError
from .groups import GroupTable

# ---------------------------------------------------------------------------
# run data


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
    taus: list  # taus[n]: level n -> level n+1, a TauFragment on (complex id, face id) keys
    groups: GroupTable

    @property
    def horizon(self):
        return len(self.levels) - 1


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
# pairs, stability and classes


def pairs_of_complex(x: Complex2):
    """The pairs of ``x``: (t1, t2, edge) for triangles t1 < t2 sharing
    the edge."""
    out = []
    for eid, fids in x.triangles_by_edge.items():
        for i, a in enumerate(fids):
            for b in fids[i + 1 :]:
                out.append((min(a, b), max(a, b), eid))
    return out


@dataclass(frozen=True)
class TriangleClass:
    id: str
    cid: str
    triangles: frozenset


@dataclass(frozen=True)
class ComplexClasses:
    """The stable pairs of one complex at one level, as (t1, t2, edge),
    and the classes they generate: triangle sets by least face, with each
    class's orbit signature and count of edge orbits, and the position of
    the first class whose subcomplex has a cutpoint (None when none has).
    A complex that the next step renames shares its image's record."""

    pairs: frozenset
    classes: tuple
    signatures: tuple
    edge_orbits: tuple
    cut: int = None


def class_cutpoints(x: Complex2, triangles):
    """Cutpoints of the subcomplex that a set of triangles of ``x`` spans
    with their sides and corners, read off ``x`` without building it: the
    articulation vertices of the graph on the triangles' sides.  The
    verdict depends on the cells only, so it is kept in ``x``'s cell data
    under the triangle set, for ``x`` and every relabelling of it."""
    triangles = frozenset(triangles)
    kept = x.cell_data.class_cuts
    if triangles not in kept:
        edges = {eid: x.edges[eid] for fid in triangles for eid in x.faces[fid]}
        blocks = graphs.blocks({w for ends in edges.values() for w in ends}, edges)
        kept[triangles] = frozenset(graphs.cut_vertices(blocks))
    return kept[triangles]


def classes_of_complex(x: Complex2, pairs) -> ComplexClasses:
    """The classes of the relation that the stable pairs ``pairs`` of
    ``x`` generate, one per triangle at least, each checked to span a
    cutpoint-free subcomplex up to the first that does not."""
    uf = graphs.UnionFind(x.triangles())
    for t1, t2, _eid in pairs:
        uf.union(t1, t2)
    classes = tuple(map(frozenset, uf.classes().values()))
    cut = next((i for i, tris in enumerate(classes) if class_cutpoints(x, tris)), None)
    return ComplexClasses(
        pairs=frozenset(pairs),
        classes=classes,
        signatures=tuple(tuple(sorted(x.orbit[f] for f in tris)) for tris in classes),
        edge_orbits=tuple(len({x.orbit[e] for f in tris for e in x.faces[f]}) for tris in classes),
        cut=cut,
    )


def _check_side_images(tau, source: LevelData, target: LevelData, n: int):
    """Every side image of tau_n must be a side of the image triangle, and
    a renamed complex must share its cells and orbits with its image."""
    for cid, to in tau.renamed.items():
        x, y = source.complexes.get(cid), target.complexes.get(to)
        if x is None or y is None or y.cell_data is not x.cell_data or y.orbit is not x.orbit:
            raise EngineError(f"tau_{n} renames {cid!r} to {to!r}, which does not share its cells")
    for (key, eid), img_eid in tau.edge_map.items():
        img = tau.triangle_map.get(key)
        if img is None:
            continue
        x = target.complexes.get(img[0])
        if x is None or img_eid not in x.faces.get(img[1], ()):
            raise EngineError(f"tau_{n} sends side {eid!r} of {key!r} to {img_eid!r}, not a side of {img!r}")


def stable_classes(run: RunView, start: int) -> dict:
    """The stable pairs and classes of levels start..horizon, per complex
    ({level: {complex id: ComplexClasses}}), in one sweep down from the
    horizon, where every pair is stable.  Below it a pair is stable
    exactly when tau_n sends both triangles to distinct triangles of one
    complex and both sides to one edge, and that image pair is stable at
    n+1; this is exact because every side image is a side of the image
    triangle, which is checked here.  A complex that tau_n renames has the
    pairs, and so the classes, of its image, whose cells it shares."""
    horizon = run.horizon
    out = {horizon: {cid: classes_of_complex(x, pairs_of_complex(x)) for cid, x in run.levels[horizon].complexes.items()}}
    for n in range(horizon - 1, start - 1, -1):
        tau = run.taus[n]
        _check_side_images(tau, run.levels[n], run.levels[n + 1], n)
        above, level = out[n + 1], {}
        for cid, x in run.levels[n].complexes.items():
            to = tau.renamed.get(cid)
            if to is not None:
                level[cid] = above[to]
                continue
            stable = []
            for t1, t2, eid in pairs_of_complex(x):
                k1, k2 = (cid, t1), (cid, t2)
                i1, i2 = tau.image(k1), tau.image(k2)
                if i1 is None or i2 is None or i1 == i2 or i1[0] != i2[0]:
                    continue
                e = tau.side_image(k1, eid)
                if e is not None and e == tau.side_image(k2, eid):
                    if (min(i1[1], i2[1]), max(i1[1], i2[1]), e) in above[i1[0]].pairs:
                        stable.append((t1, t2, eid))
            level[cid] = classes_of_complex(x, stable)
        out[n] = level
    return out


def level_classes(n: int, records) -> list:
    """The classes of level n from the records of its complexes, numbered
    ``Y{n}.{i}`` in (complex id, least face) order."""
    out = []
    for cid in sorted(records):
        rec = records[cid]
        for i, triangles in enumerate(rec.classes):
            cls = TriangleClass(id=f"Y{n}.{len(out)}", cid=cid, triangles=triangles)
            if i == rec.cut:
                raise EngineError(f"class {cls.id!r} subcomplex has a cutpoint")
            out.append(cls)
    return out


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


def build_bw(x: Complex2, classes, groups: GroupTable):
    """B_w for one complex: class subcomplexes on one side, edges lying in
    more than one of them on the other; and B'_w, where shared edges with
    non-slender labels are collapsed into their classes."""
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


def make_cone(x: Complex2, center, boundary) -> Cone:
    fan = []
    k = len(boundary)
    if k < 2:
        raise FixtureError("cone boundary needs at least two vertices")
    for i in range(k):
        a, b = boundary[i], boundary[(i + 1) % k]
        if a == b or center in (a, b):
            raise FixtureError("degenerate cone boundary")
        fids = x.triangles_by_triple.get(frozenset((center, a, b)))
        if fids is None:
            raise FixtureError(f"no triangle on {center!r}, {a!r}, {b!r}")
        fan.append(fids[0])
    return Cone(center=center, boundary=tuple(boundary), fan=tuple(fan))


# ---------------------------------------------------------------------------
# the cone criterion


@dataclass
class ConeCriterionResult:
    certified: bool
    counterexample: Cone
    bw_tree: bool
    bpw_tree: bool


def cone_criterion_check(x: Complex2, classes, groups: GroupTable) -> ConeCriterionResult:
    """If every simple cone lies inside one class, certify that B_w is a
    tree; otherwise return a violating cone.  The certificate is checked
    against the direct acyclicity test: a disagreement means the input
    breaks the criterion's hypothesis h1 = 0, or else an engine bug."""
    if not x.is_simplicial():
        raise FixtureError("the cone criterion needs a simplicial complex")
    counterexample = _straddling_cone(x, {fid: cls.id for cls in classes for fid in cls.triangles})
    bw, bpw = build_bw(x, classes, groups)
    certified = counterexample is None
    if certified and bw.has_cycle():
        if h1_z2(x) != 0:
            raise HypothesisError("the cone criterion needs h1 = 0", lemma="cone-criterion")
        raise EngineError("certified complex has a cyclic B_w")
    return ConeCriterionResult(certified, counterexample, bw.is_tree(), bpw.is_tree())


def _straddling_cone(x: Complex2, class_of):
    """A simple cone meeting two classes, or None.  Simple cones at v are
    the simple cycles of v's link, and two link edges lie on one exactly
    when they share a block (Whitney).  In a block holding two classes,
    two edges of different classes meet at some u, and the block minus u
    joins their far ends.  So only a vertex whose star meets two classes
    (a triangle in no class counting as one more) can give a cone."""
    for v, star in sorted(x.triangles_by_vertex.items()):
        if len({class_of.get(fid) for fid in star}) < 2:
            continue
        link = {fid: tuple(sorted(x.face_vertices(fid) - {v})) for fid in star}
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
    n_prime: int  # lowest level from which every step keeps the class structure
    n_dprime: int  # lowest level >= N' from which every stable pair pulls back
    ledger: tuple  # covolume per level
    acc_alerts: tuple
    classes: dict  # level -> equivalence classes, for levels N_delta..horizon


def _renames_level(run, n):
    """Is tau_n a bijective renaming of level n onto level n+1?  Then every
    class goes to the class of the same triangles in the renamed complex,
    with the same record, and every stable pair at n+1 has its renamed
    preimage: sigma and the pullback hold without a walk."""
    renamed = run.taus[n].renamed
    return renamed.keys() == run.levels[n].complexes.keys() and sorted(renamed.values()) == sorted(
        run.levels[n + 1].complexes
    )


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


def _pulls_back(run, n, above):
    """Each stable pair at n+1 (``above``: complex id -> ComplexClasses)
    has exactly one preimage triangle on each side, in one complex,
    sharing a side that tau_n sends to the pair's edge."""
    tau = run.taus[n]
    back = defaultdict(list)
    for key in run.levels[n].triangles():
        img = tau.image(key)
        if img is not None:
            back[img].append(key)
    for cid, rec in above.items():
        for t1, t2, eid in rec.pairs:
            p1, p2 = back.get((cid, t1), []), back.get((cid, t2), [])
            if len(p1) != 1 or len(p2) != 1:
                return False
            (k1,), (k2,) = p1, p2
            if k1[0] != k2[0]:
                return False
            x = run.levels[n].complexes[k1[0]]
            shared = set(x.faces[k1[1]]) & set(x.faces[k2[1]])
            if not any(tau.side_image(k1, e) == eid and tau.side_image(k2, e) == eid for e in shared):
                return False
    return True


def _first_stable(start, passes):
    """Lowest n0 >= start with passes[n - start] true for every n >= n0;
    the horizon, where no step is left, always qualifies."""
    n0 = start + len(passes)
    while n0 > start and passes[n0 - 1 - start]:
        n0 -= 1
    return n0


def stabilization_report(run: RunView) -> StabilizationReport:
    """Horizon-relative N-delta / N' / N'' detection plus the ascending
    chain monitor on oriented-edge labels along class edges.  Pairs and
    classes are computed once per complex, and a step that renames the
    whole level passes both per-step tests at once."""
    ledger = [lvl.covolume() for lvl in run.levels]
    n_delta = detect_n_delta(ledger)
    horizon = run.horizon
    levels = range(n_delta, horizon + 1)

    records = stable_classes(run, n_delta)
    classes = {n: level_classes(n, records[n]) for n in levels}

    # Claim-1 and Claim-2 bookkeeping plus sigma bijectivity
    renames = {n: _renames_level(run, n) for n in range(n_delta, horizon)}

    def class_data(n):
        """The count of class orbit signatures at level n, and each
        class's count of edge orbits."""
        recs = [records[n][cid] for cid in sorted(records[n])]
        signatures = {sig for rec in recs for sig in rec.signatures}
        return len(signatures), dict(zip((cls.id for cls in classes[n]), (k for rec in recs for k in rec.edge_orbits)))

    def class_step(n):
        if renames[n]:
            return True
        sigma = _sigma(run, n, classes[n], classes[n + 1])
        values = [v for v in sigma.values() if v is not None]
        if not len(classes[n]) == len(values) == len(set(values)) == len(classes[n + 1]):
            return False  # sigma is not total, injective and onto
        (count, orbits), (count1, orbits1) = class_data(n), class_data(n + 1)
        return count == count1 and all(orbits[cid] == orbits1[img] for cid, img in sigma.items())

    n_prime = _first_stable(n_delta, [class_step(n) for n in range(n_delta, horizon)])
    # Claim-3 style pullback: stable pairs pull back to pairs
    n_dprime = _first_stable(
        n_prime, [renames[n] or _pulls_back(run, n, records[n + 1]) for n in range(n_prime, horizon)]
    )

    alerts = acc_monitor(run, n_delta, classes)
    return StabilizationReport(
        horizon=horizon,
        n_delta=n_delta,
        n_prime=n_prime,
        n_dprime=n_dprime,
        ledger=tuple(ledger),
        acc_alerts=tuple(alerts),
        classes=classes,
    )


def _grows_into_horizon(run: RunView, start: int) -> bool:
    """Does tau_{H-1}, for the horizon H with H-1 >= ``start``, send a side
    of a level H-1 triangle to an edge with a strictly larger oriented-edge
    label?  Every chain that the monitor walks into the horizon takes its
    last step along one of these, so without one there is no alert.  A
    complex that tau_{H-1} renames to the very same complex keeps every
    label, so it is skipped."""
    horizon = run.horizon
    if horizon - 1 < start:
        return False
    groups, tau, above = run.groups, run.taus[horizon - 1], run.levels[horizon].complexes
    for cid, x in run.levels[horizon - 1].complexes.items():
        if above.get(tau.renamed.get(cid)) is x:
            continue
        for fid in x.triangles():
            key = (cid, fid)
            img = tau.image(key)
            if img is None:
                continue
            for eid in x.faces[fid]:
                img_eid = tau.side_image(key, eid)
                if img_eid is None:
                    continue
                a, b = x.edge_stab_plus(eid), above[img[0]].edge_stab_plus(img_eid)
                if groups.leq(a, b) and not groups.leq(b, a):
                    return True
    return False


def acc_monitor(run: RunView, start: int, classes):
    """Follow each class edge through the levels and compare its
    oriented-edge label with the declared subgroup order; a chain still
    strictly growing at the final step is an alert.  ``classes`` maps each
    level from ``start`` to the horizon to its equivalence classes.  The
    chains are walked only when some last step grows."""
    if not _grows_into_horizon(run, start):
        return []
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
