"""Cross-level stability analysis: triangle maps, stable pairs, class
subcomplexes, the bipartite graphs B_w, cones, and the stabilization
detectors with the ascending-chain monitor.

Everything here is horizon-relative: a finite run can only certify
"stable up to level m", and every report says which horizon it used.
"""

import operator
from collections import defaultdict
from collections.abc import Mapping
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
        return sum(map(covolume, self.complexes.values()))


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
    if any(map(operator.lt, ledger, ledger[1:])):
        raise EngineError(f"covolume ledger increases: {ledger}")
    return ledger.index(ledger[-1])  # non-increasing: the last value's first level starts the constant run


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
    class's orbit signature and count of edge orbits.  A complex that the
    next step renames shares its image's record."""

    pairs: frozenset
    classes: tuple
    signatures: tuple
    edge_orbits: tuple


def classes_of_complex(x: Complex2, pairs) -> ComplexClasses:
    """The classes of the relation that the stable pairs ``pairs`` of
    ``x`` generate, one per triangle at least.

    Each class spans a cutpoint-free subcomplex (its triangles with their
    sides and corners), by construction.  Its triangles are joined through
    pairs, and the two triangles of a pair share a side.  Every triangle
    of a valid complex has three distinct corners.  Take away a vertex v:
    each triangle keeps a side that misses v, and two triangles sharing a
    side still share a corner other than v.  So the side graph of the
    class stays connected without v, and v is no cutpoint.
    ``tests/oracles.class_cutpoints`` keeps the search."""
    uf = graphs.UnionFind(x.triangles())
    for t1, t2, _eid in pairs:
        uf.union(t1, t2)
    classes = tuple(map(frozenset, uf.classes().values()))
    return ComplexClasses(
        pairs=frozenset(pairs),
        classes=classes,
        signatures=tuple(tuple(sorted(x.orbit[f] for f in tris)) for tris in classes),
        edge_orbits=tuple(len({x.orbit[e] for f in tris for e in x.faces[f]}) for tris in classes),
    )


def stable_classes(run: RunView, start: int):
    """The stable pairs and classes of levels start..horizon, per complex,
    and the levels n whose tau_n renames the whole level: ({level:
    {complex id: ComplexClasses}}, {n}).  One sweep runs down from the
    horizon, where every pair is stable.  Below it a pair is stable
    exactly when tau_n sends both triangles to distinct triangles of one
    complex and both sides to one edge, and that image pair is stable at
    n+1; this is exact because every side image is a side of the image
    triangle, which is checked here.

    A complex that tau_n renames must share its cells and orbits with its
    image, which is checked here too; it has the pairs, and so the
    classes, of its image.  One pass over the renamings checks them and
    shares the records, and judges the level: when tau_n renames it
    bijectively onto level n+1, it is done."""
    horizon, levels, taus = run.horizon, run.levels, run.taus
    records = {horizon: {cid: classes_of_complex(x, pairs_of_complex(x)) for cid, x in levels[horizon].complexes.items()}}
    renamed_whole = set()
    target, above = levels[horizon].complexes, records[horizon]
    for n in range(horizon - 1, start - 1, -1):
        tau, source, level = taus[n], levels[n].complexes, {}
        for cid, to in tau.renamed.items():
            x, y = source.get(cid), target.get(to)
            if x is None or y is None or y.cell_data is not x.cell_data or y.orbit is not x.orbit:
                raise EngineError(f"tau_{n} renames {cid!r} to {to!r}, which does not share its cells")
            level[cid] = above[to]
        for (key, eid), img_eid in tau.edge_map.items():
            img = tau.triangle_map.get(key)
            if img is None:
                continue
            x = target.get(img[0])
            if x is None or img_eid not in x.faces.get(img[1], ()):
                raise EngineError(f"tau_{n} sends side {eid!r} of {key!r} to {img_eid!r}, not a side of {img!r}")
        records[n] = level
        if len(level) == len(source) == len(target) == len(set(tau.renamed.values())):
            renamed_whole.add(n)
        else:
            for cid, x in source.items():
                if cid not in level:
                    level[cid] = classes_of_complex(x, _stable_pairs(tau, cid, x, above))
        target, above = source, level
    return records, renamed_whole


def _stable_pairs(tau, cid, x, above):
    """The pairs of complex ``cid``, ``x``, that tau sends to a stable pair
    of ``above`` (complex id -> ComplexClasses): both triangles to distinct
    triangles of one complex, both sides to one edge."""
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
    return stable


def level_classes(n: int, classes_of) -> list:
    """The classes of level n from each complex's triangle sets, numbered
    ``Y{n}.{i}`` in (complex id, least face) order."""
    out = []
    for cid in sorted(classes_of):
        for triangles in classes_of[cid]:
            out.append(TriangleClass(id=f"Y{n}.{len(out)}", cid=cid, triangles=triangles))
    return out


class LevelClasses(Mapping):
    """Level -> its classes (``level_classes``) for the levels of the
    ``stable_classes`` records.  It keeps the records, and with them their
    pairs, which a renamed complex shares with its image; it builds
    nothing for a level until that level is first read, and then numbers
    it once."""

    def __init__(self, records):
        self.records, self.built = records, {}

    def __getitem__(self, n):
        out = self.built.get(n)
        if out is None:
            out = self.built[n] = level_classes(n, {cid: rec.classes for cid, rec in self.records[n].items()})
        return out

    def __iter__(self):
        return iter(sorted(self.records))

    def __len__(self):
        return len(self.records)


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
    non-slender labels are collapsed into their classes.  Under two
    classes no edge is shared, so both are the class nodes alone."""
    if len(classes) < 2:
        bw = BipartiteBW(class_nodes=tuple(c.id for c in classes), edge_nodes=(), edges=())
        return bw, bw
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
        fids = x.triangles_by_triple.get(tuple(sorted((center, a, b))))
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
    (a triangle in no class counting as one more) can give a cone, and
    none does in a complex whose triangles meet fewer than two."""
    if len(set(map(class_of.get, x.triangles()))) < 2:
        return None
    for v, star in sorted(x.triangles_by_vertex.items()):
        if len({class_of.get(fid) for fid in star}) < 2:
            continue
        link = {fid: tuple(w for w in x.face_vertices(fid) if w != v) for fid in star}
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
    classes: LevelClasses  # level -> equivalence classes, for levels N_delta..horizon


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


def stabilization_report(run: RunView) -> StabilizationReport:
    """Horizon-relative N-delta / N' / N'' detection plus the ascending
    chain monitor on oriented-edge labels along class edges.  Pairs and
    classes are computed once per complex, a level's classes are numbered
    only where read, and a step that renames the whole level passes both
    per-step tests at once.  N' (N'') is one above the last step from
    N_delta (N') that fails its test, or N_delta (N') when none fails;
    every other step is tested, in level order."""
    ledger = [lvl.covolume() for lvl in run.levels]
    n_delta = detect_n_delta(ledger)
    horizon = run.horizon

    records, renamed_whole = stable_classes(run, n_delta)
    classes = LevelClasses(records)
    tested = sorted(set(range(n_delta, horizon)) - renamed_whole)  # the steps a renaming does not pass

    def class_data(n):
        """The count of class orbit signatures at level n, and each
        class's count of edge orbits."""
        recs = [records[n][cid] for cid in sorted(records[n])]
        signatures = {sig for rec in recs for sig in rec.signatures}
        return len(signatures), dict(zip((cls.id for cls in classes[n]), (k for rec in recs for k in rec.edge_orbits)))

    def class_step(n):
        """Claim-1 and Claim-2 bookkeeping plus sigma bijectivity."""
        sigma = _sigma(run, n, classes[n], classes[n + 1])
        values = [v for v in sigma.values() if v is not None]
        if not len(classes[n]) == len(values) == len(set(values)) == len(classes[n + 1]):
            return False  # sigma is not total, injective and onto
        (count, orbits), (count1, orbits1) = class_data(n), class_data(n + 1)
        return count == count1 and all(orbits[cid] == orbits1[img] for cid, img in sigma.items())

    n_prime = max([n + 1 for n in tested if not class_step(n)], default=n_delta)
    # Claim-3 style pullback: stable pairs pull back to pairs
    n_dprime = max([n + 1 for n in tested if n >= n_prime and not _pulls_back(run, n, records[n + 1])], default=n_prime)

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
                if _grows(groups, x.edge_stab_plus(eid), above[img[0]].edge_stab_plus(img_eid)):
                    return True
    return False


def acc_monitor(run: RunView, start: int, classes):
    """Follow each class edge through the levels and compare its
    oriented-edge label with the declared subgroup order; a chain still
    strictly growing at the final step is an alert.  ``classes`` maps each
    level from ``start`` to the horizon to its equivalence classes.  The
    chains are walked only when some last step grows.

    A chain starts at each class side of a level from ``start`` below the
    horizon that no chain from a lower level reached, in class order,
    from the first triangle holding the side; it is named after its
    complex, side and level.  The chains step level by level, grouped by
    the complex they are in.  Those of a complex that tau_m renames step
    together, to its image with the same faces and sides, by reading
    ``renamed`` only; every side of that image is then reached, since its
    cells are those of the source (``stable_classes`` checks it), so no
    chain starts there.  Only the chains of the other complexes step one
    by one, through ``TauFragment.image`` and ``side_image``.  At the
    last step each chain compares the labels of its side before and
    after; only a chain that grows there builds its label list, by
    walking again from its start."""
    if not _grows_into_horizon(run, start):
        return []
    groups, horizon, levels = run.groups, run.horizon, run.levels
    at = {}  # complex id at level m -> its chains: (start level, start complex, start face, start side, face, side)
    sides_reached, renamed_into = {}, set()  # per complex, the sides a chain reached; complexes with every side reached
    grown = []
    for m in range(start, horizon):
        complexes, tau = levels[m].complexes, run.taus[m]
        if len(renamed_into) < len(complexes):  # tau_{m-1} renamed into complexes of level m only
            for cls in classes[m]:
                if cls.cid in renamed_into:
                    continue
                x, seen = complexes[cls.cid], sides_reached.setdefault(cls.cid, set())
                chains = at.setdefault(cls.cid, [])
                for fid in sorted(cls.triangles):
                    for eid in x.faces[fid]:
                        if eid not in seen:
                            seen.add(eid)
                            chains.append((m, cls.cid, fid, eid, fid, eid))
        above, last = levels[m + 1].complexes, m + 1 == horizon
        moved, sides_reached, renamed_into = {}, {}, set(tau.renamed.values())
        for cid, chains in at.items():
            x, to = complexes[cid], tau.renamed.get(cid)
            if to is not None:  # the chains move together, their faces and sides kept
                if to in moved:
                    moved[to] += chains
                else:
                    moved[to] = chains
                y = above[to]
                if last and y is not x:
                    grown += [c for c in chains if _grows(groups, x.edge_stab_plus(c[5]), y.edge_stab_plus(c[5]))]
                continue
            for chain in chains:
                key, eid = (cid, chain[4]), chain[5]
                img, img_eid = tau.image(key), tau.side_image(key, eid)
                if img is None or img_eid is None:
                    continue  # the chain ends below the horizon
                sides_reached.setdefault(img[0], set()).add(img_eid)
                moved.setdefault(img[0], []).append(chain[:4] + (img[1], img_eid))
                if last and _grows(groups, x.edge_stab_plus(eid), above[img[0]].edge_stab_plus(img_eid)):
                    grown.append(chain)
        at = moved

    alerts = []
    for n, cid, fid, eid, _fid, _eid in grown:
        name, labels = f"{cid}:{eid}@L{n}", [levels[n].complexes[cid].edge_stab_plus(eid)]
        for m in range(n, horizon):
            tau = run.taus[m]
            to = tau.renamed.get(cid)
            if to is None:
                key = (cid, fid)
                (cid, fid), eid = tau.image(key), tau.side_image(key, eid)
            else:
                cid = to
            labels.append(levels[m + 1].complexes[cid].edge_stab_plus(eid))
        alerts.append(AccAlert(chain=name, levels=tuple(range(n, horizon + 1)), labels=tuple(labels)))
    return sorted(alerts, key=operator.attrgetter("chain"))


def _grows(groups, a, b):
    """Is label ``a`` strictly below label ``b``?"""
    return groups.leq(a, b) and not groups.leq(b, a)
