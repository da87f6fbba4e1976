"""Hierarchies of tree actions, H-structures, and passdown over a tree.

A hierarchy is stored in quotient form: a rooted tree of nodes, each
carrying a group id and either a quotient graph of groups (its splitting)
or nothing (terminal).  Children correspond one-to-one to the action's
vertices with unchanged groups.  An H-structure additionally attaches a
complex to each terminal node (``None`` stands for a point).

Ellipticity of abstract subgroups is never decided.  The hierarchy-level
passdown replays fixture-supplied restriction tables; the structure-level
passdown derives all it needs from the tree actions of the cell labels.
"""

from collections import defaultdict
from dataclasses import dataclass, field

from . import graphs
from .complexes import covolume, cutpoints, h1_z2, is_connected, reduced_cutpoint_tree, subcomplex
from .errors import ConsistencyError, EngineError, FixtureError, HypothesisError
from .groups import GroupTable
from .provenance import TauFragment
from .resolution import CONTRACTING, ActionTable, build_resolution, contract
from .tracks import essential_tracks, split_collapse, tracks_from_resolution
from .trees import ELLIPTIC, FLEXIBLE, RIGID, GraphOfGroups, TreeHat, make_gog


@dataclass
class HNode:
    id: str
    group: str
    action: GraphOfGroups = None  # None: terminal
    children: dict = field(default_factory=dict)  # action vertex id -> child node id
    parent: str = None
    origin: tuple = None  # (hierarchy name, node id) the group came from

    def is_terminal(self):
        return self.action is None or (self.action.is_point() and not self.children)

    def is_frontier(self):
        """Non-terminal node whose children were not expanded (horizon cut)."""
        return self.action is not None and not self.action.is_point() and not self.children


@dataclass
class Hierarchy:
    name: str
    root: str
    nodes: dict
    jsj: bool = False

    def node(self, nid) -> HNode:
        return self.nodes[nid]

    def depth_of(self, nid) -> int:
        d = 0
        node = self.nodes[nid]
        while node.parent is not None:
            node = self.nodes[node.parent]
            d += 1
        return d

    def children_of(self, nid):
        return [self.nodes[cid] for cid in self.nodes[nid].children.values()]

    def terminals(self):
        return [n for n in self.nodes.values() if n.is_terminal()]

    def subtree_ids(self, nid):
        out = [nid]
        todo = [nid]
        while todo:
            for cid in self.nodes[todo.pop()].children.values():
                out.append(cid)
                todo.append(cid)
        return out


def depth(h: Hierarchy) -> int:
    return max(h.depth_of(nid) for nid in h.nodes)


def level(h: Hierarchy, n: int):
    return {nid for nid in h.nodes if h.depth_of(nid) == n}


def validate_hierarchy(h: Hierarchy, groups: GroupTable):
    if h.root not in h.nodes:
        raise FixtureError(f"hierarchy {h.name!r}: missing root node")
    for nid, node in h.nodes.items():
        groups[node.group]
        if node.action is not None:
            if node.action.is_point() and node.children:
                # a point tree means a trivial action: the group is unchanged
                ((_vid, gid),) = node.action.vertices.items()
                if groups.equal(gid, node.group):
                    raise FixtureError(f"node {nid!r}: a point action makes the node terminal")
            for vid, cid in node.children.items():
                if vid not in node.action.vertices:
                    raise FixtureError(f"node {nid!r}: child key {vid!r} is not an action vertex")
                child = h.nodes[cid]
                if child.group != node.action.vertices[vid]:
                    raise ConsistencyError(
                        f"node {nid!r}: child {cid!r} group differs from its action vertex group"
                    )
            if node.children and set(node.children) != set(node.action.vertices):
                raise FixtureError(f"node {nid!r}: children do not match the action's vertices")
        elif node.children:
            raise FixtureError(f"terminal node {nid!r} has children")
        if h.jsj and groups.slender(node.group) and node.children:
            raise ConsistencyError(
                f"node {nid!r}: slender-group nodes of a JSJ hierarchy must be terminal"
            )


def validate_slender_edges(h: Hierarchy, groups: GroupTable):
    for node in h.nodes.values():
        if node.action is None:
            continue
        for eid, (_u, _w, gid) in node.action.edges.items():
            if not groups.slender(gid):
                raise HypothesisError(
                    f"hierarchy {h.name!r}: edge {eid!r} of node {node.id!r} has a "
                    "non-slender label",
                    lemma="slender-hierarchy",
                )


@dataclass(frozen=True)
class HEllipticity:
    value: bool
    horizon_relative: bool
    witness: tuple  # node ids, one per level, containing the group


def is_h_elliptic(gid: str, h: Hierarchy, groups: GroupTable) -> HEllipticity:
    """Is the group inside a terminal node's group, or inside one node on
    every level down to the run's horizon?

    A non-slender group may sit in at most one node per level; more is an
    inconsistent fixture.
    """
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


# ---------------------------------------------------------------------------
# restriction tables and hierarchy passdown


@dataclass(frozen=True)
class Restriction:
    """How a subgroup meets one splitting: it is elliptic at one vertex,
    or it splits along a named minimal-subtree quotient whose vertices
    carry new group ids with their originating vertices."""

    kind: str  # "elliptic" | "split"
    child: str = None
    sub: GraphOfGroups = None
    origins: dict = None  # sub vertex id -> parent action vertex id


class RestrictionTable:
    def __init__(self):
        self._entries = {}

    def declare(self, gid, gog_name, restriction: Restriction):
        self._entries[(gid, gog_name)] = restriction

    def get(self, gid, gog_name):
        return self._entries.get((gid, gog_name))


def _quotient_tree_gog(name, tree: TreeHat, flags=None, jsj=False, groups=None) -> GraphOfGroups:
    """Quotient view of a tree: one vertex per vertex orbit, one edge per
    edge orbit."""
    verts = {}
    for v in sorted(tree.vertices):
        verts.setdefault(tree.orbit[v], tree.stab[v])
    edges = {}
    for eid in sorted(tree.edges):
        o = tree.orbit[eid]
        if o not in edges:
            u, w = tree.edges[eid]
            edges[o] = (tree.orbit[u], tree.orbit[w], tree.stab[eid])
    return make_gog(name, verts, edges, flags=flags, jsj=jsj, groups=groups)


def passdown_hierarchy(tree_gog: GraphOfGroups, k: Hierarchy, tables: RestrictionTable, groups: GroupTable, vertices=None):
    """Split a finite slender hierarchy over an unrelated tree: one output
    hierarchy per vertex of the quotient tree graph.

    Asserted along the way: depths never grow; every node points at an
    originating node of ``k`` at least as deep; rigid vertices of a JSJ
    tree start with an elliptic step and lose one level.
    """
    validate_hierarchy(k, groups)
    validate_slender_edges(k, groups)
    for eid, (_u, _w, gid) in tree_gog.edges.items():
        if not groups.slender(gid):
            raise HypothesisError(
                f"tree edge {eid!r} has a non-slender label", lemma="slender-edges"
            )
    k_depth = depth(k)
    out = {}
    for v in sorted(vertices if vertices is not None else tree_gog.vertices):
        gv = tree_gog.vertices[v]
        nodes = {}
        counter = [0]

        def build(gid, knode: HNode, parent_id, via_elliptic_first):
            # descend through elliptic steps until the group splits or lands
            # on a terminal originating node
            first_step_elliptic = None
            while True:
                if knode.is_terminal() or knode.is_frontier():
                    r = None
                else:
                    r = tables.get(gid, knode.action.name)
                    if r is None:
                        raise ConsistencyError(
                            f"no restriction declared for group {gid!r} on splitting "
                            f"{knode.action.name!r}"
                        )
                if r is not None and r.kind == "elliptic":
                    if first_step_elliptic is None:
                        first_step_elliptic = True
                    cid = knode.children.get(r.child)
                    if cid is None:
                        raise ConsistencyError(
                            f"restriction of {gid!r} names missing vertex {r.child!r} of "
                            f"{knode.action.name!r}"
                        )
                    child = k.nodes[cid]
                    if not groups.leq(gid, child.group):
                        raise ConsistencyError(
                            f"group {gid!r} not declared inside {child.group!r} despite an "
                            "elliptic restriction"
                        )
                    knode = child
                    continue
                if first_step_elliptic is None:
                    first_step_elliptic = False
                break

            nid = f"{v}.n{counter[0]}"
            counter[0] += 1
            node = HNode(id=nid, group=gid, parent=parent_id, origin=(k.name, knode.id))
            nodes[nid] = node
            if r is None:
                return nid, first_step_elliptic
            # split: the action is the minimal invariant subtree's quotient
            for eid, (_a, _b, egid) in r.sub.edges.items():
                if not groups.slender(egid):
                    raise HypothesisError(
                        f"restriction {r.sub.name!r} has non-slender edge {eid!r}",
                        lemma="slender-hierarchy",
                    )
            node.action = r.sub
            for sv in sorted(r.sub.vertices):
                origin_vertex = (r.origins or {}).get(sv)
                if origin_vertex is None or origin_vertex not in knode.children:
                    raise ConsistencyError(
                        f"restriction {r.sub.name!r}: vertex {sv!r} lacks a valid origin"
                    )
                child_knode = k.nodes[knode.children[origin_vertex]]
                sub_gid = r.sub.vertices[sv]
                if not groups.leq(sub_gid, child_knode.group):
                    raise ConsistencyError(
                        f"vertex group {sub_gid!r} of {r.sub.name!r} not declared inside "
                        f"{child_knode.group!r}"
                    )
                cid, _ = build(sub_gid, child_knode, nid, False)
                node.children[sv] = cid
            return nid, first_step_elliptic

        root_id, root_elliptic = build(gv, k.nodes[k.root], None, None)
        kv = Hierarchy(name=f"{k.name}@{v}", root=root_id, nodes=nodes)
        validate_hierarchy(kv, groups)
        # property 2 (and hence 1): origins at least as deep
        for nid in kv.nodes:
            _, knid = kv.nodes[nid].origin
            if kv.depth_of(nid) > k.depth_of(knid):
                raise EngineError("passdown produced a node deeper than its origin")
        if depth(kv) > k_depth:
            raise EngineError("passdown increased hierarchy depth")
        if tree_gog.jsj and tree_gog.flags.get(v) == RIGID and k_depth > 0:
            if not root_elliptic:
                raise ConsistencyError(
                    f"rigid vertex {v!r} of a JSJ tree must restrict elliptically at the "
                    "first level"
                )
            if depth(kv) >= k_depth:
                raise EngineError("rigid vertex kept the full depth despite an elliptic step")
        out[v] = kv
    return out


# ---------------------------------------------------------------------------
# depth bound replay


@dataclass
class DepthBoundReport:
    ok: bool
    depth_h: int
    depth_k: int
    violations: tuple

    def bound(self):
        return self.depth_k + 1


def jsj_depth_bound(h: Hierarchy, k: Hierarchy, tables: RestrictionTable, groups: GroupTable) -> DepthBoundReport:
    """Replay the inductive depth bound depth(h) <= depth(k) + 1 for a JSJ
    hierarchy against an auxiliary hierarchy with slender-or-H-elliptic
    terminal groups; violations name the offending branch."""
    if not h.jsj:
        raise HypothesisError("depth bound needs a JSJ-flagged hierarchy", lemma="depth-bound")
    validate_hierarchy(h, groups)
    validate_hierarchy(k, groups)
    for t in k.terminals():
        ref = groups[t.group]
        if not (ref.is_slender or ref.is_h_elliptic):
            raise HypothesisError(
                f"terminal {t.id!r} of {k.name!r} is neither slender nor flagged "
                "elliptic on every level",
                lemma="depth-bound",
            )
    violations = []

    def subtree_depth(hh, nid):
        return max(hh.depth_of(x) for x in hh.subtree_ids(nid)) - hh.depth_of(nid)

    def certify(h_node_id, k_cur: Hierarchy):
        node = h.nodes[h_node_id]
        dk = depth(k_cur)
        if dk == 0:
            if not node.is_terminal():
                violations.append(
                    f"branch {h_node_id!r}: auxiliary hierarchy is trivial but the node splits"
                )
            return
        if node.is_terminal():
            return
        rigid_vertices = []
        for vid, cid in node.children.items():
            flag = node.action.flags.get(vid)
            if flag == FLEXIBLE:
                if subtree_depth(h, cid) > 1:
                    violations.append(
                        f"branch {cid!r}: flexible vertex with subtree deeper than one level"
                    )
            elif flag == RIGID:
                rigid_vertices.append(vid)
            else:
                raise ConsistencyError(
                    f"vertex {vid!r} of {node.action.name!r} needs a rigid/flexible annotation"
                )
        kv_map = passdown_hierarchy(node.action, k_cur, tables, groups, vertices=rigid_vertices)
        for vid in rigid_vertices:
            certify(node.children[vid], kv_map[vid])

    certify(h.root, k)
    dh, dk = depth(h), depth(k)
    if dh > dk + 1:
        violations.append(f"total depth {dh} exceeds {dk} + 1")
    return DepthBoundReport(ok=not violations, depth_h=dh, depth_k=dk, violations=tuple(violations))


# ---------------------------------------------------------------------------
# H-structures


@dataclass
class HStructure:
    hierarchy: Hierarchy
    terminal_complexes: dict  # terminal node id -> Complex2, or None for a point

    def complexes(self):
        return {nid: x for nid, x in self.terminal_complexes.items() if x is not None}


def structure_covolume(k: HStructure) -> int:
    return sum(covolume(x) for x in k.complexes().values())


def validate_hstructure(k: HStructure, groups: GroupTable):
    validate_hierarchy(k.hierarchy, groups)
    validate_slender_edges(k.hierarchy, groups)
    terminal_ids = {n.id for n in k.hierarchy.terminals()}
    for nid, x in k.terminal_complexes.items():
        if nid not in terminal_ids:
            raise FixtureError(f"complex attached to non-terminal node {nid!r}")
        if x is None:
            continue
        if not is_connected(x):
            raise FixtureError(f"terminal complex at {nid!r} is disconnected")
        if h1_z2(x) != 0:
            raise FixtureError(f"terminal complex at {nid!r} has h1 != 0")
        for cell in x.cells():
            ref = groups[x.stab[cell]]
            if not (ref.is_slender or ref.is_h_elliptic):
                raise ConsistencyError(
                    f"cell {cell!r} of the complex at {nid!r} is neither slender nor "
                    "elliptic on every level"
                )


@dataclass
class PassdownResult:
    structures: dict  # tree vertex orbit id -> HStructure
    ledger: dict  # stage -> total covolume
    fragments: dict  # original terminal node id -> TauFragment
    placements: dict  # original terminal node id -> {face id -> (orbit, node id)}


def _elliptic_claim(gid, actions: ActionTable):
    act = actions.resolved(gid)
    if act.kind != ELLIPTIC or not act.fixed:
        return None
    return min(act.fixed)


def _distribute(h: Hierarchy, gog: GraphOfGroups, claims, complexes, groups: GroupTable):
    """Every vertex orbit of the quotient receives the terminals it claims.

    A single claim whose group equals the vertex group becomes the new
    root; otherwise the claims hang one level below the root.  ``claims``
    maps terminal id -> vertex orbit and ``complexes`` terminal id ->
    complex or None.  Returns (structures by vertex orbit, placements
    {terminal id: {face id: (vertex orbit, new node id)}}).
    """
    structures, placements = {}, {}
    for v in sorted(gog.vertices):
        gv = gog.vertices[v]
        claimed = sorted(nid for nid, tv in claims.items() if tv == v)
        root = HNode(id=f"{v}.root", group=gv)
        nodes = {root.id: root}
        homes = []  # (claimed terminal id, node id receiving its complex)
        if len(claimed) == 1 and groups.equal(h.nodes[claimed[0]].group, gv):
            root.origin = (h.name, claimed[0])
            homes.append((claimed[0], root.id))
        elif claimed:
            verts = {f"w{i}": h.nodes[nid].group for i, nid in enumerate(claimed)}
            root.action = make_gog(f"{h.name}@{v}.claims", verts, {}, groups=groups)
            for i, nid in enumerate(claimed):
                child = HNode(
                    id=f"{v}.t{i}", group=h.nodes[nid].group, parent=root.id, origin=(h.name, nid)
                )
                nodes[child.id] = child
                root.children[f"w{i}"] = child.id
                homes.append((nid, child.id))
        term_complexes = {}
        for nid, home in homes:
            x = term_complexes[home] = complexes.get(nid)
            placements[nid] = {fid: (v, home) for fid in (x.faces if x is not None else ())}
        structures[v] = HStructure(
            hierarchy=Hierarchy(name=f"{h.name}@{v}", root=root.id, nodes=nodes),
            terminal_complexes=term_complexes,
        )
    return structures, placements


def passdown_structure(k: HStructure, tl, tables: RestrictionTable = None, groups: GroupTable = None) -> PassdownResult:
    """Pass an H-structure down over a tree whose terminal groups are
    slender or elliptic: covolume is preserved exactly.

    With a restriction table the hierarchies are replayed through it;
    without one, each vertex receives the terminals it claims (the
    elliptic fixed vertex of the terminal's group), one level below its
    root.  Each non-slender terminal is claimed exactly once.
    """
    groups = groups or tl.actions.groups
    validate_hstructure(k, groups)
    h = k.hierarchy
    claims = {}
    for node in h.terminals():
        x = k.terminal_complexes.get(node.id)
        if groups.slender(node.group):
            if x is not None and covolume(x) > 0:
                raise HypothesisError(
                    f"slender terminal {node.id!r} carries triangles; it must act on a point",
                    lemma="covolume-equality",
                )
            continue
        target = _elliptic_claim(node.group, tl.actions)
        if target is None:
            raise HypothesisError(
                f"terminal {node.id!r} is neither slender nor elliptic in the tree; "
                "use the full passdown",
                lemma="elliptic-terminals",
            )
        claims[node.id] = tl.tree.orbit[target]

    if tables is not None:
        structures, placements = {}, {}
        kv_map = passdown_hierarchy(tl.gog, h, tables, groups)
        for v, kv in kv_map.items():
            complexes = {}
            for node in kv.terminals():
                _, knid = node.origin
                if groups.slender(node.group):
                    complexes[node.id] = None
                    continue
                origin = h.nodes[knid]
                if not origin.is_terminal():
                    raise ConsistencyError(
                        f"non-slender terminal {node.id!r} originates at a non-terminal node"
                    )
                if not groups.equal(node.group, origin.group):
                    raise ConsistencyError(
                        f"non-slender terminal {node.id!r} must equal its originating "
                        f"terminal group {origin.group!r}"
                    )
                if claims.get(knid) != v:
                    raise ConsistencyError(
                        f"terminal {knid!r} is claimed by {claims.get(knid)!r} but its group "
                        f"reappears under {v!r}"
                    )
                complexes[node.id] = k.terminal_complexes.get(knid)
                placements[knid] = {
                    fid: (v, node.id, fid)
                    for fid in (complexes[node.id].faces if complexes[node.id] else ())
                }
            structures[v] = HStructure(hierarchy=kv, terminal_complexes=complexes)
    else:
        structures, homes = _distribute(h, tl.gog, claims, k.terminal_complexes, groups)
        placements = {
            nid: {fid: home + (fid,) for fid, home in per_face.items()} for nid, per_face in homes.items()
        }

    total = sum(structure_covolume(s) for s in structures.values())
    if total != structure_covolume(k):
        raise EngineError(
            f"covolume changed across an elliptic-terminal passdown: {structure_covolume(k)} "
            f"-> {total}"
        )
    fragments = {
        nid: TauFragment.identity(x) for nid, x in k.complexes().items()
    }
    return PassdownResult(
        structures=structures,
        ledger={"input": structure_covolume(k), "output": total},
        fragments=fragments,
        placements=placements,
    )


@dataclass
class _KeptResolution:
    complex: object  # held, so its id is not reused while the entry lives
    no_dinfty: bool
    version: int  # of the group table the resolution was built against
    res: object
    tracks: object = None  # its essential track system, once asked for


@dataclass
class TreeLevel:
    """One splitting step of the ambient hierarchy: the tree acted on,
    with its quotient view and the action annotations of the group
    labels.

    A tree level also keeps, per complex object, the resolution built
    over its tree and that resolution's essential tracks: a level over a
    point tree hands its complexes on unchanged, and the next level over
    the same tree gets both back instead of rebuilding them.  An entry
    serves only the very object it was built for, and only while the
    group table is at the version it was built against."""

    name: str
    tree: TreeHat
    actions: ActionTable
    gog: GraphOfGroups
    jsj: bool = False
    _kept: dict = field(default_factory=dict, repr=False, compare=False)  # id(complex) -> _KeptResolution

    def resolution(self, x, no_dinfty=True):
        """``build_resolution`` of ``x`` over this tree, or the one kept for x."""
        version = self.actions.groups.version
        kept = self._kept.get(id(x))
        if kept is None or kept.no_dinfty != no_dinfty or kept.version != version:
            res = build_resolution(x, self.tree, self.actions, no_dinfty=no_dinfty)
            kept = self._kept[id(x)] = _KeptResolution(x, no_dinfty, version, res)
        return kept.res

    def essential_tracks(self, x, res):
        """The essential tracks of ``res``, kept with it when ``res`` is
        the resolution kept for ``x``."""
        kept = self._kept.get(id(x))
        if kept is None or kept.res is not res:
            return essential_tracks(tracks_from_resolution(res), x)
        if kept.tracks is None:
            kept.tracks = essential_tracks(tracks_from_resolution(res), x)
        return kept.tracks

    def keep_only(self, complexes):
        """Drop what is kept for every complex object not among ``complexes``."""
        live = {id(x) for x in complexes}
        self._kept = {key: kept for key, kept in self._kept.items() if key in live}


def make_tree_level(name, tree, actions, groups, jsj=False, flags=None) -> TreeLevel:
    orbit_flags = None
    if flags:
        orbit_flags = {tree.orbit.get(v, v): f for v, f in flags.items()}
    gog = _quotient_tree_gog(name, tree, flags=orbit_flags, jsj=jsj, groups=groups)
    return TreeLevel(name=name, tree=tree, actions=actions, gog=gog, jsj=jsj)


def _copy_hierarchy(h: Hierarchy) -> Hierarchy:
    nodes = {
        nid: HNode(
            id=n.id,
            group=n.group,
            action=n.action,
            children=dict(n.children),
            parent=n.parent,
            origin=n.origin,
        )
        for nid, n in h.nodes.items()
    }
    return Hierarchy(name=h.name, root=h.root, nodes=nodes, jsj=h.jsj)


def _restrict_resolution(res, sub_x):
    from .resolution import resolution_from_images

    return resolution_from_images(
        sub_x,
        res.target,
        {v: res.vertex_image[v] for v in sub_x.vertices},
        actions=res.actions,
    )


def _append_cutpoint_level(h, node_id, x, bpx, groups, suffix):
    """Replace a terminal by the depth-1 structure of its reduced cutpoint
    tree; returns {new terminal node id: (complex or None, block cells)}."""
    reps = sorted({bpx.node_orbit[n] for n in bpx.comp_nodes + bpx.cut_nodes})
    verts = {}
    for rep in reps:
        verts[rep] = bpx.node_stab[rep]
    edges = {}
    seen = {}
    for comp, cut in bpx.edges:
        key = (bpx.node_orbit[comp], bpx.node_orbit[cut])
        if key in seen:
            continue
        ref = groups.mint("bedge", supergroups={bpx.node_stab[comp], x.stab[cut]})
        seen[key] = True
        edges[f"{suffix}.e{len(edges)}"] = (key[0], key[1], ref.id)
    action = make_gog(f"{suffix}.split", verts, edges, groups=groups)
    node = h.nodes[node_id]
    node.action = action
    out = {}
    for i, rep in enumerate(reps):
        cid = f"{node_id}.b{i}"
        child = HNode(id=cid, group=bpx.node_stab[rep], parent=node_id, origin=(h.name, node_id))
        h.nodes[cid] = child
        node.children[rep] = cid
        if rep in bpx.comp_cells:
            sub = subcomplex(x, bpx.comp_cells[rep])
            if not is_connected(sub) or h1_z2(sub) != 0:
                raise EngineError("cutpoint-free piece is not connected with h1 = 0")
            out[cid] = (sub, bpx.comp_cells[rep])
        else:
            out[cid] = (None, frozenset())
    return out


def passdown_full(k: HStructure, tl: TreeLevel, groups: GroupTable = None, no_dinfty=True) -> PassdownResult:
    """The full three-stage passdown of an H-structure over a tree.

    Stage one replaces complexes with contracting resolutions by their
    boundary collapse; stage two splits complexes at cutpoints through the
    reduced cutpoint tree; stage three collapses essential tracks and
    splits the result at cutpoints again, leaving terminal groups that are
    slender or elliptic.  Each output vertex then receives the terminals
    it claims.  Covolume never increases, stage by stage.
    """
    groups = groups or tl.actions.groups
    validate_hstructure(k, groups)
    h = _copy_hierarchy(k.hierarchy)
    complexes = dict(k.terminal_complexes)
    for node in h.terminals():
        complexes.setdefault(node.id, None)
    ledger = {"input": sum(covolume(x) for x in complexes.values() if x is not None)}

    # stage one: repair contracting resolutions
    resolutions = {}
    fragments = {}
    for nid, x in sorted(complexes.items()):
        if x is None:
            continue
        res = tl.resolution(x, no_dinfty)
        if res.kind == CONTRACTING:
            xc, res, frag = contract(res, groups)
            complexes[nid] = xc
        else:
            frag = TauFragment.identity(x)
        resolutions[nid] = res
        fragments[nid] = frag
    ledger["contracted"] = sum(covolume(x) for x in complexes.values() if x is not None)
    if ledger["contracted"] > ledger["input"]:
        raise EngineError("covolume grew during contraction")

    # stage two: split at cutpoints (the reduced cutpoint tree keeps the
    # non-slender ones inside merged pieces)
    holders = {}  # terminal node id -> original terminal it descends from
    for nid in sorted(complexes):
        holders[nid] = nid
    for nid, x in sorted(complexes.items()):
        if x is None or not cutpoints(x):
            continue
        bpx = reduced_cutpoint_tree(x, groups)
        if len(bpx.comp_nodes) + len(bpx.cut_nodes) <= 1:
            continue
        res = resolutions.pop(nid)
        frag = fragments[nid]
        pieces = _append_cutpoint_level(h, nid, x, bpx, groups, suffix=nid)
        del complexes[nid]
        del holders[nid]
        for cid, (sub, _cells) in pieces.items():
            complexes[cid] = sub
            holders[cid] = nid
            if sub is not None:
                resolutions[cid] = _restrict_resolution(res, sub)
    ledger["cutpoint-split"] = sum(covolume(x) for x in complexes.values() if x is not None)
    if ledger["cutpoint-split"] > ledger["contracted"]:
        raise EngineError("covolume grew during the cutpoint split")

    # stage three: collapse essential tracks, then split at cutpoints again
    stage2_of = dict(holders)  # stage-two terminal id -> original terminal id
    claims = {}
    split_frags = {}
    for nid, x in sorted(complexes.items()):
        if x is None:
            continue
        res = resolutions[nid]
        for cut in cutpoints(x):
            if tl.actions.classification(x.stab[cut]) != ELLIPTIC:
                raise HypothesisError(
                    f"cutpoint {cut!r} of the complex at {nid!r} does not act elliptically",
                    lemma="splitting-resolution",
                )
        ts = tl.essential_tracks(x, res)
        xt, frag = split_collapse(x, res, ts, groups)
        split_frags[nid] = frag

        def claim_for(cx):
            # the piece maps into one component of the tree minus the
            # midpoints of its collapsed edges; claim that component
            rev = {vid: tid for tid, vid in frag.track_point.items()}
            cut = set()
            anchors = set()
            for v in cx.vertices:
                tid = rev.get(v)
                if tid is not None:
                    tr = next(t for t in ts.tracks if t.id == tid)
                    cut.add(tr.tree_edge)
                elif v in x.vertices:
                    img = res.vertex_image[v]
                    if img in tl.tree.vertices:
                        anchors.add(img)
            comps = graphs.components(
                tl.tree.vertices, (ends for eid, ends in tl.tree.edges.items() if eid not in cut)
            )
            holding = [c for c in comps if c & anchors]
            if len(holding) > 1:
                raise EngineError("a collapsed piece maps across a collapsed midpoint")
            if holding:
                return tl.tree.orbit[min(holding[0])]
            # piece made of track points only: take the smallest vertex
            # adjacent to its collapsed edges
            candidates = {w for eid in cut for w in tl.tree.edges[eid]}
            if not candidates:
                raise EngineError("empty image region for a collapsed piece")
            return tl.tree.orbit[min(candidates)]

        bpx = reduced_cutpoint_tree(xt, groups) if cutpoints(xt) else None
        if bpx is None or len(bpx.comp_nodes) + len(bpx.cut_nodes) <= 1:
            complexes[nid] = xt
            claims[nid] = claim_for(xt)
        else:
            pieces = _append_cutpoint_level(h, nid, xt, bpx, groups, suffix=nid)
            original = holders.pop(nid)
            del complexes[nid]
            for cid, (sub, _cells) in pieces.items():
                complexes[cid] = sub
                holders[cid] = original
                if sub is not None:
                    claims[cid] = claim_for(sub)
    ledger["collapsed"] = sum(covolume(x) for x in complexes.values() if x is not None)
    if ledger["collapsed"] > ledger["cutpoint-split"]:
        raise EngineError("covolume grew during the track collapse")

    structures, placements = _distribute(h, tl.gog, claims, complexes, groups)
    total = sum(structure_covolume(s) for s in structures.values())
    ledger["output"] = total
    if total > ledger["collapsed"]:
        raise EngineError("distribution increased covolume")
    if total < ledger["collapsed"]:
        raise EngineError("a collapsed terminal went unclaimed")

    # provenance per original terminal: contraction fragment, then the
    # merged per-piece collapse fragments (face ids stay disjoint)
    out_frags = {}
    out_places = {}
    for nid0 in sorted(k.terminal_complexes):
        x0 = k.terminal_complexes[nid0]
        if x0 is None:
            continue
        merged = TauFragment(triangle_map={}, edge_map={}, vertex_map={}, track_point={})
        for snid, fr in split_frags.items():
            if stage2_of.get(snid) != nid0:
                continue
            merged.triangle_map.update(fr.triangle_map)
            merged.edge_map.update(fr.edge_map)
            merged.vertex_map.update(fr.vertex_map)
            merged.track_point.update(fr.track_point)
        composed = fragments[nid0].compose(merged)
        composed.track_point = dict(merged.track_point)
        out_frags[nid0] = composed
        location = {}
        for final_nid, per_face in placements.items():
            if holders.get(final_nid) == nid0:
                location.update({fid: loc for fid, loc in per_face.items()})
        out_places[nid0] = {}
        for fid in x0.faces:
            img = composed.triangle_map.get(fid)
            if img is not None and img in location:
                out_places[nid0][fid] = location[img] + (img,)
    return PassdownResult(
        structures=structures, ledger=ledger, fragments=out_frags, placements=out_places
    )
