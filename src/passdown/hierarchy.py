"""Hierarchies of tree actions, H-structures, and passdown over a tree.

A hierarchy is stored in quotient form: a rooted tree of nodes, each
carrying a group id and either a quotient graph of groups (its splitting)
or nothing (terminal).  Children correspond one-to-one to the action's
vertices with unchanged groups.  An H-structure additionally attaches a
complex to each terminal node (``None`` stands for a point).

Ellipticity of abstract subgroups is never decided.  ``passdown_full`` is
the one passdown of an H-structure.  It speaks one shape, terminals
``{terminal id: (group, complex)}``: it takes them in (a fixture
structure gives them by ``HStructure.terminals``), derives all it needs
from the tree actions of the cell labels, and hands on per vertex orbit
only the terminals the next level reads, with one triangle map from faces
(input terminal id, face id) to faces ((vertex orbit, terminal id), face
id); an identity step's map only renames terminals.  The depth-bound
replay (``passdown_hierarchy``, ``jsj_depth_bound``) replays
fixture-supplied restriction tables instead; it is the paper's depth
bound, and no command runs it.
"""

from collections import defaultdict
from dataclasses import dataclass, field

from . import graphs
from .complexes import covolume, cutpoints, fresh_separator, h1_z2, is_connected, reduced_cutpoint_tree, subcomplex
from .errors import ConsistencyError, EngineError, FixtureError, HypothesisError
from .groups import GroupTable
from .provenance import TauFragment
from .resolution import CONTRACTING, ActionTable, Resolution, build_resolution, contract
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


def _quotient_tree_gog(name, tree: TreeHat, groups) -> GraphOfGroups:
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
    return make_gog(name, verts, edges, groups=groups)


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

        def build(gid, knode: HNode, parent_id):
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
                cid, _ = build(sub_gid, child_knode, nid)
                node.children[sv] = cid
            return nid, first_step_elliptic

        root_id, root_elliptic = build(gv, k.nodes[k.root], None)
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

    def terminals(self):
        """{terminal node id: (group, complex)} for the complex-bearing
        terminals, in id order: what ``passdown_full`` takes."""
        nodes = self.hierarchy.nodes
        return {nid: (nodes[nid].group, x) for nid, x in sorted(self.terminal_complexes.items()) if x is not None}


def _check_terminal_complex(nid, x, groups: GroupTable):
    """A terminal complex is connected with h1 = 0, and every cell label is
    slender or elliptic on every level.  Each distinct label is checked
    once, at its first cell, so the first failing cell is the one a check
    of every cell in order would name."""
    if not is_connected(x):
        raise FixtureError(f"terminal complex at {nid!r} is disconnected")
    if h1_z2(x) != 0:
        raise FixtureError(f"terminal complex at {nid!r} has h1 != 0")
    for label, cell in x.first_cell_by_label.items():
        ref = groups[label]
        if not (ref.is_slender or ref.is_h_elliptic):
            raise ConsistencyError(
                f"cell {cell!r} of the complex at {nid!r} is neither slender nor "
                "elliptic on every level"
            )


def validate_hstructure(k: HStructure, groups: GroupTable):
    validate_hierarchy(k.hierarchy, groups)
    validate_slender_edges(k.hierarchy, groups)
    terminal_ids = {n.id for n in k.hierarchy.terminals()}
    for nid, x in k.terminal_complexes.items():
        if nid not in terminal_ids:
            raise FixtureError(f"complex attached to non-terminal node {nid!r}")
        if x is not None:
            _check_terminal_complex(nid, x, groups)


@dataclass
class PassdownResult:
    terminals: dict  # tree vertex orbit id -> {terminal id: (group, complex)}
    ledger: dict  # stage -> total covolume
    tau: TauFragment  # (input terminal id, face id) -> ((vertex orbit, terminal id), face id), or renamings


def _distribute(gog: GraphOfGroups, claims, pieces, groups: GroupTable):
    """Every vertex orbit of the quotient receives the terminals it claims.

    ``claims`` maps piece id -> vertex orbit and ``pieces`` piece id ->
    (group, complex).  A single claim whose group equals the vertex group
    becomes terminal ``{v}.root``; otherwise the claims become
    ``{v}.t<i>``, in piece id order.  Returns (terminals by vertex orbit,
    {piece id: (vertex orbit, terminal id)}).
    """
    by_orbit = defaultdict(list)
    for nid in sorted(claims):
        by_orbit[claims[nid]].append(nid)
    out, home = {}, {}
    for v in sorted(gog.vertices):
        claimed = by_orbit[v]
        if len(claimed) == 1 and groups.equal(pieces[claimed[0]][0], gog.vertices[v]):
            names = {claimed[0]: f"{v}.root"}
        else:
            names = {nid: f"{v}.t{i}" for i, nid in enumerate(claimed)}
        out[v] = {tid: pieces[nid] for nid, tid in names.items()}
        home.update((nid, (v, tid)) for nid, tid in names.items())
    return out, home


@dataclass
class TreeLevel:
    """One splitting step of the ambient hierarchy: the tree acted on,
    with its quotient view and the action annotations of the group
    labels.

    A run keeps one per tree, and with it what passdowns over the tree
    find out about unchanged complexes: the complexes that passed the
    terminal check, by key (see ``_signature``), and per terminal
    signature, the ledger and renaming of an identity step."""

    name: str
    tree: TreeHat
    actions: ActionTable
    gog: GraphOfGroups
    checked: dict = field(default_factory=dict, repr=False)  # complex key -> its stab dict
    identity_steps: dict = field(default_factory=dict, repr=False)  # terminal signature -> (ledger, renaming)


def make_tree_level(name, tree, actions) -> TreeLevel:
    gog = _quotient_tree_gog(name, tree, actions.groups)
    return TreeLevel(name=name, tree=tree, actions=actions, gog=gog)


def _restrict_resolution(res, sub_x):
    """``res`` on a subcomplex of its source, with the parent's edge paths.
    A piece of a splitting resolution is splitting."""
    return Resolution(
        source=sub_x,
        target=res.target,
        vertex_image={v: res.vertex_image[v] for v in sub_x.vertices},
        edge_path={eid: res.edge_path[eid] for eid in sub_x.edges},
        kind=res.kind,
        actions=res.actions,
    )


def _cutpoint_pieces(nid, x, groups, taken):
    """Split the complex of terminal ``nid`` through its reduced cutpoint
    tree: {f"{nid}.b{i}": (node group, piece)}, numbering every node
    orbit, with an entry for each piece (cut vertices carry no complex).
    The ``b`` is repeated until no piece id is in ``taken``, the terminal
    and piece ids in use.  None when x does not split."""
    if not cutpoints(x):
        return None
    bpx = reduced_cutpoint_tree(x, groups)
    if len(bpx.comp_nodes) + len(bpx.cut_nodes) <= 1:
        return None
    numbered = [
        (i, rep)
        for i, rep in enumerate(sorted({bpx.node_orbit[n] for n in bpx.comp_nodes + bpx.cut_nodes}))
        if rep in bpx.comp_cells
    ]
    sep = fresh_separator(taken, lambda sep: (f"{nid}.{sep}{i}" for i, _rep in numbered), "b")
    out = {}
    for i, rep in numbered:
        sub = subcomplex(x, bpx.comp_cells[rep])
        if not is_connected(sub) or h1_z2(sub) != 0:
            raise EngineError("cutpoint-free piece is not connected with h1 = 0")
        out[f"{nid}.{sep}{i}"] = (bpx.node_stab[rep], sub)
    return out


def _covolume_sum(pieces):
    return sum(covolume(x) for _gid, x in pieces.values())


def _signature(terminals, tl: TreeLevel):
    """The terminal signature: (terminal id, group, complex key) per
    terminal, in terminal order, where a complex's key is its cell data,
    its ``stab`` dict and the group-table version, all that the terminal
    check reads.  A complex whose key is new over ``tl`` takes the check."""
    groups = tl.actions.groups
    out = []
    for nid, (gid, x) in terminals.items():
        key = (x.cell_data, id(x.stab), groups.version)
        if key not in tl.checked:
            _check_terminal_complex(nid, x, groups)
            tl.checked[key] = x.stab  # held, so that its id stays its own
        out.append((nid, gid, key))
    return tuple(out)


def _is_identity_step(terminals, tl: TreeLevel):
    """Is the level over ``tl`` the identity on ``terminals``?

    It is when the tree is one vertex, every complex is reduced and
    cutpoint-free and every cell label acts elliptically: every vertex
    goes to the one tree vertex, none to an ideal point, so there is no
    track, nothing contracts, splits or collapses and nothing is minted.
    Labels are classified in sorted terminal order and, per complex, in
    the order of their first cells, as ``build_resolution`` meets them,
    so a label it would refuse raises the same error here first."""
    if len(tl.tree.vertices) != 1:
        return False
    if not all(x.is_reduced and not cutpoints(x) for _gid, x in terminals.values()):
        return False
    return all(
        tl.actions.classification(label) == ELLIPTIC
        for _nid, (_gid, x) in sorted(terminals.items())
        for label in x.first_cell_by_label
    )


def passdown_full(terminals, tl: TreeLevel) -> PassdownResult:
    """The full three-stage passdown of terminals over a tree.

    ``terminals`` maps terminal id -> (group, complex), as
    ``HStructure.terminals`` gives it.  Stage one replaces complexes with
    contracting resolutions by their boundary collapse; stage two splits
    complexes at cutpoints through the reduced cutpoint tree; stage three
    collapses essential tracks and splits the result at cutpoints again,
    leaving terminal groups that are slender or elliptic.  Each output
    vertex orbit then receives the terminals it claims.  Covolume never
    increases, stage by stage.  The input is left as it was; an identity
    step hands its complexes on as they are.
    """
    groups = tl.actions.groups
    # an identity step depends on the signature, but for the stab_plus
    # part of is_reduced, so it is kept per signature
    signature = _signature(terminals, tl)
    step = tl.identity_steps.get(signature)
    if step is None and _is_identity_step(terminals, tl):
        (orbit,) = tl.gog.vertices
        _out, home = _distribute(tl.gog, dict.fromkeys(terminals, orbit), terminals, groups)
        stages = ("input", "contracted", "cutpoint-split", "collapsed", "output")
        step = tl.identity_steps[signature] = dict.fromkeys(stages, _covolume_sum(terminals)), TauFragment(renamed=home)
    if step is not None and all(x.is_reduced for _gid, x in terminals.values()):
        # the one vertex orbit receives every terminal as it is, every
        # stage keeps the covolume and tau renames each terminal
        ledger, tau = step
        received = {tid: terminals[nid] for nid, (_orbit, tid) in tau.renamed.items()}
        return PassdownResult(terminals=dict.fromkeys(tl.gog.vertices, received), ledger=dict(ledger), tau=tau)
    pieces = dict(terminals)  # terminal id -> (group, complex), stage by stage
    origin = {nid: nid for nid in terminals}  # terminal id -> input terminal it descends from
    ledger = {"input": _covolume_sum(pieces)}

    # stage one: repair contracting resolutions
    resolutions = {}
    fragments = {}  # contracted terminal id -> its contraction fragment
    for nid, (gid, x) in sorted(pieces.items()):
        res = build_resolution(x, tl.tree, tl.actions)
        if res.kind == CONTRACTING:
            xc, res, fragments[nid] = contract(res, groups)
            pieces[nid] = (gid, xc)
        resolutions[nid] = res
    ledger["contracted"] = _covolume_sum(pieces)
    if ledger["contracted"] > ledger["input"]:
        raise EngineError("covolume grew during contraction")

    # stage two: split at cutpoints (the reduced cutpoint tree keeps the
    # non-slender ones inside merged pieces)
    for nid, (_gid, x) in sorted(pieces.items()):
        split = _cutpoint_pieces(nid, x, groups, pieces.keys() | terminals.keys())
        if split is None:
            continue
        res = resolutions.pop(nid)
        del pieces[nid], origin[nid]
        pieces.update(split)
        for cid, (_gid, sub) in split.items():
            origin[cid] = nid
            resolutions[cid] = _restrict_resolution(res, sub)
    ledger["cutpoint-split"] = _covolume_sum(pieces)
    if ledger["cutpoint-split"] > ledger["contracted"]:
        raise EngineError("covolume grew during the cutpoint split")

    # stage three: collapse essential tracks, then split at cutpoints again;
    # the collapse fragments merge per input terminal (face ids stay disjoint)
    claims = {}
    merged = defaultdict(TauFragment)
    for nid, (gid, x) in sorted(pieces.items()):
        res = resolutions[nid]
        for cut in cutpoints(x):
            if tl.actions.classification(x.stab[cut]) != ELLIPTIC:
                raise HypothesisError(
                    f"cutpoint {cut!r} of the complex at {nid!r} does not act elliptically",
                    lemma="splitting-resolution",
                )
        ts = essential_tracks(tracks_from_resolution(res))
        xt, frag = split_collapse(ts, groups)
        nid0 = origin[nid]
        merged[nid0].update(frag)
        tree_edge_of = {frag.track_point[tr.id]: tr.tree_edge for tr in ts.tracks}

        def claim_for(cx):
            # the piece maps into one component of the tree minus the
            # midpoints of its collapsed edges; claim that component at
            # the least image of the piece's own vertices
            cut = set()
            anchors = set()
            for v in cx.vertices:
                if v in tree_edge_of:
                    cut.add(tree_edge_of[v])
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
                return tl.tree.orbit[min(holding[0] & anchors)]
            # piece made of track points only: take the smallest vertex
            # adjacent to its collapsed edges
            candidates = {w for eid in cut for w in tl.tree.edges[eid]}
            if not candidates:
                raise EngineError("empty image region for a collapsed piece")
            return tl.tree.orbit[min(candidates)]

        split = _cutpoint_pieces(nid, xt, groups, pieces.keys() | terminals.keys())
        if split is None:
            pieces[nid] = (gid, xt)
            claims[nid] = claim_for(xt)
        else:
            del pieces[nid], origin[nid]
            pieces.update(split)
            for cid, (_gid, sub) in split.items():
                origin[cid] = nid0
                claims[cid] = claim_for(sub)
    ledger["collapsed"] = _covolume_sum(pieces)
    if ledger["collapsed"] > ledger["cutpoint-split"]:
        raise EngineError("covolume grew during the track collapse")

    out, home = _distribute(tl.gog, claims, pieces, groups)
    total = sum(_covolume_sum(received) for received in out.values())
    ledger["output"] = total
    if total > ledger["collapsed"]:
        raise EngineError("distribution increased covolume")
    if total < ledger["collapsed"]:
        raise EngineError("a collapsed terminal went unclaimed")

    # the triangle map of each input terminal: its contraction fragment,
    # if any, then the merged collapse fragments, each image face located
    # in the terminal that received it
    located = defaultdict(dict)  # input terminal -> {face id: ((vertex orbit, terminal id), face id)}
    for nid, (_gid, x) in pieces.items():
        located[origin[nid]].update((fid, (home[nid], fid)) for fid in x.faces)
    tau = TauFragment()
    for nid0 in terminals:
        frag = fragments[nid0].compose(merged[nid0]) if nid0 in fragments else merged[nid0]
        tau.triangle_map.update(((nid0, fid), located[nid0].get(img)) for fid, img in frag.triangle_map.items())
        tau.edge_map.update((((nid0, fid), e), fe) for (fid, e), fe in frag.edge_map.items())
    return PassdownResult(terminals=out, ledger=ledger, tau=tau)
