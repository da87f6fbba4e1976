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
from .complexes import Complex2, covolume, cutpoints, fresh_separator, h1_z2, is_connected, reduced_cutpoint_tree
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
        self.entries = {}

    def declare(self, gid, gog_name, restriction: Restriction):
        self.entries[(gid, gog_name)] = restriction

    def get(self, gid, gog_name):
        return self.entries.get((gid, gog_name))


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


class StalledTerminals(dict):
    """The terminals an identity step that renames each terminal to itself
    hands on, with ``step``: (tree level, group table version, the step as
    ``TreeLevel.identity_steps`` keeps it).  Given them again over that
    tree level and version, ``passdown_full`` takes the step without
    reading them."""

    __slots__ = ("step",)


@dataclass
class PassdownResult:
    terminals: dict  # tree vertex orbit id -> {terminal id: (group, complex)}
    ledger: dict  # stage -> total covolume
    tau: TauFragment  # (input terminal id, face id) -> ((vertex orbit, terminal id), face id), or renamings


def _distribute(gog: GraphOfGroups, pieces, groups: GroupTable):
    """Every vertex orbit of the quotient receives the terminals it claims.

    ``pieces`` maps piece id -> (group, complex, claimed vertex orbit).  A
    single claim whose group equals the vertex group becomes terminal
    ``{v}.root``; otherwise the claims become ``{v}.t<i>``, in piece id
    order.  Returns (terminals by vertex orbit, {piece id: (vertex orbit,
    terminal id)}).  Each piece goes to exactly one vertex: every claim
    is a tree-vertex orbit, and ``_quotient_tree_gog`` has one vertex per
    tree-vertex orbit.  So the terminals hold the pieces' covolume.
    """
    by_orbit = defaultdict(list)
    for nid in sorted(pieces):
        by_orbit[pieces[nid][2]].append(nid)
    out, home = {}, {}
    for v in sorted(gog.vertices):
        claimed = by_orbit[v]
        if len(claimed) == 1 and groups.equal(pieces[claimed[0]][0], gog.vertices[v]):
            names = {claimed[0]: f"{v}.root"}
        else:
            names = {nid: f"{v}.t{i}" for i, nid in enumerate(claimed)}
        out[v] = {tid: pieces[nid][:2] for nid, tid in names.items()}
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
    signature, the vertex orbit, ledger and renaming of an identity step,
    and whether that renaming keeps each terminal id in order."""

    name: str
    tree: TreeHat
    actions: ActionTable
    gog: GraphOfGroups
    checked: dict = field(default_factory=dict, repr=False)  # complex key -> its stab dict
    identity_steps: dict = field(default_factory=dict, repr=False)  # terminal signature -> (orbit, ledger, renaming, stalls)


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
    and piece ids in use.  None when x does not split.

    A piece is the full subcomplex of x on its cells, with their labels,
    in the order of x's cell dicts.  All pieces are built in one pass over
    the edges, faces and blocks of x, each going to the piece holding it.
    A piece is handed the blocks of x it is the union of, which are its
    own; the canonical order of a canonical x, which a subset of its cells
    in its order keeps; and the label check of x when it holds, as it does
    on any subset of the cells.

    Each piece is connected with h1 = 0, so it is handed its one component
    and its boundary rank |E| - |V| + 1.  A piece is a union of blocks
    joined at shared vertices, so it is connected.  ``reduced_cutpoint_tree``
    checks that x is connected with h1 = 0 and that its pieces meet in
    single cut vertices along a tree; so x is the wedge of its pieces along
    that tree, and by Mayer-Vietoris H^1(x) is the direct sum of the H^1 of
    its pieces, each of which is then 0."""
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
    piece_of = {}  # edge or face -> the number of its piece
    for k, (_i, rep) in enumerate(numbered):
        piece_of.update(dict.fromkeys(bpx.comp_cells[rep] - x.vertices, k))
    edges, faces, blocks = ([{} for _ in numbered] for _ in range(3))
    for into, cells in ((edges, x.edges), (faces, x.faces)):
        for cell, value in cells.items():
            if cell in piece_of:
                into[piece_of[cell]][cell] = value
    for block in x.skeleton_blocks:
        k = piece_of.get(next(iter(block[1])))  # x has a cutpoint, so each block has an edge
        if k is not None:
            blocks[k][block] = None
    canonical, out = x.cell_data.__dict__.get("is_canonical"), {}
    for k, (i, rep) in enumerate(numbered):
        verts = x.vertices & bpx.comp_cells[rep]
        cells = [*sorted(verts), *edges[k], *faces[k]]
        sub = Complex2(
            verts, edges[k], faces[k], {c: x.stab[c] for c in cells}, {c: x.orbit[c] for c in cells},
            x.boundary_marked & verts, {eid: x.stab_plus[eid] for eid in edges[k] if eid in x.stab_plus},
        )
        if x.__dict__.get("cell_labels_reduced"):
            sub.__dict__["cell_labels_reduced"] = True
        handed = sub.cell_data.__dict__
        handed.update(skeleton_blocks=tuple(blocks[k]), vertex_components=(verts,), boundary_rank=len(edges[k]) - len(verts) + 1)
        if canonical:
            handed["is_canonical"] = True
        out[f"{nid}.{sep}{i}"] = (bpx.node_stab[rep], sub)
    return out


def _covolume_sum(pieces):
    return sum(covolume(x) for _gid, x in pieces.values())


def _signature(terminals, tl: TreeLevel):
    """The terminal signature: (terminal id, group, complex key, whether
    the complex is reduced) per terminal, in terminal order, where a
    complex's key is its cell data, its ``stab`` dict and the group-table
    version, all that the terminal check reads.  A complex whose key is
    new over ``tl`` takes the check.  Only over a one-vertex tree, where
    a step can be the identity, is reducedness read."""
    groups = tl.actions.groups
    point = len(tl.tree.vertices) == 1
    out = []
    for nid, (gid, x) in terminals.items():
        key = (x.cell_data, id(x.stab), groups.version)
        if key not in tl.checked:
            _check_terminal_complex(nid, x, groups)
            tl.checked[key] = x.stab  # held, so that its id stays its own
        out.append((nid, gid, key, point and x.is_reduced))
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


def _contract(nid, piece, tl, taken):
    """Stage one: a complex whose resolution contracts becomes its boundary
    collapse X_C, with the descended resolution and the contraction's
    fragment."""
    gid, x, _ = piece
    res = build_resolution(x, tl.tree, tl.actions)
    if res.kind != CONTRACTING:
        return {nid: (gid, x, res)}, None
    xc, res, frag = contract(res, tl.actions.groups)
    return {nid: (gid, xc, res)}, frag


def _split(nid, piece, tl, taken):
    """Stage two: split at cutpoints (the reduced cutpoint tree keeps the
    non-slender ones inside merged pieces); each piece keeps its face ids
    and takes the resolution restricted to it."""
    split = _cutpoint_pieces(nid, piece[1], tl.actions.groups, taken)
    if split is None:
        return {nid: piece}, None
    return {cid: (gid, sub, _restrict_resolution(piece[2], sub)) for cid, (gid, sub) in split.items()}, None


def _collapse(nid, piece, tl, taken):
    """Stage three: collapse the essential tracks to X_T, with the
    collapse's fragment, and split X_T at cutpoints again; each piece
    takes the vertex orbit it claims."""
    gid, x, res = piece
    tree = tl.tree
    for cut in cutpoints(x):
        if tl.actions.classification(x.stab[cut]) != ELLIPTIC:
            raise HypothesisError(
                f"cutpoint {cut!r} of the complex at {nid!r} does not act elliptically",
                lemma="splitting-resolution",
            )
    ts = essential_tracks(tracks_from_resolution(res))
    xt, frag = split_collapse(ts, tl.actions.groups)
    tree_edge_of = {frag.track_point[tr.id]: tr.tree_edge for tr in ts.tracks}

    def claim_for(cx):
        # the piece maps into one component of the tree minus the
        # midpoints of its collapsed edges: claim it at the least image of
        # the piece's own vertices.  An X_T vertex is a track point or a
        # kept vertex of x (its image a tree vertex), so a piece with no
        # own vertex has collapsed edges: claim their least end
        cut = {tree_edge_of[v] for v in cx.vertices if v in tree_edge_of}
        anchors = {res.vertex_image[v] for v in cx.vertices if v not in tree_edge_of}
        comps = graphs.components(tree.vertices, (ends for eid, ends in tree.edges.items() if eid not in cut))
        holding = [c for c in comps if c & anchors]
        if len(holding) > 1:
            raise EngineError("a collapsed piece maps across a collapsed midpoint")
        if holding:
            return tree.orbit[min(holding[0] & anchors)]
        return tree.orbit[min(w for eid in cut for w in tree.edges[eid])]

    split = _cutpoint_pieces(nid, xt, tl.actions.groups, taken) or {nid: (gid, xt)}
    return {cid: (cgid, sub, claim_for(sub)) for cid, (cgid, sub) in split.items()}, frag


def passdown_full(terminals, tl: TreeLevel) -> PassdownResult:
    """The full three-stage passdown of terminals over a tree.

    ``terminals`` maps terminal id -> (group, complex), as
    ``HStructure.terminals`` gives it.  The stages (``_contract``,
    ``_split``, ``_collapse``) run in one loop, each over the pieces in id
    order.  A stage takes a piece (id, group, complex, and the resolution
    or, from the collapse, the claimed vertex orbit) to {piece id: piece}
    and, when it moves faces, a fragment.  The loop records the stage's
    covolume in the ledger, checks that the pieces a piece became hold at
    most its covolume, notes the input terminal each piece descends from
    and composes each input terminal's maps with the stage's fragments.
    Per piece implies the sum, so covolume never increases, stage by
    stage; the contraction and the collapse need no check of their own
    (the cutpoint split puts each triangle orbit of X_T in one piece).
    Each vertex orbit then receives the terminals it claims.  The input is
    left as it was.

    An identity step hands its complexes on as they are, and its ledger
    and tau (a renaming) are kept per terminal signature.  A step that
    renames each terminal to itself, in order, hands on a
    ``StalledTerminals`` that holds the step: given those very terminals
    again over ``tl`` and the same group table version, the signature and
    so the step are the same, and the step hands the same terminals on
    once more, with no signature read.
    """
    groups = tl.actions.groups
    if isinstance(terminals, StalledTerminals) and terminals.step[0] is tl and terminals.step[1] == groups.version:
        # these very terminals, handed on by the step they take again
        orbit, ledger, tau, _stalls = terminals.step[2]
        return PassdownResult(terminals={orbit: terminals}, ledger=ledger, tau=tau)
    # an identity step depends on the signature only, so it is kept per signature
    signature = _signature(terminals, tl)
    step = tl.identity_steps.get(signature)
    if step is None and _is_identity_step(terminals, tl):
        (orbit,) = tl.gog.vertices
        _out, home = _distribute(tl.gog, {nid: (gid, x, orbit) for nid, (gid, x) in terminals.items()}, groups)
        stages = ("input", "contracted", "cutpoint-split", "collapsed", "output")
        ledger = dict.fromkeys(stages, _covolume_sum(terminals))
        stalls = list(home.items()) == [(nid, (orbit, nid)) for nid in terminals]
        step = tl.identity_steps[signature] = orbit, ledger, TauFragment(renamed=home), stalls
    if step is not None:
        # the one vertex orbit receives every terminal as it is, every
        # stage keeps the covolume and tau renames each terminal; the
        # step's ledger and tau are handed on, not copied
        orbit, ledger, tau, stalls = step
        if stalls:  # tau keeps every terminal id, in order
            received = StalledTerminals(terminals)
            received.step = tl, groups.version, step
        else:
            received = {tid: terminals[nid] for nid, (_orbit, tid) in tau.renamed.items()}
        return PassdownResult(terminals={orbit: received}, ledger=ledger, tau=tau)

    pieces = {nid: (gid, x, None) for nid, (gid, x) in terminals.items()}
    origin = {nid: nid for nid in terminals}  # piece id -> input terminal it descends from
    taken = set(terminals)  # terminal ids and the ids of pieces made or pending
    ledger = {"input": _covolume_sum(terminals)}
    maps = {}  # input terminal id -> (triangle map, side map) from its faces
    for stage, run in (("contracted", _contract), ("cutpoint-split", _split), ("collapsed", _collapse)):
        staged, reached, ledger[stage] = {}, {}, 0
        fragments = defaultdict(TauFragment)  # input terminal -> this stage's fragments, merged
        for nid in sorted(pieces):
            made, frag = run(nid, pieces[nid], tl, taken)
            grown = sum(covolume(y) for _gid, y, _ in made.values())
            if grown > covolume(pieces[nid][1]):
                raise EngineError(f"covolume grew in stage {stage!r} at piece {nid!r}")
            ledger[stage] += grown
            if nid not in terminals:
                taken.discard(nid)
            taken.update(made)
            staged.update(made)
            reached.update(dict.fromkeys(made, origin[nid]))
            if frag is not None:
                fragments[origin[nid]].update(frag)
        pieces, origin = staged, reached
        for nid0, frag in fragments.items():
            if nid0 not in maps:
                maps[nid0] = frag.triangle_map, frag.edge_map
                continue
            tri, sides = maps[nid0]
            composed = {t: None if f is None else frag.triangle_map.get(f) for t, f in tri.items()}
            maps[nid0] = composed, {
                (t, e): frag.edge_map[(tri[t], fe)]
                for (t, e), fe in sides.items()
                if composed[t] is not None and (tri[t], fe) in frag.edge_map
            }

    out, home = _distribute(tl.gog, pieces, groups)
    ledger["output"] = ledger["collapsed"]
    located = defaultdict(dict)  # input terminal -> {face id: ((vertex orbit, terminal id), face id)}
    for nid, (_gid, x, _claim) in pieces.items():
        located[origin[nid]].update((fid, (home[nid], fid)) for fid in x.faces)
    tau = TauFragment()
    for nid0 in terminals:
        tri, sides = maps[nid0]
        tau.triangle_map.update(((nid0, fid), located[nid0].get(img)) for fid, img in tri.items())
        tau.edge_map.update((((nid0, fid), e), fe) for (fid, e), fe in sides.items())
    return PassdownResult(terminals=out, ledger=ledger, tau=tau)
