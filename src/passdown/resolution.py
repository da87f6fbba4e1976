"""Resolutions of labeled 2-complexes to trees with truncated boundary.

A resolution maps every vertex of the complex to a vertex of T or an
ideal point, and every edge to the reduced path between the images.  It
is *splitting* (type I) when no edge maps entirely into the boundary and
*contracting* (type II) otherwise; contracting resolutions are repaired
by collapsing the boundary preimage (``contract``).

Ellipticity and linearity of cell stabilizers are not decided: each tree
comes with an action table mapping group ids to generator descriptors
(or a declared parabolic end), and classifications are derived from it.
Group ids without an entry inherit the entry of a declared supergroup.
"""

from dataclasses import dataclass

from . import graphs
from .complexes import Complex2, fresh_separator, quotient_labels
from .errors import ConsistencyError, EngineError, FixtureError, HypothesisError
from .groups import TRIVIAL, GroupTable
from .provenance import TauFragment, finish_collapse
from .trees import (
    DIHEDRAL,
    ELLIPTIC,
    HYPERBOLIC,
    LINEAR,
    PARABOLIC,
    TreeHat,
    classify_subgroup_action,
    reduced_path,
)

SPLITTING = "splitting"  # type I
CONTRACTING = "contracting"  # type II


@dataclass(frozen=True)
class ResolvedAction:
    kind: str
    fixed: frozenset = frozenset()  # elliptic: common fixed subtree
    axis: tuple = ()  # linear/dihedral: the invariant line's ideal pair
    end: str = None  # parabolic: the fixed ideal point


class ActionTable:
    """Per-tree map: group id -> how that group acts on the tree."""

    def __init__(self, tree: TreeHat, groups: GroupTable):
        self.tree = tree
        self.groups = groups
        self._descriptors = {}
        self._parabolic = {}
        self._resolved = {}  # gid -> ResolvedAction, for one version of the group table
        self._resolved_at = None

    def declare_descriptors(self, gid, descriptors):
        self.groups[gid]
        self._descriptors.setdefault(gid, []).extend(descriptors)
        self._resolved.clear()

    def declare_parabolic(self, gid, end):
        if not self.tree.is_ideal(end):
            raise FixtureError(f"parabolic end {end!r} is not an ideal point")
        self._parabolic[gid] = end
        self._resolved.clear()

    def over(self, groups: GroupTable) -> "ActionTable":
        """The same annotations read against another group table."""
        out = ActionTable(self.tree, groups)
        out._descriptors = {gid: list(ds) for gid, ds in self._descriptors.items()}
        out._parabolic = dict(self._parabolic)
        return out

    def has_entry(self, gid):
        return gid in self._descriptors or gid in self._parabolic or gid == TRIVIAL

    def _owner(self, gid):
        """Nearest declared ancestor carrying an entry (breadth-first,
        smallest id on ties).  On a single-vertex tree every action is
        trivial, so missing entries default to elliptic there."""
        if self.has_entry(gid):
            return gid
        frontier = [gid]
        seen = {gid}
        while frontier:
            parents = sorted(
                {p for g in frontier for p in self.groups._parents(g)} - seen
            )
            hits = [p for p in parents if self.has_entry(p)]
            if hits:
                return hits[0]
            seen.update(parents)
            frontier = parents
        if len(self.tree.vertices) == 1:
            return None
        raise ConsistencyError(f"no action annotation for group {gid!r} on this tree")

    def resolved(self, gid) -> ResolvedAction:
        """How gid acts, kept until the group table or an annotation changes."""
        if self._resolved_at != self.groups.version:
            self._resolved.clear()
            self._resolved_at = self.groups.version
        hit = self._resolved.get(gid)
        if hit is None:
            hit = self._resolved[gid] = self._resolve(gid)
        return hit

    def _resolve(self, gid) -> ResolvedAction:
        owner = self._owner(gid)
        if owner is None or (
            owner == TRIVIAL and owner not in self._descriptors and owner not in self._parabolic
        ):
            return ResolvedAction(kind=ELLIPTIC, fixed=frozenset(self.tree.vertices))
        if owner in self._parabolic:
            return ResolvedAction(kind=PARABOLIC, end=self._parabolic[owner])
        descriptors = self._descriptors[owner]
        kind = classify_subgroup_action(descriptors, self.tree, self.groups if gid == owner else None)
        if kind == ELLIPTIC:
            common = set(descriptors[0].fixed)
            for d in descriptors[1:]:
                common &= set(d.fixed)
            return ResolvedAction(kind=ELLIPTIC, fixed=frozenset(common))
        hyps = [d for d in descriptors if d.kind == HYPERBOLIC]
        if kind in (LINEAR, DIHEDRAL):
            return ResolvedAction(kind=kind, axis=tuple(sorted(hyps[0].ends)))
        if kind == PARABOLIC:
            (end,) = set.intersection(*[set(d.ends) for d in hyps])
            return ResolvedAction(kind=PARABOLIC, end=end)
        return ResolvedAction(kind=HYPERBOLIC)

    def classification(self, gid) -> str:
        return self.resolved(gid).kind


@dataclass(frozen=True)
class WComponent:
    cells: frozenset  # vertices and edges of the 1-skeleton
    axis: tuple  # the shared invariant line (ideal pair)
    end: str  # the equivariantly chosen ideal endpoint


def w_components(x: Complex2, actions: ActionTable):
    """Maximal connected subcomplexes of the 1-skeleton all of whose cells
    have linearly-acting stabilizers, each with its fixed line and chosen
    ideal endpoint (smallest id; same line, same choice).

    No D-infinity action is ever allowed, so a dihedral cell is
    inconsistent input.
    """
    linear_cells = set()
    for cell in sorted(x.vertices) + sorted(x.edges):
        kind = actions.classification(x.stab[cell])
        if kind == DIHEDRAL:
            raise ConsistencyError(
                f"cell {cell!r} classified dihedral, but no D-infinity action is ever allowed"
            )
        if kind == LINEAR:
            linear_cells.add(cell)
    for eid in x.edges:
        if eid in linear_cells:
            for v in x.edges[eid]:
                if v not in linear_cells:
                    raise ConsistencyError(
                        f"edge {eid!r} is classified linear but endpoint {v!r} is not; "
                        "a subgroup of an elliptic group cannot act linearly"
                    )

    uf = graphs.UnionFind(linear_cells)
    for eid in x.edges:
        if eid in linear_cells:
            u, v = x.edges[eid]
            uf.union(eid, u)
            uf.union(eid, v)

    out = []
    for cells in uf.classes().values():
        axes = {tuple(sorted(actions.resolved(x.stab[c]).axis)) for c in cells}
        if len(axes) != 1:
            raise ConsistencyError(
                "cells of one linear subcomplex fix different lines: " + str(sorted(axes))
            )
        axis = axes.pop()
        out.append(WComponent(cells=frozenset(cells), axis=axis, end=min(axis)))
    return out


@dataclass(frozen=True)
class Resolution:
    source: Complex2
    target: TreeHat
    vertex_image: dict  # vertex -> tree vertex or ideal point id
    edge_path: dict  # edge id -> TreePath
    kind: str
    actions: ActionTable = None

    def image_is_ideal(self, v):
        return self.target.is_ideal(self.vertex_image[v])

    def ideal_vertices(self):
        return {v for v in self.source.vertices if self.image_is_ideal(v)}

    def boundary_edges(self):
        """Edges mapped entirely into the boundary (constant at an ideal point)."""
        return {e for e, p in self.edge_path.items() if p.constant_ideal is not None}

    def crossings(self, eid):
        """Tree edges crossed by this edge's path, ordered from the edge's
        first stored endpoint."""
        return self.edge_path[eid].edge_ids(self.target)


def build_resolution(x: Complex2, t: TreeHat, actions: ActionTable) -> Resolution:
    """Dunwoody-Delzant-Potyagailo resolution of ``x`` over ``t``.

    Every cell stabilizer must fix a point of the tree-with-boundary:
    elliptic cells go to their least fixed vertex, cells of
    a linear subcomplex go to that subcomplex's chosen ideal endpoint,
    declared-parabolic cells go to their fixed end.  Edge images are the
    reduced paths between endpoint images; an edge whose endpoints share
    one ideal point is constant there and makes the resolution contracting.
    """
    for cell in x.cells():
        kind = actions.classification(x.stab[cell])
        if kind == HYPERBOLIC:
            raise HypothesisError(
                f"cell {cell!r} has a hyperbolically-acting stabilizer; no resolution exists",
                lemma="resolution",
            )

    ws = w_components(x, actions)
    in_w = {}
    for w in ws:
        for cell in w.cells:
            in_w[cell] = w

    vertex_image = {}
    for v in sorted(x.vertices):
        if v in in_w:
            vertex_image[v] = in_w[v].end
            continue
        act = actions.resolved(x.stab[v])
        if act.kind == ELLIPTIC:
            if not act.fixed:
                raise ConsistencyError(f"vertex {v!r} has an empty fixed subtree")
            vertex_image[v] = min(act.fixed)
        else:  # parabolic: every linear vertex lies in a W
            vertex_image[v] = act.end

    res = resolution_from_images(x, t, vertex_image, actions=actions)
    for eid in sorted(x.edges):
        u, v = x.edges[eid]
        u_ideal, v_ideal = t.is_ideal(vertex_image[u]), t.is_ideal(vertex_image[v])
        if u_ideal != v_ideal and x.edge_stab_plus(eid) != x.stab[eid]:
            raise ConsistencyError(
                f"edge {eid!r} has one ideal endpoint image, so its two orientations "
                "are in different orbits and stab must equal stab+"
            )
        if u_ideal and v_ideal and res.edge_path[eid].constant_ideal is None:
            act = actions.resolved(x.stab[eid])
            if act.kind != ELLIPTIC or not act.fixed:
                raise ConsistencyError(
                    f"edge {eid!r} runs between two ends but its stabilizer does not "
                    "fix a tree vertex"
                )
    return res


def resolution_from_images(x: Complex2, t: TreeHat, vertex_image, actions=None) -> Resolution:
    """Resolution determined by explicit vertex images (fixture-style
    construction); edge paths are the reduced paths between them."""
    for v in x.vertices:
        if v not in vertex_image:
            raise FixtureError(f"vertex {v!r} has no image")
        img = vertex_image[v]
        if img not in t.vertices and not t.is_ideal(img):
            raise FixtureError(f"image {img!r} of {v!r} is neither a tree vertex nor an ideal point")
    edge_path = {
        eid: reduced_path(t, vertex_image[u], vertex_image[v]) for eid, (u, v) in x.edges.items()
    }
    kind = CONTRACTING if any(p.constant_ideal is not None for p in edge_path.values()) else SPLITTING
    res = Resolution(
        source=x,
        target=t,
        vertex_image=dict(vertex_image),
        edge_path=edge_path,
        kind=kind,
        actions=actions,
    )
    validate_resolution(res)
    return res


def validate_resolution(res: Resolution):
    """Vertices of one orbit map to one target orbit (an ideal point is an
    orbit of its own).  Paths and kind are built by
    ``resolution_from_images`` and not checked again here."""
    x, t = res.source, res.target
    img_orbit = {}
    for v in x.vertices:
        img = res.vertex_image[v]
        key = t.orbit[img] if img in t.orbit else img
        prev = img_orbit.setdefault(x.orbit[v], key)
        if prev != key:
            raise EngineError(f"vertices of orbit {x.orbit[v]!r} map to different target orbits")


# ---------------------------------------------------------------------------
# contracting resolutions


def contract(res: Resolution, groups: GroupTable):
    """Collapse each component of the boundary preimage to a point.

    Returns (X_C, descended resolution, provenance).  New vertices take
    the collapsed component's stabilizer: the original one for a singleton
    component, otherwise a fresh slender ref (the component fixes a line).
    A component of several vertices becomes vertex ``c<sep><v>`` for a
    vertex v of it, where ``sep`` is the shortest run of colons that makes
    every such id new.
    The descended resolution is splitting and covolume does not increase.
    """
    if res.kind != CONTRACTING:
        raise HypothesisError("contract applies to contracting (type II) resolutions only")
    x = res.source
    boundary_edges = res.boundary_edges()
    if not boundary_edges:
        raise EngineError("contracting resolution without boundary edges")
    ideal_verts = res.ideal_vertices()

    uf = graphs.UnionFind()
    find = uf.find
    for eid in boundary_edges:
        uf.union(*x.edges[eid])

    classes = uf.classes(ideal_verts)
    merged = [rep for rep, members in classes.items() if len(members) > 1]
    sep = fresh_separator(x.stab.keys() | x.orbit.values(), lambda sep: (f"c{sep}{rep}" for rep in merged), ":")
    comp_vertex = {}
    image_override = {}
    extra_stab = {}
    ref_by_signature = {}
    for rep, members in classes.items():
        images = {res.vertex_image[v] for v in members}
        if len(images) != 1:
            raise EngineError("one collapsed component maps to several ideal points")
        if len(members) == 1:
            comp_vertex[rep] = rep  # singleton: keep the vertex and its label
        else:
            cid = f"c{sep}{rep}"
            comp_vertex[rep] = cid
            # components in one orbit share one fresh slender label
            sig = frozenset(x.orbit[v] for v in members)
            if sig not in ref_by_signature:
                ref_by_signature[sig] = groups.mint("cmp", slender=True).id
            extra_stab[cid] = ref_by_signature[sig]
        image_override[comp_vertex[rep]] = images.pop()

    vertex_map = {}
    for v in sorted(x.vertices):
        vertex_map[v] = comp_vertex[find(v)] if v in ideal_verts else v

    new_edges, edge_map = {}, {}
    for eid in sorted(x.edges):
        if eid in boundary_edges:
            edge_map[eid] = None
            continue
        u, v = x.edges[eid]
        nu, nv = vertex_map[u], vertex_map[v]
        if nu == nv:
            raise EngineError(f"surviving edge {eid!r} collapsed to a loop")
        new_edges[eid] = (nu, nv)
        edge_map[eid] = eid

    new_faces, face_map = {}, {}
    for fid in sorted(x.faces):
        es = [e for e in x.faces[fid] if edge_map[e] is not None]
        if len(es) <= 1:
            face_map[fid] = None
            continue
        new_faces[fid] = tuple(es)
        face_map[fid] = fid

    cell_map = {}
    cell_map.update(vertex_map)
    cell_map.update(edge_map)
    cell_map.update(face_map)
    stab, orbit, stab_plus = quotient_labels(x, cell_map, groups, prefix="cmp", extra_stab=extra_stab)
    collapsed = Complex2(
        vertices=frozenset(vertex_map[v] for v in x.vertices),
        edges=new_edges,
        faces=new_faces,
        stab=stab,
        orbit=orbit,
        boundary_marked=frozenset(
            vertex_map[v] for v in x.boundary_marked if vertex_map[v] is not None
        ),
        stab_plus=stab_plus,
    )
    # a triangle survives when it keeps all three sides
    tri_map = {f: f if len(new_faces.get(f, ())) == 3 else None for f in x.triangles()}
    frag = TauFragment(
        triangle_map=tri_map,
        edge_map={(f, e): e for f, img in tri_map.items() if img is not None for e in x.faces[f]},
    )
    xc, frag = finish_collapse(x, collapsed, frag, groups, "contraction")
    new_image = {v: image_override[v] if v in image_override else res.vertex_image[v] for v in xc.vertices}
    descended = resolution_from_images(xc, res.target, new_image, actions=res.actions)
    if descended.kind != SPLITTING:
        raise EngineError("descended resolution still has boundary edges")
    return xc, descended, frag
