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
from .complexes import Complex2, canonical_complex, check_orbit_labels, declare_pairs, fresh_separator
from .errors import ConsistencyError, EngineError, FixtureError, HypothesisError
from .groups import TRIVIAL, GroupTable
from .provenance import TauFragment
from .trees import (
    DIHEDRAL,
    ELLIPTIC,
    HYPERBOLIC,
    LINEAR,
    PARABOLIC,
    TreeHat,
    check_descriptor,
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
        self.descriptors = {}
        self.parabolic = {}
        self._resolved = {}  # gid -> ResolvedAction, for one version of the group table
        self._resolved_at = None

    def declare_descriptors(self, gid, descriptors):
        self.groups[gid]
        for d in descriptors:
            check_descriptor(d, self.tree)
        self.descriptors.setdefault(gid, []).extend(descriptors)
        self._resolved.clear()

    def declare_parabolic(self, gid, end):
        if not self.tree.is_ideal(end):
            raise FixtureError(f"parabolic end {end!r} is not an ideal point")
        self.parabolic[gid] = end
        self._resolved.clear()

    def over(self, groups: GroupTable) -> "ActionTable":
        """The same annotations read against another group table."""
        out = ActionTable(self.tree, groups)
        out.descriptors = {gid: list(ds) for gid, ds in self.descriptors.items()}
        out.parabolic = dict(self.parabolic)
        return out

    def has_entry(self, gid):
        return gid in self.descriptors or gid in self.parabolic or gid == TRIVIAL

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
            owner == TRIVIAL and owner not in self.descriptors and owner not in self.parabolic
        ):
            return ResolvedAction(kind=ELLIPTIC, fixed=frozenset(self.tree.vertices))
        if owner in self.parabolic:
            return ResolvedAction(kind=PARABOLIC, end=self.parabolic[owner])
        descriptors = self.descriptors[owner]
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
    inconsistent input.  Each distinct label is classified once, in the
    order of its first cell, so a dihedral label is met at its first cell.
    """
    stab, cells = x.stab, sorted(x.vertices) + sorted(x.edges)
    linear = set()
    for label in dict.fromkeys(stab[c] for c in cells):
        kind = actions.classification(label)
        if kind == DIHEDRAL:
            cell = next(c for c in cells if stab[c] == label)
            raise ConsistencyError(
                f"cell {cell!r} classified dihedral, but no D-infinity action is ever allowed"
            )
        if kind == LINEAR:
            linear.add(label)
    linear_cells = {c for c in cells if stab[c] in linear}
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

    How a cell acts depends on its label only, so each distinct label is
    classified once, in ``first_cell_by_label`` order: the first label
    that fails is that of the first failing cell in ``cells()`` order,
    and the error names that cell.

    The vertices of one orbit map to one tree orbit, with nothing to check:
    a vertex's image depends on its label only.  An elliptic label maps to
    its least fixed vertex, a parabolic one to its end, and a vertex in a
    linear subcomplex W to W's end, the least end of the one axis that all
    cells of W share, which is its own label's axis.  A parsed complex has
    one label per orbit (``validate_complex``), and so has every complex
    the passdown builds from one (``Complex2.cell_labels_reduced``).  The
    descended resolution of ``contract`` keeps the property: a kept vertex
    keeps its image, and a component vertex takes the one ideal point its
    component maps to, which is the image of every vertex of every orbit
    its class merges.
    """
    for label, cell in x.first_cell_by_label.items():
        if actions.classification(label) == HYPERBOLIC:
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
    construction); edge paths are the reduced paths between them, one
    path per distinct pair of end images, shared by its edges."""
    for v in x.vertices:
        if v not in vertex_image:
            raise FixtureError(f"vertex {v!r} has no image")
        img = vertex_image[v]
        if img not in t.vertices and not t.is_ideal(img):
            raise FixtureError(f"image {img!r} of {v!r} is neither a tree vertex nor an ideal point")
    paths, edge_path = {}, {}
    for eid, (u, v) in x.edges.items():
        ends = vertex_image[u], vertex_image[v]
        path = paths.get(ends)
        if path is None:
            path = paths[ends] = reduced_path(t, *ends)
        edge_path[eid] = path
    kind = CONTRACTING if any(p.constant_ideal is not None for p in edge_path.values()) else SPLITTING
    return Resolution(
        source=x,
        target=t,
        vertex_image=dict(vertex_image),
        edge_path=edge_path,
        kind=kind,
        actions=actions,
    )


# ---------------------------------------------------------------------------
# contracting resolutions


def contract(res: Resolution, groups: GroupTable):
    """Collapse each component of the boundary preimage to a point, and
    reduce.

    Returns (X_C, descended resolution, provenance).  New vertices take
    the collapsed component's stabilizer: the original one for a singleton
    component, otherwise a fresh slender ref (the component fixes a line),
    one per orbit of components.  A component of several vertices becomes
    vertex ``c<sep><v>`` for a vertex v of it, where ``sep`` is the
    shortest run of colons that makes every such id new.  The orbits of
    its vertices merge into one class, named by its least orbit; every
    other cell keeps its label.

    X_C is built in one pass, as ``tracks.split_collapse`` builds X_T: the
    surviving edges, filed by image vertex pair, and the triangles that
    keep all three sides, filed by image corner triple, go to
    ``canonical_complex``, the quotient step of every reduction (the tests
    keep the collapsed complex built whole, validated and reduced, as the
    oracle).  Every containment of the collapsed complex whose upper cell
    is not a component vertex is one of ``x`` between the same labels, and
    holds; only those under a component vertex, whose fresh label holds
    nothing yet, are declared, in ``validate_complex``'s order: each face
    (bigons too) below its corners, then each edge below its ends.  Of the
    checks of a built complex only the one that input can fail is made:
    the vertices of one orbit class carry one label.  A triangle survives
    when it keeps all three sides; it goes to the least id on its triple,
    and each side to the least id on its pair, so X_C does not exceed
    ``x`` in covolume; ``passdown_full`` checks that once per stage and
    piece, so it is not checked here.  The descended resolution is
    splitting.
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
    sep = fresh_separator((x.stab.keys(), x.orbit.values()), lambda sep: (f"c{sep}{rep}" for rep in merged), ":")
    comp_vertex = {}
    image_override = {}
    comp_stab = {}
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
            comp_stab[cid] = ref_by_signature[sig]
        image_override[comp_vertex[rep]] = images.pop()

    # the orbits of a merged component's vertices join one class
    orbit_class = graphs.UnionFind()
    for rep in merged:
        for v in classes[rep]:
            orbit_class.union(x.orbit[rep], x.orbit[v])
    class_of = orbit_class.find
    vertex_map, stab, orbit = {}, {}, {}
    for v in sorted(x.vertices):
        img = vertex_map[v] = comp_vertex[find(v)] if v in ideal_verts else v
        stab[img], orbit[img] = comp_stab.get(img) or x.stab[v], class_of(x.orbit[v])
    vertices = frozenset(vertex_map.values())

    # surviving edges, filed by sorted image pair; with them, the (label,
    # label above) of each edge below a component vertex
    edges_at, pair_of, edge_pairs = {}, {}, []
    for eid in sorted(x.edges):
        if eid in boundary_edges:
            continue
        u, v = x.edges[eid]
        nu, nv = vertex_map[u], vertex_map[v]
        if nu == nv:
            raise EngineError(f"surviving edge {eid!r} collapsed to a loop")
        key = pair_of[eid] = (nu, nv) if nu < nv else (nv, nu)
        edges_at.setdefault(key, []).append(eid)
        stab[eid], orbit[eid] = x.stab[eid], class_of(x.orbit[eid])
        edge_pairs.extend((x.stab[eid], comp_stab[w]) for w in (nu, nv) if w in comp_stab)

    # faces that keep two sides or three (a bigon or a triangle), with the
    # (label, label above) of each below a component vertex; the triangles
    # filed by sorted corner triple
    faces_at, triple_of, face_pairs = {}, {}, []
    for fid in sorted(x.faces):
        sides = [e for e in x.faces[fid] if e in pair_of]
        if len(sides) < 2:
            continue
        corners = sorted({w for e in sides for w in pair_of[e]})
        face_pairs.extend((x.stab[fid], comp_stab[w]) for w in corners if w in comp_stab)
        if len(sides) == 3:
            triple = triple_of[fid] = tuple(corners)
            faces_at.setdefault(triple, []).append(fid)
            stab[fid], orbit[fid] = x.stab[fid], class_of(x.orbit[fid])

    declare_pairs(groups, face_pairs + edge_pairs)
    check_orbit_labels(sorted(vertices), stab, orbit)
    xc = canonical_complex(
        vertices, edges_at, faces_at, stab, orbit, x.stab_plus,
        frozenset(vertex_map[v] for v in x.boundary_marked), groups,
    )
    frag = TauFragment()
    for f in x.triangles():
        img = frag.triangle_map[f] = faces_at[triple_of[f]][0] if f in triple_of else None
        if img is not None:
            frag.edge_map.update(((f, e), edges_at[pair_of[e]][0]) for e in x.faces[f])
    new_image = {v: image_override[v] if v in image_override else res.vertex_image[v] for v in xc.vertices}
    descended = resolution_from_images(xc, res.target, new_image, actions=res.actions)
    if descended.kind != SPLITTING:
        raise EngineError("descended resolution still has boundary edges")
    return xc, descended, frag
