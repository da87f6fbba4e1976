"""Triangle provenance across surgery steps.

A TauFragment is the one triangle map of the package: a partial map on
triangles, the per-triangle side correspondence for surviving triangles,
and the vertex fate.  Each collapse and reduction step yields one;
``passdown_full`` hands on one per input terminal, with every image face
located as (vertex orbit, terminal id, face id); the run analysis reads
them keyed (complex id, face id).  Fragments compose associatively.

A step that keeps a complex as it is needs no per-face maps: an identity
fragment sends every face f to ``home + (f,)`` and fixes every side, and
keyed it becomes a renaming of one complex id to another.  Readers look
images up through ``image`` and ``side_image``, which see both kinds.
"""

from dataclasses import dataclass, field

from .complexes import covolume, reduce_with_map, wire_and_validate
from .errors import EngineError


@dataclass
class TauFragment:
    triangle_map: dict = field(default_factory=dict)  # source face -> image face or None
    edge_map: dict = field(default_factory=dict)  # (source face, source edge) -> image edge
    vertex_map: dict = field(default_factory=dict)  # source vertex -> image vertex or None
    track_point: dict = field(default_factory=dict)  # track id -> new vertex
    home: tuple = None  # identity fragment: face f -> home + (f,), every side fixed
    renamed: dict = field(default_factory=dict)  # keyed: source complex id -> image complex id, faces and sides fixed

    def image(self, key):
        """The image face of source face ``key``, or None."""
        if self.home is not None:
            return self.home + (key,)
        if self.renamed:
            to = self.renamed.get(key[0])
            if to is not None:
                return to, key[1]
        return self.triangle_map.get(key)

    def side_image(self, key, eid):
        """The image of side ``eid`` of source face ``key``, or None."""
        if self.home is not None or (self.renamed and key[0] in self.renamed):
            return eid
        return self.edge_map.get((key, eid))

    @staticmethod
    def identity(x):
        return TauFragment(
            triangle_map={f: f for f in x.triangles()},
            edge_map={(f, e): e for f in x.triangles() for e in x.faces[f]},
            vertex_map={v: v for v in x.vertices},
        )

    def compose(self, nxt: "TauFragment") -> "TauFragment":
        """self followed by nxt, both with per-face maps."""
        if self.home is not None or self.renamed or nxt.home is not None or nxt.renamed:
            raise EngineError("only fragments with per-face maps compose")
        tri = {}
        edges = {}
        for t, img in self.triangle_map.items():
            tri[t] = None if img is None else nxt.triangle_map.get(img)
        for (t, e), fe in self.edge_map.items():
            ft = self.triangle_map.get(t)
            if ft is None or tri.get(t) is None:
                continue
            if (ft, fe) in nxt.edge_map:
                edges[(t, e)] = nxt.edge_map[(ft, fe)]
        verts = {}
        for v, img in self.vertex_map.items():
            verts[v] = None if img is None else nxt.vertex_map.get(img)
        return TauFragment(triangle_map=tri, edge_map=edges, vertex_map=verts)

    def keyed(self, cid, locate) -> "TauFragment":
        """This fragment of a passdown with triangles keyed (complex id,
        face id): the sources lie in complex ``cid``, and ``locate(vertex
        orbit, terminal id)`` gives the complex id of each located image.
        An identity fragment becomes the renaming of ``cid``."""
        if self.home is not None:
            return TauFragment(renamed={cid: locate(*self.home)})
        return TauFragment(
            triangle_map={
                (cid, f): None if img is None else (locate(img[0], img[1]), img[2])
                for f, img in self.triangle_map.items()
            },
            edge_map={((cid, f), e): fe for (f, e), fe in self.edge_map.items()},
        )

    def update(self, other: "TauFragment"):
        """Take in the maps and renamings of a fragment on other sources."""
        self.triangle_map.update(other.triangle_map)
        self.edge_map.update(other.edge_map)
        self.vertex_map.update(other.vertex_map)
        self.renamed.update(other.renamed)

    def check_consistency(self, source, target):
        for t, img in self.triangle_map.items():
            if t not in source.faces:
                raise EngineError(f"provenance names unknown source face {t!r}")
            if img is not None and img not in target.faces:
                raise EngineError(f"provenance names unknown image face {img!r}")
        for (t, e), fe in self.edge_map.items():
            if e not in source.faces[t]:
                raise EngineError(f"provenance side {e!r} is not a side of {t!r}")
            img = self.triangle_map.get(t)
            if img is not None and fe not in target.faces[img]:
                raise EngineError(f"provenance image side {fe!r} is not a side of {img!r}")


def finish_collapse(x, collapsed, frag: TauFragment, groups, step: str):
    """Finish a collapse of ``x`` onto the freshly built ``collapsed``,
    whose cells ``frag`` follows: record the incidence containments of
    ``collapsed``, validate and reduce it, and follow ``frag`` with the
    reduction.  The result must be consistent and no larger in covolume
    than ``x``.  Returns (reduced complex, fragment from ``x``); the
    reduction keeps every vertex, so track points stay where ``frag`` put
    them."""
    wire_and_validate(collapsed, groups)
    reduced, red_map = reduce_with_map(collapsed, groups)
    out = frag.compose(
        TauFragment(
            triangle_map={f: red_map[f] for f in collapsed.triangles()},
            edge_map={
                (f, e): red_map[e]
                for f in collapsed.triangles()
                if red_map[f] is not None
                for e in collapsed.faces[f]
            },
            vertex_map={v: red_map[v] for v in collapsed.vertices},
        )
    )
    out.track_point = frag.track_point
    out.check_consistency(x, reduced)
    if covolume(reduced) > covolume(x):
        raise EngineError(f"{step} increased covolume")
    return reduced, out
