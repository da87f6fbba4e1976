"""Triangle provenance across surgery steps.

A TauFragment is the one triangle map of the package: a partial map on
triangles and the per-triangle side correspondence for surviving
triangles.  Each collapse and reduction step yields one.  Above
a complex, faces are keyed (complex id, face id): ``passdown_full`` hands
on one fragment from (input terminal id, face id) to ((vertex orbit,
terminal id), face id), and ``located`` renames both sides into the run's
complex ids.  Fragments with per-face maps compose associatively.

A step that keeps a complex as it is needs no per-face maps: it renames
the complex, face f of complex c going to face f of ``renamed[c]`` with
every side fixed.  Readers look images up through ``image`` and
``side_image``, which see both kinds.
"""

from dataclasses import dataclass, field

from .complexes import covolume, reduce_with_map, wire_and_validate
from .errors import EngineError


@dataclass
class TauFragment:
    triangle_map: dict = field(default_factory=dict)  # source face -> image face or None
    edge_map: dict = field(default_factory=dict)  # (source face, source edge) -> image edge
    track_point: dict = field(default_factory=dict)  # track id -> new vertex
    renamed: dict = field(default_factory=dict)  # source complex id -> image complex id, faces and sides fixed

    def image(self, key):
        """The image face of source face ``key``, or None."""
        if self.renamed:
            to = self.renamed.get(key[0])
            if to is not None:
                return to, key[1]
        return self.triangle_map.get(key)

    def side_image(self, key, eid):
        """The image of side ``eid`` of source face ``key``, or None."""
        if self.renamed and key[0] in self.renamed:
            return eid
        return self.edge_map.get((key, eid))

    def compose(self, nxt: "TauFragment") -> "TauFragment":
        """self followed by nxt, both with per-face maps."""
        if self.renamed or nxt.renamed:
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
        return TauFragment(triangle_map=tri, edge_map=edges)

    def located(self, sources, images) -> "TauFragment":
        """This fragment on faces keyed (complex id, face id), with source
        complex ids renamed through ``sources`` and image complex ids
        through ``images``."""
        return TauFragment(
            triangle_map={
                (sources[c], f): None if img is None else (images[img[0]], img[1])
                for (c, f), img in self.triangle_map.items()
            },
            edge_map={((sources[c], f), e): fe for ((c, f), e), fe in self.edge_map.items()},
            renamed={sources[c]: images[to] for c, to in self.renamed.items()},
        )

    def update(self, other: "TauFragment"):
        """Take in the maps and renamings of a fragment on other sources."""
        self.triangle_map.update(other.triangle_map)
        self.edge_map.update(other.edge_map)
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
    """Finish a collapse of ``x`` onto ``collapsed`` (freshly built, or
    ``x`` itself when nothing collapses), whose cells ``frag`` follows:
    record the incidence containments of
    ``collapsed``, validate it (its one validation: the reduction of a
    valid complex is valid) and reduce it, and follow ``frag`` with the
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
        )
    )
    out.track_point = frag.track_point
    out.check_consistency(x, reduced)
    if covolume(reduced) > covolume(x):
        raise EngineError(f"{step} increased covolume")
    return reduced, out
