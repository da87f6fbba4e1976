"""Line-oriented fixture format.

Blocks start with a header line and close with ``end``; ``#`` starts a
comment.  Supported blocks: ``groups``, ``complex``, ``tree``,
``actions`` (per tree), ``gog``, ``hierarchy``, ``structure``,
``config`` and ``pipeline``; plus top-level ``restrict`` lines for
restriction tables.  ``GRAMMAR`` says what each kind of line may carry,
and the README's grammar lists the same forms.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

from .complexes import Complex2, make_complex
from .errors import FixtureError
from .groups import GroupRef, GroupTable
from .hierarchy import HNode, Hierarchy, HStructure, Restriction, RestrictionTable, validate_hierarchy, validate_hstructure
from .resolution import ActionTable
from .trees import ActionDescriptor, make_gog, make_tree


@dataclass
class PipelineConfig:
    horizon: int = 6
    relative_class: frozenset = frozenset()

    def validate(self):
        if self.horizon < 1:
            raise FixtureError("config: horizon must be at least 1")


@dataclass
class ScriptNode:
    id: str
    tree: str = None  # tree name; None = terminal branch
    parent: str = None
    orbit: str = None  # vertex orbit of the parent tree this node sits at
    repeat: str = None  # clone this node's spec for all deeper levels
    overrides: dict = field(default_factory=dict)  # edge orbit -> stab+ group id


@dataclass
class PipelineScript:
    name: str
    root_structure: str
    root_node: str
    nodes: dict


@dataclass
class FixtureSet:
    groups: GroupTable = field(default_factory=GroupTable)
    complexes: dict = field(default_factory=dict)
    trees: dict = field(default_factory=dict)
    actions: dict = field(default_factory=dict)  # tree name -> ActionTable
    gogs: dict = field(default_factory=dict)
    hierarchies: dict = field(default_factory=dict)
    structures: dict = field(default_factory=dict)
    restrictions: RestrictionTable = field(default_factory=RestrictionTable)
    config: PipelineConfig = field(default_factory=PipelineConfig)
    pipelines: dict = field(default_factory=dict)

    def action_table(self, tree_name) -> ActionTable:
        table = self.actions.get(tree_name)
        return table if table is not None else ActionTable(self.trees[tree_name], self.groups)


class Form(NamedTuple):
    """What one kind of line may carry: its positional words, the kind
    word included, of which the last ``optional`` may be left out; the
    bare-word flags; and the ``key=`` names."""

    words: int
    flags: set = frozenset()
    keys: set = frozenset()
    optional: int = 0


_LABELS = {"stab", "orbit"}
_NO_FLAGS = frozenset()

# (block, line kind) -> Form.  A header is keyed by its block name twice,
# a config body line, which has no kind word, by (config, None), and a
# top-level restrict line by its fourth word.
GRAMMAR = {
    ("groups", "groups"): Form(1),
    ("groups", "group"): Form(2, {"slender", "helliptic", "finite"}, {"sub-of"}),
    ("complex", "complex"): Form(2),
    ("complex", "vertex"): Form(2, {"marked"}, _LABELS),
    ("complex", "edge"): Form(4, keys=_LABELS | {"stabplus"}),
    ("complex", "triangle"): Form(5, keys=_LABELS),
    ("complex", "bigon"): Form(4, keys=_LABELS),
    ("tree", "tree"): Form(2),
    ("tree", "vertex"): Form(2, keys=_LABELS),
    ("tree", "edge"): Form(4, keys=_LABELS),
    ("tree", "ideal"): Form(2, keys={"ray"}),
    ("actions", "actions"): Form(2),
    ("actions", "elliptic"): Form(2, keys={"fix"}),
    ("actions", "hyperbolic"): Form(2, {"swaps"}, {"ends"}),
    ("actions", "parabolic"): Form(2, keys={"end"}),
    ("gog", "gog"): Form(2, {"reduced", "jsj"}),
    ("gog", "vertex"): Form(3, {"rigid", "flexible"}),
    ("gog", "edge"): Form(5),
    ("hierarchy", "hierarchy"): Form(2, {"jsj"}),
    ("hierarchy", "node"): Form(3, keys={"action", "parent", "at"}),
    ("structure", "structure"): Form(2, keys={"hierarchy"}),
    ("structure", "attach"): Form(2, keys={"complex"}),
    ("config", "config"): Form(1),
    # link-cap, seed and no-dinfty are inert: nothing reads them, but the
    # benchmark's generated fixtures and four committed ones still write them
    ("config", None): Form(0, {"no-dinfty"}, {"horizon", "relative", "link-cap", "seed"}),
    ("pipeline", "pipeline"): Form(2, keys={"root"}),
    ("pipeline", "node"): Form(2, keys={"tree", "parent", "orbit", "repeat"}),
    ("pipeline", "override"): Form(2, keys={"edge-orbit", "stabplus"}),
    ("restrict", "elliptic"): Form(5),
    ("restrict", "split"): Form(6, optional=1),
}


def _read(block, ln, text, header=False):
    """``(ln, words, flags, keys)`` of ``text``, line ``ln`` of ``block``,
    checked against its ``GRAMMAR`` entry: a missing or extra word, or a
    key the entry does not list, is malformed input.  ``words`` are the
    positional words, the kind word first."""
    words, keys = text.split(), {}
    if "=" in text:
        tokens, words = words, []
        for tok in tokens:
            if "=" in tok:
                key, value = tok.split("=", 1)
                keys[key] = value
            else:
                words.append(tok)
    if header:
        kind = block
    elif block == "restrict":
        kind = words[3] if len(words) > 3 else None
    elif block == "config":
        kind = None
    else:
        kind = words[0] if words else None
    form = GRAMMAR.get((block, kind))
    if form is None:
        raise FixtureError(f"bad {block} line: {text!r}", line=ln)
    arity, allowed_flags, allowed_keys, optional = form
    flags = _NO_FLAGS
    if allowed_flags and not allowed_flags.isdisjoint(words):
        flags = allowed_flags.intersection(words)
        words = [w for w in words if w not in flags]
    if not arity - optional <= len(words) <= arity:
        if header:
            raise FixtureError("expected: " + " ".join([block] + ["<name>"] * (arity - 1)), line=ln)
        raise FixtureError(f"bad {block} line: {text!r}", line=ln)
    if keys and not allowed_keys.issuperset(keys):
        label = block if kind in (block, None) else f"{block} {kind}"
        unknown = next(key for key in keys if key not in allowed_keys)
        raise FixtureError(f"unknown {label} key {unknown!r}", line=ln)
    return ln, words, flags, keys


def _id_set(value):
    return frozenset((value or "").split(",")) - {""}


def parse_text(text, fixture: FixtureSet = None) -> FixtureSet:
    fx = fixture or FixtureSet()
    lines = text.splitlines()
    i = 0

    def block(start, head):
        body = []
        j = start + 1
        while j < len(lines):
            stripped = lines[j].split("#", 1)[0].strip()
            if stripped == "end":
                return body, j
            if stripped:
                body.append(_read(head, j + 1, stripped))
            j += 1
        raise FixtureError("unterminated block", line=start + 1)

    while i < len(lines):
        raw = lines[i].split("#", 1)[0].strip()
        if not raw:
            i += 1
            continue
        head = next((w for w in raw.split() if "=" not in w), None)
        if head is None:
            raise FixtureError(f"expected a block header, got {raw!r}", line=i + 1)
        try:
            if head == "restrict":
                _parse_restrict(fx, _read(head, i + 1, raw))
            elif head in _BLOCKS:
                header = _read(head, i + 1, raw, header=True)
                body, end = block(i, head)
                _BLOCKS[head](fx, header, body)
                i = end
            else:
                raise FixtureError(f"unknown block {head!r}", line=i + 1)
        except FixtureError as exc:
            if exc.line is None:  # tie block-level failures to the header line
                raise FixtureError(str(exc), line=i + 1) from exc
            raise
        except Exception as exc:
            raise FixtureError(str(exc), line=i + 1) from exc
        i += 1
    return fx


def parse_fixture(path, fixture: FixtureSet = None) -> FixtureSet:
    with open(path) as fh:
        text = fh.read()
    return parse_text(text, fixture)


def parse_fixtures(paths) -> FixtureSet:
    fx = FixtureSet()
    for path in paths:
        parse_fixture(path, fx)
    return fx


def _parse_groups(fx, header, body):
    for _ln, (_, gid), flags, keys in body:
        fx.groups.add(
            GroupRef(
                gid,
                is_slender=not flags.isdisjoint({"slender", "finite"}),
                is_h_elliptic="helliptic" in flags,
                is_finite="finite" in flags,
                declared_supergroups=_id_set(keys.get("sub-of")),
            )
        )
    fx.groups.validate()


def _parse_complex(fx, header, body):
    _ln, (_, name), _flags, _keys = header
    vertices, edges, faces = [], {}, {}
    stab, orbit, stab_plus, marked = {}, {}, {}, []
    for _ln, words, flags, keys in body:
        kind, cell = words[0], words[1]
        if kind == "vertex":
            vertices.append(cell)
            if "marked" in flags:
                marked.append(cell)
        elif kind == "edge":
            edges[cell] = (words[2], words[3])
        else:
            faces[cell] = tuple(words[2:])
        if "stab" in keys:
            stab[cell] = keys["stab"]
        if "orbit" in keys:
            orbit[cell] = keys["orbit"]
        if "stabplus" in keys:
            stab_plus[cell] = keys["stabplus"]
    fx.complexes[name] = make_complex(
        vertices, edges, faces, stab=stab, orbit=orbit, boundary_marked=marked,
        stab_plus=stab_plus, groups=fx.groups,
    )


def _parse_tree(fx, header, body):
    _ln, (_, name), _flags, _keys = header
    vertices, edges, ideal = [], {}, {}
    stab, orbit = {}, {}
    for _ln, words, _flags, keys in body:
        kind, cell = words[0], words[1]
        if kind == "vertex":
            vertices.append(cell)
        elif kind == "edge":
            edges[cell] = (words[2], words[3])
        else:
            ideal[cell] = tuple(keys.get("ray", "").split(","))
        if "stab" in keys:
            stab[cell] = keys["stab"]
        if "orbit" in keys:
            orbit[cell] = keys["orbit"]
    fx.trees[name] = make_tree(vertices, edges, ideal, stab=stab, orbit=orbit, groups=fx.groups)


def _parse_actions(fx, header, body):
    _ln, (_, tree_name), _flags, _keys = header
    if tree_name not in fx.trees:
        raise FixtureError(f"actions block references unknown tree {tree_name!r}")
    table = fx.actions.setdefault(tree_name, ActionTable(fx.trees[tree_name], fx.groups))
    for _ln, (kind, gid), flags, keys in body:
        if kind == "elliptic":
            table.declare_descriptors(gid, [ActionDescriptor(kind="elliptic", fixed=_id_set(keys.get("fix")), group=gid)])
        elif kind == "hyperbolic":
            ends = tuple(keys.get("ends", "").split(","))
            table.declare_descriptors(
                gid, [ActionDescriptor(kind="hyperbolic", ends=ends, swaps_ends="swaps" in flags, group=gid)]
            )
        else:
            table.declare_parabolic(gid, keys.get("end"))


def _parse_gog(fx, header, body):
    _ln, (_, name), flags, _keys = header
    vertices, edges, vflags = {}, {}, {}
    for _ln, words, vertex_flags, _keys in body:
        if words[0] == "vertex":
            vertices[words[1]] = words[2]
            if vertex_flags:
                vflags[words[1]] = "flexible" if "flexible" in vertex_flags else "rigid"
        else:
            edges[words[1]] = tuple(words[2:])
    fx.gogs[name] = make_gog(
        name, vertices, edges, flags=vflags,
        reduced="reduced" in flags, jsj="jsj" in flags, groups=fx.groups,
    )


def _parse_hierarchy(fx, header, body):
    _ln, (_, name), flags, _keys = header
    nodes = {}
    for ln, (_, nid, gid), _flags, keys in body:
        action = None
        if "action" in keys:
            if keys["action"] not in fx.gogs:
                raise FixtureError(f"unknown gog {keys['action']!r}", line=ln)
            action = fx.gogs[keys["action"]]
        nodes[nid] = HNode(id=nid, group=gid, action=action, parent=keys.get("parent"))
    for _ln, (_, nid, _gid), _flags, keys in body:
        parent = keys.get("parent")
        if parent:
            at = keys.get("at")
            if at is None:
                raise FixtureError(f"hierarchy node {nid!r} needs at=<action vertex>")
            nodes[parent].children[at] = nid
    h = Hierarchy(name=name, root=next(iter(nodes), None), nodes=nodes, jsj="jsj" in flags)
    validate_hierarchy(h, fx.groups)
    fx.hierarchies[name] = h


def _parse_structure(fx, header, body):
    _ln, (_, name), _flags, header_keys = header
    if "hierarchy" not in header_keys:
        raise FixtureError("expected: structure <name> hierarchy=<H>")
    h = fx.hierarchies.get(header_keys["hierarchy"])
    if h is None:
        raise FixtureError(f"unknown hierarchy {header_keys['hierarchy']!r}")
    complexes = {}
    for ln, (_, nid), _flags, keys in body:
        if "complex" not in keys:
            raise FixtureError("expected: attach <node-id> complex=<X>", line=ln)
        if keys["complex"] not in fx.complexes:
            raise FixtureError(f"unknown complex {keys['complex']!r}", line=ln)
        complexes[nid] = fx.complexes[keys["complex"]]
    ks = HStructure(hierarchy=h, terminal_complexes=complexes)
    validate_hstructure(ks, fx.groups)
    fx.structures[name] = ks


def _parse_config(fx, header, body):
    for ln, _words, _flags, keys in body:
        if "horizon" in keys:
            fx.config.horizon = int(keys["horizon"])
        # link-cap and seed are still checked, but nothing reads them
        if "link-cap" in keys and int(keys["link-cap"]) < 3:
            raise FixtureError("config: link-cap must be at least 3", line=ln)
        if "seed" in keys:
            int(keys["seed"])
        if "relative" in keys:
            fx.config.relative_class = _id_set(keys["relative"])
    fx.config.validate()


def _parse_pipeline(fx, header, body):
    _ln, (_, name), _flags, header_keys = header
    if "root" not in header_keys:
        raise FixtureError("expected: pipeline <name> root=<structure>")
    root = header_keys["root"]
    nodes = {}
    for ln, (kind, nid), _flags, keys in body:
        if kind == "node":
            nodes[nid] = ScriptNode(
                id=nid, tree=keys.get("tree"), parent=keys.get("parent"), orbit=keys.get("orbit"), repeat=keys.get("repeat")
            )
        elif nid not in nodes:
            raise FixtureError(f"override for unknown script node {nid!r}", line=ln)
        elif "edge-orbit" not in keys or "stabplus" not in keys:
            raise FixtureError("expected: override <node> edge-orbit=<o> stabplus=<G>", line=ln)
        else:
            nodes[nid].overrides[keys["edge-orbit"]] = keys["stabplus"]
    if not nodes:
        raise FixtureError(f"pipeline {name!r} needs at least one node")
    if root not in fx.structures:
        raise FixtureError(f"pipeline root structure {root!r} not found")
    for nid, node in nodes.items():
        if node.tree is not None and node.tree not in fx.trees:
            raise FixtureError(f"script node {nid!r} references unknown tree {node.tree!r}")
        if node.repeat is not None and node.repeat not in nodes:
            raise FixtureError(f"script node {nid!r} repeats unknown node {node.repeat!r}")
    fx.pipelines[name] = PipelineScript(name=name, root_structure=root, root_node=next(iter(nodes)), nodes=nodes)


def _parse_restrict(fx, line):
    # restrict <gid> <gog-name> elliptic <child>
    # restrict <gid> <gog-name> split <sub-gog> [<sv>:<origin>,...]
    ln, (_, gid, gog_name, kind, child, *pairs), _flags, _keys = line
    if gid not in fx.groups:
        raise FixtureError(f"unknown group id {gid!r}", line=ln)
    if gog_name not in fx.gogs:
        raise FixtureError(f"unknown gog {gog_name!r}", line=ln)
    gog = fx.gogs[gog_name]

    def vertex_of(g, vid):
        if vid not in g.vertices:
            raise FixtureError(f"{vid!r} is no vertex of gog {g.name!r}", line=ln)
        return vid

    if kind == "elliptic":
        fx.restrictions.declare(gid, gog_name, Restriction(kind="elliptic", child=vertex_of(gog, child)))
        return
    sub = fx.gogs.get(child)
    if sub is None:
        raise FixtureError(f"unknown gog {child!r}", line=ln)
    origins = {}
    for pair_list in pairs:
        for part in pair_list.split(","):
            sv, origin = part.split(":")
            sv = vertex_of(sub, sv)
            origins[sv] = vertex_of(gog, origin)
    fx.restrictions.declare(gid, gog_name, Restriction(kind="split", sub=sub, origins=origins))


_BLOCKS = {
    "groups": _parse_groups,
    "complex": _parse_complex,
    "tree": _parse_tree,
    "actions": _parse_actions,
    "gog": _parse_gog,
    "hierarchy": _parse_hierarchy,
    "structure": _parse_structure,
    "config": _parse_config,
    "pipeline": _parse_pipeline,
}


# ---------------------------------------------------------------------------
# serialization


def serialize_complex(name, x: Complex2) -> str:
    out = [f"complex {name}"]
    for v in sorted(x.vertices):
        parts = [f"  vertex {v}"]
        if v in x.boundary_marked:
            parts.append("marked")
        parts.append(f"stab={x.stab[v]}")
        parts.append(f"orbit={x.orbit[v]}")
        out.append(" ".join(parts))
    for eid in sorted(x.edges):
        u, v = x.edges[eid]
        parts = [f"  edge {eid} {u} {v}", f"stab={x.stab[eid]}", f"orbit={x.orbit[eid]}"]
        if eid in x.stab_plus:
            parts.append(f"stabplus={x.stab_plus[eid]}")
        out.append(" ".join(parts))
    for fid in sorted(x.faces):
        es = x.faces[fid]
        kind = "triangle" if len(es) == 3 else "bigon"
        out.append(
            f"  {kind} {fid} " + " ".join(es) + f" stab={x.stab[fid]} orbit={x.orbit[fid]}"
        )
    out.append("end")
    return "\n".join(out) + "\n"


def serialize_tree(name, t) -> str:
    out = [f"tree {name}"]
    for v in sorted(t.vertices):
        out.append(f"  vertex {v} stab={t.stab[v]} orbit={t.orbit[v]}")
    for eid in sorted(t.edges):
        u, v = t.edges[eid]
        out.append(f"  edge {eid} {u} {v} stab={t.stab[eid]} orbit={t.orbit[eid]}")
    for pid in sorted(t.ideal_points):
        out.append(f"  ideal {pid} ray=" + ",".join(t.ideal_points[pid]))
    out.append("end")
    return "\n".join(out) + "\n"


def serialize_groups(groups: GroupTable) -> str:
    out = ["groups"]
    for gid in sorted(groups.ids()):
        if gid == "1":
            continue
        ref = groups[gid]
        parts = [f"  group {gid}"]
        if ref.is_finite:
            parts.append("finite")
        elif ref.is_slender:
            parts.append("slender")
        if ref.is_h_elliptic:
            parts.append("helliptic")
        if ref.declared_supergroups:
            parts.append("sub-of=" + ",".join(sorted(ref.declared_supergroups)))
        out.append(" ".join(parts))
    out.append("end")
    return "\n".join(out) + "\n"


def serialize_gog(g) -> str:
    head = f"gog {g.name}"
    if g.reduced:
        head += " reduced"
    if g.jsj:
        head += " jsj"
    out = [head]
    for v in sorted(g.vertices):
        line = f"  vertex {v} {g.vertices[v]}"
        if g.flags.get(v) in ("rigid", "flexible"):
            line += f" {g.flags[v]}"
        out.append(line)
    for eid in sorted(g.edges):
        u, w, gid = g.edges[eid]
        out.append(f"  edge {eid} {u} {w} {gid}")
    out.append("end")
    return "\n".join(out) + "\n"


def serialize_resolution(name, res, complex_name="?", tree_name="?") -> str:
    out = [f"resolution {name} complex={complex_name} tree={tree_name}"]
    for v in sorted(res.source.vertices):
        out.append(f"  map {v} {res.vertex_image[v]}")
    out.append("end")
    return "\n".join(out) + "\n"
