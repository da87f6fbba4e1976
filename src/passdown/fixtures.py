"""Line-oriented fixture format.

Blocks start with a header line and close with ``end``; ``#`` starts a
comment.  Supported blocks: ``groups``, ``complex``, ``tree``,
``actions`` (per tree), ``gog``, ``hierarchy``, ``structure``,
``config`` and ``pipeline``; plus top-level ``restrict`` lines for
restriction tables.  ``GRAMMAR`` says what each kind of line may carry,
and the README's grammar lists the same forms.  ``write`` writes a whole
``FixtureSet`` back, each line checked against ``GRAMMAR``, and its text
reads back to the same fixtures: ``write(parse_text(write(fx))) == write(fx)``.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

from . import graphs
from .complexes import make_complex
from .errors import FixtureError
from .groups import TRIVIAL, GroupRef, GroupTable
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
_NO_KEYS = MappingProxyType({})

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


def _reader(block, kind, form):
    """The reader of ``kind`` lines of ``block`` by their ``GRAMMAR`` form:
    ``(ln, text, words) -> (ln, words, flags, keys)``.  A missing or extra
    word, or a key the form does not list, is malformed input."""
    arity, allowed_flags, allowed_keys, optional = form
    label = block if kind in (block, None) else f"{block} {kind}"

    def read(ln, text, words, header=False):
        keys = _NO_KEYS
        if "=" in text:
            keys, tokens, words = {}, words, []
            for tok in tokens:
                key, eq, value = tok.partition("=")
                if eq:
                    keys[key] = value
                else:
                    words.append(tok)
        flags = _NO_FLAGS
        if allowed_flags and not allowed_flags.isdisjoint(words):
            flags = allowed_flags.intersection(words)
            words = [w for w in words if w not in flags]
        if not arity - optional <= len(words) <= arity:
            if header:
                raise FixtureError("expected: " + " ".join([block] + ["<name>"] * (arity - 1)), line=ln)
            raise FixtureError(f"bad {block} line: {text.strip()!r}", line=ln)
        if keys and not allowed_keys.issuperset(keys):
            unknown = next(key for key in keys if key not in allowed_keys)
            raise FixtureError(f"unknown {label} key {unknown!r}", line=ln)
        return ln, words, flags, keys

    return read


_HEADERS = {block: _reader(block, kind, form) for (block, kind), form in GRAMMAR.items() if kind == block}
_READERS = {}  # block -> body line kind -> its reader, derived once
for (_block, _kind), _form in GRAMMAR.items():
    if _kind != _block:
        _READERS.setdefault(_block, {})[_kind] = _reader(_block, _kind, _form)


def _read(block, ln, text, words, header=False):
    """``(ln, words, flags, keys)`` of ``text``, line ``ln`` of ``block``
    with its comment stripped, split once into ``words``, by the reader of
    its kind: ``block`` for a header, the fourth positional word of a
    restrict line, none for a config line, else the first positional word,
    which a body line shares with no header; ``words`` are then the
    positional words, the kind word first."""
    if header:
        return _HEADERS[block](ln, text, words, header)
    positional = [w for w in words if "=" not in w] if "=" in text else words
    kind = (positional[3:4] if block == "restrict" else [] if block == "config" else positional[:1]) or [None]
    read = _READERS[block].get(kind[0])
    if read is None:
        raise FixtureError(f"bad {block} line: {text.strip()!r}", line=ln)
    return read(ln, text, words)


def _id_set(value):
    return frozenset((value or "").split(",")) - {""}


def _cell_line(body, cell):
    """The line of a complex or tree ``body`` declaring ``cell``, or its
    second kind's (vertex, edge, face or ideal point) where a repeat is."""
    found = sorted(({"vertex": 0, "edge": 1}.get(words[0], 2), ln) for ln, words, _f, _k in body if words[1:2] == [cell])
    return found[len(found) > 1][1] if found else None


def parse_text(text, fixture: FixtureSet = None) -> FixtureSet:
    fx, lines = fixture or FixtureSet(), text.splitlines()
    if "#" in text:  # strip the comments
        lines = [line[: line.index("#")] if "#" in line else line for line in lines]
    # (line number, text, words) of each line that is not blank, split once
    rows = filter(itemgetter(2), zip(range(1, len(lines) + 1), lines, map(str.split, lines)))
    for ln, line, words in rows:
        head = next((w for w in words if "=" not in w), None)
        if head is None:
            raise FixtureError(f"expected a block header, got {line.strip()!r}", line=ln)
        body = ()
        try:
            if head == "restrict":
                _parse_restrict(fx, _read(head, ln, line, words))
            elif head in _BLOCKS:
                header, body = _read(head, ln, line, words, header=True), []
                by_word = {} if head == "config" else _READERS[head]  # a line led by its kind word goes to its reader
                for at, text_at, words_at in rows:  # the block's lines, up to its end
                    if words_at == ["end"]:
                        break
                    read = by_word.get(words_at[0])
                    body.append(read(at, text_at, words_at) if read else _read(head, at, text_at, words_at))
                else:
                    raise FixtureError("unterminated block", line=ln)
                _BLOCKS[head](fx, header, body)
            else:
                raise FixtureError(f"unknown block {head!r}", line=ln)
        except FixtureError as exc:
            if exc.line is None:  # tie a failing cell to its line, and any other block-level failure to the header
                raise type(exc)(str(exc), line=_cell_line(body, exc.cell) or ln) from exc
            raise
        except Exception as exc:
            raise FixtureError(str(exc), line=ln) from exc
    return fx


def parse_fixture(path, fixture: FixtureSet = None) -> FixtureSet:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FixtureError(f"cannot read fixture {path}: {exc}") from exc
    return parse_text(text, fixture)


def parse_fixtures(paths) -> FixtureSet:
    fx = FixtureSet()
    for path in paths:
        parse_fixture(path, fx)
    return fx


def _parse_groups(fx, header, body):
    for _ln, (_, gid), flags, keys in body:
        fx.groups.add(GroupRef(
            gid, is_slender=not flags.isdisjoint({"slender", "finite"}), is_h_elliptic="helliptic" in flags,
            is_finite="finite" in flags, declared_supergroups=_id_set(keys.get("sub-of")),
        ))
    fx.groups.validate()


def _read_cells(body, third, *words_of_third):
    """The vertices, edges and cells of the ``third`` kind (by
    ``words_of_third``) of a complex or tree ``body``, each id to the words
    after it; the flagged ids; and ``{key: {id: value}}``.  An id repeated
    within its kind is malformed input."""
    vertices, edges, thirds = {}, {}, {}
    into = {"vertex": vertices, "edge": edges, **dict.fromkeys(words_of_third, thirds)}
    flagged, labels = [], defaultdict(dict)
    for ln, words, flags, keys in body:
        cell, ids = words[1], into[words[0]]
        if cell in ids:
            raise FixtureError(f"{third if ids is thirds else words[0]} {cell!r} is declared twice", line=ln)
        ids[cell] = tuple(words[2:])
        if flags:
            flagged.append(cell)
        if keys:
            for key, value in keys.items():
                labels[key][cell] = value
    return vertices, edges, thirds, flagged, labels


def _parse_complex(fx, header, body):
    vertices, edges, faces, marked, labels = _read_cells(body, "face", "triangle", "bigon")
    fx.complexes[header[1][1]] = make_complex(vertices, edges, faces, labels["stab"], labels["orbit"], marked, labels["stabplus"], fx.groups)


def _parse_tree(fx, header, body):
    vertices, edges, ideal, _flagged, labels = _read_cells(body, "ideal point", "ideal")
    rays = labels["ray"]
    ideal = {p: tuple(rays[p].split(",")) if p in rays else () for p in ideal}
    fx.trees[header[1][1]] = make_tree(vertices, edges, ideal, labels["stab"], labels["orbit"], fx.groups)


def _parse_actions(fx, header, body):
    _ln, (_, tree_name), _flags, _keys = header
    if tree_name not in fx.trees:
        raise FixtureError(f"actions block references unknown tree {tree_name!r}")
    table = fx.actions.setdefault(tree_name, ActionTable(fx.trees[tree_name], fx.groups))
    for ln, (kind, gid), flags, keys in body:
        try:
            if kind == "elliptic":
                table.declare_descriptors(gid, [ActionDescriptor(kind="elliptic", fixed=_id_set(keys.get("fix")), group=gid)])
            elif kind == "hyperbolic":
                ends = tuple(keys.get("ends", "").split(","))
                table.declare_descriptors(gid, [ActionDescriptor(kind="hyperbolic", ends=ends, swaps_ends="swaps" in flags, group=gid)])
            else:
                table.declare_parabolic(gid, keys.get("end"))
        except FixtureError as exc:  # a refused annotation names its own line
            raise type(exc)(str(exc), line=ln) from exc


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
    fx.gogs[name] = make_gog(name, vertices, edges, flags=vflags, reduced="reduced" in flags, jsj="jsj" in flags, groups=fx.groups)


def _parse_hierarchy(fx, header, body):
    _ln, (_, name), flags, _keys = header
    nodes = {}
    for ln, (_, nid, gid), _flags, keys in body:
        if nid in nodes:
            raise FixtureError(f"hierarchy node {nid!r} is declared twice", line=ln)
        action = None
        if "action" in keys:
            if keys["action"] not in fx.gogs:
                raise FixtureError(f"unknown gog {keys['action']!r}", line=ln)
            action = fx.gogs[keys["action"]]
        nodes[nid] = HNode(id=nid, group=gid, action=action, parent=keys.get("parent"))
    for ln, (_, nid, _gid), _flags, keys in body:
        parent = keys.get("parent")
        if parent:
            at = keys.get("at")
            if at is None:
                raise FixtureError(f"hierarchy node {nid!r} needs at=<action vertex>", line=ln)
            if parent not in nodes:
                raise FixtureError(f"hierarchy node {nid!r} names unknown parent {parent!r}", line=ln)
            children = nodes[parent].children
            if at in children:
                raise FixtureError(
                    f"hierarchy nodes {children[at]!r} and {nid!r} both sit at {at!r} under {parent!r}", line=ln
                )
            children[at] = nid
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


def _config_int(keys, key, ln, default):
    """The integer that config line ``ln`` sets ``key`` to, or ``default``."""
    try:
        return int(keys.get(key, default))
    except ValueError:
        raise FixtureError(f"config: {key} must be an integer", line=ln) from None


def _parse_config(fx, header, body):
    for ln, _words, _flags, keys in body:
        fx.config.horizon = _config_int(keys, "horizon", ln, fx.config.horizon)
        # link-cap and seed are still checked, but nothing reads them
        if _config_int(keys, "link-cap", ln, 3) < 3:
            raise FixtureError("config: link-cap must be at least 3", line=ln)
        _config_int(keys, "seed", ln, 0)
        if "relative" in keys:
            fx.config.relative_class = _id_set(keys["relative"])
    fx.config.validate()


def _parse_pipeline(fx, header, body):
    _ln, (_, name), _flags, header_keys = header
    if "root" not in header_keys:
        raise FixtureError("expected: pipeline <name> root=<structure>")
    root = header_keys["root"]
    nodes, node_line = {}, {}
    for ln, (kind, nid), _flags, keys in body:
        if kind == "node":
            if nid in nodes:
                raise FixtureError(f"script node {nid!r} is declared twice", line=ln)
            node_line[nid] = ln
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
    # each node at its own line: a declared parent, one child per orbit of
    # a parent (a child without an orbit fails only once its parent is
    # expanded), a node the root reaches, a declared tree and a declared
    # node to repeat.  The root is the first node, and a node reaches its
    # children and the node it repeats
    root_node, succ = next(iter(nodes)), {}
    for nid, node in nodes.items():
        succ.setdefault(node.parent, []).append(nid)
        if node.repeat is not None:
            succ.setdefault(nid, []).append(node.repeat)
    reached = graphs.reached(succ, root_node)
    sits = {}
    for nid, node in nodes.items():
        ln = node_line[nid]
        if node.parent is not None:
            if node.parent not in nodes:
                raise FixtureError(f"script node {nid!r} names unknown parent {node.parent!r}", line=ln)
            if node.orbit is not None:
                sibling = sits.setdefault((node.parent, node.orbit), nid)
                if sibling != nid:
                    raise FixtureError(
                        f"script nodes {sibling!r} and {nid!r} both sit at orbit {node.orbit!r} under {node.parent!r}",
                        line=ln,
                    )
        if nid not in reached:
            raise FixtureError(f"script node {nid!r} is not reached from the root node {root_node!r}", line=ln)
        if node.tree is not None and node.tree not in fx.trees:
            raise FixtureError(f"script node {nid!r} references unknown tree {node.tree!r}", line=ln)
        if node.repeat is not None and node.repeat not in nodes:
            raise FixtureError(f"script node {nid!r} repeats unknown node {node.repeat!r}", line=ln)
    fx.pipelines[name] = PipelineScript(name=name, root_structure=root, root_node=root_node, nodes=nodes)


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
# writing


def _line(block, words, flags=(), keys=(), header=False):
    """One line of ``block``: ``words``, ``flags``, then ``key=value`` per
    pair of ``keys``, each left out when empty.  It is read back as the
    reader reads it, and a line the reader refuses or reads otherwise, such
    as one with a space, ``=`` or ``#`` in a word, is malformed."""
    words, flags = [w for w in words if w], [f for f in flags if f]
    keys = {key: value for key, value in keys if value}
    text = " ".join(words + flags + [f"{key}={value}" for key, value in keys.items()])
    line = text.split("#", 1)[0]
    if _read(block, None, line, line.split(), header)[1:] != (words, set(flags), keys):
        raise FixtureError(f"cannot write {text!r} as a {block} line")
    return text


def write(fx: FixtureSet) -> str:
    """``fx`` as fixture text, each block after those it names.  A block
    with nothing to say is left out: the groups when only the trivial group
    is declared, and the config when it is the default."""
    out = []

    def block(head, lines, flags=(), keys=()):
        out.append(_line(head[0], head, flags, keys, header=True))
        out.extend("  " + _line(head[0], *line) for line in lines)
        out.append("end")

    def cell(s, words, flags=(), *keys):
        return words, flags, [("stab", s.stab[words[1]]), ("orbit", s.orbit[words[1]]), *keys]

    refs = [fx.groups[gid] for gid in sorted(fx.groups.ids() - {TRIVIAL})]
    if refs:
        block(["groups"], [(["group", r.id], ["finite" if r.is_finite else "slender" * r.is_slender, "helliptic" * r.is_h_elliptic],
                            [("sub-of", ",".join(sorted(fx.groups.up[r.id])))]) for r in refs])
    for name, x in fx.complexes.items():
        block(["complex", name], [
            *(cell(x, ["vertex", v], ["marked" * (v in x.boundary_marked)]) for v in sorted(x.vertices)),
            *(cell(x, ["edge", e, *x.edges[e]], (), ("stabplus", x.stab_plus.get(e))) for e in sorted(x.edges)),
            *(cell(x, ["triangle" if len(x.faces[f]) == 3 else "bigon", f, *x.faces[f]]) for f in sorted(x.faces)),
        ])
    for name, t in fx.trees.items():
        block(["tree", name], [
            *(cell(t, ["vertex", v]) for v in sorted(t.vertices)),
            *(cell(t, ["edge", e, *t.edges[e]]) for e in sorted(t.edges)),
            *((["ideal", p], (), [("ray", ",".join(t.ideal_points[p]))]) for p in sorted(t.ideal_points)),
        ])
    for name, table in fx.actions.items():
        block(["actions", name], [
            *(([d.kind, gid], ["swaps" * d.swaps_ends], [("fix", ",".join(sorted(d.fixed))), ("ends", ",".join(d.ends))])
              for gid, ds in table.descriptors.items() for d in ds),
            *((["parabolic", gid], (), [("end", end)]) for gid, end in table.parabolic.items()),
        ])
    for name, g in fx.gogs.items():
        block(["gog", name], [
            *((["vertex", v, g.vertices[v]], GRAMMAR["gog", "vertex"].flags & {g.flags.get(v)}) for v in sorted(g.vertices)),
            *((["edge", e, *g.edges[e]],) for e in sorted(g.edges)),
        ], flags=["reduced" * g.reduced, "jsj" * g.jsj])
    for name, h in fx.hierarchies.items():
        at = {cid: vid for node in h.nodes.values() for vid, cid in node.children.items()}
        block(["hierarchy", name], [
            (["node", nid, n.group], (), [("action", n.action and n.action.name), ("parent", n.parent), ("at", at.get(nid))])
            for nid, n in sorted(h.nodes.items(), key=lambda item: item[0] != h.root)
        ], flags=["jsj" * h.jsj])
    for name, ks in fx.structures.items():
        attached = [(["attach", nid], (), [("complex", next(c for c, y in fx.complexes.items() if y is x))])
                    for nid, x in ks.terminal_complexes.items() if x is not None]
        block(["structure", name], attached, keys=[("hierarchy", ks.hierarchy.name)])
    for (gid, gog_name), r in fx.restrictions.entries.items():
        origins = ",".join(f"{sv}:{origin}" for sv, origin in sorted((r.origins or {}).items()))
        out.append(_line("restrict", ["restrict", gid, gog_name, r.kind, r.child or r.sub.name, origins]))
    if fx.config != PipelineConfig():
        block(["config"], [([], (), [("horizon", str(fx.config.horizon)), ("relative", ",".join(sorted(fx.config.relative_class)))])])
    for name, script in fx.pipelines.items():
        lines = []
        for nid, n in sorted(script.nodes.items(), key=lambda item: item[0] != script.root_node):
            lines += [(["node", nid], (), [("tree", n.tree), ("parent", n.parent), ("orbit", n.orbit), ("repeat", n.repeat)]),
                      *((["override", nid], (), [("edge-orbit", e), ("stabplus", gid)]) for e, gid in n.overrides.items())]
        block(["pipeline", name], lines, keys=[("root", script.root_structure)])
    return "".join(line + "\n" for line in out)
