import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter

import pytest

from passdown.cli import main
from passdown.complexes import covolume
from passdown.errors import FixtureError
from passdown.fixtures import FixtureSet, parse_fixtures, parse_text, write
from passdown.hierarchy import Restriction
from passdown.pipeline import run_pipeline

from bench_ops import workloads
from generators import random_cell_complex, random_treehat

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")
# the last node line of the worked fixture's pipeline, line 76
LAST_NODE = "  node b1 parent=a1 orbit=op repeat=a1\n"
# three edges round a cycle with no face, over a one-edge tree
EDGE_CYCLE = (
    "complex X\n  vertex a\n  vertex b\n  vertex c\n  edge ab a b\n  edge bc b c\n  edge ac a c\nend\n"
    "tree T\n  vertex x0\n  vertex x1\n  edge f x0 x1\nend\n"
)
# two edges, each from x0 to x1, and nothing between them
TWO_COMPONENTS = (
    "groups\n  group Ga slender helliptic\n  group Gb slender helliptic\nend\n"
    "complex X\n  vertex a marked stab=Ga\n  vertex b marked stab=Gb\n  vertex c stab=Ga\n  vertex d stab=Gb\n"
    "  edge ab a b\n  edge cd c d\nend\n"
    "tree T\n  vertex x0\n  vertex x1\n  edge f x0 x1\nend\nactions T\n  elliptic Ga fix=x0\n  elliptic Gb fix=x1\nend\n"
)
# two triangles on the vertex v, whose label P is not slender, so the
# cutpoint split merges v into one piece, and acts parabolically
NONELLIPTIC_CUTPOINT = (
    "groups\n  group P helliptic\n  group G slender helliptic\nend\n"
    "complex X\n  vertex v stab=P\n  vertex a marked stab=G\n  vertex b stab=G\n  vertex c marked stab=G\n"
    "  vertex d stab=G\n  edge va v a\n  edge vb v b\n  edge ab a b\n  edge vc v c\n  edge vd v d\n  edge cd c d\n"
    "  triangle t1 va ab vb\n  triangle t2 vc cd vd\nend\n"
    "tree T\n  vertex x0\n  vertex x1\n  edge f x0 x1\n  ideal p ray=x1,x0\nend\n"
    "actions T\n  elliptic G fix=x1\n  parabolic P end=p\nend\n"
    "hierarchy K\n  node r 1\nend\nstructure S hierarchy=K\n  attach r complex=X\nend\n"
    "pipeline par root=S\n  node w0 tree=T\nend\n"
)


def fixture(name):
    return os.path.join(FIX, name)


class TestParsing:
    def test_minimal_triangle(self):
        fx = parse_text(
            """
complex X
  vertex a
  vertex b
  vertex c
  edge ab a b
  edge bc b c
  edge ac a c
  triangle t ab bc ac
end
"""
        )
        assert len(fx.complexes["X"].vertices) == 3
        assert covolume(fx.complexes["X"]) == 1

    def test_missing_edge_is_reported_with_line(self):
        with pytest.raises(FixtureError) as info:
            parse_text(
                """
complex X
  vertex a
  vertex b
  edge ab a b
  triangle t ab bc ac
end
"""
            )
        assert "line" in str(info.value)

    def test_unterminated_block(self):
        with pytest.raises(FixtureError):
            parse_text("complex X\n  vertex a\n")

    def test_roundtrip_serialize_parse(self):
        rng = random.Random(5)
        for _ in range(200):
            x = random_cell_complex(rng)
            text = write(FixtureSet(complexes={"X": x}))
            fx = parse_text(text)
            y = fx.complexes["X"]
            assert y.vertices == x.vertices
            assert y.edges == x.edges
            assert y.faces == x.faces
            assert y.stab == x.stab
            assert y.orbit == x.orbit
            assert y.boundary_marked == x.boundary_marked
            assert write(FixtureSet(complexes={"X": y})) == text

    def test_tree_roundtrip(self):
        rng = random.Random(6)
        for _ in range(25):
            t = random_treehat(rng)
            text = write(FixtureSet(trees={"T": t}))
            fx = parse_text(text)
            s = fx.trees["T"]
            assert s.vertices == t.vertices
            assert s.edges == t.edges
            assert s.ideal_points == t.ideal_points
            assert write(FixtureSet(trees={"T": s})) == text

    def test_groups_parse_with_declared_order(self):
        fx = parse_text(
            """groups
  group A helliptic
  group B slender helliptic sub-of=A
end
"""
        )
        assert fx.groups.leq("B", "A")
        assert not fx.groups.leq("A", "B")
        assert write(fx).count("\n  group ") == 2

    def test_groups_closure_validated(self):
        with pytest.raises(FixtureError):
            parse_text(
                """
groups
  group S slender
  group Bad sub-of=S
end
"""
            )


    def test_dinfty_config_flags(self):
        # no D-infinity action is always assumed: the flag saying so parses,
        # the one that would lift it is malformed
        assert parse_text("config\n  horizon=3 no-dinfty\nend\n").config.horizon == 3
        with pytest.raises(FixtureError, match="line 2: bad config line: 'allow-dinfty'"):
            parse_text("config\n  allow-dinfty\nend\n")

    _GOGS = "groups\n  group A\n  group B sub-of=A\nend\ngog G\n  vertex v0 A\nend\ngog H\n  vertex s0 B\nend\n"

    def test_restrict_lines_parse(self):
        fx = parse_text(self._GOGS + "restrict B G elliptic v0\nrestrict A G split H s0:v0\n")
        assert fx.restrictions.get("B", "G") == Restriction(kind="elliptic", child="v0")
        assert fx.restrictions.get("A", "G") == Restriction(kind="split", sub=fx.gogs["H"], origins={"s0": "v0"})

    @pytest.mark.parametrize(
        "line, message",
        [
            ("restrict NOPE G elliptic v0", "line 11: unknown group id 'NOPE'"),
            ("restrict B NOGOG elliptic v0", "line 11: unknown gog 'NOGOG'"),
            ("restrict NOPE NOGOG elliptic v0", "line 11: unknown group id 'NOPE'"),
            ("restrict A NOGOG split H s0:v0", "line 11: unknown gog 'NOGOG'"),
            ("restrict A G split NOGOG s0:v0", "line 11: unknown gog 'NOGOG'"),
            ("restrict B G elliptic NOPE", "line 11: 'NOPE' is no vertex of gog 'G'"),
            ("restrict A G split H zz:qq", "line 11: 'zz' is no vertex of gog 'H'"),
            ("restrict A G split H s0:qq", "line 11: 'qq' is no vertex of gog 'G'"),
        ],
    )
    def test_restrict_with_an_unknown_name_exit_code(self, line, message, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(self._GOGS + line + "\n")
        assert main(["h1", str(bad), "--complex", "X"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_child_node_without_at_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(self._GOGS + "hierarchy K\n  node r A action=G\n  node c A parent=r\nend\n")
        assert main(["h1", str(bad), "--complex", "X"]) == 2
        assert capsys.readouterr().err == "error: line 13: hierarchy node 'c' needs at=<action vertex>\n"

    @pytest.mark.parametrize(
        "nodes, message",
        [
            ("  node r A action=G\n  node c B parent=r at=v0\n  node d B parent=r at=v0\n",
             "line 14: hierarchy nodes 'c' and 'd' both sit at 'v0' under 'r'"),
            ("  node r A action=G\n  node r A action=G\n", "line 13: hierarchy node 'r' is declared twice"),
            ("  node r A action=G\n  node c B parent=zz at=v0\n", "line 13: hierarchy node 'c' names unknown parent 'zz'"),
        ],
        ids=["two children at one vertex", "a repeated node id", "an unknown parent"],
    )
    def test_a_malformed_hierarchy_node_exit_code(self, nodes, message, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(self._GOGS + "hierarchy K\n" + nodes + "end\n")
        assert main(["h1", str(bad), "--complex", "X"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_repeated_script_node_exit_code(self, tmp_path, capsys):
        with open(fixture("worked_terminating.txt"), encoding="utf-8") as fh:
            text = fh.read()
        line = "  node a0 parent=w0 orbit=o0 tree=PT\n"
        bad = tmp_path / "bad.txt"
        bad.write_text(text.replace(line, line * 2))
        assert main(["pipeline", str(bad), "--name", "worked"]) == 2
        assert capsys.readouterr().err == "error: line 74: script node 'a0' is declared twice\n"

    @pytest.mark.parametrize(
        "line, edited, message",
        [
            ("  node a0 parent=w0 orbit=o0 tree=PT\n", "  node a0 parent=zz orbit=o0 tree=PT\n",
             "line 73: script node 'a0' names unknown parent 'zz'"),
            ("  node a1 parent=w0 orbit=o1 tree=PT\n", "  node a1 parent=w0 orbit=o0 tree=PT\n",
             "line 74: script nodes 'a0' and 'a1' both sit at orbit 'o0' under 'w0'"),
            ("  node a0 parent=w0 orbit=o0 tree=PT\n", "  node a0 parent=w0 orbit=o0 tree=nope\n",
             "line 73: script node 'a0' references unknown tree 'nope'"),
            ("  node b0 parent=a0 orbit=op repeat=a0\n", "  node b0 parent=a0 orbit=op repeat=zz\n",
             "line 75: script node 'b0' repeats unknown node 'zz'"),
            (LAST_NODE, LAST_NODE + "  node q0 parent=q0 orbit=o0 tree=PT\n",
             "line 77: script node 'q0' is not reached from the root node 'w0'"),
            (LAST_NODE, LAST_NODE + "  node q0 parent=q1 orbit=o0 tree=PT\n  node q1 parent=q0 orbit=o0 tree=PT\n",
             "line 77: script node 'q0' is not reached from the root node 'w0'"),
            (LAST_NODE, LAST_NODE + "  node q0 tree=PT\n",
             "line 77: script node 'q0' is not reached from the root node 'w0'"),
        ],
        ids=[
            "an unknown parent", "two children at one orbit", "an unknown tree", "an unknown repeat",
            "its own parent", "a cycle of parents", "a second parentless node",
        ],
    )
    def test_a_malformed_script_node_exit_code(self, line, edited, message, tmp_path, capsys):
        with open(fixture("worked_terminating.txt"), encoding="utf-8") as fh:
            text = fh.read()
        assert line in text
        bad = tmp_path / "bad.txt"
        bad.write_text(text.replace(line, edited))
        assert main(["pipeline", str(bad), "--name", "worked"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestOSBoundary:
    """A path the system cannot read or write is malformed input: exit 2
    with a message naming the path, and no traceback."""

    def test_a_missing_fixture(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        assert main(["h1", missing, "--complex", "X"]) == 2
        assert capsys.readouterr().err == f"error: cannot read fixture {missing}: [Errno 2] No such file or directory: {missing!r}\n"

    def test_a_directory_as_the_fixture(self, capsys):
        assert main(["h1", FIX, "--complex", "X"]) == 2
        assert capsys.readouterr().err == f"error: cannot read fixture {FIX}: [Errno 21] Is a directory: {FIX!r}\n"

    def test_a_fixture_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"complex X\n  vertex \xff\nend\n")
        assert main(["h1", str(bad), "--complex", "X"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read fixture {bad}: 'utf-8' codec can't decode byte 0xff in position 19: invalid start byte\n"
        )

    def test_a_dot_directory_under_a_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        target = str(tmp_path / "file" / "sub")
        assert main(["--dot", target, "pipeline", fixture("worked_terminating.txt"), "--name", "worked"]) == 2
        assert capsys.readouterr().err == f"error: cannot write DOT files to {target}: [Errno 20] Not a directory: {target!r}\n"

    def test_a_fixture_is_read_as_utf8_whatever_the_locale(self, tmp_path):
        """Under the C locale, with UTF-8 mode and locale coercion off, the
        locale's encoding is ASCII; a non-ASCII comment still reads."""
        path = tmp_path / "utf8.txt"
        with open(fixture("worked_terminating.txt"), encoding="utf-8") as fh:
            path.write_text("# f\u00fcr\n" + fh.read(), encoding="utf-8")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
        code = "import sys; from passdown.cli import main; sys.exit(main(['h1', sys.argv[1], '--complex', 'XP']))"
        proc = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


class TestCommands:
    def test_h1_and_reduce(self, capsys):
        assert main(["h1", fixture("worked_terminating.txt"), "--complex", "XP"]) == 0
        assert capsys.readouterr().out.strip() == "0"
        assert main(["reduce", fixture("worked_terminating.txt"), "--complex", "XP"]) == 0
        out = capsys.readouterr().out
        assert "complex XP.reduced" in out

    def test_cutpoints(self, capsys):
        assert main(["cutpoints", fixture("worked_terminating.txt"), "--complex", "XP"]) == 0
        assert "(none)" in capsys.readouterr().out

    def test_classify(self, capsys):
        rc = main(
            ["classify", fixture("worked_terminating.txt"), "--tree", "T0", "--group", "Gab"]
        )
        assert rc == 0
        assert "elliptic" in capsys.readouterr().out

    def test_resolve_and_split(self, capsys):
        rc = main(
            ["resolve", fixture("worked_terminating.txt"), "--complex", "XP", "--tree", "T0"]
        )
        assert rc == 0
        assert "splitting" in capsys.readouterr().out
        rc = main(["split", fixture("worked_terminating.txt"), "--complex", "XP", "--tree", "T0"])
        assert rc == 0
        assert "covolume 3 -> 2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [["split", "--complex", "XP", "--tree", "T0"], ["pipeline", "--name", "worked"]], ids=["split", "pipeline"]
    )
    def test_a_collapse_numbers_segments_alike_however_an_edge_is_stored(self, argv, tmp_path, capsys):
        """Edges ``bc`` and ``bd`` share orbit ``oX``, and ``ac`` and ``ad``
        orbit ``oY``, between vertex orbits ``P`` (a, b) and ``Q`` (c, d),
        with ``t1`` and ``t2`` in one face orbit, so that the edges of each
        orbit lie on faces of the same orbits.  The collapse numbers an
        edge's segments from its end in the least vertex orbit, ``P``, so
        segment orbit ``oX.0`` joins ``P`` to a track point whether ``bd``
        is stored from its ``P`` end or from its ``Q`` end: both storages
        collapse, and print alike."""
        with open(fixture("worked_terminating.txt"), encoding="utf-8") as fh:
            text = fh.read()
        for old, new in (
            ("vertex a marked stab=Ga", "vertex a marked stab=Ga orbit=P"),
            ("vertex b stab=Gb", "vertex b stab=Ga orbit=P"),
            ("vertex c marked stab=Gc", "vertex c marked stab=Gc orbit=Q"),
            ("vertex d stab=Gd", "vertex d stab=Gc orbit=Q"),
            ("edge ac a c stab=Gcr", "edge ac a c stab=Gcr orbit=oY"),
            ("edge bc b c stab=Gcr", "edge bc b c stab=Gcr orbit=oX"),
            ("edge ad a d stab=Gcr", "edge ad a d stab=Gcr orbit=oY"),
            ("edge bd b d stab=Gcr", "edge bd b d stab=Gcr orbit=oX"),
            ("triangle t1 ab bc ac stab=Gf", "triangle t1 ab bc ac stab=Gf orbit=oT"),
            ("triangle t2 ab bd ad stab=Gf", "triangle t2 ab bd ad stab=Gf orbit=oT"),
        ):
            assert text.count(old + "\n") == 1
            text = text.replace(old + "\n", new + "\n")
        outs = []
        for name, stored in (("forward", text), ("reversed", text.replace("edge bd b d ", "edge bd d b "))):
            path = tmp_path / f"{name}.txt"
            path.write_text(stored)
            assert main([argv[0], str(path), *argv[1:]]) == 0
            outs.append(capsys.readouterr())
        assert outs[0].err == outs[1].err == ""
        assert outs[0].out == outs[1].out
        if argv[0] == "split":
            assert "orbit=oX.0" in outs[0].out

    def test_a_contraction_refuses_an_orbit_it_collapses_in_part(self, tmp_path, capsys):
        """Vertices v and w share orbit ``o`` and label M, and every vertex
        maps to the ideal point p.  The boundary edge uv collapses v with u
        (label L) into one vertex with a fresh slender label, and joins
        orbit ``o`` with u's into one class; w, a component of its own,
        keeps M.  The class carries both labels, so the contraction
        refuses it, naming w's input label beside the component's."""
        text = (
            "groups\n  group L slender\n  group M slender\n  group E slender sub-of=L,M\nend\n"
            "complex X\n  vertex u stab=L\n  vertex v stab=M orbit=o\n  vertex w stab=M orbit=o\n"
            "  edge uv u v stab=E\nend\n"
            "tree T\n  vertex x0\n  vertex x1\n  edge f0 x0 x1\n  ideal p ray=x0,x1\n  ideal q ray=x1,x0\nend\n"
            "actions T\n  elliptic E fix=x0\n  hyperbolic L ends=p,q\n  hyperbolic M ends=p,q\nend\n"
        )
        bad = tmp_path / "orbit.txt"
        bad.write_text(text)
        assert main(["contract", str(bad), "--complex", "X", "--tree", "T"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: orbit 'o' carries several stabilizer labels: ['M', 'cmp.0']\n"

    def test_tracks_listing(self, capsys):
        rc = main(["tracks", fixture("worked_terminating.txt"), "--complex", "XP", "--tree", "T0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "essential" in out and "track" in out

    def test_passdown_ledger(self, capsys):
        rc = main(
            ["passdown", fixture("worked_terminating.txt"), "--structure", "S0", "--tree", "T0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "covolume[input] = 3" in out
        assert "covolume[output] = 2" in out

    def test_malformed_fixture_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        for text in (
            "complex X\n  triangle t a b c\nend\n",
            "a=b\n",
            "config\n  horizn=9\nend\n",
            "config\n  link-cap=2\nend\n",
            "complex X\n  vertex a\n  vertex b\n  vertex c\n  edge ab a b\n  edge bc b c\n  edge ac a c\n"
            "  triangle t1 ab bc ac\n  triangle t2 ab bc cd\nend\n",
            "pipeline P root=S0\nend\n",
            "tree T jsj\n  vertex x0\nend\n",
        ):
            bad.write_text(text)
            assert main(["h1", str(bad), "--complex", "X"]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err
        assert "line 2: unknown config key 'horizn'" in err
        assert "line 2: config: link-cap must be at least 3" in err
        assert "face 't2' references missing edge 'cd'" in err
        assert "line 1: pipeline 'P' needs at least one node" in err
        assert "line 1: expected: tree <name>" in err

    _SIDES = "complex X\n  vertex a\n  vertex b\n  vertex c\n  vertex d\n  edge ab a b\n  edge ab2 a b\n  edge bc b c\n  edge cd c d\n"

    @pytest.mark.parametrize(
        "face, message",
        [
            ("bigon f ab bc", "bigon 'f' edges do not share both endpoints"),
            ("triangle f ab bc cd", "triangle 'f' does not close up on 3 vertices"),
            ("triangle f ab ab2 bc", "triangle 'f' edges do not close up combinatorially"),
            ("bigon f ab ab", "face 'f' repeats an edge"),
        ],
        ids=["bigon", "four-corners", "two-pairs", "repeat"],
    )
    def test_a_face_that_does_not_close_up_exit_code(self, face, message, tmp_path, capsys):
        """A face must be a bigon on one vertex pair or a triangle on
        three pairs of three corners; the refusal names the face's line."""
        bad = tmp_path / "bad.txt"
        bad.write_text(f"{self._SIDES}  {face}\nend\n")
        assert main(["h1", str(bad), "--complex", "X"]) == 2
        assert capsys.readouterr().err == f"error: line 10: {message}\n"

    _AB = "groups\n  group A\n  group B\nend\n"
    _TRI = (
        "  vertex a stab=A\n  vertex b stab=A\n  vertex c stab={c}\n  edge ab a b stab=A\n"
        "  edge bc b c stab=A\n  edge ac a c stab=A\n  triangle t ab bc ac stab={t}\nend\n"
    )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("complex X\n  vertex a stab=NOPE\nend\n", "line 2: unknown group id 'NOPE'"),
            (
                "complex X\n  vertex a\n  vertex b\n  edge ab a b stabplus=NOPE\nend\n",
                "line 4: unknown group id 'NOPE'",
            ),
            (
                _AB + "complex X\n" + _TRI.format(c="A", t="B"),
                "line 12: face 't' stabilizer 'B' not declared inside edge 'ab' stabilizer",
            ),
            (
                _AB + "complex X\n" + _TRI.format(c="B", t="A"),
                "line 12: face 't' stabilizer 'A' not declared inside vertex 'c' stabilizer",
            ),
            (
                _AB + "complex X\n  vertex a stab=A\n  vertex b stab=B\n  edge ab a b stab=A\nend\n",
                "line 8: edge 'ab' stabilizer 'A' not declared inside vertex 'b' stabilizer",
            ),
            (
                _AB + "complex X\n  vertex a stab=A orbit=o\n  vertex b stab=B orbit=o\nend\n",
                "line 7: orbit 'o' carries several stabilizer labels: ['A', 'B']",
            ),
            (
                "complex X\n  vertex a\n  vertex b\n  vertex c\n  vertex d\n"
                "  edge ab a b orbit=e\n  edge cd c d orbit=e\nend\n",
                "line 7: edges of orbit 'e' have mismatched endpoint orbits",
            ),
            # an orbit of a cellular action holds cells of one kind
            (
                "complex X\n  vertex a orbit=o\n  vertex b\n  edge ab a b orbit=o\nend\n",
                "line 4: orbit 'o' holds cells of two kinds: edge 'ab' in an orbit of vertex cells",
            ),
            # two faces of one orbit have one multiset of side orbits and of corner orbits
            (
                "complex X\n" + "".join(f"  vertex {v}\n" for v in "abcde")
                + "  edge ab a b\n  edge bc b c\n  edge ac a c\n  edge cd c d\n  edge de d e\n  edge ce c e\n"
                "  triangle t1 ab bc ac orbit=o\n  triangle t2 cd de ce orbit=o\nend\n",
                "line 14: faces of orbit 'o' have mismatched side or corner orbits",
            ),
            # every vertex of an ideal point's ray is a tree vertex
            (
                "tree T\n  vertex a\n  vertex b\n  edge e a b\n  ideal p ray=zz\nend\ncomplex X\n  vertex a\nend\n",
                "line 5: ray of ideal point 'p' references missing vertex 'zz'",
            ),
            (
                "tree T\n  vertex a\n  vertex b\n  edge e a b\n  ideal p\nend\ncomplex X\n  vertex a\nend\n",
                "line 5: ideal point 'p' needs a simple ray",
            ),
            (
                "tree T\n  vertex x0 orbit=o\n  vertex x1\n  edge f0 x0 x1 orbit=o\nend\n"
                "complex X\n  vertex a\nend\n",
                "line 4: orbit 'o' holds cells of two kinds: edge 'f0' in an orbit of vertex cells",
            ),
            # a tree orbit has one label, and its edges one pair of endpoint orbits
            (
                _AB + "tree T\n  vertex x0 stab=A orbit=o\n  vertex x1 stab=B orbit=o\n  edge f x0 x1\nend\n"
                "complex X\n  vertex a\nend\n",
                "line 7: orbit 'o' carries several stabilizer labels: ['A', 'B']",
            ),
            (
                "tree T\n  vertex x0\n  vertex x1\n  vertex x2\n  edge f0 x0 x1 orbit=e\n  edge f1 x1 x2 orbit=e\nend\n"
                "complex X\n  vertex a\nend\n",
                "line 6: edges of orbit 'e' have mismatched endpoint orbits",
            ),
        ],
    )
    def test_bad_label_exit_code_and_message(self, text, message, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["h1", str(bad), "--complex", "X"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    _ACTIONS = (
        "groups\n  group G\nend\ntree T\n  vertex x0\n  vertex x1\n  vertex x2\n  edge f0 x0 x1\n  edge f1 x1 x2\n"
        "  ideal p ray=x1,x0\n  ideal q ray=x1,x2\nend\nactions T\n  elliptic G fix=x1\n  {line}\nend\n"
    )

    @pytest.mark.parametrize(
        "line, message",
        [
            ("elliptic G", "elliptic descriptor needs a nonempty fixed subtree"),
            ("elliptic G fix=zz", "elliptic fixed set mentions missing vertices ['zz']"),
            ("elliptic G fix=x0,x2", "elliptic fixed set is not a connected subtree"),
            ("hyperbolic G ends=p,p", "hyperbolic axis needs two distinct ideal points"),
            ("hyperbolic G ends=p,zz", "axis end 'zz' is not an ideal point"),
            ("parabolic G end=zz", "parabolic end 'zz' is not an ideal point"),
        ],
    )
    def test_a_malformed_action_descriptor_exit_code(self, line, message, tmp_path, capsys):
        """A descriptor that describes no isometry of its tree is refused
        where the actions block declares it, whichever group is then
        classified."""
        bad = tmp_path / "bad.txt"
        bad.write_text(self._ACTIONS.format(line=line))
        assert main(["classify", str(bad), "--tree", "T", "--group", "1"]) == 2
        assert capsys.readouterr().err == f"error: line 15: {message}\n"

    @pytest.mark.parametrize("key", ["horizon", "link-cap", "seed"])
    def test_a_config_value_that_is_no_integer_exit_code(self, key, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"complex X\n  vertex a\nend\nconfig\n  horizon=2\n  {key}=abc\nend\n")
        assert main(["h1", str(bad), "--complex", "X"]) == 2
        assert capsys.readouterr().err == f"error: line 6: config: {key} must be an integer\n"

    def test_a_group_declared_twice_exit_code(self, tmp_path, capsys):
        """A group id declared again with other data names the line of the
        repeat, not the block header."""
        bad = tmp_path / "bad.txt"
        bad.write_text("groups\n  group A slender\n  group A\nend\ncomplex X\n  vertex a stab=A\nend\n")
        assert main(["h1", str(bad), "--complex", "X"]) == 2
        assert capsys.readouterr().err == "error: line 3: group 'A' declared twice with different data\n"

    @pytest.mark.parametrize(
        "line, repeat, message",
        [
            ("  edge cd c d stab=Gcd", "  edge cd c d stab=Gcr", "line 31: edge 'cd' is declared twice"),
            ("  edge f0 x0 x1 stab=E orbit=oe", "  edge f0 x0 x1 stab=E orbit=oe", "line 40: edge 'f0' is declared twice"),
        ],
        ids=["complex", "tree"],
    )
    def test_an_id_declared_twice_in_a_block_exit_code(self, line, repeat, message, tmp_path, capsys):
        """An id repeated within its kind is malformed input naming the
        line of the repeat; it is not merged into the first declaration."""
        with open(os.path.join(FIX, "worked_terminating.txt")) as fh:
            text = fh.read()
        assert text.count(line + "\n") == 1
        bad = tmp_path / "bad.txt"
        bad.write_text(text.replace(line + "\n", f"{line}\n{repeat}\n"))
        assert main(["reduce", str(bad), "--complex", "XP"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("complex X\n  vertex a\nend\ntree T\n  vertex x0\n  tree Q\nend\n", "line 6: bad tree line: 'tree Q'"),
            ("complex X\n  vertex a\n  complex Y\nend\n", "line 3: bad complex line: 'complex Y'"),
        ],
        ids=["tree", "complex"],
    )
    def test_a_header_word_inside_its_block_exit_code(self, text, message, tmp_path, capsys):
        """A block's own header word leads no body line: it declares no
        ideal point or face named by the next word."""
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["h1", str(bad), "--complex", "X"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "edit, argv, code, message",
        [
            (str, ["pipeline", "--name", "nope"], 2, "unknown pipeline 'nope'"),
            (
                lambda text: text.replace("horizon=4 ", "horizon=0 "), ["pipeline", "--name", "worked"], 2,
                "line 67: config: horizon must be at least 1",
            ),
            (
                lambda text: text.replace("  node a1 parent=w0 orbit=o1 tree=PT\n", "").replace(LAST_NODE, ""),
                ["pipeline", "--name", "worked"], 2,
                "script node 'w0': no child declared for vertex orbit 'o1' of tree 'T0'",
            ),
            (lambda text: EDGE_CYCLE, ["tracks", "--complex", "X", "--tree", "T"], 1, "essential-track selection needs h1_z2 = 0"),
            (
                lambda text: TWO_COMPONENTS, ["tracks", "--complex", "X", "--tree", "T"], 1,
                "essential-track selection needs a connected complex",
            ),
            (
                lambda text: NONELLIPTIC_CUTPOINT, ["pipeline", "--name", "par"], 1,
                "[splitting-resolution] cutpoint 'v' of the complex at 'r' does not act elliptically",
            ),
        ],
        ids=["unknown-pipeline", "horizon-0", "no-child", "tracks-on-a-cycle", "tracks-on-two-components", "parabolic-cutpoint"],
    )
    def test_typed_error_exit_code_and_message(self, edit, argv, code, message, tmp_path, capsys):
        """An unknown pipeline, a horizon of 0, a script node with no child
        for a vertex orbit of its tree, tracks asked of a complex with
        h1 != 0 or of two components, and a collapse of a complex with a
        merged cut vertex that does not act elliptically (the worked
        fixture, edited, or a small fixture of its own)."""
        with open(fixture("worked_terminating.txt")) as fh:
            text = fh.read()
        path = tmp_path / "case.txt"
        path.write_text(edit(text))
        assert edit is str or edit(text) != text
        assert main(argv[:1] + [str(path)] + argv[1:]) == code
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["h1", "--complex", "NOPE"],
            ["classify", "--tree", "NOPE", "--group", "Gab"],
            ["classify", "--tree", "T0", "--group", "NOPE"],
            ["passdown", "--structure", "NOPE", "--tree", "T0"],
        ],
    )
    def test_unknown_name_exit_code(self, argv, capsys):
        argv = argv[:1] + [fixture("worked_terminating.txt")] + argv[1:]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_dot_export(self, tmp_path, capsys):
        rc = main(
            [
                "--dot",
                str(tmp_path),
                "resolve",
                fixture("worked_terminating.txt"),
                "--complex",
                "XP",
                "--tree",
                "T0",
            ]
        )
        assert rc == 0
        files = list(tmp_path.iterdir())
        assert files and files[0].suffix == ".dot"
        assert "graph" in files[0].read_text()


class TestPipelines:
    def test_worked_pipeline_certifies(self, capsys):
        assert main(["pipeline", fixture("worked_terminating.txt"), "--name", "worked"]) == 0
        out = capsys.readouterr().out
        assert "covolume ledger: 3 2 2 2 2" in out
        assert "N_delta=1" in out
        assert "certified: every B'_w is a tree at level 1" in out

    def test_f2_pipeline_raises_alert(self, capsys):
        assert main(["pipeline", fixture("f2_style.txt"), "--name", "f2"]) == 1
        out = capsys.readouterr().out
        assert "not certified within the horizon" in out
        assert out.count("ACC alert") == 1

    def test_stable_chain_quiet(self, capsys):
        assert main(["pipeline", fixture("acc_stable.txt"), "--name", "stable"]) == 0
        out = capsys.readouterr().out
        assert "ACC alert" not in out

    def test_certify_command(self, capsys):
        assert main(["certify", fixture("worked_terminating.txt"), "--name", "worked"]) == 0
        assert "certified at level 1" in capsys.readouterr().out

    @pytest.mark.parametrize("override", ["", "  override zz edge-orbit=ab stabplus=Gab\n"])
    def test_child_orbit_outside_the_tree_exit_code(self, override, tmp_path, capsys):
        last = "  node b1 parent=a1 orbit=op repeat=a1\n"
        with open(fixture("worked_terminating.txt")) as fh:
            text = fh.read()
        bad = tmp_path / "bad.txt"
        bad.write_text(text.replace(last, last + "  node zz parent=w0 orbit=nowhere tree=PT\n" + override))
        assert main(["pipeline", str(bad), "--name", "worked"]) == 2
        assert capsys.readouterr().err == (
            "error: script node 'zz': orbit 'nowhere' names no vertex orbit of tree 'T0'\n"
        )

    @pytest.mark.parametrize("parent, code", [("b0", 0), ("a0", 2)])
    def test_a_child_without_orbit_fails_only_when_its_parent_is_expanded(self, parent, code, tmp_path, capsys):
        # b0 repeats a0, so its own children are never read; a0 is expanded
        # at every level from 1 on
        last = "  node b1 parent=a1 orbit=op repeat=a1\n"
        with open(fixture("worked_terminating.txt")) as fh:
            text = fh.read()
        path = tmp_path / "script.txt"
        path.write_text(text.replace(last, last + f"  node zz parent={parent} tree=PT\n"))
        assert main(["pipeline", str(path), "--name", "worked"]) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert err == "" and out == run_pipeline(parse_fixtures([fixture("worked_terminating.txt")]), "worked").render()
        else:
            assert err == "error: script node 'zz' needs orbit=<vertex orbit>\n"

    @pytest.mark.parametrize(
        "nodes, extra, code, err",
        [
            (
                "  node c1\n",
                "",
                2,
                "error: script node 'b1' has no tree but the horizon is not reached; "
                "stall the branch with a point tree instead\n",
            ),
            ("  node c1 repeat=b1\n", "", 2, "error: repeat cycle at script node 'b1'\n"),
            (
                "  node c1 tree=TR\n",
                "tree TR\n  vertex y0\n  vertex y1\n  edge g0 y0 y1\n  ideal pp ray=y1,y0\n  ideal qq ray=y0,y1\nend\n"
                "actions TR\n  hyperbolic BR ends=pp,qq\nend\n",
                1,
                "error: [relative-class] group 'BR' of the relative class is not elliptic on tree 'TR'\n",
            ),
        ],
        ids=["no tree", "repeat cycle", "relative class"],
    )
    def test_a_node_expanded_at_several_levels_fails_as_at_its_first(self, nodes, extra, code, err, tmp_path, capsys):
        """b1 takes the spec of c1 and is expanded at levels 2 and 3 of the
        horizon-4 run: its check fails at level 2, with what the level
        meets first.  c1 declares no children, so reading b1's children
        would fail too, but after these checks."""
        last = "  node b1 parent=a1 orbit=op repeat=a1\n"
        with open(fixture("worked_terminating.txt")) as fh:
            text = fh.read()
        assert last in text and "  group G\n" in text and "horizon=4 " in text and "\npipeline worked" in text
        text = text.replace(last, "  node b1 parent=a1 orbit=op repeat=c1\n" + nodes).replace("\npipeline worked", "\n" + extra + "pipeline worked")
        text = text.replace("  group G\n", "  group G\n  group BR\n").replace("horizon=4 ", "horizon=4 relative=BR ")
        path = tmp_path / "script.txt"
        path.write_text(text)
        assert main(["pipeline", str(path), "--name", "worked"]) == code
        out, got = capsys.readouterr()
        assert out == "" and got == err

    def test_an_override_to_an_undeclared_group_exit_code(self, tmp_path, capsys):
        """An override naming a group that no group line declares is
        malformed input, even when no terminal carries its edge orbit."""
        op = workloads.chain(random.Random(1), 4)
        node = op.text.split("\npipeline ", 1)[1].split("\n  node ", 1)[1].split()[0]
        assert op.text.endswith("\nend\n")
        path = tmp_path / "chain.txt"
        path.write_text(op.text[: -len("end\n")] + f"  override {node} edge-orbit=nosuchorbit stabplus=nosuchgroup\nend\n")
        assert main(["pipeline", str(path), "--name", op.pipeline]) == 2
        assert capsys.readouterr() == ("", "error: unknown group id 'nosuchgroup'\n")

    def test_an_undeclared_relative_group_exit_code(self, tmp_path, capsys):
        """A relative-class id that no group line declares is malformed
        input, even though no tree carries an action entry for it."""
        with open(fixture("worked_terminating.txt")) as fh:
            text = fh.read()
        assert "horizon=4 " in text
        path = tmp_path / "relative.txt"
        path.write_text(text.replace("horizon=4 ", "horizon=4 relative=nosuchgroup "))
        assert main(["pipeline", str(path), "--name", "worked"]) == 2
        assert capsys.readouterr() == ("", "error: unknown group id 'nosuchgroup'\n")

    def test_reports_deterministic(self):
        fx1 = parse_fixtures([fixture("worked_terminating.txt")])
        fx2 = parse_fixtures([fixture("worked_terminating.txt")])
        r1 = run_pipeline(fx1, "worked").render()
        r2 = run_pipeline(fx2, "worked").render()
        assert r1 == r2
        # runs are isolated: a second run on the same fixture set mints
        # into its own group table and reports the same
        ids = fx1.groups.ids()
        assert run_pipeline(fx1, "worked").render() == r1
        assert fx1.groups.ids() == ids


    def test_dot_files_are_named_by_level_and_index(self, tmp_path):
        """A complex id is a script path, of any length: with the script
        node a0 renamed to 300 characters the run still certifies, and its
        B_w files are named by level and index in sorted id order, each
        holding its full id."""
        long = "n" * 300
        path = tmp_path / "long.txt"
        with open(fixture("worked_terminating.txt")) as fh:
            path.write_text(re.sub(r"\ba0\b", long, fh.read()))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--dot", str(tmp_path / "dot"), "pipeline", str(path), "--name", "worked"]) == 0
        assert sorted(os.listdir(tmp_path / "dot")) == ["level1.0.bw.dot", "level1.1.bw.dot"]
        assert (tmp_path / "dot" / "level1.0.bw.dot").read_text().startswith('graph "w0.a1/o1.t0" {')
        assert (tmp_path / "dot" / "level1.1.bw.dot").read_text().startswith(f'graph "w0.{long}/o0.t0" {{')


class TestExports:
    def test_gog_serialize_and_dot(self):
        from passdown.dot import gog_to_dot

        fx = parse_text(
            """
groups
  group A
  group E slender sub-of=A
end
gog Q jsj
  vertex v1 A rigid
  vertex v2 A flexible
  edge e v1 v2 E
end
"""
        )
        g = fx.gogs["Q"]
        fx2 = parse_text(write(fx))
        assert fx2.gogs["Q"].vertices == g.vertices
        assert fx2.gogs["Q"].edges == g.edges
        assert fx2.gogs["Q"].flags == g.flags
        dot = gog_to_dot(g)
        assert "shape=box" in dot and "shape=ellipse" in dot

    def test_passdown_quotient_dot(self, tmp_path):
        rc = main(
            [
                "--dot",
                str(tmp_path),
                "passdown",
                fixture("worked_terminating.txt"),
                "--structure",
                "S0",
                "--tree",
                "T0",
            ]
        )
        assert rc == 0
        assert (tmp_path / "T0.quotient.dot").exists()


class TestHorizonEllipticity:
    def test_frontier_chain_is_horizon_relative(self):
        from passdown.groups import GroupRef, GroupTable
        from passdown.hierarchy import HNode, Hierarchy
        from passdown.trees import make_gog

        from oracles import is_h_elliptic

        groups = GroupTable(
            [
                GroupRef("G"),
                GroupRef("A", declared_supergroups=frozenset({"G"})),
                GroupRef("H", declared_supergroups=frozenset({"A", "G"})),
            ]
        )
        q = make_gog("q", {"v": "A"}, {}, groups=groups)
        q2 = make_gog("q2", {"v": "A", "w": "G"}, {}, groups=groups)
        nodes = {
            "r": HNode(id="r", group="G", action=q, children={"v": "c"}),
            # frontier: carries a splitting but its children are unexpanded
            "c": HNode(id="c", group="A", parent="r", action=q2),
        }
        h = Hierarchy(name="trunc", root="r", nodes=nodes)
        result = is_h_elliptic("H", h, groups)
        assert result.value and result.horizon_relative
        assert result.witness == ("r", "c")


def test_relative_class_must_be_elliptic(tmp_path):
    bad = tmp_path / "rel.txt"
    bad.write_text(
        """
groups
  group GR
  group BR
end
complex XR
  vertex a marked
  vertex b
  vertex c
  edge ab a b
  edge bc b c
  edge ac a c
  triangle t ab bc ac
end
tree TR
  vertex y0
  vertex y1
  edge g0 y0 y1
  ideal pp ray=y1,y0
  ideal qq ray=y0,y1
end
actions TR
  hyperbolic BR ends=pp,qq
end
hierarchy KR
  node r GR
end
structure SR hierarchy=KR
  attach r complex=XR
end
config
  horizon=1 relative=BR
end
pipeline rel root=SR
  node w0 tree=TR
  node w1 parent=w0 orbit=y0
  node w2 parent=w0 orbit=y1
end
"""
    )
    assert main(["pipeline", str(bad), "--name", "rel"]) == 1


BOWTIE = """
complex X
  vertex a0 orbit=C
  vertex a1 orbit=R
  vertex a2 orbit=R
  vertex a3 orbit=R
  vertex b0 orbit=C
  vertex b2 orbit=R
  vertex b3 orbit=R
  vertex b4 orbit=R
  edge s1 a0 a1 orbit=S
  edge s2 a0 a2 orbit=S
  edge s3 a0 a3 orbit=S
  edge r12 a1 a2 orbit=E
  edge r23 a2 a3 orbit=E
  edge r31 a3 a1 orbit=E
  triangle tA1 s1 r12 s2 orbit=o
  triangle tA2 s2 r23 s3 orbit=o
  triangle tA3 s3 r31 s1 orbit=o
  edge u1 b0 a1 orbit=S
  edge u2 b0 b2 orbit=S
  edge u3 b0 b3 orbit=S
  edge u4 b0 b4 orbit=S
  edge q12 a1 b2 orbit=E
  edge q23 b2 b3 orbit=E
  edge q34 b3 b4 orbit=E
  edge q41 b4 a1 orbit=E
  triangle tB1 u1 q12 u2 orbit=o
  triangle tB2 u2 q23 u3 orbit=o
  triangle tB3 u3 q34 u4 orbit=o
  triangle tB4 u4 q41 u1 orbit=o
end
tree PT
  vertex p0 orbit=op
end
hierarchy K
  node r 1
end
structure S hierarchy=K
  attach r complex=X
end
config
  horizon=2
end
pipeline bow root=S
  node w0 tree=PT
  node w1 parent=w0 orbit=op repeat=w0
end
"""


@pytest.mark.parametrize("argv", [["pipeline", "--name", "bow"], ["passdown", "--structure", "S", "--tree", "PT"]])
def test_a_triangle_orbit_in_pieces_of_two_orbits_is_malformed(argv, tmp_path, capsys):
    """Two cones, on a 3-cycle and on a 4-cycle, wedged at a rim vertex
    (called the bowtie).  Every orbit rule holds cell by cell: each face
    has sides S, S, E, each spoke lies on two faces of orbit o and each
    rim edge on one.  But the cones differ in size, so the cutpoint-free
    pieces lie in different orbits and the split would count the triangle
    orbit twice; the quotient data is refused."""
    path = tmp_path / "bowtie.txt"
    path.write_text(BOWTIE)
    assert main(argv[:1] + [str(path)] + argv[1:]) == 2
    assert capsys.readouterr().err == "error: triangle orbit 'o' lies in cutpoint-free pieces of different orbits\n"



# edges e1 and e2 of one orbit, e1 on the triangle t and e2 on no face
EDGE_ORBIT_ON_TWO_FACE_SETS = """\
groups
  group V1
  group V2
  group E slender helliptic sub-of=V1,V2
  group Ga slender helliptic
  group Gb slender helliptic
end
complex X
  vertex a marked stab=Ga orbit=p
  vertex c stab=Ga orbit=p
  vertex b marked stab=Gb orbit=q
  vertex d marked stab=Gb orbit=q
  vertex z stab=Ga
  edge e1 a b orbit=e
  edge e2 c d orbit=e
  edge az a z
  edge bz b z
  edge ac a c
  triangle t e1 bz az
end
tree T
  vertex x0 stab=V1
  vertex x1 stab=V2
  edge f x0 x1 stab=E
end
actions T
  elliptic Ga fix=x0
  elliptic Gb fix=x1
end
"""


@pytest.mark.parametrize("command", ["tracks", "split"])
def test_an_edge_orbit_on_two_face_sets_is_refused_at_parse(command, tmp_path, capsys):
    """e1 and e2 are one orbit, but only e1 lies on a triangle: a group
    element carries an edge's faces onto those of its image, so the
    complex is refused where it is read, at the line of e2, the first edge
    of the orbit's second shape."""
    path = tmp_path / "orbit.txt"
    path.write_text(EDGE_ORBIT_ON_TWO_FACE_SETS)
    assert main([command, str(path), "--complex", "X", "--tree", "T"]) == 2
    assert capsys.readouterr().err == "error: line 15: edges of orbit 'e' have mismatched face orbits\n"


def cone_capped_annulus(name, n):
    """The lines of a sphere: an annulus of n squares between a top cycle
    (vertex orbit P, label Ga) and a bottom cycle (Q, Gb), each cycle
    capped by a cone on a marked apex.  Every sphere of it has one orbit
    per kind of cell, whatever n."""
    t, b = [f"{name}t{i}" for i in range(n)], [f"{name}b{i}" for i in range(n)]
    lines = [f"  vertex {name}ct marked stab=Ga orbit=CT", f"  vertex {name}cb marked stab=Gb orbit=CB"]
    lines += [f"  vertex {w} stab=Ga orbit=P" for w in t] + [f"  vertex {w} stab=Gb orbit=Q" for w in b]
    for i in range(n):
        j = (i + 1) % n
        lines += [
            f"  edge {name}T{i} {t[i]} {t[j]} orbit=T", f"  edge {name}B{i} {b[i]} {b[j]} orbit=B",
            f"  edge {name}V{i} {t[i]} {b[i]} orbit=V", f"  edge {name}D{i} {t[i]} {b[j]} orbit=D",
            f"  edge {name}CT{i} {name}ct {t[i]} orbit=CE", f"  edge {name}CB{i} {name}cb {b[i]} orbit=CF",
        ]
    for i in range(n):
        j = (i + 1) % n
        lines += [
            f"  triangle {name}up{i} {name}T{i} {name}V{j} {name}D{i} orbit=U",
            f"  triangle {name}dn{i} {name}V{i} {name}B{i} {name}D{i} orbit=W",
            f"  triangle {name}ct{i} {name}CT{i} {name}CT{j} {name}T{i} orbit=K",
            f"  triangle {name}cb{i} {name}CB{i} {name}CB{j} {name}B{i} orbit=L",
        ]
    return lines


def test_segments_of_one_edge_orbit_between_point_orbits_of_two_shapes_are_refused(tmp_path, capsys):
    """Parsing gives the edges of one orbit one pair of end orbits and one
    multiset of face orbits, and the resolution gives them one path, but a
    track is global: on two cone-capped annuli of 3 and 6 squares, joined
    at their top apices, every orbit rule holds, and each annulus carries
    one essential track, a cycle through all of its vertical and diagonal
    edges.  The two tracks cross different numbers of edges, so their
    points take different orbits, and the first segments of the vertical
    edges, one orbit V.0, join P to points of two orbits: the collapse
    refuses them."""
    lines = ["groups", "  group V1", "  group V2", "  group E slender helliptic sub-of=V1,V2"]
    lines += ["  group Ga slender helliptic", "  group Gb slender helliptic", "end", "complex X"]
    lines += cone_capped_annulus("a", 3) + cone_capped_annulus("z", 6) + ["  edge j act zct orbit=J", "end"]
    lines += ["tree T", "  vertex x0 stab=V1", "  vertex x1 stab=V2", "  edge f x0 x1 stab=E", "end"]
    lines += ["actions T", "  elliptic Ga fix=x0", "  elliptic Gb fix=x1", "end"]
    path = tmp_path / "annuli.txt"
    path.write_text("\n".join(lines) + "\n")
    argv = [str(path), "--complex", "X", "--tree", "T"]
    assert main(["tracks", *argv]) == 0
    assert [line.split(" edges=")[0] for line in capsys.readouterr().out.splitlines()] == [
        "track s0 at f [essential]", "track s1 at f [essential]",
    ]
    assert main(["split", *argv]) == 2
    assert capsys.readouterr().err == "error: edges of orbit 'D.0' have mismatched endpoint orbits\n"


CYCLE_WITH_TAIL = """\
complex L
  vertex a
  vertex b
  vertex c
  vertex d
  edge ab a b
  edge bc b c
  edge cd c d
  edge db d b
end
"""
PATH_AND_POINT = """\
complex D
  vertex a
  vertex b
  vertex c
  vertex d
  edge ab a b
  edge bc b c
end
"""
PARALLEL_EDGES = """\
complex P
  vertex a
  vertex b
  vertex c
  edge ab a b
  edge ab2 a b
  edge bc b c
  edge ac a c
  triangle t1 ab bc ac
  triangle t2 ab2 bc ac
end
tree T
  vertex p0
end
"""


@pytest.mark.parametrize(
    "text, argv, message",
    [
        (CYCLE_WITH_TAIL, ["cutpoints", "--complex", "L"], "cutpoint tree needs h1_z2 = 0"),
        (PATH_AND_POINT, ["cutpoints", "--complex", "D"], "cutpoint tree needs a connected complex"),
        (PARALLEL_EDGES, ["tracks", "--complex", "P", "--tree", "T"], "track extraction needs a simplicial complex"),
    ],
)
def test_a_complex_outside_a_command_hypothesis_exit_code(text, argv, message, tmp_path, capsys):
    """A cutpoint tree of a complex with a cutpoint and h1 != 0 (a cycle
    with a tail) or with two components (a path and a point), and the
    tracks of a complex with two triangles on one vertex triple, are
    refused as malformed input."""
    path = tmp_path / "refused.txt"
    path.write_text(text)
    assert main(argv[:1] + [str(path)] + argv[1:]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


COMMITTED_PIPELINES = [
    ("acc_stable.txt", "stable"),
    ("f2_style.txt", "f2"),
    ("wide_grid.txt", "P37058b"),
    ("worked_terminating.txt", "worked"),
]
RUN_PIPELINES = """
import sys
from passdown.cli import main
for path, name in zip(sys.argv[1::2], sys.argv[2::2]):
    code = main(["pipeline", path, "--name", name])
    print(f"=== {name}: exit code {code}")
"""


def test_pipeline_output_does_not_depend_on_the_hash_seed():
    """`passdown pipeline` on the committed fixtures, in fresh
    interpreters with different string hashing: stdout and exit codes are
    the same."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    args = [a for name, pipeline in COMMITTED_PIPELINES for a in (fixture(name), pipeline)]
    outputs = set()
    for hashseed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", RUN_PIPELINES, *args], env=env, capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    codes = [line.rsplit(" ", 1)[1] for line in outputs.pop().splitlines() if line.startswith("=== ")]
    assert codes == ["0", "1", "0", "0"]


RUN_COMMANDS = """
import sys
from passdown.cli import main
for argv in sys.argv[1:]:
    main(argv.split())
"""


def test_a_failing_cell_is_named_alike_under_every_hash_seed(tmp_path):
    """Two inputs whose first failing cell is one of several vertices: the
    cells of ``contracting.txt`` labelled L, once L is not slender, and the
    corners of a face whose label lies below its sides but not its corners.
    Each error names the least such vertex, in fresh interpreters with
    different string hashing."""
    with open(fixture("contracting.txt")) as fh:
        text = fh.read()
    assert "  group L slender\n" in text
    (tmp_path / "fat.txt").write_text(text.replace("  group L slender\n", "  group L\n"))
    (tmp_path / "face.txt").write_text(
        "groups\n  group A\n  group B\n  group F sub-of=A\nend\ncomplex X\n  vertex a stab=B\n  vertex b stab=B\n"
        "  vertex c stab=B\n  edge ab a b stab=A\n  edge bc b c stab=A\n  edge ac a c stab=A\n"
        "  triangle t ab bc ac stab=F\nend\n"
    )
    argv = [
        f"passdown {tmp_path / 'fat.txt'} --structure SC --tree TL",
        f"pipeline {tmp_path / 'fat.txt'} --name contracting",
        f"h1 {tmp_path / 'face.txt'} --complex X",
    ]
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    for hashseed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", RUN_COMMANDS, *argv], env=env, capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout == "", proc.stderr
        assert proc.stderr == (
            "error: line 60: cell 'u' of the complex at 'r' is neither slender nor elliptic on every level\n" * 2
            + "error: line 13: face 't' stabilizer 'F' not declared inside vertex 'a' stabilizer\n"
        ), hashseed


FUZZED = [  # fixture, pipeline, structure, tree
    ("acc_stable.txt", "stable", "SS", "PT"),
    ("f2_style.txt", "f2", "SF", "PT"),
    ("worked_terminating.txt", "worked", "S0", "T0"),
    ("contracting.txt", "contracting", "SC", "TL"),
]
JUNK = ["=", "end", "stab=", "x=1", "0", "-1", "sub-of=", "fix=", "orbit=", "parent=", "repeat=w0"]


def fuzzed_cases():
    """(fixture lines, pipeline, structure, tree) per fuzzed fixture, and the
    pool of tokens a mutation draws from."""
    cases = []
    for name, pipeline, structure, tree in FUZZED:
        with open(fixture(name)) as fh:
            cases.append((fh.read().splitlines(), pipeline, structure, tree))
    return cases, sorted({w for lines, *_ in cases for line in lines for w in line.split()} | set(JUNK))


def mutate(rng, lines, pool):
    """One line mutation: delete, duplicate or swap lines, or replace or
    insert a token."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    kind = rng.choice(("delete", "duplicate", "swap", "replace", "insert"))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        words = lines[i].split()
        indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
        if kind == "replace" and words:
            words[rng.randrange(len(words))] = rng.choice(pool)
        else:
            words.insert(rng.randrange(len(words) + 1), rng.choice(pool))
        lines[i] = indent + " ".join(words)
    return lines


def test_line_mutations_exit_0_1_or_2(tmp_path):
    """1,400 seeded line mutations of four committed fixtures, each run in
    turn through ``pipeline`` and ``passdown``: every run exits 0, 1 or 2
    and raises nothing."""
    rng = random.Random(20261018)
    cases, pool = fuzzed_cases()
    path = tmp_path / "mutated.txt"
    codes = Counter()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for case in range(1400):
            lines, pipeline, structure, tree = cases[case % len(cases)]
            path.write_text("\n".join(mutate(rng, lines, pool)) + "\n")
            if case // len(cases) % 2:
                argv = ["passdown", str(path), "--structure", structure, "--tree", tree]
            else:
                argv = ["pipeline", str(path), "--name", pipeline]
            code = main(argv)
            assert code in (0, 1, 2), (case, argv[0], code, path.read_text())
            codes[code] += 1
            sink.seek(0)
            sink.truncate()
    assert set(codes) == {0, 1, 2}


RUN_TRANSCRIPT = """
import contextlib, io, json, sys
from passdown.cli import main
transcript = []
with open(sys.argv[1]) as fh:
    runs = json.load(fh)
for argv in runs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    transcript.append([out.getvalue(), err.getvalue(), code])
print(json.dumps(transcript))
"""


def test_line_mutations_report_alike_under_two_hash_seeds(tmp_path):
    """60 seeded line mutations of the four fuzzed fixtures, each run
    through ``pipeline`` and ``passdown`` in one fresh interpreter per
    string-hash seed: the two transcripts (stdout, stderr and exit code
    of every run) are identical, malformed input included."""
    rng = random.Random(20261030)
    cases, pool = fuzzed_cases()
    runs = []
    for case in range(60):
        lines, pipeline, structure, tree = cases[case % len(cases)]
        path = tmp_path / f"mutated{case}.txt"
        path.write_text("\n".join(mutate(rng, lines, pool)) + "\n")
        runs.append(["pipeline", str(path), "--name", pipeline])
        runs.append(["passdown", str(path), "--structure", structure, "--tree", tree])
    (tmp_path / "runs.json").write_text(json.dumps(runs))
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    transcripts = []
    for hashseed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", RUN_TRANSCRIPT, str(tmp_path / "runs.json")], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        transcripts.append(json.loads(proc.stdout))
    assert transcripts[0] == transcripts[1]
    assert {code for _out, _err, code in transcripts[0]} == {0, 1, 2}
