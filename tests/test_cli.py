import contextlib
import io
import os
import random
import subprocess
import sys
from collections import Counter

import pytest

from passdown.cli import main
from passdown.complexes import covolume
from passdown.errors import FixtureError
from passdown.fixtures import (
    parse_fixtures,
    parse_text,
    serialize_complex,
    serialize_groups,
    serialize_tree,
)
from passdown.hierarchy import Restriction
from passdown.pipeline import run_pipeline

from generators import random_cell_complex, random_treehat

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


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
        for _ in range(25):
            x = random_cell_complex(rng, max_vertices=8)
            text = serialize_complex("X", x)
            fx = parse_text(text)
            y = fx.complexes["X"]
            assert y.vertices == x.vertices
            assert y.edges == x.edges
            assert y.faces == x.faces
            assert y.stab == x.stab
            assert y.orbit == x.orbit
            assert y.boundary_marked == x.boundary_marked
            assert serialize_complex("X", y) == text

    def test_tree_roundtrip(self):
        rng = random.Random(6)
        for _ in range(25):
            t = random_treehat(rng)
            text = serialize_tree("T", t)
            fx = parse_text(text)
            s = fx.trees["T"]
            assert s.vertices == t.vertices
            assert s.edges == t.edges
            assert s.ideal_points == t.ideal_points
            assert serialize_tree("T", s) == text

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
        assert serialize_groups(fx.groups).count("\n  group ") == 2

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
        ):
            bad.write_text(text)
            assert main(["h1", str(bad), "--complex", "X"]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err
        assert "line 2: unknown config key 'horizn'" in err
        assert "line 2: config: link-cap must be at least 3" in err
        assert "face 't2' references missing edge 'cd'" in err
        assert "line 1: pipeline 'P' needs at least one node" in err

    _AB = "groups\n  group A\n  group B\nend\n"
    _TRI = (
        "  vertex a stab=A\n  vertex b stab=A\n  vertex c stab={c}\n  edge ab a b stab=A\n"
        "  edge bc b c stab=A\n  edge ac a c stab=A\n  triangle t ab bc ac stab={t}\nend\n"
    )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("complex X\n  vertex a stab=NOPE\nend\n", "line 1: unknown group id 'NOPE'"),
            (
                "complex X\n  vertex a\n  vertex b\n  edge ab a b stabplus=NOPE\nend\n",
                "line 1: unknown group id 'NOPE'",
            ),
            (
                _AB + "complex X\n" + _TRI.format(c="A", t="B"),
                "line 5: face 't' stabilizer 'B' not declared inside edge 'ab' stabilizer",
            ),
            (
                _AB + "complex X\n" + _TRI.format(c="B", t="A"),
                "line 5: face 't' stabilizer 'A' not declared inside vertex 'c' stabilizer",
            ),
            (
                _AB + "complex X\n  vertex a stab=A\n  vertex b stab=B\n  edge ab a b stab=A\nend\n",
                "line 5: edge 'ab' stabilizer 'A' not declared inside vertex 'b' stabilizer",
            ),
            (
                _AB + "complex X\n  vertex a stab=A orbit=o\n  vertex b stab=B orbit=o\nend\n",
                "line 5: orbit 'o' carries several stabilizer labels: ['A', 'B']",
            ),
            (
                "complex X\n  vertex a\n  vertex b\n  vertex c\n  vertex d\n"
                "  edge ab a b orbit=e\n  edge cd c d orbit=e\nend\n",
                "line 1: edges of orbit 'e' have mismatched endpoint orbits",
            ),
        ],
    )
    def test_bad_label_exit_code_and_message(self, text, message, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["h1", str(bad), "--complex", "X"]) == 2
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


class TestExports:
    def test_gog_serialize_and_dot(self):
        from passdown.dot import gog_to_dot
        from passdown.fixtures import serialize_gog

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
        text = serialize_gog(g)
        fx2 = parse_text(serialize_groups(fx.groups) + text)
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
  vertex a
  vertex b
  vertex c
  vertex d
  vertex e
  edge ab a b
  edge bc b c
  edge ac a c
  edge cd c d
  edge de d e
  edge ce c e
  triangle t1 ab bc ac orbit=o
  triangle t2 cd de ce orbit=o
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
    """A bowtie: two triangles of one orbit meeting only at a cut vertex.
    Its cutpoint-free pieces lie in different orbits, so the split would
    count the triangle orbit twice; the quotient data is refused."""
    path = tmp_path / "bowtie.txt"
    path.write_text(BOWTIE)
    assert main(argv[:1] + [str(path)] + argv[1:]) == 2
    assert capsys.readouterr().err == "error: triangle orbit 'o' lies in cutpoint-free pieces of different orbits\n"



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


FUZZED = [  # fixture, pipeline, structure, tree
    ("acc_stable.txt", "stable", "SS", "PT"),
    ("f2_style.txt", "f2", "SF", "PT"),
    ("worked_terminating.txt", "worked", "S0", "T0"),
    ("contracting.txt", "contracting", "SC", "TL"),
]
JUNK = ["=", "end", "stab=", "x=1", "0", "-1", "sub-of=", "fix=", "orbit=", "parent=", "repeat=w0"]


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
    cases = []
    for name, pipeline, structure, tree in FUZZED:
        with open(fixture(name)) as fh:
            cases.append((fh.read().splitlines(), pipeline, structure, tree))
    pool = sorted({w for lines, *_ in cases for line in lines for w in line.split()} | set(JUNK))
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
