import os
import random

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
        for text in ("complex X\n  triangle t a b c\nend\n", "a=b\n"):
            bad.write_text(text)
            assert main(["h1", str(bad), "--complex", "X"]) == 2
        assert "line 1" in capsys.readouterr().err

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
        from passdown.hierarchy import HNode, Hierarchy, is_h_elliptic
        from passdown.trees import make_gog

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
