"""The fixture grammar: ``fixtures.GRAMMAR`` is the one table of what each
line may carry, every line is checked against it, and the README's
grammar block documents exactly its forms."""

import dataclasses
import os
import re

import pytest

from passdown.cli import main
from passdown.fixtures import GRAMMAR, FixtureSet
from passdown.trees import ActionDescriptor

from differential import differential_test

README = os.path.join(os.path.dirname(__file__), "..", "README.md")

# one valid line of every GRAMMAR entry
EVERY_FORM = """\
groups
  group A
  group B slender helliptic sub-of=A
end
complex X
  vertex a marked stab=B
  vertex b
  vertex c
  edge ab a b
  edge bc b c
  edge ac a c
  edge ab2 a b
  triangle t ab bc ac
  bigon g ab ab2
end
tree T
  vertex x0
  vertex x1
  edge f x0 x1
  ideal p ray=x1,x0
  ideal q ray=x0,x1
end
actions T
  elliptic A fix=x0
  hyperbolic B ends=p,q
  parabolic 1 end=p
end
gog G jsj
  vertex v0 A rigid
  vertex v1 A
  edge e v0 v1 B
end
gog H
  vertex s0 B
end
hierarchy K
  node r A
end
structure S hierarchy=K
  attach r complex=X
end
config
  horizon=2
end
pipeline P root=S
  node w0 tree=T
  override w0 edge-orbit=f stabplus=B
end
restrict B G elliptic v0
restrict A G split H s0:v0
"""


def line_forms(lines):
    """(GRAMMAR key, index) of each line of fixture-format text that is
    not blank, a comment or ``end``."""
    block = None
    for i, line in enumerate(lines):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        words = [w for w in text.split() if "=" not in w]
        if text == "end":
            block = None
        elif block is not None:
            yield (block, None if block == "config" else words[0]), i
        elif words[0] == "restrict":
            yield ("restrict", words[3]), i
        else:
            block = words[0]
            yield (block, block), i


def documented_form(line):
    """(words, optional words, flags, keys) of one README grammar line:
    ``<...>`` and literal words are positional, ``[...]`` marks what may
    be left out, and ``key=`` names a key."""
    words = optional = 0
    flags, keys = set(), set()
    for tok in line.split("#", 1)[0].split():
        bracketed = tok.startswith("[")
        tok = tok.strip("[]")
        if "=" in tok:
            keys.add(tok.split("=", 1)[0])
        elif bracketed and not tok.startswith("<"):
            flags.update(tok.split("|"))
        else:
            words += 1
            optional += bracketed
    return words, optional, flags, keys


def readme_grammar():
    with open(README) as fh:
        text = fh.read()
    return re.search(r"## Fixture format\n.*?```\n(.*?)```", text, re.S).group(1).splitlines()


def test_the_readme_grammar_documents_each_form_of_the_table():
    lines = readme_grammar()
    documented = {key: documented_form(lines[i]) for key, i in line_forms(lines)}
    assert set(documented) == set(GRAMMAR)
    for key, form in GRAMMAR.items():
        assert documented[key] == (form.words, form.optional, set(form.flags), set(form.keys)), key


def test_the_every_form_fixture_is_valid_and_has_each_form(tmp_path):
    path = tmp_path / "every.txt"
    path.write_text(EVERY_FORM)
    assert main(["h1", str(path), "--complex", "X"]) == 0
    assert {key for key, _i in line_forms(EVERY_FORM.splitlines())} == set(GRAMMAR)


@pytest.mark.parametrize("key", sorted(GRAMMAR, key=str), ids=lambda key: " ".join(filter(None, key)))
def test_an_unknown_key_exits_2_on_every_form(key, tmp_path, capsys):
    lines = EVERY_FORM.splitlines()
    i = next(i for form, i in line_forms(lines) if form == key)
    lines[i] += " bogus=1"
    path = tmp_path / "bogus.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["h1", str(path), "--complex", "X"]) == 2
    assert re.fullmatch(rf"error: line {i + 1}: unknown [a-z ]+ key 'bogus'\n", capsys.readouterr().err)


@pytest.mark.parametrize(
    "old, new",
    [
        ("restrict B G elliptic v0", "restrict B G elliptic v0 trailing"),
        ("restrict B G elliptic v0", "restrict B G elliptic v0 trailing words"),
        ("restrict A G split H s0:v0", "restrict A G split H s0:v0 trailing"),
        ("groups\n", "groups flag\n"),
        ("  vertex b\n", "  vertex b stb=A\n"),
        ("  hyperbolic B ends=p,q", "  hyperbolic B ends=p,q len=2"),
        ("config\n", "resolution R complex=X tree=T\n  map a x0\nend\nconfig\n"),
    ],
)
def test_a_line_the_table_refuses_exits_2(old, new, tmp_path, capsys):
    assert EVERY_FORM.count(old) == 1
    path = tmp_path / "bad.txt"
    path.write_text(EVERY_FORM.replace(old, new))
    assert main(["h1", str(path), "--complex", "X"]) == 2
    assert capsys.readouterr().err.startswith("error: line ")


def test_a_restrict_split_may_leave_out_its_pairs(tmp_path):
    path = tmp_path / "split.txt"
    path.write_text(EVERY_FORM.replace("split H s0:v0", "split H"))
    assert main(["h1", str(path), "--complex", "X"]) == 0


def test_grammar_that_nothing_reads_is_gone():
    assert "resolutions" not in {f.name for f in dataclasses.fields(FixtureSet)}
    assert "translation_length" not in {f.name for f in dataclasses.fields(ActionDescriptor)}


class TestReader:
    test_reads_as_the_grammar_and_the_walk_read = differential_test("fixture text")
